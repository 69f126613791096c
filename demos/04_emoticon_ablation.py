# coding: utf-8
"""Does emoticon normalization matter? Train twice and compare.

The two runs differ in exactly one step: emoticon mode replaces each
known emoji with its word phrase before encoding, text-only mode
deletes it. On data whose labels are carried by the emoticons, that
single step is the difference between learning the task and guessing.

Run from the repository root:  python3 demos/04_emoticon_ablation.py
"""

from emoticnn import (
    MODE_EMOTICON_TEXT,
    MODE_TEXT_ONLY,
    EmoticonLexicon,
    ModelConfig,
    TrainConfig,
    encode_dataset,
    encode_texts,
    fit_vocabulary,
    generate_synthetic,
    init_model,
    preprocess,
    split_dataset,
    train_model,
)

# ------------------------------------------------------------------
# 1. One dataset, one split, one seed — shared by both runs.
# ------------------------------------------------------------------

tweets = generate_synthetic(800, seed=1, emoticon_informative=True)
train_tweets, test_tweets = split_dataset(tweets, ratio=0.75, seed=1)
lexicon = EmoticonLexicon.default()

# A note on the sequence length: with pre-padding the informative
# tokens sit at the END of the window, and the floor in each 2/2
# max-pool silently discards the last convolution step whenever its
# input length is odd. Lengths such as 16 therefore leave the final
# two token positions invisible to the classifier, while 10, 14, 18,
# 22... keep the whole tail reachable. 18 fits this corpus.
length = 18

# ------------------------------------------------------------------
# 2. Train the same architecture under both preprocessing modes.
# ------------------------------------------------------------------

results = {}
for mode in (MODE_EMOTICON_TEXT, MODE_TEXT_ONLY):
    train_texts = [preprocess(t.text, lexicon, mode) for t in train_tweets]
    vocab = fit_vocabulary(train_texts)
    train_arrays = encode_texts(train_texts, [t.label for t in train_tweets], vocab, length)
    test_arrays = encode_dataset(test_tweets, vocab, lexicon, mode, length)
    model = init_model(ModelConfig(vocab_size=vocab.size, L=length), seed=1)
    cfg = TrainConfig(batch_size=32, epochs=10, seed=1, mode=mode)
    _, history = train_model(model, train_arrays, test_arrays, cfg)
    results[mode] = history
    print(f"trained {mode:<14} vocab={vocab.size:<4} "
          f"final test acc {history[-1].test_acc:.4f}")

# ------------------------------------------------------------------
# 3. Compare the trajectories.
# ------------------------------------------------------------------

print("\nepoch   emoticon_text   text_only")
for a, b in zip(results[MODE_EMOTICON_TEXT], results[MODE_TEXT_ONLY]):
    print(f"{a.epoch:>5}   {a.test_acc:>13.4f}   {b.test_acc:>9.4f}")

best_emo = max(r.test_acc for r in results[MODE_EMOTICON_TEXT])
best_txt = max(r.test_acc for r in results[MODE_TEXT_ONLY])
print(f"\nbest test accuracy: {best_emo:.4f} with emoticons, "
      f"{best_txt:.4f} without — the words alone carry almost nothing.")
