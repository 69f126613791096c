# coding: utf-8
"""Train a small model end to end on synthetic data and inspect it.

Run from the repository root:  python3 demos/03_training_on_synthetic_data.py
"""

import numpy as np

from emoticnn import (
    CATEGORY_NAMES,
    MODE_EMOTICON_TEXT,
    EmoticonLexicon,
    ModelConfig,
    TrainConfig,
    encode,
    encode_dataset,
    encode_texts,
    evaluate,
    fit_vocabulary,
    generate_synthetic,
    init_model,
    pad,
    preprocess,
    split_dataset,
    train_model,
)

# ------------------------------------------------------------------
# 1. Data. The generator writes four-way balanced posts whose label
#    is carried by 1-2 trailing emoticons from the right family.
# ------------------------------------------------------------------

tweets = generate_synthetic(800, seed=7, emoticon_informative=True)
print("sample posts:")
for tweet in tweets[:4]:
    print(f"   [{CATEGORY_NAMES[tweet.label]:<5}] {tweet.text}")

train_tweets, test_tweets = split_dataset(tweets, ratio=0.75, seed=7)
print(f"\nsplit: {len(train_tweets)} train / {len(test_tweets)} test")

# ------------------------------------------------------------------
# 2. Vocabulary and tensors. The vocabulary is fitted on the TRAIN
#    split only — test words it never saw become index 1 (OOV).
# ------------------------------------------------------------------

lexicon = EmoticonLexicon.default()
mode = MODE_EMOTICON_TEXT
length = 18

# Preprocess the training posts once: the vocabulary and the tensors use the same texts.
train_texts = [preprocess(t.text, lexicon, mode) for t in train_tweets]
vocab = fit_vocabulary(train_texts)
train_arrays = encode_texts(train_texts, [t.label for t in train_tweets], vocab, length)
test_arrays = encode_dataset(test_tweets, vocab, lexicon, mode, length)
print(f"vocabulary: {vocab.size} indices; tensors: {train_arrays[0].shape}")

# ------------------------------------------------------------------
# 3. Train. RMSProp, batch 32, a handful of epochs. The history
#    records loss and both accuracies per epoch.
# ------------------------------------------------------------------

config = ModelConfig(vocab_size=vocab.size, L=length)
model = init_model(config, seed=7)
cfg = TrainConfig(batch_size=32, epochs=8, seed=7, mode=mode)
model, history = train_model(model, train_arrays, test_arrays, cfg)

print("\nepoch  train_loss  train_acc  test_acc")
for r in history:
    print(f"{r.epoch:>5}  {r.train_loss:>10.4f}  {r.train_acc:>9.4f}  {r.test_acc:>8.4f}")

# ------------------------------------------------------------------
# 4. Evaluate. Accuracy is the trace of the confusion matrix over
#    its total; rows are actual categories, columns predictions.
# ------------------------------------------------------------------

accuracy, matrix = evaluate(model, test_arrays)
print(f"\ntest accuracy: {accuracy:.4f}")
print("confusion matrix (rows = actual Sad/Happy/Love/Angry):")
print(matrix.counts)

# ------------------------------------------------------------------
# 5. Predict something by hand.
# ------------------------------------------------------------------

for text in ("thinking about the weekend 😍", "the bus is late again 😡"):
    ids = pad(encode(preprocess(text, lexicon, mode), vocab), length)
    # Inference keeps no cache: model.forward(..., cache=False) returns (probs, None).
    probs = model.forward(np.array([ids]), cache=False)[0][0]
    predicted = CATEGORY_NAMES[int(probs.argmax()) + 1]
    print(f"   {text!r} -> {predicted} ({probs.max():.3f})")
