"""Acceptance gate: the eight binding checks for this package.

Each test enforces one numbered criterion at its stated tolerance and,
where applicable, its runtime budget. Run with ``pytest -v`` to get one
pass/fail line per criterion. None of the thresholds here may be
loosened; a red line means the requirement is not met.

Two criteria reference a sequence length of 9. The layer stack
(two valid width-3 convolutions, each followed by 2/2 pooling)
structurally needs at least 10 timesteps, so 10 is the shortest legal
length; those checks therefore use L=10 and additionally require both
8 and 9 to be rejected at configuration time.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np
import pytest

from naive_oracles import naive_conv1d, naive_maxpool1d

from emoticnn.cli import main as cli_main
from emoticnn.corpus import (
    MODE_EMOTICON_TEXT,
    MODE_TEXT_ONLY,
    EmoticonLexicon,
    generate_synthetic,
    preprocess,
    replace_emoticons,
)
from emoticnn.encode import fit_vocabulary, pad
from emoticnn.nn import (
    PARAM_NAMES,
    ModelConfig,
    conv1d_forward,
    gradient_check,
    init_model,
    maxpool1d,
)
from emoticnn.persist import PersistError, load_model, save_model
from emoticnn.train import (
    ConfusionMatrix,
    TrainConfig,
    encode_dataset,
    split_dataset,
    train_model,
)


def _report(number: int, name: str) -> None:
    print(f"CRITERION {number} ({name}): PASS")


# ---------------------------------------------------------------------


def test_criterion_1_gradient_correctness():
    """Analytic gradients match central finite differences everywhere.

    Tiny 64-bit model (shortest legal L, vocab 10); step is
    1e-5 * max(1, |theta|); every tensor must come in under a max
    relative error of 1e-4; the whole sweep must finish within 30 s.
    """
    started = time.perf_counter()
    config = ModelConfig(vocab_size=10, L=10, precision="float64")
    model = init_model(config, seed=1)
    rng = np.random.default_rng(7)
    ids = rng.integers(0, config.vocab_size, size=(1, config.L))
    labels = rng.integers(1, 5, size=1)

    errors = gradient_check(model, ids, labels)
    elapsed = time.perf_counter() - started

    assert set(errors) == set(PARAM_NAMES)
    for name, error in errors.items():
        assert error < 1e-4, f"{name}: max relative error {error:.3e}"
    assert elapsed < 30.0, f"gradient sweep took {elapsed:.1f}s"
    _report(1, "gradient correctness")


def test_criterion_2_oracle_equivalence():
    """conv1d_forward and maxpool1d match naive loop oracles to 1e-12.

    At least 100 random cases with T <= 16, C <= 8, F <= 8; budget 5 s.
    """
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    conv_cases = pool_cases = 0
    for _ in range(120):
        steps = int(rng.integers(3, 17))
        channels = int(rng.integers(1, 9))
        filters = int(rng.integers(1, 9))
        x = rng.normal(size=(steps, channels))
        kernel = rng.normal(size=(3, channels, filters))
        bias = rng.normal(size=filters)
        assert np.max(np.abs(conv1d_forward(x, kernel, bias) - naive_conv1d(x, kernel, bias))) <= 1e-12
        conv_cases += 1

        pooled, winners = maxpool1d(x)
        naive_pooled, naive_winners = naive_maxpool1d(x)
        assert np.max(np.abs(pooled - naive_pooled)) <= 1e-12
        assert np.array_equal(winners, naive_winners)
        pool_cases += 1
    elapsed = time.perf_counter() - started

    assert conv_cases >= 100 and pool_cases >= 100
    assert elapsed < 5.0, f"oracle sweep took {elapsed:.1f}s"
    _report(2, "oracle equivalence")


def test_criterion_3_metric_oracle():
    """Fixed reference confusion counts reproduce their exact accuracies.

    A balanced four-class table with 3526 correct of 4003 must give
    exactly 3526/4003 (= 0.88084...), and a degraded table with 1578
    correct must give 1578/4003 (= 0.39420...); both checked against
    exact rational arithmetic with 1e-9 tolerance on the float result.
    """
    # Rows are actual classes, columns predictions. The reference
    # tables are keyed by category name (their native row order is
    # Sad, Happy, Angry, Love) and rearranged into this package's
    # canonical order, so the check is independent of either layout.
    emoticon_rows = {
        "Sad": {"Sad": 875, "Happy": 26, "Angry": 61, "Love": 39},
        "Happy": {"Sad": 31, "Happy": 882, "Angry": 45, "Love": 43},
        "Angry": {"Sad": 47, "Happy": 37, "Angry": 890, "Love": 27},
        "Love": {"Sad": 45, "Happy": 42, "Angry": 34, "Love": 879},
    }
    text_only_rows = {
        "Sad": {"Sad": 429, "Happy": 148, "Angry": 247, "Love": 177},
        "Happy": {"Sad": 187, "Happy": 412, "Angry": 208, "Love": 194},
        "Angry": {"Sad": 257, "Happy": 220, "Angry": 387, "Love": 137},
        "Love": {"Sad": 225, "Happy": 240, "Angry": 185, "Love": 350},
    }

    canonical = ["Sad", "Happy", "Love", "Angry"]

    def accuracy_of(rows: dict) -> float:
        counts = np.array(
            [[rows[a].get(p, 0) for p in canonical] for a in canonical], dtype=np.int64
        )
        matrix = ConfusionMatrix(counts)
        assert matrix.total == 4003
        return matrix.accuracy

    assert abs(accuracy_of(emoticon_rows) - float(Fraction(3526, 4003))) < 1e-9
    assert abs(accuracy_of(text_only_rows) - float(Fraction(1578, 4003))) < 1e-9
    assert f"{accuracy_of(emoticon_rows):.5f}" == "0.88084"
    _report(3, "metric oracle")


def test_criterion_4_overfit_smoke():
    """64 synthetic samples, batch 16: train accuracy reaches 1.0 within
    200 epochs and 60 seconds."""
    started = time.perf_counter()
    tweets = generate_synthetic(64, seed=0, emoticon_informative=True)
    lexicon = EmoticonLexicon.default()
    mode = MODE_EMOTICON_TEXT
    vocab = fit_vocabulary(preprocess(t.text, lexicon, mode) for t in tweets)
    length = 14
    arrays = encode_dataset(tweets, vocab, lexicon, mode, length)

    config = ModelConfig(vocab_size=vocab.size, L=length)
    model = init_model(config, seed=0)
    cfg = TrainConfig(batch_size=16, epochs=200, seed=0)
    _, history = train_model(model, arrays, arrays, cfg)
    elapsed = time.perf_counter() - started

    assert len(history) <= 200
    best_train = max(record.train_acc for record in history)
    assert best_train == 1.0, f"train accuracy peaked at {best_train:.4f}"
    assert elapsed < 60.0, f"overfit run took {elapsed:.1f}s"
    _report(4, "overfit smoke")


def test_criterion_5_ablation_direction():
    """Emoticon normalization carries the labels; deleting it destroys them.

    On 2000 emoticon-informative synthetic tweets with a 75/25 split,
    the emoticon mode must reach best test accuracy >= 0.95 and the
    text-only mode must stay <= 0.60, for each of three seeds, within
    five minutes total.
    """
    started = time.perf_counter()
    lexicon = EmoticonLexicon.default()
    length = 18
    for seed in (1, 2, 3):
        tweets = generate_synthetic(2000, seed=seed, emoticon_informative=True)
        train_tweets, test_tweets = split_dataset(tweets, 0.75, seed=seed)
        best = {}
        for mode in (MODE_EMOTICON_TEXT, MODE_TEXT_ONLY):
            vocab = fit_vocabulary(preprocess(t.text, lexicon, mode) for t in train_tweets)
            train_arrays = encode_dataset(train_tweets, vocab, lexicon, mode, length)
            test_arrays = encode_dataset(test_tweets, vocab, lexicon, mode, length)
            config = ModelConfig(vocab_size=vocab.size, L=length)
            model = init_model(config, seed=seed)
            cfg = TrainConfig(batch_size=32, epochs=16, seed=seed, mode=mode)
            _, history = train_model(model, train_arrays, test_arrays, cfg)
            best[mode] = max(record.test_acc for record in history)
        assert best[MODE_EMOTICON_TEXT] >= 0.95, (
            f"seed {seed}: emoticon mode best test accuracy {best[MODE_EMOTICON_TEXT]:.4f}"
        )
        assert best[MODE_TEXT_ONLY] <= 0.60, (
            f"seed {seed}: text-only mode best test accuracy {best[MODE_TEXT_ONLY]:.4f}"
        )
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0, f"ablation sweep took {elapsed:.1f}s"
    _report(5, "ablation direction")


def test_criterion_6_pipeline_conformance():
    """Lexicon replacement, pre-padding, and the dataset split behave
    exactly as documented."""
    lexicon = EmoticonLexicon.default()
    assert len(lexicon) >= 15
    for emoji, phrase in lexicon.items():
        assert replace_emoticons(emoji, lexicon) == phrase
        assert phrase == phrase.lower()

    assert pad([4, 9, 2], 6) == [0, 0, 0, 4, 9, 2]

    head, tail = split_dataset(list(range(16_011)), 0.75, seed=0)
    assert len(head) == 12_008
    assert len(tail) == 4_003
    _report(6, "pipeline conformance")


def test_criterion_7_determinism_and_persistence(tmp_path):
    """Identical training runs are byte-identical; persistence is
    bit-exact; corrupted artifacts are rejected."""
    data = tmp_path / "data.csv"
    assert cli_main(["synth", "--n", "160", "--seed", "6", "--out", str(data)]) == 0

    argv_tail = ["--epochs", "2", "--seed", "2", "--max-len", "14", "--batch-size", "16"]
    run_a, run_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["train", "--data", str(data), "--out", str(run_a), *argv_tail]) == 0
    assert cli_main(["train", "--data", str(data), "--out", str(run_b), *argv_tail]) == 0
    assert (run_a / "history.csv").read_bytes() == (run_b / "history.csv").read_bytes()

    model, vocab, lexicon, train_cfg = load_model(run_a)
    resaved = tmp_path / "resaved"
    save_model(model, vocab, lexicon, train_cfg, resaved)
    reloaded, *_ = load_model(resaved)
    for name in PARAM_NAMES:
        assert np.array_equal(
            reloaded.params[name].view(np.uint8), model.params[name].view(np.uint8)
        ), name

    manifest = run_b / "model.json"
    manifest.write_text(manifest.read_text(encoding="utf-8").replace('"format_version": 1', '"format_version": 9'))
    with pytest.raises(PersistError):
        load_model(run_b)

    blob_path = run_a / "weights.bin"
    blob_path.write_bytes(blob_path.read_bytes()[:-8])
    with pytest.raises(PersistError):
        load_model(run_a)
    _report(7, "determinism and persistence")


def test_criterion_8_shape_invariant():
    """The forward pass produces the exact documented dimension chain,
    and lengths below the structural minimum are rejected."""
    chains = {
        10: [(10, 128), (8, 64), (4, 64), (2, 32), (1, 32), (32,), (16,), (4,)],
        16: [(16, 128), (14, 64), (7, 64), (5, 32), (2, 32), (64,), (16,), (4,)],
        64: [(64, 128), (62, 64), (31, 64), (29, 32), (14, 32), (448,), (16,), (4,)],
    }
    for length, chain in chains.items():
        config = ModelConfig(vocab_size=20, L=length)
        assert list(config.shape_chain()) == chain
        model = init_model(config, seed=0)
        ids = np.random.default_rng(0).integers(0, 20, size=(2, length))
        probs, cache = model.forward(ids)
        assert cache.embedded.shape == (2, *chain[0])
        assert cache.conv1.shape == (2, *chain[1])
        assert cache.pool1.shape == (2, *chain[2])
        assert cache.conv2.shape == (2, *chain[3])
        assert cache.pool2.shape == (2, *chain[4])
        assert cache.flat.shape == (2, *chain[5])
        assert cache.dense1.shape == (2, *chain[6])
        assert probs.shape == (2, *chain[7])

    for too_short in (8, 9):
        with pytest.raises(ValueError):
            ModelConfig(vocab_size=20, L=too_short)
    _report(8, "shape invariant")
