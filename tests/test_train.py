"""Splitting, metrics, evaluation, and the training loop."""

from __future__ import annotations

import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from naive_oracles import add_at_confusion_counts

import emoticnn.train as train_module
from emoticnn.corpus import (
    MODE_EMOTICON_TEXT,
    EmoticonLexicon,
    Tweet,
    generate_synthetic,
    preprocess,
)
from emoticnn.encode import fit_vocabulary
from emoticnn.nn import PARAM_NAMES, ModelConfig, init_model, rmsprop_step
from emoticnn.train import (
    ConfusionMatrix,
    EpochRecord,
    TrainConfig,
    TrainingDiverged,
    confusion_matrix,
    encode_dataset,
    encode_texts,
    evaluate,
    one_hot,
    predict_codes,
    split_dataset,
    train_model,
)


def toy_dataset(n: int = 16, length: int = 10, vocab_size: int = 10, seed: int = 0):
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, vocab_size, size=(n, length))
    labels = (np.arange(n) % 4 + 1).astype(np.int64)
    return ids, labels


# ------------------------------------------------------------- split


def test_split_sizes_match_floor_of_ratio():
    data = list(range(16_011))
    head, tail = split_dataset(data, 0.75, seed=0)
    assert len(head) == 12_008
    assert len(tail) == 4_003


def test_split_four_items_three_to_one():
    head, tail = split_dataset(["a", "b", "c", "d"], 0.75, seed=1)
    assert len(head) == 3 and len(tail) == 1


def test_split_is_deterministic_and_seed_sensitive():
    data = list(range(40))
    assert split_dataset(data, 0.75, seed=5) == split_dataset(data, 0.75, seed=5)
    assert split_dataset(data, 0.75, seed=5) != split_dataset(data, 0.75, seed=6)


def test_split_partitions_without_loss_or_overlap():
    data = list(range(101))
    head, tail = split_dataset(data, 0.6, seed=2)
    assert sorted(head + tail) == data
    assert not set(head) & set(tail)


def test_split_actually_shuffles():
    data = list(range(100))
    head, _ = split_dataset(data, 0.75, seed=0)
    assert head != data[:75]


def test_split_rejects_bad_ratio():
    with pytest.raises(ValueError, match="ratio"):
        split_dataset([1, 2], 0.0, seed=0)
    with pytest.raises(ValueError, match="ratio"):
        split_dataset([1, 2], 1.0, seed=0)


def test_split_rejects_empty_data():
    with pytest.raises(ValueError, match="empty"):
        split_dataset([], 0.75, seed=0)


# ----------------------------------------------------------- one-hot


def test_one_hot_rows():
    rows = one_hot(np.array([1, 4, 2, 3]))
    assert rows.shape == (4, 4)
    assert np.array_equal(rows.argmax(axis=1) + 1, [1, 4, 2, 3])
    assert np.array_equal(rows.sum(axis=1), np.ones(4))


def test_one_hot_rejects_out_of_range_codes():
    with pytest.raises(ValueError, match="label"):
        one_hot(np.array([0]))
    with pytest.raises(ValueError, match="label"):
        one_hot(np.array([5]))


# -------------------------------------------------- confusion matrix


def test_confusion_matrix_perfect_predictions_are_diagonal():
    labels = np.array([1, 2, 3, 4, 1, 2])
    matrix = confusion_matrix(labels, labels)
    assert np.array_equal(matrix.counts, np.diag([2, 2, 1, 1]))
    assert matrix.accuracy == 1.0
    assert matrix.total == 6


def test_confusion_matrix_constant_predictor_fills_one_column():
    actual = np.array([1, 2, 3, 4])
    predicted = np.full(4, 2)
    matrix = confusion_matrix(predicted, actual)
    assert np.array_equal(matrix.counts[:, 1], np.ones(4, dtype=np.int64))
    assert matrix.counts.sum() == 4
    assert matrix.accuracy == 0.25


def test_confusion_matrix_row_totals_are_class_supports():
    actual = np.array([1] * 1001 + [2] * 1001 + [3] * 1001 + [4] * 1000)
    predicted = np.roll(actual, 1)
    matrix = confusion_matrix(predicted, actual)
    assert matrix.row_totals() == [1001, 1001, 1001, 1000]
    assert matrix.total == 4003


@pytest.mark.parametrize("n", [0, 1, 7, 4003])
def test_confusion_matrix_matches_add_at_oracle(n):
    rng = np.random.default_rng(n)
    preds, labels = rng.integers(1, 5, size=(2, n))
    matrix = confusion_matrix(preds, labels)
    assert matrix.counts.dtype == np.int64
    assert np.array_equal(matrix.counts, add_at_confusion_counts(preds, labels))


def test_confusion_matrix_rejects_bad_input():
    with pytest.raises(ValueError, match="predictions"):
        confusion_matrix(np.array([1, 2]), np.array([1]))
    with pytest.raises(ValueError, match=r"codes must lie in \[1, 4\]"):
        confusion_matrix(np.array([0]), np.array([1]))
    with pytest.raises(ValueError, match=r"codes must lie in \[1, 4\]"):
        confusion_matrix(np.array([1]), np.array([5]))
    with pytest.raises(ValueError):
        ConfusionMatrix(np.zeros((3, 4), dtype=np.int64))
    counts = np.eye(4, dtype=np.int64)
    counts[2, 1] = -1
    with pytest.raises(ValueError, match="^counts must be non-negative$"):
        ConfusionMatrix(counts)


def _matrix_from_named_rows(rows: dict[str, dict[str, int]]) -> ConfusionMatrix:
    """Build a matrix from category-name keyed counts, independent of order."""
    order = ["Sad", "Happy", "Love", "Angry"]
    counts = np.zeros((4, 4), dtype=np.int64)
    for i, actual in enumerate(order):
        for j, predicted in enumerate(order):
            counts[i, j] = rows[actual].get(predicted, 0)
    return ConfusionMatrix(counts)


def test_accuracy_oracle_balanced_emoticon_style_matrix():
    matrix = _matrix_from_named_rows(
        {
            "Sad": {"Sad": 875, "Happy": 26, "Angry": 61, "Love": 39},
            "Happy": {"Sad": 31, "Happy": 882, "Angry": 45, "Love": 43},
            "Angry": {"Sad": 47, "Happy": 37, "Angry": 890, "Love": 27},
            "Love": {"Sad": 45, "Happy": 42, "Angry": 34, "Love": 879},
        }
    )
    assert matrix.total == 4003
    assert int(np.trace(matrix.counts)) == 3526
    assert abs(matrix.accuracy - float(Fraction(3526, 4003))) < 1e-9


def test_accuracy_oracle_text_only_style_matrix():
    matrix = _matrix_from_named_rows(
        {
            "Sad": {"Sad": 429, "Happy": 148, "Angry": 247, "Love": 177},
            "Happy": {"Sad": 187, "Happy": 412, "Angry": 208, "Love": 194},
            "Angry": {"Sad": 257, "Happy": 220, "Angry": 387, "Love": 137},
            "Love": {"Sad": 225, "Happy": 240, "Angry": 185, "Love": 350},
        }
    )
    assert matrix.total == 4003
    assert int(np.trace(matrix.counts)) == 1578
    assert abs(matrix.accuracy - float(Fraction(1578, 4003))) < 1e-9


# ---------------------------------------------------------- evaluate


def test_evaluate_zero_model_predicts_lowest_code():
    # All-zero parameters give uniform probabilities; argmax breaks the
    # tie toward index 0, so every prediction is category code 1.
    model = init_model(ModelConfig(vocab_size=10, L=10), 0)
    for name in model.params:
        model.params[name][...] = 0.0
    ids, labels = toy_dataset()
    accuracy, matrix = evaluate(model, (ids, labels))
    assert np.array_equal(matrix.counts[:, 0], matrix.row_totals())
    assert accuracy == matrix.counts[0, 0] / matrix.total


def test_evaluate_accuracy_equals_trace_over_total():
    model = init_model(ModelConfig(vocab_size=10, L=10), 7)
    data = toy_dataset(n=37, seed=3)
    accuracy, matrix = evaluate(model, data)
    assert accuracy == np.trace(matrix.counts) / matrix.total
    assert matrix.total == 37


def test_evaluate_rejects_empty_dataset():
    model = init_model(ModelConfig(vocab_size=10, L=10), 0)
    empty = (np.zeros((0, 10), dtype=np.int64), np.zeros(0, dtype=np.int64))
    with pytest.raises(ValueError, match="empty"):
        evaluate(model, empty)


def test_predict_codes_of_no_rows_is_empty():
    """Model.forward rejects an empty batch, so predict_codes must not pass one on."""
    model = init_model(ModelConfig(vocab_size=10, L=10), 0)
    preds = predict_codes(model, np.zeros((0, 10), dtype=np.int64))
    assert preds.shape == (0,) and preds.dtype == np.int64


def test_predict_codes_of_one_row_equals_its_code_as_a_batch_of_one():
    model = init_model(ModelConfig(vocab_size=107, L=18), 0)
    ids = np.random.default_rng(3).integers(0, 107, size=(5, 18))
    for row in ids:
        codes = predict_codes(model, row)
        assert codes.shape == (1,)
        np.testing.assert_array_equal(codes, predict_codes(model, row[None, :]))
        np.testing.assert_array_equal(codes, model.forward(row[None, :])[0].argmax(axis=-1) + 1)


@pytest.mark.parametrize("extra", [0, 1, 2])
@pytest.mark.parametrize("length", [18, 64])
def test_predict_codes_equals_the_argmax_of_one_whole_batch_forward(length, extra):
    """Two full chunks plus 0, 1 or 2 rows."""
    model = init_model(ModelConfig(vocab_size=107, L=length), 0)
    n = 2 * train_module._EVAL_BATCH + extra
    ids = np.random.default_rng(extra).integers(0, 107, size=(n, length))
    expected = model.forward(ids)[0].argmax(axis=-1) + 1
    np.testing.assert_array_equal(predict_codes(model, ids), expected)


@pytest.mark.parametrize("precision", ["float64", "float32"])
def test_probabilities_at_L18_are_the_same_bits_in_every_chunk_of_two_rows_or_more(precision):
    """At L=18 a row's probabilities do not depend on the rows it shares a
    forward with, in any chunk of two rows or more.

    This pins how the BLAS rounds, not a promise of this package: it holds
    on OpenBLAS 0.3.31 with one thread. Another BLAS build or thread count
    may round a row by the row count of its product (as OpenBLAS does at
    L=64, and for one row by gemv), and then this test fails on a change
    of platform, not of code.
    """
    model = init_model(ModelConfig(vocab_size=107, L=18, precision=precision), 0)
    n = train_module._EVAL_BATCH + 4
    ids = np.random.default_rng(0).integers(0, 107, size=(n, 18))
    whole = model.forward(ids)[0]
    for start in (0, 3):
        for stop in range(start + 2, n + 1):
            assert np.array_equal(model.forward(ids[start:stop])[0], whole[start:stop]), (start, stop)


def test_predict_codes_peak_memory_at_L64_stays_under_10_mb():
    """2000 rows at L=64: conv1's output is 62 x 64 x 8 B = 31.7 kB a row,
    and a forward holds about twice its chunk's conv1 output at its peak.
    256-row chunks read 17.1 MB; 128-row chunks read about 8.8 MB."""
    model = init_model(ModelConfig(vocab_size=107, L=64), 0)
    ids = np.random.default_rng(0).integers(0, 107, size=(2000, 64))
    tracemalloc.start()
    try:
        predict_codes(model, ids)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10_000_000, peak


# ------------------------------------------------------ encode_dataset


def test_encode_dataset_shapes_and_padding():
    lexicon = EmoticonLexicon.default()
    tweets = [Tweet("good morning 😊", 2), Tweet("so sad", 1)]
    vocab = fit_vocabulary(["good morning smiling face so sad"])
    ids, labels = encode_dataset(tweets, vocab, lexicon, MODE_EMOTICON_TEXT, 10)
    assert ids.shape == (2, 10)
    assert ids.dtype == np.int64
    assert np.array_equal(labels, [2, 1])
    assert np.array_equal(ids[1, :8], np.zeros(8))  # pre-padded
    assert ids[1, 8] != 0 and ids[1, 9] != 0


@pytest.mark.parametrize("labels", [[2.7], [True], ["3"], [2, 3]],
                         ids=["float", "bool", "str", "one_too_many"])
def test_encode_texts_rejects_labels_that_are_not_one_integer_code_per_text(labels):
    vocab = fit_vocabulary(["so sad"])
    with pytest.raises(ValueError, match="labels must be integer category codes of shape"):
        encode_texts(["so sad"], labels, vocab, 10)


# ------------------------------------------------------- train_model


def make_training_setup(epochs: int = 3, batch_size: int = 4, lr: float = 0.001):
    data = toy_dataset()
    config = ModelConfig(vocab_size=10, L=10)
    model = init_model(config, 0)
    train_cfg = TrainConfig(batch_size=batch_size, epochs=epochs, seed=0, lr=lr)
    return model, data, train_cfg


def test_train_model_history_layout():
    model, data, cfg = make_training_setup(epochs=3)
    _, history = train_model(model, data, data, cfg)
    assert len(history) == 3
    assert [r.epoch for r in history] == [1, 2, 3]
    for record in history:
        assert isinstance(record, EpochRecord)
        assert record.train_loss > 0
        assert 0.0 <= record.train_acc <= 1.0
        assert 0.0 <= record.test_acc <= 1.0


def test_train_model_accuracies_are_exact_count_ratios():
    model, data, cfg = make_training_setup(epochs=2)
    n = data[0].shape[0]
    _, history = train_model(model, data, data, cfg)
    for record in history:
        assert (record.train_acc * n) == pytest.approx(round(record.train_acc * n))
        assert (record.test_acc * n) == pytest.approx(round(record.test_acc * n))


def test_train_model_is_bitwise_deterministic():
    runs = []
    for _ in range(2):
        model, data, cfg = make_training_setup(epochs=3)
        _, history = train_model(model, data, data, cfg)
        runs.append((history, {k: v.copy() for k, v in model.params.items()}))
    (hist_a, params_a), (hist_b, params_b) = runs
    assert hist_a == hist_b
    for name in params_a:
        assert np.array_equal(params_a[name], params_b[name])


def test_train_model_seed_changes_trajectory():
    model_a, data, _ = make_training_setup(epochs=2)
    _, hist_a = train_model(
        model_a, data, data, TrainConfig(batch_size=4, epochs=2, seed=1)
    )
    model_b, _, _ = make_training_setup(epochs=2)
    _, hist_b = train_model(
        model_b, data, data, TrainConfig(batch_size=4, epochs=2, seed=2)
    )
    assert hist_a != hist_b


def test_single_oversized_batch_takes_one_step_per_epoch(monkeypatch):
    calls = []

    def counting_step(model, grads, state):
        calls.append(True)
        return rmsprop_step(model, grads, state)

    monkeypatch.setattr(train_module, "rmsprop_step", counting_step)
    model, data, _ = make_training_setup()
    cfg = TrainConfig(batch_size=999, epochs=1, seed=0)
    train_model(model, data, data, cfg)
    assert len(calls) == 1


def test_batches_per_epoch_counts_partial_batch(monkeypatch):
    calls = []

    def counting_step(model, grads, state):
        calls.append(True)
        return rmsprop_step(model, grads, state)

    monkeypatch.setattr(train_module, "rmsprop_step", counting_step)
    model, data, _ = make_training_setup()  # 16 examples
    cfg = TrainConfig(batch_size=6, epochs=2, seed=0)
    train_model(model, data, data, cfg)
    assert len(calls) == 6  # ceil(16 / 6) = 3 per epoch


def test_training_reduces_loss_on_small_corpus():
    model, data, cfg = make_training_setup(epochs=30, batch_size=4)
    _, history = train_model(model, data, data, cfg)
    assert history[-1].train_loss < history[0].train_loss


def test_huge_learning_rate_raises_diverged():
    model, data, _ = make_training_setup()
    cfg = TrainConfig(batch_size=4, epochs=3, seed=0, lr=1e100)
    with np.errstate(all="ignore"), pytest.raises(TrainingDiverged, match="non-finite loss") as excinfo:
        train_model(model, data, data, cfg)
    # The first update blows the weights up; the second batch's forward pass overflows.
    assert str(excinfo.value) == (
        "non-finite loss in epoch 1, batch 2: first non-finite tensor is dense1"
    )


# The layer whose output a NaN in each parameter first reaches.
DIVERGING_LAYER = {
    "embedding": "embedded",
    "conv1_kernel": "conv1",
    "conv1_bias": "conv1",
    "conv2_kernel": "conv2",
    "conv2_bias": "conv2",
    "dense1_weight": "dense1",
    "dense1_bias": "dense1",
    "dense2_weight": "probs",
    "dense2_bias": "probs",
}


@pytest.mark.parametrize("param", PARAM_NAMES)
def test_divergence_names_the_layer_of_a_nan_parameter(param):
    model, data, _ = make_training_setup()
    ids, _ = data
    assert (ids == 0).any()  # the NaN in embedding row 0 is looked up
    model.params[param].flat[0] = np.nan
    cfg = TrainConfig(batch_size=ids.shape[0], epochs=1, seed=0)
    with pytest.raises(TrainingDiverged) as excinfo:
        train_model(model, data, data, cfg)
    assert str(excinfo.value) == (
        "non-finite loss in epoch 1, batch 1: "
        f"first non-finite tensor is {DIVERGING_LAYER[param]}"
    )


def test_a_non_finite_gradient_raises_diverged_naming_epoch_batch_and_tensor(monkeypatch):
    """rmsprop_step refuses the gradient before it touches a parameter, and
    train_model reports where, as it does for a non-finite loss."""
    model, data, _ = make_training_setup()
    real_backward = train_module.model_backward
    steps = []

    def backward(cache, labels):
        grads = real_backward(cache, labels)
        steps.append(cache.version)
        if len(steps) == 6:  # epoch 2 (four batches of four per epoch), batch 2
            grads["dense1_bias"][3] = np.inf
            grads["conv2_kernel"].flat[0] = np.nan
        return grads

    monkeypatch.setattr(train_module, "model_backward", backward)
    cfg = TrainConfig(batch_size=4, epochs=3, seed=0)
    with pytest.raises(TrainingDiverged) as excinfo:
        train_model(model, data, data, cfg)
    assert str(excinfo.value) == "non-finite gradient for conv2_kernel in epoch 2, batch 2"
    assert model._version == 5


def test_train_model_validates_geometry():
    model, data, cfg = make_training_setup()
    wide = toy_dataset(length=12)
    with pytest.raises(ValueError, match=r"train ids must have shape \(n, 10\)"):
        train_model(model, wide, data, cfg)
    with pytest.raises(ValueError, match=r"test ids must have shape \(n, 10\)"):
        train_model(model, data, wide, cfg)
    with pytest.raises(ValueError, match=r"sequence ids must lie in \[0, 10\)"):
        train_model(model, toy_dataset(vocab_size=50), data, cfg)


@pytest.mark.parametrize("empty", ["train", "test"])
def test_train_model_rejects_an_empty_set_before_any_step(empty):
    model = init_model(ModelConfig(vocab_size=10, L=10), 0)
    before = {name: param.copy() for name, param in model.params.items()}
    data = toy_dataset(n=64)
    sets = {"train": data, "test": data, empty: (data[0][:0], data[1][:0])}
    cfg = TrainConfig(batch_size=8, epochs=1)
    with pytest.raises(ValueError, match=f"^{empty} set is empty$"):
        train_model(model, sets["train"], sets["test"], cfg)
    assert model._version == 0
    for name, param in model.params.items():
        assert np.array_equal(param, before[name]), name


def _bad_entry_in_a_later_batch(bad_set, entry):
    """Put one bad id or label code in the given set where a batch of 8 reaches it only
    after some RMSProp steps (the train set's 6th batch), or only after a whole epoch
    (the test set)."""
    model = init_model(ModelConfig(vocab_size=10, L=10), 0)
    before = {name: param.copy() for name, param in model.params.items()}
    cfg = TrainConfig(batch_size=8, epochs=1)
    data = toy_dataset(n=64)
    ids, labels = data[0].copy(), data[1].copy()
    row = np.random.default_rng(cfg.seed ^ 1).permutation(64)[5 * 8] if bad_set == "train" else 63
    if entry == "id":
        ids[row, 4] = 10
    else:
        labels[row] = 5
    sets = {"train": data, "test": data, bad_set: (ids, labels)}
    return model, before, sets, cfg


@pytest.mark.parametrize("bad_set", ["train", "test"])
@pytest.mark.parametrize(
    "entry, message",
    [("id", r"sequence ids must lie in \[0, 10\), got range \[0, 10\]$"),
     ("label", r"labels must lie in \[1, 4\], got range \[1, 5\]$")],
    ids=["id", "label"],
)
def test_train_model_rejects_a_bad_id_or_label_before_any_step(bad_set, entry, message):
    model, before, sets, cfg = _bad_entry_in_a_later_batch(bad_set, entry)
    with pytest.raises(ValueError, match=f"^{bad_set} {message}"):
        train_model(model, sets["train"], sets["test"], cfg)
    assert model._version == 0
    for name, param in model.params.items():
        assert np.array_equal(param, before[name]), name


@pytest.mark.parametrize("code", [0, 5])
def test_train_model_rejects_label_codes_outside_1_to_4(code):
    model, (ids, labels), _ = make_training_setup()
    labels = labels.copy()
    labels[3] = code
    cfg = TrainConfig(batch_size=999, epochs=1)
    with pytest.raises(ValueError, match=r"labels must lie in \[1, 4\]"):
        train_model(model, (ids, labels), (ids, labels), cfg)


def test_train_config_validation():
    with pytest.raises(ValueError, match="batch_size"):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError, match="epochs"):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError, match="split_ratio"):
        TrainConfig(split_ratio=1.5)
    with pytest.raises(ValueError, match="seed"):
        TrainConfig(seed=-1)
    with pytest.raises(ValueError, match="mode"):
        TrainConfig(mode="sideways")
    for bad in ({"lr": math.nan}, {"lr": math.inf}, {"epsilon": math.nan}, {"epsilon": math.inf},
                {"lr": 10**400}, {"epsilon": -(10**400)}):
        with pytest.raises(ValueError, match="optimizer hyperparameters out of range"):
            TrainConfig(**bad)


@pytest.mark.parametrize(
    "field, value, kind",
    [
        ("epochs", 2.0, "an integer"),
        ("batch_size", 8.5, "an integer"),
        ("seed", True, "an integer"),
        ("seed", "1", "an integer"),
        ("lr", "0.001", "a number"),
        ("rho", False, "a number"),
        ("split_ratio", None, "a number"),
        ("mode", 1, "a string"),
    ],
)
def test_train_config_rejects_a_value_of_another_type(field, value, kind):
    with pytest.raises(ValueError, match=re.escape(f"{field} must be {kind}, got {value!r}")):
        TrainConfig(**{field: value})


def test_train_config_float_fields_take_integers():
    cfg = TrainConfig(lr=1, rho=0, epsilon=1)
    assert (cfg.lr, cfg.rho, cfg.epsilon) == (1, 0, 1)


def test_end_to_end_synthetic_smoke():
    """Tiny but complete pipeline: synthesize, split, encode, train, evaluate."""
    tweets = generate_synthetic(80, seed=5, emoticon_informative=True)
    train_tweets, test_tweets = split_dataset(tweets, 0.75, seed=0)
    lexicon = EmoticonLexicon.default()
    vocab = fit_vocabulary(
        preprocess(t.text, lexicon, MODE_EMOTICON_TEXT) for t in train_tweets
    )
    train_set = encode_dataset(train_tweets, vocab, lexicon, MODE_EMOTICON_TEXT, 14)
    test_set = encode_dataset(test_tweets, vocab, lexicon, MODE_EMOTICON_TEXT, 14)
    config = ModelConfig(vocab_size=vocab.size, L=14)
    model = init_model(config, 0)
    cfg = TrainConfig(batch_size=8, epochs=8, seed=0)
    _, history = train_model(model, train_set, test_set, cfg)
    accuracy, matrix = evaluate(model, test_set)
    assert accuracy == history[-1].test_acc
    assert matrix.total == len(test_tweets)
