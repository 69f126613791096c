"""Experimental protocol: dataset split, minibatch RMSProp training, evaluation.

The driver is deliberately plain: shuffle once to split, reshuffle every
epoch with an epoch-dependent seed, average per-example gradients over
each minibatch (the trailing short batch included), take one optimizer
step per batch, and record train loss/accuracy plus full test accuracy
after every epoch. There is no early stopping; callers pick their best
epoch from the history.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .corpus import CATEGORY_CODES, MODE_EMOTICON_TEXT, MODE_TEXT_ONLY, Tweet, preprocess
from .encode import Vocabulary, encode, pad
from .nn import (LAYERS, Model, NonFiniteGradient, RmsPropState, check_codes, check_field_types,
                 cross_entropy, model_backward, rmsprop_step)

__all__ = [
    "ConfusionMatrix",
    "EpochRecord",
    "History",
    "TrainConfig",
    "TrainingDiverged",
    "confusion_matrix",
    "encode_dataset",
    "encode_texts",
    "evaluate",
    "one_hot",
    "predict_codes",
    "split_dataset",
    "train_model",
]

_EVAL_BATCH = 256


class TrainingDiverged(RuntimeError):
    """Raised when the training loss or a gradient stops being finite."""


@dataclass(frozen=True)
class TrainConfig:
    """Knobs of one training run."""

    batch_size: int = 32
    epochs: int = 200
    split_ratio: float = 0.75
    seed: int = 0
    lr: float = RmsPropState.lr
    rho: float = RmsPropState.rho
    epsilon: float = RmsPropState.epsilon
    mode: str = MODE_EMOTICON_TEXT

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be at least 1, got {self.epochs}")
        if not 0.0 < self.split_ratio < 1.0:
            raise ValueError(f"split_ratio must lie in (0, 1), got {self.split_ratio}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        finite = all(0 < value <= sys.float_info.max for value in (self.lr, self.epsilon))
        if not finite or not 0.0 <= self.rho < 1.0:
            raise ValueError(
                "optimizer hyperparameters out of range: "
                f"lr={self.lr!r}, rho={self.rho!r}, epsilon={self.epsilon!r}"
            )
        if self.mode not in (MODE_EMOTICON_TEXT, MODE_TEXT_ONLY):
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass(frozen=True)
class EpochRecord:
    """One history row: epoch index (1-based) plus that epoch's metrics.

    train_loss and train_acc accumulate over the epoch's own minibatch
    forward passes; test_acc is measured on the full test set afterwards.
    """

    epoch: int
    train_loss: float
    train_acc: float
    test_acc: float


History = list[EpochRecord]


@dataclass
class ConfusionMatrix:
    """4x4 count table; rows are actual categories, columns predicted, code order 1-4."""

    counts: np.ndarray

    def __post_init__(self) -> None:
        self.counts = np.asarray(self.counts, dtype=np.int64)
        size = len(CATEGORY_CODES)
        if self.counts.shape != (size, size):
            raise ValueError(f"counts must be {size}x{size}, got {self.counts.shape}")
        if (self.counts < 0).any():
            raise ValueError("counts must be non-negative")

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def accuracy(self) -> float:
        return float(np.trace(self.counts) / self.total)

    def row_totals(self) -> list[int]:
        """Per-category supports (actual counts), in code order."""
        return [int(n) for n in self.counts.sum(axis=1)]


def one_hot(labels, classes: int = len(CATEGORY_CODES)) -> np.ndarray:
    """Turn category codes 1..classes into one-hot rows."""
    return np.eye(classes)[check_codes(labels, classes) - 1]


def split_dataset(data: list[Tweet], ratio: float, seed: int) -> tuple[list[Tweet], list[Tweet]]:
    """Shuffle deterministically, then cut at floor(ratio * n).

    The two parts are disjoint and together exhaust the input.
    """
    if not data:
        raise ValueError("cannot split an empty dataset")
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"split ratio must lie in (0, 1), got {ratio}")
    order = np.random.default_rng(seed).permutation(len(data))
    cut = int(ratio * len(data))
    train = [data[i] for i in order[:cut]]
    test = [data[i] for i in order[cut:]]
    return train, test


def encode_dataset(
    tweets: list[Tweet], vocab: Vocabulary, lexicon, mode: str, length: int
) -> tuple[np.ndarray, np.ndarray]:
    """Preprocess, encode, and pad tweets into (ids, labels) arrays."""
    texts = (preprocess(t.text, lexicon, mode) for t in tweets)
    return encode_texts(texts, [t.label for t in tweets], vocab, length)


def encode_texts(texts, labels, vocab: Vocabulary, length: int) -> tuple[np.ndarray, np.ndarray]:
    """Encode and pad already preprocessed texts into (ids, labels) arrays.

    texts may be a generator; each text is dropped once it is encoded.
    """
    rows = [pad(encode(text, vocab), length) for text in texts]
    ids = np.asarray(rows, dtype=np.int64).reshape(len(rows), length)
    return ids, np.asarray(labels, dtype=np.int64)


def predict_codes(model: Model, ids: np.ndarray) -> np.ndarray:
    """Predicted category codes (argmax of softmax; ties take the lowest code)."""
    ids = np.asarray(ids)
    if ids.ndim == 1:
        ids = ids[None, :]
    preds = np.empty(ids.shape[0], dtype=np.int64)
    for start in range(0, ids.shape[0], _EVAL_BATCH):
        chunk = ids[start : start + _EVAL_BATCH]
        # [0] drops the chunk's cache before the next chunk's forward runs.
        preds[start : start + chunk.shape[0]] = model.forward(chunk)[0].argmax(axis=-1) + 1
    return preds


def confusion_matrix(preds, labels) -> ConfusionMatrix:
    """Count actual-vs-predicted pairs into the 4x4 table."""
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    if preds.shape != labels.shape:
        raise ValueError(f"got {preds.size} predictions for {labels.size} labels")
    size = len(CATEGORY_CODES)
    for name, codes in (("prediction", preds), ("label", labels)):
        if codes.size and (codes.min() < 1 or codes.max() > size):
            raise ValueError(f"{name} codes must lie in [1, {size}]")
    # Entry (i, j) of the product counts the posts of code i+1 predicted as j+1.
    return ConfusionMatrix(one_hot(labels, size).T @ one_hot(preds, size))


def evaluate(model: Model, test_set: tuple[np.ndarray, np.ndarray]) -> tuple[float, ConfusionMatrix]:
    """Accuracy and confusion matrix of the model on an encoded dataset."""
    ids, labels = test_set
    ids = np.asarray(ids)
    labels = np.asarray(labels)
    if labels.size == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    matrix = confusion_matrix(predict_codes(model, ids), labels)
    return matrix.accuracy, matrix


def train_model(
    model: Model,
    train_set: tuple[np.ndarray, np.ndarray],
    test_set: tuple[np.ndarray, np.ndarray],
    cfg: TrainConfig,
) -> tuple[Model, History]:
    """Run the full training loop, mutating and returning the model.

    Expects (ids, labels) pairs already encoded and padded to the
    model's length L, with ids below its vocab_size. Each epoch
    reshuffles the training set with a seed of cfg.seed XOR the 1-based
    epoch number, so runs are reproducible yet batches vary by epoch.
    Raises TrainingDiverged if a batch loss stops being finite, naming
    the epoch, the 1-based batch and the first layer, in LAYERS order,
    whose output is not finite; or if a gradient does, naming the epoch,
    the batch and the first such tensor in PARAM_NAMES order.
    """
    train_ids, train_labels = np.asarray(train_set[0]), np.asarray(train_set[1])
    test_ids, test_labels = np.asarray(test_set[0]), np.asarray(test_set[1])
    length = model.config.L
    for name, ids in (("train", train_ids), ("test", test_ids)):
        if ids.ndim != 2 or ids.shape[1] != length:
            raise ValueError(f"{name} ids must have shape (n, {length}), got {ids.shape}")
    if train_ids.shape[0] == 0:
        raise ValueError("training set is empty")

    n = train_ids.shape[0]
    state = RmsPropState(lr=cfg.lr, rho=cfg.rho, epsilon=cfg.epsilon)
    history: History = []
    # A diverging run overflows long before its loss turns non-finite;
    # TrainingDiverged reports it, so numpy's own warnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, cfg.epochs + 1):
            order = np.random.default_rng(cfg.seed ^ epoch).permutation(n)
            loss_sum = 0.0
            correct = 0
            for start in range(0, n, cfg.batch_size):
                batch = order[start : start + cfg.batch_size]
                where = f"epoch {epoch}, batch {start // cfg.batch_size + 1}"
                labels = train_labels[batch]
                probs, cache = model.forward(train_ids[batch])
                losses = cross_entropy(probs, labels)
                batch_loss = float(losses.sum())
                if not np.isfinite(batch_loss):
                    # The loss of finite probabilities is finite, so some layer output is not.
                    culprit = next(layer.name for layer in LAYERS
                                   if not np.isfinite(getattr(cache, layer.name)).all())
                    raise TrainingDiverged(
                        f"non-finite loss in {where}: first non-finite tensor is {culprit}"
                    )
                loss_sum += batch_loss
                correct += int(((probs.argmax(axis=-1) + 1) == labels).sum())
                grads = model_backward(cache, labels)
                try:
                    rmsprop_step(model, grads, state)
                except NonFiniteGradient as exc:
                    raise TrainingDiverged(f"{exc} in {where}") from exc
            test_acc, _ = evaluate(model, (test_ids, test_labels))
            history.append(
                EpochRecord(
                    epoch=epoch,
                    train_loss=loss_sum / n,
                    train_acc=correct / n,
                    test_acc=test_acc,
                )
            )
    return model, history
