"""Per-layer tracing of emoticnn, done from outside the package.

A Tracer replaces the package's public functions at the module
attributes where their callers look them up (``emoticnn.cli.evaluate``,
``emoticnn.nn.conv1d_forward``, ``emoticnn.nn.Model.forward`` ...) with
wrappers that record one span per call: name, parent span, start, end,
the benchmark phase and the operation (command, post or request) the
span belongs to. Spans stay in memory until ``write`` is called;
``layer_metrics`` turns them into the per-layer metrics of
BENCHMARK.json. Nothing in the package itself is changed.
"""

from __future__ import annotations

import csv
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


def _conv_forward_flops(result, x, kernel, bias) -> int:
    """Multiply-adds of one unpadded conv over x, counted as 2 FLOPs each."""
    k, c_in, filters = kernel.shape
    batch = x.size // (x.shape[-1] * x.shape[-2])
    return 2 * batch * (x.shape[-2] - k + 1) * k * c_in * filters


def _conv_backward_flops(result, x, kernel, dout) -> int:
    # dkernel and dx each cost one forward pass's multiply-adds.
    return 2 * _conv_forward_flops(None, x, kernel, None)


def _encode_counts(result, text, vocab) -> tuple[int, int]:
    return len(result), result.count(1)  # 1 is the out-of-vocabulary index


def _pad_counts(result, seq, length) -> tuple[int, int]:
    return len(seq), min(len(seq), length)


def _saved_bytes(result, model, vocab, lexicon, train_cfg, model_dir) -> int:
    return (Path(model_dir) / "weights.bin").stat().st_size


# (owner, attribute, span name or names, count). A tuple of names is
# given to a function that the fixed layer stack calls more than once
# under one parent: the n-th call under a parent span gets the n-th
# name (Model.forward runs conv1 before conv2, model_backward runs them
# in reverse). A count, called with the result and the arguments, is
# kept with the span for the ratio and rate metrics.
_TARGETS = (
    ("cli", "main", "cli.main", None),
    ("cli", "load_dataset", "corpus.load_dataset", None),
    ("cli", "save_dataset", "corpus.save_dataset", None),
    ("cli", "generate_synthetic", "corpus.generate_synthetic", None),
    ("cli", "preprocess", "corpus.preprocess", None),
    ("cli", "fit_vocabulary", "encode.fit_vocabulary", None),
    ("cli", "encode", "encode.encode", _encode_counts),
    ("cli", "pad", "encode.pad", _pad_counts),
    ("cli", "split_dataset", "train.split_dataset", None),
    ("cli", "encode_dataset", "train.encode_dataset", None),
    ("cli", "train_model", "train.train_model", None),
    ("cli", "evaluate", "train.evaluate", None),
    ("cli", "init_model", "nn.init_model", None),
    ("cli", "save_model", "persist.save_model", _saved_bytes),
    ("cli", "load_model", "persist.load_model", None),
    ("corpus", "load_dataset", "corpus.load_dataset", None),
    ("corpus", "generate_synthetic", "corpus.generate_synthetic", None),
    ("corpus", "preprocess", "corpus.preprocess", None),
    ("corpus", "clean", "corpus.clean", None),
    ("corpus", "replace_emoticons", "corpus.normalize", None),
    ("corpus", "strip_emoticons", "corpus.normalize", None),
    ("encode", "encode", "encode.encode", _encode_counts),
    ("encode", "pad", "encode.pad", _pad_counts),
    ("train", "preprocess", "corpus.preprocess", None),
    ("train", "encode", "encode.encode", _encode_counts),
    ("train", "pad", "encode.pad", _pad_counts),
    ("train", "encode_dataset", "train.encode_dataset", None),
    ("train", "one_hot", "train.one_hot", None),
    ("train", "evaluate", "train.evaluate", None),
    ("train", "predict_codes", "train.predict_codes", None),
    ("train", "confusion_matrix", "train.confusion_matrix", None),
    ("train", "cross_entropy", "nn.cross_entropy", None),
    ("train", "model_backward", "nn.backward", None),
    ("train", "rmsprop_step", "nn.rmsprop", None),
    ("nn", "embedding_forward", "nn.embedding.fwd", None),
    ("nn", "conv1d_forward", ("nn.conv1.fwd", "nn.conv2.fwd"), _conv_forward_flops),
    ("nn", "conv1d_backward", ("nn.conv2.bwd", "nn.conv1.bwd"), _conv_backward_flops),
    ("nn", "maxpool1d", ("nn.pool1.fwd", "nn.pool2.fwd"), None),
    ("nn", "maxpool1d_backward", ("nn.pool2.bwd", "nn.pool1.bwd"), None),
    ("nn", "dense_forward", ("nn.dense1.fwd", "nn.dense2.fwd"), None),
    ("nn", "dense_backward", ("nn.dense2.bwd", "nn.dense1.bwd"), None),
    ("nn", "softmax", "nn.softmax", None),
    ("nn.Model", "forward", "nn.forward", None),
    ("persist", "load_model", "persist.load_model", None),
    ("persist", "save_model", "persist.save_model", _saved_bytes),
)


class Tracer:
    """Records a span for every wrapped call while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.phase = "setup"
        self.op = -1
        self._stack: list[int] = []
        self._calls_under: dict[tuple[int, str], int] = {}
        self._installed: list[tuple[object, str, object]] = []

    @staticmethod
    def _owner(path: str):
        module, _, cls = path.partition(".")
        owner = importlib.import_module(f"emoticnn.{module}")
        return getattr(owner, cls) if cls else owner

    def install(self) -> None:
        for path, attr, names, count in _TARGETS:
            owner = self._owner(path)
            original = owner.__dict__[attr]
            setattr(owner, attr, self._wrap(original, names, count))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    @contextmanager
    def tracing(self, phase: str, op: int = -1):
        """Record spans under phase and op while the body runs."""
        self.phase, self.op = phase, op
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def _wrap(self, fn, names, count):
        tracer = self
        stack = self._stack
        spans = self.spans
        calls_under = self._calls_under
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if isinstance(names, str):
                name = names
            else:
                seen = calls_under.get((parent, names[0]), 0)
                calls_under[(parent, names[0])] = seen + 1
                name = names[min(seen, len(names) - 1)]
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (parent, name, start, end, tracer.phase, tracer.op, None)
            if count is not None:
                extra = count(result, *args, **kwargs)
                spans[index] = (parent, name, start, end, tracer.phase, tracer.op, extra)
            return result

        return traced

    def write(self, path: Path) -> None:
        """Write every span as one CSV row, in call order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["span", "parent", "name", "start_ns", "end_ns", "phase", "op", "extra"])
            writer.writerows([index, *span] for index, span in enumerate(self.spans))


class _Stats:
    __slots__ = ("calls", "total_ns", "child_ns", "extra")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.child_ns = 0
        self.extra = []


def _aggregate(spans) -> dict[tuple[str, str], _Stats]:
    stats: dict[tuple[str, str], _Stats] = defaultdict(_Stats)
    durations = [span[3] - span[2] for span in spans]
    child_ns = [0] * len(spans)
    for index, span in enumerate(spans):
        if span[0] >= 0:
            child_ns[span[0]] += durations[index]
    for index, span in enumerate(spans):
        entry = stats[(span[4], span[1])]
        entry.calls += 1
        entry.total_ns += durations[index]
        entry.child_ns += child_ns[index]
        if span[6] is not None:
            entry.extra.append(span[6])
    return stats


# How each per-layer metric is computed from the spans of one phase:
# (metric, span names, statistic). "us"/"ms" are busy time per call,
# "self_us"/"self_ms" the same minus the time covered by child spans.
_LAYER_METRICS = (
    ("nn.conv1.fwd_us", ("nn.conv1.fwd",), "us"),
    ("nn.conv1.bwd_us", ("nn.conv1.bwd",), "us"),
    ("nn.conv2.fwd_us", ("nn.conv2.fwd",), "us"),
    ("nn.conv2.bwd_us", ("nn.conv2.bwd",), "us"),
    ("nn.conv1.fwd_gflops", ("nn.conv1.fwd",), "gflops"),
    ("nn.conv1.bwd_gflops", ("nn.conv1.bwd",), "gflops"),
    ("nn.conv2.fwd_gflops", ("nn.conv2.fwd",), "gflops"),
    ("nn.conv2.bwd_gflops", ("nn.conv2.bwd",), "gflops"),
    ("nn.embedding.fwd_us", ("nn.embedding.fwd",), "us"),
    ("nn.pool1.fwd_us", ("nn.pool1.fwd",), "us"),
    ("nn.pool1.bwd_us", ("nn.pool1.bwd",), "us"),
    ("nn.pool2.fwd_us", ("nn.pool2.fwd",), "us"),
    ("nn.pool2.bwd_us", ("nn.pool2.bwd",), "us"),
    ("nn.dense1.fwd_us", ("nn.dense1.fwd",), "us"),
    ("nn.dense1.bwd_us", ("nn.dense1.bwd",), "us"),
    ("nn.dense2.fwd_us", ("nn.dense2.fwd",), "us"),
    ("nn.dense2.bwd_us", ("nn.dense2.bwd",), "us"),
    ("nn.softmax_us", ("nn.softmax",), "us"),
    ("nn.cross_entropy_us", ("nn.cross_entropy",), "us"),
    ("nn.rmsprop_us", ("nn.rmsprop",), "us"),
    ("nn.backward.self_us", ("nn.backward",), "self_us"),
    ("nn.forward.self_us", ("nn.forward",), "self_us"),
    ("corpus.clean_us", ("corpus.clean",), "us"),
    ("corpus.normalize_us", ("corpus.normalize",), "us"),
    ("corpus.load_dataset_ms", ("corpus.load_dataset",), "ms"),
    ("corpus.preprocess_calls_per_post", ("corpus.preprocess",), "calls_per_post"),
    ("encode.fit_vocabulary_ms", ("encode.fit_vocabulary",), "self_ms"),
    ("encode.encode_pad_us", ("encode.encode", "encode.pad"), "per_encode_us"),
    ("encode.tokens_kept_ratio", ("encode.pad",), "kept_ratio"),
    ("encode.oov_ratio", ("encode.encode",), "oov_ratio"),
    ("train.evaluate_ms", ("train.evaluate",), "ms"),
    ("train.loop_self_ms", ("train.train_model",), "self_ms"),
    ("train.one_hot_us", ("train.one_hot",), "us"),
    ("train.predict_codes_ms", ("train.predict_codes",), "ms"),
    ("persist.load_ms", ("persist.load_model",), "ms"),
    ("persist.save_ms", ("persist.save_model",), "ms"),
    ("persist.weights_bytes", ("persist.save_model",), "mean_extra"),
    ("cli.self_ms", ("cli.main",), "self_ms"),
)

# A layer's figure comes from the first phase in this order in which
# it ran: the measured loop, else the set-up, else the output checks.
PHASES = ("loop", "setup", "check")

_NS_PER = {"us": 1e3, "ms": 1e6}


def _statistic(kind: str, entries: list[_Stats], posts: int) -> float:
    first = entries[0]
    if kind in ("us", "ms"):
        return first.total_ns / first.calls / _NS_PER[kind]
    if kind in ("self_us", "self_ms"):
        return (first.total_ns - first.child_ns) / first.calls / _NS_PER[kind[-2:]]
    if kind == "gflops":
        return sum(first.extra) / first.total_ns
    if kind == "calls_per_post":
        return first.calls / posts
    if kind == "per_encode_us":
        return sum(e.total_ns for e in entries) / first.calls / _NS_PER["us"]
    if kind == "kept_ratio":
        return sum(kept for _, kept in first.extra) / sum(made for made, _ in first.extra)
    if kind == "oov_ratio":
        return sum(oov for _, oov in first.extra) / sum(made for made, _ in first.extra)
    if kind == "mean_extra":
        return sum(first.extra) / len(first.extra)
    raise ValueError(f"unknown statistic {kind!r}")


def layer_metrics(spans, posts_by_phase: dict[str, int]) -> tuple[dict[str, float], dict[str, str]]:
    """Per-layer metric values and the phase each one was taken from."""
    stats = _aggregate(spans)
    values: dict[str, float] = {}
    sources: dict[str, str] = {}
    for metric, names, kind in _LAYER_METRICS:
        for phase in PHASES:
            entries = [stats.get((phase, name)) for name in names]
            posts = posts_by_phase.get(phase, 0)
            if all(entries) and (posts or kind != "calls_per_post"):
                values[metric] = _statistic(kind, entries, posts)
                sources[metric] = phase
                break
    return values, sources
