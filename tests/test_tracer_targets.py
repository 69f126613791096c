"""The per-layer tracer in perfbench/spans.py wraps module attributes of the
package by name; every one of them must still exist where it looks, and
every layer call must still go through them."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from emoticnn import cli, corpus, nn, train

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _load_spans()


@pytest.mark.parametrize(
    ("path", "attr"), [(path, attr) for path, attr, _, _ in SPANS._TARGETS]
)
def test_tracer_target_resolves(path, attr):
    owner = SPANS.Tracer._owner(path)
    assert callable(owner.__dict__[attr])


# A small batch of varied ids, and a larger one over three ids. conv1
# projects each batch's distinct ids either way.
BATCHES = {
    "varied": np.random.default_rng(0).integers(0, 12, size=(3, 10)),
    "folded": np.random.default_rng(0).integers(0, 12, size=(16, 10)) % 3,
}


FORWARD_SPANS = [
    "nn.forward",
    "nn.embedding.fwd",
    "nn.conv1.fwd",
    "nn.pool1.fwd",
    "nn.conv2.fwd",
    "nn.pool2.fwd",
    "nn.dense1.fwd",
    "nn.dense2.fwd",
    "nn.softmax",
]


def test_tracer_sees_every_layer_call_in_order():
    """The tracer tells conv1 from conv2 (and pool1 from pool2, dense1 from
    dense2) only by call order, so each layer step must call the nn layer
    function looked up at call time, once per layer, in stack order. The
    backward's layer calls are the direct children of nn.backward."""
    model = nn.init_model(nn.ModelConfig(vocab_size=12, L=10), seed=0)
    for name, ids in BATCHES.items():
        tracer = SPANS.Tracer()
        tracer.install()
        try:
            _, cache = model.forward(ids)
            train.model_backward(cache, np.arange(len(ids)) % 4 + 1)
        finally:
            tracer.uninstall()

        assert np.array_equal(cache.distinct, np.unique(ids)), name
        backward = next(i for i, span in enumerate(tracer.spans) if span[1] == "nn.backward")
        assert [span[1] for span in tracer.spans if span[0] == backward] == [
            "nn.dense2.bwd",
            "nn.dense1.bwd",
            "nn.pool2.bwd",
            "nn.conv2.bwd",
            "nn.pool1.bwd",
            "nn.conv1.bwd",
        ]
        assert [span[1] for span in tracer.spans if span[1].startswith("nn.")] == [
            *FORWARD_SPANS,
            "nn.backward",
            "nn.dense2.bwd",
            "nn.dense1.bwd",
            "nn.pool2.bwd",
            "nn.conv2.bwd",
            "nn.pool1.bwd",
            "nn.conv1.bwd",
        ]


def test_every_eval_chunk_gets_its_own_layer_spans():
    """The tracer names conv1/conv2 and pool1/pool2 by call order under each
    nn.forward span, so every chunk of predict_codes must enter through
    Model.forward and pool through nn.maxpool1d."""
    model = nn.init_model(nn.ModelConfig(vocab_size=12, L=10), seed=0)
    ids = np.random.default_rng(0).integers(0, 12, size=(2 * train._EVAL_BATCH + 1, 10))
    tracer = SPANS.Tracer()
    tracer.install()
    try:
        train.predict_codes(model, ids)
    finally:
        tracer.uninstall()

    forwards = [i for i, span in enumerate(tracer.spans) if span[1] == "nn.forward"]
    assert len(forwards) == 3
    layers = ["nn.conv1.fwd", "nn.pool1.fwd", "nn.conv2.fwd", "nn.pool2.fwd"]
    for forward in forwards:
        children = [name for parent, name, *_ in tracer.spans if parent == forward]
        assert [name for name in children if name in layers] == layers


@pytest.mark.parametrize("ids", BATCHES.values(), ids=BATCHES.keys())
def test_conv_spans_get_their_layers_input_channels(monkeypatch, ids):
    """nn.conv1.fwd/.bwd and nn.conv2.fwd/.bwd time the calls that read the
    embedding and conv1's output, so each must get an input of that many
    channels, through the nn module global, once per layer and pass."""
    config = nn.ModelConfig(vocab_size=12, L=10, embed_dim=7, conv1_filters=5, conv2_filters=3)
    model = nn.init_model(config, seed=0)
    tracer = SPANS.Tracer()
    tracer.install()
    channels = []

    def recording(traced_conv):
        def conv(x, kernel, other):
            channels.append(x.shape[-1])
            return traced_conv(x, kernel, other)
        return conv

    for attr in ("conv1d_forward", "conv1d_backward"):
        monkeypatch.setattr(nn, attr, recording(getattr(nn, attr)))
    try:
        _, cache = model.forward(ids)
        train.model_backward(cache, np.arange(len(ids)) % 4 + 1)
    finally:
        monkeypatch.undo()
        tracer.uninstall()

    assert np.array_equal(cache.distinct, np.unique(ids))
    names = [span[1] for span in tracer.spans if span[1].startswith("nn.conv")]
    assert list(zip(names, channels)) == [
        ("nn.conv1.fwd", config.embed_dim),
        ("nn.conv2.fwd", config.conv1_filters),
        ("nn.conv2.bwd", config.conv1_filters),
        ("nn.conv1.bwd", config.embed_dim),
    ]


def test_training_batch_calls_loss_backward_and_step_without_one_hot():
    """A training batch passes its category codes straight to the loss and
    the backward pass; no one-hot matrix is built on the way."""
    model = nn.init_model(nn.ModelConfig(vocab_size=12, L=10), seed=0)
    rng = np.random.default_rng(0)
    data = (rng.integers(0, 12, size=(5, 10)), np.array([1, 2, 3, 4, 1]))
    cfg = train.TrainConfig(batch_size=8, epochs=1)
    tracer = SPANS.Tracer()
    tracer.install()
    try:
        train.train_model(model, data, data, cfg)
    finally:
        tracer.uninstall()

    # one_hot runs only inside the epoch's confusion matrix (codes, then
    # predictions), which keeps BENCHMARK.json's train.one_hot_us measured.
    names = [span[1] for span in tracer.spans]
    assert [names[parent] for parent, name, *_ in tracer.spans if name == "train.one_hot"] == [
        "train.confusion_matrix",
        "train.confusion_matrix",
    ]
    step = {"nn.forward", "nn.cross_entropy", "nn.backward", "nn.rmsprop"}
    # Calls made by the loop itself have no parent span; evaluate()'s forward pass has one.
    assert [name for parent, name, *_ in tracer.spans if parent == -1 and name in step] == [
        "nn.forward",
        "nn.cross_entropy",
        "nn.backward",
        "nn.rmsprop",
    ]


@pytest.mark.parametrize("mode", [corpus.MODE_EMOTICON_TEXT, corpus.MODE_TEXT_ONLY])
def test_preprocess_calls_clean_and_normalize_once_each(mode):
    """corpus.clean_us and corpus.normalize_us exist only while preprocess
    calls clean and then the emoticon pass as corpus module globals."""
    tracer = SPANS.Tracer()
    tracer.install()
    try:
        corpus.preprocess("Great DAY \U0001F60A", corpus.EmoticonLexicon.default(), mode)
    finally:
        tracer.uninstall()

    assert [(parent, name) for parent, name, *_ in tracer.spans] == [
        (-1, "corpus.preprocess"),
        (0, "corpus.clean"),
        (0, "corpus.normalize"),
    ]


def test_train_preprocesses_each_post_once(synth_csv, tmp_path):
    tracer = SPANS.Tracer()
    tracer.install()
    try:
        argv = ["train", "--data", str(synth_csv), "--out", str(tmp_path / "model"), "--epochs", "1"]
        assert cli.main(argv) == 0
    finally:
        tracer.uninstall()

    calls = sum(name == "corpus.preprocess" for _, name, *_ in tracer.spans)
    assert calls == len(corpus.load_dataset(synth_csv))
