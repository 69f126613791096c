"""The per-layer tracer in perfbench/spans.py wraps module attributes of the
package by name; every one of them must still exist where it looks, and
every layer call must still go through them."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from emoticnn import nn, train

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


def test_tracer_sees_every_layer_call_in_order():
    """The tracer tells conv1 from conv2 (and pool1 from pool2, dense1 from
    dense2) only by call order, so each layer step must call the nn layer
    function looked up at call time, once per layer, in stack order."""
    model = nn.init_model(nn.ModelConfig(vocab_size=12, L=10), seed=0)
    ids = np.random.default_rng(0).integers(0, 12, size=(3, 10))
    tracer = SPANS.Tracer()
    tracer.install()
    try:
        _, cache = model.forward(ids)
        train.model_backward(cache, np.eye(4)[[0, 1, 2]])
    finally:
        tracer.uninstall()

    assert [span[1] for span in tracer.spans if span[1].startswith("nn.")] == [
        "nn.forward",
        "nn.embedding.fwd",
        "nn.conv1.fwd",
        "nn.pool1.fwd",
        "nn.conv2.fwd",
        "nn.pool2.fwd",
        "nn.dense1.fwd",
        "nn.dense2.fwd",
        "nn.softmax",
        "nn.backward",
        "nn.dense2.bwd",
        "nn.dense1.bwd",
        "nn.pool2.bwd",
        "nn.conv2.bwd",
        "nn.pool1.bwd",
        "nn.conv1.bwd",
    ]
