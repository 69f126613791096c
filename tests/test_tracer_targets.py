"""The per-layer tracer in perfbench/spans.py wraps module attributes of the
package by name; every one of them must still exist where it looks."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

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
