"""The benchmark's span tracer still finds every library seam it patches.

``perfbench/spans.py`` wraps library functions by the names their callers
look them up by (a module global or a class's own attribute).  A rename
in the library breaks a patch with a ``KeyError`` only in a traced
benchmark run; this test catches it in the tier-1 suite instead, without
editing the benchmark.
"""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest

from repro.storage import available_backends

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.skipif(
    "numpy" not in available_backends(), reason="the traced seams include NumpyStorage"
)
def test_span_patches_apply_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
    spans.install_library_spans(tracer)
    try:
        patches = list(tracer._patches)
        assert patches
        for owner, attr, raw in patches:
            now = vars(owner)[attr]
            if isinstance(raw, classmethod):
                assert isinstance(now, classmethod)
                now, raw = now.__func__, raw.__func__
            assert now is not raw
            assert now.__wrapped__ is raw, f"{owner.__name__}.{attr}"
    finally:
        tracer.unpatch()
    for owner, attr, raw in patches:
        assert vars(owner)[attr] is raw, f"{owner.__name__}.{attr}"
