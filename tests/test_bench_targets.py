"""The benchmark wraps motionrefine functions by the names in bench/spans.py.

A rename or deletion of a wrapped function would otherwise only surface as a
crash of a traced benchmark run.
"""
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_bench_span_target_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ untouched
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{module.__name__}.{attr}" for module, attr, *_ in spans.TARGETS
               if not callable(getattr(module, attr, None))]
    assert spans.TARGETS and missing == []
