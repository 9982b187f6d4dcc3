"""The benchmark's tracer rebinds package functions by name; every name it
lists must exist, so a rename fails here and not only in a traced run."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for module, attribute, *_ in tracing.TRACED:
        owner = importlib.import_module(f"matrixmech.{module}")
        for part in attribute.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"{module}.{attribute}"
