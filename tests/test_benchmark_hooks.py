"""The benchmark's tracer finds every function it wraps.

benchmark/tracing.py names the weavenet functions it wraps or counts by
(module, name). A rename or deletion in the package would only show when
the benchmark runs, so this reads that list, without editing it, and checks
each name still exists.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists():
    tracing = load_tracing()
    hooks = [(mod, attr) for mod, attr, *_ in tracing.SPANNED] + list(tracing.COUNTED)
    assert hooks
    missing = [
        f"weavenet.{mod}.{attr}"
        for mod, attr in hooks
        if not callable(getattr(importlib.import_module(f"weavenet.{mod}"), attr, None))
    ]
    assert missing == []
