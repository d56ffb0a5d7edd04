"""The benchmark's hooks into weavenet still hold.

benchmark/tracing.py names the weavenet functions it wraps or counts by
(module, name), and benchmark/workloads.py records the output digests of
each workload's seed-0 reference operations. A rename, a deletion or a
moved output byte would only show when the benchmark runs, so these tests
load both files, without editing them, and check the names, the digests and
that a traced operation runs and aggregates.
"""

import hashlib
import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"


def load(name):
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", BENCHMARK / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracing():
    return load("tracing")


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


WORKLOADS = load("workloads")


def reference_workload(name, tmp_path):
    """Workload `name` at the reference seed, set up as benchmark/run.py does."""
    pkg = SimpleNamespace(**{
        module: importlib.import_module(f"weavenet.{module}")
        for module in ("cli", "config", "detect", "evaluation", "formats", "tensor_core", "weave")
    })
    workload = WORKLOADS.WORKLOADS[name](pkg, WORKLOADS.REFERENCE_SEED, str(tmp_path))
    workload.setup()
    return workload


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_reference_operations_keep_their_digests(name, tmp_path):
    """Each workload's reference operations at the reference seed, checked
    and digested as benchmark/run.py does."""
    workload = reference_workload(name, tmp_path)
    shas = []
    for i in range(workload.reference_ops):
        error, data = workload.check(i, workload.run(i))
        assert error is None
        shas.append(hashlib.sha256(data).hexdigest())
    assert WORKLOADS.digest(shas) == WORKLOADS.REFERENCE_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_traced_operation_equals_untraced(name, tmp_path):
    """A workload's first reference operation under the tracer, as a
    `--trace 1` run makes it: the wrappers pass every call through, so the
    output bytes do not move, and every span has a reported layer (every
    conv3x3 a role), so the spans aggregate."""
    tracing = load_tracing()
    workload = reference_workload(name, tmp_path)
    error, untraced = workload.check(0, workload.run(0))
    assert error is None
    tracer = tracing.Tracer()
    with tracer.patched():
        with tracer.operation(0):
            result = workload.run(0)
    error, traced = workload.check(0, result)
    assert error is None
    assert traced == untraced
    assert tracer.spans
    tracing.aggregate(tracer.spans, 1)
