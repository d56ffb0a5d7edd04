"""Self-tests of the benchmark: inputs, tracing, output checks, BENCHMARK.json.

    python3 -m pytest benchmark/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def pkg():
    return run.load_package()


def _built(pkg, cls, seed, path):
    os.makedirs(path, exist_ok=True)
    wl = cls(pkg, seed, str(path))
    wl.setup()
    return wl


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_a_seed_always_generates_the_same_inputs(pkg, tmp_path):
    a = _built(pkg, workloads.EvalDense, 3, tmp_path / "a")
    b = _built(pkg, workloads.EvalDense, 3, tmp_path / "b")
    c = _built(pkg, workloads.EvalDense, 4, tmp_path / "c")
    for name in ("gt_path", "dets_path"):
        assert _read(getattr(a, name)) == _read(getattr(b, name))
        assert _read(getattr(a, name)) != _read(getattr(c, name))

    f1 = _built(pkg, workloads.FusionT5, 3, tmp_path / "f1")
    f2 = _built(pkg, workloads.FusionT5, 3, tmp_path / "f2")
    for x, y in zip(f1.pyramid, f2.pyramid):
        assert np.array_equal(x.data, y.data)
    for scale in f1.params:
        for k1, k2 in zip(f1.params[scale].kernels, f2.params[scale].kernels):
            assert np.array_equal(k1.weights, k2.weights)

    d1 = _built(pkg, workloads.DetectStream, 3, tmp_path / "d1")
    d2 = _built(pkg, workloads.DetectStream, 4, tmp_path / "d2")
    seeds = [d1.image_seed(i) for i in range(50)]
    assert seeds == [d1.image_seed(i) for i in range(50)]
    assert len(set(seeds)) == 50  # every operation is a new image
    assert seeds != [d2.image_seed(i) for i in range(50)]


def test_trace_wrappers_leave_no_patch_behind(pkg):
    before = tracing.bindings_snapshot()
    conv3x3 = pkg.tensor_core.conv3x3
    tracer = tracing.Tracer()
    with tracer.patched():
        # the copies bound by `from .tensor_core import conv3x3` are wrapped too
        assert pkg.weave.conv3x3 is not conv3x3
        assert pkg.detect.conv3x3 is not conv3x3
        assert pkg.weave.conv3x3 is pkg.tensor_core.conv3x3
    assert tracing.bindings_snapshot() == before
    with pytest.raises(RuntimeError):
        with tracer.patched():
            raise RuntimeError("interrupted run")
    assert tracing.bindings_snapshot() == before
    assert pkg.weave.conv3x3 is conv3x3


@pytest.mark.parametrize("cls", [workloads.EvalDense, workloads.FusionT5, workloads.DetectStream])
def test_traced_and_untraced_outputs_are_equal(pkg, tmp_path, cls):
    wl = _built(pkg, cls, 1, tmp_path)
    plain = run.run_op(wl, 0)
    tracer = tracing.Tracer()
    with tracer.patched():
        traced = run.run_op(wl, 0, tracer)
    assert plain["error"] is None and traced["error"] is None
    assert traced["sha"] == plain["sha"]
    layers, attributed = tracing.aggregate(tracer.spans, 1)
    assert sum(layers[layer + ".s"] for layer in tracing.SELF_TIME_LAYERS) == pytest.approx(attributed)
    assert attributed <= traced["s"]
    assert attributed == pytest.approx(traced["s"], rel=run.ATTRIBUTION_TOL)


@pytest.fixture(scope="module")
def demo_output(tmp_path_factory):
    wl = _built(run.load_package(), workloads.DetectStream, 0, tmp_path_factory.mktemp("demo"))
    path = wl.run(0)
    assert wl.check(0, path)[0] is None
    return _read(path)


def _with_record(lines, index, **changes):
    record = json.loads(lines[index])
    record.update(changes)
    return lines[:index] + [json.dumps(record)] + lines[index + 1:]


DETECTION_TAMPERS = {
    "box past the image": lambda lines: _with_record(lines, 0, xmax=321.0),
    "score above one": lambda lines: _with_record(lines, 0, score=1.5),
    "score at the floor": lambda lines: _with_record(lines, 0, score=0.01),
    "too many detections": lambda lines: lines + lines[:1],
    "unparsable line": lambda lines: lines[:-1] + ['{"image_id": "synthetic-0"'],
}


@pytest.mark.parametrize("tamper", sorted(DETECTION_TAMPERS))
def test_a_tampered_detections_file_is_a_failed_operation(pkg, tmp_path, demo_output, tamper):
    wl = _built(pkg, workloads.DetectStream, 0, tmp_path)
    lines = demo_output.decode().splitlines()

    def tampered_run(i):
        with open(wl.out_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(DETECTION_TAMPERS[tamper](lines)) + "\n")
        return wl.out_path

    wl.run = tampered_run
    assert run.run_op(wl, 0)["error"]


# (column of the last report row, new value); that row is the overall stratum
REPORT_TAMPERS = {
    "AP above one": (2, lambda ap: "1.500000"),
    "positives changed": (3, lambda positives: str(int(positives) + 1)),
}


@pytest.mark.parametrize("tamper", sorted(REPORT_TAMPERS))
def test_a_tampered_report_is_a_failed_operation(pkg, tmp_path, tamper):
    wl = _built(pkg, workloads.EvalDense, 0, tmp_path)
    assert run.run_op(wl, 0)["error"] is None
    rows = _read(wl.report_path).decode().splitlines()
    cells = rows[-1].split(",")
    assert cells[0] == "overall"
    column, change = REPORT_TAMPERS[tamper]
    cells[column] = change(cells[column])
    rows[-1] = ",".join(cells)
    original_run = wl.run

    def tampered_run(i):
        path = original_run(i)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(rows) + "\n")
        return path

    wl.run = tampered_run
    assert run.run_op(wl, 0)["error"]


def test_diverging_fusion_modes_are_a_failed_operation(pkg, tmp_path):
    wl = _built(pkg, workloads.FusionT5, 0, tmp_path)
    original_run = wl.run

    def tampered_run(i):
        outputs, seconds = original_run(i)
        first = outputs["simplified"][0]
        outputs["simplified"][0] = pkg.tensor_core.Tensor(first.data + 1e-6)
        return outputs, seconds

    wl.run = tampered_run
    assert "differ" in run.run_op(wl, 0)["error"]


def test_reference_digests_hold_at_the_default_seed(pkg, tmp_path):
    for cls in (workloads.EvalDense, workloads.FusionT5):
        wl = _built(pkg, cls, workloads.REFERENCE_SEED, tmp_path / cls.name)
        _, problems, _ = run.timed_run(wl, 0.0, 0.1)
        assert problems == []


def test_benchmark_json_lists_exactly_the_reported_metrics(pkg, tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    wl = _built(pkg, workloads.EvalDense, 2, tmp_path / "timed")
    metrics, problems, _ = run.timed_run(wl, 0.0, 0.1)
    assert problems == []
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert set(metrics) == set(run.E2E_UNITS)
    wl = _built(pkg, workloads.EvalDense, 2, tmp_path / "traced")
    layers, problems, _ = run.traced_run(wl, 0.0)
    assert problems == []
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: run.layer_unit(name) for name in layers
    }


def test_a_directory_without_the_package_exits_without_a_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "eval-dense", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
