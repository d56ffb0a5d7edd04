"""weavenet benchmark: one closed-loop workload per process, one client.

    python3 benchmark/run.py --workload detect-stream|fusion-t5|eval-dense|all
                             [--seed N] [--seconds S] [--trace 0|1]

The checkout must hold `src/weavenet`. `all` runs the three workloads one
after the other, each in its own process. With `--trace 0` a run reports
the end-to-end metrics; with `--trace 1` it runs the same operations
untraced and then traced, and reports the per-layer table. The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}. See benchmark/README.md.
"""

from time import perf_counter

PROCESS_START = perf_counter()  # set-up is timed from here, before any weavenet import

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")

# Set-ups timed per run: the first from process start, the others spread over
# the run, so that their median sees the same host as the operations do.
SETUP_SAMPLES = 9
UNTRACED_SHARE = 0.4  # of --seconds, for the untraced half of a traced run
ATTRIBUTION_TOL = 0.01  # layer self times must cover the traced op time to 1%

E2E_UNITS = {
    "op_p50_s": "s",
    "op_p75_s": "s",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PACKAGE_MODULES = ("cli", "config", "detect", "evaluation", "formats", "tensor_core", "weave")


def load_package() -> SimpleNamespace:
    """Import weavenet afresh from this checkout's src/, dropping earlier imports."""
    for module in tracing.package_modules():
        del sys.modules[module.__name__]
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    importlib.invalidate_caches()
    pkg = SimpleNamespace(
        **{m: importlib.import_module("weavenet." + m) for m in PACKAGE_MODULES}
    )
    origin = os.path.dirname(os.path.abspath(sys.modules["weavenet"].__file__))
    if origin != os.path.join(SRC, "weavenet"):
        raise ImportError(f"weavenet imported from {origin}, not from {SRC}")
    return pkg


def build(workload: str, seed: int, workdir: str) -> workloads.Workload:
    """Import weavenet and set the workload up: what `setup_s` times."""
    os.makedirs(workdir, exist_ok=True)
    wl = workloads.WORKLOADS[workload](load_package(), seed, workdir)
    wl.setup()
    return wl


def time_setup(wl: workloads.Workload) -> float:
    """Time one more set-up of wl's workload and throw it away.

    The weavenet modules that wl uses are put back into sys.modules.
    """
    in_use = {m.__name__: m for m in tracing.package_modules()}
    t0 = perf_counter()
    build(wl.name, wl.seed, os.path.join(wl.workdir, "setup"))
    seconds = perf_counter() - t0
    for module in tracing.package_modules():
        del sys.modules[module.__name__]
    sys.modules.update(in_use)
    return seconds


def host_info() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas_threads = "unknown"
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line and ".so" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype = ctypes.c_int
                blas_threads = getter()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
    }


def process_threads() -> int:
    with open("/proc/self/status", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return -1


def run_op(wl, i: int, tracer=None) -> dict:
    """Run and check operation i. Only the operation itself is timed."""
    t0 = perf_counter()
    try:
        if tracer is None:
            result = wl.run(i)
        else:
            with tracer.operation(i):
                result = wl.run(i)
    except Exception as err:  # a failing operation is counted, not fatal
        return {"i": i, "s": perf_counter() - t0, "error": f"{type(err).__name__}: {err}",
                "sha": "", "passes": {}}
    seconds = perf_counter() - t0
    try:
        error, data = wl.check(i, result)
    except Exception as err:  # e.g. an output file that no longer parses
        error, data = f"check raised {type(err).__name__}: {err}", b""
    return {"i": i, "s": seconds, "error": error, "sha": hashlib.sha256(data).hexdigest(),
            "passes": wl.pass_times(result)}


def run_ops(wl, cal, keep_going, tracer=None, between=None, every=float("inf")) -> list[dict]:
    """Operations 0, 1, ... while keep_going(count so far); `between()` every `every` s.

    Each operation also gets its reference time `ref_s`: its wall time
    scaled by the calibration loops timed just before and after it.
    """
    next_between = perf_counter() + every
    ops = []
    while keep_going(len(ops)):
        before = len(cal.loops) - 1
        op = run_op(wl, len(ops), tracer)
        if cal.due():
            cal.measure()
        ops.append((before, op))
        if between is not None and perf_counter() >= next_between:
            between()
            next_between += every
    cal.measure()
    for before, op in ops:
        factor = cal.factor(before, before + 1)
        op["ref_s"] = op["s"] * factor
        op["ref_passes"] = {mode: s * factor for mode, s in op["passes"].items()}
    return [op for _, op in ops]


def warm_up(wl) -> list[str]:
    op = run_op(wl, -1)
    return [f"warm-up: {op['error']}"] if op["error"] else []


def reference_problems(wl, ops: list[dict]) -> list[str]:
    if wl.seed != workloads.REFERENCE_SEED:
        return []
    got = workloads.digest([op["sha"] for op in ops[: wl.reference_ops]])
    want = workloads.REFERENCE_DIGESTS[wl.name]
    return [] if got == want else [f"output digest {got} != recorded {want}"]


def pass_p50s(ops: list[dict]) -> dict[str, float]:
    """Median reference time of each weave_forward mode, where operations time them."""
    modes = sorted({mode for op in ops for mode in op["ref_passes"]})
    return {m: statistics.median(op["ref_passes"][m] for op in ops if m in op["ref_passes"])
            for m in modes}


def percentile(values: list[float], p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def timed_run(wl, seconds: float, first_setup_s: float) -> tuple[dict, list[str], dict]:
    cal = hostspeed.Calibrator()
    setups = [first_setup_s * cal.factor(0, 0)]

    def another_setup():
        before = len(cal.loops) - 1
        wall = time_setup(wl)
        setups.append(wall * cal.factor(before, cal.measure()))

    problems = warm_up(wl)
    deadline = perf_counter() + seconds
    ops = run_ops(wl, cal, lambda n: n < wl.min_ops or perf_counter() < deadline,
                  between=another_setup, every=seconds / SETUP_SAMPLES)
    problems += reference_problems(wl, ops)
    times = [op["ref_s"] for op in ops]
    metrics = {
        "op_p50_s": statistics.median(times),
        "op_p75_s": percentile(times, 75),
        "ops_per_s": len(times) / sum(times),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    passes = {f"{mode}_pass_p50_s": value for mode, value in pass_p50s(ops).items()}
    return metrics, problems, {
        "ops": ops, "samples": len(times), "setups": len(setups), **passes,
        "op_p90_s": percentile(times, 90),
        "wall_op_p50_s": statistics.median(op["s"] for op in ops),
        "calibration_loop_s": statistics.median(cal.loops), "calibrations": len(cal.loops),
    }


def traced_run(wl, seconds: float) -> tuple[dict, list[str], dict]:
    cal = hostspeed.Calibrator()
    problems = warm_up(wl)
    deadline = perf_counter() + seconds * UNTRACED_SHARE
    untraced = run_ops(wl, cal, lambda n: n < wl.min_ops or perf_counter() < deadline)
    problems += reference_problems(wl, untraced)

    before = tracing.bindings_snapshot()
    tracer = tracing.Tracer()
    with tracer.patched():
        with tracer.operation(-1):
            wl.traced_setup()
        traced = run_ops(wl, cal, lambda n: n < len(untraced), tracer)
    if tracing.bindings_snapshot() != before:
        problems.append("trace wrappers were not all restored")
    for plain, op in zip(untraced, traced):
        if op["error"] is None and op["sha"] != plain["sha"]:
            op["error"] = f"traced output of operation {op['i']} differs from the untraced one"

    layers, attributed = tracing.aggregate(tracer.spans, len(traced))
    op_s = statistics.mean(op["s"] for op in traced)
    if abs(op_s - attributed) > ATTRIBUTION_TOL * op_s:
        problems.append(f"layer self times cover {attributed:.6f} s of {op_s:.6f} s per operation")
    layers["trace.op_s"] = op_s
    layers["trace.unattributed_s"] = op_s - attributed
    layers["trace.overhead_ratio"] = (
        statistics.median(op["ref_s"] for op in traced) / statistics.median(op["ref_s"] for op in untraced)
    )
    passes = pass_p50s(untraced)
    layers["weave.naive_pass_p50_s"] = passes.get("naive", 0.0)
    layers["weave.simplified_pass_p50_s"] = passes.get("simplified", 0.0)
    layers["weave.time_ratio"] = passes["naive"] / passes["simplified"] if passes else 0.0
    layers["weave.flop_ratio"] = getattr(wl, "flop_ratio", 0.0)
    return layers, problems, {"ops": untraced + traced, "samples": len(traced)}


def layer_unit(name: str) -> str:
    for suffix, unit in ((".gflop_per_s", "GFLOP/s"), (".gflop", "GFLOP"), ("_s", "s"), (".s", "s"),
                         (".mb_moved", "MB"), (".mb_copied", "MB"), (".mb", "MB"),
                         ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def run_all(args) -> int:
    """Each workload in its own process, in turn; one combined result line."""
    results = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS) + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "weavenet", "__init__.py")):
        print(f"error: no weavenet sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    workdir = os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}")
    try:
        wl = build(args.workload, args.seed, workdir)
        first_setup_s = perf_counter() - PROCESS_START
        if args.trace:
            metrics, problems, record = traced_run(wl, args.seconds)
            units = {name: layer_unit(name) for name in metrics}
        else:
            metrics, problems, record = timed_run(wl, args.seconds, first_setup_s)
            units = E2E_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            os.rmdir(WORK_ROOT)

    ops = record["ops"]
    failed = [op for op in ops if op["error"]]
    host = host_info()
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("host " + "  ".join(f"{k}={v}" for k, v in host.items())
          + f"  process_threads={process_threads()}")
    samples = record["samples"]
    for name, value in metrics.items():
        note = ""
        if name.startswith("op") and not args.trace:
            note = f"  n={samples}  ({name.replace('op', wl.op_name, 1)})"
        elif name == "setup_s":
            note = f"  n={record['setups']}"
        print(f"  {name:48s} {value:14.6f} {units[name]}{note}")
    if not args.trace:
        print(f"  {'op_p90_s':48s} {record['op_p90_s']:14.6f} s  n={samples}"
              f"  ({wl.op_name}_p90_s)")
        for key in ("naive_pass_p50_s", "simplified_pass_p50_s", "wall_op_p50_s"):
            if key in record:
                print(f"  {key:48s} {record[key]:14.6f} s  n={samples}")
        print(f"  {'calibration_loop_s':48s} {record['calibration_loop_s']:14.6f} s"
              f"  n={record['calibrations']}  (reference {hostspeed.REFERENCE_LOOP_S} s)")
    print(f"  {'failed_ratio':48s} {len(failed) / len(ops):14.6f} ratio  ({len(failed)} of {len(ops)})")
    for op in failed[:5]:
        print(f"  failed operation {op['i']}: {op['error']}")
    for note, count in wl.notes.items():
        print(f"  note: {note}: {count}")
    for problem in problems:
        print(f"  problem: {problem}")
    print(json.dumps({
        "correct": not failed and not problems,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
