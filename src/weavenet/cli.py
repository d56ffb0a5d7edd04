"""Command-line surface: verify, demo, eval, bench, fixtures.

Exit codes: 0 success, 1 validation or verification failure, 2 I/O error.

`bench`, `pipeline` and `fixtures` are imported by the commands that run
them, not here, so importing the CLI (or running `eval`) does not load them.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace

from .config import RunConfig, apply_overrides, load_config
from .detect import ANCHOR_MODES
from .errors import EquivalenceError, ValidationError
from .evaluation import ALL_STRATA, evaluate
from .formats import (
    format_table,
    read_detection_table,
    read_ground_truth_table,
    write_csv,
    write_detections,
)
from .tensor_core import exactness_probe
from .weave import DIRECTION_MASKS, MODES

SWEEP_K = (16, 32, 64)
SWEEP_T = (1, 3, 5)
BENCH_SWEEP_K = (16, 32)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are validation failures, not I/O
        raise ValidationError(message)


def _load(args) -> RunConfig:
    config = load_config(args.config) if args.config else RunConfig()
    return apply_overrides(
        config,
        seed=args.seed,
        anchors=getattr(args, "anchors", None),
        top_down_only=getattr(args, "top_down_only", False),
        bottom_up_only=getattr(args, "bottom_up_only", False),
    )


def cmd_verify(args) -> int:
    from . import bench as bench_mod
    from .fixtures import make_raw_pyramid

    config = _load(args)
    mismatch = exactness_probe()
    if mismatch is not None:
        raise ValidationError(f"conv3x3 is not bit-exact on this NumPy build: {mismatch}")
    base = config.weave_config()
    pyramid = make_raw_pyramid(config)
    tol = bench_mod.EQUIVALENCE_TOL

    combos = [("config", base)] + [
        ("sweep", replace(base, k=k, iterations=t, enable_top_down=td, enable_bottom_up=bu))
        for k in SWEEP_K for t in SWEEP_T for td, bu in DIRECTION_MASKS.values()
    ]

    print(f"equivalence check: naive vs simplified, tolerance {tol:.1e}")
    failures = 0
    rows = []
    for origin, cfg in combos:
        k, t, masks = cfg.k, cfg.iterations, bench_mod.masks_label(cfg)
        _, worst, reason = bench_mod.check_modes(cfg, pyramid, config.corrupt_block)
        note = "" if reason is None else f"  (not corrupted: {reason})"
        ok = worst.deviation <= tol
        failures += 0 if ok else 1
        status = "PASS" if ok else "FAIL"
        detail = "" if ok else f"  ({worst})"
        print(
            f"  [{origin}] k={k:<3d} T={t} masks={masks:<15s}"
            f" worst={worst.deviation:.3e}  {status}{detail}{note}"
        )
        rows.append([origin, str(k), str(t), masks, f"{worst.deviation:.3e}", status])
    total = len(combos)
    print(f"{total - failures}/{total} combinations within tolerance")
    if failures and config.corrupt_block is not None:
        scale, t = config.corrupt_block
        print(f"note: kernel partition corrupted at scale {scale}, iteration {t}")
    if args.out:
        write_csv(args.out, ["origin", "k", "iterations", "masks", "worst_deviation", "status"], rows)
        print(f"wrote {args.out}")
    return 0 if failures == 0 else 1


def cmd_demo(args) -> int:
    from .pipeline import run_demo

    config = _load(args)
    records = run_demo(config, refine=not args.no_refine, mode=args.mode)
    write_detections(args.out, records)
    by_class: dict[int, int] = {}
    for r in records:
        by_class[r.class_id] = by_class.get(r.class_id, 0) + 1
    counts = ", ".join(f"class {c}: {n}" for c, n in sorted(by_class.items())) or "none"
    print(f"demo: {len(records)} detections ({counts})")
    print(f"wrote {args.out}")
    return 0


def cmd_eval(args) -> int:
    dets = read_detection_table(args.dets)
    gts = read_ground_truth_table(args.gt)
    report = evaluate(dets, gts)

    classes = report.classes()
    rows = []
    for stratum in ALL_STRATA:
        for cls in classes:
            ap = report.ap[stratum][cls]
            rows.append(
                [
                    stratum,
                    str(cls),
                    "" if ap is None else f"{ap:.6f}",
                    str(report.positives[stratum][cls]),
                ]
            )
    if args.out:
        write_csv(args.out, ["stratum", "class_id", "ap", "positives"], rows)

    summary = [
        [stratum, f"{report.mean_ap[stratum]:.6f}", str(sum(report.positives[stratum].values()))]
        for stratum in ALL_STRATA
    ]
    print(format_table(["stratum", "mAP", "positives"], summary))
    print(f"ground truth: {report.gt_count} boxes, detections: {report.det_count}")
    for note in report.notes:
        print(f"note: {note}")
    if args.out:
        print(f"wrote {args.out}")
    return 0


def cmd_bench(args) -> int:
    from . import bench as bench_mod

    config = _load(args)
    base = config.weave_config()
    configs = [replace(base, k=k, iterations=t) for k in BENCH_SWEEP_K for t in SWEEP_T]
    data_rows = []
    timing_rows = []
    ratio_rows = []
    for cmp in bench_mod.compare_modes(configs, args.warmup, args.reps, config.corrupt_block):
        for report, ratio in ((cmp.naive, 1.0), (cmp.simplified, cmp.flop_ratio)):
            data_rows.append(bench_mod.data_row(report, ratio, cmp.worst_deviation))
            timing_rows.append(bench_mod.timing_row(report))
        ratio_rows.append(bench_mod.ratio_row(cmp))
    data_rows.append(bench_mod.baseline_row())

    print(format_table(list(bench_mod.DATA_COLUMNS), data_rows))
    print()
    print(format_table(list(bench_mod.TIMING_COLUMNS), timing_rows))
    print()
    print(format_table(list(bench_mod.RATIO_COLUMNS), ratio_rows))
    if args.out:
        write_csv(args.out, bench_mod.DATA_COLUMNS, data_rows)
        print(f"wrote {args.out}")
    if args.timing_out:
        write_csv(args.timing_out, bench_mod.TIMING_COLUMNS, timing_rows)
        print(f"wrote {args.timing_out}")
    return 0


def cmd_fixtures(args) -> int:
    from .fixtures import write_fixtures

    config = _load(args)
    paths = write_fixtures(config, args.out)
    for p in paths:
        print(f"wrote {p}")
    return 0


# Built on the first main() call and reused after it: parse_args keeps no
# state between calls, and no argument has a mutable default.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="weavenet", description="Multi-scale feature weaving inference tools.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, with_masks=True, with_anchors=False):
        sp.add_argument("--config", help="JSON config file (defaults used when omitted)")
        sp.add_argument("--seed", type=int, help="override the config seed")
        if with_masks:
            sp.add_argument("--top-down-only", action="store_true", help="disable bottom-up messages")
            sp.add_argument("--bottom-up-only", action="store_true", help="disable top-down messages")
        if with_anchors:
            sp.add_argument("--anchors", choices=ANCHOR_MODES, help="anchor configuration")

    verify = sub.add_parser("verify", help="check naive/simplified agreement over a sweep")
    add_common(verify)
    verify.add_argument("--out", help="optional CSV of per-combination results")
    verify.set_defaults(func=cmd_verify)

    demo = sub.add_parser("demo", help="run the synthetic end-to-end detection pipeline")
    add_common(demo, with_anchors=True)
    demo.add_argument("--out", default="detections.jsonl", help="detections output path")
    demo.add_argument("--mode", choices=MODES, default="simplified", help="fusion mode (default simplified)")
    demo.add_argument("--no-refine", action="store_true", help="skip box refinement")
    demo.set_defaults(func=cmd_demo)

    ev = sub.add_parser("eval", help="score a detections file against ground truth")
    ev.add_argument("dets", help="detections JSONL path")
    ev.add_argument("gt", help="ground-truth JSONL path")
    ev.add_argument("--out", help="optional per-class/per-stratum CSV path")
    ev.set_defaults(func=cmd_eval)

    bench = sub.add_parser("bench", help="FLOP accounting and wall-clock mode comparison")
    add_common(bench)
    bench.add_argument("--out", help="optional CSV of deterministic FLOP rows")
    bench.add_argument("--timing-out", help="optional CSV of wall-clock rows")
    bench.add_argument("--warmup", type=int, default=3, help="unmeasured passes per mode")
    bench.add_argument("--reps", type=int, default=20, help="measured repetitions per mode")
    bench.set_defaults(func=cmd_bench)

    fixtures = sub.add_parser("fixtures", help="write seeded synthetic input files")
    add_common(fixtures, with_masks=False)
    fixtures.add_argument("--out", default="fixtures", help="output directory")
    fixtures.set_defaults(func=cmd_fixtures)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValidationError, EquivalenceError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
