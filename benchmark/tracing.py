"""Span tracing of weavenet's public functions, installed from outside the package.

`Tracer.patched()` replaces each traced function in every `weavenet.*` module
that binds it (so `from .tensor_core import conv3x3` in `weave.py` and
`detect.py` is caught as well) and puts every original back on exit. Spans
are kept in memory and aggregated when the run ends. `iou` is only counted,
on the innermost open span, because it runs hundreds of thousands of times
per operation.

A span's self time is its duration minus the durations of its direct
children, so the self times of one operation add up to its root spans.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
from collections import defaultdict
from time import perf_counter

# conv3x3 is reported by the role its caller gives it.
CONV_ROLES = {
    "weave.block": "block",
    "weave.precompute_sources": "precompute",
    "detect.head_forward": "head",
}

MB = 1e6


def _conv_info(args, kwargs, result):
    x, kernel = args
    cin, h, w = x.shape
    cout = kernel.weights.shape[0]
    flops = 2 * cin * cout * 9 * h * w
    # computed from array sizes: input, weights, bias and output, float64
    moved = 8 * (cin * h * w + cout * cin * 9 + cout + cout * h * w)
    return flops, moved


def _concat_info(args, kwargs, result):
    parts = args[0]
    return sum(p.data.nbytes for p in parts) if len(parts) > 1 else 0


def _nms_info(args, kwargs, result):
    return len(args[0]), len(result)


def _write_info(args, kwargs, result):
    return len(args[-1])  # records (write_detections) or rows (write_csv)


def _read_info(args, kwargs, result):
    return len(result), os.path.getsize(args[0])


def _match_info(args, kwargs, result):
    return sum(1 for label in result if label == "tp"), len(result)


def _forward_info(args, kwargs, result):
    return args[3] if len(args) > 3 else kwargs.get("mode", "simplified")


def _cli_name(args, kwargs):
    return "cli." + args[0][0]


# (defining module, function, span name, info hook); the span name may be
# computed from the call's arguments.
SPANNED = (
    ("tensor_core", "conv3x3", "tensor_core.conv3x3", _conv_info),
    ("tensor_core", "concat_channels", "tensor_core.concat_channels", _concat_info),
    ("tensor_core", "upsample_bilinear_x2", "tensor_core.resample", None),
    ("tensor_core", "maxpool_2x2_s2", "tensor_core.resample", None),
    ("weave", "weave_forward", "weave.weave_forward", _forward_info),
    ("weave", "precompute_sources", "weave.precompute_sources", None),
    ("weave", "block_naive", "weave.block", None),
    ("weave", "block_simplified", "weave.block", None),
    ("weave", "init_params", "weave.init_params", None),
    ("detect", "generate_anchors", "detect.generate_anchors", None),
    ("detect", "init_head_params", "detect.init_head_params", None),
    ("detect", "head_forward", "detect.head_forward", None),
    ("detect", "decode_box", "detect.decode_box", None),
    ("detect", "nms_greedy", "detect.nms_greedy", _nms_info),
    ("detect", "refine_boxes", "detect.refine_boxes", None),
    ("evaluation", "stratify_by_area", "evaluation.stratify_by_area", None),
    ("evaluation", "match_detections", "evaluation.match_detections", _match_info),
    ("evaluation", "average_precision_11pt", "evaluation.average_precision_11pt", None),
    ("evaluation", "evaluate", "evaluation.evaluate", None),
    ("formats", "write_detections", "formats.write", _write_info),
    ("formats", "write_csv", "formats.write", _write_info),
    ("formats", "read_detections", "formats.read", _read_info),
    ("formats", "read_ground_truth", "formats.read", _read_info),
    ("cli", "main", _cli_name, None),
)
COUNTED = (("detect", "iou"),)

# Every span name above, with conv3x3 split by role: the `.s` metrics.
SELF_TIME_LAYERS = (
    "tensor_core.conv3x3.block",
    "tensor_core.conv3x3.precompute",
    "tensor_core.conv3x3.head",
    "tensor_core.concat_channels",
    "tensor_core.resample",
    "weave.weave_forward",
    "weave.precompute_sources",
    "weave.block",
    "weave.init_params",
    "detect.generate_anchors",
    "detect.init_head_params",
    "detect.head_forward",
    "detect.decode_box",
    "detect.nms_greedy",
    "detect.refine_boxes",
    "evaluation.stratify_by_area",
    "evaluation.match_detections",
    "evaluation.average_precision_11pt",
    "evaluation.evaluate",
    "formats.write",
    "formats.read",
    "cli.demo",
    "cli.eval",
)


def package_modules() -> list:
    return [m for n, m in sorted(sys.modules.items()) if n == "weavenet" or n.startswith("weavenet.")]


def bindings_snapshot() -> dict:
    """Every attribute of every loaded weavenet module, by identity."""
    return {
        (m.__name__, k): id(v) for m in package_modules() for k, v in list(vars(m).items())
    }


class Tracer:
    """Collects spans while `recording` is set; inert otherwise."""

    def __init__(self):
        self.recording = False
        self.op = -1  # index of the operation being traced; -1 during set-up
        self.stack: list[list] = []
        # finished spans: (op, name, parent name, duration, self time, iou calls, info)
        self.spans: list[tuple] = []

    def _spanned(self, fn, name, info_hook):
        stack = self.stack
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            span_name = name if isinstance(name, str) else name(args, kwargs)
            parent = stack[-1] if stack else None
            span = [span_name, 0.0, 0]  # name, child time, iou calls
            stack.append(span)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - t0
                stack.pop()
            if parent is not None:
                parent[1] += duration
            info = info_hook(args, kwargs, result) if info_hook is not None else None
            spans.append(
                (self.op, span_name, parent[0] if parent else None,
                 duration, duration - span[1], span[2], info)
            )
            return result

        return wrapper

    def _counted(self, fn):
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack:
                stack[-1][2] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def patched(self):
        """Wrap every traced function wherever weavenet binds it; restore on exit."""
        modules = package_modules()
        undo = []
        try:
            targets = [
                (getattr(sys.modules["weavenet." + mod], attr), name, hook)
                for mod, attr, name, hook in SPANNED
            ] + [(getattr(sys.modules["weavenet." + mod], attr), None, None) for mod, attr in COUNTED]
            for original, name, hook in targets:
                if name is None:
                    wrapper = self._counted(original)
                else:
                    wrapper = self._spanned(original, name, hook)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            undo.append((m, key, original))
                            setattr(m, key, wrapper)
            yield self
        finally:
            self.recording = False
            for m, key, original in reversed(undo):
                setattr(m, key, original)

    @contextlib.contextmanager
    def operation(self, index: int):
        self.op = index
        self.recording = True
        try:
            yield
        finally:
            self.recording = False
            self.stack.clear()


def aggregate(spans: list[tuple], ops: int) -> tuple[dict, float]:
    """Per-operation layer figures from the spans of `ops` traced operations.

    Returns (figures, attributed seconds per operation). Set-up spans
    (op -1) only feed `weave.init_params.setup_s`.
    """
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    ious: dict[str, int] = defaultdict(int)
    flops: dict[str, int] = defaultdict(int)
    moved: dict[str, int] = defaultdict(int)
    extra: dict[str, float] = defaultdict(float)
    setup_init_s = 0.0
    attributed = 0.0
    # block and precompute FLOPs executed by each weave_forward mode; spans
    # arrive in completion order, so a pass's convolutions precede it
    pending_flops = 0
    mode_flops: dict[str, int] = defaultdict(int)
    for op, name, parent, _duration, self_time, iou_calls, info in spans:
        if op < 0:
            if name == "weave.init_params":
                setup_init_s += self_time
            continue
        attributed += self_time
        if name == "tensor_core.conv3x3":
            name = "tensor_core.conv3x3." + CONV_ROLES.get(parent, "other")
            flops[name] += info[0]
            moved[name] += info[1]
            if name != "tensor_core.conv3x3.head":
                pending_flops += info[0]
        elif name == "weave.weave_forward":
            mode_flops[info] += pending_flops
            pending_flops = 0
        elif name == "tensor_core.concat_channels":
            extra["concat_bytes"] += info
        elif name == "detect.nms_greedy":
            extra["nms_candidates"] += info[0]
            extra["nms_kept"] += info[1]
        elif name == "formats.write":
            extra["write_records"] += info
        elif name == "formats.read":
            extra["read_records"] += info[0]
            extra["read_bytes"] += info[1]
        elif name == "evaluation.match_detections":
            extra["match_tp"] += info[0]
            extra["match_labels"] += info[1]
        self_s[name] += self_time
        calls[name] += 1
        ious[name] += iou_calls

    unknown = sorted(set(self_s) - set(SELF_TIME_LAYERS))
    if unknown:
        raise RuntimeError(f"spans without a reported layer: {unknown}")
    n = max(ops, 1)
    out: dict[str, float] = {}
    for layer in SELF_TIME_LAYERS:
        out[layer + ".s"] = self_s[layer] / n
    out["weave.init_params.setup_s"] = setup_init_s
    for role in ("block", "precompute", "head"):
        key = "tensor_core.conv3x3." + role
        seconds = self_s[key]
        out[key + ".gflop"] = flops[key] / 1e9 / n
        out[key + ".gflop_per_s"] = flops[key] / 1e9 / seconds if seconds else 0.0
        out[key + ".mb_moved"] = moved[key] / MB / n
    out["tensor_core.concat_channels.calls"] = calls["tensor_core.concat_channels"] / n
    out["tensor_core.concat_channels.mb_copied"] = extra["concat_bytes"] / MB / n
    out["detect.nms_greedy.candidates"] = extra["nms_candidates"] / n
    out["detect.nms_greedy.kept"] = extra["nms_kept"] / n
    out["detect.nms_greedy.keep_ratio"] = (
        extra["nms_kept"] / extra["nms_candidates"] if extra["nms_candidates"] else 0.0
    )
    out["detect.nms_greedy.iou_calls"] = ious["detect.nms_greedy"] / n
    out["detect.refine_boxes.iou_calls"] = ious["detect.refine_boxes"] / n
    both = mode_flops["naive"] and mode_flops["simplified"]
    out["weave.executed_flop_ratio"] = mode_flops["naive"] / mode_flops["simplified"] if both else 0.0
    out["detect.decode_box.calls"] = calls["detect.decode_box"] / n
    out["evaluation.match_detections.calls"] = calls["evaluation.match_detections"] / n
    out["evaluation.match_detections.iou_calls"] = ious["evaluation.match_detections"] / n
    out["evaluation.tp_ratio"] = (
        extra["match_tp"] / extra["match_labels"] if extra["match_labels"] else 0.0
    )
    out["formats.write.records"] = extra["write_records"] / n
    out["formats.read.records"] = extra["read_records"] / n
    out["formats.read.mb"] = extra["read_bytes"] / MB / n
    stray = sum(v for k, v in ious.items() if k not in (
        "detect.nms_greedy", "detect.refine_boxes", "evaluation.match_detections"))
    if stray:
        raise RuntimeError(f"{stray} iou calls outside nms, refinement and matching")
    return out, attributed / n
