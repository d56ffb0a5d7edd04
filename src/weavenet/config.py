"""Run configuration: defaults, strict JSON loading, and validation."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace

from .detect import ANCHOR_MODES, AnchorSpec, finite_float, shown
from .errors import ValidationError
from .weave import DIRECTION_MASKS, WeaveConfig


# Widest confidence head a config may ask for: (num_classes + 1) scores for
# each anchor of a cell. The defaults need 4 * 6 = 24 output channels.
MAX_HEAD_CHANNELS = 4096


@dataclass(frozen=True)
class RunConfig(WeaveConfig):
    """Everything a command needs to reproduce a run: the weave geometry it
    inherits plus the detection and evaluation settings.

    corrupt_block is a debug knob for `verify` and `bench`: [scale,
    iteration] shifts that block's kernel partition by one channel in the
    simplified path only (see bench.corrupt_partition), to give the
    equivalence gate something real to catch.
    """

    input_size: int = 320
    anchor_mode: str = "A"
    nms_iou_threshold: float = 0.45
    refine_iou_threshold: float = 0.6
    score_floor: float = 0.01
    pre_nms_top_k: int = 400
    keep_top_k: int = 200
    num_classes: int = 3
    corrupt_block: tuple[int, int] | None = None

    def __post_init__(self):
        super().__post_init__()
        if self.input_size < 1:
            raise ValidationError(f"input_size must be positive, got {shown(self.input_size)}")
        size = finite_float("input_size", self.input_size)  # anchors are floats in input-image coordinates
        if not math.isfinite(2.0 * (size * size)):  # BBox's rule for the full image, the largest clipped box
            raise ValidationError(
                f"input_size too large: twice the area of the image square overflows, got {shown(self.input_size)}"
            )
        for name in ("nms_iou_threshold", "refine_iou_threshold", "score_floor"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValidationError(f"{name} must be in [0, 1], got {shown(v)}")
        if self.anchor_mode not in ANCHOR_MODES:
            raise ValidationError(
                f"anchor_mode must be one of {ANCHOR_MODES}, got {self.anchor_mode!r}"
            )
        if self.num_classes < 1:
            raise ValidationError(f"num_classes must be positive, got {shown(self.num_classes)}")
        spec = AnchorSpec.for_mode(self.anchor_mode)  # the default scales hold the widest cell
        head = (self.num_classes + 1) * max(map(spec.anchors_per_cell, range(len(spec.ratios))))
        if head > MAX_HEAD_CHANNELS:
            raise ValidationError(
                f"head width (num_classes + 1) x anchors per cell is {shown(head)}, above the cap of "
                f"{MAX_HEAD_CHANNELS}; lower num_classes"
            )
        if self.pre_nms_top_k < 1 or self.keep_top_k < 1:
            raise ValidationError("pre_nms_top_k and keep_top_k must be positive")
        if self.corrupt_block is not None:
            if len(self.corrupt_block) != 2:
                raise ValidationError(f"corrupt_block must be [scale, iteration], got {shown(self.corrupt_block)}")
            scale, t = self.corrupt_block
            if scale not in self.woven_scales:
                raise ValidationError(f"corrupt_block scale {shown(scale)} is not a woven scale")
            if t < 2:
                raise ValidationError(
                    f"corrupt_block iteration must be >= 2 (iteration {shown(t)} has no message columns)"
                )

    def weave_config(self) -> WeaveConfig:
        return WeaveConfig(**{f.name: getattr(self, f.name) for f in fields(WeaveConfig)})


_FIELD_NAMES = {f.name for f in fields(RunConfig)}


def config_from_dict(raw: dict) -> RunConfig:
    """Build a RunConfig from parsed JSON, rejecting unknown keys and mistyped values."""
    if not isinstance(raw, dict):
        raise ValidationError(f"config root must be a JSON object, got {type(raw).__name__}")
    unknown = sorted(set(raw) - _FIELD_NAMES)
    if unknown:
        raise ValidationError(f"unknown config keys: {', '.join(unknown)}")
    return RunConfig(**raw)


def load_config(path: str) -> RunConfig:
    """Read and validate a JSON config file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as err:
            raise ValidationError(f"{path}: invalid JSON at line {err.lineno}: {err.msg}") from err
        except UnicodeDecodeError as err:
            raise ValidationError(f"{path}: not valid UTF-8: {err.reason}") from err
        # an integer literal too long to convert, or nesting too deep
        except (ValueError, RecursionError) as err:
            raise ValidationError(f"{path}: invalid JSON: {err}") from err
    return config_from_dict(raw)


def apply_overrides(
    config: RunConfig,
    seed: int | None = None,
    anchors: str | None = None,
    top_down_only: bool = False,
    bottom_up_only: bool = False,
) -> RunConfig:
    """Apply command-line overrides on top of a loaded config."""
    if top_down_only and bottom_up_only:
        raise ValidationError("--top-down-only and --bottom-up-only are mutually exclusive")
    updates: dict = {}
    if seed is not None:
        updates["seed"] = seed
    if anchors is not None:
        updates["anchor_mode"] = anchors
    if top_down_only or bottom_up_only:
        masks = "top-down-only" if top_down_only else "bottom-up-only"
        updates["enable_top_down"], updates["enable_bottom_up"] = DIRECTION_MASKS[masks]
    return replace(config, **updates) if updates else config
