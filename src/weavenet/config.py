"""Run configuration: defaults, strict JSON loading, and validation."""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace

from .detect import ANCHOR_MODES
from .errors import ValidationError
from .weave import DEFAULT_PYRAMID_SIZES, DEFAULT_WOVEN_SCALES, WeaveConfig


@dataclass(frozen=True)
class RunConfig:
    """Everything a command needs to reproduce a run.

    corrupt_block is a debug knob: [scale, iteration] shifts that block's
    kernel partition by one channel in the simplified path only, to give
    the equivalence gate something real to catch.
    """

    input_size: int = 320
    pyramid_sizes: tuple[int, ...] = DEFAULT_PYRAMID_SIZES
    raw_channels: tuple[int, ...] = (32,) * 6
    k: int = 16
    iterations: int = 1
    woven_scales: tuple[int, ...] = DEFAULT_WOVEN_SCALES
    enable_top_down: bool = True
    enable_bottom_up: bool = True
    anchor_mode: str = "A"
    nms_iou_threshold: float = 0.45
    refine_iou_threshold: float = 0.6
    score_floor: float = 0.01
    pre_nms_top_k: int = 400
    keep_top_k: int = 200
    num_classes: int = 3
    seed: int = 0
    corrupt_block: tuple[int, int] | None = None

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in _TUPLE_KEYS and isinstance(value, list):
                value = tuple(value)
                object.__setattr__(self, f.name, value)
            _check_type(f.name, f.type, value)
        if self.input_size < 1:
            raise ValidationError(f"input_size must be positive, got {self.input_size}")
        for name in ("nms_iou_threshold", "refine_iou_threshold", "score_floor"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValidationError(f"{name} must be in [0, 1], got {v}")
        if self.anchor_mode not in ANCHOR_MODES:
            raise ValidationError(
                f"anchor_mode must be one of {ANCHOR_MODES}, got {self.anchor_mode!r}"
            )
        if self.num_classes < 1:
            raise ValidationError(f"num_classes must be positive, got {self.num_classes}")
        if self.pre_nms_top_k < 1 or self.keep_top_k < 1:
            raise ValidationError("pre_nms_top_k and keep_top_k must be positive")
        if self.corrupt_block is not None:
            if len(self.corrupt_block) != 2:
                raise ValidationError(f"corrupt_block must be [scale, iteration], got {self.corrupt_block}")
            scale, t = self.corrupt_block
            if scale not in self.woven_scales:
                raise ValidationError(f"corrupt_block scale {scale} is not a woven scale")
            if t < 2:
                raise ValidationError(
                    f"corrupt_block iteration must be >= 2 (iteration {t} has no message columns)"
                )
        self.weave_config()  # surfaces pyramid/woven geometry violations

    def weave_config(self) -> WeaveConfig:
        return WeaveConfig(
            k=self.k,
            iterations=self.iterations,
            woven_scales=self.woven_scales,
            raw_channels=self.raw_channels,
            pyramid_sizes=self.pyramid_sizes,
            enable_top_down=self.enable_top_down,
            enable_bottom_up=self.enable_bottom_up,
            seed=self.seed,
        )


_TUPLE_KEYS = {"pyramid_sizes", "raw_channels", "woven_scales", "corrupt_block"}
_FIELD_NAMES = {f.name for f in fields(RunConfig)}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _show(value) -> str:
    try:
        return json.dumps(value)
    except (TypeError, ValueError):
        return repr(value)


def _check_type(key: str, kind: str, value) -> None:
    """Reject a field value whose type does not match; bools are not numbers."""
    if kind == "int":
        ok, want = _is_int(value), "an integer"
    elif kind == "float":
        ok, want = isinstance(value, (int, float)) and not isinstance(value, bool), "a number"
    elif kind == "bool":
        ok, want = isinstance(value, bool), "true or false"
    elif key in _TUPLE_KEYS:
        optional = value is None and kind.endswith("| None")
        ok = optional or (isinstance(value, tuple) and all(_is_int(v) for v in value))
        want = "a list of integers"
    else:
        return
    if not ok:
        raise ValidationError(f"config key {key} must be {want}, got {_show(value)}")


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
    if top_down_only:
        updates["enable_top_down"] = True
        updates["enable_bottom_up"] = False
    if bottom_up_only:
        updates["enable_bottom_up"] = True
        updates["enable_top_down"] = False
    return replace(config, **updates) if updates else config
