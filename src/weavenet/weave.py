"""Iterative adjacent-scale feature weaving.

Per-scale states grow by concatenation as fixed-width messages are
exchanged between neighboring pyramid levels. Each block can run two ways
with matching results: the naive path convolves the full concatenated
state; the simplified path convolves only the accumulated message channels
and adds a precomputed contribution of the raw features, which is a single
grouped convolution shared across iterations.

State channel layout of scale i after t iterations (canonical order):

    [up-msg from i-1 at t, ..., up-msg at 1, raw features,
     down-msg from i+1 at 1, ..., down-msg at t]

Newest up-messages are prepended, newest down-messages appended, and
directions a scale never receives contribute nothing.
WeaveConfig.state_layout gives the three group widths; it alone decides
where the raw features sit, both in the state buffers and in the kernel
columns that the simplified path splits into a raw and a message group.
Each woven scale keeps one buffer at its final width in this order, and
the state after t iterations is a read-only view of the buffer's middle.
A block returns one tensor, its down-message rows first, then its
up-message rows (the order init_params draws the kernel rows in); each
receiving scale reads its k rows from that tensor.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

import numpy as np

from .errors import MismatchLocation, Record, ValidationError, shown
from .tensor_core import (
    ConvKernel,
    Tensor,
    conv3x3,
    maxpool_2x2_s2,
    relu,
    upsample_bilinear_x2,
)

MODES = ("naive", "simplified")

# Direction masks by label: (enable_top_down, enable_bottom_up).
DIRECTION_MASKS = {
    "both": (True, True),
    "top-down-only": (True, False),
    "bottom-up-only": (False, True),
}

DEFAULT_PYRAMID_SIZES = (40, 20, 10, 5, 3, 1)
DEFAULT_WOVEN_SCALES = (0, 1, 2, 3)

# Largest state width raw + k*d*T (d = directions a scale receives) a config
# may ask for. Every block and head convolves the full state, so the width
# sets the memory of a pass; the default config peaks at 192 channels.
MAX_STATE_CHANNELS = 4096
# Largest state tensor, width times size squared, over all scales: 2**24
# float64 elements are 128 MiB. The default config peaks at 76,800.
MAX_STATE_ELEMENTS = 2**24


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _show(value) -> str:
    try:
        return json.dumps(value)
    except (TypeError, ValueError):
        return shown(value)


def _check_type(key: str, kind: str, value) -> None:
    """Reject a field value whose type does not match; bools are not numbers."""
    if kind == "int":
        ok, want = _is_int(value), "an integer"
    elif kind == "float":
        ok, want = isinstance(value, (int, float)) and not isinstance(value, bool), "a number"
    elif kind == "bool":
        ok, want = isinstance(value, bool), "true or false"
    elif kind.startswith("tuple"):
        optional = value is None and kind.endswith("| None")
        ok = optional or (isinstance(value, tuple) and all(_is_int(v) for v in value))
        want = "a list of integers"
    else:
        return
    if not ok:
        raise ValidationError(f"config key {key} must be {want}, got {_show(value)}")


@dataclass(frozen=True)
class WeaveConfig:
    """Architecture hyperparameters. k is the per-direction message width."""

    k: int = 16
    iterations: int = 1
    woven_scales: tuple[int, ...] = DEFAULT_WOVEN_SCALES
    raw_channels: tuple[int, ...] = (32,) * 6
    pyramid_sizes: tuple[int, ...] = DEFAULT_PYRAMID_SIZES
    enable_top_down: bool = True
    enable_bottom_up: bool = True
    seed: int = 0

    def __post_init__(self):
        # type checks cover the fields of subclasses too; lists become tuples
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type.startswith("tuple") and isinstance(value, list):
                value = tuple(value)
                object.__setattr__(self, f.name, value)
            _check_type(f.name, f.type, value)
        if self.k < 1:
            raise ValidationError(f"k must be positive, got {shown(self.k)}")
        if self.iterations < 0:
            raise ValidationError(f"iterations must be >= 0, got {shown(self.iterations)}")
        if self.seed < 0:  # np.random.default_rng takes no negative seed
            raise ValidationError(f"seed must be >= 0, got {shown(self.seed)}")
        if len(self.raw_channels) != len(self.pyramid_sizes):
            raise ValidationError("raw_channels and pyramid_sizes lengths differ")
        if any(c < 1 for c in self.raw_channels):
            raise ValidationError("raw channel counts must be positive")
        if any(s < 1 for s in self.pyramid_sizes):
            raise ValidationError("pyramid sizes must be positive")
        if not self.woven_scales:
            raise ValidationError("woven_scales must be non-empty")
        ws = self.woven_scales
        if any(b != a + 1 for a, b in zip(ws, ws[1:])):
            raise ValidationError(f"woven_scales must be consecutive indices, got {shown(ws)}")
        if ws[0] < 0 or ws[-1] >= len(self.pyramid_sizes):
            raise ValidationError(f"woven_scales {shown(ws)} outside pyramid of {len(self.pyramid_sizes)} scales")
        for i in ws[:-1]:
            if self.pyramid_sizes[i] != 2 * self.pyramid_sizes[i + 1]:
                raise ValidationError(
                    f"woven scales {i} and {i + 1} must differ spatially by a factor of 2, "
                    f"got sizes {shown(self.pyramid_sizes[i])} and {shown(self.pyramid_sizes[i + 1])}"
                )
        widest = max(self.state_channels(i, self.iterations) for i in range(len(self.pyramid_sizes)))
        if widest > MAX_STATE_CHANNELS:
            raise ValidationError(
                f"largest state width raw + k*d*T is {shown(widest)} channels, above the cap of "
                f"{MAX_STATE_CHANNELS}; lower k, iterations or raw_channels"
            )
        largest = max(
            self.state_channels(i, self.iterations) * s * s for i, s in enumerate(self.pyramid_sizes)
        )
        if largest > MAX_STATE_ELEMENTS:
            raise ValidationError(
                f"largest state tensor (channels x size^2) has {shown(largest)} elements, above the cap "
                f"of {MAX_STATE_ELEMENTS}; lower pyramid_sizes, raw_channels, k or iterations"
            )

    def is_woven(self, scale: int) -> bool:
        return scale in self.woven_scales

    def receives_up(self, scale: int) -> bool:
        """Scale receives pooled messages from the finer scale below it."""
        return self.enable_bottom_up and self.is_woven(scale) and self.is_woven(scale - 1)

    def receives_down(self, scale: int) -> bool:
        """Scale receives upsampled messages from the coarser scale above it."""
        return self.enable_top_down and self.is_woven(scale) and self.is_woven(scale + 1)

    def emitted_directions(self, scale: int) -> int:
        """Message directions scale sends: up to the coarser neighbour, down to the finer one."""
        return int(self.receives_up(scale + 1)) + int(self.receives_down(scale - 1))

    def state_layout(self, scale: int, t: int) -> tuple[int, int, int]:
        """(up, raw, down) channel counts of scale's state after t iterations."""
        up = self.k * t if self.receives_up(scale) else 0
        down = self.k * t if self.receives_down(scale) else 0
        return up, self.raw_channels[scale], down

    def state_channels(self, scale: int, t: int) -> int:
        """Channel count of scale's state after t iterations."""
        return sum(self.state_layout(scale, t))


class Kernels(tuple):
    """One scale's block kernels: entry t-1 is the kernel of iteration t.

    A tuple in every other respect; `kernels` is the tuple itself, the
    field through which benchmark/tests/test_benchmark.py reads a scale's
    params.
    """

    __slots__ = ()

    @property
    def kernels(self) -> tuple[ConvKernel, ...]:
        return self


# Block kernels by scale: params[i][t-1] is scale i's kernel of iteration t.
Params = dict[int, tuple[ConvKernel, ...]]


class ScaleState(Record):
    """One scale's state after t iterations.

    data is a read-only view into the scale's state buffer, channels in the
    canonical order; the view never changes once made. States compare and
    hash by identity.
    """

    __slots__ = ("scale", "t", "data")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, scale: int, t: int, data: np.ndarray):
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "data", data)

    @property
    def channels(self) -> int:
        return len(self.data)

    def full(self) -> Tensor:
        return Tensor._adopt(self.data)


def init_params(config: WeaveConfig) -> Params:
    """Sample deterministic block kernels for every emitting woven scale.

    Kernel t of a scale stacks its down-message rows, then its up-message
    rows; its columns follow the canonical layout of the state after t-1
    iterations (config.state_layout). Weights and biases are uniform in
    [-s, s] with s = 1/sqrt(9 * in_channels), drawn in a fixed order
    (scales ascending, iterations ascending) from config.seed.
    """
    rng = np.random.default_rng([config.seed, 0])
    params: Params = {}
    for scale in config.woven_scales:
        emitted = config.emitted_directions(scale)
        if emitted == 0:
            continue
        out_channels = config.k * emitted
        kernels = []
        for t in range(1, config.iterations + 1):
            in_channels = config.state_channels(scale, t - 1)
            s = 1.0 / np.sqrt(in_channels * 9)
            weights = rng.uniform(-s, s, size=(out_channels, in_channels, 3, 3))
            bias = rng.uniform(-s, s, size=out_channels)
            kernels.append(ConvKernel(weights, bias))
        params[scale] = Kernels(kernels)
    return params


def _check_params(params: Params, config: WeaveConfig) -> None:
    """Reject params that init_params(config) would not have shaped alike."""
    emitting = [i for i in config.woven_scales if config.emitted_directions(i)]
    stray = set(emitting) ^ set(params)
    if stray:
        i = min(stray)
        if i in emitting:
            raise ValidationError(f"scale {i}: config runs a block there, params hold no kernels")
        raise ValidationError(f"scale {i}: params hold kernels, config runs no block there")
    for i in emitting:
        n, iterations = len(params[i]), config.iterations
        if n != iterations:
            held = "no kernel" if n < iterations else "a kernel"
            raise ValidationError(
                f"scale {i} iteration {min(n, iterations) + 1}: params hold {held}, "
                f"config runs {iterations} iterations"
            )
        for t, kernel in enumerate(params[i], start=1):
            want = (config.k * config.emitted_directions(i), config.state_channels(i, t - 1), 3, 3)
            if kernel.weights.shape != want:
                raise ValidationError(
                    f"scale {i} iteration {t}: kernel has shape {kernel.weights.shape}, "
                    f"config expects {want}"
                )


def block_naive(state: ScaleState, kernel: ConvKernel) -> Tensor:
    """One block step (iteration state.t + 1) over the full state, both
    emitted directions in one grouped convolution: down-message rows, then
    up-message rows."""
    return relu(conv3x3(state.full(), kernel))


def block_simplified(state: ScaleState, source: np.ndarray, kernel: ConvKernel, config: WeaveConfig) -> Tensor:
    """One block step (iteration state.t + 1) from the state's message
    channels plus the precomputed raw source; rows as in block_naive.

    Computes relu(messages * message_columns + bias + source). Removing the
    raw group of config.state_layout(state.scale, state.t) from the state
    leaves the messages, and from the kernel's columns the message columns;
    at t=1 there are none and the result is relu(bias + source).
    """
    up, raw, down = config.state_layout(state.scale, state.t)
    if up + down == 0:
        pre = kernel.bias[:, None, None] + source
    else:
        raw_group = slice(up, up + raw)
        messages = Tensor._adopt(np.delete(state.data, raw_group, axis=0))
        columns = np.delete(kernel.weights, raw_group, axis=1)
        pre = conv3x3(messages, ConvKernel(columns, kernel.bias)).data + source
    return relu(Tensor._adopt(pre))


def precompute_sources(
    raw: dict[int, Tensor],
    params: Params,
    config: WeaveConfig,
) -> dict[int, np.ndarray]:
    """Grouped raw-feature products, one convolution per scale.

    Each scale's raw-column kernels of all its iterations run stacked along
    the output axis as one convolution, whose read-only result is viewed,
    not copied, as a (T, out rows, h, w) array: entry t-1 is the raw
    features convolved with iteration t's raw-column kernel, bias excluded.
    """
    sources: dict[int, np.ndarray] = {}
    for scale, kernels in params.items():
        if not kernels:
            continue
        raw_columns = []
        for t, kernel in enumerate(kernels):
            up, width, _ = config.state_layout(scale, t)
            raw_columns.append(kernel.weights[:, up : up + width])
        stacked = np.concatenate(raw_columns, axis=0)
        grouped = ConvKernel(stacked, np.zeros(stacked.shape[0]))
        out = conv3x3(raw[scale], grouped)
        sources[scale] = out.data.reshape(len(kernels), -1, *out.shape[1:])
    return sources


def _validate_pyramid(pyramid: list[Tensor], config: WeaveConfig) -> None:
    if len(pyramid) != len(config.pyramid_sizes):
        raise ValidationError(
            f"pyramid has {len(pyramid)} scales, config expects {len(config.pyramid_sizes)}"
        )
    for i, tensor in enumerate(pyramid):
        size = config.pyramid_sizes[i]
        if (tensor.height, tensor.width) != (size, size):
            raise ValidationError(
                f"scale {i}: expected {size}x{size} features, got {tensor.height}x{tensor.width}"
            )
        if tensor.channels != config.raw_channels[i]:
            raise ValidationError(
                f"scale {i}: expected {config.raw_channels[i]} channels, got {tensor.channels}"
            )


def weave_states(
    pyramid: list[Tensor],
    config: WeaveConfig,
    params: Params,
    mode: str = "simplified",
) -> list[dict[int, ScaleState]]:
    """Run the forward pass, returning woven-scale states after each iteration.

    Within an iteration every block reads states of the previous iteration
    (synchronous schedule); messages are resampled once, at receipt. The
    returned list has one entry per iteration 1..T.
    """
    if mode not in MODES:
        raise ValidationError(f"mode must be one of {MODES}, got {shown(mode)}")
    _validate_pyramid(pyramid, config)
    _check_params(params, config)

    k, iterations = config.k, config.iterations

    def channels(i: int, t: int) -> slice:
        """Channels of scale i's state after t iterations within its buffer."""
        up, raw, down = config.state_layout(i, iterations)
        t_up, _, t_down = config.state_layout(i, t)
        return slice(up - t_up, up + raw + t_down)

    buffers: dict[int, np.ndarray] = {}
    for i in config.woven_scales:
        buffers[i] = np.empty((config.state_channels(i, iterations),) + pyramid[i].shape[1:])
        buffers[i][channels(i, 0)] = pyramid[i].data

    def snapshot(t: int) -> dict[int, ScaleState]:
        states = {}
        for i, buffer in buffers.items():
            view = buffer[channels(i, t)]
            view.flags.writeable = False
            states[i] = ScaleState(scale=i, t=t, data=view)
        return states

    states = snapshot(0)
    sources = None
    if mode == "simplified":
        sources = precompute_sources({i: pyramid[i] for i in params}, params, config)

    history: list[dict[int, ScaleState]] = []
    for t in range(1, iterations + 1):
        outputs: dict[int, Tensor] = {}  # rows: down-messages, then up-messages
        for i, kernels in params.items():
            if mode == "naive":
                outputs[i] = block_naive(states[i], kernels[t - 1])
            else:
                outputs[i] = block_simplified(states[i], sources[i][t - 1], kernels[t - 1], config)

        # every block has read the t-1 views; the writes land outside them
        for i in config.woven_scales:
            new = channels(i, t)
            if config.receives_up(i):
                up = Tensor._adopt(outputs[i - 1].data[-k:])
                buffers[i][new.start : new.start + k] = maxpool_2x2_s2(up).data
            if config.receives_down(i):
                down = Tensor._adopt(outputs[i + 1].data[:k])
                buffers[i][new.stop - k : new.stop] = upsample_bilinear_x2(down).data
        states = snapshot(t)
        history.append(states)
    return history


def weave_forward(
    pyramid: list[Tensor],
    config: WeaveConfig,
    params: Params,
    mode: str = "simplified",
) -> list[Tensor]:
    """Final per-scale feature maps; unwoven scales pass through unchanged."""
    history = weave_states(pyramid, config, params, mode)
    final = history[-1] if history else {}
    return [final[i].full() if i in final else pyramid[i] for i in range(len(pyramid))]


def compare_outputs(a: list[Tensor], b: list[Tensor]) -> MismatchLocation:
    """Worst absolute per-element deviation between two per-scale output lists."""
    if len(a) != len(b):
        raise ValidationError("output lists have different scale counts")
    worst = MismatchLocation(scale=-1, channel=0, y=0, x=0, deviation=0.0)
    for scale, (ta, tb) in enumerate(zip(a, b)):
        if ta.shape != tb.shape:
            raise ValidationError(f"scale {scale}: shape mismatch {ta.shape} vs {tb.shape}")
        diff = ta.data - tb.data
        np.abs(diff, out=diff)
        dev = float(diff.max())
        if dev > worst.deviation or worst.scale < 0:
            c, y, x = np.unravel_index(int(diff.argmax()), diff.shape)
            worst = MismatchLocation(scale=scale, channel=int(c), y=int(y), x=int(x), deviation=dev)
    return worst


# --- analytic FLOP accounting -------------------------------------------------

def conv_flops(cin: int, cout: int, height: int, width: int) -> int:
    """Multiply-add count of a 3x3 same-size convolution: 2*Cin*Cout*9*H*W."""
    return 2 * cin * cout * 9 * height * width


class WeaveFlops(Record):
    """Exact analytic FLOP figures of one forward pass."""

    __slots__ = ("per_iteration", "precompute")

    def __init__(self, per_iteration: tuple[int, ...], precompute: int):
        object.__setattr__(self, "per_iteration", per_iteration)
        object.__setattr__(self, "precompute", precompute)

    @property
    def total(self) -> int:
        return self.precompute + sum(self.per_iteration)


def flops_weave(config: WeaveConfig, mode: str) -> WeaveFlops:
    """Analytic cost of one forward pass in the given mode.

    Naive mode charges the full-state convolution at every iteration. The
    simplified mode charges only the message-column convolutions per
    iteration, plus the raw-column work once per scale: the precomputed
    source hoists the raw contribution out of the iteration loop, so its
    columns are not re-charged for every t.
    """
    if mode not in MODES:
        raise ValidationError(f"mode must be one of {MODES}, got {shown(mode)}")
    per_iteration = []
    precompute = 0
    for t in range(1, config.iterations + 1):
        flops = 0
        for i in config.woven_scales:
            cout, size = config.k * config.emitted_directions(i), config.pyramid_sizes[i]
            up, raw, down = config.state_layout(i, t - 1)
            if mode == "simplified":  # raw columns run once, before the loop
                if t == 1:
                    precompute += conv_flops(raw, cout, size, size)
                raw = 0
            flops += conv_flops(up + raw + down, cout, size, size)
        per_iteration.append(flops)
    return WeaveFlops(per_iteration=tuple(per_iteration), precompute=precompute)
