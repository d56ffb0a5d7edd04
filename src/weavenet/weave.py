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
columns that Kernels splits once, when params are built, into a raw and a
message group for the simplified path.
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
from . import tensor_core
from .tensor_core import (
    ConvKernel,
    Tensor,
    conv3x3_many,
    maxpool_2x2_s2,
    relu,
    upsample_bilinear_x2,
)

# Not called here: the blocks and the precompute run conv3x3_many. But
# benchmark/tracing.py wraps conv3x3 in every weavenet module that binds it,
# and benchmark/tests/test_benchmark.py checks that this module does.
conv3x3 = tensor_core.conv3x3

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
    """One scale's block kernels, entry t-1 the full kernel of iteration t,
    with their columns split once for the simplified pass.

    `raw` stacks every iteration's raw columns (config.state_layout's raw
    group) along the output axis with a zero bias, None when there are no
    iterations; `messages[t-1]` holds iteration t's other columns with its
    bias, None when the state it reads has no messages. `layouts[t-1]` is
    that state's layout. A tuple in every other respect; `kernels` is the
    tuple itself, the field through which benchmark/tests/test_benchmark.py
    reads a scale's params.
    """

    def __new__(cls, kernels, config: WeaveConfig, scale: int):
        self = super().__new__(cls, kernels)
        self.layouts = tuple(config.state_layout(scale, t) for t in range(len(self)))
        raw, messages = [], []
        for kernel, (up, width, down) in zip(self, self.layouts):
            raw_group = slice(up, up + width)
            raw.append(kernel.weights[:, raw_group])
            columns = np.delete(kernel.weights, raw_group, axis=1) if up + down else None
            messages.append(None if columns is None else ConvKernel(columns, kernel.bias))
        self.messages = tuple(messages)
        stacked = np.concatenate(raw, axis=0) if raw else None
        self.raw = None if stacked is None else ConvKernel(stacked, np.zeros(stacked.shape[0]))
        return self

    def __reduce__(self):  # copy and pickle keep the groups as split, without the config
        return tuple.__new__, (Kernels, tuple(self)), self.__dict__

    @property
    def kernels(self) -> tuple[ConvKernel, ...]:
        return self


# Block kernels by scale: params[i][t-1] is scale i's full kernel of iteration t.
Params = dict[int, Kernels]


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
        params[scale] = Kernels(kernels, config, scale)
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
        if not isinstance(params[i], Kernels):
            raise ValidationError(f"scale {i}: params hold a {type(params[i]).__name__}, not a weave.Kernels")
        if params[i].layouts != tuple(config.state_layout(i, t) for t in range(iterations)):
            raise ValidationError(f"scale {i}: params split their kernel columns for another state layout")


def block_naive(states: dict[int, ScaleState], kernels: dict[int, ConvKernel]) -> dict[int, Tensor]:
    """One iteration's block step (iteration t + 1 of states at t) for every
    scale in kernels, over its full state, both emitted directions in one
    grouped convolution: down-message rows, then up-message rows. The
    scales' convolutions run as one conv3x3_many batch."""
    convs = conv3x3_many([(states[i].full(), kernel) for i, kernel in kernels.items()])
    convs.reverse()
    return {i: relu(convs.pop()) for i in kernels}  # each convolution freed once rectified


def block_simplified(
    states: dict[int, ScaleState],
    sources: dict[int, np.ndarray],
    kernels: Params,
    config: WeaveConfig,
) -> dict[int, Tensor]:
    """One iteration's block step (iteration t + 1 of states at t) for every
    scale in kernels, from each state's message channels plus the
    precomputed raw source; rows as in block_naive.

    Computes relu(messages * kernels[i].messages[t] + bias + source), the
    messages being the state less the raw group of config.state_layout(i, t);
    at t=0 there are none: relu(kernels[i][0].bias + source). The scales
    that have messages convolve them as one conv3x3_many batch.
    """
    scales, pairs = [], []  # the scales that have messages, and their (messages, columns)
    for i, scale_kernels in kernels.items():
        t = states[i].t
        if scale_kernels.messages[t] is not None:
            up, raw, down = config.state_layout(i, t)
            if up and down:
                messages = np.delete(states[i].data, slice(up, up + raw), axis=0)
            else:  # the raw group is at one end, so the messages are one slice: a view
                messages = states[i].data[:up] if up else states[i].data[raw:]
            scales.append(i)
            pairs.append((Tensor._adopt(messages), scale_kernels.messages[t]))
    convolved = dict(zip(scales, conv3x3_many(pairs)))
    del pairs  # frees the gathered messages before the outputs are built
    outputs = {}
    for i, scale_kernels in kernels.items():
        pre = convolved.pop(i).data if i in convolved else scale_kernels[states[i].t].bias[:, None, None]
        outputs[i] = relu(Tensor._adopt(pre + sources[i]))
    return outputs


def precompute_sources(raw: dict[int, Tensor], params: Params) -> dict[int, np.ndarray]:
    """Grouped raw-feature products, one convolution per scale, all scales
    in one conv3x3_many batch.

    Each scale's Kernels.raw, the raw columns of all its iterations stacked
    along the output axis, runs as one convolution, whose read-only result
    is viewed, not copied, as a (T, out rows, h, w) array: entry t-1 is the
    raw features convolved with iteration t's raw columns, bias excluded.
    """
    scales = [scale for scale, kernels in params.items() if kernels.raw is not None]
    convolved = conv3x3_many([(raw[scale], params[scale].raw) for scale in scales])
    return {
        scale: out.data.reshape(len(params[scale]), -1, *out.shape[1:])
        for scale, out in zip(scales, convolved)
    }


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
        sources = precompute_sources({i: pyramid[i] for i in params}, params)

    history: list[dict[int, ScaleState]] = []
    for t in range(1, iterations + 1):
        # rows: down-messages, then up-messages
        if mode == "naive":
            outputs = block_naive(states, {i: kernels[t - 1] for i, kernels in params.items()})
        else:
            outputs = block_simplified(states, {i: sources[i][t - 1] for i in params}, params, config)

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
