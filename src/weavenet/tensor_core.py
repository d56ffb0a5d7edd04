"""Dense CHW tensors and the five neural primitives the fusion network needs.

Everything here is pure and deterministic: float64 throughout, and conv3x3
accumulates its terms in a fixed (channel, then kernel row, then kernel
column) order so that downstream equivalence checks can use tight
tolerances. Tensors are immutable after construction.

conv3x3 lowers the convolution to one matrix product per chunk of output
rows, ``np.einsum("ko,kp->op", wt, cols, optimize=False)``, where ``wt`` is
the kernel as a (1 + 9*cin, cout) matrix with the bias in row 0 and
``cols`` holds a row of ones over the 9*cin shifted input windows, one
column per output pixel. The unoptimised einsum keeps the documented
summation order bit for bit:

- NumPy's iterator puts the spatial axis ``p`` innermost (only ``cols``
  and the output have a stride along it, and both are contiguous there)
  and, since ``wt`` is contiguous along ``o``, loops the tap axis ``k``
  outermost: each row of ``cols`` is added into every output channel
  while it is still in cache. The order of the loops around ``p`` does
  not change any sum: every output element is still built as 0.0 +
  bias*1.0, then one rounded product added per tap, in tap order. 0.0 +
  bias is the bias itself (ConvKernel stores no -0.0 bias), and bias*1.0
  is exact.
- einsum's sum-of-products loops are compiled for NumPy's x86-64 baseline,
  which has no fused multiply-add, so each product is rounded before it
  is added, as in the elementwise reference. ``exactness_probe`` checks
  this at run time against ``conv3x3_taps``.
- A contraction over a single column is never run. NumPy drops length-1
  axes, so with one column and one output channel only ``k`` is left, and
  its reduction loop sums in another order: without the guard, 16 of 20
  random (160, 1, 1) inputs with one output channel changed bits (NumPy
  2.4, x86-64).
- ``optimize=False`` must stay: ``optimize=True`` routes a two-operand
  contraction to tensordot, i.e. BLAS, whose blocked and fused sums change
  the bits (and break the stacked-kernel identity the weave relies on).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ValidationError


def _check_tensor_data(arr: np.ndarray) -> None:
    if arr.ndim != 3:
        raise ValidationError(f"tensor must be rank 3 (CHW), got shape {arr.shape}")
    if min(arr.shape) < 1:
        raise ValidationError(f"tensor dimensions must be positive, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidationError("tensor contains non-finite values")


class Tensor:
    """A rank-3 feature map (channels x height x width) of finite float64."""

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray):
        arr = np.ascontiguousarray(data, dtype=np.float64)
        _check_tensor_data(arr)
        if arr is data:
            arr = arr.copy()
        arr.flags.writeable = False
        self.data = arr

    @classmethod
    def _adopt(cls, data: np.ndarray) -> "Tensor":
        """A tensor over `data` itself, checked like Tensor(data) but not copied.

        For package code only, and only for an array no one else can write:
        one it has just allocated, or a view of an existing tensor's data.
        """
        arr = np.ascontiguousarray(data, dtype=np.float64)
        _check_tensor_data(arr)
        arr.flags.writeable = False
        tensor = cls.__new__(cls)
        tensor.data = arr
        return tensor

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(channels={self.channels}, height={self.height}, width={self.width})"


class ConvKernel:
    """3x3 convolution weights (out x in x 3 x 3) with a per-output bias.

    A -0.0 bias is stored as +0.0: conv3x3 starts every sum at +0.0, so the
    two would otherwise give differently signed zeros.
    """

    __slots__ = ("weights", "bias")

    def __init__(self, weights: np.ndarray, bias: np.ndarray):
        w = np.ascontiguousarray(weights, dtype=np.float64)
        b = np.ascontiguousarray(bias, dtype=np.float64) + 0.0  # a new array, -0.0 -> +0.0
        if w.ndim != 4 or w.shape[2:] != (3, 3):
            raise ValidationError(f"kernel weights must be (out, in, 3, 3), got {w.shape}")
        if w.shape[0] < 1 or w.shape[1] < 1:
            raise ValidationError(f"kernel channel counts must be positive, got {w.shape}")
        if b.shape != (w.shape[0],):
            raise ValidationError(f"bias shape {b.shape} does not match {w.shape[0]} output channels")
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise ValidationError("kernel contains non-finite values")
        if w is weights:
            w = w.copy()
        w.flags.writeable = False
        b.flags.writeable = False
        self.weights = w
        self.bias = b

    @property
    def out_channels(self) -> int:
        return self.weights.shape[0]

    @property
    def in_channels(self) -> int:
        return self.weights.shape[1]

    def __repr__(self) -> str:
        return f"ConvKernel(out={self.out_channels}, in={self.in_channels})"


# Upper bound on the bytes of conv3x3's column buffer, so memory stays flat
# however wide the input; a single output row may exceed it.
CONV_CHUNK_BYTES = 1 << 20


def conv3x3(x: Tensor, kernel: ConvKernel) -> Tensor:
    """3x3 convolution, stride 1, zero padding 1 (spatial size preserved).

    Each output channel accumulates bias first, then the weighted input
    windows in (channel, kernel row, kernel column) order. Output channels
    are computed independently of one another, so stacking kernels along
    the output axis is bit-exact with concatenating separate results.

    The input is zero-padded into flat per-channel planes of hp = h + 2
    rows of wp = w + 2 values. Output pixel (y, x) reads the taps at flat
    offsets (y + dy)*wp + x + dx, so the windows of a chunk of n output
    rows starting at y0 are one as_strided view of shape (cin, 3, 3, n, w)
    with strides (plane, wp, 1, wp, 1), and a chunk's columns are exactly
    its n*w output pixels. The last read in a plane is at
    (y0 + n + 1)*wp + w + 1 <= (h + 1)*wp + wp - 1 = hp*wp - 1, because
    y0 + n <= h, so the view stays inside each plane. A chunk holds as
    many rows as fit in CONV_CHUNK_BYTES of columns (at least one) and is
    one unoptimised einsum written straight into its slice of the
    (cout, h*w) output. A chunk of one pixel gets a zero pad column,
    dropped afterwards, so that NumPy keeps the pixel axis innermost; the
    module docstring gives the argument that the sums follow the reference
    order.
    """
    if x.channels != kernel.in_channels:
        raise ValidationError(
            f"input has {x.channels} channels but kernel expects {kernel.in_channels}"
        )
    cin, h, w = x.shape
    cout = kernel.out_channels
    hp, wp = h + 2, w + 2
    taps = 1 + 9 * cin
    padded = np.zeros((cin, hp, wp), dtype=np.float64)
    padded[:, 1 : h + 1, 1 : w + 1] = x.data
    flat = padded.reshape(-1)
    step = flat.itemsize

    wt = np.empty((taps, cout), dtype=np.float64)
    wt[0] = kernel.bias
    wt[1:] = kernel.weights.reshape(cout, taps - 1).T

    rows_per_chunk = max(1, CONV_CHUNK_BYTES // (taps * w * step))
    out = np.empty((cout, h * w), dtype=np.float64)
    for y0 in range(0, h, rows_per_chunk):
        n = min(rows_per_chunk, h - y0)
        span = n * w
        windows = as_strided(
            flat[y0 * wp :],
            shape=(cin, 3, 3, n, w),
            strides=(hp * wp * step, wp * step, step, wp * step, step),
            writeable=False,
        )
        cols = np.empty((taps, span), dtype=np.float64)
        cols[0] = 1.0
        cols[1:].reshape(cin, 3, 3, n, w)[...] = windows
        target = out[:, y0 * w : y0 * w + span]
        if span > 1:
            np.einsum("ko,kp->op", wt, cols, out=target, optimize=False)
        else:
            two = np.pad(cols, ((0, 0), (0, 1)))
            target[...] = np.einsum("ko,kp->op", wt, two, optimize=False)[:, :1]
    return Tensor._adopt(out.reshape(cout, h, w))


def conv3x3_taps(x: Tensor, kernel: ConvKernel) -> np.ndarray:
    """conv3x3 written as one elementwise multiply and add per tap.

    The bias, then each rounded product added over whole planes in
    (channel, kernel row, kernel column) order: the sums conv3x3 must
    reproduce bit for bit. Slow; exactness_probe runs it on small inputs.
    """
    cin, h, w = x.shape
    padded = np.zeros((cin, h + 2, w + 2), dtype=np.float64)
    padded[:, 1 : h + 1, 1 : w + 1] = x.data
    acc = np.empty((kernel.out_channels, h, w), dtype=np.float64)
    acc[...] = kernel.bias[:, None, None]
    for c in range(cin):
        for dy in range(3):
            for dx in range(3):
                acc += kernel.weights[:, c, dy, dx, None, None] * padded[c, dy : dy + h, dx : dx + w]
    return acc


# (cin, cout, h, w) of the probe's inputs: odd sizes, a one-pixel-wide map,
# and two 1x1 inputs, one with a single output channel (the one-column case
# conv3x3 pads).
PROBE_SHAPES = ((3, 5, 7, 5), (5, 4, 1, 1), (63, 1, 1, 1), (2, 3, 9, 1))


def exactness_probe() -> str | None:
    """Whether conv3x3 equals conv3x3_taps bit for bit on this NumPy build.

    Runs PROBE_SHAPES on fixed random inputs; returns None when every
    output matches, otherwise a one-line description of the first input
    that does not. It fails on a build whose einsum loops fuse or reorder
    the multiply-adds.
    """
    rng = np.random.default_rng(0)
    for cin, cout, h, w in PROBE_SHAPES:
        x = Tensor._adopt(rng.normal(size=(cin, h, w)))
        kernel = ConvKernel(rng.normal(size=(cout, cin, 3, 3)), rng.normal(size=cout))
        got = conv3x3(x, kernel).data
        want = conv3x3_taps(x, kernel)
        differ = got.view(np.uint64) != want.view(np.uint64)
        if differ.any():
            c, y, xx = (int(i) for i in np.argwhere(differ)[0])
            return (
                f"{int(differ.sum())} of {differ.size} outputs of a ({cin}, {h}, {w}) input"
                f" and {cout} output channel(s) differ from the tap loop,"
                f" first at channel {c}, y {y}, x {xx}"
            )
    return None


def relu(x: Tensor) -> Tensor:
    """Elementwise max(0, x)."""
    return Tensor._adopt(np.maximum(x.data, 0.0))


def upsample_bilinear_x2(x: Tensor) -> Tensor:
    """Factor-2 bilinear upsampling as a fixed transposed convolution.

    Per channel: stride-2, padding-1 transposed convolution with the
    separable kernel outer([0.25, 0.75, 0.75, 0.25]). Output is (C, 2H, 2W);
    interior outputs of a constant map stay exactly constant.
    """
    c, h, w = x.shape
    data = x.data

    rows = np.zeros((c, 2 * h, w), dtype=np.float64)
    rows[:, 0::2, :] = 0.75 * data
    rows[:, 0::2, :][:, 1:, :] += 0.25 * data[:, :-1, :]
    rows[:, 1::2, :] = 0.75 * data
    rows[:, 1::2, :][:, :-1, :] += 0.25 * data[:, 1:, :]

    out = np.zeros((c, 2 * h, 2 * w), dtype=np.float64)
    out[:, :, 0::2] = 0.75 * rows
    out[:, :, 0::2][:, :, 1:] += 0.25 * rows[:, :, :-1]
    out[:, :, 1::2] = 0.75 * rows
    out[:, :, 1::2][:, :, :-1] += 0.25 * rows[:, :, 1:]
    return Tensor._adopt(out)


def maxpool_2x2_s2(x: Tensor) -> Tensor:
    """2x2 max pooling with stride 2; odd trailing row/column is dropped.

    The maximum of the four strided views of the even-sized crop, one per
    position in the 2x2 window: no copy of the input, whatever its size.
    """
    _, h, w = x.shape
    if h < 2 or w < 2:
        raise ValidationError(f"maxpool needs at least 2x2 input, got {h}x{w}")
    d = x.data[:, : h - h % 2, : w - w % 2]
    top = np.maximum(d[:, 0::2, 0::2], d[:, 0::2, 1::2])
    bottom = np.maximum(d[:, 1::2, 0::2], d[:, 1::2, 1::2])
    return Tensor._adopt(np.maximum(top, bottom, out=top))


def concat_channels(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate tensors along the channel axis, preserving list order."""
    if not parts:
        raise ValidationError("concat_channels needs a non-empty list")
    h, w = parts[0].height, parts[0].width
    for p in parts[1:]:
        if (p.height, p.width) != (h, w):
            raise ValidationError(
                f"spatial mismatch in concat: {p.height}x{p.width} vs {h}x{w}"
            )
    if len(parts) == 1:
        return parts[0]
    return Tensor._adopt(np.concatenate([p.data for p in parts], axis=0))


def split_channels(x: Tensor, sizes: Sequence[int]) -> list[Tensor]:
    """Split along the channel axis into chunks of the given sizes."""
    if any(s < 1 for s in sizes):
        raise ValidationError(f"split sizes must be positive, got {list(sizes)}")
    if sum(sizes) != x.channels:
        raise ValidationError(
            f"split sizes sum to {sum(sizes)} but tensor has {x.channels} channels"
        )
    out = []
    start = 0
    for s in sizes:
        out.append(Tensor._adopt(x.data[start : start + s]))
        start += s
    return out
