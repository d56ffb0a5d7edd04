"""Dense CHW tensors and the five neural primitives the fusion network needs.

Everything here is pure and deterministic: float64 throughout, and conv3x3
accumulates its terms in a fixed (channel, then kernel row, then kernel
column) order so that downstream equivalence checks can use tight
tolerances. Tensors are immutable after construction.

conv3x3 lowers the convolution to one matrix product per chunk of output
rows, ``np.einsum("ok,kp->op", wm, cols, optimize=False)``, where ``wm`` is
the kernel as a (cout, 1 + 9*cin) matrix with the bias in column 0 and
``cols`` holds a row of ones over the 9*cin shifted input windows. The
unoptimised einsum keeps the documented summation order bit for bit:

- NumPy's iterator puts the spatial axis ``p`` innermost (only ``cols``
  and the output have a stride along it, and both are contiguous there),
  so every output element is built as 0.0 + bias*1.0, then one rounded
  product added per tap, in tap order. 0.0 + bias is the bias itself
  (ConvKernel stores no -0.0 bias), and bias*1.0 is exact.
- einsum's sum-of-products loops are compiled for NumPy's x86-64 baseline,
  which has no fused multiply-add, so each product is rounded before it
  is added, as in the elementwise reference.
- ``optimize=False`` must stay: ``optimize=True`` routes a two-operand
  contraction to tensordot, i.e. BLAS, whose blocked and fused sums change
  the bits (and break the stacked-kernel identity the weave relies on).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ValidationError


class Tensor:
    """A rank-3 feature map (channels x height x width) of finite float64."""

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray):
        arr = np.ascontiguousarray(data, dtype=np.float64)
        if arr.ndim != 3:
            raise ValidationError(f"tensor must be rank 3 (CHW), got shape {arr.shape}")
        if min(arr.shape) < 1:
            raise ValidationError(f"tensor dimensions must be positive, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValidationError("tensor contains non-finite values")
        if arr is data:
            arr = arr.copy()
        arr.flags.writeable = False
        self.data = arr

    @classmethod
    def from_flat(cls, channels: int, height: int, width: int, values: Sequence[float]) -> "Tensor":
        flat = np.asarray(values, dtype=np.float64)
        if flat.size != channels * height * width:
            raise ValidationError(
                f"expected {channels * height * width} values for shape "
                f"({channels},{height},{width}), got {flat.size}"
            )
        return cls(flat.reshape(channels, height, width))

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

    The input is zero-padded into flat per-channel planes of row stride
    wp = w + 2 with one extra zero row at the bottom, (h + 3)*wp values
    each. Output pixel (y, x) then reads the taps at flat offsets
    (y + dy)*wp + x + dx, so the windows of a chunk of n output rows
    starting at y0 are one as_strided view of shape (cin, 3, 3, n*wp) with
    strides (plane, wp, 1, 1). Its last read in a plane is at
    (y0 + n + 2)*wp + 1, and (y0 + n + 2)*wp + 2 <= (h + 3)*wp because
    y0 + n <= h and wp >= 2, so the view stays inside each plane. The 2
    wrap-around columns per output row are computed and dropped. A chunk
    holds as many rows as fit in CONV_CHUNK_BYTES of columns (at least
    one) and is one unoptimised einsum; the module docstring gives the
    argument that its sums follow the reference order.
    """
    if x.channels != kernel.in_channels:
        raise ValidationError(
            f"input has {x.channels} channels but kernel expects {kernel.in_channels}"
        )
    cin, h, w = x.shape
    cout = kernel.out_channels
    wp = w + 2
    taps = 1 + 9 * cin
    padded = np.zeros((cin, h + 3, wp), dtype=np.float64)
    padded[:, 1 : h + 1, 1 : w + 1] = x.data
    flat = padded.reshape(-1)
    step = flat.itemsize

    wm = np.empty((cout, taps), dtype=np.float64)
    wm[:, 0] = kernel.bias
    wm[:, 1:] = kernel.weights.reshape(cout, taps - 1)

    rows_per_chunk = max(1, CONV_CHUNK_BYTES // (taps * wp * step))
    out = np.empty((cout, h, wp), dtype=np.float64)
    for y0 in range(0, h, rows_per_chunk):
        n = min(rows_per_chunk, h - y0)
        span = n * wp
        windows = as_strided(
            flat[y0 * wp :],
            shape=(cin, 3, 3, span),
            strides=((h + 3) * wp * step, wp * step, step, step),
            writeable=False,
        )
        cols = np.empty((taps, span), dtype=np.float64)
        cols[0] = 1.0
        cols[1:].reshape(cin, 3, 3, span)[...] = windows
        product = np.einsum("ok,kp->op", wm, cols, optimize=False)
        out[:, y0 : y0 + n] = product.reshape(cout, n, wp)
    return Tensor(out[:, :, :w])


def relu(x: Tensor) -> Tensor:
    """Elementwise max(0, x)."""
    return Tensor(np.maximum(x.data, 0.0))


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
    return Tensor(out)


def maxpool_2x2_s2(x: Tensor) -> Tensor:
    """2x2 max pooling with stride 2; odd trailing row/column is dropped."""
    c, h, w = x.shape
    if h < 2 or w < 2:
        raise ValidationError(f"maxpool needs at least 2x2 input, got {h}x{w}")
    oh, ow = h // 2, w // 2
    cropped = x.data[:, : 2 * oh, : 2 * ow]
    blocks = cropped.reshape(c, oh, 2, ow, 2)
    return Tensor(blocks.max(axis=(2, 4)))


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
    return Tensor(np.concatenate([p.data for p in parts], axis=0))


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
        out.append(Tensor(x.data[start : start + s]))
        start += s
    return out
