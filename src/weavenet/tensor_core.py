"""Dense CHW tensors and the five neural primitives the fusion network needs.

Everything here is pure and deterministic: float64 throughout, and conv3x3
accumulates its terms in a fixed (channel, then kernel row, then kernel
column) order so that downstream equivalence checks can use tight
tolerances. Tensors are immutable after construction.

conv3x3 lowers the convolution to one matrix product per chunk of output
rows, ``np.einsum("ko,kp->op", wt, cols, optimize=False)``, where ``wt`` is
the (1 + 9*cin, cout) ``matrix`` a ConvKernel stores, bias in row 0, and
``cols`` holds a row of ones over the 9*cin shifted input windows, one
column per output pixel. ``cols`` is a view of one float64 workspace per
thread, CONV_CHUNK_BYTES long, that every chunk and call reuses: a fresh
buffer per chunk cost page faults, not arithmetic. The unoptimised
einsum keeps the documented summation order bit for bit:

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

conv3x3_many runs a batch of independent convolutions as one queue of row
chunks, and conv3x3 is the batch of one pair. The fusion core and the
heads make one batch per stage: weave.block_naive and
weave.block_simplified convolve one iteration's emitting scales together,
weave.precompute_sources all scales, and detect.head_forward every scale's
head. Every call of two or more rows is cut into at least two chunks, and
a batch of more than one chunk runs on two threads when the process may
use two or more CPUs (``os.sched_getaffinity``): the caller and one
long-lived daemon helper thread take its chunks one at a time from a
shared counter, larger calls first (both the column copy and the einsum
release the GIL), so the small calls of a batch fill in beside the large
ones and one hand-off serves the whole stage. Whoever takes a chunk, on
one CPU or two, copies the chunk's input rows into a zero-bordered slab
and builds its columns, both in its own workspace, and runs the chunk's
einsum there, into a (cout, n*w) block after the columns, then copies the
block into the chunk's rows of the output. Accumulating straight into the
shared output had both threads writing the cache lines where two chunks
meet once per tap, and a 10x10 call ran 7x slower. The bits do not depend
on which thread runs a chunk, nor on which other calls share its batch:
every output element is still one einsum over the same columns in the
same tap order, and the copy moves finished values. The caller returns
when every chunk has finished and raises the first exception any chunk
raised; the helper lives on. A helper that gets no CPU costs the caller at
most the chunk it has taken, since the caller runs every chunk nobody has
taken. The helper starts with the first batch posted to it, so importing
this module, a single CPU (or a platform without ``sched_getaffinity``)
and batches of one chunk start no thread, and a forked child forgets its
parent's helper (``os.register_at_fork``) and starts its own.
"""

from __future__ import annotations

import os
import threading
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

    Stored as the one read-only float64 ``matrix`` conv3x3 multiplies by, of
    shape (1 + 9*in, out): the bias in row 0, then the weights in (channel,
    kernel row, kernel column) order, one column per output channel.
    ``weights`` and ``bias`` are read-only views of it. A -0.0 bias is
    stored as +0.0: conv3x3 starts every sum at +0.0, so the two would
    otherwise give differently signed zeros.
    """

    __slots__ = ("matrix",)

    def __init__(self, weights: np.ndarray, bias: np.ndarray):
        w = np.ascontiguousarray(weights, dtype=np.float64)
        b = np.ascontiguousarray(bias, dtype=np.float64)
        if w.ndim != 4 or w.shape[2:] != (3, 3):
            raise ValidationError(f"kernel weights must be (out, in, 3, 3), got {w.shape}")
        if w.shape[0] < 1 or w.shape[1] < 1:
            raise ValidationError(f"kernel channel counts must be positive, got {w.shape}")
        if b.shape != (w.shape[0],):
            raise ValidationError(f"bias shape {b.shape} does not match {w.shape[0]} output channels")
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise ValidationError("kernel contains non-finite values")
        matrix = np.empty((1 + 9 * w.shape[1], w.shape[0]), dtype=np.float64)
        matrix[0] = b + 0.0  # -0.0 -> +0.0
        matrix[1:] = w.reshape(w.shape[0], -1).T
        matrix.flags.writeable = False
        self.matrix = matrix

    @property
    def weights(self) -> np.ndarray:
        return self.matrix[1:].T.reshape(self.out_channels, self.in_channels, 3, 3)

    @property
    def bias(self) -> np.ndarray:
        return self.matrix[0]

    @property
    def out_channels(self) -> int:
        return self.matrix.shape[1]

    @property
    def in_channels(self) -> int:
        return (self.matrix.shape[0] - 1) // 9

    def __repr__(self) -> str:
        return f"ConvKernel(out={self.out_channels}, in={self.in_channels})"


# Upper bound on the bytes of conv3x3's column buffer, so memory stays flat
# however wide the input; a single output row may exceed it.
CONV_CHUNK_BYTES = 1 << 20

# Each thread's column workspace, reused by every chunk of every conv3x3 call
# it runs. A fresh buffer per chunk went back to the OS when freed, so each
# new one cost up to 256 first-touch page faults on zeroed pages.
_columns = threading.local()


def _column_workspace(size: int) -> np.ndarray:
    """A float64 buffer of at least `size` elements for conv3x3's columns.

    Up to CONV_CHUNK_BYTES it is the calling thread's workspace, allocated
    at the cap on the thread's first call, so that it never grows: each
    growth freed a smaller buffer, and one freed in the helper thread's
    malloc arena is reused only by the helper. A larger request (one
    output row wider than the cap) gets a buffer of its own.
    """
    if size * 8 > CONV_CHUNK_BYTES:
        return np.empty(size, dtype=np.float64)
    workspace = getattr(_columns, "workspace", None)
    if workspace is None or workspace.size < size:
        workspace = _columns.workspace = np.empty(CONV_CHUNK_BYTES // 8, dtype=np.float64)
    return workspace


class _Call:
    """One convolution of a conv3x3_many batch, cut into row chunks."""

    def __init__(self, x: Tensor, kernel: ConvKernel):
        cin, h, w = x.shape
        cout = kernel.out_channels
        self.x, self.kernel = x, kernel
        self.taps = 1 + 9 * cin
        self.macs = self.taps * cout * h * w
        # workspace elements of a chunk of n rows: per_row * n + edge, its
        # columns and block of n*w pixels and its (cin, n + 2, w + 2) slab
        per_row = (self.taps + cout) * w + cin * (w + 2)
        edge = 2 * cin * (w + 2)
        fit = max(1, (CONV_CHUNK_BYTES // 8 - edge) // per_row)
        count = max(-(-h // fit), 2)
        self.rows = -(-h // count)
        self.count = -(-h // self.rows)
        self.size = per_row * self.rows + edge  # workspace elements one chunk needs
        self.out = np.empty((cout, h * w), dtype=np.float64)

    def run(self, i: int, workspace: np.ndarray) -> None:
        """Compute row chunk i into its rows of the output."""
        wt = self.kernel.matrix
        x = self.x.data
        cin, h, w = x.shape
        cout, taps = self.kernel.out_channels, self.taps
        y0 = i * self.rows
        n = min(self.rows, h - y0)
        span = n * w
        cols = workspace[: taps * span].reshape(taps, span)
        # the einsum accumulates away from the cache lines the chunk's rows share with its neighbours
        end = (taps + cout) * span
        block = workspace[taps * span : end].reshape(cout, span)
        # slab row r is input row y0 - 1 + r, zero outside the input and in the two pad columns
        slab = workspace[end : end + cin * (n + 2) * (w + 2)].reshape(cin, n + 2, w + 2)
        slab[:, :, 0] = 0.0
        slab[:, :, w + 1] = 0.0
        top, bottom = max(y0 - 1, 0), min(y0 + n + 1, h)
        slab[:, top - y0 + 1 : bottom - y0 + 1, 1 : w + 1] = x[:, top:bottom]
        if y0 == 0:
            slab[:, 0] = 0.0
        if y0 + n == h:
            slab[:, n + 1] = 0.0
        step = slab.itemsize
        windows = as_strided(
            slab,
            shape=(cin, 3, 3, n, w),
            strides=((n + 2) * (w + 2) * step, (w + 2) * step, step, (w + 2) * step, step),
            writeable=False,
        )
        cols[0] = 1.0
        cols[1:].reshape(cin, 3, 3, n, w)[...] = windows
        if span > 1:
            np.einsum("ko,kp->op", wt, cols, out=block, optimize=False)
        else:
            two = np.pad(cols, ((0, 0), (0, 1)))
            block[...] = np.einsum("ko,kp->op", wt, two, optimize=False)[:, :1]
        self.out[:, y0 * w : y0 * w + span] = block


class _RowChunks:
    """The row chunks of one conv3x3_many batch, taken one at a time by each thread on it.

    Chunks are queued call by call, larger calls first, so that the small
    calls fill in at the end. A thread that comes late finds fewer chunks
    left, or none, so the caller waits only for chunks another thread has
    already started.
    """

    def __init__(self, calls: list[_Call]):
        self._queue = [(call, i) for call in sorted(calls, key=lambda c: -c.macs) for i in range(call.count)]
        self._next = 0  # first chunk no thread has taken
        self._running = 0  # chunks taken and not finished
        self._error: BaseException | None = None
        self._idle = threading.Condition(threading.Lock())

    def __len__(self) -> int:
        return len(self._queue)

    def work(self) -> None:
        """Take and run chunks in this thread's workspace until none is left.

        An exception is kept for join(), and no more chunks are taken.
        """
        workspace = None
        while True:
            with self._idle:
                if self._next >= len(self._queue):
                    return
                call, i = self._queue[self._next]
                self._next += 1
                self._running += 1
            error = None
            try:
                if workspace is None or workspace.size < call.size:
                    workspace = _column_workspace(call.size)
                call.run(i, workspace)
            except BaseException as err:  # raised again in the caller by join()
                error = err
            with self._idle:
                self._running -= 1
                if error is not None and self._error is None:
                    self._error = error
                    self._next = len(self._queue)
                if not self._running:
                    self._idle.notify_all()

    def join(self) -> None:
        """Wait until every chunk has been taken and none is running; raise
        the first exception a chunk raised."""
        with self._idle:
            self._idle.wait_for(lambda: self._next >= len(self._queue) and not self._running)
        if self._error is not None:
            raise self._error


class _Helper:
    """A daemon thread that works on the chunks of each conv3x3_many batch posted to it."""

    def __init__(self):
        self._posted = threading.Condition(threading.Lock())
        self._chunks: _RowChunks | None = None
        self.thread = threading.Thread(target=self._serve, name="conv3x3-helper", daemon=True)
        self.thread.start()

    def post(self, chunks: _RowChunks) -> None:
        with self._posted:
            self._chunks = chunks
            self._posted.notify()

    def _take(self) -> _RowChunks:
        with self._posted:
            self._posted.wait_for(lambda: self._chunks is not None)
            chunks, self._chunks = self._chunks, None
            return chunks

    def _serve(self) -> None:
        while True:
            # no reference outlives the batch: it would keep the batch's outputs alive
            self._take().work()


_helper: _Helper | None = None
_helper_start = threading.Lock()


def _the_helper() -> _Helper:
    """The process's helper thread, started by the first batch posted to it."""
    global _helper
    with _helper_start:
        if _helper is None:
            _helper = _Helper()
        return _helper


def _forget_helper() -> None:
    """In a forked child: the parent's helper thread does not exist there."""
    global _helper, _helper_start
    _helper = None
    _helper_start = threading.Lock()


if hasattr(os, "register_at_fork"):  # no fork, and so no helper to forget, on Windows
    os.register_at_fork(after_in_child=_forget_helper)


def _cpus() -> int:
    """The CPUs this process may run on, or 1 where the OS cannot say."""
    if not hasattr(os, "sched_getaffinity"):  # not on macOS or Windows
        return 1
    return len(os.sched_getaffinity(0))


def conv3x3_many(pairs: Sequence[tuple[Tensor, ConvKernel]]) -> list[Tensor]:
    """conv3x3 of every (x, kernel) pair, run as one batch of row chunks.

    Every pair is checked before any chunk runs. The result of each pair is
    bit-identical to conv3x3 on that pair alone.

    Every call with more than one row is cut into at least two chunks, and
    the chunks of all calls go into one queue, larger calls first. When the
    batch has more than one chunk and os.sched_getaffinity offers two or
    more CPUs, the caller posts the queue to the helper thread, and the two
    take chunks one at a time until none is left; otherwise the caller runs
    them all. Each chunk's einsum writes a (cout, n*w) block right after its
    columns in the workspace (which counts towards the cap), and the block
    is copied into the chunk's rows of its call's (cout, h*w) output. The
    caller returns once every chunk has finished, raising the first
    exception any chunk raised.
    """
    for x, kernel in pairs:
        if x.channels != kernel.in_channels:
            raise ValidationError(
                f"input has {x.channels} channels but kernel expects {kernel.in_channels}"
            )
    calls = [_Call(x, kernel) for x, kernel in pairs]
    chunks = _RowChunks(calls)
    if len(chunks) > 1 and _cpus() > 1:
        _the_helper().post(chunks)
    chunks.work()
    chunks.join()
    return [Tensor._adopt(call.out.reshape(-1, *call.x.shape[1:])) for call in calls]


def conv3x3(x: Tensor, kernel: ConvKernel) -> Tensor:
    """3x3 convolution, stride 1, zero padding 1 (spatial size preserved).

    Each output channel accumulates bias first, then the weighted input
    windows in (channel, kernel row, kernel column) order. Output channels
    are computed independently of one another, so stacking kernels along
    the output axis is bit-exact with concatenating separate results.

    The rows are cut into as few equal chunks (the last may be shorter) as
    keep each chunk's workspace within CONV_CHUNK_BYTES, at least one row
    each, and at least two when there are two rows. A chunk of n output
    rows starting at y0 copies input rows y0 - 1 .. y0 + n into a slab of
    n + 2 rows of wp = w + 2 values per channel, zero where a row lies
    outside the input and in the first and last column. Output pixel (y, x)
    reads the taps at slab offsets (y - y0 + dy)*wp + x + dx, so the
    chunk's windows are one as_strided view of shape (cin, 3, 3, n, w) with
    strides (slab plane, wp, 1, wp, 1), and its columns are exactly its n*w
    output pixels. The last read in a plane is at (n + 1)*wp + w + 1 =
    (n + 2)*wp - 1, the plane's last value. The columns are the contiguous
    (taps, n*w) prefix of the running thread's workspace, and the output
    block and then the slab follow them; the workspace is reused by every
    chunk and call, and only an output row too wide for the cap gets a
    buffer of its own, per thread and batch. Each chunk is one unoptimised
    einsum. A chunk of one pixel gets a zero pad column, dropped afterwards,
    so that NumPy keeps the pixel axis innermost; the module docstring
    gives the argument that the sums follow the reference order.

    This is conv3x3_many of the one pair.
    """
    return conv3x3_many([(x, kernel)])[0]


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
    weights = kernel.weights
    for c in range(cin):
        for dy in range(3):
            for dx in range(3):
                acc += weights[:, c, dy, dx, None, None] * padded[c, dy : dy + h, dx : dx + w]
    return acc


# (cin, cout, h, w) of the probe's inputs: odd sizes, a one-pixel-wide map,
# two 1x1 inputs, one with a single output channel (the one-column case
# conv3x3 pads), and last the two-thread call: one-row chunks that the
# caller and the helper thread share when the process may use two CPUs.
PROBE_SHAPES = ((3, 5, 7, 5), (5, 4, 1, 1), (63, 1, 1, 1), (2, 3, 9, 1), (160, 8, 11, 40))


def exactness_probe() -> str | None:
    """Whether conv3x3 equals conv3x3_taps bit for bit on this NumPy build.

    Runs PROBE_SHAPES on fixed random inputs and returns None when every
    output matches, otherwise a one-line description of the first input
    that does not. On two or more CPUs the last shape, the two-thread call,
    runs once more with every chunk posted to the helper thread while the
    caller only joins, so the helper's path is checked whether or not the
    first run reached it. It fails on a build whose einsum loops fuse or
    reorder the multiply-adds.
    """
    rng = np.random.default_rng(0)
    for i, (cin, cout, h, w) in enumerate(PROBE_SHAPES):
        x = Tensor._adopt(rng.normal(size=(cin, h, w)))
        kernel = ConvKernel(rng.normal(size=(cout, cin, 3, 3)), rng.normal(size=cout))
        want = conv3x3_taps(x, kernel)
        outputs = [conv3x3(x, kernel).data]
        if i == len(PROBE_SHAPES) - 1 and _cpus() > 1:
            call = _Call(x, kernel)
            chunks = _RowChunks([call])
            _the_helper().post(chunks)
            chunks.join()
            outputs.append(call.out.reshape(cout, h, w))
        for got in outputs:
            differ = got.view(np.uint64) != want.view(np.uint64)
            if differ.any():
                c, y, xx = (int(v) for v in np.argwhere(differ)[0])
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

