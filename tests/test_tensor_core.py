"""Tests for the dense tensor type and neural primitives.

conv3x3 is checked against a scalar nested-loop reference and against the
elementwise loop it replaced, both accumulating in the same documented
order, so agreement is expected to be bit-exact.
"""

import copy
import json
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import as_strided

from weavenet import tensor_core
from weavenet.errors import ValidationError
from weavenet.tensor_core import (
    CONV_CHUNK_BYTES,
    PROBE_SHAPES,
    ConvKernel,
    Tensor,
    concat_channels,
    conv3x3,
    conv3x3_many,
    conv3x3_taps,
    exactness_probe,
    maxpool_2x2_s2,
    relu,
    upsample_bilinear_x2,
)
from weavenet.weave import WeaveConfig, init_params, precompute_sources


def conv3x3_reference(x: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Scalar reference: bias first, then terms in (channel, dy, dx) order."""
    cin, h, w = x.shape
    cout = weights.shape[0]
    out = np.zeros((cout, h, w), dtype=np.float64)
    for o in range(cout):
        for y in range(h):
            for xx in range(w):
                acc = float(bias[o])
                for c in range(cin):
                    for dy in range(3):
                        for dx in range(3):
                            yy, xs = y + dy - 1, xx + dx - 1
                            if 0 <= yy < h and 0 <= xs < w:
                                acc += float(x[c, yy, xs]) * float(weights[o, c, dy, dx])
                out[o, y, xx] = acc
    return out


def conv3x3_loop(x: Tensor, kernel: ConvKernel) -> np.ndarray:
    """The former conv3x3: 9*cin elementwise multiply-adds over whole planes."""
    cin, h, w = x.shape
    cout = kernel.out_channels
    padded = np.zeros((cin, h + 2, w + 2), dtype=np.float64)
    padded[:, 1:-1, 1:-1] = x.data

    acc = np.empty((cout, h, w), dtype=np.float64)
    acc[:] = kernel.bias[:, None, None]
    term = np.empty_like(acc)
    weights = kernel.weights
    for c in range(cin):
        plane = padded[c]
        for dy in range(3):
            rows = plane[dy : dy + h]
            for dx in range(3):
                window = rows[:, dx : dx + w]
                np.multiply(weights[:, c, dy, dx, None, None], window, out=term)
                np.add(acc, term, out=acc)
    return acc


def spread_values(rng, shape):
    """Signed magnitudes spread over 1e-6..1e6, with some +0.0 and -0.0."""
    values = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-6.0, 6.0, size=shape)
    zeros = rng.random(shape) < 0.05
    values[zeros] = np.copysign(0.0, values[zeros])
    return values


def assert_same_bits(got: np.ndarray, want: np.ndarray):
    assert got.tobytes() == want.tobytes()
    assert np.array_equal(np.signbit(got), np.signbit(want))


def chunk_rows(monkeypatch, x: Tensor, kernel: ConvKernel) -> list[int]:
    """Output rows of each chunk conv3x3 runs on x, counted at its as_strided window."""
    rows = []

    def counting(base, shape, strides, writeable):
        rows.append(shape[3])
        return as_strided(base, shape=shape, strides=strides, writeable=writeable)

    monkeypatch.setattr(tensor_core, "as_strided", counting)
    conv3x3(x, kernel)
    monkeypatch.undo()
    return rows


def column_operands(monkeypatch, x: Tensor, kernel: ConvKernel) -> list[np.ndarray]:
    """The column operand of each chunk's einsum that the calling thread runs
    when conv3x3 runs on x (the helper thread may run others)."""
    operands = []
    einsum = np.einsum
    caller = threading.get_ident()

    def spying(subscripts, wt, cols, **kwargs):
        if threading.get_ident() == caller:
            operands.append(cols)
        return einsum(subscripts, wt, cols, **kwargs)

    monkeypatch.setattr(np, "einsum", spying)
    conv3x3(x, kernel)
    monkeypatch.undo()
    return operands


def random_tensor(rng, channels, height, width):
    return Tensor(rng.uniform(-1.0, 1.0, size=(channels, height, width)))


def random_kernel(rng, out_channels, in_channels):
    scale = 1.0 / np.sqrt(in_channels * 9)
    return ConvKernel(
        rng.uniform(-scale, scale, size=(out_channels, in_channels, 3, 3)),
        rng.uniform(-scale, scale, size=out_channels),
    )


class TestTensor:
    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            Tensor(np.array([[[np.nan]]]))
        with pytest.raises(ValidationError):
            Tensor(np.array([[[np.inf]]]))

    def test_rejects_empty_dims(self):
        with pytest.raises(ValidationError):
            Tensor(np.zeros((0, 2, 2)))

    def test_immutable_and_detached_from_input(self):
        src = np.ones((1, 2, 2))
        t = Tensor(src)
        src[0, 0, 0] = 5.0
        assert t.data[0, 0, 0] == 1.0
        with pytest.raises(ValueError):
            t.data[0, 0, 0] = 2.0


class TestConv3x3:
    def test_all_ones_zero_padding_arithmetic(self):
        x = Tensor(np.ones((1, 3, 3)))
        k = ConvKernel(np.ones((1, 1, 3, 3)), np.zeros(1))
        out = conv3x3(x, k).data[0]
        expected = np.array([[4.0, 6.0, 4.0], [6.0, 9.0, 6.0], [4.0, 6.0, 4.0]])
        assert np.array_equal(out, expected)

    def test_identity_kernel(self):
        rng = np.random.default_rng(11)
        x = random_tensor(rng, 3, 5, 7)
        w = np.zeros((3, 3, 3, 3))
        for c in range(3):
            w[c, c, 1, 1] = 1.0
        out = conv3x3(x, ConvKernel(w, np.zeros(3)))
        assert np.array_equal(out.data, x.data)

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(7)
        x = random_tensor(rng, 3, 4, 5)
        k = random_kernel(rng, 2, 3)
        out = conv3x3(x, k)
        ref = conv3x3_reference(x.data, k.weights, k.bias)
        assert np.array_equal(out.data, ref)

    def test_stacked_kernel_equals_concat_of_parts(self):
        rng = np.random.default_rng(42)
        x = random_tensor(rng, 4, 8, 8)
        k1 = random_kernel(rng, 2, 4)
        k2 = random_kernel(rng, 3, 4)
        stacked = ConvKernel(
            np.concatenate([k1.weights, k2.weights], axis=0),
            np.concatenate([k1.bias, k2.bias]),
        )
        combined = conv3x3(x, stacked)
        parts = concat_channels([conv3x3(x, k1), conv3x3(x, k2)])
        assert np.array_equal(combined.data, parts.data)

    def test_linearity_in_input(self):
        rng = np.random.default_rng(3)
        x = random_tensor(rng, 2, 6, 6)
        y = random_tensor(rng, 2, 6, 6)
        k = random_kernel(rng, 3, 2)
        both = conv3x3(Tensor(x.data + y.data), k)
        separate = conv3x3(x, k).data + conv3x3(y, k).data - k.bias[:, None, None]
        assert np.allclose(both.data, separate, atol=1e-12)

    def test_channel_mismatch_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValidationError):
            conv3x3(random_tensor(rng, 2, 4, 4), random_kernel(rng, 1, 3))

    def test_pure_bit_identical(self):
        rng = np.random.default_rng(5)
        x = random_tensor(rng, 3, 6, 6)
        k = random_kernel(rng, 4, 3)
        a = conv3x3(x, k)
        b = conv3x3(x, k)
        assert np.array_equal(a.data, b.data)


class TestConvKernel:
    @pytest.mark.parametrize(
        "weights,bias,message",
        [
            (np.ones((2, 3, 3)), np.zeros(2), r"kernel weights must be \(out, in, 3, 3\), got \(2, 3, 3\)"),
            (np.ones((2, 0, 3, 3)), np.zeros(2), r"kernel channel counts must be positive, got \(2, 0, 3, 3\)"),
            (np.ones((2, 1, 3, 3)), np.zeros(3), r"bias shape \(3,\) does not match 2 output channels"),
            (np.ones((2, 1, 3, 3)), np.array([0.0, np.inf]), "kernel contains non-finite values"),
        ],
        ids=["rank", "empty", "bias", "non-finite"],
    )
    def test_malformed_kernels_rejected(self, weights, bias, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            ConvKernel(weights, bias)

    @settings(deadline=None, max_examples=60)
    @given(
        out=st.integers(1, 6),
        cin=st.integers(1, 6),
        form=st.sampled_from(["contiguous", "strided view", "np.delete", "nested lists"]),
        negative_zero_bias=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matrix_is_bias_then_taps_and_weights_and_bias_are_read_only_views(
        self, out, cin, form, negative_zero_bias, seed
    ):
        rng = np.random.default_rng(seed)
        if form == "strided view":
            weights = spread_values(rng, (out, cin, 3, 3))[:, ::-1]
        elif form == "np.delete":
            weights = np.delete(spread_values(rng, (out, cin + 1, 3, 3)), int(rng.integers(cin + 1)), axis=1)
        else:
            weights = spread_values(rng, (out, cin, 3, 3))
        bias = spread_values(rng, out)
        if negative_zero_bias:
            bias[rng.integers(out)] = -0.0
        w, b = np.array(weights), np.array(bias)
        callers = (weights, bias)
        if form == "nested lists":
            weights, bias = weights.tolist(), bias.tolist()
        k = ConvKernel(weights, bias)

        assert_same_bits(k.weights, w)
        assert_same_bits(k.bias, b + 0.0)  # -0.0 -> +0.0
        expected = np.empty((1 + 9 * cin, out))
        expected[0] = b + 0.0
        for o, c, dy, dx in np.ndindex(out, cin, 3, 3):
            expected[1 + 9 * c + 3 * dy + dx, o] = w[o, c, dy, dx]
        assert k.matrix.dtype == np.float64 and k.matrix.shape == (1 + 9 * cin, out)
        assert_same_bits(k.matrix, expected)
        assert (k.out_channels, k.in_channels) == (out, cin)
        for view in (k.weights, k.bias):
            assert np.shares_memory(view, k.matrix)
        for array in (k.matrix, k.weights, k.bias):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array.flat[0] = 1.0
            for caller in callers:
                assert not np.shares_memory(array, caller)

    def test_a_scalar_bias_on_a_one_output_kernel_is_accepted(self):
        k = ConvKernel(np.ones((1, 2, 3, 3)), 0.5)
        assert k.bias.shape == (1,) and k.bias[0] == 0.5
        assert (k.out_channels, k.in_channels) == (1, 2)

    @pytest.mark.parametrize(
        "copied", [copy.deepcopy, lambda k: pickle.loads(pickle.dumps(k))], ids=["deepcopy", "pickle"]
    )
    def test_copies_rebuild_a_read_only_matrix(self, copied):
        rng = np.random.default_rng(3)
        k = ConvKernel(spread_values(rng, (4, 3, 3, 3)), np.array([0.5, -0.0, -1.5, 0.0]))
        again = copied(k)
        assert type(again) is ConvKernel and not np.shares_memory(again.matrix, k.matrix)
        assert again.matrix.flags.c_contiguous
        assert_same_bits(again.matrix, k.matrix)
        for array in (again.matrix, again.weights, again.bias):
            assert not array.flags.writeable


class TestConv3x3MatchesLoop:
    """conv3x3 is byte-identical to conv3x3_loop, sign of zero included."""

    @settings(deadline=None, max_examples=60)
    @given(
        cin=st.integers(1, 41),
        cout=st.integers(1, 41),
        h=st.integers(1, 41),
        w=st.integers(1, 41),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(cin=1, cout=1, h=1, w=1, seed=0)
    @example(cin=3, cout=2, h=1, w=37, seed=1)
    @example(cin=3, cout=2, h=37, w=1, seed=2)
    @example(cin=160, cout=16, h=41, w=30, seed=3)  # many row chunks, the last one partial
    def test_bytes_equal_loop(self, cin, cout, h, w, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(spread_values(rng, (cin, h, w)))
        k = ConvKernel(spread_values(rng, (cout, cin, 3, 3)), spread_values(rng, cout))
        assert_same_bits(conv3x3(x, k).data, conv3x3_loop(x, k))

    def test_example_spans_several_chunks_with_a_partial_last(self, monkeypatch):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(160, 41, 30)))  # two rows a chunk, split or not
        # either thread may take any chunk, so the order the chunks start in is not fixed
        rows = sorted(chunk_rows(monkeypatch, x, ConvKernel(rng.normal(size=(16, 160, 3, 3)), np.zeros(16))), reverse=True)
        assert len(rows) > 1 and sum(rows) == 41
        assert rows[-1] < rows[0] and set(rows[:-1]) == {rows[0]}

    def test_row_wider_than_chunk_cap(self, monkeypatch):
        cin, w = 1200, 16
        assert 8 * (1 + 9 * cin) * w > CONV_CHUNK_BYTES
        rng = np.random.default_rng(12)
        x = Tensor(spread_values(rng, (cin, 3, w)))
        k = ConvKernel(spread_values(rng, (2, cin, 3, 3)), spread_values(rng, 2))
        assert_same_bits(conv3x3(x, k).data, conv3x3_loop(x, k))
        assert chunk_rows(monkeypatch, x, k) == [1, 1, 1]

    def test_negative_zero_bias_is_stored_as_positive_zero(self):
        k = ConvKernel(np.full((2, 1, 3, 3), -0.0), np.array([-0.0, 0.0]))
        assert not np.signbit(k.bias).any()
        out = conv3x3(Tensor(np.zeros((1, 2, 3))), k).data
        assert_same_bits(out, conv3x3_loop(Tensor(np.zeros((1, 2, 3))), k))
        assert not np.signbit(out).any()

    def test_negative_zero_terms_keep_their_sign_after_a_positive_zero_bias(self):
        # +0.0 + (-0.0) is +0.0 in both implementations
        k = ConvKernel(np.full((1, 1, 3, 3), 2.0), np.zeros(1))
        x = Tensor(np.full((1, 2, 2), -0.0))
        assert_same_bits(conv3x3(x, k).data, conv3x3_loop(x, k))


class TestColumnWorkspace:
    """A thread's conv3x3 calls build their columns in one reused buffer."""

    def test_one_buffer_serves_every_chunk_and_every_call(self, monkeypatch):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(160, 41, 40)))
        k = ConvKernel(rng.normal(size=(16, 160, 3, 3)), np.zeros(16))
        operands = []  # (thread, column operand) of each chunk, over two calls
        einsum = np.einsum

        def spying(subscripts, wt, cols, **kwargs):
            operands.append((threading.get_ident(), cols))
            return einsum(subscripts, wt, cols, **kwargs)

        monkeypatch.setattr(np, "einsum", spying)
        conv3x3(x, k)
        first = len(operands)
        conv3x3(x, k)
        monkeypatch.undo()
        assert first > 1 and len(operands) == 2 * first
        own = {}  # each thread's first operand
        for thread, cols in operands:
            assert np.shares_memory(cols, own.setdefault(thread, cols))
        buffers = list(own.values())
        assert not any(np.shares_memory(a, b) for i, a in enumerate(buffers) for b in buffers[i + 1 :])

    def test_row_wider_than_chunk_cap_gets_a_buffer_of_its_own(self, monkeypatch):
        cin, w = 1200, 16
        assert 8 * (1 + 9 * cin) * w > CONV_CHUNK_BYTES
        rng = np.random.default_rng(12)
        wide = Tensor(spread_values(rng, (cin, 3, w)))
        wide_kernel = ConvKernel(spread_values(rng, (2, cin, 3, 3)), spread_values(rng, 2))
        x = Tensor(rng.normal(size=(160, 41, 40)))
        k = ConvKernel(rng.normal(size=(16, 160, 3, 3)), np.zeros(16))
        # one CPU, so that the caller runs every chunk; column_operands undoes its own monkeypatch
        with pytest.MonkeyPatch.context() as one_cpu:
            one_cpu.setattr(os, "sched_getaffinity", lambda pid: {0})
            before = column_operands(monkeypatch, x, k)
            own = column_operands(monkeypatch, wide, wide_kernel)
            after = column_operands(monkeypatch, x, k)
        assert len(own) == 3 and all(np.shares_memory(cols, own[0]) for cols in own)
        assert not any(np.shares_memory(cols, after[0]) for cols in own)
        assert np.shares_memory(after[0], before[0])

    def test_values_left_in_the_workspace_are_never_read(self):
        rng = np.random.default_rng(30)
        for cin, cout, h, w in ((160, 4, 41, 40), (3, 2, 5, 7), (2, 3, 1, 1), (5, 1, 9, 1), (4, 2, 2, 6)):
            tensor_core._column_workspace(CONV_CHUNK_BYTES // 8)[:] = np.nan  # the whole workspace
            x = Tensor(spread_values(rng, (cin, h, w)))
            k = ConvKernel(spread_values(rng, (cout, cin, 3, 3)), spread_values(rng, cout))
            assert_same_bits(conv3x3(x, k).data, conv3x3_loop(x, k))

    def test_two_threads_at_once_equal_the_loop(self):
        rng = np.random.default_rng(24)
        jobs = []
        for cin, cout, h, w in ((160, 16, 41, 40), (96, 8, 30, 50)):  # 21 and 10 chunks
            x = Tensor(spread_values(rng, (cin, h, w)))
            k = ConvKernel(spread_values(rng, (cout, cin, 3, 3)), spread_values(rng, cout))
            jobs.append((x, k, conv3x3_loop(x, k)))
        start = threading.Barrier(len(jobs))
        outputs = {}

        def run(i, x, k):
            start.wait(timeout=60)
            outputs[i] = [conv3x3(x, k).data for _ in range(20)]

        threads = [threading.Thread(target=run, args=(i, x, k)) for i, (x, k, _) in enumerate(jobs)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads between chunks, not only when einsum drops the GIL
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(outputs) == [0, 1]
        for i, (_, _, want) in enumerate(jobs):
            for got in outputs[i]:
                assert_same_bits(got, want)


SRC = Path(__file__).resolve().parents[1] / "src"

# A fresh process whose helper thread, given chunk i of a call, computes a
# neighbouring chunk and puts its rows where chunk i's belong; it prints the
# probe's message. Two CPUs are reported whatever the host has.
MISPLACING_HELPER = """
import json, os, threading
from weavenet import tensor_core
os.sched_getaffinity = lambda pid: {0, 1}
run = tensor_core._Call.run

def misplacing(call, i, workspace):
    if threading.current_thread() is threading.main_thread() or call.count < 2:
        return run(call, i, workspace)
    j = i - 1 if i else 1
    run(call, j, workspace)
    rows, w = call.rows, call.x.width
    n = min(rows, call.x.height - i * rows)
    call.out[:, i * rows * w : (i * rows + n) * w] = call.out[:, j * rows * w : (j * rows + n) * w]

tensor_core._Call.run = misplacing
print(json.dumps(tensor_core.exactness_probe()))
"""


def zero_call(cin: int, cout: int, h: int, w: int):
    """The _Call conv3x3 makes of a (cin, h, w) input and a kernel of cout outputs."""
    return tensor_core._Call(Tensor(np.zeros((cin, h, w))), ConvKernel(np.zeros((cout, cin, 3, 3)), np.zeros(cout)))


def split_case(seed: int):
    """An input, kernel and loop output that conv3x3 splits into many chunks."""
    rng = np.random.default_rng(seed)
    x = Tensor(spread_values(rng, (160, 21, 40)))
    k = ConvKernel(spread_values(rng, (8, 160, 3, 3)), spread_values(rng, 8))
    assert tensor_core._Call(x, k).count > 2  # more chunks than threads
    return x, k, conv3x3_loop(x, k)


def run_with_timeout(call, seconds=60.0):
    """call() in a daemon thread; (finished, result or exception)."""
    outcome = {}

    def target():
        try:
            outcome["result"] = call()
        except Exception as err:
            outcome["result"] = err

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout=seconds)
    return not thread.is_alive(), outcome.get("result")


@pytest.fixture
def two_cpus(monkeypatch):
    """The process may run on two CPUs, whatever the host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


class TestSplitCalls:
    """A large conv3x3 call runs its chunks on the caller and one helper thread."""

    def test_the_chunks_the_helper_runs_land_in_their_own_rows(self, monkeypatch, two_cpus):
        x, k, want = split_case(44)
        helper = tensor_core._the_helper().thread
        helper_started = threading.Event()
        runners = []
        real = tensor_core.as_strided

        def waiting(*args, **kwargs):
            runners.append(threading.current_thread())
            if threading.current_thread() is helper:
                helper_started.set()
            else:
                helper_started.wait(timeout=30)  # the caller's first chunk waits for the helper's
            return real(*args, **kwargs)

        monkeypatch.setattr(tensor_core, "as_strided", waiting)
        finished, result = run_with_timeout(lambda: conv3x3(x, k).data)
        assert finished and helper in runners and len(set(runners)) == 2
        assert_same_bits(result, want)

    def test_an_error_in_a_helper_chunk_reaches_the_caller(self, monkeypatch, two_cpus):
        x, k, want = split_case(40)
        helper = tensor_core._the_helper().thread
        helper_failed = threading.Event()
        real = tensor_core.as_strided

        def failing(*args, **kwargs):
            if threading.current_thread() is helper:
                helper_failed.set()
                raise RuntimeError("chunk failed on the helper")
            helper_failed.wait(timeout=30)  # the caller's first chunk waits for the helper's
            return real(*args, **kwargs)

        monkeypatch.setattr(tensor_core, "as_strided", failing)
        finished, result = run_with_timeout(lambda: conv3x3(x, k))
        monkeypatch.setattr(tensor_core, "as_strided", real)
        assert finished
        assert isinstance(result, RuntimeError) and str(result) == "chunk failed on the helper"
        assert helper.is_alive()
        assert_same_bits(conv3x3(x, k).data, want)

    @pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
    def test_a_forked_child_convolves_on_its_own_helper(self, two_cpus):
        x, k, want = split_case(41)
        assert_same_bits(conv3x3(x, k).data, want)  # the parent's helper is running
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:  # the child: report, then leave without running pytest's exit code
            try:
                exact = conv3x3(x, k).data.tobytes() == want.tobytes()
                alive = tensor_core._helper is not None and tensor_core._helper.thread.is_alive()
                os.write(write_end, f"{exact} {alive}".encode())
            finally:
                os._exit(0)
        os.close(write_end)
        deadline = time.monotonic() + 60
        while os.waitpid(pid, os.WNOHANG) == (0, 0):
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child hung")
            time.sleep(0.01)
        with os.fdopen(read_end, "rb") as fh:
            assert fh.read() == b"True True"

    def test_one_cpu_starts_no_helper(self, monkeypatch):
        x, k, want = split_case(42)
        monkeypatch.setattr(tensor_core, "_helper", None)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        threads = threading.active_count()
        got = conv3x3(x, k).data
        assert tensor_core._helper is None and threading.active_count() == threads
        assert_same_bits(got, want)

    def test_a_helper_that_gets_no_cpu_leaves_every_chunk_to_the_caller(self, monkeypatch, two_cpus):
        x, k, want = split_case(43)
        helper = tensor_core._the_helper().thread
        release = threading.Event()
        work = tensor_core._RowChunks.work

        def late(chunks):
            if threading.current_thread() is helper:
                release.wait(timeout=30)  # asleep before it takes its first chunk
            work(chunks)

        monkeypatch.setattr(tensor_core._RowChunks, "work", late)
        runners = []
        real = tensor_core.as_strided

        def recording(*args, **kwargs):
            runners.append(threading.current_thread())
            return real(*args, **kwargs)

        monkeypatch.setattr(tensor_core, "as_strided", recording)
        try:
            finished, result = run_with_timeout(lambda: conv3x3(x, k).data, seconds=20)
        finally:
            release.set()
        assert finished and len(runners) > 1 and helper not in runners
        assert_same_bits(result, want)


class TestConv3x3Many:
    """A batch of convolutions shares one queue of row chunks."""

    def test_an_empty_batch_is_an_empty_list(self, two_cpus):
        assert conv3x3_many([]) == []

    @pytest.mark.parametrize("bad", [0, 1, 2])
    def test_a_channel_mismatch_in_any_pair_raises_before_any_chunk_is_posted(self, monkeypatch, two_cpus, bad):
        rng = np.random.default_rng(50)
        x, k, _ = split_case(50)
        pairs = [(x, k), (random_tensor(rng, 3, 5, 5), random_kernel(rng, 2, 3)), (x, k)]
        pairs[bad] = (random_tensor(rng, 4, 6, 6), random_kernel(rng, 2, 5))
        runs = []
        monkeypatch.setattr(tensor_core, "as_strided", lambda *a, **kw: runs.append("chunk"))
        monkeypatch.setattr(tensor_core._Helper, "post", lambda helper, chunks: runs.append("post"))
        with pytest.raises(ValidationError, match="^input has 4 channels but kernel expects 5$"):
            conv3x3_many(pairs)
        assert runs == []

    def test_an_error_in_one_calls_chunk_reaches_the_caller_and_the_next_batch_is_exact(self, monkeypatch, two_cpus):
        rng = np.random.default_rng(51)
        x, k, want = split_case(51)
        small = (Tensor(spread_values(rng, (7, 10, 10))), ConvKernel(spread_values(rng, (3, 7, 3, 3)), spread_values(rng, 3)))
        real = tensor_core.as_strided

        def failing(base, shape, strides, writeable):
            if shape[0] == 7:  # the small call's input channels
                raise RuntimeError("chunk of the small call failed")
            return real(base, shape=shape, strides=strides, writeable=writeable)

        monkeypatch.setattr(tensor_core, "as_strided", failing)
        finished, result = run_with_timeout(lambda: conv3x3_many([(x, k), small, (x, k)]))
        monkeypatch.setattr(tensor_core, "as_strided", real)
        assert finished
        assert isinstance(result, RuntimeError) and str(result) == "chunk of the small call failed"
        got = conv3x3_many([small, (x, k)])
        assert_same_bits(got[0].data, conv3x3_taps(*small))
        assert_same_bits(got[1].data, want)

    def test_larger_calls_are_queued_first_and_outputs_keep_the_pair_order(self, monkeypatch, two_cpus):
        rng = np.random.default_rng(52)
        pairs = [
            (Tensor(spread_values(rng, (cin, s, s))), ConvKernel(spread_values(rng, (4, cin, 3, 3)), spread_values(rng, 4)))
            for cin, s in ((3, 5), (40, 40), (9, 10), (2, 1))
        ]
        queue = tensor_core._RowChunks([tensor_core._Call(x, k) for x, k in pairs])._queue
        calls = list(dict.fromkeys(call for call, _ in queue))  # in queue order
        assert [call.x.width for call in calls] == [40, 10, 5, 1]
        for call in calls:
            assert [i for queued, i in queue if queued is call] == list(range(call.count))
        for (x, k), got in zip(pairs, conv3x3_many(pairs)):
            assert_same_bits(got.data, conv3x3_taps(x, k))

    @settings(deadline=None, max_examples=200)
    @given(
        cin=st.integers(1, 300),
        cout=st.integers(1, 64),
        h=st.integers(1, 60),
        w=st.integers(1, 60),
        cap=st.one_of(st.integers(1, 1 << 16), st.just(CONV_CHUNK_BYTES)),
    )
    def test_a_calls_chunks_tile_its_rows_and_fit_the_workspace_cap(self, cin, cout, h, w, cap):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tensor_core, "CONV_CHUNK_BYTES", cap)
            call = zero_call(cin, cout, h, w)
        rows, count = call.rows, call.count
        assert rows * (count - 1) < h <= rows * count
        assert count >= 2 or h == 1  # every call of two or more rows is shared out
        assert call.size * 8 <= cap or rows == 1  # only a single row may pass the cap
        # the columns, the block and the slab of the largest chunk
        assert call.size >= (1 + 9 * cin) * rows * w + cout * rows * w + cin * (rows + 2) * (w + 2)

    @settings(deadline=None, max_examples=25)
    @given(
        shapes=st.lists(
            st.tuples(
                st.sampled_from(["40x40", "20x20", "10x10", "1x1", "one pixel wide", "one row", "any"]),
                st.integers(1, 40),  # cin
                st.sampled_from([1, 2, 5, 16]),  # cout
                st.integers(1, 12),  # the free side of the narrow maps
                st.booleans(),  # convolve with the previous pair's kernel
            ),
            min_size=1,
            max_size=6,
        ),
        batches=st.integers(1, 3),  # the same kernels, batch after batch
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_output_equals_the_tap_loop_on_one_cpu_and_on_two(self, shapes, batches, seed):
        rng = np.random.default_rng(seed)
        sides = {"40x40": (40, 40), "20x20": (20, 20), "10x10": (10, 10), "1x1": (1, 1)}
        pairs = []
        for kind, cin, cout, side, shared in shapes:
            h, w = sides.get(kind) or {"one pixel wide": (side, 1), "one row": (1, side)}.get(kind, (side, 13 - side))
            if shared and pairs:  # two calls of the batch read one kernel matrix
                kernel = pairs[-1][1]
                cin = kernel.in_channels
            else:
                kernel = ConvKernel(spread_values(rng, (cout, cin, 3, 3)), spread_values(rng, cout))
            pairs.append((Tensor(spread_values(rng, (cin, h, w))), kernel))
        wants = [conv3x3_taps(x, k) for x, k in pairs]
        for cpus in ({0}, {0, 1}):
            for _ in range(batches):
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(os, "sched_getaffinity", lambda pid: cpus)
                    got = conv3x3_many(pairs)
                assert len(got) == len(pairs)
                for out, want in zip(got, wants):
                    assert_same_bits(out.data, want)

    @pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["one cpu", "two cpus"])
    def test_a_warm_batch_allocates_its_outputs_and_no_weight_matrix(self, monkeypatch, cpus):
        rng = np.random.default_rng(53)
        pairs = [
            (random_tensor(rng, cin, side, side), random_kernel(rng, cout, cin))
            for cin, side, cout in ((80, 40, 32), (128, 20, 48))
        ]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        if len(cpus) > 1:  # the helper must have its workspace before the measured batch
            helper = tensor_core._the_helper().thread
            helper_started = threading.Event()
            real = tensor_core.as_strided

            def waiting(*args, **kwargs):
                if threading.current_thread() is helper:
                    helper_started.set()
                else:
                    helper_started.wait(timeout=30)
                return real(*args, **kwargs)

            monkeypatch.setattr(tensor_core, "as_strided", waiting)
            conv3x3_many(pairs)
            monkeypatch.setattr(tensor_core, "as_strided", real)
            assert helper_started.is_set()
        conv3x3_many(pairs)
        outputs = sum(k.out_channels * x.height * x.width * 8 for x, k in pairs)
        matrices = sum((1 + 9 * k.in_channels) * k.out_channels * 8 for _, k in pairs)
        tracemalloc.start()
        try:
            got = conv3x3_many(pairs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (outputs, matrices) == (563_200, 627_328)
        assert outputs <= peak and peak - outputs < matrices // 2
        for (x, k), out in zip(pairs, got):
            assert_same_bits(out.data, conv3x3_taps(x, k))


class TestRelu:
    def test_basic(self):
        t = Tensor(np.array([-1.0, 0.0, 2.0]).reshape(1, 1, 3))
        assert relu(t).data.tolist() == [[[0.0, 0.0, 2.0]]]

    def test_nonnegative_unchanged(self):
        rng = np.random.default_rng(1)
        t = Tensor(rng.uniform(0.0, 1.0, size=(2, 3, 3)))
        assert np.array_equal(relu(t).data, t.data)

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        t = random_tensor(rng, 2, 4, 4)
        once = relu(t)
        assert np.array_equal(relu(once).data, once.data)


class TestUpsample:
    def test_shape(self):
        rng = np.random.default_rng(9)
        out = upsample_bilinear_x2(random_tensor(rng, 3, 5, 5))
        assert out.shape == (3, 10, 10)

    def test_constant_interior(self):
        t = Tensor(np.full((2, 4, 4), 3.5))
        out = upsample_bilinear_x2(t).data
        assert np.array_equal(out[:, 1:-1, 1:-1], np.full((2, 6, 6), 3.5))

    def test_interior_impulse_footprint(self):
        x = np.zeros((1, 5, 5))
        x[0, 2, 2] = 1.0
        out = upsample_bilinear_x2(Tensor(x)).data[0]
        taps = np.array([0.25, 0.75, 0.75, 0.25])
        expected = np.zeros((10, 10))
        expected[3:7, 3:7] = np.outer(taps, taps)
        assert np.array_equal(out, expected)
        assert set(np.unique(out)) == {0.0, 0.0625, 0.1875, 0.5625}


class TestMaxpool:
    def test_single_block(self):
        t = Tensor(np.array([[[1.0, 2.0], [3.0, 4.0]]]))
        assert maxpool_2x2_s2(t).data.tolist() == [[[4.0]]]

    def test_constant_halves(self):
        t = Tensor(np.full((3, 6, 6), 2.0))
        out = maxpool_2x2_s2(t)
        assert out.shape == (3, 3, 3)
        assert np.array_equal(out.data, np.full((3, 3, 3), 2.0))

    def test_40_to_20(self):
        rng = np.random.default_rng(4)
        out = maxpool_2x2_s2(random_tensor(rng, 4, 40, 40))
        assert out.shape == (4, 20, 20)

    def test_odd_dims_floored(self):
        rng = np.random.default_rng(6)
        out = maxpool_2x2_s2(random_tensor(rng, 1, 5, 7))
        assert out.shape == (1, 2, 3)

    def test_too_small_rejected(self):
        with pytest.raises(ValidationError):
            maxpool_2x2_s2(Tensor(np.ones((1, 1, 4))))

    @settings(deadline=None, max_examples=60)
    @given(
        c=st.integers(1, 4),
        h=st.integers(2, 11),
        w=st.integers(2, 11),
        values=st.sampled_from(["signed zeros", "spread"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bytes_equal_reshape_max(self, c, h, w, values, seed):
        rng = np.random.default_rng(seed)
        if values == "signed zeros":  # windows that tie +0.0 against -0.0
            data = rng.choice([-0.0, 0.0, -1.0, 1.0], size=(c, h, w))
        else:
            data = spread_values(rng, (c, h, w))
        oh, ow = h // 2, w // 2
        want = data[:, : 2 * oh, : 2 * ow].reshape(c, oh, 2, ow, 2).max(axis=(2, 4))
        assert_same_bits(maxpool_2x2_s2(Tensor(data)).data, want)


class TestConcatSplit:
    def test_concat_single_is_identity(self):
        rng = np.random.default_rng(8)
        t = random_tensor(rng, 3, 4, 4)
        assert np.array_equal(concat_channels([t]).data, t.data)

    def test_concat_ordering(self):
        a = Tensor(np.full((3, 2, 2), 1.0))
        b = Tensor(np.full((5, 2, 2), 2.0))
        out = concat_channels([a, b])
        assert out.channels == 8
        assert out.data[3, 0, 0] == 2.0
        assert out.data[2, 0, 0] == 1.0

    def test_spatial_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            concat_channels([Tensor(np.ones((1, 2, 2))), Tensor(np.ones((1, 3, 3)))])

    def test_concat_of_nothing_rejected(self):
        with pytest.raises(ValidationError, match="^concat_channels needs a non-empty list$"):
            concat_channels([])


class TestConv3x3Layouts:
    """Layouts where the exact-width column buffer has one or few columns.

    With one column and one output channel NumPy would be left with the tap
    axis alone, reduced in another order; conv3x3 pads such a chunk."""

    @pytest.mark.parametrize("cout", [1, 48])  # 48: the default pyramid's last scale
    @pytest.mark.parametrize("cin", [1, 32, 160])
    def test_one_pixel_input_equals_loop(self, cin, cout):
        for seed in range(4):
            rng = np.random.default_rng([cin, cout, seed])
            x = Tensor(spread_values(rng, (cin, 1, 1)))
            k = ConvKernel(spread_values(rng, (cout, cin, 3, 3)), spread_values(rng, cout))
            assert_same_bits(conv3x3(x, k).data, conv3x3_loop(x, k))

    @pytest.mark.parametrize("cin,cout,h", [(1, 1, 2), (32, 1, 5), (32, 5, 5), (7, 48, 9)])
    def test_one_pixel_chunks_equal_loop(self, monkeypatch, cin, cout, h):
        monkeypatch.setattr(tensor_core, "CONV_CHUNK_BYTES", 1)  # one row, here one pixel, per chunk
        rng = np.random.default_rng([cin, cout, h])
        x = Tensor(spread_values(rng, (cin, h, 1)))
        k = ConvKernel(spread_values(rng, (cout, cin, 3, 3)), spread_values(rng, cout))
        assert_same_bits(conv3x3(x, k).data, conv3x3_loop(x, k))

    def test_one_row_chunks_equal_loop(self, monkeypatch):
        monkeypatch.setattr(tensor_core, "CONV_CHUNK_BYTES", 1)
        rng = np.random.default_rng(14)
        x = Tensor(spread_values(rng, (6, 5, 3)))
        k = ConvKernel(spread_values(rng, (4, 6, 3, 3)), spread_values(rng, 4))
        assert_same_bits(conv3x3(x, k).data, conv3x3_loop(x, k))


def _tiny_sources():
    cfg = WeaveConfig(
        pyramid_sizes=(4, 2, 1), raw_channels=(3, 3, 3), woven_scales=(0, 1), k=2, iterations=2
    )
    params = init_params(cfg)
    rng = np.random.default_rng(15)
    raw = {i: Tensor(rng.normal(size=(3, s, s))) for i, s in enumerate(cfg.pyramid_sizes) if i in params}
    return precompute_sources(raw, params)


class TestFreshTensorsAreSealed:
    """Results built without a defensive copy are still read-only, and no
    array a caller holds can change them afterwards."""

    OPS = {
        "conv3x3": lambda x: conv3x3(x, ConvKernel(np.ones((2, 3, 3, 3)), np.ones(2))),
        "relu": relu,
        "upsample": upsample_bilinear_x2,
        "maxpool": maxpool_2x2_s2,
        "concat": lambda x: concat_channels([x, x]),
    }

    @pytest.mark.parametrize("name", sorted(OPS))
    def test_read_only_and_detached_from_caller_arrays(self, name):
        src = np.random.default_rng(16).normal(size=(3, 4, 4))
        x = Tensor(src)
        out = self.OPS[name](x)
        before = out.data.copy()
        assert not out.data.flags.writeable
        with pytest.raises(ValueError):
            out.data[0, 0, 0] = 1.0
        src[...] = 7.0
        assert np.array_equal(out.data, before)
        assert not (x.data == 7.0).any()

    def test_precomputed_sources_are_read_only_views(self):
        sources = _tiny_sources()[0]
        assert sources.shape == (2, 2, 4, 4)  # (T, rows, h, w)
        assert not sources.flags.writeable
        for got in (sources, sources[1]):
            with pytest.raises(ValueError):
                got[0, 0, 0] = 1.0
        # a view of one convolution's output rows, not a copy
        assert sources.base is not None and not sources.flags.owndata

    def test_adopt_keeps_the_checks(self):
        with pytest.raises(ValidationError):
            Tensor._adopt(np.ones((2, 2)))
        with pytest.raises(ValidationError):
            Tensor._adopt(np.ones((1, 0, 2)))
        with pytest.raises(ValidationError):
            Tensor._adopt(np.full((1, 1, 1), np.nan))

    def test_public_constructor_still_copies(self):
        src = np.ones((1, 2, 2))
        t = Tensor(src)
        assert not np.shares_memory(t.data, src)
        assert src.flags.writeable


class TestExactnessProbe:
    def test_passes_on_this_build(self):
        assert exactness_probe() is None

    def test_probe_covers_odd_sizes_and_a_single_pixel(self):
        assert any(h == w == 1 and cout == 1 for _, cout, h, w in PROBE_SHAPES)
        assert any(h == w == 1 and cout > 1 for _, cout, h, w in PROBE_SHAPES)
        assert any(h % 2 and w % 2 and h > 1 for _, _, h, w in PROBE_SHAPES)

    def test_probe_covers_a_split_call(self):
        cin, cout, h, w = PROBE_SHAPES[-1]  # the two-thread call: one row a chunk
        call = zero_call(cin, cout, h, w)
        assert (call.rows, call.count) == (1, h) and h > 2

    @settings(deadline=None, max_examples=20)
    @given(
        cin=st.integers(1, 9),
        cout=st.integers(1, 9),
        h=st.integers(1, 9),
        w=st.integers(1, 9),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_tap_loop_equals_test_oracle(self, cin, cout, h, w, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(spread_values(rng, (cin, h, w)))
        k = ConvKernel(spread_values(rng, (cout, cin, 3, 3)), spread_values(rng, cout))
        assert_same_bits(conv3x3_taps(x, k), conv3x3_loop(x, k))

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_on_two_cpus_the_last_shape_runs_again_on_the_helper_alone(self, monkeypatch, cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        ran = []  # (call, chunk, thread) of every chunk the probe runs
        real = tensor_core._Call.run

        def recording(call, i, workspace):
            ran.append((call, i, threading.current_thread()))
            return real(call, i, workspace)

        monkeypatch.setattr(tensor_core._Call, "run", recording)
        assert exactness_probe() is None
        calls = list({id(call): call for call, _, _ in ran}.values())
        assert len(calls) == len(PROBE_SHAPES) + (cpus > 1)
        if cpus == 1:
            assert {thread for _, _, thread in ran} == {threading.current_thread()}
            return
        last = calls[-1]
        cin, _, h, w = PROBE_SHAPES[-1]
        assert last.x.shape == (cin, h, w)
        chunks = [(i, thread) for call, i, thread in ran if call is last]
        assert sorted(i for i, _ in chunks) == list(range(last.count))
        assert {thread for _, thread in chunks} == {tensor_core._helper.thread}

    def test_a_helper_that_misplaces_rows_fails_the_probe_in_every_fresh_process(self):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
        messages = []
        for start in range(0, 20, 4):  # four processes at a time
            procs = [
                subprocess.Popen([sys.executable, "-c", MISPLACING_HELPER], stdout=subprocess.PIPE, text=True, env=env)
                for _ in range(start, start + 4)
            ]
            for proc in procs:
                out, _ = proc.communicate(timeout=120)
                assert proc.returncode == 0
                messages.append(json.loads(out.splitlines()[-1]))
        assert len(messages) == 20
        assert all(message and "differ from the tap loop" in message for message in messages)

    def test_one_ulp_off_is_reported(self, monkeypatch):
        exact = tensor_core.conv3x3
        monkeypatch.setattr(
            tensor_core, "conv3x3", lambda x, k: Tensor(np.nextafter(exact(x, k).data, np.inf))
        )
        message = exactness_probe()
        assert message is not None and "\n" not in message
        assert "differ from the tap loop" in message and "first at channel 0, y 0, x 0" in message
