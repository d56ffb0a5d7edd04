"""Tests for the dense tensor type and neural primitives.

conv3x3 is checked against a scalar nested-loop reference and against the
elementwise loop it replaced, both accumulating in the same documented
order, so agreement is expected to be bit-exact.
"""

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
    conv3x3_taps,
    exactness_probe,
    maxpool_2x2_s2,
    relu,
    split_channels,
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
    @example(cin=160, cout=16, h=41, w=40, seed=3)  # many row chunks, the last one partial
    def test_bytes_equal_loop(self, cin, cout, h, w, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(spread_values(rng, (cin, h, w)))
        k = ConvKernel(spread_values(rng, (cout, cin, 3, 3)), spread_values(rng, cout))
        assert_same_bits(conv3x3(x, k).data, conv3x3_loop(x, k))

    def test_example_spans_several_chunks_with_a_partial_last(self, monkeypatch):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(160, 41, 40)))
        rows = chunk_rows(monkeypatch, x, ConvKernel(rng.normal(size=(16, 160, 3, 3)), np.zeros(16)))
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

    def test_split_inverts_concat(self):
        rng = np.random.default_rng(10)
        a = random_tensor(rng, 4, 3, 3)
        b = random_tensor(rng, 4, 3, 3)
        c = random_tensor(rng, 2, 3, 3)
        back = split_channels(concat_channels([a, b, c]), [4, 4, 2])
        for orig, got in zip([a, b, c], back):
            assert np.array_equal(orig.data, got.data)

    def test_spatial_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            concat_channels([Tensor(np.ones((1, 2, 2))), Tensor(np.ones((1, 3, 3)))])

    def test_split_size_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            split_channels(Tensor(np.ones((8, 2, 2))), [4, 3])


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
    return precompute_sources(raw, params, cfg)


class TestFreshTensorsAreSealed:
    """Results built without a defensive copy are still read-only, and no
    array a caller holds can change them afterwards."""

    OPS = {
        "conv3x3": lambda x: conv3x3(x, ConvKernel(np.ones((2, 3, 3, 3)), np.ones(2))),
        "relu": relu,
        "upsample": upsample_bilinear_x2,
        "maxpool": maxpool_2x2_s2,
        "concat": lambda x: concat_channels([x, x]),
        "split": lambda x: split_channels(x, [1, 2])[1],
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
        first, second = _tiny_sources()[0]
        for got in (first, second):
            assert not got.data.flags.writeable
            with pytest.raises(ValueError):
                got.data[0, 0, 0] = 1.0
        # consecutive rows of one convolution's output
        stacked = first.data.base
        assert second.data.base is stacked
        assert np.array_equal(stacked.reshape(-1, *first.shape[1:]), np.concatenate([first.data, second.data]))

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

    def test_one_ulp_off_is_reported(self, monkeypatch):
        exact = tensor_core.conv3x3
        monkeypatch.setattr(
            tensor_core, "conv3x3", lambda x, k: Tensor(np.nextafter(exact(x, k).data, np.inf))
        )
        message = exactness_probe()
        assert message is not None and "\n" not in message
        assert "differ from the tap loop" in message and "first at channel 0, y 0, x 0" in message
