import copy
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weavenet.weave as weave
from weavenet.bench import corrupt_partition
from weavenet.errors import ValidationError
from weavenet.tensor_core import (
    ConvKernel,
    Tensor,
    conv3x3,
    maxpool_2x2_s2,
    relu,
    upsample_bilinear_x2,
)
from weavenet.weave import (
    Kernels,
    ScaleState,
    WeaveConfig,
    block_naive,
    block_simplified,
    compare_outputs,
    conv_flops,
    flops_weave,
    init_params,
    precompute_sources,
    weave_forward,
    weave_states,
)


def small_config(**overrides) -> WeaveConfig:
    base = dict(
        k=4,
        iterations=2,
        woven_scales=(0, 1, 2),
        raw_channels=(5, 6, 7, 3),
        pyramid_sizes=(8, 4, 2, 1),
        seed=11,
    )
    base.update(overrides)
    return WeaveConfig(**base)


def random_pyramid(config: WeaveConfig, seed: int = 3) -> list[Tensor]:
    rng = np.random.default_rng(seed)
    return [
        Tensor(rng.normal(size=(config.raw_channels[i], s, s)))
        for i, s in enumerate(config.pyramid_sizes)
    ]


@st.composite
def random_geometries(draw) -> WeaveConfig:
    """Any valid geometry: 1-4 scales, unwoven scales of any size (odd
    ones and 1 included) around 1-3 woven scales whose sizes halve down
    to an odd size or 1, raw channels 1-4, k 1-4, T 0-4 and both masks."""
    coarsest = draw(st.sampled_from([1, 2, 3, 5]), label="coarsest woven size")
    woven = draw(st.integers(1, 3 if coarsest < 3 else 2), label="woven scales")
    before = draw(st.lists(st.integers(1, 9), max_size=1), label="finer unwoven sizes")
    after = draw(st.lists(st.integers(1, 3), max_size=4 - woven - len(before)), label="coarser unwoven sizes")
    sizes = (*before, *(coarsest * 2**i for i in reversed(range(woven))), *after)
    td, bu = draw(st.sampled_from([(True, True), (True, False), (False, True), (False, False)]))
    return WeaveConfig(
        k=draw(st.integers(1, 4), label="k"),
        iterations=draw(st.integers(0, 4), label="T"),
        woven_scales=tuple(range(len(before), len(before) + woven)),
        raw_channels=tuple(draw(st.lists(st.integers(1, 4), min_size=len(sizes), max_size=len(sizes)))),
        pyramid_sizes=sizes,
        enable_top_down=td,
        enable_bottom_up=bu,
        seed=draw(st.integers(0, 3), label="seed"),
    )


def directions(cfg: WeaveConfig, i: int) -> tuple[int, int]:
    """(received, emitted) message directions of scale i, from the masks and
    the woven range alone."""
    woven = cfg.woven_scales
    if i not in woven:
        return 0, 0
    finer, coarser = i - 1 in woven, i + 1 in woven
    td, bu = cfg.enable_top_down, cfg.enable_bottom_up
    # down-messages pass from coarser to finer scales, up-messages the other way
    return (td and coarser) + (bu and finer), (td and finer) + (bu and coarser)


def shifted_partition(pyramid, cfg, params, block):
    """The simplified pass with one block's kernel split off by a column, the
    oracle of corrupt_partition: block (scale, t) takes its raw columns one
    column right of where cfg.state_layout puts them, or one column left
    when no down-messages arrive, and convolves its own raw source with
    them; the state's messages are gathered at the true boundary. Other
    blocks run as usual."""
    real = weave.block_simplified

    def shifted_blocks(states, sources, kernels, config):
        outputs = real(states, sources, kernels, config)
        scale, t = block
        if scale not in kernels or states[scale].t + 1 != t:
            return outputs
        state, kernel = states[scale], kernels[scale][t - 1]
        up, raw, down = config.state_layout(scale, state.t)
        if up + down == 0:
            raise ValidationError(f"scale {scale} iteration {t}: no message columns")
        lo = up + (1 if down >= 1 else -1)
        w = kernel.weights
        messages = Tensor(np.concatenate([state.data[:up], state.data[up + raw :]]))
        columns = np.concatenate([w[:, :lo], w[:, lo + raw :]], axis=1)
        features = Tensor(state.data[up : up + raw])
        source = conv3x3(features, ConvKernel(w[:, lo : lo + raw], np.zeros(len(w))))
        outputs[scale] = relu(Tensor(conv3x3(messages, ConvKernel(columns, kernel.bias)).data + source.data))
        return outputs

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(weave, "block_simplified", shifted_blocks)
        return weave_forward(pyramid, cfg, params, "simplified")


class TestWeaveConfig:
    @pytest.mark.parametrize(
        "kwargs,fragment",
        [
            ({"k": True}, "k must be an integer, got true"),
            ({"iterations": 1.5}, "iterations must be an integer, got 1.5"),
            ({"seed": np.int64(1)}, "seed must be an integer"),
            ({"enable_top_down": 1}, "enable_top_down must be true or false, got 1"),
            ({"woven_scales": (0, 1.0)}, "woven_scales must be a list of integers"),
            ({"pyramid_sizes": None}, "pyramid_sizes must be a list of integers, got null"),
            ({"raw_channels": "abc"}, "raw_channels must be a list of integers"),
        ],
    )
    def test_direct_construction_checks_types(self, kwargs, fragment):
        with pytest.raises(ValidationError, match=fragment):
            WeaveConfig(**kwargs)

    def test_direct_construction_turns_lists_into_tuples(self):
        cfg = WeaveConfig(woven_scales=[0, 1], raw_channels=[8] * 6)
        assert cfg.woven_scales == (0, 1) and cfg.raw_channels == (8,) * 6
        assert cfg == WeaveConfig(woven_scales=(0, 1), raw_channels=(8,) * 6)

    def test_default_direction_counts(self):
        cfg = WeaveConfig()
        # ends of the woven range exchange in one direction, interior in two
        assert [cfg.state_layout(i, 1) for i in range(6)] == [
            (0, 32, 16), (16, 32, 16), (16, 32, 16), (16, 32, 0), (0, 32, 0), (0, 32, 0)
        ]
        assert [cfg.emitted_directions(i) for i in range(6)] == [1, 2, 2, 1, 0, 0]
        assert cfg.receives_down(0) and not cfg.receives_up(0)
        assert cfg.receives_up(3) and not cfg.receives_down(3)
        # scale 0 sends only up (scale 1 receives it), scale 3 only down (scale 2 receives it)
        assert cfg.emitted_directions(0) == 1 and cfg.receives_up(1) and not cfg.receives_down(-1)
        assert cfg.emitted_directions(3) == 1 and cfg.receives_down(2) and not cfg.receives_up(4)

    def test_masks_remove_directions(self):
        td = WeaveConfig(enable_bottom_up=False)
        assert [td.state_layout(i, 2) for i in range(4)] == [(0, 32, 32)] * 3 + [(0, 32, 0)]
        assert [td.emitted_directions(i) for i in range(4)] == [0, 1, 1, 1]
        bu = WeaveConfig(enable_top_down=False)
        assert [bu.state_layout(i, 2) for i in range(4)] == [(0, 32, 0)] + [(32, 32, 0)] * 3
        assert [bu.emitted_directions(i) for i in range(4)] == [1, 1, 1, 0]

    def test_state_channels_growth(self):
        cfg = WeaveConfig(k=16)
        assert cfg.state_channels(1, 0) == 32
        assert cfg.state_channels(1, 3) == 32 + 16 * 2 * 3
        assert cfg.state_channels(0, 3) == 32 + 16 * 1 * 3
        assert cfg.state_channels(4, 3) == 32

    def test_rejects_non_consecutive_woven(self):
        with pytest.raises(ValidationError):
            WeaveConfig(woven_scales=(0, 2))

    def test_rejects_bad_spatial_ratio(self):
        with pytest.raises(ValidationError):
            WeaveConfig(woven_scales=(3, 4), pyramid_sizes=(40, 20, 10, 5, 3, 1))

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValidationError):
            WeaveConfig(k=0)
        with pytest.raises(ValidationError):
            WeaveConfig(iterations=-1)
        with pytest.raises(ValidationError):
            WeaveConfig(raw_channels=(32,) * 5)
        with pytest.raises(ValidationError):
            WeaveConfig(woven_scales=(4, 5))

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"raw_channels": (32, 0, 32, 32, 32, 32)}, "raw channel counts must be positive"),
            ({"pyramid_sizes": (40, 20, 10, 5, 0, 1)}, "pyramid sizes must be positive"),
            (
                {"woven_scales": (0, 10**5000)},
                r"woven_scales must be consecutive indices, got \(0, an integer of 5001 digits\)",
            ),
            ({"woven_scales": (5, 6)}, r"woven_scales \(5, 6\) outside pyramid of 6 scales"),
            ({"woven_scales": (-1, 0)}, r"woven_scales \(-1, 0\) outside pyramid of 6 scales"),
        ],
        ids=["raw-zero", "size-zero", "huge-scale", "scale-above", "scale-below"],
    )
    def test_rejects_zero_sizes_and_huge_scales(self, kwargs, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            WeaveConfig(**kwargs)


class TestInitParams:
    def test_kernel_shapes_follow_state_growth(self):
        cfg = small_config()
        params = init_params(cfg)
        assert set(params) == {0, 1, 2}
        # interior scale: two directions in and out
        p1 = params[1]
        assert len(p1) == cfg.iterations
        # benchmark/tests reads a scale's kernels through this field
        assert isinstance(p1, tuple) and p1.kernels is p1
        assert p1[0].weights.shape == (8, 6, 3, 3)
        assert p1[1].weights.shape == (8, 6 + 4 * 2, 3, 3)
        # ends: one direction each way
        assert params[0][1].weights.shape == (4, 5 + 4, 3, 3)
        assert params[2][1].weights.shape == (4, 7 + 4, 3, 3)

    def test_bounds_follow_fan_in(self):
        cfg = small_config(iterations=1)
        params = init_params(cfg)
        for kernels in params.values():
            for kern in kernels:
                s = 1.0 / np.sqrt(kern.in_channels * 9)
                assert np.abs(kern.weights).max() <= s
                assert np.abs(kern.bias).max() <= s

    def test_deterministic_in_seed(self):
        a = init_params(small_config(seed=7))
        b = init_params(small_config(seed=7))
        c = init_params(small_config(seed=8))
        assert np.array_equal(a[1][0].weights, b[1][0].weights)
        assert np.array_equal(a[1][0].bias, b[1][0].bias)
        assert not np.array_equal(a[1][0].weights, c[1][0].weights)


class TestScaleState:
    def test_full_order_is_up_newest_first_then_raw_then_down_oldest_first(self):
        # state t is [up-message of t, state t-1, down-message of t], from the raw features up
        cfg = small_config(iterations=3)
        pyramid = random_pyramid(cfg)
        history = weave_states(pyramid, cfg, init_params(cfg), "naive")
        for i in cfg.woven_scales:
            up = cfg.k if cfg.receives_up(i) else 0
            previous = pyramid[i].data
            for t, states in enumerate(history, start=1):
                state = states[i]
                assert (state.scale, state.t, state.channels) == (i, t, cfg.state_channels(i, t))
                assert state.data[up : up + len(previous)].tobytes() == previous.tobytes()
                previous = state.data
                # state_layout names the same groups: the raw features follow t up-messages
                layout = cfg.state_layout(i, t)
                assert sum(layout) == cfg.state_channels(i, t)
                assert layout == (up * t, cfg.raw_channels[i], state.channels - up * t - cfg.raw_channels[i])
                raw = state.data[layout[0] : layout[0] + layout[1]]
                assert raw.tobytes() == pyramid[i].data.tobytes()

    @settings(deadline=None, max_examples=60)
    @given(cfg=random_geometries(), mode=st.sampled_from(["naive", "simplified"]))
    def test_states_have_their_layout_over_random_geometries(self, cfg, mode):
        pyramid = random_pyramid(cfg, seed=cfg.seed + 7)
        history = weave_states(pyramid, cfg, init_params(cfg), mode)
        assert len(history) == cfg.iterations
        for t, states in enumerate(history, start=1):
            assert sorted(states) == list(cfg.woven_scales)
            for i, state in states.items():
                received, _ = directions(cfg, i)
                assert state.channels == cfg.state_channels(i, t) == cfg.raw_channels[i] + cfg.k * t * received
                up, raw, _ = cfg.state_layout(i, t)
                assert state.data[up : up + raw].tobytes() == pyramid[i].data.tobytes()

    def test_state_is_a_read_only_view_that_full_wraps(self):
        data = np.arange(12.0).reshape(3, 2, 2)
        view = data[1:]
        view.flags.writeable = False
        state = ScaleState(scale=0, t=1, data=view)
        assert state.channels == 2
        assert state.full().data is view  # wrapped, not copied
        assert not state.full().data.flags.writeable
        assert np.array_equal(state.full().data, data[1:])

    @pytest.mark.parametrize("mode", ["naive", "simplified"])
    @pytest.mark.parametrize(
        "flags", [(True, True), (True, False), (False, True)], ids=["both", "top-down-only", "bottom-up-only"]
    )
    def test_history_is_read_only_and_equals_shorter_runs(self, mode, flags):
        td, bu = flags
        cfg = small_config(iterations=3, enable_top_down=td, enable_bottom_up=bu)
        params = init_params(cfg)
        pyramid = random_pyramid(cfg)
        history = weave_states(pyramid, cfg, params, mode)
        for t, states in enumerate(history, start=1):
            # the first t kernels of each scale, as a T=t config wants them; a
            # state's layout does not depend on T, so they split as before
            prefix = {i: Kernels(kernels[:t], cfg, i) for i, kernels in params.items()}
            shorter = weave_states(pyramid, replace(cfg, iterations=t), prefix, mode)[-1]
            assert sorted(states) == sorted(shorter) == list(cfg.woven_scales)
            for i, state in states.items():
                assert not state.data.flags.writeable
                with pytest.raises(ValueError):
                    state.data[0, 0, 0] = 1.0
                assert state.data.shape == shorter[i].data.shape
                assert state.data.tobytes() == shorter[i].data.tobytes()


class TestHandScheduledTwoScales:
    """Spell out two woven scales for two iterations with direct primitive calls."""

    def setup_method(self):
        self.cfg = WeaveConfig(
            k=2,
            iterations=2,
            woven_scales=(0, 1),
            raw_channels=(3, 3),
            pyramid_sizes=(4, 2),
            seed=5,
        )
        self.params = init_params(self.cfg)
        rng = np.random.default_rng(99)
        self.raw0 = Tensor(rng.normal(size=(3, 4, 4)))
        self.raw1 = Tensor(rng.normal(size=(3, 2, 2)))

    def expected_outputs(self):
        k0, k1 = self.params[0], self.params[1]
        out0_1 = relu(conv3x3(self.raw0, k0[0]))  # scale 0 emits up only
        out1_1 = relu(conv3x3(self.raw1, k1[0]))  # scale 1 emits down only
        state0 = np.concatenate([self.raw0.data, upsample_bilinear_x2(out1_1).data])
        state1 = np.concatenate([maxpool_2x2_s2(out0_1).data, self.raw1.data])
        out0_2 = relu(conv3x3(Tensor(state0), k0[1]))
        out1_2 = relu(conv3x3(Tensor(state1), k1[1]))
        final0 = np.concatenate(
            [self.raw0.data, upsample_bilinear_x2(out1_1).data, upsample_bilinear_x2(out1_2).data]
        )
        final1 = np.concatenate(
            [maxpool_2x2_s2(out0_2).data, maxpool_2x2_s2(out0_1).data, self.raw1.data]
        )
        return final0, final1

    def test_naive_forward_matches_hand_schedule_bitwise(self):
        got = weave_forward([self.raw0, self.raw1], self.cfg, self.params, mode="naive")
        final0, final1 = self.expected_outputs()
        assert np.array_equal(got[0].data, final0)
        assert np.array_equal(got[1].data, final1)

    def test_blocks_read_previous_iteration_states(self):
        # swapping the iteration-2 read to post-update states would change scale 1
        history = weave_states([self.raw0, self.raw1], self.cfg, self.params, mode="naive")
        assert [sorted(h) for h in history] == [[0, 1], [0, 1]]
        final0, final1 = self.expected_outputs()
        assert np.array_equal(history[1][1].full().data, final1)
        assert history[0][0].channels == 3 + 2
        assert history[1][0].channels == 3 + 4


class TestEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_naive_and_simplified_agree(self, seed):
        cfg = small_config(seed=seed, iterations=3)
        params = init_params(cfg)
        pyramid = random_pyramid(cfg, seed=seed + 50)
        naive = weave_forward(pyramid, cfg, params, mode="naive")
        simplified = weave_forward(pyramid, cfg, params, mode="simplified")
        worst = compare_outputs(naive, simplified)
        assert worst.deviation <= 1e-9

    @pytest.mark.parametrize(
        "flags", [(True, False), (False, True)], ids=["top-down-only", "bottom-up-only"]
    )
    def test_agreement_under_direction_masks(self, flags):
        td, bu = flags
        cfg = small_config(enable_top_down=td, enable_bottom_up=bu, iterations=3)
        params = init_params(cfg)
        pyramid = random_pyramid(cfg)
        naive = weave_forward(pyramid, cfg, params, mode="naive")
        simplified = weave_forward(pyramid, cfg, params, mode="simplified")
        assert compare_outputs(naive, simplified).deviation <= 1e-9

    def test_grouped_kernel_equals_separate_direction_convs_bitwise(self):
        cfg = small_config()
        params = init_params(cfg)
        kern = params[1][0]
        state = Tensor(np.random.default_rng(4).normal(size=(6, 4, 4)))
        out = block_naive({1: ScaleState(scale=1, t=0, data=state.data)}, {1: kern})[1]
        down_kernel = ConvKernel(kern.weights[: cfg.k], kern.bias[: cfg.k])
        up_kernel = ConvKernel(kern.weights[cfg.k :], kern.bias[cfg.k :])
        assert np.array_equal(out.data[: cfg.k], relu(conv3x3(state, down_kernel)).data)
        assert np.array_equal(out.data[cfg.k :], relu(conv3x3(state, up_kernel)).data)

    def test_corrupted_partition_breaks_agreement(self):
        cfg = small_config(iterations=2)
        params = init_params(cfg)
        pyramid = random_pyramid(cfg)
        naive = weave_forward(pyramid, cfg, params, mode="naive")
        corrupted, reason = corrupt_partition(params, cfg, (1, 2))
        assert reason is None
        bad = weave_forward(pyramid, cfg, corrupted, mode="simplified")
        assert compare_outputs(naive, bad).deviation > 1e-9

    def test_corruption_requires_message_columns(self):
        cfg = small_config(iterations=2)
        params = init_params(cfg)
        assert corrupt_partition(params, cfg, (1, 1)) == (
            params, "scale 1 iteration 1 has no message columns"
        )

    def test_corruption_copies_and_skips_absent_blocks(self):
        cfg = small_config(iterations=2)
        params = init_params(cfg)
        weights = params[1][1].weights.copy()
        bad, _ = corrupt_partition(params, cfg, (1, 2))
        assert np.array_equal(params[1][1].weights, weights)
        assert bad[1] is not params[1] and bad[0] is params[0]
        assert bad[1][0] is params[1][0]
        same, reason = corrupt_partition(params, cfg, (1, 3))
        assert same is params and reason == "scale 1 has no iteration 3"

    @pytest.mark.parametrize("t", [0, -1])
    def test_corruption_refuses_iterations_below_one(self, t):
        # kernels[t - 1] would wrap round to a real kernel
        cfg = small_config(iterations=2)
        params = init_params(cfg)
        assert corrupt_partition(params, cfg, (1, t)) == (params, f"scale 1 has no iteration {t}")

    @settings(deadline=None, max_examples=60)
    @given(
        k=st.integers(1, 5),
        iterations=st.integers(0, 4),
        masks=st.sampled_from([(True, True), (True, False), (False, True), (False, False)]),
        block=st.tuples(st.integers(0, 2), st.integers(1, 5)),
        seed=st.integers(0, 3),
    )
    def test_permuted_kernel_equals_shifted_partition(self, k, iterations, masks, block, seed):
        td, bu = masks
        cfg = small_config(k=k, iterations=iterations, enable_top_down=td, enable_bottom_up=bu, seed=seed)
        params = init_params(cfg)
        pyramid = random_pyramid(cfg, seed=seed)
        corrupted, reason = corrupt_partition(params, cfg, block)
        assert (corrupted is params) == (reason is not None)
        try:
            expected = shifted_partition(pyramid, cfg, params, block)
        except ValidationError:
            assert reason.endswith("no message columns")
            return
        got = weave_forward(pyramid, cfg, corrupted, "simplified")
        for a, b in zip(expected, got):
            assert a.data.tobytes() == b.data.tobytes()


    @settings(deadline=None, max_examples=60)
    @given(cfg=random_geometries())
    def test_modes_agree_over_random_geometries(self, cfg):
        params = init_params(cfg)
        pyramid = random_pyramid(cfg, seed=cfg.seed + 7)
        naive = weave_forward(pyramid, cfg, params, mode="naive")
        simplified = weave_forward(pyramid, cfg, params, mode="simplified")
        assert [t.data.shape for t in naive] == [t.data.shape for t in simplified]
        assert compare_outputs(naive, simplified).deviation <= 1e-9


class TestPrecomputedSources:
    def test_slices_match_per_iteration_convolutions_bitwise(self):
        cfg = small_config(iterations=3)
        params = init_params(cfg)
        pyramid = random_pyramid(cfg)
        raw = {i: pyramid[i] for i in params}
        sources = precompute_sources(raw, params)
        assert sorted(sources) == sorted(params)
        for i, kernels in params.items():
            # one stacked convolution, entry t-1 holding iteration t's rows
            assert sources[i].shape == (cfg.iterations, kernels[0].out_channels, *pyramid[i].shape[1:])
            assert not sources[i].flags.writeable
            for t, (got, kern) in enumerate(zip(sources[i], kernels), start=1):
                up, raw_width, _ = cfg.state_layout(i, t - 1)
                raw_cols = kern.weights[:, up : up + raw_width]
                single = conv3x3(raw[i], ConvKernel(raw_cols, np.zeros(kern.out_channels)))
                assert got.tobytes() == single.data.tobytes()

    def test_no_iterations_no_sources(self):
        cfg = small_config(iterations=0)
        pyramid = random_pyramid(cfg)
        assert precompute_sources({i: pyramid[i] for i in range(3)}, init_params(cfg)) == {}

    def test_first_iteration_block_is_bias_plus_source(self):
        cfg = small_config(iterations=1)
        params = init_params(cfg)
        pyramid = random_pyramid(cfg)
        sources = precompute_sources({1: pyramid[1]}, {1: params[1]})
        state = ScaleState(scale=1, t=0, data=pyramid[1].data)
        kern = params[1][0]
        out = block_simplified({1: state}, {1: sources[1][0]}, {1: params[1]}, cfg)[1]
        expected = np.maximum(kern.bias[:, None, None] + sources[1][0], 0.0)
        assert np.array_equal(out.data, expected)


class TestColumnGroups:
    """Kernels splits each scale's kernel columns once, when params are built."""

    @settings(deadline=None, max_examples=60)
    @given(cfg=random_geometries())
    def test_groups_rebuild_every_full_kernel_bitwise(self, cfg):
        for i, kernels in init_params(cfg).items():
            assert isinstance(kernels, Kernels) and len(kernels.messages) == len(kernels)
            if not kernels:
                assert kernels.raw is None
                continue
            rows = kernels[0].out_channels
            assert kernels.raw.out_channels == rows * len(kernels)
            assert not kernels.raw.bias.view(np.uint64).any()  # +0.0 everywhere
            for t, kernel in enumerate(kernels, start=1):
                up, raw, down = cfg.state_layout(i, t - 1)
                rebuilt = np.full_like(kernel.weights, np.nan)
                rebuilt[:, up : up + raw] = kernels.raw.weights[(t - 1) * rows : t * rows]
                columns = kernels.messages[t - 1]
                assert (columns is None) == (up + down == 0)
                if columns is not None:
                    rebuilt[:, :up] = columns.weights[:, :up]
                    rebuilt[:, up + raw :] = columns.weights[:, up:]
                    assert columns.bias.tobytes() == kernel.bias.tobytes()
                assert rebuilt.tobytes() == kernel.weights.tobytes()

    @pytest.mark.parametrize("copied", [copy.copy, copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))])
    def test_copies_keep_the_groups_as_split(self, copied):
        cfg = small_config()
        params = init_params(cfg)
        again = copied(params)
        for i, kernels in params.items():
            assert type(again[i]) is Kernels and again[i].layouts == kernels.layouts
            groups = zip((*kernels, kernels.raw, *kernels.messages), (*again[i], again[i].raw, *again[i].messages))
            for a, b in groups:
                assert (a is None and b is None) or a.matrix.tobytes() == b.matrix.tobytes()
        pyramid = random_pyramid(cfg)
        for a, b in zip(weave_forward(pyramid, cfg, params), weave_forward(pyramid, cfg, again)):
            assert a.data.tobytes() == b.data.tobytes()

    def test_a_simplified_pass_builds_no_kernel_and_deletes_no_columns(self, monkeypatch):
        cfg = small_config(iterations=3)
        params = init_params(cfg)
        pyramid = random_pyramid(cfg)
        built, deleted = [], []
        real_init, real_delete = ConvKernel.__init__, np.delete

        def counting_init(kernel, weights, bias):
            built.append(np.shape(weights))
            real_init(kernel, weights, bias)

        def counting_delete(arr, *args, **kwargs):
            deleted.append(np.ndim(arr))
            return real_delete(arr, *args, **kwargs)

        monkeypatch.setattr(ConvKernel, "__init__", counting_init)
        monkeypatch.setattr(np, "delete", counting_delete)
        weave_forward(pyramid, cfg, params, "simplified")
        assert built == []
        # scale 1 gathers its messages from both sides of the raw group: states only
        assert deleted and set(deleted) == {3}


class TestForwardShapes:
    def test_output_channels_grow_by_k_per_received_direction_per_iteration(self):
        cfg = WeaveConfig(k=16, iterations=2)
        params = init_params(cfg)
        rng = np.random.default_rng(0)
        pyramid = [Tensor(rng.normal(size=(32, s, s))) for s in cfg.pyramid_sizes]
        out = weave_forward(pyramid, cfg, params, mode="simplified")
        assert [o.channels for o in out] == [64, 96, 96, 64, 32, 32]
        assert [(o.height, o.width) for o in out] == [(s, s) for s in cfg.pyramid_sizes]

    def test_zero_iterations_is_identity(self):
        cfg = small_config(iterations=0)
        params = init_params(cfg)
        pyramid = random_pyramid(cfg)
        out = weave_forward(pyramid, cfg, params, mode="naive")
        for a, b in zip(out, pyramid):
            assert np.array_equal(a.data, b.data)

    def test_unwoven_scales_pass_through(self):
        cfg = small_config(iterations=2)
        params = init_params(cfg)
        pyramid = random_pyramid(cfg)
        out = weave_forward(pyramid, cfg, params, mode="simplified")
        assert np.array_equal(out[3].data, pyramid[3].data)

    def test_both_directions_disabled_passes_raw_through(self):
        cfg = small_config(enable_top_down=False, enable_bottom_up=False)
        params = init_params(cfg)
        assert params == {}
        pyramid = random_pyramid(cfg)
        out = weave_forward(pyramid, cfg, params, mode="simplified")
        for a, b in zip(out, pyramid):
            assert np.array_equal(a.data, b.data)

    def test_rejects_mismatched_pyramid(self):
        cfg = small_config()
        params = init_params(cfg)
        pyramid = random_pyramid(cfg)
        bad = pyramid[:1] + [Tensor(np.ones((6, 5, 4)))] + pyramid[2:]
        with pytest.raises(ValidationError):
            weave_forward(bad, cfg, params)
        with pytest.raises(ValidationError):
            weave_forward(pyramid[:-1], cfg, params)
        with pytest.raises(ValidationError):
            weave_forward(pyramid, cfg, params, mode="fast")

    def test_rejects_wrong_channel_count(self):
        cfg = small_config()
        pyramid = random_pyramid(cfg)
        bad = pyramid[:1] + [Tensor(np.ones((5, 4, 4)))] + pyramid[2:]
        with pytest.raises(ValidationError, match="^scale 1: expected 6 channels, got 5$"):
            weave_forward(bad, cfg, init_params(cfg))


class TestParamsMatchConfig:
    """Params drawn for another config end in one ValidationError that names
    the scale (and the iteration), raised before any block runs."""

    @pytest.mark.parametrize("mode", ["naive", "simplified"])
    @pytest.mark.parametrize(
        "other,message",
        [
            ({"enable_bottom_up": False}, "scale 0: config runs a block there, params hold no kernels"),
            ({"enable_top_down": False}, "scale 2: config runs a block there, params hold no kernels"),
            ({"k": 3}, r"scale 0 iteration 1: kernel has shape \(3, 5, 3, 3\), config expects \(4, 5, 3, 3\)"),
            ({"iterations": 3}, "scale 0 iteration 3: params hold a kernel, config runs 2 iterations"),
        ],
        ids=["top-down-only", "bottom-up-only", "k", "T"],
    )
    def test_params_of_another_config_are_rejected(self, other, message, mode):
        cfg = small_config()
        pyramid = random_pyramid(cfg)
        with pytest.raises(ValidationError, match=f"^{message}$"):
            weave_forward(pyramid, cfg, init_params(replace(cfg, **other)), mode)

    def test_missing_and_extra_kernels_are_named(self):
        cfg = small_config(enable_top_down=False)  # scales 0 and 1 emit, scale 2 does not
        params = init_params(cfg)
        pyramid = random_pyramid(cfg)
        with pytest.raises(ValidationError, match="^scale 2: params hold kernels, config runs no block there$"):
            weave_forward(pyramid, cfg, {**params, 2: params[1]})
        short = {**params, 1: params[1][:1]}
        with pytest.raises(ValidationError, match="^scale 1 iteration 2: params hold no kernel, config runs 2 iterations$"):
            weave_forward(pyramid, cfg, short)
        with pytest.raises(ValidationError, match="^scale 1: config runs a block there, params hold no kernels$"):
            weave_forward(pyramid, replace(cfg, iterations=0), {0: ()})

    @pytest.mark.parametrize("mode", ["naive", "simplified"])
    @pytest.mark.parametrize(
        "scale_kernels,message",
        [
            (lambda cfg: tuple(init_params(cfg)[1]), "params hold a tuple, not a weave.Kernels"),
            # the same shapes under the other one-way mask, but the raw group
            # sits at the other end of the state
            (
                lambda cfg: init_params(replace(cfg, enable_top_down=False, enable_bottom_up=True))[1],
                "params split their kernel columns for another state layout",
            ),
        ],
        ids=["plain-tuple", "other-layout"],
    )
    def test_kernels_without_matching_column_groups_are_rejected(self, scale_kernels, message, mode):
        cfg = small_config(enable_bottom_up=False)
        params = {**init_params(cfg), 1: scale_kernels(cfg)}
        with pytest.raises(ValidationError, match=f"^scale 1: {message}$"):
            weave_forward(random_pyramid(cfg), cfg, params, mode)


class TestPropagationSpeed:
    def test_information_moves_at_most_one_scale_per_iteration(self):
        base = small_config(woven_scales=(0, 1, 2, 3), pyramid_sizes=(8, 4, 2, 1), iterations=1)
        pyramid = random_pyramid(base, seed=21)
        bumped = list(pyramid)
        bumped[3] = Tensor(pyramid[3].data + 10.0)

        for iterations, unaffected in [(1, {0, 1}), (2, {0}), (3, set())]:
            cfg = small_config(
                woven_scales=(0, 1, 2, 3), pyramid_sizes=(8, 4, 2, 1), iterations=iterations
            )
            params = init_params(cfg)
            out_a = weave_forward(pyramid, cfg, params, mode="naive")
            out_b = weave_forward(bumped, cfg, params, mode="naive")
            for i in range(4):
                same = np.array_equal(out_a[i].data, out_b[i].data)
                if i in unaffected:
                    assert same, f"scale {i} changed after {iterations} iterations"
                else:
                    assert not same, f"scale {i} unchanged after {iterations} iterations"


class TestCompareOutputs:
    def test_zero_for_identical(self):
        cfg = small_config()
        pyramid = random_pyramid(cfg)
        worst = compare_outputs(pyramid, pyramid)
        assert worst.deviation == 0.0

    def test_locates_single_perturbed_element(self):
        rng = np.random.default_rng(1)
        a = [Tensor(rng.normal(size=(2, 3, 3))), Tensor(rng.normal(size=(2, 2, 2)))]
        data = a[1].data.copy()
        data[1, 0, 1] += 5e-7
        b = [a[0], Tensor(data)]
        worst = compare_outputs(a, b)
        assert (worst.scale, worst.channel, worst.y, worst.x) == (1, 1, 0, 1)
        assert worst.deviation == pytest.approx(5e-7, rel=1e-6)

    def test_rejects_mismatched_lists(self):
        a = [Tensor(np.ones((2, 3, 3))), Tensor(np.ones((2, 2, 2)))]
        with pytest.raises(ValidationError, match="^output lists have different scale counts$"):
            compare_outputs(a, a[:1])
        b = [a[0], Tensor(np.ones((3, 2, 2)))]
        with pytest.raises(ValidationError, match=r"^scale 1: shape mismatch \(2, 2, 2\) vs \(3, 2, 2\)$"):
            compare_outputs(a, b)


class TestFlops:
    def test_conv_flops_reference_points(self):
        assert conv_flops(256, 256, 40, 40) == 1_887_436_800
        assert conv_flops(32, 32, 40, 40) == 29_491_200
        assert conv_flops(256, 256, 40, 40) == 64 * conv_flops(32, 32, 40, 40)

    def test_default_config_totals_by_hand(self):
        cfg = WeaveConfig(k=16, iterations=2)
        naive = flops_weave(cfg, "naive")
        simplified = flops_weave(cfg, "simplified")
        # iteration 1 reads 32-channel raw states everywhere
        it1 = (
            conv_flops(32, 16, 40, 40)
            + conv_flops(32, 32, 20, 20)
            + conv_flops(32, 32, 10, 10)
            + conv_flops(32, 16, 5, 5)
        )
        it2 = (
            conv_flops(48, 16, 40, 40)
            + conv_flops(64, 32, 20, 20)
            + conv_flops(64, 32, 10, 10)
            + conv_flops(48, 16, 5, 5)
        )
        assert naive.per_iteration == (it1, it2)
        assert naive.precompute == 0
        assert naive.total == 65_088_000

        msg2 = (
            conv_flops(16, 16, 40, 40)
            + conv_flops(32, 32, 20, 20)
            + conv_flops(32, 32, 10, 10)
            + conv_flops(16, 16, 5, 5)
        )
        assert simplified.per_iteration == (0, msg2)
        assert simplified.precompute == it1
        assert simplified.total == 40_896_000

    @settings(deadline=None, max_examples=200)
    @given(cfg=random_geometries())
    def test_costs_follow_the_hand_formulas_over_random_geometries(self, cfg):
        naive, simplified = flops_weave(cfg, "naive"), flops_weave(cfg, "simplified")
        k, T, sizes = cfg.k, cfg.iterations, cfg.pyramid_sizes
        raw_products = 0
        for i, (raw, s) in enumerate(zip(cfg.raw_channels, sizes)):
            raw_products += conv_flops(raw, k * directions(cfg, i)[1], s, s)
        assert naive.total - simplified.total == max(T - 1, 0) * raw_products
        assert naive.precompute == 0
        assert simplified.precompute == (raw_products if T >= 1 else 0)
        assert len(naive.per_iteration) == len(simplified.per_iteration) == T
        for t in range(1, T + 1):
            messages = [k * (t - 1) * directions(cfg, i)[0] for i in range(len(sizes))]
            assert naive.per_iteration[t - 1] == sum(
                conv_flops(raw + m, k * directions(cfg, i)[1], s, s)
                for i, (raw, m, s) in enumerate(zip(cfg.raw_channels, messages, sizes))
            )
            assert simplified.per_iteration[t - 1] == sum(
                conv_flops(m, k * directions(cfg, i)[1], s, s) for i, (m, s) in enumerate(zip(messages, sizes))
            )

    @settings(deadline=None, max_examples=200)
    @given(cfg=random_geometries())
    def test_simplified_costs_nothing_only_when_naive_does(self, cfg):
        # so ModeComparison.flop_ratio never divides a nonzero naive total by zero
        naive, simplified = flops_weave(cfg, "naive"), flops_weave(cfg, "simplified")
        assert (naive.total == 0) == (simplified.total == 0)

    def test_single_iteration_costs_match(self):
        cfg = WeaveConfig(k=16, iterations=1)
        assert flops_weave(cfg, "naive").total == flops_weave(cfg, "simplified").total

    def test_simplified_is_cheaper_beyond_one_iteration(self):
        for t in (2, 3, 5):
            for k in (16, 32, 64):
                cfg = WeaveConfig(k=k, iterations=t)
                assert flops_weave(cfg, "simplified").total < flops_weave(cfg, "naive").total

    def test_zero_iterations_cost_nothing(self):
        cfg = WeaveConfig(iterations=0)
        assert flops_weave(cfg, "naive").total == 0
        assert flops_weave(cfg, "simplified").total == 0

    def test_masked_directions_shrink_the_bill(self):
        full = flops_weave(WeaveConfig(iterations=3), "naive")
        td = flops_weave(WeaveConfig(iterations=3, enable_bottom_up=False), "naive")
        bu = flops_weave(WeaveConfig(iterations=3, enable_top_down=False), "naive")
        assert td.total < full.total
        assert bu.total < full.total

    def test_unknown_mode_is_rejected(self):
        with pytest.raises(ValidationError, match=r"^mode must be one of \('naive', 'simplified'\), got 'fast'$"):
            flops_weave(WeaveConfig(), "fast")
