import numpy as np
import pytest

from weavenet.bench import (
    BENCH_STREAM,
    EQUIVALENCE_TOL,
    DATA_COLUMNS,
    TIMING_COLUMNS,
    check_modes,
    compare_modes,
    data_row,
    masks_label,
    timing_row,
)
from weavenet.errors import EquivalenceError, ValidationError
from weavenet.fixtures import make_raw_pyramid
from weavenet.weave import WeaveConfig, flops_weave, init_params


def tiny_config(**overrides) -> WeaveConfig:
    base = dict(
        k=2,
        iterations=2,
        woven_scales=(0, 1, 2),
        raw_channels=(4, 4, 4, 4),
        pyramid_sizes=(8, 4, 2, 1),
        seed=17,
    )
    base.update(overrides)
    return WeaveConfig(**base)


class TestBenchReport:
    def test_single_sample_report(self):
        cfg = tiny_config()
        (cmp,) = compare_modes([cfg], warmup=0, reps=1)
        report = cmp.simplified
        assert len(report.times) == 1
        assert report.warmup == 0 and report.reps == 1
        assert report.mode == "simplified"
        assert report.flops == flops_weave(cfg, "simplified")
        assert report.mean_time > 0.0
        assert report.stddev_time == 0.0
        assert report.throughput > 0.0

    def test_flops_identical_across_runs(self):
        cfg = tiny_config()
        a, b = (compare_modes([cfg], warmup=0, reps=2)[0].naive for _ in range(2))
        assert a.flops == b.flops
        assert a.flops.total == b.flops.total

    def test_bench_pyramid_keeps_its_seed_stream(self):
        cfg = tiny_config()
        rng = np.random.default_rng([cfg.seed, 4])
        for tensor, c, size in zip(make_raw_pyramid(cfg, BENCH_STREAM), cfg.raw_channels, cfg.pyramid_sizes):
            assert np.array_equal(tensor.data, rng.normal(size=(c, size, size)))

    def test_simplified_flops_lower_at_depth(self):
        cfg = WeaveConfig(k=16, iterations=5)
        naive = flops_weave(cfg, "naive")
        simplified = flops_weave(cfg, "simplified")
        assert simplified.total < naive.total

    def test_stddev_and_throughput_formulas(self):
        cfg = tiny_config(iterations=1)
        report = compare_modes([cfg], warmup=0, reps=3)[0].simplified
        times = np.array(report.times)
        assert report.mean_time == pytest.approx(times.mean(), rel=1e-12)
        assert report.stddev_time == pytest.approx(times.std(), rel=1e-9)
        assert report.stddev_time >= 0.0
        assert report.throughput == pytest.approx(3.0 / times.sum(), rel=1e-12)
        assert report.flops_per_second == pytest.approx(
            report.flops.total * report.throughput, rel=1e-12
        )

    def test_rejects_bad_counts_before_any_pass(self, bench_passes):
        with pytest.raises(ValidationError, match="^reps must be >= 1, got 0$"):
            compare_modes([tiny_config()], reps=0)
        with pytest.raises(ValidationError, match="^warmup must be >= 0, got -1$"):
            compare_modes([tiny_config()], warmup=-1)
        assert bench_passes == []


class TestCompareModes:
    def test_equivalence_gate_and_ratios(self):
        cfg = tiny_config(iterations=3)
        (cmp,) = compare_modes([cfg], warmup=0, reps=1)
        assert cmp.worst_deviation <= EQUIVALENCE_TOL
        assert cmp.flop_ratio > 1.0
        assert cmp.time_ratio > 0.0
        assert cmp.naive.flops.total > cmp.simplified.flops.total

    def test_single_iteration_flop_ratio_is_one(self):
        (cmp,) = compare_modes([tiny_config(iterations=1)], warmup=0, reps=1)
        assert cmp.flop_ratio == 1.0

    def test_corrupted_partition_aborts_with_location(self):
        cfg = tiny_config(iterations=2)
        with pytest.raises(EquivalenceError) as err:
            compare_modes([cfg], warmup=0, reps=1, corrupt_block=(1, 2))
        worst = err.value.worst
        assert worst is not None
        assert worst.deviation > EQUIVALENCE_TOL
        assert "scale" in str(err.value)

    def test_corrupt_block_below_first_iteration_is_refused(self):
        with pytest.raises(ValidationError, match="^cannot corrupt partition: scale 1 has no iteration 0$"):
            compare_modes([tiny_config(iterations=2)], warmup=0, reps=1, corrupt_block=(1, 0))

    def test_corrupt_block_past_every_config_is_refused_before_any_pass(self, bench_passes):
        configs = [tiny_config(iterations=1), tiny_config(iterations=2)]
        message = "^cannot corrupt partition: scale 1 has no iteration 3 at any sweep T \\(largest 2\\)$"
        with pytest.raises(ValidationError, match=message):
            compare_modes(configs, warmup=0, reps=1, corrupt_block=(1, 3))
        assert bench_passes == []

    def test_every_check_pass_runs_before_the_first_timed_pass(self, bench_passes):
        # the block is past T=1, so that config checks clean; T=2 then disagrees
        configs = [tiny_config(iterations=1), tiny_config(iterations=2)]
        with pytest.raises(EquivalenceError):
            compare_modes(configs, warmup=0, reps=1, corrupt_block=(1, 2))
        assert [(c[1].iterations, c[3]) for c in bench_passes] == [
            (1, "naive"), (1, "simplified"), (2, "naive"), (2, "simplified")
        ]

    def test_check_modes_returns_the_clean_params(self):
        cfg = tiny_config(iterations=2)
        pyramid = make_raw_pyramid(cfg, BENCH_STREAM)
        params, worst, reason = check_modes(cfg, pyramid, corrupt_block=(1, 2))
        assert reason is None and worst.deviation > EQUIVALENCE_TOL
        clean = init_params(cfg)
        assert params.keys() == clean.keys()
        for scale, kernels in clean.items():
            for a, b in zip(params[scale], kernels, strict=True):
                assert np.array_equal(a.weights, b.weights) and np.array_equal(a.bias, b.bias)

    @pytest.mark.parametrize(
        "block,reason", [(None, None), ((1, 3), "scale 1 has no iteration 3")], ids=["none", "beyond-T"]
    )
    def test_check_modes_without_corruption_agrees(self, block, reason):
        cfg = tiny_config(iterations=2)
        _, worst, why = check_modes(cfg, make_raw_pyramid(cfg, BENCH_STREAM), block)
        assert why == reason
        assert worst.deviation <= EQUIVALENCE_TOL

    def test_zero_iterations_ratio_is_one(self):
        (cmp,) = compare_modes([tiny_config(iterations=0)], warmup=0, reps=1)
        assert cmp.flop_ratio == 1.0
        assert cmp.worst_deviation == 0.0


class TestLabelsAndRows:
    def test_masks_label(self):
        assert masks_label(tiny_config()) == "both"
        assert masks_label(tiny_config(enable_bottom_up=False)) == "top-down-only"
        assert masks_label(tiny_config(enable_top_down=False)) == "bottom-up-only"
        assert (
            masks_label(tiny_config(enable_top_down=False, enable_bottom_up=False)) == "none"
        )

    def test_data_row_is_deterministic_and_aligned(self):
        cfg = tiny_config()
        a, b = (compare_modes([cfg], warmup=0, reps=1)[0].naive for _ in range(2))
        assert data_row(a, 1.5, 0.0) == data_row(b, 1.5, 0.0)
        assert len(data_row(a, 1.5, 0.0)) == len(DATA_COLUMNS)

    def test_timing_row_shape(self):
        cfg = tiny_config()
        report = compare_modes([cfg], warmup=0, reps=2)[0].simplified
        row = timing_row(report)
        assert row[0] == "simplified"
        assert len(row) == len(TIMING_COLUMNS) == 10
