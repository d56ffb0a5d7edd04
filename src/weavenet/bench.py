"""FLOP accounting and wall-clock comparison of the two fusion modes.

FLOP figures are exact integers from the analytic counter and never depend
on timing; wall times cover real forward passes (the simplified mode's
precomputation included) on seeded synthetic pyramids.
"""

from __future__ import annotations

import time

import numpy as np

from .errors import EquivalenceError, MismatchLocation, Record, ValidationError
from .fixtures import make_raw_pyramid
from .tensor_core import ConvKernel, Tensor
from .weave import (
    DIRECTION_MASKS,
    Kernels,
    Params,
    WeaveConfig,
    WeaveFlops,
    compare_outputs,
    conv_flops,
    flops_weave,
    init_params,
    weave_forward,
)

EQUIVALENCE_TOL = 1e-9


def masks_label(config: WeaveConfig) -> str:
    flags = (config.enable_top_down, config.enable_bottom_up)
    return next((label for label, f in DIRECTION_MASKS.items() if f == flags), "none")


# seed stream of the standard-normal raw pyramid every benchmark run uses
BENCH_STREAM = 4


class BenchReport(Record):
    """One mode's timing and analytic cost on a fixed config.

    times holds one wall-clock sample per repetition, each covering one
    forward pass.
    """

    __slots__ = ("mode", "config", "warmup", "reps", "times", "flops")

    def __init__(
        self, mode: str, config: WeaveConfig, warmup: int, reps: int, times: tuple[float, ...], flops: WeaveFlops
    ):
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "config", config)
        object.__setattr__(self, "warmup", warmup)
        object.__setattr__(self, "reps", reps)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "flops", flops)

    @property
    def total_time(self) -> float:
        return sum(self.times)

    @property
    def mean_time(self) -> float:
        return self.total_time / len(self.times)

    @property
    def stddev_time(self) -> float:
        mean = self.mean_time
        return float(np.sqrt(sum((t - mean) ** 2 for t in self.times) / len(self.times)))

    @property
    def throughput(self) -> float:
        """Forward passes per second over all measured repetitions."""
        return self.reps / self.total_time

    @property
    def flops_per_second(self) -> float:
        return self.flops.total * self.throughput


class ModeComparison(Record):
    __slots__ = ("naive", "simplified", "worst_deviation")

    def __init__(self, naive: BenchReport, simplified: BenchReport, worst_deviation: float):
        object.__setattr__(self, "naive", naive)
        object.__setattr__(self, "simplified", simplified)
        object.__setattr__(self, "worst_deviation", worst_deviation)

    @property
    def flop_ratio(self) -> float:
        """Naive FLOPs over simplified FLOPs (1.0 when both are zero, the
        only way the simplified total can be zero)."""
        n, s = self.naive.flops.total, self.simplified.flops.total
        return n / s if s else 1.0

    @property
    def time_ratio(self) -> float:
        return self.naive.mean_time / self.simplified.mean_time


def corrupt_partition(
    params: Params, config: WeaveConfig, block: tuple[int, int]
) -> tuple[Params, str | None]:
    """(A copy of params whose simplified pass misplaces one raw column, None),
    or (params, why block cannot be corrupted under config).

    Iteration t's kernel of scale `block = (scale, t)` gets its columns
    permuted so that the message/raw split Kernels makes of them moves the
    raw group one column right (the first raw column joins the messages),
    or one column left when the scale receives no down-messages; the
    scale's kernels are then split again. The naive pass reads the
    full state in canonical order and so is unaffected. A block cannot be
    corrupted when the direction masks never run it, when t is not one of
    the iterations 1..T, or when it reads no message columns because the
    scale receives no messages.
    """
    scale, t = block
    if config.emitted_directions(scale) == 0:
        return params, f"scale {scale} runs no block"
    if not 1 <= t <= config.iterations:
        return params, f"scale {scale} has no iteration {t}"
    up, raw, down = config.state_layout(scale, t - 1)
    if up + down == 0:
        return params, f"scale {scale} iteration {t} has no message columns"
    kernels = params[scale]
    kernel = kernels[t - 1]
    cols = list(range(kernel.in_channels))
    if down >= 1:
        cols[up : up + raw + 1] = cols[up + 1 : up + raw + 1] + [up]
    else:
        cols[up - 1 : up + raw] = [up + raw - 1] + cols[up - 1 : up + raw - 1]
    corrupted = ConvKernel(kernel.weights[:, cols], kernel.bias)
    return {**params, scale: Kernels(kernels[: t - 1] + (corrupted,) + kernels[t:], config, scale)}, None


def check_modes(
    config: WeaveConfig, pyramid: list[Tensor], corrupt_block: tuple[int, int] | None = None
) -> tuple[Params, MismatchLocation, str | None]:
    """(params, worst deviation, reason) of the naive-vs-simplified check.

    One naive pass runs on fresh params from the config and one simplified
    pass on the same params with corrupt_block's partition corrupted. reason
    is None, or why corrupt_partition left the block alone; the simplified
    pass then reads the clean params too.
    """
    params = init_params(config)
    checked, reason = (params, None) if corrupt_block is None else corrupt_partition(params, config, corrupt_block)
    naive = weave_forward(pyramid, config, params, "naive")
    simplified = weave_forward(pyramid, config, checked, "simplified")
    return params, compare_outputs(naive, simplified), reason


def compare_modes(
    configs: list[WeaveConfig],
    warmup: int = 3,
    reps: int = 20,
    corrupt_block: tuple[int, int] | None = None,
) -> list[ModeComparison]:
    """Check, then time, both modes of every config on identical inputs.

    A corrupt_block past every config's T, and bad counts, are refused
    before any pass. Every config's check pair then runs before the first
    timed pass: a mismatch beyond the tolerance aborts with its worst
    location, and a block corrupt_partition cannot corrupt raises
    ValidationError unless its iteration is past that config's T (the
    config then runs uncorrupted). Last, each config's clean params run
    per mode, naive first: `warmup` unmeasured passes, then `reps` timed.
    """
    largest = max((config.iterations for config in configs), default=0)
    if corrupt_block is not None and corrupt_block[1] > largest:
        scale, t = corrupt_block
        raise ValidationError(
            f"cannot corrupt partition: scale {scale} has no iteration {t} at any sweep T (largest {largest})"
        )
    if reps < 1:
        raise ValidationError(f"reps must be >= 1, got {reps}")
    if warmup < 0:
        raise ValidationError(f"warmup must be >= 0, got {warmup}")

    checked = []
    for config in configs:
        pyramid = make_raw_pyramid(config, BENCH_STREAM)
        params, worst, reason = check_modes(config, pyramid, corrupt_block)
        if reason is not None and corrupt_block[1] <= config.iterations:
            raise ValidationError(f"cannot corrupt partition: {reason}")
        if worst.deviation > EQUIVALENCE_TOL:
            raise EquivalenceError(
                f"modes disagree by {worst.deviation:.3e} at {worst} (tolerance {EQUIVALENCE_TOL:.0e})",
                worst=worst,
            )
        checked.append((config, pyramid, params, worst.deviation))

    comparisons = []
    for config, pyramid, params, deviation in checked:
        reports = []
        for mode in ("naive", "simplified"):
            for _ in range(warmup):
                weave_forward(pyramid, config, params, mode)
            times = []
            for _ in range(reps):
                start = time.perf_counter()
                weave_forward(pyramid, config, params, mode)
                times.append(time.perf_counter() - start)
            reports.append(BenchReport(mode, config, warmup, reps, tuple(times), flops_weave(config, mode)))
        comparisons.append(ModeComparison(*reports, worst_deviation=deviation))
    return comparisons


DATA_COLUMNS = (
    "mode",
    "k",
    "iterations",
    "masks",
    "flops_precompute",
    "flops_iterations",
    "flops_total",
    "flop_ratio_vs_naive",
    "worst_deviation",
)

TIMING_COLUMNS = (
    "mode",
    "k",
    "iterations",
    "masks",
    "warmup",
    "reps",
    "mean_s",
    "stddev_s",
    "throughput_passes_per_s",
    "flops_per_s",
)


# One row per (k, T) of `weavenet bench`: wall-clock means beside the FLOP
# ratio they should track. Printed only; never part of a CSV.
RATIO_COLUMNS = (
    "k",
    "iterations",
    "naive_mean_s",
    "simplified_mean_s",
    "time_ratio",
    "flop_ratio",
)


def data_row(report: BenchReport, flop_ratio: float, worst_deviation: float) -> list[str]:
    """Deterministic CSV cells (no wall-clock fields)."""
    return [
        report.mode,
        str(report.config.k),
        str(report.config.iterations),
        masks_label(report.config),
        str(report.flops.precompute),
        str(sum(report.flops.per_iteration)),
        str(report.flops.total),
        f"{flop_ratio:.6f}",
        f"{worst_deviation:.3e}",
    ]


def baseline_row() -> list[str]:
    """DATA_COLUMNS cells of the reference cost: one 3x3 convolution from
    256 to 256 channels on a 40x40 map."""
    flops = str(conv_flops(256, 256, 40, 40))
    return ["baseline-3x3-256", "256", "1", "-", "0", flops, flops, "", ""]


def timing_row(report: BenchReport) -> list[str]:
    return [
        report.mode,
        str(report.config.k),
        str(report.config.iterations),
        masks_label(report.config),
        str(report.warmup),
        str(report.reps),
        f"{report.mean_time:.6f}",
        f"{report.stddev_time:.6f}",
        f"{report.throughput:.3f}",
        f"{report.flops_per_second:.3e}",
    ]


def ratio_row(cmp: ModeComparison) -> list[str]:
    return [
        str(cmp.naive.config.k),
        str(cmp.naive.config.iterations),
        f"{cmp.naive.mean_time:.6f}",
        f"{cmp.simplified.mean_time:.6f}",
        f"{cmp.time_ratio:.3f}",
        f"{cmp.flop_ratio:.3f}",
    ]
