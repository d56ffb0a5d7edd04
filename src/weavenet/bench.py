"""FLOP accounting and wall-clock comparison of the two fusion modes.

FLOP figures are exact integers from the analytic counter and never depend
on timing; wall times cover real forward passes (the simplified mode's
precomputation included) on seeded synthetic pyramids.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import EquivalenceError, ValidationError
from .fixtures import make_raw_pyramid
from .tensor_core import ConvKernel, Tensor
from .weave import (
    DIRECTION_MASKS,
    Params,
    WeaveConfig,
    WeaveFlops,
    compare_outputs,
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


@dataclass(frozen=True)
class BenchReport:
    """One mode's timing and analytic cost on a fixed config.

    times holds one wall-clock sample per repetition, each covering `batch`
    sequential forward passes. outputs is the last pass's result, kept so
    callers can confirm that measurement never altered the computation.
    """

    mode: str
    config: WeaveConfig
    warmup: int
    reps: int
    batch: int
    times: tuple[float, ...]
    flops: WeaveFlops
    outputs: list[Tensor] = field(compare=False, repr=False)

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
        return self.batch * self.reps / self.total_time

    @property
    def flops_per_second(self) -> float:
        return self.flops.total * self.throughput


def run_bench(
    config: WeaveConfig,
    mode: str,
    warmup: int = 3,
    reps: int = 20,
    batch: int = 1,
    params: Params | None = None,
    pyramid: list[Tensor] | None = None,
) -> BenchReport:
    """Time `reps` measured repetitions of `batch` forward passes each.

    Warmup passes run unmeasured first; inputs and parameters are seeded
    from the config, so FLOP figures and outputs are identical across runs.
    """
    if reps < 1:
        raise ValidationError(f"reps must be >= 1, got {reps}")
    if warmup < 0:
        raise ValidationError(f"warmup must be >= 0, got {warmup}")
    if batch < 1:
        raise ValidationError(f"batch must be >= 1, got {batch}")
    if params is None:
        params = init_params(config)
    if pyramid is None:
        pyramid = make_raw_pyramid(config, BENCH_STREAM)

    for _ in range(warmup):
        weave_forward(pyramid, config, params, mode)

    times = []
    outputs = None
    for _ in range(reps):
        start = time.perf_counter()
        for _ in range(batch):
            outputs = weave_forward(pyramid, config, params, mode)
        times.append(time.perf_counter() - start)

    return BenchReport(
        mode=mode,
        config=config,
        warmup=warmup,
        reps=reps,
        batch=batch,
        times=tuple(times),
        flops=flops_weave(config, mode),
        outputs=outputs,
    )


@dataclass(frozen=True)
class ModeComparison:
    naive: BenchReport
    simplified: BenchReport
    worst_deviation: float

    @property
    def flop_ratio(self) -> float:
        """Naive FLOPs over simplified FLOPs (1.0 when both are zero)."""
        n, s = self.naive.flops.total, self.simplified.flops.total
        if s == 0:
            return 1.0 if n == 0 else float("inf")
        return n / s

    @property
    def time_ratio(self) -> float:
        return self.naive.mean_time / self.simplified.mean_time


def uncorruptible(config: WeaveConfig, block: tuple[int, int]) -> str | None:
    """Why corrupt_partition cannot misplace a column of block (scale, t)
    under config, or None when it can: the scale runs no block under the
    direction masks, t is beyond the last iteration, or the block reads no
    message columns because the scale receives no messages."""
    scale, t = block
    if config.emitted_directions(scale) == 0:
        return f"scale {scale} runs no block"
    if t > config.iterations:
        return f"scale {scale} has no iteration {t}"
    up, _raw, down = config.state_layout(scale, t - 1)
    if up + down == 0:
        return f"scale {scale} iteration {t} has no message columns"
    return None


def corrupt_partition(params: Params, config: WeaveConfig, block: tuple[int, int]) -> Params:
    """A copy of params whose simplified pass misplaces one raw column.

    Iteration t's kernel of scale `block = (scale, t)` gets its columns
    permuted so that the ordinary message/raw split moves the raw group one
    column right (the first raw column joins the messages), or one column
    left when the scale receives no down-messages. The naive pass reads the
    full state in canonical order and so is unaffected. Blocks the params
    do not hold, such as an iteration beyond the last, are left alone; a
    block without message columns raises ValidationError.
    """
    scale, t = block
    kernels = params.get(scale, ())
    if t > len(kernels):
        return params
    reason = uncorruptible(config, block)
    if reason is not None:
        raise ValidationError(f"cannot corrupt partition: {reason}")
    up, raw, down = config.state_layout(scale, t - 1)
    kernel = kernels[t - 1]
    cols = list(range(kernel.in_channels))
    if down >= 1:
        cols[up : up + raw + 1] = cols[up + 1 : up + raw + 1] + [up]
    else:
        cols[up - 1 : up + raw] = [up + raw - 1] + cols[up - 1 : up + raw - 1]
    corrupted = ConvKernel(kernel.weights[:, cols], kernel.bias)
    return {**params, scale: kernels[: t - 1] + (corrupted,) + kernels[t:]}


def compare_modes(
    config: WeaveConfig,
    warmup: int = 3,
    reps: int = 20,
    batch: int = 1,
    corrupt_block: tuple[int, int] | None = None,
) -> ModeComparison:
    """Benchmark both modes on identical inputs after checking they agree.

    The equivalence gate runs before any timing: if the modes' outputs
    differ by more than the tolerance anywhere, the comparison aborts with
    the worst-mismatch location. A corrupt_block beyond the config's last
    iteration is ignored; one the masks never run, or one that reads no
    message columns, raises ValidationError.
    """
    params = init_params(config)
    checked = params
    if corrupt_block is not None and corrupt_block[1] <= config.iterations:
        reason = uncorruptible(config, corrupt_block)
        if reason is not None:
            raise ValidationError(f"cannot corrupt partition: {reason}")
        checked = corrupt_partition(params, config, corrupt_block)
    pyramid = make_raw_pyramid(config, BENCH_STREAM)
    naive_out = weave_forward(pyramid, config, params, "naive")
    simplified_out = weave_forward(pyramid, config, checked, "simplified")
    worst = compare_outputs(naive_out, simplified_out)
    if worst.deviation > EQUIVALENCE_TOL:
        raise EquivalenceError(
            f"modes disagree by {worst.deviation:.3e} at {worst} (tolerance {EQUIVALENCE_TOL:.0e})",
            worst=worst,
        )
    naive = run_bench(config, "naive", warmup, reps, batch, params=params, pyramid=pyramid)
    simplified = run_bench(
        config, "simplified", warmup, reps, batch, params=params, pyramid=pyramid
    )
    return ModeComparison(naive=naive, simplified=simplified, worst_deviation=worst.deviation)


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
    "batch",
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


def timing_row(report: BenchReport) -> list[str]:
    return [
        report.mode,
        str(report.config.k),
        str(report.config.iterations),
        masks_label(report.config),
        str(report.warmup),
        str(report.reps),
        str(report.batch),
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
