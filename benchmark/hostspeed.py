"""Host-speed calibration: a fixed loop timed between operations.

On a shared VM the same operation can take twice as long from one second to
the next, because other tenants take the core's resources. The calibration
loop does a fixed mix of the work weavenet does, scalar Python box
arithmetic and NumPy elementwise passes, without calling weavenet, so a
change to weavenet cannot move it. An operation's reference time is its wall
time scaled by `REFERENCE_LOOP_S` over the loop's time around it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# The loop's time on the reference host (2-core x86-64 VM, Python 3.11.7,
# NumPy 2.4.6) when it is not slowed down; reference times are wall times
# at that speed.
REFERENCE_LOOP_S = 0.025
EVERY_S = 0.25  # calibrate after an operation once this long has passed

_PLANES = np.random.default_rng(0).normal(size=(16, 42, 42))
_WEIGHTS = np.random.default_rng(1).normal(size=(32,))
_BOXES = [(i * 0.37 % 50.0, i * 0.91 % 50.0, 10.0 + i % 7, 12.0 + i % 5) for i in range(1500)]


def loop_seconds() -> float:
    """Wall time of one fixed calibration loop (about 25-35 ms)."""
    t0 = perf_counter()
    overlap = 0.0
    for a in _BOXES[::50]:
        for b in _BOXES[:300]:
            iw = min(a[0] + a[2], b[0] + b[2]) - max(a[0], b[0])
            ih = min(a[1] + a[3], b[1] + b[3]) - max(a[1], b[1])
            overlap += max(iw, 0.0) * max(ih, 0.0)
    sorted(_BOXES, key=lambda b: (-b[2], b[0]))
    term = np.empty((32, 40, 40))
    acc = np.zeros((32, 40, 40))
    for c in range(16):
        for dy in range(3):
            for dx in range(3):
                np.multiply(_WEIGHTS[:, None, None], _PLANES[c, dy:dy + 40, dx:dx + 40], out=term)
                np.add(acc, term, out=acc)
    return perf_counter() - t0


class Calibrator:
    """Calibration loops timed along a run, and the scale factor at each point."""

    def __init__(self):
        self.loops: list[float] = []
        self.last = perf_counter()
        self.measure()

    def measure(self) -> int:
        """Time one loop now; returns its index."""
        self.loops.append(loop_seconds())
        self.last = perf_counter()
        return len(self.loops) - 1

    def due(self) -> bool:
        return perf_counter() - self.last >= EVERY_S

    def factor(self, before: int, after: int) -> float:
        """Scale for a span between loops `before` and `after` (indices)."""
        return REFERENCE_LOOP_S * 2.0 / (self.loops[before] + self.loops[after])
