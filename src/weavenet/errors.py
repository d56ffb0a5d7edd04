"""Error types shared across the package."""

from dataclasses import dataclass


class ValidationError(ValueError):
    """A precondition or schema violation. Maps to CLI exit code 1."""


class EquivalenceError(RuntimeError):
    """Naive and simplified forward passes disagreed beyond tolerance."""

    def __init__(self, message: str, worst: "MismatchLocation | None" = None):
        super().__init__(message)
        self.worst = worst


@dataclass(frozen=True)
class MismatchLocation:
    """Worst-deviation coordinates reported by an equivalence check."""

    scale: int
    channel: int
    y: int
    x: int
    deviation: float

    def __str__(self) -> str:
        return f"scale {self.scale}, channel {self.channel}, y {self.y}, x {self.x}"
