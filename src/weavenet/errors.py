"""Error types shared across the package, and the helpers that format
the values their messages show."""

import math
from dataclasses import dataclass


class ValidationError(ValueError):
    """A precondition or schema violation. Maps to CLI exit code 1."""


def shown(value) -> str:
    """repr(value), with the digit count of each integer too long to convert
    to text in its place, a list's or tuple's items included."""
    try:
        return repr(value)
    except ValueError:  # past sys.get_int_max_str_digits()
        if isinstance(value, (list, tuple)):
            items = ", ".join(map(shown, value)) + "," * (type(value) is tuple and len(value) == 1)
            return f"[{items}]" if isinstance(value, list) else f"({items})"
        magnitude = abs(value)
        digits = int((magnitude.bit_length() - 1) * math.log10(2)) + 1
        while digits > 1 and 10 ** (digits - 1) > magnitude:
            digits -= 1
        while 10**digits <= magnitude:
            digits += 1
        return f"an integer of {digits} digits"


def finite_float(name: str, value) -> float:
    """value as a float; ValidationError unless it is a finite real number, not a bool.

    An integer too large for a float is not finite.
    """
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if math.isfinite(number):
            return number
    raise ValidationError(f"{name} must be a finite number, got {shown(value)}")


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
