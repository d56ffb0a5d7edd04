"""Error types shared across the package, the helpers that format the
values their messages show, and the base of the package's record types."""

import math
from dataclasses import FrozenInstanceError


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


class Record:
    """An immutable record: what a frozen dataclass gives, without the code a
    dataclass generates for every class when its module is imported.

    A record names its fields in `__slots__` and sets them in its own
    `__init__` with object.__setattr__. Its repr shows its fields; it equals
    an instance of its own class with equal fields, hashes by its fields,
    and raises FrozenInstanceError on assignment and deletion.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return type(self), self._fields()


class MismatchLocation(Record):
    """Worst-deviation coordinates reported by an equivalence check."""

    __slots__ = ("scale", "channel", "y", "x", "deviation")

    def __init__(self, scale: int, channel: int, y: int, x: int, deviation: float):
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "channel", channel)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "deviation", deviation)

    def __str__(self) -> str:
        return f"scale {self.scale}, channel {self.channel}, y {self.y}, x {self.x}"
