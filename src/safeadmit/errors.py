"""Exception types shared across the toolkit, and the one coercion rule
for parameter fields.

Every number field of a parameter dataclass becomes a Python float and
every 2-vector field a pair of them (finite_fields); a value that is not a
number, or not a number or a pair, raises ValidationError naming the field,
and so does one that is or holds text, and one that is NaN or infinite."""

import math
from typing import Tuple

# A 2-vector of the step (a position, a force, a gain per axis) as two
# Python floats; a 2x2 matrix is a pair of row pairs.
Pair = Tuple[float, float]


class SingularConfiguration(RuntimeError):
    """Jacobian determinant below the configured tolerance."""


class InfeasibleQp(RuntimeError):
    """The constraint polyhedron is empty (no force satisfies all barrier rows)."""


class StartOutsideSafeSet(RuntimeError):
    """Scenario starts with the reference state outside an enabled safe set."""


class SimulationAborted(RuntimeError):
    """A run stopped early; the partial trace is attached as ``.trace``."""

    def __init__(self, message, cause, trace):
        super().__init__(message)
        self.cause = cause
        self.trace = trace


class ConfigError(ValueError):
    """Scenario config file could not be parsed."""


class ValidationError(ValueError):
    """A parameter violates one of its invariants."""


def all_finite(*values: float) -> bool:
    """Whether every one of the floats ``values`` is neither NaN nor infinite."""
    for v in values:
        if not math.isfinite(v):
            return False
    return True


_PAIR_KIND = "a number or a pair of numbers"
# Text that float() or unpacking would read as numbers ("1.5", b"12"); no
# field takes it.
_TEXT = (str, bytes, bytearray)


def float_pair(v, name: str) -> Pair:
    """The two floats of a 2-vector (any sequence of two numbers), or of a
    scalar repeated. Anything else, a string or bytes included, raises
    ValidationError naming the field ``name``."""
    try:
        if isinstance(v, _TEXT):
            raise TypeError
        try:
            x, y = v
        except TypeError:
            x = y = v
        return float(x), float(y)
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must be {_PAIR_KIND}, got {v!r}") from None


def holds_text(v) -> bool:
    """Whether ``v`` is text, or a sequence (not a one-shot iterator) holding text."""
    try:
        return isinstance(v, _TEXT) or (iter(v) is not v and any(map(holds_text, v)))
    except TypeError:  # a number
        return False


def finite_fields(obj, numbers=(), pairs=()) -> None:
    """Set each field of ``obj`` named in ``numbers`` to its float and each
    named in ``pairs`` to its float_pair, in that order. A field that is
    or holds text (holds_text), or is no such number or pair, or whose
    floats are not all finite, raises ValidationError naming it."""
    for name in (*numbers, *pairs):
        v, is_number = getattr(obj, name), name in numbers
        try:
            if holds_text(v):
                raise TypeError
            value = (float(v),) if is_number else float_pair(v, name)
        except (TypeError, ValueError):
            kind = "a number" if is_number else _PAIR_KIND
            raise ValidationError(f"{name} must be {kind}, got {v!r}") from None
        if not all_finite(*value):
            raise ValidationError(f"{name} must be finite")
        setattr(obj, name, value[0] if is_number else value)
