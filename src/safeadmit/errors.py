"""Exception types shared across the toolkit, and the one coercion rule
for parameter fields and 2-vectors.

Every number field of a parameter dataclass becomes a Python float and
every 2-vector field a pair of them (finite_fields). A 2-vector is exactly
two numbers in order (float_pair); only a per-axis coefficient (axis_pair:
k_m, k_b, k_k, the input gain) takes one number for both axes, as the INI
does. A value of the wrong kind raises ValidationError naming the field,
and so does one that is or holds text, and one that is NaN or infinite.
The step's states and desired points are PairRecords."""

from math import isfinite
from numbers import Real
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
        if not isfinite(v):
            return False
    return True


_PAIR_KIND = "a pair of numbers"
_AXES_KIND = "a number or a pair of numbers"
# Text that float() or unpacking would read as numbers ("1.5", b"12"); no
# field takes it.
_TEXT = (str, bytes, bytearray)
# What unpacks into two entries but is no pair: text, or an unordered collection.
_NOT_PAIRS = (*_TEXT, set, frozenset, dict)


def float_pair(v, name: str) -> Pair:
    """The two floats of a 2-vector: any ordered sequence of exactly two
    numbers. Anything else, a lone number, text, a pair holding text, a set
    or a mapping included, raises ValidationError naming the field ``name``."""
    try:
        if type(v) is not tuple and isinstance(v, _NOT_PAIRS):  # the step's pairs are tuples
            raise TypeError
        x, y = v
        if type(x) is float and type(y) is float:  # the step's pairs, as they are
            return x, y
        if isinstance(x, _TEXT) or isinstance(y, _TEXT):
            raise TypeError
        return float(x), float(y)
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must be {_PAIR_KIND}, got {v!r}") from None


def axis_pair(v, name: str) -> Pair:
    """The float pair of a per-axis coefficient (k_m, k_b, k_k, the input
    gain): a pair of numbers, or one number serving both axes, as the INI
    reads them. Anything else raises ValidationError naming ``name``."""
    try:
        return float_pair(v, name)
    except ValidationError:
        if isinstance(v, Real):
            return float(v), float(v)
        raise ValidationError(f"{name} must be {_AXES_KIND}, got {v!r}") from None


def holds_text(v) -> bool:
    """Whether ``v`` is text, or a sequence (not a one-shot iterator) holding text."""
    try:
        return isinstance(v, _TEXT) or (iter(v) is not v and any(map(holds_text, v)))
    except TypeError:  # a number
        return False


def finite_fields(obj, numbers=(), pairs=(), axes=()) -> None:
    """Set each field of ``obj`` named in ``numbers`` to its float, each
    named in ``pairs`` to its float_pair and each named in ``axes`` to its
    axis_pair, in that order. A field that is or holds text (holds_text),
    or is no such number or pair, or whose floats are not all finite,
    raises ValidationError naming it."""
    for names, kind, coerce in ((numbers, "a number", lambda v, _: (float(v),)),
                                (pairs, _PAIR_KIND, float_pair), (axes, _AXES_KIND, axis_pair)):
        for name in names:
            v = getattr(obj, name)
            try:
                if holds_text(v):
                    raise TypeError
                value = coerce(v, name)
            except (TypeError, ValueError):
                raise ValidationError(f"{name} must be {kind}, got {v!r}") from None
            if not all_finite(*value):
                raise ValidationError(f"{name} must be finite")
            object.__setattr__(obj, name, value if len(value) == 2 else value[0])


class PairRecord:
    """A record of 2-vector fields, each a pair of finite floats. A dataclass
    subclass declares the fields, and the noun of its refusal as a class
    keyword. Its constructor coerces each field with float_pair and refuses
    a NaN or an infinity as "<noun> entries must be finite"; of_floats takes
    two float pairs as they are, with that finiteness check only."""

    def __init_subclass__(cls, noun: str, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._names = tuple(cls.__annotations__)
        cls._refusal = f"{noun} entries must be finite"

    def __post_init__(self):
        for name in self._names:
            setattr(self, name, float_pair(getattr(self, name), name))
        if not all_finite(*(x for name in self._names for x in getattr(self, name))):
            raise ValidationError(self._refusal)

    @classmethod
    def of_floats(cls, a: Pair, b: Pair):
        """The record of the two float pairs ``a`` and ``b``, taken as they
        are: the constructor's finiteness check without its coercion."""
        (w, x), (y, z) = a, b
        if not (isfinite(w) and isfinite(x) and isfinite(y) and isfinite(z)):
            raise ValidationError(cls._refusal)
        record, (first, second) = object.__new__(cls), cls._names
        setattr(record, first, a)
        setattr(record, second, b)
        return record
