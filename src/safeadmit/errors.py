"""Exception types shared across the toolkit, and the checks and 2-vector
coercions that the dataclasses run at construction."""

import math
from dataclasses import fields, is_dataclass
from typing import Tuple

import numpy as np

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


def require_finite(params) -> None:
    """Raise ValidationError naming the first numeric field of the dataclass
    ``params`` that holds NaN or infinity. Strings, None and nested
    dataclasses (which check themselves) are skipped."""
    for f in fields(params):
        value = getattr(params, f.name)
        if value is None or isinstance(value, str) or is_dataclass(value):
            continue
        if not np.isfinite(np.asarray(value, dtype=float)).all():
            raise ValidationError(f"{f.name} must be finite")


def all_finite(*values: float) -> bool:
    """Whether every one of the floats ``values`` is neither NaN nor infinite."""
    return all(map(math.isfinite, values))


def _pair(v) -> np.ndarray:
    """A fresh float 2-vector from a 2-vector, or from a scalar repeated."""
    arr = np.array(v, dtype=float)
    if arr.shape == (2,):
        return arr
    if arr.ndim == 0:
        return np.full(2, float(arr))
    return arr.reshape(2)


def float_pair(v) -> Pair:
    """The two floats of a 2-vector (any sequence of two numbers), or of a
    scalar repeated."""
    try:
        x, y = v
    except TypeError:
        x = y = v
    return float(x), float(y)
