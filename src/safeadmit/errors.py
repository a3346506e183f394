"""Exception types shared across the toolkit, and the finiteness check
that parameter dataclasses run at construction."""

from dataclasses import fields, is_dataclass

import numpy as np


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
