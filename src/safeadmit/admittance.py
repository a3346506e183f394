"""Mass-spring-damper admittance reference generator.

The virtual MSD relating the reference motion x_r to the interaction force
is rewritten per axis as a control-affine double integrator

    x1dot = x2
    x2dot = drift(x1, x2, desired) + (1/k_m) * force

with the force as the control input. Axes are decoupled.
"""

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import ValidationError, require_finite


def _pair(v) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.ndim == 0:
        arr = np.full(2, float(arr))
    return arr.reshape(2).copy()


@dataclass
class AdmittanceParams:
    k_m: np.ndarray = 20.0
    k_b: np.ndarray = 20.0
    k_k: np.ndarray = 100.0

    def __post_init__(self):
        self.k_m = _pair(self.k_m)
        self.k_b = _pair(self.k_b)
        self.k_k = _pair(self.k_k)
        require_finite(self)
        if not (self.k_m > 0.0).all():
            raise ValidationError("k_m must be positive")
        if (self.k_b < 0.0).any() or (self.k_k < 0.0).any():
            raise ValidationError("k_b and k_k must be nonnegative")

    @property
    def input_gain(self) -> np.ndarray:
        return 1.0 / self.k_m


@dataclass
class AdmittanceState:
    x1: np.ndarray
    x2: np.ndarray

    def __post_init__(self):
        self.x1 = _pair(self.x1)
        self.x2 = _pair(self.x2)
        if not (np.isfinite(self.x1).all() and np.isfinite(self.x2).all()):
            raise ValidationError("admittance state entries must be finite")


@dataclass
class DesiredPoint:
    x_d: np.ndarray
    xdot_d: np.ndarray
    xddot_d: np.ndarray

    def __post_init__(self):
        self.x_d = _pair(self.x_d)
        self.xdot_d = _pair(self.xdot_d)
        self.xddot_d = _pair(self.xddot_d)


DesiredInput = Union[DesiredPoint, Callable[[float], DesiredPoint]]


def _msd_accel(params: AdmittanceParams, x1, x2, desired: DesiredPoint) -> np.ndarray:
    """The MSD's force-free acceleration at position x1 and velocity x2."""
    return -(params.k_b * (x2 - desired.xdot_d)
             + params.k_k * (x1 - desired.x_d)
             - params.k_m * desired.xddot_d) / params.k_m


def drift_term(params: AdmittanceParams, state: AdmittanceState,
               desired: DesiredPoint) -> np.ndarray:
    """Force-free acceleration of the reference per axis."""
    return _msd_accel(params, state.x1, state.x2, desired)


def admittance_step(params: AdmittanceParams, state: AdmittanceState,
                    desired: DesiredInput, force, dt: float,
                    t: float = 0.0) -> AdmittanceState:
    """One RK4 step with the force zero-order-held across the step.

    ``desired`` may be a single DesiredPoint (held constant) or a callable
    t -> DesiredPoint sampled at the RK4 substep times.
    """
    if not dt > 0.0:
        raise ValidationError("dt must be positive")
    gf = params.input_gain * _pair(force)

    if callable(desired):
        d0 = desired(t)
        dh = desired(t + 0.5 * dt)
        d1 = desired(t + dt)
    else:
        d0 = dh = d1 = desired

    def accel(x1, x2, des):
        return _msd_accel(params, x1, x2, des) + gf

    x1, x2 = state.x1, state.x2
    k1p, k1v = x2, accel(x1, x2, d0)
    k2p, k2v = x2 + 0.5 * dt * k1v, accel(x1 + 0.5 * dt * k1p, x2 + 0.5 * dt * k1v, dh)
    k3p, k3v = x2 + 0.5 * dt * k2v, accel(x1 + 0.5 * dt * k2p, x2 + 0.5 * dt * k2v, dh)
    k4p, k4v = x2 + dt * k3v, accel(x1 + dt * k3p, x2 + dt * k3v, d1)
    return AdmittanceState(
        x1 + dt / 6.0 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p),
        x2 + dt / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v),
    )
