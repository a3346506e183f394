"""Mass-spring-damper admittance reference generator.

The virtual MSD relating the reference motion x_r to the interaction force
is rewritten per axis as a control-affine double integrator

    x1dot = x2
    x2dot = drift(x1, x2, desired) + (1/k_m) * force

with the force as the control input. Axes are decoupled.
"""

from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .errors import ValidationError, _pair, _xy, all_finite, require_finite


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
        if not all_finite(*self.x1.tolist(), *self.x2.tolist()):
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


DesiredInput = Union[DesiredPoint, Callable[[float], DesiredPoint],
                     Sequence[DesiredPoint]]


def _axes(d: DesiredPoint):
    """Per axis, the desired (position, velocity, acceleration)."""
    return tuple(zip(d.x_d.tolist(), d.xdot_d.tolist(), d.xddot_d.tolist()))


def _msd_accel(k_m: float, k_b: float, k_k: float, x1: float, x2: float,
               desired) -> float:
    """One axis of the MSD's force-free acceleration at position x1 and
    velocity x2; ``desired`` is that axis's (x_d, xdot_d, xddot_d)."""
    x_d, xdot_d, xddot_d = desired
    return -(k_b * (x2 - xdot_d) + k_k * (x1 - x_d) - k_m * xddot_d) / k_m


def drift_term(params: AdmittanceParams, state: AdmittanceState,
               desired: DesiredPoint) -> np.ndarray:
    """Force-free acceleration of the reference per axis."""
    return np.array([_msd_accel(*k, x1, x2, d) for k, x1, x2, d in zip(
        zip(params.k_m.tolist(), params.k_b.tolist(), params.k_k.tolist()),
        state.x1.tolist(), state.x2.tolist(), _axes(desired))])


def admittance_step(params: AdmittanceParams, state: AdmittanceState,
                    desired: DesiredInput, force, dt: float,
                    t: float = 0.0) -> AdmittanceState:
    """One RK4 step with the force zero-order-held across the step.

    ``desired`` is a single DesiredPoint (held constant), a callable
    t -> DesiredPoint sampled at the RK4 substep times t, t + dt/2 and
    t + dt, or those three samples as a sequence, so that several
    references stepped over the same interval can share one sampling.
    """
    if not dt > 0.0:
        raise ValidationError("dt must be positive")
    if isinstance(desired, DesiredPoint):
        desired = (desired,) * 3
    elif callable(desired):
        desired = (desired(t), desired(t + 0.5 * dt), desired(t + dt))
    elif len(desired) != 3:
        raise ValidationError("desired needs its samples at t, t + dt/2 and t + dt")
    x1_next, x2_next = [], []
    for k_m, k_b, k_k, g, f, x1, x2, d0, dh, d1 in zip(
            params.k_m.tolist(), params.k_b.tolist(), params.k_k.tolist(),
            params.input_gain.tolist(), _xy(force), state.x1.tolist(),
            state.x2.tolist(), *map(_axes, desired)):
        gf = g * f

        def accel(x1, x2, des):
            return _msd_accel(k_m, k_b, k_k, x1, x2, des) + gf

        k1p, k1v = x2, accel(x1, x2, d0)
        k2p, k2v = x2 + 0.5 * dt * k1v, accel(x1 + 0.5 * dt * k1p, x2 + 0.5 * dt * k1v, dh)
        k3p, k3v = x2 + 0.5 * dt * k2v, accel(x1 + 0.5 * dt * k2p, x2 + 0.5 * dt * k2v, dh)
        k4p, k4v = x2 + dt * k3v, accel(x1 + dt * k3p, x2 + dt * k3v, d1)
        x1_next.append(x1 + dt / 6.0 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p))
        x2_next.append(x2 + dt / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v))
    return AdmittanceState(x1_next, x2_next)
