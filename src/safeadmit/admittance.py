"""Mass-spring-damper admittance reference generator.

The virtual MSD relating the reference motion x_r to the interaction force
is rewritten per axis as a control-affine double integrator

    x1dot = x2
    x2dot = drift(x1, x2, desired) + (1/k_m) * force

with the force as the control input. Axes are decoupled.

Every 2-vector here is a float pair: the parameters, the states and the
desired points hold two Python floats per field, and drift_term and
admittance_step take and return pairs, so the step never builds an array.
"""

from dataclasses import dataclass
from typing import Callable, Sequence, Union

from .errors import Pair, ValidationError, all_finite, float_pair, require_finite


@dataclass
class AdmittanceParams:
    """Per-axis MSD coefficients; a scalar serves both axes."""

    k_m: Pair = 20.0
    k_b: Pair = 20.0
    k_k: Pair = 100.0

    def __post_init__(self):
        self.k_m = float_pair(self.k_m)
        self.k_b = float_pair(self.k_b)
        self.k_k = float_pair(self.k_k)
        require_finite(self)
        if not min(self.k_m) > 0.0:
            raise ValidationError("k_m must be positive")
        if min(self.k_b) < 0.0 or min(self.k_k) < 0.0:
            raise ValidationError("k_b and k_k must be nonnegative")

    @property
    def input_gain(self) -> Pair:
        k_mx, k_my = self.k_m
        return 1.0 / k_mx, 1.0 / k_my


@dataclass
class AdmittanceState:
    x1: Pair
    x2: Pair

    def __post_init__(self):
        self.x1 = float_pair(self.x1)
        self.x2 = float_pair(self.x2)
        if not all_finite(*self.x1, *self.x2):
            raise ValidationError("admittance state entries must be finite")


@dataclass
class DesiredPoint:
    x_d: Pair
    xdot_d: Pair
    xddot_d: Pair

    def __post_init__(self):
        self.x_d = float_pair(self.x_d)
        self.xdot_d = float_pair(self.xdot_d)
        self.xddot_d = float_pair(self.xddot_d)


DesiredInput = Union[DesiredPoint, Callable[[float], DesiredPoint],
                     Sequence[DesiredPoint]]


def _msd_accel(k_m: float, k_b: float, k_k: float, x1: float, x2: float,
               x_d: float, xdot_d: float, xddot_d: float) -> float:
    """One axis of the MSD's force-free acceleration at position x1 and
    velocity x2 about the desired (x_d, xdot_d, xddot_d)."""
    return -(k_b * (x2 - xdot_d) + k_k * (x1 - x_d) - k_m * xddot_d) / k_m


def drift_term(params: AdmittanceParams, state: AdmittanceState,
               desired: DesiredPoint) -> Pair:
    """Force-free acceleration of the reference per axis."""
    ax, ay = map(_msd_accel, params.k_m, params.k_b, params.k_k, state.x1, state.x2,
                 desired.x_d, desired.xdot_d, desired.xddot_d)
    return ax, ay


def _rk4_axis(k_m, k_b, k_k, gf, x1, x2, points, i, dt):
    """Axis i of the RK4 step under the held input acceleration gf; points
    are the desired samples at t, t + dt/2 and t + dt. Returns the next
    (x1, x2) of that axis."""
    def accel(x1, x2, d):
        return _msd_accel(k_m, k_b, k_k, x1, x2, d.x_d[i], d.xdot_d[i], d.xddot_d[i]) + gf

    d0, dh, d1 = points
    k1p, k1v = x2, accel(x1, x2, d0)
    k2p, k2v = x2 + 0.5 * dt * k1v, accel(x1 + 0.5 * dt * k1p, x2 + 0.5 * dt * k1v, dh)
    k3p, k3v = x2 + 0.5 * dt * k2v, accel(x1 + 0.5 * dt * k2p, x2 + 0.5 * dt * k2v, dh)
    k4p, k4v = x2 + dt * k3v, accel(x1 + dt * k3p, x2 + dt * k3v, d1)
    return (x1 + dt / 6.0 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p),
            x2 + dt / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v))


def admittance_step(params: AdmittanceParams, state: AdmittanceState,
                    desired: DesiredInput, force, dt: float,
                    t: float = 0.0) -> AdmittanceState:
    """One RK4 step with the force pair zero-order-held across the step.

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
    k_m, k_b, k_k, g = params.k_m, params.k_b, params.k_k, params.input_gain
    x1, x2 = state.x1, state.x2
    (x1x, x2x), (x1y, x2y) = [
        _rk4_axis(k_m[i], k_b[i], k_k[i], g[i] * f, x1[i], x2[i], desired, i, dt)
        for i, f in enumerate(float_pair(force))]
    return AdmittanceState((x1x, x1y), (x2x, x2y))
