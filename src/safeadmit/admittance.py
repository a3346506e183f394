"""Mass-spring-damper admittance reference generator.

The virtual MSD relating the reference motion x_r to the interaction force
is rewritten per axis as a control-affine double integrator

    x1dot = x2
    x2dot = drift(x1, x2, desired) + (1/k_m) * force

with the force as the control input. Axes are decoupled.

Every 2-vector here is a float pair: the parameters, the states and the
desired points hold two Python floats per field, and drift_term and
admittance_step take and return pairs, so the step never builds an array.
The constructors coerce each field with float_pair and refuse entries
that are not finite; the step builds its states and desired points with
of_floats, which takes the pairs it has just computed as they are. A
state's of_floats keeps the finiteness check, a desired point's skips it.
The RK4 step is straight-line float code per axis over _msd_accel, the
one MSD acceleration that drift_term also evaluates. Its desired input is
one DesiredPoint held over the step, or the three samples at the RK4
substep times.
"""

from dataclasses import dataclass
from math import isfinite
from typing import Sequence, Union

from .errors import Pair, ValidationError, all_finite, finite_fields, float_pair


@dataclass
class AdmittanceParams:
    """Per-axis MSD coefficients; a scalar serves both axes."""

    k_m: Pair = 20.0
    k_b: Pair = 20.0
    k_k: Pair = 100.0

    def __post_init__(self):
        finite_fields(self, pairs=("k_m", "k_b", "k_k"))
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
        self.x1 = float_pair(self.x1, "x1")
        self.x2 = float_pair(self.x2, "x2")
        self._require_finite()

    def _require_finite(self):
        (a, b), (c, d) = self.x1, self.x2
        if not (isfinite(a) and isfinite(b) and isfinite(c) and isfinite(d)):
            raise ValidationError("admittance state entries must be finite")

    @classmethod
    def of_floats(cls, x1: Pair, x2: Pair) -> "AdmittanceState":
        """The state of two float pairs taken as they are: the constructor's
        finiteness check without its coercion."""
        state = object.__new__(cls)
        state.x1, state.x2 = x1, x2
        state._require_finite()
        return state


@dataclass
class DesiredPoint:
    x_d: Pair
    xdot_d: Pair
    xddot_d: Pair

    def __post_init__(self):
        self.x_d = float_pair(self.x_d, "x_d")
        self.xdot_d = float_pair(self.xdot_d, "xdot_d")
        self.xddot_d = float_pair(self.xddot_d, "xddot_d")
        if not all_finite(*self.x_d, *self.xdot_d, *self.xddot_d):
            raise ValidationError("desired point entries must be finite")

    @classmethod
    def of_floats(cls, x_d: Pair, xdot_d: Pair, xddot_d: Pair) -> "DesiredPoint":
        """The point of three float pairs taken as they are, without the
        constructor's coercion and finiteness check."""
        point = object.__new__(cls)
        point.x_d, point.xdot_d, point.xddot_d = x_d, xdot_d, xddot_d
        return point


DesiredInput = Union[DesiredPoint, Sequence[DesiredPoint]]


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


def _rk4_axis(k_m, k_b, k_k, gf, x1, x2, x_d0, xdot_d0, xddot_d0, x_dh, xdot_dh,
              xddot_dh, x_d1, xdot_d1, xddot_d1, dt):
    """One axis of the RK4 step under the held input acceleration gf; the
    desired samples at t, t + dt/2 and t + dt come as that axis's floats.
    Returns the next (x1, x2) of the axis."""
    h = 0.5 * dt
    k1p, k1v = x2, _msd_accel(k_m, k_b, k_k, x1, x2, x_d0, xdot_d0, xddot_d0) + gf
    k2p = x2 + h * k1v
    k2v = _msd_accel(k_m, k_b, k_k, x1 + h * k1p, k2p, x_dh, xdot_dh, xddot_dh) + gf
    k3p = x2 + h * k2v
    k3v = _msd_accel(k_m, k_b, k_k, x1 + h * k2p, k3p, x_dh, xdot_dh, xddot_dh) + gf
    k4p = x2 + dt * k3v
    k4v = _msd_accel(k_m, k_b, k_k, x1 + dt * k3p, k4p, x_d1, xdot_d1, xddot_d1) + gf
    k = dt / 6.0
    return (x1 + k * (k1p + 2.0 * k2p + 2.0 * k3p + k4p),
            x2 + k * (k1v + 2.0 * k2v + 2.0 * k3v + k4v))


def admittance_step(params: AdmittanceParams, state: AdmittanceState,
                    desired: DesiredInput, force, dt: float) -> AdmittanceState:
    """One RK4 step with the force pair zero-order-held across the step.

    ``desired`` is a single DesiredPoint (held constant), or its three
    samples at the RK4 substep times t, t + dt/2 and t + dt as a sequence,
    so that several references stepped over the same interval can share
    one sampling.
    """
    if not dt > 0.0:
        raise ValidationError("dt must be positive")
    if isinstance(desired, DesiredPoint):
        d0 = dh = d1 = desired
    elif isinstance(desired, (tuple, list)) and len(desired) == 3:
        d0, dh, d1 = desired
    else:
        raise ValidationError("desired needs a DesiredPoint or its samples at "
                              "t, t + dt/2 and t + dt")
    fx, fy = float_pair(force, "force")
    gx, gy = params.input_gain
    (x1x, x2x), (x1y, x2y) = map(
        _rk4_axis, params.k_m, params.k_b, params.k_k, (gx * fx, gy * fy),
        state.x1, state.x2, d0.x_d, d0.xdot_d, d0.xddot_d, dh.x_d, dh.xdot_d,
        dh.xddot_d, d1.x_d, d1.xdot_d, d1.xddot_d, (dt, dt))
    return AdmittanceState.of_floats((x1x, x1y), (x2x, x2y))
