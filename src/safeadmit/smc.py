"""Fixed-time integral sliding-mode tracker in task space.

Control force f_c = u0 + u_s:
- u0 is a backstepping-style nominal law that cancels the (friction-free)
  task-space dynamics and applies linear + signed-power feedback on the
  position and velocity surfaces.
- u_s reacts to the drift of an integral sliding variable sigma, which
  accumulates the mismatch between the measured error dynamics and the
  nominal model, and thereby rejects unmodelled friction and the external
  human force.

The signed power [z]^a = sign(z)*|z|^a is used wherever fractional
exponents of possibly-negative errors appear. The discontinuous switching
term is smoothed by a boundary-layer saturation by default; pure sign
switching is available behind ``use_sign`` for fidelity runs.

control is straight-line float code on per-axis helpers shared with the
public per-term functions (the nominal law with nominal_control, the
sliding variable and its integrand with compensating_control and
sliding_variable), in their operation order, so control equals
nominal_control plus compensating_control bit for bit.
"""

import math
from dataclasses import dataclass, fields
from typing import Tuple

import numpy as np

from .admittance import DesiredPoint
from .arm import CartesianDynamicsTerms, CartesianState
from .errors import Pair, ValidationError, all_finite, require_finite

# Floor on |z| in the slope of signed powers with exponent < 1; keeps the
# nominal feedback finite as the surface crosses zero at finite step size.
POWER_SLOPE_FLOOR = 1e-6


@dataclass
class FxtismcGains:
    lambda1: float = 3.0
    lambda2: float = 20.0
    lambda3: float = 50.0
    alpha: float = 5.0 / 7.0
    beta: float = 5.0 / 3.0
    kappa1: float = 20.0
    kappa2: float = 50.0
    kappa3: float = 20.0
    kappa4: float = 50.0
    m_exp: float = 5.0 / 7.0
    n_exp: float = 5.0 / 3.0
    p_exp: float = 5.0 / 7.0
    q_exp: float = 5.0 / 3.0
    rho: float = 30.0
    epsilon: float = 5.0
    boundary_layer: float = 1e-3
    use_sign: bool = False
    force_limit: float = 1e5

    def __post_init__(self):
        require_finite(self)
        for f in fields(self):
            if f.name != "use_sign":
                setattr(self, f.name, float(getattr(self, f.name)))
        positive = ("lambda1", "lambda2", "lambda3", "kappa1", "kappa2",
                    "kappa3", "kappa4", "rho", "epsilon", "force_limit")
        for name in positive:
            if not getattr(self, name) > 0.0:
                raise ValidationError(f"{name} must be positive")
        for lo, name, hi in ((0.0, "alpha", 1.0), (0.0, "m_exp", 1.0), (0.0, "p_exp", 1.0)):
            v = getattr(self, name)
            if not (lo < v < hi):
                raise ValidationError(f"{name} must lie in (0, 1)")
        for name in ("beta", "n_exp", "q_exp"):
            if not getattr(self, name) > 1.0:
                raise ValidationError(f"{name} must exceed 1")
        if not self.boundary_layer > 0.0:
            raise ValidationError("boundary_layer must be positive")


@dataclass
class ControllerState:
    """Integral-surface bookkeeping threaded through successive calls, one
    float per axis."""

    initialized: bool = False
    s_initial: Tuple[float, float] = (0.0, 0.0)
    sigma_integral: Tuple[float, float] = (0.0, 0.0)
    prev_integrand: Tuple[float, float] = (0.0, 0.0)


# The kernels below work per axis on Python floats; signed_power and
# sliding_variable also accept numpy arrays, elementwise. The controller's
# inputs and outputs are float pairs.

def _spow(z: float, a: float) -> float:
    """The signed power [z]^a = sign(z) |z|^a."""
    return math.copysign(abs(z) ** a, z)


def signed_power(z, a: float) -> np.ndarray:
    if not a > 0.0:
        raise ValidationError("exponent must be positive")
    return np.vectorize(_spow, otypes=[float])(z, a)


def _power_slope(z: float, a: float) -> float:
    """d/dz sign(z)|z|^a = a |z|^(a-1), floored near zero for a < 1."""
    mag = abs(z)
    if a < 1.0:
        mag = max(mag, POWER_SLOPE_FLOOR)
    return a * mag ** (a - 1.0)


def _nominal_axis(gains: FxtismcGains, gm: float, x: float, xdot: float, r: float,
                  rdot: float, rddot: float) -> float:
    """One axis of the backstepping law's acceleration v (the nominal force
    is M_x v), under the drift gm, tracking (r, rdot, rddot)."""
    l1, l2, l3 = gains.lambda1, gains.lambda2, gains.lambda3
    a, b = gains.alpha, gains.beta
    s1 = x - r
    s1dot = xdot - rdot
    alpha_s = -(l1 * s1 + l2 * _spow(s1, a) + l3 * _spow(s1, b)) + rdot
    alpha_s_dot = (-(l1 + l2 * _power_slope(s1, a) + l3 * _power_slope(s1, b)) * s1dot
                   + rddot)
    s2 = xdot - alpha_s
    return -gm + alpha_s_dot - l1 * s2 - l2 * _spow(s2, a) - l3 * _spow(s2, b)


def _nominal(gains: FxtismcGains, terms: CartesianDynamicsTerms, cart: CartesianState,
             ref: DesiredPoint):
    """The nominal force M_x v and the friction-free task-space drift
    gamma = -Xi bias, both pairs."""
    (xi00, xi01), (xi10, xi11) = terms.Xi
    b0, b1 = terms.bias
    gx, gy = -(xi00 * b0 + xi01 * b1), -(xi10 * b0 + xi11 * b1)
    (x, y), (xdot, ydot) = cart.x, cart.xdot
    (rx, ry), (rdx, rdy), (rddx, rddy) = ref.x_d, ref.xdot_d, ref.xddot_d
    vx = _nominal_axis(gains, gx, x, xdot, rx, rdx, rddx)
    vy = _nominal_axis(gains, gy, y, ydot, ry, rdy, rddy)
    (m00, m01), (m10, m11) = terms.M_x
    return (m00 * vx + m01 * vy, m10 * vx + m11 * vy), (gx, gy)


def nominal_control(gains: FxtismcGains, terms: CartesianDynamicsTerms,
                    cart: CartesianState, ref: DesiredPoint) -> Pair:
    """Backstepping nominal law tracking (ref.x_d, ref.xdot_d, ref.xddot_d)."""
    return _nominal(gains, terms, cart, ref)[0]


def _surface_axis(gains: FxtismcGains, k1m: float, minv: float, e: float, edot: float,
                  eddot: float):
    """One axis of the sliding variable s and of its time derivative under
    the model error acceleration eddot (chain rule through the signed
    powers); k1m is kappa1^-m and minv is 1/m, for m = m_exp."""
    m, n, kappa2 = gains.m_exp, gains.n_exp, gains.kappa2
    w = edot + kappa2 * _spow(e, n)
    wdot = eddot + kappa2 * n * abs(e) ** (n - 1.0) * edot
    return (e + k1m * _spow(w, minv),
            edot + k1m / m * abs(w) ** (minv - 1.0) * wdot)


def sliding_variable(gains: FxtismcGains, e, edot) -> np.ndarray:
    k1m, minv = gains.kappa1 ** -gains.m_exp, 1.0 / gains.m_exp
    return np.vectorize(lambda e, edot: _surface_axis(gains, k1m, minv, e, edot, 0.0)[0],
                        otypes=[float])(e, edot)


def _reaching_axis(gains: FxtismcGains, sigma: float) -> float:
    """One axis of the compensating acceleration for the integral sliding
    variable sigma."""
    if gains.use_sign:
        switch = math.copysign(1.0, sigma) if sigma else 0.0
    else:
        switch = min(max(sigma / gains.boundary_layer, -1.0), 1.0)
    return (-(gains.rho + gains.epsilon) * switch
            - gains.kappa3 * _spow(sigma, gains.p_exp)
            - gains.kappa4 * _spow(sigma, gains.q_exp))


def compensating_control(gains: FxtismcGains, ctrl_state: ControllerState,
                         terms: CartesianDynamicsTerms, e, edot, eddot,
                         dt: float):
    """Integral sliding-mode compensation from the per-axis error pairs;
    returns (u_s, new_state).

    eddot is the *model* error acceleration (nominal dynamics under u0);
    sigma then integrates only the unmodelled part of the real dynamics.
    The running integral uses the trapezoidal rule.
    """
    if not dt > 0.0:
        raise ValidationError("dt must be positive")
    k1m, minv = gains.kappa1 ** -gains.m_exp, 1.0 / gains.m_exp
    (ex, ey), (edx, edy), (eddx, eddy) = e, edot, eddot
    sx, gx = _surface_axis(gains, k1m, minv, ex, edx, eddx)
    sy, gy = _surface_axis(gains, k1m, minv, ey, edy, eddy)
    if not ctrl_state.initialized:
        s0x, s0y = sx, sy
        ix = iy = 0.0
    else:
        (s0x, s0y), (ix, iy) = ctrl_state.s_initial, ctrl_state.sigma_integral
        px, py = ctrl_state.prev_integrand
        ix, iy = ix + 0.5 * dt * (px + gx), iy + 0.5 * dt * (py + gy)
    state = ControllerState(True, (s0x, s0y), (ix, iy), (gx, gy))
    vx = _reaching_axis(gains, sx - s0x - ix)
    vy = _reaching_axis(gains, sy - s0y - iy)
    (m00, m01), (m10, m11) = terms.M_x
    return (m00 * vx + m01 * vy, m10 * vx + m11 * vy), state


def control(gains: FxtismcGains, ctrl_state: ControllerState,
            terms: CartesianDynamicsTerms, cart: CartesianState,
            ref: DesiredPoint, dt: float,
            nominal_only: bool = False):
    """Full control force (nominal + compensation), clamped per axis.

    The compensator's model acceleration is predicted from the friction-free
    task-space dynamics under the nominal force alone. A force or a
    controller state that is not finite raises ValidationError.
    """
    (fx, fy), (gx, gy) = _nominal(gains, terms, cart, ref)
    state = ctrl_state
    if not nominal_only:
        (xi00, xi01), (xi10, xi11) = terms.Xi
        (x, y), (xdot, ydot) = cart.x, cart.xdot
        (rx, ry), (rdx, rdy), (rddx, rddy) = ref.x_d, ref.xdot_d, ref.xddot_d
        # the model error acceleration: Xi f_nominal + gamma - xddot_d
        eddot = (xi00 * fx + xi01 * fy + gx - rddx, xi10 * fx + xi11 * fy + gy - rddy)
        (ux, uy), state = compensating_control(gains, ctrl_state, terms, (x - rx, y - ry),
                                               (xdot - rdx, ydot - rdy), eddot, dt)
        fx, fy = fx + ux, fy + uy
    limit = gains.force_limit
    fx, fy = min(max(fx, -limit), limit), min(max(fy, -limit), limit)
    if not all_finite(fx, fy, *state.s_initial, *state.sigma_integral, *state.prev_integrand):
        raise ValidationError("control force or controller state entries must be finite")
    return (fx, fy), state
