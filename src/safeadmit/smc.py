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
"""

import math
from dataclasses import dataclass
from functools import partial
from typing import Tuple

import numpy as np

from .admittance import DesiredPoint
from .arm import CartesianDynamicsTerms, CartesianState, _mv
from .errors import ValidationError, _xy, all_finite, require_finite

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


# The kernels below work per axis on Python floats; the public functions
# wrap them for numpy arrays.

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


def _model(terms: CartesianDynamicsTerms):
    """M_x and gamma = -Xi @ bias, the friction-free task-space drift."""
    Xi, bias = terms.Xi.tolist(), terms.bias.tolist()
    return terms.M_x.tolist(), [-(a * bias[0] + b * bias[1]) for a, b in Xi]


def _nominal(gains: FxtismcGains, M_x, gamma, x, xdot, x_d, xdot_d, xddot_d):
    """The backstepping nominal law M_x @ v from per-axis float lists."""
    l1, l2, l3 = gains.lambda1, gains.lambda2, gains.lambda3
    a, b = gains.alpha, gains.beta
    v = []
    for gm, xi, xdi, r, rdot, rddot in zip(gamma, x, xdot, x_d, xdot_d, xddot_d):
        s1 = xi - r
        s1dot = xdi - rdot
        alpha_s = -(l1 * s1 + l2 * _spow(s1, a) + l3 * _spow(s1, b)) + rdot
        alpha_s_dot = (-(l1 + l2 * _power_slope(s1, a) + l3 * _power_slope(s1, b)) * s1dot
                       + rddot)
        s2 = xdi - alpha_s
        v.append(-gm + alpha_s_dot - l1 * s2 - l2 * _spow(s2, a) - l3 * _spow(s2, b))
    return _mv(M_x, v)


def nominal_control(gains: FxtismcGains, terms: CartesianDynamicsTerms,
                    cart: CartesianState, ref: DesiredPoint) -> np.ndarray:
    """Backstepping nominal law tracking (ref.x_d, ref.xdot_d, ref.xddot_d)."""
    M_x, gamma = _model(terms)
    return np.array(_nominal(gains, M_x, gamma, cart.x.tolist(), cart.xdot.tolist(),
                             ref.x_d.tolist(), ref.xdot_d.tolist(), ref.xddot_d.tolist()))


def _sliding(gains: FxtismcGains, e: float, edot: float) -> float:
    w = edot + gains.kappa2 * _spow(e, gains.n_exp)
    return e + gains.kappa1 ** -gains.m_exp * _spow(w, 1.0 / gains.m_exp)


def sliding_variable(gains: FxtismcGains, e, edot) -> np.ndarray:
    return np.vectorize(lambda e, edot: _sliding(gains, e, edot), otypes=[float])(e, edot)


def _sigma_integrand(gains: FxtismcGains, e: float, edot: float, eddot: float) -> float:
    """Time derivative of the sliding variable under the model error
    acceleration eddot (chain rule through the signed powers)."""
    m, n = gains.m_exp, gains.n_exp
    w = edot + gains.kappa2 * _spow(e, n)
    wdot = eddot + gains.kappa2 * n * abs(e) ** (n - 1.0) * edot
    return edot + gains.kappa1 ** -m / m * abs(w) ** (1.0 / m - 1.0) * wdot


def _compensate(gains: FxtismcGains, ctrl_state: ControllerState, M_x, e, edot,
                eddot, dt: float):
    """Integral sliding-mode compensation from per-axis floats; returns
    (u_s, new_state). See compensating_control."""
    if not dt > 0.0:
        raise ValidationError("dt must be positive")
    s = tuple(map(partial(_sliding, gains), e, edot))
    g = tuple(map(partial(_sigma_integrand, gains), e, edot, eddot))
    if not ctrl_state.initialized:
        state = ControllerState(True, s, (0.0, 0.0), g)
    else:
        integral = tuple(i + 0.5 * dt * (gp + gi) for i, gp, gi in
                         zip(ctrl_state.sigma_integral, ctrl_state.prev_integrand, g))
        state = ControllerState(True, ctrl_state.s_initial, integral, g)
    bl = gains.boundary_layer
    v = []
    for si, s0, i in zip(s, state.s_initial, state.sigma_integral):
        sigma = si - s0 - i
        if gains.use_sign:
            switch = math.copysign(1.0, sigma) if sigma else 0.0
        else:
            switch = min(max(sigma / bl, -1.0), 1.0)
        v.append(-(gains.rho + gains.epsilon) * switch
                 - gains.kappa3 * _spow(sigma, gains.p_exp)
                 - gains.kappa4 * _spow(sigma, gains.q_exp))
    return _mv(M_x, v), state


def compensating_control(gains: FxtismcGains, ctrl_state: ControllerState,
                         terms: CartesianDynamicsTerms, e, edot, eddot,
                         dt: float):
    """Integral sliding-mode compensation; returns (u_s, new_state).

    eddot is the *model* error acceleration (nominal dynamics under u0);
    sigma then integrates only the unmodelled part of the real dynamics.
    The running integral uses the trapezoidal rule.
    """
    u_s, state = _compensate(gains, ctrl_state, terms.M_x.tolist(), _xy(e),
                             _xy(edot), _xy(eddot), dt)
    return np.array(u_s), state


def control(gains: FxtismcGains, ctrl_state: ControllerState,
            terms: CartesianDynamicsTerms, cart: CartesianState,
            ref: DesiredPoint, dt: float,
            nominal_only: bool = False):
    """Full control force (nominal + compensation), clamped per axis.

    The compensator's model acceleration is predicted from the friction-free
    task-space dynamics under the nominal force alone. A force or a
    controller state that is not finite raises ValidationError.
    """
    M_x, gamma = _model(terms)
    x, xdot = cart.x.tolist(), cart.xdot.tolist()
    x_d, xdot_d, xddot_d = ref.x_d.tolist(), ref.xdot_d.tolist(), ref.xddot_d.tolist()
    f_c = _nominal(gains, M_x, gamma, x, xdot, x_d, xdot_d, xddot_d)
    state = ctrl_state
    if not nominal_only:
        e = [a - b for a, b in zip(x, x_d)]
        edot = [a - b for a, b in zip(xdot, xdot_d)]
        model_acc = _mv(terms.Xi.tolist(), f_c)
        eddot = [a + gm - r for a, gm, r in zip(model_acc, gamma, xddot_d)]
        u_s, state = _compensate(gains, ctrl_state, M_x, e, edot, eddot, dt)
        f_c = [u0 + us for u0, us in zip(f_c, u_s)]
    limit = gains.force_limit
    f_c = [min(max(f, -limit), limit) for f in f_c]
    if not all_finite(*f_c, *state.s_initial, *state.sigma_integral, *state.prev_integrand):
        raise ValidationError("control force or controller state entries must be finite")
    return np.array(f_c), state
