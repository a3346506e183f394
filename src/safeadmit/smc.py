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

from dataclasses import dataclass, field, replace

import numpy as np

from .admittance import DesiredPoint, _pair
from .arm import CartesianDynamicsTerms, CartesianState
from .errors import ValidationError, require_finite

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
    """Integral-surface bookkeeping threaded through successive calls."""

    initialized: bool = False
    s_initial: np.ndarray = field(default_factory=lambda: np.zeros(2))
    sigma_integral: np.ndarray = field(default_factory=lambda: np.zeros(2))
    prev_integrand: np.ndarray = field(default_factory=lambda: np.zeros(2))


def signed_power(z, a: float) -> np.ndarray:
    if not a > 0.0:
        raise ValidationError("exponent must be positive")
    z = np.asarray(z, dtype=float)
    return np.sign(z) * np.abs(z) ** a


def _power_slope(z, a: float) -> np.ndarray:
    """d/dz sign(z)|z|^a = a |z|^(a-1), floored near zero for a < 1."""
    mag = np.abs(np.asarray(z, dtype=float))
    if a < 1.0:
        mag = np.maximum(mag, POWER_SLOPE_FLOOR)
    return a * mag ** (a - 1.0)


def nominal_control(gains: FxtismcGains, terms: CartesianDynamicsTerms,
                    cart: CartesianState, ref: DesiredPoint) -> np.ndarray:
    """Backstepping nominal law tracking (ref.x_d, ref.xdot_d, ref.xddot_d)."""
    l1, l2, l3 = gains.lambda1, gains.lambda2, gains.lambda3
    a, b = gains.alpha, gains.beta
    gamma = -terms.Xi @ terms.bias

    s1 = cart.x - ref.x_d
    s1dot = cart.xdot - ref.xdot_d
    alpha_s = -(l1 * s1 + l2 * signed_power(s1, a) + l3 * signed_power(s1, b)) + ref.xdot_d
    alpha_s_dot = (-(l1 + l2 * _power_slope(s1, a) + l3 * _power_slope(s1, b)) * s1dot
                   + ref.xddot_d)
    s2 = cart.xdot - alpha_s
    v = (-gamma + alpha_s_dot
         - l1 * s2 - l2 * signed_power(s2, a) - l3 * signed_power(s2, b))
    return terms.M_x @ v


def sliding_variable(gains: FxtismcGains, e, edot) -> np.ndarray:
    w = np.asarray(edot, dtype=float) + gains.kappa2 * signed_power(e, gains.n_exp)
    return np.asarray(e, dtype=float) + gains.kappa1 ** -gains.m_exp * signed_power(w, 1.0 / gains.m_exp)


def _sigma_integrand(gains: FxtismcGains, e, edot, eddot) -> np.ndarray:
    """Time derivative of the sliding variable under the model error
    acceleration eddot (chain rule through the signed powers)."""
    e = np.asarray(e, dtype=float)
    edot = np.asarray(edot, dtype=float)
    eddot = np.asarray(eddot, dtype=float)
    m, n = gains.m_exp, gains.n_exp
    w = edot + gains.kappa2 * signed_power(e, n)
    wdot = eddot + gains.kappa2 * n * np.abs(e) ** (n - 1.0) * edot
    return edot + gains.kappa1 ** -m / m * np.abs(w) ** (1.0 / m - 1.0) * wdot


def compensating_control(gains: FxtismcGains, ctrl_state: ControllerState,
                         terms: CartesianDynamicsTerms, e, edot, eddot,
                         dt: float):
    """Integral sliding-mode compensation; returns (u_s, new_state).

    eddot is the *model* error acceleration (nominal dynamics under u0);
    sigma then integrates only the unmodelled part of the real dynamics.
    The running integral uses the trapezoidal rule.
    """
    if not dt > 0.0:
        raise ValidationError("dt must be positive")
    s = sliding_variable(gains, e, edot)
    g = _sigma_integrand(gains, e, edot, eddot)
    if not ctrl_state.initialized:
        state = ControllerState(initialized=True, s_initial=s.copy(),
                                sigma_integral=np.zeros(2), prev_integrand=g)
    else:
        integral = ctrl_state.sigma_integral + 0.5 * dt * (ctrl_state.prev_integrand + g)
        state = replace(ctrl_state, sigma_integral=integral, prev_integrand=g)
    sigma = s - state.s_initial - state.sigma_integral

    if gains.use_sign:
        switch = np.sign(sigma)
    else:
        switch = np.clip(sigma / gains.boundary_layer, -1.0, 1.0)
    v = (-(gains.rho + gains.epsilon) * switch
         - gains.kappa3 * signed_power(sigma, gains.p_exp)
         - gains.kappa4 * signed_power(sigma, gains.q_exp))
    return terms.M_x @ v, state


def control(gains: FxtismcGains, ctrl_state: ControllerState,
            terms: CartesianDynamicsTerms, cart: CartesianState,
            ref: DesiredPoint, dt: float,
            nominal_only: bool = False):
    """Full control force (nominal + compensation), clamped per axis.

    The compensator's model acceleration is predicted from the friction-free
    task-space dynamics under the nominal force alone.
    """
    u0 = nominal_control(gains, terms, cart, ref)
    if nominal_only:
        f_c = u0
        state = ctrl_state
    else:
        gamma = -terms.Xi @ terms.bias
        e = cart.x - ref.x_d
        edot = cart.xdot - ref.xdot_d
        eddot = terms.Xi @ u0 + gamma - ref.xddot_d
        u_s, state = compensating_control(gains, ctrl_state, terms, e, edot, eddot, dt)
        f_c = u0 + u_s
    return np.clip(f_c, -gains.force_limit, gains.force_limit), state
