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

FxtismcGains is frozen, and holds its kernel constants (``constants``:
the gains, the exponents less one and the products that the laws use) as
one tuple of flat tuples, one per law, built and checked finite once, when
the record is made. The step's kernel, _control_floats, composes the
float kernels of the nominal law and of the compensation, whose per-axis
helpers write each signed power out, on floats, on those constants and on
the astuple of the terms and of the controller state; control,
nominal_control and compensating_control are their validating wrappers,
which read the record's constants, so control equals nominal_control plus
compensating_control bit for bit.
"""

from dataclasses import astuple, dataclass, fields
from math import copysign, inf
from typing import Tuple

import numpy as np

from .admittance import DesiredPoint
from .arm import CartesianDynamicsTerms, CartesianState
from .errors import Pair, ValidationError, all_finite, finite_fields

# Floor on |z| in the slope of signed powers with exponent < 1; keeps the
# nominal feedback finite as the surface crosses zero at finite step size.
POWER_SLOPE_FLOOR = 1e-6


@dataclass(frozen=True)
class FxtismcGains:
    """The tracker's gains; ``constants`` holds the nominal law's, the
    surface's and the reaching law's constant tuples, and force_limit."""

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
        finite_fields(self, numbers=[f.name for f in fields(self) if f.name != "use_sign"])
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
        g = self
        try:
            k1m = g.kappa1 ** -g.m_exp
        except OverflowError:  # refused below
            k1m = inf
        minv = 1.0 / g.m_exp
        ks = (k1m, minv, k1m / g.m_exp, minv - 1.0, g.kappa2, g.n_exp, g.kappa2 * g.n_exp,
              g.n_exp - 1.0)
        kr = (-(g.rho + g.epsilon), g.kappa3, g.p_exp, g.kappa4, g.q_exp, g.boundary_layer,
              g.use_sign)
        if not all_finite(*ks, kr[0]):
            raise ValidationError("kappa1, m_exp, kappa2, n_exp, rho and epsilon give a kernel "
                                  "constant that is not finite")
        object.__setattr__(self, "constants", (
            (g.lambda1, g.lambda2, g.lambda3, g.alpha, g.beta, g.alpha - 1.0, g.beta - 1.0),
            ks, kr, g.force_limit))


@dataclass
class ControllerState:
    """Integral-surface bookkeeping threaded through successive calls, one
    float per axis."""

    initialized: bool = False
    s_initial: Tuple[float, float] = (0.0, 0.0)
    sigma_integral: Tuple[float, float] = (0.0, 0.0)
    prev_integrand: Tuple[float, float] = (0.0, 0.0)


# The kernels below work per axis on Python floats, under the constants
# of FxtismcGains; signed_power and sliding_variable also accept numpy
# arrays, elementwise. The controller's inputs and outputs are float pairs.

def _spow(z: float, a: float) -> float:
    """The signed power [z]^a = sign(z) |z|^a."""
    return copysign(abs(z) ** a, z)


def signed_power(z, a: float) -> np.ndarray:
    if not a > 0.0:
        raise ValidationError("exponent must be positive")
    return np.vectorize(_spow, otypes=[float])(z, a)


def _nominal_axis(kn, gm: float, x: float, xdot: float, r: float, rdot: float,
                  rddot: float) -> float:
    """One axis of the backstepping law's acceleration v (the nominal force
    is M_x v), under the drift gm, tracking (r, rdot, rddot). The slope of
    the alpha power of s1 is taken at |s1| floored at POWER_SLOPE_FLOOR;
    the beta power's, whose exponent exceeds 1, needs no floor."""
    l1, l2, l3, a, b, am1, bm1 = kn
    s1 = x - r
    s1dot = xdot - rdot
    m = abs(s1)
    alpha_s = -(l1 * s1 + l2 * copysign(m ** a, s1) + l3 * copysign(m ** b, s1)) + rdot
    ma = POWER_SLOPE_FLOOR if POWER_SLOPE_FLOOR > m else m
    alpha_s_dot = -(l1 + l2 * (a * ma ** am1) + l3 * (b * m ** bm1)) * s1dot + rddot
    s2 = xdot - alpha_s
    m = abs(s2)
    return -gm + alpha_s_dot - l1 * s2 - l2 * copysign(m ** a, s2) - l3 * copysign(m ** b, s2)


def _nominal_floats(kn, terms, x, y, xdot, ydot, ref):
    """The nominal force M_x v and the friction-free task-space drift
    gamma = -Xi bias, as four floats."""
    ((m00, m01), (m10, m11)), (b0, b1), ((xi00, xi01), (xi10, xi11)) = terms
    gx, gy = -(xi00 * b0 + xi01 * b1), -(xi10 * b0 + xi11 * b1)
    rx, ry, rdx, rdy, rddx, rddy = ref
    vx = _nominal_axis(kn, gx, x, xdot, rx, rdx, rddx)
    vy = _nominal_axis(kn, gy, y, ydot, ry, rdy, rddy)
    return m00 * vx + m01 * vy, m10 * vx + m11 * vy, gx, gy


def nominal_control(gains: FxtismcGains, terms: CartesianDynamicsTerms,
                    cart: CartesianState, ref: DesiredPoint) -> Pair:
    """Backstepping nominal law tracking (ref.x_d, ref.xdot_d, ref.xddot_d)."""
    fx, fy, _, _ = _nominal_floats(gains.constants[0], astuple(terms), *cart.x,
                                   *cart.xdot, ref.sample)
    return fx, fy


def _surface_axis(ks, e: float, edot: float, eddot: float):
    """One axis of the sliding variable s and of its time derivative under
    the model error acceleration eddot (chain rule through the signed
    powers)."""
    k1m, minv, k1m_m, minvm1, kappa2, n, kappa2n, nm1 = ks
    m = abs(e)
    w = edot + kappa2 * copysign(m ** n, e)
    wdot = eddot + kappa2n * m ** nm1 * edot
    m = abs(w)
    return e + k1m * copysign(m ** minv, w), edot + k1m_m * m ** minvm1 * wdot


def sliding_variable(gains: FxtismcGains, e, edot) -> np.ndarray:
    ks = gains.constants[1]
    return np.vectorize(lambda e, edot: _surface_axis(ks, e, edot, 0.0)[0],
                        otypes=[float])(e, edot)


def _reaching_axis(kr, sigma: float) -> float:
    """One axis of the compensating acceleration for the integral sliding
    variable sigma."""
    nrho, kappa3, p, kappa4, q, layer, use_sign = kr
    if use_sign:
        switch = copysign(1.0, sigma) if sigma else 0.0
    else:  # sigma / layer clamped to [-1, 1]
        switch = sigma / layer
        switch = -1.0 if switch < -1.0 else 1.0 if switch > 1.0 else switch
    m = abs(sigma)
    return nrho * switch - kappa3 * copysign(m ** p, sigma) - kappa4 * copysign(m ** q, sigma)


def _compensating_floats(k, state, M_x, ex, ey, edx, edy, eddx, eddy, dt):
    """compensating_control on floats under the constants ``k``: returns
    (ux, uy, state), ``state`` being the astuple of a ControllerState."""
    _, ks, kr, _ = k
    sx, gx = _surface_axis(ks, ex, edx, eddx)
    sy, gy = _surface_axis(ks, ey, edy, eddy)
    initialized, (s0x, s0y), (ix, iy), (px, py) = state
    if not initialized:
        s0x, s0y = sx, sy
        ix = iy = 0.0
    else:
        ix, iy = ix + 0.5 * dt * (px + gx), iy + 0.5 * dt * (py + gy)
    vx = _reaching_axis(kr, sx - s0x - ix)
    vy = _reaching_axis(kr, sy - s0y - iy)
    (m00, m01), (m10, m11) = M_x
    return m00 * vx + m01 * vy, m10 * vx + m11 * vy, (True, (s0x, s0y), (ix, iy), (gx, gy))


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
    (ex, ey), (edx, edy), (eddx, eddy) = e, edot, eddot
    ux, uy, state = _compensating_floats(gains.constants, astuple(ctrl_state), terms.M_x,
                                         ex, ey, edx, edy, eddx, eddy, dt)
    return (ux, uy), ControllerState(*state)


def _control_floats(k, state, terms, x, y, xdot, ydot, ref, dt, nominal_only):
    """control on floats under the constants ``k`` and on the astuple of the
    terms and of the controller state; ref is DesiredPoint.sample. Returns
    (fx, fy, state)."""
    fx, fy, gx, gy = _nominal_floats(k[0], terms, x, y, xdot, ydot, ref)
    if not nominal_only:
        (xi00, xi01), (xi10, xi11) = terms[2]
        rx, ry, rdx, rdy, rddx, rddy = ref
        # the model error acceleration: Xi f_nominal + gamma - xddot_d
        ux, uy, state = _compensating_floats(
            k, state, terms[0], x - rx, y - ry, xdot - rdx, ydot - rdy,
            xi00 * fx + xi01 * fy + gx - rddx, xi10 * fx + xi11 * fy + gy - rddy, dt)
        fx, fy = fx + ux, fy + uy
    limit = k[3]  # each axis clamped to [-limit, limit]
    fx = -limit if fx < -limit else limit if fx > limit else fx
    fy = -limit if fy < -limit else limit if fy > limit else fy
    _, (s0x, s0y), (ix, iy), (px, py) = state
    if not all_finite(fx, fy, s0x, s0y, ix, iy, px, py):
        raise ValidationError("control force or controller state entries must be finite")
    return fx, fy, state


def control(gains: FxtismcGains, ctrl_state: ControllerState,
            terms: CartesianDynamicsTerms, cart: CartesianState,
            ref: DesiredPoint, dt: float,
            nominal_only: bool = False):
    """Full control force (nominal + compensation), clamped per axis.

    The compensator's model acceleration is predicted from the friction-free
    task-space dynamics under the nominal force alone. A force or a
    controller state that is not finite raises ValidationError.
    """
    if not (nominal_only or dt > 0.0):
        raise ValidationError("dt must be positive")
    fx, fy, state = _control_floats(gains.constants, astuple(ctrl_state), astuple(terms),
                                    *cart.x, *cart.xdot, ref.sample, dt, nominal_only)
    return (fx, fy), ctrl_state if nominal_only else ControllerState(*state)
