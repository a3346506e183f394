"""Closed-form dynamics of a two-link planar manipulator.

Provides forward kinematics, the 2x2 Jacobian and its time derivative, the
joint-space mass/Coriolis/gravity/friction terms, the task-space dynamics
transform, and a fixed-step RK4 plant integrator.

Conventions:
- Every 2-vector is a float pair and every 2x2 matrix a pair of row pairs:
  the state types hold Python floats, and the functions take and return
  pairs, so the step never builds an array.
- One set of sines and cosines per configuration (_trig) serves every term
  evaluated there: in an RK4 stage of plant_step, M, c, G, F and J^T f_e.
- Joint friction is position-dependent (as modelled) and is applied to the
  plant only; callers building a controller model pass include_friction=False
  so friction acts as unmodelled uncertainty.
- All 2x2 inversions use the closed-form cofactor formula.
"""

from dataclasses import dataclass
import math
from typing import Tuple

import numpy as np

from .errors import Pair, SingularConfiguration, ValidationError, all_finite, float_pair, require_finite


@dataclass
class ManipulatorParams:
    m1: float = 1.5
    m2: float = 1.0
    l1: float = 0.3
    l2: float = 0.3
    gravity: float = 9.81
    singularity_tolerance: float = 1e-4

    def __post_init__(self):
        require_finite(self)
        for name in ("m1", "m2", "l1", "l2"):
            if not getattr(self, name) > 0.0:
                raise ValidationError(f"{name} must be positive")
        if not self.singularity_tolerance > 0.0:
            raise ValidationError("singularity_tolerance must be positive")


@dataclass
class JointState:
    q: Pair
    qdot: Pair

    def __post_init__(self):
        self.q = float_pair(self.q)
        self.qdot = float_pair(self.qdot)
        if not all_finite(*self.q, *self.qdot):
            raise ValidationError("joint state entries must be finite")


@dataclass
class CartesianState:
    x: Pair
    xdot: Pair

    def __post_init__(self):
        self.x = float_pair(self.x)
        self.xdot = float_pair(self.xdot)
        if not all_finite(*self.x, *self.xdot):
            raise ValidationError("cartesian state entries must be finite")


@dataclass
class CartesianDynamicsTerms:
    """Task-space dynamics M_x * xddot + bias = f, with Xi = inv(M_x).

    ``bias`` folds the Coriolis/centrifugal, gravity and (optionally)
    friction contributions together with the -M J^-1 Jdot qdot term arising
    from the coordinate change, so bias = C_x*xdot + G_x + F_x as a single
    pair. M_x and Xi are pairs of row pairs.
    """

    M_x: Tuple[Pair, Pair]
    bias: Pair
    Xi: Tuple[Pair, Pair]


def _trig(q1: float, q2: float):
    """(sin q1, cos q1, sin q2, cos q2, sin(q1 + q2), cos(q1 + q2))."""
    q12 = q1 + q2
    return (math.sin(q1), math.cos(q1), math.sin(q2), math.cos(q2),
            math.sin(q12), math.cos(q12))


def _fk(params: ManipulatorParams, trig) -> Pair:
    s1, c1, _, _, s12, c12 = trig
    l1, l2 = params.l1, params.l2
    return l1 * c1 + l2 * c12, l1 * s1 + l2 * s12


def _jac(params: ManipulatorParams, trig):
    s1, c1, _, _, s12, c12 = trig
    l1, l2 = params.l1, params.l2
    return ((-l1 * s1 - l2 * s12, -l2 * s12),
            (l1 * c1 + l2 * c12, l2 * c12))


def _jac_dot(params: ManipulatorParams, trig, qd1: float, qd2: float):
    s1, c1, _, _, s12, c12 = trig
    l1, l2 = params.l1, params.l2
    w = qd1 + qd2
    return ((-l1 * c1 * qd1 - l2 * c12 * w, -l2 * c12 * w),
            (-l1 * s1 * qd1 - l2 * s12 * w, -l2 * s12 * w))


def _joint_terms(params: ManipulatorParams, trig, qd1: float, qd2: float,
                 include_friction: bool):
    """(M, c_vec, G, F) of the joint-space model; see joint_dynamics_terms."""
    m1, m2, l1, l2, g = params.m1, params.m2, params.l1, params.l2, params.gravity
    _, c1, s2, c2, _, c12 = trig

    a = m2 * l2 * l2
    b = m2 * l1 * l2
    M = ((a + 2.0 * b * c2 + (m1 + m2) * l1 * l1, a + b * c2),
         (a + b * c2, a))
    c_vec = (-b * s2 * qd2 * qd2 - 2.0 * b * s2 * qd1 * qd2,
             b * s2 * qd1 * qd1)
    G = (m2 * l2 * g * c12 + (m1 + m2) * l1 * g * c1,
         m2 * l2 * g * c12)
    if include_friction:
        f1 = 2.0 * c1 * s2 + 5.0 * c1 * c1
        F = (f1, -f1)
    else:
        F = (0.0, 0.0)
    return M, c_vec, G, F


def _inv2(A, det: float):
    (a, b), (c, d) = A
    return ((d / det, -b / det), (-c / det, a / det))


def _det(A) -> float:
    (a, b), (c, d) = A
    return a * d - b * c


def _mv(A, v) -> Pair:
    (a, b), (c, d) = A
    return (a * v[0] + b * v[1], c * v[0] + d * v[1])


def _tv(A, v) -> Pair:
    """A^T v."""
    (a, b), (c, d) = A
    return (a * v[0] + c * v[1], b * v[0] + d * v[1])


def _mm(A, B):
    (a, b), (c, d) = A
    (e, f), (g, h) = B
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def _transpose(A):
    (a, b), (c, d) = A
    return (a, c), (b, d)


def forward_kinematics(params: ManipulatorParams, q) -> Pair:
    return _fk(params, _trig(*q))


def jacobian(params: ManipulatorParams, q):
    return _jac(params, _trig(*q))


def jacobian_dot(params: ManipulatorParams, state: JointState):
    return _jac_dot(params, _trig(*state.q), *state.qdot)


def joint_dynamics_terms(params: ManipulatorParams, state: JointState,
                         include_friction: bool = True):
    """Return (M, c_vec, G, F) of the joint-space model.

    c_vec is the Coriolis/centrifugal force *vector* (already multiplied by
    the joint velocities). F is zeroed when include_friction is False.
    """
    return _joint_terms(params, _trig(*state.q), *state.qdot, include_friction)


def cartesian_dynamics_terms(params: ManipulatorParams, state: JointState,
                             include_friction: bool = True) -> CartesianDynamicsTerms:
    qdot = state.qdot
    trig = _trig(*state.q)
    J = _jac(params, trig)
    det = _det(J)
    if abs(det) < params.singularity_tolerance:
        raise SingularConfiguration(
            f"|det J| = {abs(det):.3e} below tolerance {params.singularity_tolerance:.3e}"
        )
    Jinv = _inv2(J, det)
    JinvT = _transpose(Jinv)
    M, c_vec, G, F = _joint_terms(params, trig, *qdot, include_friction)
    Jdot = _jac_dot(params, trig, *qdot)
    M_x = _mm(_mm(JinvT, M), Jinv)
    coupling = _mv(M, _mv(Jinv, _mv(Jdot, qdot)))
    bias = _mv(JinvT, [c + g + f - m for c, g, f, m in zip(c_vec, G, F, coupling)])
    Xi = _inv2(M_x, _det(M_x))
    return CartesianDynamicsTerms(M_x=M_x, bias=bias, Xi=Xi)


def _qddot(params: ManipulatorParams, trig, qd1: float, qd2: float, tau_c: Pair,
           f_e: Pair, include_friction: bool) -> Pair:
    """qddot = M^-1 (tau_c + J^T f_e - c_vec - G - F) at the configuration
    whose sines and cosines are ``trig``."""
    M, (c1, c2), (g1, g2), (fr1, fr2) = _joint_terms(params, trig, qd1, qd2, include_friction)
    jf1, jf2 = _tv(_jac(params, trig), f_e)
    t1, t2 = tau_c
    return _mv(_inv2(M, _det(M)), (t1 + jf1 - c1 - g1 - fr1, t2 + jf2 - c2 - g2 - fr2))


def joint_accel(params: ManipulatorParams, q, qdot, tau_c, f_e,
                include_friction: bool = True) -> Pair:
    """qddot = M^-1 (tau_c + J^T f_e - c_vec - G - F)."""
    return _qddot(params, _trig(*q), *qdot, float_pair(tau_c), float_pair(f_e),
                  include_friction)


def plant_step(params: ManipulatorParams, state: JointState, tau_c, f_e,
               dt: float, include_friction: bool = True) -> JointState:
    """Advance the joint dynamics one RK4 step with zero-order-held inputs.

    tau_c is held constant across the step; the external force f_e is held
    constant as a Cartesian force, its torque J^T f_e re-evaluated at the
    RK4 substates.
    """
    if not dt > 0.0:
        raise ValidationError("dt must be positive")
    tau_c, f_e = float_pair(tau_c), float_pair(f_e)

    def deriv(q1, q2, qd1, qd2):
        return (qd1, qd2, *_qddot(params, _trig(q1, q2), qd1, qd2, tau_c, f_e,
                                  include_friction))

    def stage(h, k):
        """The derivative at the step's start state plus h times k."""
        return deriv(q1 + h * k[0], q2 + h * k[1], qd1 + h * k[2], qd2 + h * k[3])

    (q1, q2), (qd1, qd2) = state.q, state.qdot
    k1 = deriv(q1, q2, qd1, qd2)
    k2 = stage(0.5 * dt, k1)
    k3 = stage(0.5 * dt, k2)
    k4 = stage(dt, k3)
    y1, y2, y3, y4 = [yi + dt / 6.0 * (a + 2.0 * b + 2.0 * c + d) for yi, a, b, c, d in
                      zip((q1, q2, qd1, qd2), k1, k2, k3, k4)]
    return JointState((y1, y2), (y3, y4))


def cartesian_state(params: ManipulatorParams, state: JointState) -> CartesianState:
    trig = _trig(*state.q)
    return CartesianState(_fk(params, trig), _mv(_jac(params, trig), state.qdot))


def inverse_kinematics(params: ManipulatorParams, x, elbow_up: bool = True) -> Pair:
    """Closed-form IK of the end-effector position; raises if unreachable."""
    x = np.asarray(x, dtype=float)
    l1, l2 = params.l1, params.l2
    r2 = float(x @ x)
    c2 = (r2 - l1 * l1 - l2 * l2) / (2.0 * l1 * l2)
    if abs(c2) > 1.0:
        raise ValidationError(f"target {x} outside the reachable workspace")
    q2 = math.acos(c2)
    if not elbow_up:
        q2 = -q2
    q1 = math.atan2(x[1], x[0]) - math.atan2(l2 * math.sin(q2), l1 + l2 * math.cos(q2))
    return q1, q2
