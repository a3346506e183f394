"""Closed-form dynamics of a two-link planar manipulator.

Provides forward kinematics, the 2x2 Jacobian and its time derivative, the
joint-space mass/Coriolis/gravity/friction terms, the task-space dynamics
transform, and a fixed-step RK4 plant integrator.

Conventions:
- Every 2-vector is a float pair and every 2x2 matrix a pair of row pairs:
  the state types hold Python floats, and the functions take and return
  pairs, so the step never builds an array. The states are
  errors.PairRecords: the constructor takes exactly a pair per field (a
  lone number is refused, as is a target point of inverse_kinematics), and
  plant_step and cartesian_state build their states with of_floats, which
  keeps the finiteness check only.
- One set of sines and cosines per configuration (_trig) serves every term
  evaluated there: in an RK4 stage of plant_step, M, c, G, F and J^T f_e.
- The step's kernels (plant_step through _qddot, cartesian_dynamics_terms)
  are straight-line float code: the 2x2 products and inverses are written
  out, in the operation order of the per-term functions (jacobian,
  joint_dynamics_terms, joint_accel), so they equal those bit for bit.
- Joint friction is position-dependent (as modelled) and is applied to the
  plant only; callers building a controller model pass include_friction=False
  so friction acts as unmodelled uncertainty.
- All 2x2 inversions use the closed-form cofactor formula.
"""

from dataclasses import dataclass, fields
import math
from typing import Tuple

from .errors import Pair, PairRecord, SingularConfiguration, ValidationError, finite_fields, float_pair


@dataclass
class ManipulatorParams:
    m1: float = 1.5
    m2: float = 1.0
    l1: float = 0.3
    l2: float = 0.3
    gravity: float = 9.81
    singularity_tolerance: float = 1e-4

    def __post_init__(self):
        finite_fields(self, numbers=[f.name for f in fields(self)])
        for name in ("m1", "m2", "l1", "l2"):
            if not getattr(self, name) > 0.0:
                raise ValidationError(f"{name} must be positive")
        if not self.singularity_tolerance > 0.0:
            raise ValidationError("singularity_tolerance must be positive")


@dataclass
class JointState(PairRecord, noun="joint state"):
    q: Pair
    qdot: Pair


@dataclass
class CartesianState(PairRecord, noun="cartesian state"):
    x: Pair
    xdot: Pair


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


def _mv(A, v) -> Pair:
    (a, b), (c, d) = A
    return (a * v[0] + b * v[1], c * v[0] + d * v[1])


def _tv(A, v) -> Pair:
    """A^T v."""
    (a, b), (c, d) = A
    return (a * v[0] + c * v[1], b * v[0] + d * v[1])


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
    """M_x = J^-T M J^-1, bias = J^-T (c_vec + G + F - M J^-1 Jdot qdot) and
    Xi = M_x^-1, with cofactor inverses; raises SingularConfiguration where
    |det J| is below the tolerance."""
    qd1, qd2 = state.qdot
    trig = _trig(*state.q)
    (j00, j01), (j10, j11) = _jac(params, trig)
    det = j00 * j11 - j01 * j10
    if abs(det) < params.singularity_tolerance:
        raise SingularConfiguration(
            f"|det J| = {abs(det):.3e} below tolerance {params.singularity_tolerance:.3e}"
        )
    i00, i01, i10, i11 = j11 / det, -j01 / det, -j10 / det, j00 / det  # J^-1
    ((m00, m01), (m10, m11)), (c1, c2), (g1, g2), (f1, f2) = _joint_terms(
        params, trig, qd1, qd2, include_friction)
    (d00, d01), (d10, d11) = _jac_dot(params, trig, qd1, qd2)
    # P = J^-T M, then M_x = P J^-1
    p00, p01 = i00 * m00 + i10 * m10, i00 * m01 + i10 * m11
    p10, p11 = i01 * m00 + i11 * m10, i01 * m01 + i11 * m11
    x00, x01 = p00 * i00 + p01 * i10, p00 * i01 + p01 * i11
    x10, x11 = p10 * i00 + p11 * i10, p10 * i01 + p11 * i11
    # coupling = M J^-1 Jdot qdot
    a0, a1 = d00 * qd1 + d01 * qd2, d10 * qd1 + d11 * qd2
    u0, u1 = i00 * a0 + i01 * a1, i10 * a0 + i11 * a1
    r0 = c1 + g1 + f1 - (m00 * u0 + m01 * u1)
    r1 = c2 + g2 + f2 - (m10 * u0 + m11 * u1)
    det_x = x00 * x11 - x01 * x10
    return CartesianDynamicsTerms(
        M_x=((x00, x01), (x10, x11)),
        bias=(i00 * r0 + i10 * r1, i01 * r0 + i11 * r1),
        Xi=((x11 / det_x, -x01 / det_x), (-x10 / det_x, x00 / det_x)))


def _qddot(params: ManipulatorParams, trig, qd1: float, qd2: float, tau_c: Pair,
           f_e: Pair, include_friction: bool) -> Pair:
    """qddot = M^-1 (tau_c + J^T f_e - c_vec - G - F) at the configuration
    whose sines and cosines are ``trig``, with the cofactor inverse of M."""
    ((m00, m01), (m10, m11)), (c1, c2), (g1, g2), (fr1, fr2) = _joint_terms(
        params, trig, qd1, qd2, include_friction)
    (j00, j01), (j10, j11) = _jac(params, trig)
    fx, fy = f_e
    t1, t2 = tau_c
    r1 = t1 + (j00 * fx + j10 * fy) - c1 - g1 - fr1
    r2 = t2 + (j01 * fx + j11 * fy) - c2 - g2 - fr2
    det = m00 * m11 - m01 * m10
    return (m11 / det * r1 + -m01 / det * r2, -m10 / det * r1 + m00 / det * r2)


def joint_accel(params: ManipulatorParams, q, qdot, tau_c, f_e,
                include_friction: bool = True) -> Pair:
    """qddot = M^-1 (tau_c + J^T f_e - c_vec - G - F)."""
    return _qddot(params, _trig(*q), *qdot, float_pair(tau_c, "tau_c"), float_pair(f_e, "f_e"),
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
    tau_c, f_e = float_pair(tau_c, "tau_c"), float_pair(f_e, "f_e")
    h = 0.5 * dt
    (q1, q2), (qd1, qd2) = state.q, state.qdot
    # each stage's derivative is (qdot, qddot) at the start state plus a
    # multiple of the previous stage's derivative
    a1, a2 = _qddot(params, _trig(q1, q2), qd1, qd2, tau_c, f_e, include_friction)
    p1, p2, v1, v2 = q1 + h * qd1, q2 + h * qd2, qd1 + h * a1, qd2 + h * a2
    b1, b2 = _qddot(params, _trig(p1, p2), v1, v2, tau_c, f_e, include_friction)
    r1, r2, w1, w2 = q1 + h * v1, q2 + h * v2, qd1 + h * b1, qd2 + h * b2
    c1, c2 = _qddot(params, _trig(r1, r2), w1, w2, tau_c, f_e, include_friction)
    s1, s2, z1, z2 = q1 + dt * w1, q2 + dt * w2, qd1 + dt * c1, qd2 + dt * c2
    d1, d2 = _qddot(params, _trig(s1, s2), z1, z2, tau_c, f_e, include_friction)
    k = dt / 6.0
    return JointState.of_floats((q1 + k * (qd1 + 2.0 * v1 + 2.0 * w1 + z1),
                                 q2 + k * (qd2 + 2.0 * v2 + 2.0 * w2 + z2)),
                                (qd1 + k * (a1 + 2.0 * b1 + 2.0 * c1 + d1),
                                 qd2 + k * (a2 + 2.0 * b2 + 2.0 * c2 + d2)))


def cartesian_state(params: ManipulatorParams, state: JointState) -> CartesianState:
    trig = _trig(*state.q)
    return CartesianState.of_floats(_fk(params, trig), _mv(_jac(params, trig), state.qdot))


def inverse_kinematics(params: ManipulatorParams, x) -> Pair:
    """Closed-form IK of the end-effector position ``x`` on the elbow-up
    branch (q2 >= 0); raises ValidationError unless x is finite and reachable."""
    x, y = float_pair(x, "x")
    l1, l2 = params.l1, params.l2
    c2 = (x * x + y * y - l1 * l1 - l2 * l2) / (2.0 * l1 * l2)
    if not abs(c2) <= 1.0:  # so NaN, and an infinity, are refused too
        raise ValidationError(f"target {(x, y)} is not a finite point of the reachable workspace")
    q2 = math.acos(c2)
    q1 = math.atan2(y, x) - math.atan2(l2 * math.sin(q2), l1 + l2 * math.cos(q2))
    return q1, q2
