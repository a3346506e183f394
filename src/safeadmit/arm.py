"""Closed-form dynamics of a two-link planar manipulator.

Provides forward kinematics, the 2x2 Jacobian and its time derivative, the
joint-space mass/Coriolis/gravity/friction terms, the task-space dynamics
transform, and a fixed-step RK4 plant integrator.

Conventions:
- Joint friction is position-dependent (as modelled) and is applied to the
  plant only; callers building a controller model pass include_friction=False
  so friction acts as unmodelled uncertainty.
- All 2x2 inversions use the closed-form cofactor formula.
"""

from dataclasses import dataclass
import math

import numpy as np

from .errors import SingularConfiguration, ValidationError, _xy, all_finite, require_finite


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
    q: np.ndarray
    qdot: np.ndarray

    def __post_init__(self):
        self.q = np.array(self.q, dtype=float).reshape(2)
        self.qdot = np.array(self.qdot, dtype=float).reshape(2)
        if not all_finite(*self.q.tolist(), *self.qdot.tolist()):
            raise ValidationError("joint state entries must be finite")


@dataclass
class CartesianState:
    x: np.ndarray
    xdot: np.ndarray

    def __post_init__(self):
        self.x = np.array(self.x, dtype=float).reshape(2)
        self.xdot = np.array(self.xdot, dtype=float).reshape(2)
        if not all_finite(*self.x.tolist(), *self.xdot.tolist()):
            raise ValidationError("cartesian state entries must be finite")


@dataclass
class CartesianDynamicsTerms:
    """Task-space dynamics M_x * xddot + bias = f, with Xi = inv(M_x).

    ``bias`` folds the Coriolis/centrifugal, gravity and (optionally)
    friction contributions together with the -M J^-1 Jdot qdot term arising
    from the coordinate change, so bias = C_x*xdot + G_x + F_x as a single
    vector.
    """

    M_x: np.ndarray
    bias: np.ndarray
    Xi: np.ndarray


# The kernels below work on Python floats: a 2-vector is a pair and a 2x2
# matrix a pair of rows. The public functions wrap them in numpy arrays.

def _fk(params: ManipulatorParams, q1: float, q2: float):
    l1, l2 = params.l1, params.l2
    return (l1 * math.cos(q1) + l2 * math.cos(q1 + q2),
            l1 * math.sin(q1) + l2 * math.sin(q1 + q2))


def _jac(params: ManipulatorParams, q1: float, q2: float):
    l1, l2 = params.l1, params.l2
    s1, c1 = math.sin(q1), math.cos(q1)
    s12, c12 = math.sin(q1 + q2), math.cos(q1 + q2)
    return ((-l1 * s1 - l2 * s12, -l2 * s12),
            (l1 * c1 + l2 * c12, l2 * c12))


def _jac_dot(params: ManipulatorParams, q1, q2, qd1, qd2):
    l1, l2 = params.l1, params.l2
    s1, c1 = math.sin(q1), math.cos(q1)
    s12, c12 = math.sin(q1 + q2), math.cos(q1 + q2)
    w = qd1 + qd2
    return ((-l1 * c1 * qd1 - l2 * c12 * w, -l2 * c12 * w),
            (-l1 * s1 * qd1 - l2 * s12 * w, -l2 * s12 * w))


def _joint_terms(params: ManipulatorParams, q1, q2, qd1, qd2,
                 include_friction: bool):
    """(M, c_vec, G, F) of the joint-space model; see joint_dynamics_terms."""
    m1, m2, l1, l2, g = params.m1, params.m2, params.l1, params.l2, params.gravity
    s1, c1 = math.sin(q1), math.cos(q1)
    s2, c2 = math.sin(q2), math.cos(q2)
    c12 = math.cos(q1 + q2)

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


def _mv(A, v):
    (a, b), (c, d) = A
    return (a * v[0] + b * v[1], c * v[0] + d * v[1])


def _tv(A, v):
    """A^T v."""
    (a, b), (c, d) = A
    return (a * v[0] + c * v[1], b * v[0] + d * v[1])


def _mm(A, B):
    return tuple(zip(*(_mv(A, col) for col in zip(*B))))


def forward_kinematics(params: ManipulatorParams, q) -> np.ndarray:
    return np.array(_fk(params, float(q[0]), float(q[1])))


def jacobian(params: ManipulatorParams, q) -> np.ndarray:
    return np.array(_jac(params, float(q[0]), float(q[1])))


def jacobian_dot(params: ManipulatorParams, state: JointState) -> np.ndarray:
    return np.array(_jac_dot(params, *state.q.tolist(), *state.qdot.tolist()))


def joint_dynamics_terms(params: ManipulatorParams, state: JointState,
                         include_friction: bool = True):
    """Return (M, c_vec, G, F) of the joint-space model.

    c_vec is the Coriolis/centrifugal force *vector* (already multiplied by
    the joint velocities). F is zeroed when include_friction is False.
    """
    terms = _joint_terms(params, *state.q.tolist(), *state.qdot.tolist(),
                         include_friction)
    return tuple(map(np.array, terms))


def cartesian_dynamics_terms(params: ManipulatorParams, state: JointState,
                             include_friction: bool = True) -> CartesianDynamicsTerms:
    q1, q2 = state.q.tolist()
    qdot = state.qdot.tolist()
    J = _jac(params, q1, q2)
    det = _det(J)
    if abs(det) < params.singularity_tolerance:
        raise SingularConfiguration(
            f"|det J| = {abs(det):.3e} below tolerance {params.singularity_tolerance:.3e}"
        )
    Jinv = _inv2(J, det)
    JinvT = tuple(zip(*Jinv))
    M, c_vec, G, F = _joint_terms(params, q1, q2, *qdot, include_friction)
    Jdot = _jac_dot(params, q1, q2, *qdot)
    M_x = _mm(_mm(JinvT, M), Jinv)
    coupling = _mv(M, _mv(Jinv, _mv(Jdot, qdot)))
    bias = _mv(JinvT, [c + g + f - m for c, g, f, m in zip(c_vec, G, F, coupling)])
    Xi = _inv2(M_x, _det(M_x))
    return CartesianDynamicsTerms(M_x=np.array(M_x), bias=np.array(bias), Xi=np.array(Xi))


def _joint_accel(params: ManipulatorParams, q1, q2, qd1, qd2, tau_c, f_e,
                 include_friction: bool):
    M, c_vec, G, F = _joint_terms(params, q1, q2, qd1, qd2, include_friction)
    rhs = [tau + jf - c - g - f for tau, jf, c, g, f in
           zip(tau_c, _tv(_jac(params, q1, q2), f_e), c_vec, G, F)]
    return _mv(_inv2(M, _det(M)), rhs)


def joint_accel(params: ManipulatorParams, q, qdot, tau_c, f_e,
                include_friction: bool = True) -> np.ndarray:
    """qddot = M^-1 (tau_c + J^T f_e - c_vec - G - F)."""
    return np.array(_joint_accel(params, *_xy(q), *_xy(qdot), _xy(tau_c),
                                 _xy(f_e), include_friction))


def plant_step(params: ManipulatorParams, state: JointState, tau_c, f_e,
               dt: float, include_friction: bool = True) -> JointState:
    """Advance the joint dynamics one RK4 step with zero-order-held inputs.

    tau_c is held constant across the step; the external force f_e is held
    constant as a Cartesian force, its torque J^T f_e re-evaluated at the
    RK4 substates.
    """
    if not dt > 0.0:
        raise ValidationError("dt must be positive")
    tau_c, f_e = _xy(tau_c), _xy(f_e)

    def deriv(q1, q2, qd1, qd2):
        return (qd1, qd2) + _joint_accel(params, q1, q2, qd1, qd2, tau_c, f_e,
                                         include_friction)

    y = state.q.tolist() + state.qdot.tolist()
    k1 = deriv(*y)
    k2 = deriv(*[yi + 0.5 * dt * k for yi, k in zip(y, k1)])
    k3 = deriv(*[yi + 0.5 * dt * k for yi, k in zip(y, k2)])
    k4 = deriv(*[yi + dt * k for yi, k in zip(y, k3)])
    q1, q2, qd1, qd2 = [yi + dt / 6.0 * (a + 2.0 * b + 2.0 * c + d)
                        for yi, a, b, c, d in zip(y, k1, k2, k3, k4)]
    return JointState((q1, q2), (qd1, qd2))


def cartesian_state(params: ManipulatorParams, state: JointState) -> CartesianState:
    q1, q2 = state.q.tolist()
    return CartesianState(_fk(params, q1, q2),
                          _mv(_jac(params, q1, q2), state.qdot.tolist()))


def inverse_kinematics(params: ManipulatorParams, x, elbow_up: bool = True) -> np.ndarray:
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
    return np.array([q1, q2])
