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

from .errors import SingularConfiguration, ValidationError, require_finite


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
        self.q = np.asarray(self.q, dtype=float).reshape(2).copy()
        self.qdot = np.asarray(self.qdot, dtype=float).reshape(2).copy()
        if not (np.isfinite(self.q).all() and np.isfinite(self.qdot).all()):
            raise ValidationError("joint state entries must be finite")


@dataclass
class CartesianState:
    x: np.ndarray
    xdot: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float).reshape(2).copy()
        self.xdot = np.asarray(self.xdot, dtype=float).reshape(2).copy()
        if not (np.isfinite(self.x).all() and np.isfinite(self.xdot).all()):
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


def forward_kinematics(params: ManipulatorParams, q) -> np.ndarray:
    q1, q2 = float(q[0]), float(q[1])
    l1, l2 = params.l1, params.l2
    return np.array(
        [l1 * math.cos(q1) + l2 * math.cos(q1 + q2),
         l1 * math.sin(q1) + l2 * math.sin(q1 + q2)]
    )


def jacobian(params: ManipulatorParams, q) -> np.ndarray:
    q1, q2 = float(q[0]), float(q[1])
    l1, l2 = params.l1, params.l2
    s1, c1 = math.sin(q1), math.cos(q1)
    s12, c12 = math.sin(q1 + q2), math.cos(q1 + q2)
    return np.array(
        [[-l1 * s1 - l2 * s12, -l2 * s12],
         [l1 * c1 + l2 * c12, l2 * c12]]
    )


def jacobian_dot(params: ManipulatorParams, state: JointState) -> np.ndarray:
    q1, q2 = state.q
    qd1, qd2 = state.qdot
    l1, l2 = params.l1, params.l2
    s1, c1 = math.sin(q1), math.cos(q1)
    s12, c12 = math.sin(q1 + q2), math.cos(q1 + q2)
    w = qd1 + qd2
    return np.array(
        [[-l1 * c1 * qd1 - l2 * c12 * w, -l2 * c12 * w],
         [-l1 * s1 * qd1 - l2 * s12 * w, -l2 * s12 * w]]
    )


def joint_dynamics_terms(params: ManipulatorParams, state: JointState,
                         include_friction: bool = True):
    """Return (M, c_vec, G, F) of the joint-space model.

    c_vec is the Coriolis/centrifugal force *vector* (already multiplied by
    the joint velocities). F is zeroed when include_friction is False.
    """
    q1, q2 = state.q
    qd1, qd2 = state.qdot
    m1, m2, l1, l2, g = params.m1, params.m2, params.l1, params.l2, params.gravity
    s1, c1 = math.sin(q1), math.cos(q1)
    s2, c2 = math.sin(q2), math.cos(q2)
    c12 = math.cos(q1 + q2)

    a = m2 * l2 * l2
    b = m2 * l1 * l2
    M = np.array(
        [[a + 2.0 * b * c2 + (m1 + m2) * l1 * l1, a + b * c2],
         [a + b * c2, a]]
    )
    c_vec = np.array(
        [-b * s2 * qd2 * qd2 - 2.0 * b * s2 * qd1 * qd2,
         b * s2 * qd1 * qd1]
    )
    G = np.array(
        [m2 * l2 * g * c12 + (m1 + m2) * l1 * g * c1,
         m2 * l2 * g * c12]
    )
    if include_friction:
        f1 = 2.0 * c1 * s2 + 5.0 * c1 * c1
        F = np.array([f1, -f1])
    else:
        F = np.zeros(2)
    return M, c_vec, G, F


def _inv2(A: np.ndarray, det: float) -> np.ndarray:
    return np.array([[A[1, 1], -A[0, 1]], [-A[1, 0], A[0, 0]]]) / det


def cartesian_dynamics_terms(params: ManipulatorParams, state: JointState,
                             include_friction: bool = True) -> CartesianDynamicsTerms:
    J = jacobian(params, state.q)
    det = J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0]
    if abs(det) < params.singularity_tolerance:
        raise SingularConfiguration(
            f"|det J| = {abs(det):.3e} below tolerance {params.singularity_tolerance:.3e}"
        )
    Jinv = _inv2(J, det)
    JinvT = Jinv.T
    M, c_vec, G, F = joint_dynamics_terms(params, state, include_friction)
    Jdot = jacobian_dot(params, state)
    M_x = JinvT @ M @ Jinv
    bias = JinvT @ (c_vec + G + F - M @ Jinv @ Jdot @ state.qdot)
    det_mx = M_x[0, 0] * M_x[1, 1] - M_x[0, 1] * M_x[1, 0]
    Xi = _inv2(M_x, det_mx)
    return CartesianDynamicsTerms(M_x=M_x, bias=bias, Xi=Xi)


def joint_accel(params: ManipulatorParams, q, qdot, tau_c, f_e,
                include_friction: bool = True) -> np.ndarray:
    """qddot = M^-1 (tau_c + J^T f_e - c_vec - G - F)."""
    st = JointState(q, qdot)
    M, c_vec, G, F = joint_dynamics_terms(params, st, include_friction)
    J = jacobian(params, q)
    det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    rhs = tau_c + J.T @ f_e - c_vec - G - F
    return _inv2(M, det) @ rhs


def plant_step(params: ManipulatorParams, state: JointState, tau_c, f_e,
               dt: float, include_friction: bool = True) -> JointState:
    """Advance the joint dynamics one RK4 step with zero-order-held inputs.

    tau_c is held constant across the step; the external force f_e is held
    constant as a Cartesian force, its torque J^T f_e re-evaluated at the
    RK4 substates.
    """
    if not dt > 0.0:
        raise ValidationError("dt must be positive")
    tau_c = np.asarray(tau_c, dtype=float)
    f_e = np.asarray(f_e, dtype=float)

    def deriv(q, qd):
        return qd, joint_accel(params, q, qd, tau_c, f_e, include_friction)

    q0, qd0 = state.q, state.qdot
    k1q, k1v = deriv(q0, qd0)
    k2q, k2v = deriv(q0 + 0.5 * dt * k1q, qd0 + 0.5 * dt * k1v)
    k3q, k3v = deriv(q0 + 0.5 * dt * k2q, qd0 + 0.5 * dt * k2v)
    k4q, k4v = deriv(q0 + dt * k3q, qd0 + dt * k3v)
    q = q0 + dt / 6.0 * (k1q + 2.0 * k2q + 2.0 * k3q + k4q)
    qd = qd0 + dt / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    return JointState(q, qd)


def cartesian_state(params: ManipulatorParams, state: JointState) -> CartesianState:
    J = jacobian(params, state.q)
    return CartesianState(forward_kinematics(params, state.q), J @ state.qdot)


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
