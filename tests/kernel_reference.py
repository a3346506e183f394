"""Numpy reference for the float step kernels, used as the oracle in the
tests.

These are the array formulations of the admittance RK4 step, of the
two-link plant RK4 step and of the task-space dynamics terms: every
2-vector is a numpy array. The plant step inverts its 2x2 mass matrix with
the cofactor formula, the task-space terms with numpy's inverse. The
admittance step does the same floating-point operations in the same order
as the float kernel, so the two agree bit for bit; the plant step and the
task-space terms group their matrix products differently, so they agree to
rounding.
"""

import math

import numpy as np

from safeadmit.arm import jacobian, jacobian_dot, joint_dynamics_terms


def admittance_step(k_m, k_b, k_k, x1, x2, desired, force, dt):
    """One RK4 step of the per-axis MSD; ``desired`` is the three substep
    samples (d0, dh, d1), each an (x_d, xdot_d, xddot_d) triple of arrays.
    Returns (x1, x2)."""
    k_m, k_b, k_k, x1, x2 = (np.asarray(v, dtype=float) for v in (k_m, k_b, k_k, x1, x2))
    gf = (1.0 / k_m) * np.asarray(force, dtype=float)
    d0, dh, d1 = ([np.asarray(v, dtype=float) for v in d] for d in desired)

    def accel(x1, x2, des):
        x_d, xdot_d, xddot_d = des
        return -(k_b * (x2 - xdot_d) + k_k * (x1 - x_d) - k_m * xddot_d) / k_m + gf

    k1p, k1v = x2, accel(x1, x2, d0)
    k2p, k2v = x2 + 0.5 * dt * k1v, accel(x1 + 0.5 * dt * k1p, x2 + 0.5 * dt * k1v, dh)
    k3p, k3v = x2 + 0.5 * dt * k2v, accel(x1 + 0.5 * dt * k2p, x2 + 0.5 * dt * k2v, dh)
    k4p, k4v = x2 + dt * k3v, accel(x1 + dt * k3p, x2 + dt * k3v, d1)
    return (x1 + dt / 6.0 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p),
            x2 + dt / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v))


def joint_accel(params, q, qdot, tau_c, f_e, include_friction=True):
    """qddot = M^-1 (tau_c + J^T f_e - c_vec - G - F) with numpy arrays."""
    q1, q2 = q
    qd1, qd2 = qdot
    m1, m2, l1, l2, g = params.m1, params.m2, params.l1, params.l2, params.gravity
    s1, c1 = math.sin(q1), math.cos(q1)
    s2, c2 = math.sin(q2), math.cos(q2)
    s12, c12 = math.sin(q1 + q2), math.cos(q1 + q2)
    a = m2 * l2 * l2
    b = m2 * l1 * l2
    M = np.array([[a + 2.0 * b * c2 + (m1 + m2) * l1 * l1, a + b * c2],
                  [a + b * c2, a]])
    c_vec = np.array([-b * s2 * qd2 * qd2 - 2.0 * b * s2 * qd1 * qd2,
                      b * s2 * qd1 * qd1])
    G = np.array([m2 * l2 * g * c12 + (m1 + m2) * l1 * g * c1, m2 * l2 * g * c12])
    f1 = 2.0 * c1 * s2 + 5.0 * c1 * c1 if include_friction else 0.0
    F = np.array([f1, -f1])
    J = np.array([[-l1 * s1 - l2 * s12, -l2 * s12],
                  [l1 * c1 + l2 * c12, l2 * c12]])
    det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    M_inv = np.array([[M[1, 1], -M[0, 1]], [-M[1, 0], M[0, 0]]]) / det
    return M_inv @ (tau_c + J.T @ f_e - c_vec - G - F)


def plant_step(params, q, qdot, tau_c, f_e, dt, include_friction=True):
    """One RK4 step of the joint dynamics; returns (q, qdot)."""
    q, qdot = np.asarray(q, dtype=float), np.asarray(qdot, dtype=float)
    tau_c, f_e = np.asarray(tau_c, dtype=float), np.asarray(f_e, dtype=float)

    def deriv(q, qd):
        return qd, joint_accel(params, q, qd, tau_c, f_e, include_friction)

    k1q, k1v = deriv(q, qdot)
    k2q, k2v = deriv(q + 0.5 * dt * k1q, qdot + 0.5 * dt * k1v)
    k3q, k3v = deriv(q + 0.5 * dt * k2q, qdot + 0.5 * dt * k2v)
    k4q, k4v = deriv(q + dt * k3q, qdot + dt * k3v)
    return (q + dt / 6.0 * (k1q + 2.0 * k2q + 2.0 * k3q + k4q),
            qdot + dt / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v))


def cartesian_dynamics_terms(params, state, include_friction=True):
    """(M_x, bias, Xi) of the task-space dynamics as numpy arrays, from the
    public Jacobian, joint terms and Jacobian derivative, with numpy's
    matrix products and inverses."""
    J = np.array(jacobian(params, state.q))
    M, c_vec, G, F = (np.array(v) for v in joint_dynamics_terms(params, state, include_friction))
    Jdot = np.array(jacobian_dot(params, state))
    Jinv = np.linalg.inv(J)
    M_x = Jinv.T @ M @ Jinv
    bias = Jinv.T @ (c_vec + G + F - M @ Jinv @ Jdot @ np.array(state.qdot))
    return M_x, bias, np.linalg.inv(M_x)
