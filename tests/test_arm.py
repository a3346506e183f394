import math

import numpy as np
import pytest

from safeadmit import (JointState, ManipulatorParams, SingularConfiguration,
                       ValidationError, cartesian_dynamics_terms,
                       forward_kinematics, inverse_kinematics, jacobian,
                       jacobian_dot, joint_dynamics_terms, plant_step)
from safeadmit.arm import cartesian_state, joint_accel

P = ManipulatorParams()


class TestForwardKinematics:
    def test_fully_extended_x(self):
        assert np.allclose(forward_kinematics(P, [0.0, 0.0]), [0.6, 0.0])

    def test_folded_above_base(self):
        # 30 deg shoulder, 120 deg elbow: cos150 = -cos30, sines add to 1
        x = forward_kinematics(P, [0.5236, 2.0944])
        assert np.allclose(x, [0.0, 0.3], atol=1e-4)

    def test_fully_extended_y(self):
        assert np.allclose(forward_kinematics(P, [math.pi / 2, 0.0]), [0.0, 0.6])

    def test_ik_round_trip(self, rng):
        for _ in range(50):
            q = rng.uniform([-math.pi, 0.3], [math.pi, 2.8])
            x = forward_kinematics(P, q)
            q_rec = inverse_kinematics(P, x)
            assert np.allclose(forward_kinematics(P, q_rec), x, atol=1e-12)

    @pytest.mark.parametrize("x, match", [
        ((math.nan, 0.3), "not a finite point of the reachable workspace"),
        ((0.1, 0.2, 0.3), "x must be a number or a pair"),  # no z folded into the reach
        ("ab", "x must be a number or a pair"),
        ((0.5, 0.5), "not a finite point of the reachable workspace"),
    ], ids=["nan", "3-vector", "text", "unreachable"])
    def test_ik_refuses_target(self, x, match):
        with pytest.raises(ValidationError, match=match):
            inverse_kinematics(P, x)


class TestJacobian:
    def test_zero_configuration(self):
        assert np.allclose(jacobian(P, [0.0, 0.0]), [[0.0, 0.0], [0.6, 0.3]])

    def test_right_angle_elbow(self):
        J = jacobian(P, [0.0, math.pi / 2])
        assert np.allclose(J, [[-0.3, -0.3], [0.3, 0.0]])

    def test_determinant_identity(self, rng):
        # det J = l1 l2 sin(q2) for any configuration
        for _ in range(200):
            q = rng.uniform(-math.pi, math.pi, 2)
            J = np.asarray(jacobian(P, q))
            det = J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0]
            assert abs(det - P.l1 * P.l2 * math.sin(q[1])) < 1e-12

    def test_det_at_start_configuration(self):
        J = jacobian(P, [0.5236, 2.0944])
        det = np.linalg.det(J)
        assert abs(det - 0.09 * math.sin(2.0944)) < 1e-12
        assert abs(det - 0.07794) < 1e-4


class TestJacobianDot:
    def test_stationary(self):
        st = JointState([0.7, 1.2], [0.0, 0.0])
        assert np.allclose(jacobian_dot(P, st), np.zeros((2, 2)))

    def test_hand_differentiated(self):
        st = JointState([0.0, 0.0], [1.0, 0.0])
        assert np.allclose(jacobian_dot(P, st), [[-0.6, -0.3], [0.0, 0.0]])

    def test_finite_difference(self, rng):
        delta = 1e-6
        for _ in range(100):
            q = rng.uniform(-math.pi, math.pi, 2)
            qd = rng.uniform(-1.0, 1.0, 2)
            fd = (np.asarray(jacobian(P, q + qd * delta)) - jacobian(P, q)) / delta
            assert np.abs(fd - jacobian_dot(P, JointState(q, qd))).max() <= 1e-5


class TestJointDynamics:
    def test_mass_matrix_right_angle(self):
        st = JointState([0.3, math.pi / 2], [0.0, 0.0])
        M, _, _, _ = joint_dynamics_terms(P, st)
        assert np.allclose(M, [[0.315, 0.09], [0.09, 0.09]])

    def test_coriolis_vanishes_at_rest(self):
        st = JointState([0.4, 1.1], [0.0, 0.0])
        _, c_vec, _, _ = joint_dynamics_terms(P, st)
        assert np.allclose(c_vec, [0.0, 0.0])

    def test_gravity_vanishes_arm_vertical(self):
        st = JointState([math.pi / 2, 0.0], [0.0, 0.0])
        _, _, G, _ = joint_dynamics_terms(P, st)
        assert np.allclose(G, [0.0, 0.0], atol=1e-12)

    def test_mass_matrix_positive_definite(self):
        for q2 in np.linspace(0.1, math.pi - 0.1, 15):
            for q1 in np.linspace(-math.pi, math.pi, 9):
                M, _, _, _ = joint_dynamics_terms(P, JointState([q1, q2], [0, 0]))
                M = np.asarray(M)
                assert np.allclose(M, M.T)
                assert np.linalg.eigvalsh(M).min() > 0.0


class TestCartesianDynamics:
    def test_xi_inverts_mass(self, rng):
        for _ in range(20):
            q = rng.uniform([-1.0, 0.5], [1.0, 2.5])
            qd = rng.uniform(-1.0, 1.0, 2)
            terms = cartesian_dynamics_terms(P, JointState(q, qd))
            assert np.abs(np.asarray(terms.Xi) @ terms.M_x - np.eye(2)).max() < 1e-10

    def test_singular_configuration_rejected(self):
        with pytest.raises(SingularConfiguration):
            cartesian_dynamics_terms(P, JointState([0.0, 0.0], [0.0, 0.0]))

    def test_joint_vs_cartesian_integration(self):
        # integrate the same smooth torque in joint space and through the
        # task-space terms; trajectories must coincide
        dt = 1e-3

        def torque(t, q, qd):
            _, _, G, F = joint_dynamics_terms(P, JointState(q, qd))
            return np.asarray(G) + F + np.array([0.2 * math.sin(2.0 * t), 0.1 * math.cos(t)])

        joint = JointState([0.5236, 2.0944], [0.0, 0.0])
        q_c = np.asarray(joint.q).copy()
        x_c = forward_kinematics(P, q_c)
        xd_c = np.zeros(2)

        def cart_rhs(tau, q, x, xd):
            # the commanded torque is zero-order-held across the step, as in
            # plant_step
            J = np.asarray(jacobian(P, q))
            qd = np.linalg.solve(J, xd)
            terms = cartesian_dynamics_terms(P, JointState(q, qd))
            f_c = np.linalg.solve(J.T, tau)
            return qd, xd, terms.Xi @ (f_c - terms.bias)

        for k in range(1000):
            t = k * dt
            joint = plant_step(P, joint, torque(t, joint.q, joint.qdot),
                               np.zeros(2), dt)
            # RK4 on the Cartesian formulation, carrying q kinematically
            qd_c = np.linalg.solve(jacobian(P, q_c), xd_c)
            tau = torque(t, q_c, qd_c)
            y = (q_c, x_c, xd_c)
            k1 = cart_rhs(tau, *y)
            k2 = cart_rhs(tau, *(y[i] + dt / 2 * k1[i] for i in range(3)))
            k3 = cart_rhs(tau, *(y[i] + dt / 2 * k2[i] for i in range(3)))
            k4 = cart_rhs(tau, *(y[i] + dt * k3[i] for i in range(3)))
            q_c, x_c, xd_c = (y[i] + dt / 6 * (k1[i] + 2 * k2[i] + 2 * k3[i] + k4[i])
                              for i in range(3))
        gap = np.linalg.norm(forward_kinematics(P, joint.q) - x_c)
        assert gap <= 1e-6


class TestPlantStep:
    def test_equilibrium(self):
        st = JointState([0.4, 1.3], [0.0, 0.0])
        _, _, G, F = joint_dynamics_terms(P, st)
        after = plant_step(P, st, np.asarray(G) + F, np.zeros(2), 1e-3)
        assert np.abs(np.asarray(after.q) - st.q).max() < 1e-9
        assert np.abs(after.qdot).max() < 1e-9

    def test_energy_conservation(self):
        params = ManipulatorParams(gravity=0.0)
        st = JointState([0.3, 1.5], [1.0, -0.5])

        def kinetic(s):
            M, _, _, _ = joint_dynamics_terms(params, s, include_friction=False)
            return 0.5 * np.asarray(s.qdot) @ M @ s.qdot

        e0 = kinetic(st)
        for _ in range(1000):
            st = plant_step(params, st, np.zeros(2), np.zeros(2), 1e-3,
                            include_friction=False)
        assert abs(kinetic(st) - e0) <= 1e-6

    def test_zero_dt_rejected(self):
        st = JointState([0.4, 1.3], [0.0, 0.0])
        with pytest.raises(ValidationError):
            plant_step(P, st, np.zeros(2), np.zeros(2), 0.0)

    def test_external_force_accelerates(self):
        st = JointState([0.5236, 2.0944], [0.0, 0.0])
        _, _, G, F = joint_dynamics_terms(P, st)
        qdd = joint_accel(P, st.q, st.qdot, np.asarray(G) + F, np.array([1.0, 0.0]))
        J = np.asarray(jacobian(P, st.q))
        # acceleration maps back to a positive x-acceleration at the tip
        assert (J @ qdd)[0] > 0.0

    def test_cartesian_state_consistent(self):
        st = JointState([0.5, 1.0], [0.3, -0.2])
        cs = cartesian_state(P, st)
        assert np.allclose(cs.x, forward_kinematics(P, st.q))
        assert np.allclose(cs.xdot, np.asarray(jacobian(P, st.q)) @ st.qdot)
