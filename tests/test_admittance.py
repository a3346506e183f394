import math

import numpy as np
import pytest

from safeadmit import (AdmittanceParams, AdmittanceState, DesiredPoint,
                       ValidationError, admittance_step, drift_term)
from safeadmit.sim import desired_trajectory

PAR = AdmittanceParams()


class TestParams:
    def test_scalar_broadcast(self):
        p = AdmittanceParams(k_m=5.0, k_b=(1.0, 2.0), k_k=3.0)
        assert np.allclose(p.k_m, [5.0, 5.0])
        assert np.allclose(p.k_b, [1.0, 2.0])
        assert np.allclose(p.input_gain, [0.2, 0.2])

    def test_nonpositive_mass_rejected(self):
        with pytest.raises(ValidationError):
            AdmittanceParams(k_m=-1.0)

    def test_negative_stiffness_rejected(self):
        with pytest.raises(ValidationError):
            AdmittanceParams(k_k=-1.0)


class TestDrift:
    def test_on_desired_returns_feedforward(self):
        des = DesiredPoint((0.1, -0.2), (0.3, 0.0), (0.7, -0.4))
        st = AdmittanceState(des.x_d, des.xdot_d)
        assert np.allclose(drift_term(PAR, st, des), des.xddot_d)

    def test_position_offset_value(self):
        # pure 0.1 m position error: -(1/20)(100*0.1) = -0.5
        des = DesiredPoint((0.0, 0.0), (0.0, 0.0), (0.0, 0.0))
        st = AdmittanceState((0.1, 0.0), (0.0, 0.0))
        d = drift_term(PAR, st, des)
        assert abs(d[0] - (-0.5)) < 1e-12
        assert d[1] == 0.0

    def test_linearity_in_state(self, rng):
        des = DesiredPoint((0.0, 0.0), (0.0, 0.0), (0.0, 0.0))
        for _ in range(50):
            a = rng.uniform(-1, 1, 4)
            b = rng.uniform(-1, 1, 4)
            c1, c2 = rng.uniform(-2, 2, 2)
            sa = AdmittanceState(a[:2], a[2:])
            sb = AdmittanceState(b[:2], b[2:])
            sc = AdmittanceState(c1 * a[:2] + c2 * b[:2], c1 * a[2:] + c2 * b[2:])
            lhs = drift_term(PAR, sc, des)
            rhs = c1 * np.asarray(drift_term(PAR, sa, des)) + c2 * np.asarray(drift_term(PAR, sb, des))
            assert np.abs(lhs - rhs).max() < 1e-9


class TestStep:
    def test_stays_on_trajectory_without_force(self):
        dt = 1e-3
        st = AdmittanceState(desired_trajectory(0.0).x_d, desired_trajectory(0.0).xdot_d)
        worst = 0.0
        for k in range(12560):
            t = k * dt
            points = (desired_trajectory(t), desired_trajectory(t + 0.5 * dt),
                      desired_trajectory(t + dt))
            st = admittance_step(PAR, st, points, np.zeros(2), dt)
            worst = max(worst, np.abs(np.asarray(st.x1) - desired_trajectory((k + 1) * dt).x_d).max())
        assert worst <= 1e-6

    def test_constant_force_steady_offset(self):
        des = DesiredPoint((0.05, -0.02), (0.0, 0.0), (0.0, 0.0))
        st = AdmittanceState(des.x_d, (0.0, 0.0))
        F = np.array([3.0, 0.0])
        for _ in range(40000):
            st = admittance_step(PAR, st, (des,) * 3, F, 1e-3)
        assert np.allclose(np.asarray(st.x1) - des.x_d, F / PAR.k_k, atol=1e-8)
        assert np.abs(st.x2).max() < 1e-8

    def test_underdamped_step_overshoots(self):
        # discriminant k_b^2 - 4 k_m k_k = 400 - 8000 < 0: oscillatory decay
        des = DesiredPoint((0.0, 0.0), (0.0, 0.0), (0.0, 0.0))
        st = AdmittanceState((0.1, 0.0), (0.0, 0.0))
        crossed = False
        for _ in range(30000):
            st = admittance_step(PAR, st, (des,) * 3, np.zeros(2), 1e-3)
            if st.x1[0] < -1e-6:
                crossed = True
        assert crossed
        assert np.abs(st.x1).max() < 1e-6

    def test_axis_decoupling(self):
        des = DesiredPoint((0.0, 0.0), (0.0, 0.0), (0.0, 0.0))
        st = AdmittanceState((0.1, 0.0), (0.0, 0.3))
        joint = AdmittanceState(st.x1, st.x2)
        only_x = AdmittanceState((st.x1[0], 0.0), (0.0, 0.0))
        only_y = AdmittanceState((0.0, 0.0), (0.0, st.x2[1]))
        F = np.array([1.0, -2.0])
        for _ in range(100):
            joint = admittance_step(PAR, joint, (des,) * 3, F, 1e-3)
            only_x = admittance_step(PAR, only_x, (des,) * 3, (F[0], 0.0), 1e-3)
            only_y = admittance_step(PAR, only_y, (des,) * 3, (0.0, F[1]), 1e-3)
        assert joint.x1[0] == only_x.x1[0]
        assert joint.x1[1] == only_y.x1[1]

    def test_rk4_convergence_order(self):
        # halving dt should shrink the one-second error by roughly 2^4
        des = DesiredPoint((0.0, 0.0), (0.0, 0.0), (0.0, 0.0))
        lam = PAR.k_b[0] / (2 * PAR.k_m[0])
        wd = math.sqrt(PAR.k_k[0] / PAR.k_m[0] - lam ** 2)

        def exact(t):
            return math.exp(-lam * t) * (math.cos(wd * t) + lam / wd * math.sin(wd * t)) * 0.1

        def err(dt):
            st = AdmittanceState((0.1, 0.0), (0.0, 0.0))
            n = round(1.0 / dt)
            for _ in range(n):
                st = admittance_step(PAR, st, (des,) * 3, np.zeros(2), dt)
            return abs(st.x1[0] - exact(1.0))

        e1, e2 = err(2e-2), err(1e-2)
        assert e1 / e2 > 10.0

    def test_zero_dt_rejected(self):
        st = AdmittanceState((0.0, 0.0), (0.0, 0.0))
        des = DesiredPoint((0.0, 0.0), (0.0, 0.0), (0.0, 0.0))
        with pytest.raises(ValidationError):
            admittance_step(PAR, st, (des,) * 3, np.zeros(2), 0.0)

    @pytest.mark.parametrize("desired", [
        DesiredPoint((0.0, 0.0), (0.0, 0.0), (0.0, 0.0)),
        (DesiredPoint((0.0, 0.0), (0.0, 0.0), (0.0, 0.0)),) * 2,
        ((0.0, 0.0),) * 3,
        "abc",
        desired_trajectory,
        None,
    ], ids=["one-point", "two-points", "three-pairs", "text", "callable", "none"])
    def test_anything_but_three_points_rejected(self, desired):
        st = AdmittanceState((0.0, 0.0), (0.0, 0.0))
        with pytest.raises(ValidationError, match="^desired needs the DesiredPoints"):
            admittance_step(PAR, st, desired, np.zeros(2), 1e-3)

    def test_nonfinite_state_rejected(self):
        with pytest.raises(ValidationError):
            AdmittanceState((np.nan, 0.0), (0.0, 0.0))
