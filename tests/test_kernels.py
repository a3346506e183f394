"""The float step kernels against independent formulations: the closed-form
two-variable projection against the SVD enumeration; the admittance and
plant RK4 steps and the task-space terms against the numpy reference in
kernel_reference.py; and the plant step and the controller, bit for bit,
against their composition from the public per-term functions."""

import math

import numpy as np
import pytest

from safeadmit import (AdmittanceParams, AdmittanceState, ControllerState, DesiredPoint,
                       FxtismcGains, InfeasibleQp, JointState, ManipulatorParams, QpProblem,
                       ValidationError, admittance_step, compensating_control, nominal_control,
                       plant_step, solve)
from safeadmit.arm import CartesianState, cartesian_dynamics_terms, cartesian_state, joint_accel
from safeadmit.qp import RANK_TOL
from safeadmit.smc import control

import kernel_reference as ref


def _solve_both(u_nom, A, b):
    """Solve the n = 2 problem by the closed form and, embedded as n = 3
    with a zero third column, by the SVD enumeration, which sees the same
    singular values. Returns both (u, active set), or None for InfeasibleQp."""
    A = np.asarray(A, dtype=float).reshape(-1, 2)
    out = []
    for prob in (QpProblem(u_nom, A, b),
                 QpProblem(np.append(u_nom, 0.0), np.hstack([A, np.zeros((len(A), 1))]), b)):
        try:
            sol = solve(prob)
        except InfeasibleQp:
            out.append(None)
            continue
        out.append((sol.u[:2], sol.active_set))
    return out


def _assert_same(u_nom, A, b):
    """Same active set, and the same point to 1e-12 (relative for |u| > 1)."""
    closed, svd = _solve_both(u_nom, A, b)
    if svd is None:
        assert closed is None
        return
    assert closed is not None
    assert closed[1] == svd[1]
    assert np.abs(np.asarray(closed[0]) - svd[0]).max() <= 1e-12 * max(1.0, np.abs(svd[0]).max())


class TestClosedFormProjection:
    def test_random_problems(self):
        rng = np.random.default_rng(11)
        for _ in range(2000):
            m = int(rng.integers(0, 6))
            _assert_same(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, (m, 2)),
                         rng.uniform(-1, 1, m))

    @pytest.mark.parametrize("A,b", [
        ([[1.0, 0.0], [2.0, 0.0]], [0.5, 0.6]),
        ([[1.0, 1.0], [1.0, 1.0]], [1.0, 1.0]),
        ([[0.0, 0.0], [1.0, 0.0]], [1.0, 0.5]),
        ([[0.0, 0.0], [1.0, 0.0]], [-1.0, 0.5]),
        ([[1.0, 0.0], [-1.0, 0.0]], [-1.0, -1.0]),
        ([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]], [-1.0, -1.0, 0.5]),
    ], ids=["parallel", "duplicate", "zero-row", "zero-row-infeasible",
            "infeasible-pair", "infeasible-pair-plus-one"])
    def test_dependent_rows(self, A, b):
        _assert_same(np.array([1.0, 1.0]), A, b)

    def test_infeasible_pair_raises(self):
        with pytest.raises(InfeasibleQp):
            solve(QpProblem([1.0, 1.0], [[1.0, 0.0], [-1.0, 0.0]], [-1.0, -1.0]))

    @pytest.mark.parametrize("scale", [0.1, 0.5, 0.9, 1.1, 2.0, 10.0])
    def test_singular_values_near_rank_tol(self, scale):
        # a pair of rows with singular values (4, 1) * s and a single row of
        # norm s, for s = scale * RANK_TOL: the rank tests on both sides of
        # the threshold decide which subsets can be active
        rng = np.random.default_rng(int(scale * 10))
        s = scale * RANK_TOL
        for _ in range(200):
            theta, phi = rng.uniform(0, 2 * math.pi, 2)
            rot = np.array([[math.cos(theta), -math.sin(theta)],
                            [math.sin(theta), math.cos(theta)]])
            A = np.vstack([rot @ np.diag([4 * s, s]) @ rot.T,
                           [[s * math.cos(phi), s * math.sin(phi)]]])
            _assert_same(rng.uniform(-1, 1, 2), A, rng.uniform(-1, 1, 3) * 1e-8)

    def test_one_variable(self):
        # n = 1 takes the closed form too; each row is a half-line
        rng = np.random.default_rng(5)
        for _ in range(300):
            m = int(rng.integers(0, 5))
            A, b = rng.uniform(-1, 1, (m, 1)), rng.uniform(-1, 1, m)
            u_nom = rng.uniform(-1, 1, 1)
            lo = max([bj / aj for aj, bj in zip(A[:, 0], b) if aj < 0], default=-np.inf)
            hi = min([bj / aj for aj, bj in zip(A[:, 0], b) if aj > 0], default=np.inf)
            if lo > hi + 1e-9:
                with pytest.raises(InfeasibleQp):
                    solve(QpProblem(u_nom, A, b))
                continue
            assert abs(solve(QpProblem(u_nom, A, b)).u[0] - np.clip(u_nom[0], lo, hi)) <= 1e-12


def _random_desired(rng):
    return DesiredPoint(*rng.uniform(-0.2, 0.2, (3, 2)))


class TestAdmittanceKernel:
    @pytest.mark.parametrize("k_m", [20.0, (20.0, 5.0), (5.0, 30.0)])
    def test_bit_identical_to_numpy(self, k_m):
        rng = np.random.default_rng(3)
        params = AdmittanceParams(k_m=k_m, k_b=(20.0, 12.0), k_k=(100.0, 80.0))
        for _ in range(500):
            st = AdmittanceState(rng.uniform(-0.2, 0.2, 2), rng.uniform(-1, 1, 2))
            points = [_random_desired(rng) for _ in range(3)]
            force = rng.uniform(-5, 5, 2)
            dt = float(rng.choice([1e-3, 2e-3, 5e-3]))
            out = admittance_step(params, st, points, force, dt)
            x1, x2 = ref.admittance_step(
                params.k_m, params.k_b, params.k_k, st.x1, st.x2,
                [(d.x_d, d.xdot_d, d.xddot_d) for d in points], force, dt)
            assert np.array_equal(out.x1, x1) and np.array_equal(out.x2, x2)


class TestPlantKernel:
    @pytest.mark.parametrize("include_friction", [True, False])
    def test_matches_numpy(self, include_friction):
        rng = np.random.default_rng(9)
        params = ManipulatorParams()
        worst = 0.0
        for _ in range(500):
            q = rng.uniform([-math.pi, 0.3], [math.pi, 2.8])
            qd = rng.uniform(-2, 2, 2)
            tau, f = rng.uniform(-20, 20, 2), rng.uniform(-10, 10, 2)
            dt = float(rng.choice([1e-3, 2e-3]))
            out = plant_step(params, JointState(q, qd), tau, f, dt,
                             include_friction=include_friction)
            q_ref, qd_ref = ref.plant_step(params, q, qd, tau, f, dt, include_friction)
            for got, want in ((out.q, q_ref), (out.qdot, qd_ref)):
                scale = max(np.abs(want).max(), 1.0)
                worst = max(worst, np.abs(got - want).max() / scale)
        assert worst <= 1e-13


def _random_joint_state(rng):
    """A joint state away from the elbow singularities (0 < q2 < pi)."""
    return JointState(rng.uniform([-math.pi, 0.3], [math.pi, 2.8]), rng.uniform(-2, 2, 2))


class TestTaskSpaceKernel:
    @pytest.mark.parametrize("include_friction", [True, False])
    def test_matches_numpy(self, include_friction):
        rng = np.random.default_rng(17)
        params = ManipulatorParams()
        worst = 0.0
        for _ in range(1000):
            st = _random_joint_state(rng)
            terms = cartesian_dynamics_terms(params, st, include_friction)
            want = ref.cartesian_dynamics_terms(params, st, include_friction)
            for got, w in zip((terms.M_x, terms.bias, terms.Xi), want):
                worst = max(worst, np.abs(np.asarray(got) - w).max() / np.abs(w).max())
        assert worst <= 1e-13


def _rk4_from_joint_accel(params, q, qdot, tau_c, f_e, dt, include_friction):
    """One RK4 step of (q, qdot) whose derivative is (qdot, joint_accel)."""
    def deriv(y):
        return (y[2], y[3], *joint_accel(params, y[:2], y[2:], tau_c, f_e, include_friction))

    y = (*q, *qdot)
    k1 = deriv(y)
    k2 = deriv([yi + 0.5 * dt * ki for yi, ki in zip(y, k1)])
    k3 = deriv([yi + 0.5 * dt * ki for yi, ki in zip(y, k2)])
    k4 = deriv([yi + dt * ki for yi, ki in zip(y, k3)])
    y1, y2, y3, y4 = [yi + dt / 6.0 * (a + 2.0 * b + 2.0 * c + d)
                      for yi, a, b, c, d in zip(y, k1, k2, k3, k4)]
    return (y1, y2), (y3, y4)


def _control_from_public(gains, ctrl_state, terms, cart, ref_point, dt):
    """nominal_control plus compensating_control under the model error
    acceleration Xi u0 + gamma - xddot_d, with gamma = -Xi bias, clamped."""
    u0x, u0y = nominal_control(gains, terms, cart, ref_point)
    (xi00, xi01), (xi10, xi11) = terms.Xi
    b0, b1 = terms.bias
    gamma = (-(xi00 * b0 + xi01 * b1), -(xi10 * b0 + xi11 * b1))
    model_acc = (xi00 * u0x + xi01 * u0y, xi10 * u0x + xi11 * u0y)
    e = [a - b for a, b in zip(cart.x, ref_point.x_d)]
    edot = [a - b for a, b in zip(cart.xdot, ref_point.xdot_d)]
    eddot = [a + gm - r for a, gm, r in zip(model_acc, gamma, ref_point.xddot_d)]
    u_s, state = compensating_control(gains, ctrl_state, terms, e, edot, eddot, dt)
    limit = gains.force_limit
    return tuple(min(max(a + b, -limit), limit) for a, b in zip((u0x, u0y), u_s)), state


class TestKernelsEqualPublicComposition:
    @pytest.mark.parametrize("dt", [1e-3, 2e-3])
    @pytest.mark.parametrize("include_friction", [True, False])
    def test_plant_step_is_rk4_of_joint_accel(self, include_friction, dt):
        rng = np.random.default_rng(19)
        params = ManipulatorParams()
        for _ in range(500):
            st = _random_joint_state(rng)
            tau, f = rng.uniform(-20, 20, 2).tolist(), rng.uniform(-10, 10, 2).tolist()
            out = plant_step(params, st, tau, f, dt, include_friction=include_friction)
            assert (out.q, out.qdot) == _rk4_from_joint_accel(params, st.q, st.qdot, tau, f,
                                                              dt, include_friction)

    @pytest.mark.parametrize("gains", [FxtismcGains(), FxtismcGains(force_limit=5.0),
                                       FxtismcGains(use_sign=True)],
                             ids=["default", "clamped", "sign"])
    def test_control_is_nominal_plus_compensation(self, gains):
        rng = np.random.default_rng(23)
        params = ManipulatorParams()
        for _ in range(500):
            st = _random_joint_state(rng)
            terms = cartesian_dynamics_terms(params, st, include_friction=False)
            cart = cartesian_state(params, st)
            ref_point = DesiredPoint(np.add(cart.x, rng.uniform(-0.05, 0.05, 2)),
                                     np.add(cart.xdot, rng.uniform(-0.5, 0.5, 2)),
                                     rng.uniform(-2, 2, 2))
            initialized = ControllerState(True, *(tuple(rng.uniform(-0.1, 0.1, 2).tolist())
                                                  for _ in range(3)))
            for ctrl_state in (ControllerState(), initialized):
                got = control(gains, ctrl_state, terms, cart, ref_point, 1e-3)
                assert got == _control_from_public(gains, ctrl_state, terms, cart, ref_point,
                                                   1e-3)


@pytest.mark.parametrize("cls", [AdmittanceState, JointState, CartesianState])
def test_state_of_floats_keeps_the_finiteness_check(cls):
    """The step builds its states from the pairs it computed with of_floats:
    the same state as the constructor's, and the same refusal with the same
    message where an entry is not finite."""
    pairs = ((0.25, -0.0), (1e300, -3.5))
    state = cls.of_floats(*pairs)
    assert state == cls(*pairs)
    assert all(a is b for a, b in zip(vars(state).values(), pairs))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError) as built:
            cls((0.0, 0.0), (1.0, bad))
        with pytest.raises(ValidationError) as taken:
            cls.of_floats((0.0, 0.0), (1.0, bad))
        assert str(taken.value) == str(built.value)
        assert str(taken.value).endswith("state entries must be finite")


def test_desired_point_of_floats_equals_the_constructor():
    pairs = ((0.1, -0.0), (0.2, 0.3), (-0.4, 0.5))
    assert DesiredPoint.of_floats(*pairs) == DesiredPoint(*pairs)
