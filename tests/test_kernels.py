"""The float step kernels against independent formulations: the closed-form
two-variable projection against the SVD enumeration, and the admittance and
plant RK4 steps against the numpy reference in kernel_reference.py."""

import math

import numpy as np
import pytest

from safeadmit import (AdmittanceParams, AdmittanceState, DesiredPoint,
                       InfeasibleQp, JointState, ManipulatorParams, QpProblem,
                       admittance_step, plant_step, solve)
from safeadmit.qp import RANK_TOL

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

    def test_sampled_points_equal_callable(self):
        rng = np.random.default_rng(4)
        params = AdmittanceParams(k_m=(20.0, 5.0))

        def desired(t):
            return DesiredPoint((math.cos(t), math.sin(t)), (t, -t), (1.0, t * t))

        for _ in range(50):
            st = AdmittanceState(rng.uniform(-0.2, 0.2, 2), rng.uniform(-1, 1, 2))
            t, dt = float(rng.uniform(0, 10)), 1e-3
            force = rng.uniform(-5, 5, 2)
            a = admittance_step(params, st, desired, force, dt, t=t)
            b = admittance_step(params, st, (desired(t), desired(t + 0.5 * dt),
                                             desired(t + dt)), force, dt)
            assert np.array_equal(a.x1, b.x1) and np.array_equal(a.x2, b.x2)


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
