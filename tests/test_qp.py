import numpy as np
import pytest

from safeadmit import InfeasibleQp, QpProblem, ValidationError, solve
from safeadmit.qp import FEAS_TOL, solve_with_slack

from qp_oracle import feasible_by_sampling, project_oracle, slack_oracle


def random_problem(rng, n_max=3, m_max=6):
    n = int(rng.integers(1, n_max + 1))
    m = int(rng.integers(0, m_max + 1))
    return QpProblem(u_nom=rng.uniform(-1, 1, n),
                     A=rng.uniform(-1, 1, (m, n)),
                     b=rng.uniform(-1, 1, m))


class TestSolveExamples:
    def test_unconstrained(self):
        sol = solve(QpProblem(u_nom=[1.0, -2.0], A=np.zeros((0, 2)), b=[]))
        assert np.array_equal(sol.u, [1.0, -2.0])
        assert sol.active_set == ()

    def test_scalar_halfline(self):
        sol = solve(QpProblem(u_nom=[1.0], A=[[1.0]], b=[0.5]))
        assert np.allclose(sol.u, [0.5])
        assert sol.active_set == (0,)

    def test_diagonal_halfplane(self):
        sol = solve(QpProblem(u_nom=[1.0, 1.0], A=[[1.0, 1.0]], b=[1.0]))
        assert np.allclose(sol.u, [0.5, 0.5])
        assert sol.active_set == (0,)

    def test_feasible_nominal_untouched(self):
        sol = solve(QpProblem(u_nom=[0.1, 0.1], A=[[1.0, 1.0]], b=[1.0]))
        assert np.array_equal(sol.u, [0.1, 0.1])
        assert sol.active_set == ()

    def test_infeasible_raises(self):
        # u <= -1 and -u <= 0 (u >= 0) cannot both hold
        with pytest.raises(InfeasibleQp):
            solve(QpProblem(u_nom=[0.0], A=[[1.0], [-1.0]], b=[-1.0, 0.0]))

    def test_size_guard(self):
        for solver in (solve, solve_with_slack):
            with pytest.raises(ValidationError):
                solver(QpProblem(u_nom=np.zeros(5), A=np.zeros((1, 5)), b=[1.0]))
            with pytest.raises(ValidationError):
                solver(QpProblem(u_nom=np.zeros(2), A=np.zeros((9, 2)), b=np.ones(9)))

    @pytest.mark.parametrize("A,b", [
        # parallel rows, the shape of the filter's ws_max_x / ws_min_x pair
        ([[1.0, 0.0], [2.0, 0.0]], [0.5, 0.6]),
        ([[1.0, 1.0], [1.0, 1.0]], [1.0, 1.0]),
        ([[0.0, 0.0], [1.0, 0.0]], [1.0, 0.5]),
        ([[1.0, 0.0], [-1.0, 0.0]], [-1.0, -1.0]),
    ], ids=["parallel", "duplicate", "zero-row", "infeasible-pair"])
    def test_dependent_rows_match_oracle(self, A, b):
        prob = QpProblem(u_nom=[1.0, 1.0], A=A, b=b)
        expected = project_oracle(prob.u_nom, prob.A, prob.b)
        if expected is None:
            with pytest.raises(InfeasibleQp):
                solve(prob)
        else:
            assert np.linalg.norm(solve(prob).u - expected) <= 1e-12

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            QpProblem(u_nom=[np.inf], A=[[1.0]], b=[0.0])

    @pytest.mark.parametrize("u_nom,A,b", [
        ([0.0, 0.0], [[1.0, 2.0, 3.0, 4.0]], [1.0, 1.0]),
        ([0.0, 0.0], [[1.0, 2.0], [3.0, 4.0]], [1.0]),
        ([0.0], [1.0, -1.0], [1.0, 1.0]),
        ([0.0, 0.0], [[[1.0, 2.0]]], [1.0]),
    ], ids=["one-long-row", "rows-past-b", "flat", "3-d"])
    def test_a_not_b_rows_by_n_rejected(self, u_nom, A, b):
        with pytest.raises(ValidationError, match="^A must be len"):
            QpProblem(u_nom, A, b)

    @pytest.mark.parametrize("u_nom,A,b", [
        ([0.0, 0.0], [["a", 1.0]], [1.0]),
        ([0.0, 0.0], [[1.0], [1.0, 2.0]], [1.0, 1.0]),
        ([0.0, None], [[1.0, 1.0]], [1.0]),
        ([0.0, 0.0], [[1.0, 1.0]], ["x"]),
        (3.0, [[1.0]], [1.0]),
    ], ids=["string-in-A", "ragged-A", "none-in-u_nom", "string-in-b", "scalar-u_nom"])
    def test_non_numeric_entries_rejected(self, u_nom, A, b):
        with pytest.raises(ValidationError, match="^QP entries must be numbers"):
            QpProblem(u_nom, A, b)

    @pytest.mark.parametrize("A", [[], np.zeros(0), np.zeros((0, 2))], ids=["list", "flat", "0x2"])
    def test_empty_a_with_empty_b_accepted(self, A):
        prob = QpProblem([1.0, -2.0], A, [])
        assert prob.A.shape == (0, 2)
        assert solve(prob).u == (1.0, -2.0)

    def test_rows_are_float_tuples_of_a(self):
        A = np.array([[1, 2], [3, -4]])
        prob = QpProblem((0, 0), A, (1, 1))
        assert prob.rows == ((1.0, 2.0), (3.0, -4.0))
        assert all(type(v) is float for row in prob.rows for v in row)
        assert prob.A.dtype == float and np.array_equal(prob.A, A)
        assert np.array_equal(QpProblem.of_rows((0.0, 0.0), prob.rows, (1.0, 1.0)).A, A)


class TestSolveProperties:
    def test_oracle_equivalence(self, rng):
        for _ in range(300):
            prob = random_problem(rng)
            expected = project_oracle(prob.u_nom, prob.A, prob.b)
            try:
                sol = solve(prob)
            except InfeasibleQp:
                assert expected is None or not feasible_by_sampling(prob.A, prob.b, rng)
                continue
            assert expected is not None
            assert np.linalg.norm(sol.u - expected) <= 1e-8

    def test_determinism(self, rng):
        for _ in range(50):
            prob = random_problem(rng)
            try:
                a = solve(prob)
            except InfeasibleQp:
                continue
            b = solve(QpProblem(prob.u_nom, prob.A, prob.b))
            assert np.array_equal(a.u, b.u)
            assert a.active_set == b.active_set

    def test_variational_inequality(self, rng):
        # (u' - u) . (u_nom - u) <= tol for any feasible u'
        for _ in range(50):
            prob = random_problem(rng)
            try:
                sol = solve(prob)
            except InfeasibleQp:
                continue
            n = np.asarray(prob.u_nom).size
            samples = rng.uniform(-3, 3, (500, n))
            feas = samples[(samples @ prob.A.T <= np.asarray(prob.b) + FEAS_TOL).all(axis=1)]
            for u_prime in feas:
                assert (u_prime - sol.u) @ (np.asarray(prob.u_nom) - sol.u) <= 1e-9

    def test_translation_equivariance(self, rng):
        for _ in range(30):
            prob = random_problem(rng)
            try:
                sol = solve(prob)
            except InfeasibleQp:
                continue
            shift = rng.uniform(-1, 1, np.asarray(prob.u_nom).size)
            shifted = QpProblem(prob.u_nom + shift, prob.A,
                                prob.b + prob.A @ shift)
            sol2 = solve(shifted)
            assert np.abs(sol2.u - (sol.u + shift)).max() < 1e-8

    def test_solution_always_feasible(self, rng):
        for _ in range(100):
            prob = random_problem(rng)
            try:
                sol = solve(prob)
            except InfeasibleQp:
                continue
            assert (prob.A @ sol.u <= np.asarray(prob.b) + 10 * FEAS_TOL).all()


class TestSlack:
    def test_matches_hard_when_feasible_and_far(self):
        prob = QpProblem(u_nom=[1.0, 1.0], A=[[1.0, 1.0]], b=[1.0])
        hard = solve(prob)
        soft, slacks = solve_with_slack(prob, weight=1e9)
        assert np.abs(np.asarray(soft.u) - hard.u).max() < 1e-6
        assert slacks.max() < 1e-6

    def test_infeasible_gets_compromise(self):
        # contradictory rows: u <= -1 and u >= 1
        prob = QpProblem(u_nom=[0.0], A=[[1.0], [-1.0]], b=[-1.0, -1.0])
        sol, slacks = solve_with_slack(prob)
        assert np.isfinite(sol.u).all()
        assert slacks.max() > 0.1
        # symmetric rows around the nominal: compromise stays at 0
        assert abs(sol.u[0]) < 1e-9

    def test_penalty_scales_violation(self):
        prob = QpProblem(u_nom=[0.0], A=[[1.0], [-1.0]], b=[-1.0, -1.0])
        _, light = solve_with_slack(prob, weight=1e2)
        _, heavy = solve_with_slack(prob, weight=1e8)
        assert heavy.max() <= light.max() + 1e-9

    def test_oracle_equivalence(self, rng):
        for _ in range(300):
            prob = random_problem(rng)
            for w in (1e2, 1e6, 1e9):
                expected = slack_oracle(prob.u_nom, prob.A, prob.b, w)
                sol, slacks = solve_with_slack(prob, weight=w)
                assert np.linalg.norm(sol.u - expected) <= 1e-6
                assert np.array_equal(slacks, np.maximum(prob.A @ sol.u - prob.b, 0.0))

    @pytest.mark.parametrize("weight", [0.0, -1.0, np.inf, np.nan, "1e6"])
    def test_weight_must_be_finite_and_positive(self, weight):
        # refused before any numpy call, so no RuntimeWarning comes first
        prob = QpProblem(u_nom=[0.0], A=[[1.0], [-1.0]], b=[-1.0, -1.0])
        with pytest.raises(ValidationError, match="^weight must be a finite positive number"):
            solve_with_slack(prob, weight=weight)

    def test_slack_oracle_scalar(self):
        # min (u-0)^2 + w*max(0, u-(-1))^2 with row u <= -1:
        # optimum of (u)^2 + w(u+1)^2 is u = -w/(1+w)
        w = 100.0
        sol, slacks = solve_with_slack(
            QpProblem(u_nom=[0.0], A=[[1.0]], b=[-1.0]), weight=w)
        assert abs(sol.u[0] - (-w / (1 + w))) < 1e-12
        assert abs(slacks[0] - 1 / (1 + w)) < 1e-12
