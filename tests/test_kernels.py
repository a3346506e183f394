"""The float step kernels against independent formulations: the closed-form
two-variable projection against the SVD enumeration; the admittance and
plant RK4 steps and the task-space terms against the numpy reference in
kernel_reference.py; and the public plant step and controller and each
stage kernel of the two chains, bit for bit, against their composition
from the public per-term functions. The kernels take the constants that
each frozen parameter record builds once, so they also run under
non-default parameters, against references that read each parameter from
its field."""

import math
from dataclasses import FrozenInstanceError, astuple, fields, replace
from itertools import product

import numpy as np
import pytest

from safeadmit import (AdmittanceParams, AdmittanceState, ConstraintSet, ControllerState,
                       DesiredPoint, EcbfGains, FxtismcGains, InfeasibleQp, JointState,
                       ManipulatorParams, ObstacleConstraint, QpProblem, SimulationAborted,
                       SingularConfiguration, ValidationError, WorkspaceConstraint,
                       admittance_step, assemble_qp, compensating_control, desired_trajectory,
                       drift_term, filter_force, human_force, nominal_control, plant_step,
                       scenario_library, sim, sliding_variable, solve, solve_with_slack)
from safeadmit.admittance import _admittance_floats
from safeadmit.arm import (CartesianState, _jac, _joint_terms, _plant_floats, _qddot, _task_floats,
                           _trig, cartesian_dynamics_terms, cartesian_state, jacobian,
                           jacobian_dot, joint_accel, joint_dynamics_terms)
from safeadmit.qp import RANK_TOL
from safeadmit.safety import _filter_floats, _unit_rows
from safeadmit.smc import _control_floats, control

import kernel_reference as ref

# Every field at a value other than its default, so that a kernel whose
# constants record bound a default, or read the wrong field, differs.
CUSTOM_ROBOT = ManipulatorParams(m1=2.1, m2=0.7, l1=0.35, l2=0.25, gravity=9.7,
                                 singularity_tolerance=2e-4)
ROBOTS = (ManipulatorParams(), CUSTOM_ROBOT)
CUSTOM_GAINS = FxtismcGains(lambda1=2.5, lambda2=15.0, lambda3=40.0, alpha=0.6, beta=1.4,
                            kappa1=15.0, kappa2=40.0, kappa3=25.0, kappa4=60.0, m_exp=0.65,
                            n_exp=1.5, p_exp=0.55, q_exp=1.8, rho=25.0, epsilon=4.0,
                            boundary_layer=2e-3, use_sign=True, force_limit=800.0)
GAINS = pytest.mark.parametrize(
    "gains", [FxtismcGains(), FxtismcGains(force_limit=5.0), FxtismcGains(use_sign=True),
              CUSTOM_GAINS, replace(CUSTOM_GAINS, use_sign=False)],
    ids=["default", "clamped", "sign", "custom-sign", "custom"])
CUSTOM_CSET = ConstraintSet(
    workspace=WorkspaceConstraint(r=0.03), obstacle=ObstacleConstraint((-0.05, 0.06), r=0.05),
    gains=EcbfGains(K_max=(400.0, 45.0), K_min=(600.0, 55.0), K_obs=(900.0, 80.0)))


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
        # n = 1 takes the SVD path; each row is a half-line
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
        worst = 0.0
        for params, _ in product(ROBOTS, range(500)):
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
        worst = 0.0
        for params, _ in product(ROBOTS, range(1000)):
            st = _random_joint_state(rng)
            terms = cartesian_dynamics_terms(params, st, include_friction)
            want = ref.cartesian_dynamics_terms(params, st, include_friction)
            for got, w in zip((terms.M_x, terms.bias, terms.Xi), want):
                worst = max(worst, np.abs(np.asarray(got) - w).max() / np.abs(w).max())
        assert worst <= 1e-13


def _bits(*values):
    """The bytes of the floats ``values``: equal bits, a zero's sign and a
    NaN's payload included."""
    return np.array(values, dtype=float).tobytes()


def _rk4(deriv, y, samples, dt):
    """One RK4 step of the float tuple y whose derivative at the state z and
    the stage's sample d is deriv(z, d); samples are the stages' d."""
    d0, dh, d1 = samples
    k1 = deriv(y, d0)
    k2 = deriv([yi + 0.5 * dt * ki for yi, ki in zip(y, k1)], dh)
    k3 = deriv([yi + 0.5 * dt * ki for yi, ki in zip(y, k2)], dh)
    k4 = deriv([yi + dt * ki for yi, ki in zip(y, k3)], d1)
    return [yi + dt / 6.0 * (a + 2.0 * b + 2.0 * c + d)
            for yi, a, b, c, d in zip(y, k1, k2, k3, k4)]


def _rk4_from_joint_accel(params, q, qdot, tau_c, f_e, dt, include_friction):
    """One RK4 step of (q, qdot) whose derivative is (qdot, joint_accel)."""
    def deriv(y, _):
        return (y[2], y[3], *joint_accel(params, y[:2], y[2:], tau_c, f_e, include_friction))

    y1, y2, y3, y4 = _rk4(deriv, (*q, *qdot), (None,) * 3, dt)
    return y1, y2, y3, y4


def _admittance_from_drift_term(params, state, points, force, dt):
    """One RK4 step of (x1, x2) whose derivative is (x2, drift_term + f / k_m)."""
    (gx, gy), (fx, fy) = params.input_gain, force

    def deriv(y, point):
        ax, ay = drift_term(params, AdmittanceState(y[:2], y[2:]), point)
        return y[2], y[3], ax + gx * fx, ay + gy * fy

    return _rk4(deriv, (*state.x1, *state.x2), points, dt)


def _mm(A, B):
    (a, b), (c, d) = A
    (e, f), (g, h) = B
    return (a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h)


def _mv(A, v):
    (a, b), (c, d) = A
    return a * v[0] + b * v[1], c * v[0] + d * v[1]


def _inv(A):
    (a, b), (c, d) = A
    det = a * d - b * c
    return (d / det, -b / det), (-c / det, a / det)


def _terms_from_public(params, st, include_friction):
    """The task-space terms from jacobian, joint_dynamics_terms and
    jacobian_dot: M_x = J^-T M J^-1, bias = J^-T (c + G + F - M J^-1 Jdot
    qdot) and Xi = M_x^-1, as ten floats."""
    Jinv = _inv(jacobian(params, st.q))
    JinvT = tuple(zip(*Jinv))
    M, c, G, F = joint_dynamics_terms(params, st, include_friction)
    M_x = _mm(_mm(JinvT, M), Jinv)
    mu = _mv(M, _mv(Jinv, _mv(jacobian_dot(params, st), st.qdot)))
    bias = _mv(JinvT, [ci + gi + fi - m for ci, gi, fi, m in zip(c, G, F, mu)])
    return (*M_x[0], *M_x[1], *bias, *(v for row in _inv(M_x) for v in row))


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


def _row_bits(rows):
    """The bits of every entry of a RowValues, field by field."""
    h, lf_h, p, q, K = rows
    return _bits(*h, *lf_h, *p, *(v for pair in q + K for v in pair))


def _filter_from_public(cset, x, y, vx, vy, dx, dy, gx, gy, fx, fy):
    """The filter step from evaluate, assemble_qp and solve, and where the
    rows conflict in a slack set, solve_with_slack on the unit rows:
    (f_e_hat, f_e_comp, h, active set, status, largest slack)."""
    rows = cset.evaluate(AdmittanceState((x, y), (vx, vy)), (dx, dy), (gx, gy))
    problem = assemble_qp(rows, (fx, fy))
    try:
        sol, status, slack_max = solve(problem), "ok", 0.0
    except InfeasibleQp:
        if not cset.slack:
            raise
        sol, slacks = solve_with_slack(_unit_rows(problem))
        slack_max = float(slacks.max())
        status = "slack" if slack_max > 0.0 else "ok"
    (ux, uy) = sol.u
    return (ux, uy), (ux - fx, uy - fy), rows.h, sol.active_set, status, slack_max


def _random_filter_inputs(rng, n):
    """n filter inputs (x, y, vx, vy, dx, dy, gx, gy, fx, fy) near the
    presets' barriers, so that no row, one or two rows are active."""
    for _ in range(n):
        yield (*rng.uniform(-0.1, 0.1, 2), *rng.uniform(-0.3, 0.3, 2), *rng.uniform(-3, 3, 2),
               *rng.choice([0.05, 0.2], 2), *rng.uniform(-8, 8, 2))


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
            assert _bits(*out.q, *out.qdot) == _bits(*_rk4_from_joint_accel(
                params, st.q, st.qdot, tau, f, dt, include_friction))

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
                (fx, fy), state = control(gains, ctrl_state, terms, cart, ref_point, 1e-3)
                (wx, wy), want = _control_from_public(gains, ctrl_state, terms, cart, ref_point,
                                                      1e-3)
                assert isinstance(state, ControllerState) and state.initialized
                assert _bits(fx, fy, *state.s_initial, *state.sigma_integral,
                             *state.prev_integrand) == _bits(wx, wy, *want.s_initial,
                                                             *want.sigma_integral,
                                                             *want.prev_integrand)
    @pytest.mark.parametrize("dt", [1e-3, 2e-3])
    def test_sample(self, dt):
        rng = np.random.default_rng(29)
        params = AdmittanceParams(k_m=(20.0, 5.0), k_b=(20.0, 12.0), k_k=(100.0, 80.0))
        for _ in range(500):
            t, radius, rate = rng.uniform(0, 16), rng.uniform(0.05, 0.2), rng.uniform(-1, 1)
            amplitude = tuple(rng.uniform(-3, 3, 2).tolist())
            state = AdmittanceState(rng.uniform(-0.2, 0.2, 2), rng.uniform(-1, 1, 2))
            d0, dh, d1, fx, fy, dx, dy = sim._sample(t, dt, radius, rate, amplitude, params.axes,
                                                     *state.x1, *state.x2)
            points = [desired_trajectory(s, radius, rate) for s in (t, t + 0.5 * dt, t + dt)]
            assert _bits(*d0, *dh, *d1) == _bits(*(v for p in points for v in p.sample))
            assert _bits(fx, fy) == _bits(*human_force(t, amplitude))
            assert _bits(dx, dy) == _bits(*drift_term(params, state, points[0]))

    @pytest.mark.parametrize("preset", ["combined", "workspace", "obstacle-only", "custom"])
    def test_filter(self, preset):
        rng = np.random.default_rng(31)
        cset = CUSTOM_CSET if preset == "custom" else scenario_library()[preset].constraint_set()
        seen = set()
        for inputs in _random_filter_inputs(rng, 1000):
            try:
                ux, uy, cx, cy, h_got, active, status, slack_max, _ = _filter_floats(
                    cset, None, *inputs)
            except InfeasibleQp:  # the rows conflict, and the set has no slack
                with pytest.raises(InfeasibleQp):
                    _filter_from_public(cset, *inputs)
                seen.add("infeasible")
                continue
            f_hat, f_comp, h, want_active, want_status, want_slack = _filter_from_public(cset, *inputs)
            assert _bits(ux, uy, cx, cy, *h_got) == _bits(*f_hat, *f_comp, *h)
            assert (active, status, slack_max) == (want_active, want_status, want_slack)
            # filter_force's diagnostics hold the rows the kernel evaluated
            x, y, vx, vy, dx, dy, gx, gy, fx, fy = inputs
            state = AdmittanceState((x, y), (vx, vy))
            diag = filter_force(cset, state, (dx, dy), (gx, gy), (fx, fy))[2]
            assert _row_bits(diag.rows) == _row_bits(cset.evaluate(state, (dx, dy), (gx, gy)))
            seen.add(len(active))
        assert seen >= {0, 1} and (preset == "obstacle-only" or 2 in seen)

    def test_row_table_reads_every_constraint_field(self):
        # the table holds each row's centre, r**2 and gain pair, which the
        # filter's row pass reads for the filter and for evaluate: per row,
        # with o = x1 - c, h = w.o**2 - r**2, Lf_h = 2 w.o x2,
        # p = 2 w.o drift + 2 w.x2**2, q = 2 w o g, and K
        ws, obs, gains = CUSTOM_CSET.workspace, CUSTOM_CSET.obstacle, CUSTOM_CSET.gains
        rng = np.random.default_rng(53)
        for x, y, vx, vy, dx, dy, gx, gy, _, _ in _random_filter_inputs(rng, 100):
            rows = CUSTOM_CSET.evaluate(AdmittanceState((x, y), (vx, vy)), (dx, dy), (gx, gy))
            want = [(x - ws.x_max[0]) ** 2, (x - ws.x_min[0]) ** 2, (y - ws.x_max[1]) ** 2,
                    (y - ws.x_min[1]) ** 2]
            want = [v - ws.r ** 2 for v in want] + [
                (x - obs.x_obs[0]) ** 2 + (y - obs.x_obs[1]) ** 2 - obs.r ** 2]
            assert np.abs(np.subtract(rows.h, want)).max() <= 1e-15
            want_lf, want_p, want_q = [], [], []
            for w, c in (((1, 0), ws.x_max), ((1, 0), ws.x_min), ((0, 1), ws.x_max),
                         ((0, 1), ws.x_min), ((1, 1), obs.x_obs)):
                o = (w[0] * (x - c[0]), w[1] * (y - c[1]))
                want_lf.append(2 * (o[0] * vx + o[1] * vy))
                want_p.append(2 * (o[0] * dx + o[1] * dy) + 2 * (w[0] * vx ** 2 + w[1] * vy ** 2))
                want_q.append((2 * o[0] * gx, 2 * o[1] * gy))
            for got, want in ((rows.lf_h, want_lf), (rows.p, want_p), (rows.q, want_q)):
                assert np.abs(np.subtract(got, want)).max() <= 1e-13 * max(1.0, np.abs(want).max())
            assert rows.K == (gains.K_max, gains.K_min, gains.K_max, gains.K_min, gains.K_obs)

    @pytest.mark.parametrize("status", ["bypass", "ok"])
    def test_filter_bypass(self, status):
        # a bypassed step passes f_e on with the rows' h, and no active row
        rng = np.random.default_rng(37)
        cset = scenario_library()["combined"].constraint_set()
        for inputs in _random_filter_inputs(rng, 200):
            ux, uy, cx, cy, h_got, active, got, slack_max, rows = _filter_floats(
                cset, status, *inputs)
            assert _bits(ux, uy, cx, cy, *h_got) == _bits(
                *inputs[8:], 0.0, 0.0, *cset.barrier_values(inputs[:2]))
            assert (active, got, slack_max, rows) == ((), status, 0.0, None)

    def test_filter_slack_fallback(self, monkeypatch):
        # every filter step of the slack run, whose rows conflict on a few
        # steps, as the reference chain calls the kernel
        from test_traceio import SLACK_RUN
        calls = []

        def recorded(*args):
            calls.append(args)
            return _filter_floats(*args)
        monkeypatch.setattr(sim, "_filter_floats", recorded)
        monkeypatch.setattr(sim.forks, "fork_cpus", lambda: 1)
        sim.run(SLACK_RUN)
        statuses = set()
        for cset, bypass, *inputs in calls:
            ux, uy, cx, cy, h_got, active, status, slack_max, _ = _filter_floats(cset, bypass, *inputs)
            f_hat, f_comp, h, want_active, want_status, want_slack = _filter_from_public(cset, *inputs)
            assert _bits(ux, uy, cx, cy, *h_got, slack_max) == _bits(*f_hat, *f_comp, *h,
                                                                          want_slack)
            assert (active, status) == (want_active, want_status)
            statuses.add(status)
        assert statuses == {"ok", "slack"}

    @pytest.mark.parametrize("k_m", [20.0, (20.0, 5.0)])
    def test_admittance(self, k_m):
        rng = np.random.default_rng(41)
        params = AdmittanceParams(k_m=k_m, k_b=(20.0, 12.0), k_k=(100.0, 80.0))
        for _ in range(500):
            state = AdmittanceState(rng.uniform(-0.2, 0.2, 2), rng.uniform(-1, 1, 2))
            points = [_random_desired(rng) for _ in range(3)]
            force = tuple(rng.uniform(-5, 5, 2).tolist())
            dt = float(rng.choice([1e-3, 2e-3, 5e-3]))
            got = _admittance_floats(params.axes, *state.x1, *state.x2,
                                     *(p.sample for p in points), *force, dt)
            assert _bits(*got) == _bits(*_admittance_from_drift_term(params, state, points,
                                                                     force, dt))

    @pytest.mark.parametrize("include_friction", [True, False])
    def test_terms(self, include_friction):
        rng = np.random.default_rng(43)
        for params, _ in product(ROBOTS, range(500)):
            st = _random_joint_state(rng)
            terms, x, y, xdot, ydot, *J, trig = _task_floats(params.constants, *st.q,
                                                             *st.qdot, include_friction)
            cart = cartesian_state(params, st)
            assert _bits(*terms[0][0], *terms[0][1], *terms[1], *terms[2][0], *terms[2][1]) == _bits(
                *_terms_from_public(params, st, include_friction))
            assert _bits(x, y, xdot, ydot) == _bits(*cart.x, *cart.xdot)
            assert _bits(*J) == _bits(*(v for row in jacobian(params, st.q) for v in row))
            assert trig == _trig(*st.q)

    @GAINS
    @pytest.mark.parametrize("nominal_only", [False, True])
    def test_control(self, gains, nominal_only):
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
                state = astuple(ctrl_state)
                fx, fy, new = _control_floats(
                    gains.constants, state,
                    _task_floats(params.constants, *st.q, *st.qdot, False)[0],
                    *cart.x, *cart.xdot, ref_point.sample, 1e-3, nominal_only)
                if nominal_only:
                    assert new is state
                    want = nominal_control(gains, terms, cart, ref_point)
                    limit = gains.force_limit
                    assert _bits(fx, fy) == _bits(*(min(max(f, -limit), limit) for f in want))
                    continue
                (wx, wy), want_state = _control_from_public(gains, ctrl_state, terms, cart,
                                                            ref_point, 1e-3)
                assert new[0] is True
                assert _bits(fx, fy, *new[1], *new[2], *new[3]) == _bits(
                    wx, wy, *want_state.s_initial, *want_state.sigma_integral,
                    *want_state.prev_integrand)

    @pytest.mark.parametrize("dt", [1e-3, 2e-3])
    @pytest.mark.parametrize("include_friction", [True, False])
    def test_plant(self, include_friction, dt):
        rng = np.random.default_rng(19)
        for params, _ in product(ROBOTS, range(500)):
            st = _random_joint_state(rng)
            tau, f = tuple(rng.uniform(-20, 20, 2).tolist()), tuple(rng.uniform(-10, 10, 2).tolist())
            got = _plant_floats(params.constants, _trig(*st.q), *st.q, *st.qdot, *tau, *f, dt,
                                include_friction)
            assert _bits(*got) == _bits(*_rk4_from_joint_accel(params, st.q, st.qdot, tau, f,
                                                               dt, include_friction))

    @pytest.mark.parametrize("include_friction", [True, False])
    def test_qddot_is_the_per_term_composition(self, include_friction):
        # M^-1 (tau_c + J^T f_e - c_vec - G - F) from _joint_terms and _jac,
        # with the cofactor inverse of M, as _qddot writes it out
        rng = np.random.default_rng(59)
        for params, _ in product(ROBOTS, range(1000)):
            st = _random_joint_state(rng)
            t1, t2, fx, fy = rng.uniform(-20, 20, 4).tolist()
            k, trig = params.constants, _trig(*st.q)
            M, c, G, F = _joint_terms(k, trig, *st.qdot, include_friction)
            (j00, j01), (j10, j11) = _jac(k, trig)
            r = (t1 + (j00 * fx + j10 * fy) - c[0] - G[0] - F[0],
                 t2 + (j01 * fx + j11 * fy) - c[1] - G[1] - F[1])
            assert _bits(*_qddot(k, trig, *st.qdot, t1, t2, fx, fy, include_friction)) == _bits(
                *_mv(_inv(M), r))

    def test_admittance_refuses_a_non_finite_state(self):
        args = (AdmittanceParams().axes, 0.0, 0.0, 0.0, 0.0, (math.inf,) + (0.0,) * 5,
                (0.0,) * 6, (0.0,) * 6, 0.0, 0.0, 1e-3)
        with pytest.raises(ValidationError, match="^admittance state entries must be finite$"):
            _admittance_floats(*args)

    def test_plant_refuses_a_non_finite_state(self, monkeypatch):
        # at dt = 5e-3 the workspace preset aborts in the plant stage; the
        # kernel's last call, made again, raises the refusal
        calls = []

        def recorded(*args):
            calls.append(args)
            return _plant_floats(*args)
        monkeypatch.setattr(sim, "_plant_floats", recorded)
        with pytest.raises(SimulationAborted, match="in the plant stage: joint state entries"):
            sim.run(replace(scenario_library()["workspace"], dt=5e-3))
        with pytest.raises(ValidationError, match="^joint state entries must be finite$"):
            _plant_floats(*calls[-1])


@GAINS
def test_control_laws_read_every_gain(gains):
    """The public per-term laws, whose kernels take the gains' constants
    record, equal kernel_reference's laws, which read each gain from its
    field: nominal_control is M_x v, compensating_control M_x times the
    reaching law at sigma = s - s_initial - integral, and sliding_variable
    is s."""
    rng = np.random.default_rng(47)
    params, dt = CUSTOM_ROBOT, 1e-3
    for _ in range(300):
        st = _random_joint_state(rng)
        terms = cartesian_dynamics_terms(params, st, include_friction=False)
        cart = cartesian_state(params, st)
        point = DesiredPoint(np.add(cart.x, rng.uniform(-0.05, 0.05, 2)),
                             np.add(cart.xdot, rng.uniform(-0.5, 0.5, 2)), rng.uniform(-2, 2, 2))
        (xi00, xi01), (xi10, xi11) = terms.Xi
        b0, b1 = terms.bias
        gamma = (-(xi00 * b0 + xi01 * b1), -(xi10 * b0 + xi11 * b1))
        v = [ref.nominal_accel(gains, gm, *axis) for gm, axis in zip(
            gamma, zip(cart.x, cart.xdot, point.x_d, point.xdot_d, point.xddot_d))]
        assert _bits(*nominal_control(gains, terms, cart, point)) == _bits(*_mv(terms.M_x, v))
        e, edot, eddot = (tuple(rng.uniform(-0.05, 0.05, 2).tolist()) for _ in range(3))
        state = ControllerState(True, *(tuple(rng.uniform(-0.1, 0.1, 2).tolist())
                                        for _ in range(3)))
        u_s, new = compensating_control(gains, state, terms, e, edot, eddot, dt)
        s, sdot = zip(*map(ref.surface, [gains] * 2, e, edot, eddot))
        integral = [i + 0.5 * dt * (p + g) for i, p, g in zip(state.sigma_integral,
                                                              state.prev_integrand, sdot)]
        reach = [ref.reaching_accel(gains, si - s0 - i)
                 for si, s0, i in zip(s, state.s_initial, integral)]
        assert _bits(*u_s, *new.sigma_integral, *new.prev_integrand) == _bits(
            *_mv(terms.M_x, reach), *integral, *sdot)
        assert _bits(*sliding_variable(gains, e, edot)) == _bits(
            *(ref.surface(gains, a, b, 0.0)[0] for a, b in zip(e, edot)))


RECORDS = (ManipulatorParams(), FxtismcGains(), AdmittanceParams(), EcbfGains(),
           WorkspaceConstraint(), ObstacleConstraint(), CUSTOM_CSET,
           scenario_library()["combined"])


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_parameter_records_are_frozen(record):
    """A record is checked once, when it is made, and cannot change after:
    assigning any field raises, and so does writing into a geometry array."""
    for f in fields(record):
        with pytest.raises(FrozenInstanceError):
            setattr(record, f.name, getattr(record, f.name))
    for name in ("x_min", "x_max", "x_obs"):
        if hasattr(record, name):
            with pytest.raises(ValueError, match="read-only"):
                getattr(record, name)[0] = 5.0


def test_replace_validates_the_copy():
    """replace builds a changed copy, validated again, with its own constants."""
    cfg = scenario_library()["combined"]
    with pytest.raises(ValidationError, match="^dt must be positive$"):
        replace(cfg, dt=-1e-3)
    with pytest.raises(ValidationError, match="^alpha must lie in"):
        replace(cfg.controller, alpha=2.0)
    robot = replace(cfg.robot, singularity_tolerance=2e-4)
    assert robot.constants == ManipulatorParams(singularity_tolerance=2e-4).constants
    # |det J| = l1 l2 |sin q2| = 1.35e-4 lies between the two tolerances
    near = JointState((0.4, math.asin(1.35e-4 / 0.09)), (0.0, 0.0))
    cartesian_dynamics_terms(cfg.robot, near)
    with pytest.raises(SingularConfiguration):
        cartesian_dynamics_terms(robot, near)


def test_nominal_law_reads_only_its_own_gains():
    """nominal_control reads the nominal law's constants alone: gains that
    differ from the defaults in every other field give the same force."""
    st = JointState((0.4, 1.9), (0.3, -0.2))
    terms = cartesian_dynamics_terms(CUSTOM_ROBOT, st, include_friction=False)
    cart = cartesian_state(CUSTOM_ROBOT, st)
    point = DesiredPoint(cart.x, np.add(cart.xdot, -0.1), (0.5, 0.2))  # s1 = 0 on both axes
    nominal = ("lambda1", "lambda2", "lambda3", "alpha", "beta")
    others = replace(CUSTOM_GAINS, **{name: getattr(FxtismcGains(), name) for name in nominal})
    assert nominal_control(others, terms, cart, point) == nominal_control(FxtismcGains(), terms,
                                                                          cart, point)


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
    # a point is a pair: a lone number is no state, and a set's order is lost
    first = next(iter(vars(state)))
    for bad in (0.5, {2.0944, 0.5236}):
        with pytest.raises(ValidationError, match=f"^{first} must be a pair of numbers, got "):
            cls(bad, (0.0, 0.0))


def test_desired_point_of_floats_equals_the_constructor():
    pairs = ((0.1, -0.0), (0.2, 0.3), (-0.4, 0.5))
    assert DesiredPoint.of_floats(*pairs) == DesiredPoint(*pairs)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", range(3))
def test_desired_point_refuses_non_finite_entries(field, bad):
    """The constructor refuses a NaN or an infinity in any field, as the
    states' constructors do; of_floats, which the step uses, takes the
    pairs unchecked."""
    pairs = [(0.0, 0.0)] * 3
    pairs[field] = (0.0, bad)
    with pytest.raises(ValidationError, match="^desired point entries must be finite$"):
        DesiredPoint(*pairs)
    point = DesiredPoint.of_floats(*pairs)
    assert all(a is b for a, b in zip(vars(point).values(), pairs))
