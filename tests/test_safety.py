import math
from dataclasses import fields
from functools import partial

import numpy as np
import pytest

from safeadmit import (AdmittanceParams, AdmittanceState, ConstraintSet,
                       DesiredPoint, EcbfGains, FxtismcGains, InfeasibleQp, JointState,
                       ManipulatorParams, ObstacleConstraint, QpProblem, RowValues,
                       ScenarioConfig, StartOutsideSafeSet,
                       ValidationError, WorkspaceConstraint, admittance_step,
                       assemble_qp, check_start_inside, drift_term, filter_force, plant_step,
                       solve)

from qp_oracle import project_oracle

WS = WorkspaceConstraint(x_min=(-0.13, -0.13), x_max=(0.13, 0.13), r=0.04)
OBS = ObstacleConstraint(x_obs=(-0.07, 0.07), r=0.04)
ADM_PARAMS = AdmittanceParams()
GAIN_G = ADM_PARAMS.input_gain
CSET = ConstraintSet(workspace=WS, obstacle=OBS)


def _row(name, st, drift):
    """One row of the barrier table at a state."""
    rows = CSET.evaluate(st, drift, GAIN_G)
    i = CSET.names.index(name)
    return type(rows)(*(v[i] for v in rows))


def _state(x1, x2=(0.0, 0.0)):
    return AdmittanceState(x1, x2)


# Every number field and every 2-vector field of the parameter classes.
NUMBER_FIELDS = {
    ManipulatorParams: [f.name for f in fields(ManipulatorParams)],
    FxtismcGains: [f.name for f in fields(FxtismcGains) if f.name != "use_sign"],
    WorkspaceConstraint: ["r"],
    ObstacleConstraint: ["r"],
    ScenarioConfig: ["duration", "dt", "circle_radius", "circle_rate"],
}
# A per-axis coefficient takes one number for both axes, as the INI does;
# every other 2-vector field takes exactly a pair.
AXIS_FIELDS = {AdmittanceParams: ["k_m", "k_b", "k_k"]}
POINT_FIELDS = {
    EcbfGains: ["K_max", "K_min", "K_obs"],
    WorkspaceConstraint: ["x_min", "x_max"],
    ObstacleConstraint: ["x_obs"],
    ScenarioConfig: ["force_amplitude", "q0", "qdot0", "admittance_start"],
}


def _malformed_fields():
    """(make, field, kind) with an id for each field above and each value
    that is not of its kind: a number, a number or a pair, or a pair."""
    not_pairs = {"3-long": (1, 2, 3), "ragged": [[1], [2, 3]],
                 # float() reads each entry as a number
                 "text-entries": ("20", "5"), "bytes-entry": (b"1", 2.0)}
    cases = []
    for table, kind, values in (
            (NUMBER_FIELDS, "a number, got", {"string": "abc", "none": None, "list": [1, 2]}),
            (AXIS_FIELDS, "a number or a pair of numbers, got", not_pairs),
            # a lone number is no point, and a set or a mapping has no order
            (POINT_FIELDS, "a pair of numbers, got", {**not_pairs, "scalar": 0.5,
                                                      "set": {1.0, 2.0},
                                                      "mapping": {0: 1.0, 1: 2.0}})):
        for cls, names in table.items():
            for name in names:
                for label, value in values.items():
                    cases.append(pytest.param(partial(cls, **{name: value}), name, kind,
                                              id=f"{cls.__name__}.{name}-{label}"))
    return cases


def _rand_interior_state(rng):
    # keep a margin from the shrunk box and the obstacle ball
    while True:
        x1 = rng.uniform(-0.085, 0.085, 2)
        if np.linalg.norm(x1 - OBS.x_obs) > OBS.r + 0.005:
            return AdmittanceState(x1, rng.uniform(-0.2, 0.2, 2))


class TestConstraintTypes:
    def test_empty_workspace_rejected(self):
        with pytest.raises(ValidationError):
            WorkspaceConstraint(x_min=(-0.03, -0.03), x_max=(0.03, 0.03), r=0.04)

    def test_nonpositive_r_rejected(self):
        with pytest.raises(ValidationError):
            ObstacleConstraint(x_obs=(0.0, 0.0), r=0.0)

    @pytest.mark.parametrize("gain", [500.0, ((500.0, 50.0), (300.0, 30.0)), (500.0, 50.0, 5.0)],
                             ids=["scalar", "2x2", "3-long"])
    def test_gain_that_is_not_one_pair_rejected(self, gain):
        for name in ("K_max", "K_min", "K_obs"):
            with pytest.raises(ValidationError, match=name):
                EcbfGains(**{name: gain})

    def test_gain_pair_kept_as_floats(self):
        g = EcbfGains(K_max=np.array([400, 40]), K_min=[300, 40])
        assert (g.K_max, g.K_min, g.K_obs) == ((400.0, 40.0), (300.0, 40.0), (700.0, 70.0))
        assert all(type(k) is float for k in (*g.K_max, *g.K_min, *g.K_obs))

    @pytest.mark.parametrize("make,field,kind", [
        pytest.param(lambda: AdmittanceParams(k_m=(1, 2, 3)), "k_m", "a number or a pair", id="3-long"),
        pytest.param(lambda: WorkspaceConstraint(x_min=(0, 0, 0)), "x_min", "a pair of numbers",
                     id="3-long-bound"),
        pytest.param(lambda: ObstacleConstraint(x_obs="far"), "x_obs", "a pair of numbers", id="string"),
        pytest.param(lambda: ScenarioConfig(force_amplitude=[[1, 2], [3, 4]]), "force_amplitude",
                     "a pair of numbers", id="2x2"),
        pytest.param(lambda: AdmittanceState(x1=None, x2=(0.0, 0.0)), "x1", "a pair of numbers",
                     id="none"),
        # a two-character string unpacks into two numbers, and bytes into two ints
        pytest.param(lambda: AdmittanceState("12", "00"), "x1", "a pair of numbers",
                     id="state-string"),
        pytest.param(lambda: admittance_step(ADM_PARAMS, _state((0.0, 0.0)),
                                             (DesiredPoint((0, 0), (0, 0), (0, 0)),) * 3, "12", 1e-3),
                     "force", "a pair of numbers", id="step-force-string"),
        pytest.param(lambda: plant_step(ManipulatorParams(), JointState((0.5, 2.0), (0.0, 0.0)),
                                        "12", "34", 1e-3),
                     "tau_c", "a pair of numbers", id="plant-torque-string"),
        pytest.param(lambda: plant_step(ManipulatorParams(), JointState((0.5, 2.0), (0.0, 0.0)),
                                        (0.0, 0.0), b"34", 1e-3),
                     "f_e", "a pair of numbers", id="plant-force-bytes"),
        *_malformed_fields(),
    ])
    def test_malformed_pair_names_its_field(self, make, field, kind):
        with pytest.raises(ValidationError, match=f"^{field} must be {kind}"):
            make()

    def test_per_axis_coefficient_takes_one_number(self):
        # k_m, k_b, k_k and the input gain g, as the INI's "scalar or x,y"
        params = AdmittanceParams(k_m=20, k_b=5, k_k=100)
        assert (params.k_m, params.k_b, params.k_k) == ((20.0, 20.0), (5.0, 5.0), (100.0, 100.0))
        st = _state((0.01, -0.02), (0.1, 0.2))
        assert CSET.evaluate(st, (0.3, -0.4), 0.05) == CSET.evaluate(st, (0.3, -0.4), (0.05, 0.05))

    def test_nonpositive_gains_rejected(self):
        with pytest.raises(ValidationError):
            EcbfGains(K_obs=(0.0, 70.0))

    # s**2 + K1 s + K0 with K1**2 < 4 K0 has complex roots, and the ECBF
    # guarantee needs real ones; a double root (400, 40) is real
    @pytest.mark.parametrize("gain", [(2000.0, 50.0), (1e4, 10.0), (1e4, 2.0)])
    @pytest.mark.parametrize("name", ["K_max", "K_min", "K_obs"])
    def test_gains_with_complex_roots_rejected(self, name, gain):
        with pytest.raises(ValidationError, match=f"^{name} = .* has complex roots"):
            EcbfGains(**{name: gain})

    @pytest.mark.parametrize("gain", [(500.0, 50.0), (700.0, 70.0), (400.0, 40.0)])
    @pytest.mark.parametrize("name", ["K_max", "K_min", "K_obs"])
    def test_gains_with_real_roots_accepted(self, name, gain):
        assert getattr(EcbfGains(**{name: gain}), name) == gain


class TestBarrierValues:
    def test_boundary_max(self):
        ev = _row("ws_max_x", _state((0.09, 0.0)), np.zeros(2))
        assert abs(ev.h) < 1e-12

    def test_interior_max_value(self):
        ev = _row("ws_max_x", _state((0.0, 0.0)), np.zeros(2))
        assert abs(ev.h - 0.0153) < 1e-12

    def test_boundary_min(self):
        ev = _row("ws_min_x", _state((-0.09, 0.0)), np.zeros(2))
        assert abs(ev.h) < 1e-12

    def test_min_max_reflection_symmetry(self, rng):
        for _ in range(50):
            x1 = rng.uniform(-0.2, 0.2, 2)
            x2 = rng.uniform(-1, 1, 2)
            drift = rng.uniform(-1, 1, 2)
            lo = _row("ws_min_x", _state(x1, x2), drift)
            hi = _row("ws_max_x", _state(-x1, -x2), -drift)
            assert abs(lo.h - hi.h) < 1e-12
            assert abs(lo.lf_h - hi.lf_h) < 1e-12
            assert abs(lo.p - hi.p) < 1e-12
            assert np.abs(np.asarray(lo.q) + hi.q).max() < 1e-12

    def test_obstacle_on_sphere(self):
        ev = _row("obs", _state((-0.03, 0.07)), np.zeros(2))
        assert abs(ev.h) < 1e-12

    def test_obstacle_at_origin(self):
        ev = _row("obs", _state((0.0, 0.0)), np.zeros(2))
        assert abs(ev.h - 0.0082) < 1e-12

    def test_barrier_values_match_evaluate(self, rng):
        for _ in range(20):
            st = _state(rng.uniform(-0.2, 0.2, 2), rng.uniform(-1, 1, 2))
            rows = CSET.evaluate(st, np.zeros(2), GAIN_G)
            assert np.asarray(CSET.barrier_values(st.x1)).tolist() == np.asarray(rows.h).tolist()

    def test_input_gain_per_axis(self):
        # each axis of q carries its own gain 1/k_m
        g = AdmittanceParams(k_m=(20.0, 5.0)).input_gain
        q = CSET.evaluate(_state((0.01, -0.02)), np.zeros(2), g).q
        q_unit = CSET.evaluate(_state((0.01, -0.02)), np.zeros(2), 1.0).q
        assert np.array_equal(q, np.asarray(q_unit) * g)


class TestLieDerivatives:
    """Finite-difference oracles along genuine admittance flows."""

    def _flow(self, rng):
        st = _rand_interior_state(rng)
        des = DesiredPoint(rng.uniform(-0.05, 0.05, 2),
                           rng.uniform(-0.1, 0.1, 2),
                           rng.uniform(-0.1, 0.1, 2))
        return st, des

    def _evaluators(self):
        return [
            lambda st, drift: _row("ws_max_x", st, drift),
            lambda st, drift: _row("ws_max_y", st, drift),
            lambda st, drift: _row("ws_min_x", st, drift),
            lambda st, drift: _row("ws_min_y", st, drift),
            lambda st, drift: _row("obs", st, drift),
        ]

    def test_first_derivative_matches_flow(self, rng):
        delta = 1e-6
        for evaluate in self._evaluators():
            for _ in range(100):
                st, des = self._flow(rng)
                drift = drift_term(ADM_PARAMS, st, des)
                ev = evaluate(st, drift)
                ahead = admittance_step(ADM_PARAMS, st, (des,) * 3, np.zeros(2), delta)
                ev2 = evaluate(ahead, drift_term(ADM_PARAMS, ahead, des))
                fd = (ev2.h - ev.h) / delta
                denom = max(abs(ev.lf_h), 1e-3)
                assert abs(fd - ev.lf_h) / denom <= 1e-4

    def test_second_derivative_affine_decomposition(self, rng):
        delta = 1e-6
        for evaluate in self._evaluators():
            for _ in range(100):
                st, des = self._flow(rng)
                u = rng.uniform(-3, 3, 2)
                drift = drift_term(ADM_PARAMS, st, des)
                ev = evaluate(st, drift)
                ahead = admittance_step(ADM_PARAMS, st, (des,) * 3, u, delta)
                ev2 = evaluate(ahead, drift_term(ADM_PARAMS, ahead, des))
                fd = (ev2.lf_h - ev.lf_h) / delta
                model = ev.p + ev.q @ u
                denom = max(abs(model), 1e-2)
                assert abs(fd - model) / denom <= 1e-3


class TestAssembleQp:
    def test_empty_list_identity(self):
        rows = ConstraintSet().evaluate(_state((0.0, 0.0)), np.zeros(2), GAIN_G)
        prob = assemble_qp(rows, (1.0, -2.0))
        sol = solve(prob)
        assert np.array_equal(sol.u, [1.0, -2.0])

    def test_boundary_row_pushes_inward(self):
        # at rest exactly on the shrunk boundary the row reads u_x <= 0
        rows = ConstraintSet(workspace=WS).evaluate(_state((0.09, 0.0)), np.zeros(2), 0.05)
        assert abs(np.asarray(rows.q)[0, 0] - (-0.004)) < 1e-15
        prob = assemble_qp(rows, (0.0, 0.0))
        # A_row = -q = (0.004, 0); b = 0 => 0.004 u_x <= 0
        assert np.allclose(prob.A[0], [0.004, 0.0])
        assert abs(prob.b[0]) < 1e-15
        sol = solve(assemble_qp(rows, (1.0, 0.0)))
        assert sol.u[0] <= 1e-9

    def test_interior_row_inactive(self, rng):
        rows = ConstraintSet(workspace=WS).evaluate(_state((0.0, 0.0)), np.zeros(2), GAIN_G)
        u_nom = rng.uniform(-2, 2, 2)
        prob = assemble_qp(rows, u_nom)
        sol = solve(prob)
        assert np.array_equal(sol.u, u_nom)
        oracle = project_oracle(prob.u_nom, prob.A, prob.b)
        assert np.linalg.norm(sol.u - oracle) < 1e-10


def _random_rows(rng, m):
    """m barrier rows of random values, about a fifth of them zeros of
    either sign, as the Python floats evaluate returns."""
    def values(*shape):
        zeros = rng.choice(np.array([0.0, -0.0]), shape)
        return np.where(rng.random(shape) < 0.2, zeros, rng.uniform(-1, 1, shape))
    h, lf_h, p = values(m), values(m), values(m)
    q, K = values(m, 2), rng.uniform(0.5, 2.0, (m, 2))
    return RowValues(tuple(h.tolist()), tuple(lf_h.tolist()), tuple(p.tolist()),
                     tuple(map(tuple, q.tolist())), tuple(map(tuple, K.tolist())))


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


class TestRowProblem:
    """assemble_qp hands its float rows to the solver without an array; the
    problem must solve bit for bit as the array problem of the same rows."""

    def test_solves_as_the_array_problem(self, rng):
        for _ in range(1000):
            m = int(rng.integers(0, 6))
            rows = _random_rows(rng, m)
            u = tuple(np.where(rng.random(2) < 0.2, -0.0, rng.uniform(-2, 2, 2)).tolist())
            K = np.array(rows.K, dtype=float).reshape(-1, 2)
            A = np.negative(np.array(rows.q, dtype=float).reshape(-1, 2))
            b = np.array(rows.p) + K[:, 0] * np.array(rows.h) + K[:, 1] * np.array(rows.lf_h)
            problem = assemble_qp(rows, u)
            assert _bits(problem.b) == _bits(b)
            results = []
            for prob in (problem, QpProblem(u, A, b)):
                try:
                    sol = solve(prob)
                    results.append((_bits(sol.u), sol.active_set))
                except InfeasibleQp:
                    results.append(None)
            assert results[0] == results[1]
            assert problem.A.shape == (m, 2) and _bits(problem.A) == _bits(A)

    @pytest.mark.parametrize("drift,f_e", [
        ((math.nan, 0.0), (1.0, 0.0)), ((0.0, math.inf), (1.0, 0.0)),
        ((0.0, 0.0), (-math.inf, 0.0)), ((0.0, 0.0), (0.0, math.nan)),
    ], ids=["nan-drift", "inf-drift", "inf-force", "nan-force"])
    def test_non_finite_drift_or_force_refused(self, drift, f_e):
        # without rows the drift never reaches the QP; the force always does
        csets = [CSET] if all(map(math.isfinite, f_e)) else [CSET, ConstraintSet()]
        for cset in csets:
            with pytest.raises(ValidationError, match="^QP entries must be finite$"):
                filter_force(cset, _state((0.0, 0.0)), drift, GAIN_G, f_e)


class TestFilter:
    def _cset(self, workspace=WS, obstacle=OBS, **kw):
        return ConstraintSet(workspace=workspace, obstacle=obstacle,
                             gains=EcbfGains(), **kw)

    def test_identity_without_constraints(self):
        cset = ConstraintSet()
        f_hat, f_comp, diag = filter_force(cset, _state((0.2, 0.2)),
                                           np.zeros(2), GAIN_G, (3.0, -1.0))
        assert np.array_equal(f_hat, [3.0, -1.0])
        assert np.array_equal(f_comp, [0.0, 0.0])
        assert diag.status == "ok" and diag.active == ()

    def test_identity_deep_inside(self, rng):
        cset = self._cset()
        for _ in range(30):
            st = AdmittanceState(rng.uniform(-0.02, 0.02, 2), rng.uniform(-0.05, 0.05, 2))
            f = rng.uniform(-1, 1, 2)
            f_hat, f_comp, diag = filter_force(cset, st, np.zeros(2), GAIN_G, f)
            if diag.active == ():
                assert np.linalg.norm(f_hat - f) <= 1e-9

    def test_wall_approach_pushes_inward(self):
        # just inside the shrunk boundary and moving outward under an
        # outward force, the compensation must pull the x-axis force down
        cset = self._cset(obstacle=None)
        st = _state((0.089, 0.0), (0.05, 0.0))
        f_hat, f_comp, diag = filter_force(cset, st, np.zeros(2), GAIN_G, (5.0, 0.0))
        assert f_comp[0] < 0.0
        assert f_hat[0] < 0.0
        assert len(diag.active) >= 1

    def test_unsafe_band_drains_outward(self):
        # the quadratic barrier's safe set has two components per side; a
        # state inside the band (x_max - r, x_max + r) is driven toward the
        # OUTER component, which is why simulations must start inside the
        # box (see check_start_inside)
        cset = self._cset(obstacle=None)
        st = _state((0.14, 0.0))
        f_hat, _, _ = filter_force(cset, st, np.zeros(2), GAIN_G, (0.0, 0.0))
        assert f_hat[0] > 0.0

    def test_matches_oracle(self, rng):
        cset = self._cset()
        for _ in range(50):
            st = AdmittanceState(rng.uniform(-0.12, 0.12, 2), rng.uniform(-0.5, 0.5, 2))
            drift = rng.uniform(-1, 1, 2)
            f = rng.uniform(-5, 5, 2)
            prob = assemble_qp(cset.evaluate(st, drift, GAIN_G), f)
            f_hat, f_comp, _ = filter_force(cset, st, drift, GAIN_G, f)
            oracle = project_oracle(prob.u_nom, prob.A, prob.b)
            assert oracle is not None
            assert np.linalg.norm(f_hat - oracle) <= 1e-8
            assert np.allclose(f_comp, f_hat - f)

    def test_diagnostics_names(self):
        cset = self._cset()
        assert cset.names == ("ws_max_x", "ws_min_x", "ws_max_y", "ws_min_y", "obs")
        _, _, diag = filter_force(cset, _state((0.0, 0.0)), np.zeros(2), GAIN_G, (0.0, 0.0))
        assert np.asarray(diag.rows.h).shape == (len(cset.names),)
        assert abs(diag.rows.h[cset.names.index("obs")] - 0.0082) < 1e-12

    def test_slack_mode_equals_hard_where_feasible(self, rng):
        hard, soft = self._cset(), self._cset(slack=True)
        for _ in range(50):
            st = AdmittanceState(rng.uniform(-0.12, 0.12, 2), rng.uniform(-0.5, 0.5, 2))
            drift = rng.uniform(-1, 1, 2)
            f = rng.uniform(-5, 5, 2)
            f_hard, _, d_hard = filter_force(hard, st, drift, GAIN_G, f)
            f_soft, _, d_soft = filter_force(soft, st, drift, GAIN_G, f)
            assert np.array_equal(f_hard, f_soft)
            assert d_hard.active == d_soft.active
            assert d_soft.status == "ok" and d_soft.slack_max == 0.0

    def test_slack_only_where_rows_conflict(self):
        # inside the obstacle's clearance ball, right under the shrunk upper
        # wall and moving up: the obstacle row pushes the reference up and
        # the wall row pushes it down, so no force satisfies both
        st, drift = _state((-0.07, 0.0875), (0.0, 0.3)), np.zeros(2)
        with pytest.raises(InfeasibleQp):
            filter_force(self._cset(), st, drift, GAIN_G, (0.0, 0.0))
        f_hat, f_comp, diag = filter_force(self._cset(slack=True), st, drift,
                                           GAIN_G, (0.0, 0.0))
        assert np.isfinite(f_hat).all() and np.isfinite(f_comp).all()
        assert diag.status == "slack" and diag.slack_max > 0.0
        assert set(diag.active) == {CSET.names.index("ws_max_y"), CSET.names.index("obs")}

    def test_slack_mode_reports_status(self):
        cset = self._cset(slack=True)
        _, _, diag = filter_force(cset, _state((0.0, 0.0)), np.zeros(2), GAIN_G, (0.0, 0.0))
        assert diag.status == "ok"
        assert diag.slack_max == 0.0


class TestStartCheck:
    def test_inside_passes(self):
        check_start_inside(ConstraintSet(workspace=WS, obstacle=OBS),
                           _state((0.0, -0.05)))

    def test_outside_box_raises(self):
        with pytest.raises(StartOutsideSafeSet):
            check_start_inside(ConstraintSet(workspace=WS), _state((0.14, 0.0)))

    def test_inside_obstacle_raises(self):
        with pytest.raises(StartOutsideSafeSet):
            check_start_inside(ConstraintSet(obstacle=OBS), _state((-0.07, 0.07)))
