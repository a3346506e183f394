"""Acceptance gate: the ten headline guarantees of the toolkit, each
printed as an explicit pass line at the stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from safeadmit import (AdmittanceParams, AdmittanceState, ConstraintSet,
                       DesiredPoint, InfeasibleQp, QpProblem, ScenarioConfig,
                       admittance_step, drift_term, emit_csv,
                       inverse_kinematics, jacobian, read_csv, records_equal,
                       run, scenario_library, solve)
from safeadmit.arm import (JointState, ManipulatorParams,
                           cartesian_dynamics_terms, forward_kinematics,
                           joint_dynamics_terms, plant_step)
from safeadmit.safety import ObstacleConstraint, WorkspaceConstraint
from safeadmit.sim import desired_trajectory

from qp_oracle import feasible_by_sampling, project_oracle


def _passed(label, detail):
    print(f"PASS  {label}: {detail}")


def test_01_unsafe_baseline_crosses_workspace(preset_traces):
    trace = preset_traces["baseline-unsafe"]
    worst = max(np.abs(rec.x_r_shadow).max() for rec in trace)
    assert worst > 0.13
    _passed("criterion 1 (unfiltered reference escapes the workspace)",
            f"max |x_r_shadow|_inf = {worst:.6g} > 0.13")


def test_02_workspace_forward_invariance(preset_traces):
    trace = preset_traces["workspace"]
    min_h = min(min(rec.h.values()) for rec in trace)
    worst_xf = max(np.abs(rec.x_f).max() for rec in trace)
    assert min_h >= -1e-3
    assert worst_xf <= 0.09 + 1e-3
    _passed("criterion 2 (workspace forward invariance)",
            f"min h = {min_h:.3g} >= -1e-3, max |x_f| = {worst_xf:.6g} <= 0.091")


def test_03_obstacle_forward_invariance(preset_traces):
    for name in ("obstacle-only", "combined"):
        trace = preset_traces[name]
        dist = min(np.linalg.norm(rec.x_f - [-0.07, 0.07]) for rec in trace)
        assert dist >= 0.04 - 1e-3
        _passed(f"criterion 3 (obstacle clearance, {name})",
                f"min distance = {dist:.6g} >= {0.04 - 1e-3}")


def test_04_combined_relieves_workspace_pressure(preset_traces):
    # the obstacle-only preset has no workspace rows, so its workspace
    # margin is recomputed from the logged reference positions
    ws_names = ("ws_max_x", "ws_min_x", "ws_max_y", "ws_min_y")
    combined = min(min(rec.h[n] for n in ws_names)
                   for rec in preset_traces["combined"])

    def ws_h(x1):
        vals = []
        for axis in range(2):
            vals.append((x1[axis] - 0.13) ** 2 - 0.04 ** 2)
            vals.append((-0.13 - x1[axis]) ** 2 - 0.04 ** 2)
        return min(vals)

    obstacle_only = min(ws_h(rec.x_f) for rec in preset_traces["obstacle-only"])
    assert combined > obstacle_only
    _passed("criterion 4 (combined run keeps a larger workspace margin)",
            f"{combined:.6g} > {obstacle_only:.6g}")


def test_05_filter_identity_away_from_constraints(preset_traces):
    checked = 0
    worst = 0.0
    for trace in preset_traces.values():
        for rec in trace:
            if rec.h and min(rec.h.values()) > 0.005 and rec.qp_active == ():
                checked += 1
                worst = max(worst, float(np.linalg.norm(rec.f_e_hat - rec.f_e)))
    assert checked > 1000
    assert worst <= 1e-9
    _passed("criterion 5 (filter is the identity away from constraints)",
            f"max ||f_hat - f_e|| = {worst:.3g} <= 1e-9 over {checked} steps")


def test_06_qp_matches_bruteforce_oracle():
    rng = np.random.default_rng(20240817)
    solved = 0
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(0, 7))
        prob = QpProblem(u_nom=rng.uniform(-1, 1, n),
                         A=rng.uniform(-1, 1, (m, n)),
                         b=rng.uniform(-1, 1, m))
        expected = project_oracle(prob.u_nom, prob.A, prob.b)
        try:
            sol = solve(prob)
        except InfeasibleQp:
            assert expected is None or not feasible_by_sampling(prob.A, prob.b, rng)
            continue
        assert expected is not None
        worst = max(worst, float(np.linalg.norm(sol.u - expected)))
        solved += 1
    assert worst <= 1e-8
    _passed("criterion 6 (QP equals brute-force oracle)",
            f"max ||du|| = {worst:.3g} <= 1e-8 over {solved} feasible of 1000")


def test_07_tracking_and_fixed_time(preset_traces):
    worst = 0.0
    for trace in preset_traces.values():
        for rec in trace:
            if rec.t >= 1.0:
                worst = max(worst, float(np.linalg.norm(rec.x_actual - rec.x_f)))
    assert worst <= 5e-3

    # fixed-time property: initial tracking errors of 0.05 m and 0.5 m both
    # settle below 1e-3 m by the same t = 2 s deadline. The offset is taken
    # perpendicular to the circle start so the recovery path stays clear of
    # the straight-arm singularity at the origin.
    robot = ManipulatorParams()
    deadline_errors = []
    for e0 in (0.05, 0.5):
        x0 = np.array([0.14, e0])
        q0 = inverse_kinematics(robot, x0)
        qdot0 = np.linalg.solve(jacobian(robot, q0),
                                desired_trajectory(0.0).xdot_d)
        cfg = ScenarioConfig(name=f"fixed-time-{e0}", duration=2.0,
                             force_amplitude=(0.0, 0.0),
                             q0=tuple(q0), qdot0=tuple(qdot0))
        trace = run(cfg)
        err_at_deadline = float(np.linalg.norm(trace[-1].x_actual - trace[-1].x_f))
        assert err_at_deadline < 1e-3
        deadline_errors.append(err_at_deadline)
    _passed("criterion 7 (tracking and fixed-time convergence)",
            f"max in-preset error (t>=1s) = {worst:.3g} <= 5e-3; "
            f"errors at t=2s from 0.05/0.5 m offsets = "
            f"{deadline_errors[0]:.3g}/{deadline_errors[1]:.3g} < 1e-3")


def test_08_lie_derivatives_match_finite_differences():
    rng = np.random.default_rng(7)
    ws = WorkspaceConstraint((-0.13, -0.13), (0.13, 0.13), 0.04)
    obs = ObstacleConstraint((-0.07, 0.07), 0.04)
    params = AdmittanceParams()
    cset = ConstraintSet(workspace=ws, obstacle=obs)

    def row(name):
        i = cset.names.index(name)

        def evaluate(st, d):
            rows = cset.evaluate(st, d, params.input_gain)
            return type(rows)(*(v[i] for v in rows))
        return evaluate

    evaluators = {
        "workspace-max": row("ws_max_x"),
        "workspace-min": row("ws_min_y"),
        "obstacle": row("obs"),
    }
    delta = 1e-6
    for label, evaluate in evaluators.items():
        worst1 = worst2 = 0.0
        for _ in range(100):
            st = AdmittanceState(rng.uniform(-0.12, 0.12, 2),
                                 rng.uniform(-0.3, 0.3, 2))
            des = DesiredPoint(rng.uniform(-0.05, 0.05, 2),
                               rng.uniform(-0.1, 0.1, 2),
                               rng.uniform(-0.1, 0.1, 2))
            u = rng.uniform(-3, 3, 2)
            drift = drift_term(params, st, des)
            ev = evaluate(st, drift)
            ahead = admittance_step(params, st, des, u, delta)
            ev2 = evaluate(ahead, drift_term(params, ahead, des))
            # first derivative along the flow (force-independent value)
            fd1 = (ev2.h - ev.h) / delta
            model1 = ev.lf_h + 0.5 * delta * (ev.p + ev.q @ u)
            worst1 = max(worst1, abs(fd1 - model1) / max(abs(model1), 1e-3))
            # second derivative: affine decomposition in the held force
            fd2 = (ev2.lf_h - ev.lf_h) / delta
            model2 = ev.p + ev.q @ u
            worst2 = max(worst2, abs(fd2 - model2) / max(abs(model2), 1e-2))
        assert worst1 <= 1e-4
        assert worst2 <= 1e-3
        _passed(f"criterion 8 (barrier calculus, {label})",
                f"rel err Lf_h = {worst1:.3g} <= 1e-4, "
                f"rel err p+q.u = {worst2:.3g} <= 1e-3 over 100 states")


def test_09_joint_vs_cartesian_dynamics():
    params = ManipulatorParams()
    dt = 1e-3

    def torque(t, q, qd):
        _, _, G, F = joint_dynamics_terms(params, JointState(q, qd))
        return np.asarray(G) + F + np.array([0.2 * math.sin(2 * t), 0.1 * math.cos(t)])

    joint = JointState([0.5236, 2.0944], [0.0, 0.0])
    q_c = np.asarray(joint.q).copy()
    x_c = forward_kinematics(params, q_c)
    xd_c = np.zeros(2)

    def rhs(tau, q, x, xd):
        # commanded torque held across the step, matching plant_step
        J = np.asarray(jacobian(params, q))
        qd = np.linalg.solve(J, xd)
        terms = cartesian_dynamics_terms(params, JointState(q, qd))
        f_c = np.linalg.solve(J.T, tau)
        return qd, xd, terms.Xi @ (f_c - terms.bias)

    for k in range(1000):
        t = k * dt
        joint = plant_step(params, joint, torque(t, joint.q, joint.qdot),
                           np.zeros(2), dt)
        qd_c = np.linalg.solve(jacobian(params, q_c), xd_c)
        tau = torque(t, q_c, qd_c)
        y = (q_c, x_c, xd_c)
        k1 = rhs(tau, *y)
        k2 = rhs(tau, *(y[i] + dt / 2 * k1[i] for i in range(3)))
        k3 = rhs(tau, *(y[i] + dt / 2 * k2[i] for i in range(3)))
        k4 = rhs(tau, *(y[i] + dt * k3[i] for i in range(3)))
        q_c, x_c, xd_c = (y[i] + dt / 6 * (k1[i] + 2 * k2[i] + 2 * k3[i] + k4[i])
                          for i in range(3))
    gap = float(np.linalg.norm(forward_kinematics(params, joint.q) - x_c))
    assert gap <= 1e-6
    _passed("criterion 9 (joint vs task-space dynamics consistency)",
            f"position gap after 1 s = {gap:.3g} <= 1e-6")


def test_10_determinism_and_round_trip(preset_traces, tmp_path):
    cfg = replace(scenario_library()["workspace"], duration=4.0)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(run(cfg), p1)
    emit_csv(run(cfg), p2)
    assert p1.read_bytes() == p2.read_bytes()

    trace = preset_traces["combined"]
    p3 = tmp_path / "c.csv"
    emit_csv(trace, p3)
    reread = read_csv(p3)
    assert len(reread) == len(trace)
    assert all(records_equal(a, b) for a, b in zip(trace, reread))
    _passed("criterion 10 (determinism and CSV round trip)",
            "repeated runs byte-identical; reread trace bit-exact")
