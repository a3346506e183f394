import math
import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from safeadmit import (AdmittanceParams, EcbfGains, FxtismcGains,
                       ManipulatorParams, ObstacleConstraint, ScenarioConfig,
                       SimulationAborted, ValidationError,
                       WorkspaceConstraint, compute_report, desired_trajectory,
                       human_force, records_equal, run, scenario_library)


class TestDesiredTrajectory:
    def test_start_point(self):
        des = desired_trajectory(0.0)
        assert np.allclose(des.x_d, [0.14, 0.0])
        assert np.allclose(des.xdot_d, [0.0, 0.07])
        assert np.allclose(des.xddot_d, [-0.035, 0.0])

    def test_half_period(self):
        des = desired_trajectory(math.pi / 0.5)
        assert np.allclose(des.x_d, [-0.14, 0.0], atol=1e-12)

    def test_constant_radius(self):
        for t in np.linspace(0.0, 20.0, 100):
            assert abs(np.linalg.norm(desired_trajectory(t).x_d) - 0.14) < 1e-12


class TestHumanForce:
    def test_quiet_before_onset(self):
        assert np.array_equal(human_force(3.0), [0.0, 0.0])
        assert np.array_equal(human_force(12.0), [0.0, 0.0])

    def test_plateau(self):
        assert np.allclose(human_force(7.0), [2.0, 4.0])

    def test_quarter_cosine(self):
        assert np.allclose(human_force(4.5), [1.0, 2.0])

    def test_continuity_at_plateau_edges(self):
        eps = 1e-9
        assert np.abs(np.asarray(human_force(5.0 - eps)) - human_force(5.0)).max() < 1e-6
        assert np.abs(np.asarray(human_force(10.0)) - human_force(10.0 - eps)).max() < 1e-6

    def test_custom_amplitude(self):
        assert np.allclose(human_force(7.0, a=(0.5, 0.5)), [1.0, 1.0])


class TestScenarioConfig:
    def test_zero_dt_rejected(self):
        with pytest.raises(ValidationError):
            ScenarioConfig(dt=0.0)

    def test_duration_shorter_than_step_rejected(self):
        with pytest.raises(ValidationError):
            ScenarioConfig(duration=1e-4, dt=1e-3)

    def test_infinite_duration_rejected(self):
        with pytest.raises(ValidationError, match="finite"):
            ScenarioConfig(duration=math.inf)

    @pytest.mark.parametrize("make", [
        lambda: ManipulatorParams(gravity=math.nan),
        lambda: ManipulatorParams(m1=math.inf),
        lambda: ManipulatorParams(singularity_tolerance=math.inf),
        lambda: AdmittanceParams(k_b=math.nan),
        lambda: AdmittanceParams(k_k=math.nan),
        lambda: AdmittanceParams(k_m=math.inf),
        lambda: EcbfGains(K_obs=(math.nan, 70.0)),
        lambda: EcbfGains(K_max=(math.inf, 50.0)),
        lambda: ObstacleConstraint(x_obs=(math.nan, 0.0)),
        lambda: ObstacleConstraint(r=math.inf),
        lambda: WorkspaceConstraint(x_max=(math.inf, math.inf)),
        lambda: FxtismcGains(lambda1=math.inf),
        lambda: FxtismcGains(rho=math.inf),
        lambda: ScenarioConfig(circle_radius=math.nan),
        lambda: ScenarioConfig(q0=(math.nan, 0.0)),
    ])
    def test_non_finite_parameter_rejected_at_construction(self, make):
        with pytest.raises(ValidationError, match="must be finite"):
            make()

    def test_start_clipped_into_workspace(self):
        cfg = scenario_library()["workspace"]
        st = cfg.initial_admittance_state()
        assert np.allclose(st.x1, [0.09, 0.0])

    def test_start_unclipped_without_workspace(self):
        cfg = scenario_library()["obstacle-only"]
        st = cfg.initial_admittance_state()
        assert np.allclose(st.x1, [0.14, 0.0])

    def test_explicit_start_wins(self):
        cfg = replace(scenario_library()["workspace"], admittance_start=(0.01, 0.02))
        assert np.allclose(cfg.initial_admittance_state().x1, [0.01, 0.02])


class TestScenarioLibrary:
    def test_preset_names(self):
        assert set(scenario_library()) == {
            "baseline-unsafe", "workspace", "obstacle-only", "combined"}

    def test_workspace_preset_parameters(self):
        cfg = scenario_library()["workspace"]
        assert np.allclose(cfg.workspace.x_max, [0.13, 0.13])
        assert cfg.workspace.r == 0.04
        assert np.allclose(cfg.ecbf.K_max, [[500.0, 50.0], [500.0, 50.0]])

    def test_combined_preset_parameters(self):
        cfg = scenario_library()["combined"]
        assert np.allclose(cfg.obstacle.x_obs, [-0.07, 0.07])
        assert np.allclose(cfg.ecbf.K_obs, [700.0, 70.0])

    def test_baseline_is_bypassed_workspace(self):
        lib = scenario_library()
        base, ws = lib["baseline-unsafe"], lib["workspace"]
        assert base.filter_bypass and not ws.filter_bypass
        assert base.workspace is ws.workspace
        assert base.obstacle is None and ws.obstacle is None


class TestRun:
    def test_record_count(self, preset_traces):
        for trace in preset_traces.values():
            assert len(trace) == 16001
            assert trace[0].t == 0.0
            assert abs(trace[-1].t - 16.0) < 1e-9

    def test_zero_force_unconstrained_tracks_circle(self):
        cfg = ScenarioConfig(name="quiet", duration=4.0,
                             force_amplitude=(0.0, 0.0))
        trace = run(cfg)
        worst = max(np.abs(rec.x_f - rec.x_d).max() for rec in trace)
        assert worst <= 1e-6

    def test_shadow_diverges_after_first_compensation(self, preset_traces):
        # the clipped start (0.09, 0) sits on the shrunk boundary with the
        # drift pushing outward, so the filter engages immediately; the
        # unfiltered shadow coincides up to the first compensated step and
        # separates right after it
        trace = preset_traces["workspace"]
        first = next(i for i, rec in enumerate(trace)
                     if np.abs(rec.f_e_comp).max() > 0.0)
        for rec in trace[:first + 1]:
            assert np.array_equal(rec.x_f, rec.x_r_shadow)
        assert not np.array_equal(trace[first + 1].x_f, trace[first + 1].x_r_shadow)

    def test_bypass_status_and_identity(self, preset_traces):
        for rec in preset_traces["baseline-unsafe"]:
            assert rec.qp_status == "bypass"
            assert np.array_equal(rec.f_e_hat, rec.f_e)
            assert np.array_equal(rec.x_f, rec.x_r_shadow)

    def test_determinism(self):
        cfg = replace(scenario_library()["workspace"], duration=2.0)
        a, b = run(cfg), run(cfg)
        assert len(a) == len(b)
        assert all(records_equal(ra, rb) for ra, rb in zip(a, b))

    def test_records_equal_compares_bits(self, preset_traces):
        # before the force ramps in, f_e is (0.0, 0.0); the same record with
        # -0.0 in its place differs in its bytes, and a NaN record is equal
        # to itself, bit for bit
        rec = preset_traces["combined"][10]
        assert rec.f_e.tolist() == [0.0, 0.0]
        assert records_equal(rec, replace(rec))
        assert not records_equal(rec, replace(rec, f_e=-rec.f_e))
        nan = replace(rec, x_f=np.array([math.nan, 0.0]), h={**rec.h, "obs": math.nan})
        assert records_equal(nan, replace(nan))

    def test_log_memory_per_step(self):
        # the run keeps one flat float log, not a list of small arrays: the
        # tracemalloc peak of a whole 2 s run, its Trace included, stays
        # within 600 B per step
        cfg = replace(scenario_library()["combined"], duration=2.0)
        run(replace(cfg, duration=0.01))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            steps = len(run(cfg))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / steps <= 600, f"{peak / steps:.0f} B per step"

    def test_start_outside_safe_set_aborts_with_trace(self):
        cfg = replace(scenario_library()["workspace"],
                      admittance_start=(0.2, 0.0), duration=1.0)
        with pytest.raises(SimulationAborted) as excinfo:
            run(cfg)
        assert len(excinfo.value.trace) == 0

    def test_h_columns_follow_constraints(self, preset_traces):
        assert set(preset_traces["workspace"][0].h) == {
            "ws_max_x", "ws_min_x", "ws_max_y", "ws_min_y"}
        assert set(preset_traces["obstacle-only"][0].h) == {"obs"}
        assert set(preset_traces["combined"][0].h) == {
            "ws_max_x", "ws_min_x", "ws_max_y", "ws_min_y", "obs"}

    def test_compensator_beats_nominal_under_friction(self):
        base = ScenarioConfig(name="paired", duration=4.0,
                              force_amplitude=(0.0, 0.0))
        full = run(base)
        nominal = run(replace(base, nominal_only=True, name="paired-nominal"))

        def worst(trace):
            return max(np.linalg.norm(rec.x_actual - rec.x_f)
                       for rec in trace if 2.0 <= rec.t <= 4.0)

        assert worst(full) < worst(nominal)

    def test_chattering_bound(self, preset_traces):
        # boundary-layer smoothing keeps the commanded force continuous at
        # the millisecond scale
        trace = preset_traces["combined"]
        jumps = [np.abs(b.f_c - a.f_c).max()
                 for a, b in zip(trace[2000:6000], trace[2001:6001])]
        assert max(jumps) < 2.0 * (30.0 + 5.0) + 5.0


@pytest.mark.parametrize("k_m", [(20.0, 5.0), (5.0, 20.0)])
@pytest.mark.parametrize("name", ["workspace", "combined"])
def test_anisotropic_virtual_mass_stays_in_box(name, k_m):
    # each axis of a barrier row must carry its own input gain 1/k_m; with
    # one shared gain these runs left the shrunk box by up to 2.6 mm
    # within the first 5 s
    cfg = replace(scenario_library()[name], duration=5.0,
                  admittance=AdmittanceParams(k_m=k_m))
    trace = run(cfg)
    min_h = min(v for rec in trace for k, v in rec.h.items() if k.startswith("ws_"))
    max_xf = max(np.abs(rec.x_f).max() for rec in trace)
    assert min_h >= -1e-6
    assert max_xf <= 0.09 + 1e-6


@pytest.mark.parametrize("name", ["baseline-unsafe", "workspace", "obstacle-only", "combined"])
def test_divergence_is_a_typed_abort(name):
    # at dt = 5e-3 the closed loop diverges within ten steps; the abort
    # names the step, its time and the stage, and no warning or bare
    # arithmetic error escapes on the way
    cfg = replace(scenario_library()[name], duration=2.0, dt=5e-3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SimulationAborted) as excinfo:
            run(cfg)
    exc = excinfo.value
    assert isinstance(exc.cause, ValidationError)
    assert 0 < len(exc.trace) < 20
    where = re.search(r"at step (\d+) \(t = (\S+) s\) in the (\w+) stage", str(exc))
    assert where is not None, str(exc)
    step, t, stage = int(where[1]), float(where[2]), where[3]
    assert step in (len(exc.trace) - 1, len(exc.trace))
    assert t == pytest.approx(step * 5e-3)
    assert stage in ("admittance", "filter", "control", "plant")


@pytest.mark.parametrize("dt", [3e-3, 4e-3])
def test_stable_step_sizes_complete(dt):
    for cfg in scenario_library().values():
        trace = run(replace(cfg, duration=2.0, dt=dt))
        assert len(trace) == round(2.0 / dt) + 1


def test_slack_equals_hard_where_feasible(preset_traces):
    # the workspace rows never conflict, so slack mode is the hard filter
    # step for step and no step reports slack
    hard = preset_traces["workspace"]
    soft = run(replace(scenario_library()["workspace"], slack=True))
    assert len(soft) == len(hard)
    for a, b in zip(hard, soft):
        assert np.array_equal(a.f_e_hat, b.f_e_hat)
        assert a.qp_active == b.qp_active
        assert b.qp_status == "ok"
    assert compute_report(soft, scenario="workspace").slack_steps == 0
