import math
import os
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
                       emit_csv, human_force, read_csv, records_equal, run,
                       scenario_library)
from safeadmit import sim

from test_pipeline import usable_cpus


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

    def test_non_finite_step_count_rejected(self):
        # each number is finite, but their quotient is not
        with pytest.raises(ValidationError, match="^duration / dt must be a finite"):
            ScenarioConfig(duration=1e300, dt=1e-300)

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
        assert cfg.ecbf.K_max == (500.0, 50.0)

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
            assert trace.t[0] == 0.0
            assert abs(trace.t[-1] - 16.0) < 1e-9

    def test_zero_force_unconstrained_tracks_circle(self):
        cfg = ScenarioConfig(name="quiet", duration=4.0,
                             force_amplitude=(0.0, 0.0))
        trace = run(cfg)
        worst = np.abs(trace.x_f - trace.x_d).max()
        assert worst <= 1e-6

    def test_shadow_diverges_after_first_compensation(self, preset_traces):
        # the clipped start (0.09, 0) sits on the shrunk boundary with the
        # drift pushing outward, so the filter engages immediately; the
        # unfiltered shadow coincides up to the first compensated step and
        # separates right after it
        trace = preset_traces["workspace"]
        first = int(np.flatnonzero(np.abs(trace.f_e_comp).max(axis=1) > 0.0)[0])
        assert np.array_equal(trace.x_f[:first + 1], trace.x_r_shadow[:first + 1])
        assert not np.array_equal(trace.x_f[first + 1], trace.x_r_shadow[first + 1])

    def test_bypass_status_and_identity(self, preset_traces):
        trace = preset_traces["baseline-unsafe"]
        assert set(trace.qp_status) == {"bypass"}
        assert np.array_equal(trace.f_e_hat, trace.f_e)
        assert np.array_equal(trace.x_f, trace.x_r_shadow)

    def test_determinism(self):
        cfg = replace(scenario_library()["workspace"], duration=2.0)
        assert records_equal(run(cfg), run(cfg))

    def test_numpy_scalar_parameters_run_as_floats(self):
        # the step passes on the floats it computes without coercing them
        # again, so the constructors must hand it Python floats
        cfg = replace(scenario_library()["combined"], duration=0.2)
        numpy_cfg = replace(cfg, dt=np.float64(cfg.dt), circle_radius=np.float64(0.14),
                            circle_rate=np.float64(0.5), robot=ManipulatorParams(l1=np.float64(0.3)),
                            controller=FxtismcGains(lambda1=np.float64(3.0),
                                                    alpha=np.float64(5 / 7)))
        assert all(type(v) is float for v in (numpy_cfg.dt, numpy_cfg.duration, numpy_cfg.circle_radius,
                                              numpy_cfg.circle_rate, numpy_cfg.robot.l1,
                                              numpy_cfg.controller.lambda1,
                                              numpy_cfg.controller.alpha))
        assert type(numpy_cfg.controller.use_sign) is bool
        assert records_equal(run(cfg), run(numpy_cfg))

    @pytest.mark.parametrize("name,changes,calls_per_step", [
        ("baseline-unsafe", {}, 1),
        ("workspace", {"workspace": None}, 1),
        ("combined", {}, 2),
    ], ids=["bypass", "no-constraints", "filtered"])
    def test_unfiltered_shadow_is_the_reference(self, monkeypatch, name, changes, calls_per_step):
        # unfiltered, f_hat is f_e, so one admittance step serves the
        # reference and the shadow; with one usable CPU the reference chain,
        # and so every call of its admittance kernel counted here, runs in
        # this process
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        calls = []

        def counted(*args):
            calls.append(args)
            return step(*args)

        step = sim._admittance_floats
        monkeypatch.setattr(sim, "_admittance_floats", counted)
        trace = run(replace(scenario_library()[name], duration=0.2, **changes))
        assert len(calls) == calls_per_step * (len(trace) - 1)
        if calls_per_step == 1:
            assert trace.x_r_shadow.tobytes() == trace.x_f.tobytes()

    def test_records_equal_compares_bits(self, preset_traces):
        # before the force ramps in, f_e is (0.0, 0.0); the same trace with
        # -0.0 in its place differs in its bytes, and a trace holding NaNs
        # is equal to a copy of itself, bit for bit
        trace = preset_traces["combined"][:20]
        assert not trace.f_e.any()
        negated = replace(trace, matrix=trace.matrix.copy())
        assert records_equal(trace, negated)
        negated.f_e[:] = -trace.f_e
        assert not records_equal(trace, negated)
        nan = replace(trace, matrix=trace.matrix.copy())
        nan.x_f[3, 0] = nan.h[5, -1] = math.nan
        assert records_equal(nan, replace(nan, matrix=nan.matrix.copy()))
        assert not records_equal(trace, nan)
        # the length, the row names and the active sets count too
        assert not records_equal(trace, trace[:-1])
        assert not records_equal(trace, replace(trace, h_names=trace.h_names[::-1]))
        active = ((),) + trace.qp_active[1:]
        assert active != trace.qp_active
        assert not records_equal(trace, replace(trace, qp_active=active))

    def test_fields_built_from_lists_are_tuples(self, preset_traces):
        # a Trace built from lists holds tuples, so it equals the same trace
        # built from tuples, as run and read_csv build it
        trace = preset_traces["combined"][:50]
        listed = sim.Trace(trace.matrix, list(trace.h_names), list(map(list, trace.qp_active)),
                           list(trace.qp_status))
        assert records_equal(listed, trace)
        assert type(listed.h_names) is type(listed.qp_active) is type(listed.qp_status) is tuple
        assert all(type(active) is tuple for active in listed.qp_active)
        # a slice takes the fields as they are, and an index slices one row
        assert trace[7].qp_active[0] is trace.qp_active[7]

    def test_signals_are_views_of_the_matrix(self, preset_traces):
        trace = preset_traces["combined"]
        for name in ("t", *sim.VECTORS, "h"):
            assert np.shares_memory(getattr(trace, name), trace.matrix), name
        for i, (name, _) in enumerate(sim.COLUMNS):
            assert getattr(trace, name).tobytes() == trace.matrix[:, 1 + 2 * i:3 + 2 * i].tobytes()
        with pytest.raises(AttributeError):
            trace.x_f = trace.x_f.copy()
        part = trace[100:200]
        assert np.shares_memory(part.matrix, trace.matrix)
        assert part.matrix.tobytes() == trace.matrix[100:200].tobytes()

    def test_an_index_is_a_one_row_trace(self, preset_traces):
        trace = preset_traces["combined"][:20]
        with pytest.raises(IndexError):
            trace[len(trace)]
        assert records_equal(trace[-1], trace[len(trace) - 1:])
        rows = list(trace)
        assert len(rows) == len(trace) and all(len(row) == 1 for row in rows)
        assert all(records_equal(row, trace[k:k + 1]) for k, row in enumerate(rows))

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

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_csv_memory_is_bounded(self, preset_traces, tmp_path, monkeypatch, cpus):
        # emit_csv and read_csv hold the text of one slice of rows at a time,
        # not the whole file: on the 16 s combined trace (6.3 MB of CSV) their
        # tracemalloc peaks stay within 4 MB, read_csv's above the matrix its
        # Trace's columns view
        trace, path = preset_traces["combined"], tmp_path / "combined.csv"
        with usable_cpus(monkeypatch, cpus):
            emit_csv(trace, path)
            read_csv(path)
            tracemalloc.start()
            try:
                emit_csv(trace, path)
                emit_peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                back = read_csv(path)
                read_peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
        assert records_equal(trace, back)
        assert emit_peak <= 4e6, f"emit_csv: {emit_peak / 1e6:.2f} MB"
        above = read_peak - back.t.base.nbytes
        assert above <= 4e6, f"read_csv: {above / 1e6:.2f} MB above its matrix"

    def test_active_sets_are_shared(self):
        # the trace holds one tuple object per distinct active set, not one
        # per step
        trace = run(replace(scenario_library()["combined"], duration=2.0))
        assert len(set(map(id, trace.qp_active))) == len(set(trace.qp_active))

    def test_start_outside_safe_set_aborts_with_trace(self):
        cfg = replace(scenario_library()["workspace"],
                      admittance_start=(0.2, 0.0), duration=1.0)
        with pytest.raises(SimulationAborted) as excinfo:
            run(cfg)
        assert len(excinfo.value.trace) == 0

    def test_h_columns_follow_constraints(self, preset_traces):
        assert preset_traces["workspace"].h_names == (
            "ws_max_x", "ws_min_x", "ws_max_y", "ws_min_y")
        assert preset_traces["obstacle-only"].h_names == ("obs",)
        assert preset_traces["combined"].h_names == (
            "ws_max_x", "ws_min_x", "ws_max_y", "ws_min_y", "obs")

    def test_compensator_beats_nominal_under_friction(self):
        base = ScenarioConfig(name="paired", duration=4.0,
                              force_amplitude=(0.0, 0.0))
        full = run(base)
        nominal = run(replace(base, nominal_only=True, name="paired-nominal"))

        def worst(trace):
            window = (2.0 <= trace.t) & (trace.t <= 4.0)
            return np.linalg.norm(trace.x_actual[window] - trace.x_f[window], axis=1).max()

        assert worst(full) < worst(nominal)

    def test_chattering_bound(self, preset_traces):
        # boundary-layer smoothing keeps the commanded force continuous at
        # the millisecond scale
        trace = preset_traces["combined"]
        jumps = np.abs(np.diff(trace.f_c[2000:6001], axis=0)).max()
        assert jumps < 2.0 * (30.0 + 5.0) + 5.0


@pytest.mark.parametrize("k_m", [(20.0, 5.0), (5.0, 20.0)])
@pytest.mark.parametrize("name", ["workspace", "combined"])
def test_anisotropic_virtual_mass_stays_in_box(name, k_m):
    # each axis of a barrier row must carry its own input gain 1/k_m; with
    # one shared gain these runs left the shrunk box by up to 2.6 mm
    # within the first 5 s
    cfg = replace(scenario_library()[name], duration=5.0,
                  admittance=AdmittanceParams(k_m=k_m))
    trace = run(cfg)
    ws = [i for i, name in enumerate(trace.h_names) if name.startswith("ws_")]
    min_h = trace.h[:, ws].min()
    max_xf = np.abs(trace.x_f).max()
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


def test_overflow_is_named_in_words():
    # at dt = 2e-2 a float power in the tracker overflows, whose text is
    # the errno tuple (34, 'Numerical result out of range')
    cfg = replace(scenario_library()["combined"], dt=2e-2)
    with pytest.raises(SimulationAborted) as excinfo:
        run(cfg)
    assert str(excinfo.value) == ("scenario 'combined' aborted at step 3 (t = 0.06 s) in the "
                                  "control stage: the control state diverged: a float overflowed")
    assert isinstance(excinfo.value.__cause__, OverflowError)


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
    assert np.array_equal(hard.f_e_hat, soft.f_e_hat)
    assert hard.qp_active == soft.qp_active
    assert set(soft.qp_status) == {"ok"}
    assert compute_report(soft, scenario="workspace").slack_steps == 0
