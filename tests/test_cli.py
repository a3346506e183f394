import threading

import pytest

from safeadmit import cli, read_csv, scenario_library, serialize_config
from safeadmit.cli import main

from conftest import MALFORMED_CASES


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPresets:
    def test_listing(self, capsys):
        code, out, _ = run_cli(capsys, "presets")
        assert code == 0
        for name in scenario_library():
            assert name in out


class TestRun:
    def test_happy_path_with_plot(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "run", "--scenario", "workspace",
                               "--duration", "1.0", "--plot",
                               "--out", str(tmp_path))
        assert code == 0
        assert (tmp_path / "workspace.csv").exists()
        assert (tmp_path / "workspace.svg").exists()
        assert "scenario: workspace" in out
        assert "barrier violation: no" in out
        assert len(read_csv(tmp_path / "workspace.csv")) == 1001

    def test_baseline_reports_violation_exit_zero(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "run", "--scenario", "baseline-unsafe",
                               "--out", str(tmp_path))
        assert code == 0
        assert "barrier violation: yes" in out

    def test_zero_dt_exits_one(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "run", "--scenario", "workspace",
                               "--dt", "0", "--out", str(tmp_path))
        assert code == 1
        assert "dt" in err

    def test_unknown_scenario_exits_one(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "run", "--scenario", "no-such-thing",
                               "--out", str(tmp_path))
        assert code == 1
        assert "no-such-thing" in err

    @pytest.mark.parametrize("argv", [["--scenario", "nope"], ["--dt", "-1"]],
                             ids=["unknown-scenario", "negative-dt"])
    def test_refused_run_makes_no_out_dir(self, capsys, tmp_path, argv):
        out_dir = tmp_path / "D"
        code, _, err = run_cli(capsys, "run", *argv, "--out", str(out_dir))
        assert code == 1 and err.startswith("error: ")
        assert not out_dir.exists()

    @pytest.mark.parametrize("name", ["", ".", "..", "../escaped", "sub/dir", "nul\0byte",
                                      "x" * 300],
                             ids=["empty", "dot", "dot-dot", "parent", "subdir", "nul",
                                  "too-long"])
    def test_name_that_is_no_file_name_exits_one(self, capsys, tmp_path, name):
        cfg_path = tmp_path / "named.ini"
        cfg_path.write_text(f"[scenario]\nname = {name}\nduration = 0.01\n")
        out_dir = tmp_path / "out" / "D"
        code, out, err = run_cli(capsys, "run", "--scenario", str(cfg_path),
                                 "--out", str(out_dir))
        assert code == 1 and out == ""
        assert err == f"error: scenario name {name!r} cannot name a file\n"
        assert list(tmp_path.iterdir()) == [cfg_path]

    def test_abort_exits_two_with_partial_trace(self, capsys, tmp_path):
        # a config whose reference start sits outside the shrunk workspace
        cfg_path = tmp_path / "bad.ini"
        cfg_path.write_text("[scenario]\nname = bad\n"
                            "admittance_start = 0.2, 0.0\nduration = 1\n")
        code, _, err = run_cli(capsys, "run", "--scenario", str(cfg_path),
                               "--out", str(tmp_path))
        assert code == 2
        assert "aborted" in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_abort_midrun_writes_partial_csv(self, capsys, tmp_path):
        # an unreachable desired circle drives the arm toward full extension
        # and a singular configuration partway through the run
        cfg_path = tmp_path / "singular.ini"
        cfg_path.write_text("[scenario]\nname = singular\nradius = 0.61\n"
                            "duration = 8\n[constraints]\nset = none\n")
        code, _, err = run_cli(capsys, "run", "--scenario", str(cfg_path),
                               "--out", str(tmp_path))
        assert code == 2
        assert (tmp_path / "singular.csv").exists()
        assert len(read_csv(tmp_path / "singular.csv")) > 0

    def test_config_file_scenario(self, capsys, tmp_path):
        cfg = scenario_library()["obstacle-only"]
        cfg_path = tmp_path / "obs.ini"
        cfg_path.write_text(serialize_config(cfg).replace(
            "duration = 16", "duration = 1"))
        code, out, _ = run_cli(capsys, "run", "--scenario", str(cfg_path),
                               "--out", str(tmp_path))
        assert code == 0
        assert (tmp_path / "obstacle-only.csv").exists()

    def test_constraints_override(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "run", "--scenario", "workspace",
                             "--constraints", "none", "--duration", "1.0",
                             "--out", str(tmp_path))
        assert code == 0
        trace = read_csv(tmp_path / "workspace.csv")
        assert trace.h_names == () and trace.h.shape == (len(trace), 0)

    @pytest.mark.parametrize("scenario", ["workspace", "obstacle-only"])
    @pytest.mark.parametrize("constraints,h_columns", [
        ("workspace", ["h_ws_max_x", "h_ws_min_x", "h_ws_max_y", "h_ws_min_y"]),
        ("obstacle", ["h_obs"]),
        ("both", ["h_ws_max_x", "h_ws_min_x", "h_ws_max_y", "h_ws_min_y", "h_obs"]),
        ("none", []),
    ], ids=["workspace", "obstacle", "both", "none"])
    def test_every_constraints_value(self, capsys, tmp_path, scenario, constraints, h_columns):
        code, _, _ = run_cli(capsys, "run", "--scenario", scenario,
                             "--constraints", constraints, "--duration", "0.01",
                             "--out", str(tmp_path))
        assert code == 0
        header = (tmp_path / f"{scenario}.csv").read_text().split("\n", 1)[0].split(",")
        assert [c for c in header if c.startswith("h_")] == h_columns

    def test_no_filter_override(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "run", "--scenario", "workspace",
                             "--no-filter", "--duration", "1.0",
                             "--out", str(tmp_path))
        assert code == 0
        trace = read_csv(tmp_path / "workspace.csv")
        assert set(trace.qp_status) == {"bypass"}

    def test_out_env_var(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("SAFEGUARD_OUT", str(tmp_path / "envdir"))
        code, _, _ = run_cli(capsys, "run", "--scenario", "obstacle-only",
                             "--duration", "0.5")
        assert code == 0
        assert (tmp_path / "envdir" / "obstacle-only.csv").exists()

    def test_all_presets(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "run", "--all-presets",
                               "--duration", "1.0", "--out", str(tmp_path))
        assert code == 0
        for name in scenario_library():
            assert (tmp_path / f"{name}.csv").exists()
        printed = [line.split(": ", 1)[1] for line in out.splitlines()
                   if line.startswith("scenario: ")]
        assert printed == list(scenario_library())

    @pytest.mark.parametrize("section,line", [
        ("robot", "m1 = inf"), ("admittance", "k_m = inf"),
        ("admittance", "k_b = nan"), ("controller", "rho = inf"),
        ("ecbf", "k_obs = inf,1"), ("constraints", "x_obs = nan,0"),
        ("robot", "singularity_tolerance = inf"),
    ])
    def test_non_finite_config_number_exits_one(self, capsys, tmp_path, section, line):
        cfg_path = tmp_path / "nonfinite.ini"
        cfg_path.write_text(f"[scenario]\nduration = 0.01\n[{section}]\n{line}\n")
        code, _, err = run_cli(capsys, "run", "--scenario", str(cfg_path),
                               "--out", str(tmp_path))
        assert code == 1
        assert any(l.startswith("error: [") for l in err.splitlines())

    def test_infinite_duration_exits_one(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "run", "--scenario", "workspace",
                               "--duration", "inf", "--out", str(tmp_path))
        assert code == 1
        assert err.startswith("error:") and "duration" in err

    def test_non_finite_step_count_exits_one(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "run", "--scenario", "workspace", "--duration", "1e300",
                               "--dt", "1e-300", "--out", str(tmp_path))
        assert code == 1
        assert err == "error: duration / dt must be a finite number of steps\n"


def set_cpus(monkeypatch, n):
    """Make the affinity lookup report ``n`` usable CPUs, and count the
    runs that ``_run_one`` makes."""
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)
    runs = []
    run_one = cli._run_one

    def counted(config, out_dir, plot):
        runs.append(config.name)
        return run_one(config, out_dir, plot)

    monkeypatch.setattr(cli, "_run_one", counted)
    return runs


def without_runtime(text, out_dir):
    return [line.replace(str(out_dir), "OUT") for line in text.splitlines()
            if not line.startswith("runtime:")]


class TestAllPresets:
    def test_files_equal_single_runs(self, capsys, monkeypatch, tmp_path):
        runs = set_cpus(monkeypatch, 2)
        all_dir = tmp_path / "all"
        code, out, err = run_cli(capsys, "run", "--all-presets", "--plot",
                                 "--duration", "0.5", "--out", str(all_dir))
        assert code == 0 and err == "" and runs == list(scenario_library())
        single_dir, single_out = tmp_path / "single", []
        for name in scenario_library():
            code, text, _ = run_cli(capsys, "run", "--scenario", name, "--plot",
                                    "--duration", "0.5", "--out", str(single_dir))
            assert code == 0
            single_out += without_runtime(text, single_dir)
        assert without_runtime(out, all_dir) == single_out
        for name in scenario_library():
            for suffix in (".csv", ".svg"):
                assert ((all_dir / f"{name}{suffix}").read_bytes()
                        == (single_dir / f"{name}{suffix}").read_bytes())

    def test_every_preset_aborts_in_order(self, capsys, monkeypatch, tmp_path):
        set_cpus(monkeypatch, 2)
        code, out, err = run_cli(capsys, "run", "--all-presets", "--dt", "2e-2",
                                 "--out", str(tmp_path))
        assert code == 2 and out == ""
        names = list(scenario_library())
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert [line.split("'")[1] for line in errors] == names
        for name in names:
            assert len(read_csv(tmp_path / f"{name}.csv")) > 0

    def test_one_cpu_runs_serially(self, capsys, monkeypatch, tmp_path):
        argv = ["run", "--all-presets", "--plot", "--duration", "0.3", "--out"]
        set_cpus(monkeypatch, 2)
        code, two_out, _ = run_cli(capsys, *argv, str(tmp_path / "two"))
        assert code == 0
        runs = set_cpus(monkeypatch, 1)
        code, serial_out, _ = run_cli(capsys, *argv, str(tmp_path / "serial"))
        assert code == 0 and runs == list(scenario_library())
        assert (without_runtime(serial_out, tmp_path / "serial")
                == without_runtime(two_out, tmp_path / "two"))
        for path in (tmp_path / "serial").iterdir():
            assert path.read_bytes() == (tmp_path / "two" / path.name).read_bytes()

    def test_other_thread_runs_serially(self, capsys, monkeypatch, tmp_path):
        runs = set_cpus(monkeypatch, 2)
        release = threading.Event()
        waiter = threading.Thread(target=release.wait, args=(60,))
        waiter.start()
        try:
            code, _, _ = run_cli(capsys, "run", "--all-presets", "--duration", "0.05",
                                 "--out", str(tmp_path))
        finally:
            release.set()
            waiter.join(timeout=60)
        assert not waiter.is_alive()
        assert code == 0 and runs == list(scenario_library())

    @pytest.mark.parametrize("cpus", [2, 1], ids=["two-cpus", "one-cpu"])
    def test_os_error_exits_one(self, capsys, monkeypatch, tmp_path, cpus):
        # the second preset's CSV path is a directory: its error ends the
        # command, only the first preset's report is printed, and the
        # presets after it write nothing
        set_cpus(monkeypatch, cpus)
        first, second, *later = scenario_library()
        (tmp_path / f"{second}.csv").mkdir()
        code, out, err = run_cli(capsys, "run", "--all-presets", "--duration", "0.2",
                                 "--out", str(tmp_path))
        assert code == 1
        assert err.startswith("error: ") and f"{second}.csv" in err
        assert len(err.splitlines()) == 1
        printed = [line for line in out.splitlines() if line.startswith("scenario: ")]
        assert printed == [f"scenario: {first}"]
        assert later and not any((tmp_path / f"{name}.csv").exists() for name in later)


class TestReport:
    def test_matches_run_report(self, capsys, tmp_path):
        code, out_run, _ = run_cli(capsys, "run", "--scenario", "combined",
                                   "--duration", "2.0", "--out", str(tmp_path))
        assert code == 0
        code, out_rep, _ = run_cli(capsys, "report",
                                   str(tmp_path / "combined.csv"),
                                   "--scenario", "combined")
        assert code == 0
        run_lines = [l for l in out_run.splitlines()
                     if not l.startswith(("runtime", "trace written"))]
        rep_lines = out_rep.splitlines()
        assert rep_lines == run_lines

    @pytest.mark.parametrize("r,message", [
        ("nan", "r must be finite"), ("inf", "r must be finite"),
        ("-0.04", "safe distance r must be positive"), ("0", "safe distance r must be positive"),
    ])
    def test_bad_safe_distance_exits_one(self, capsys, tmp_path, r, message):
        code, _, _ = run_cli(capsys, "run", "--scenario", "combined",
                             "--duration", "0.01", "--out", str(tmp_path))
        assert code == 0
        code, out, err = run_cli(capsys, "report", str(tmp_path / "combined.csv"), f"--r={r}")
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"

    def test_missing_csv_exits_one(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "report", str(tmp_path / "nope.csv"))
        assert code == 1
        assert "nope.csv" in err

    @pytest.mark.parametrize("keep", [0, 1], ids=["zero-bytes", "header-only"])
    def test_empty_csv_exits_one(self, capsys, tmp_path, keep):
        code, _, _ = run_cli(capsys, "run", "--scenario", "combined",
                             "--duration", "0.01", "--out", str(tmp_path))
        assert code == 0
        path = tmp_path / "combined.csv"
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:keep]))
        code, out, err = run_cli(capsys, "report", str(path))
        assert code == 1 and out == ""
        assert err == f"error: {path} is empty\n"

    @pytest.mark.parametrize("case", MALFORMED_CASES)
    def test_malformed_csv_exits_one(self, capsys, malformed_csv, case):
        path, line = malformed_csv(case)
        code, out, err = run_cli(capsys, "report", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {path}:{line}: ")
        assert len(err.splitlines()) == 1
