"""Smoke tests: every demo, and every python block of README.md, runs
against the current API and prints its findings."""

import importlib.util
import re
from dataclasses import replace
from pathlib import Path

import pytest

import safeadmit
from safeadmit import run, scenario_library, serialize_config

DEMOS = Path(__file__).resolve().parent.parent / "demos"
README = DEMOS.parent / "README.md"


def load(stem):
    spec = importlib.util.spec_from_file_location(stem, DEMOS / f"{stem}.py")
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    return demo


def reusing(preset_traces, fallback):
    """A ``run`` that gives a config equal to a preset the session's trace
    of that preset, and hands any other config to ``fallback``."""
    presets = {serialize_config(cfg): name for name, cfg in scenario_library().items()}

    def run_or_reuse(cfg):
        name = presets.get(serialize_config(cfg))
        return preset_traces[name] if name else fallback(cfg)

    return run_or_reuse


@pytest.fixture
def reuse_presets(monkeypatch, preset_traces, tmp_path):
    """``patch(demo)`` points the demo's output directory at tmp_path and
    its ``run`` at the session's preset traces for a config equal to a
    preset, so the demo neither writes into the source tree nor simulates a
    preset again."""
    def patch(demo):
        monkeypatch.setattr(demo, "OUT", tmp_path)
        monkeypatch.setattr(demo, "run", reusing(preset_traces, run))
        return demo

    return patch


def test_workspace_demo_runs(reuse_presets, capsys, tmp_path):
    reuse_presets(load("01_workspace_scenario")).main()
    out = capsys.readouterr().out
    assert re.search(r"workspace bound is 0\.13 m -> violated by 0\.0\d+ m", out)
    assert re.search(r"filter engaged on \d+ of 16001 steps", out)
    assert "barrier violation: no" in out
    assert {p.name for p in tmp_path.iterdir()} == {
        "baseline-unsafe.csv", "workspace.csv", "workspace.svg"}


def test_obstacle_demo_runs(reuse_presets, capsys, tmp_path):
    reuse_presets(load("02_obstacle_and_combined")).main()
    out = capsys.readouterr().out
    for name in ("obstacle-only", "combined"):
        assert re.search(rf"{name} +min obstacle distance = 0\.04\d+ m", out)
    assert re.search(r"worst workspace barrier value = -\d\.\d+e-03 m\^2", out)
    assert (tmp_path / "combined.svg").exists()


def test_fixed_time_demo_runs(capsys):
    load("04_fixed_time_tracking").main()
    out = capsys.readouterr().out
    for e0 in ("0.05", "0.50"):
        assert re.search(rf"initial error {e0} m: below 1 mm after 0\.\d+ s", out)
    assert re.search(r"full controller +worst error on \[2, 4\] s = \d\.\d+e-06 m", out)


def test_qp_projection_demo_runs(capsys):
    load("03_qp_projection").main()
    out = capsys.readouterr().out
    assert "binding row 'ws_max_x'" in out
    assert "clipped" in out and "passed through" in out


def test_readme_python_blocks_run(monkeypatch, preset_traces, capsys):
    """Each python block of README.md runs as written, in a fresh namespace;
    ``safeadmit.run`` gives a preset its session trace and runs any other
    config for 1 s."""
    monkeypatch.setattr(safeadmit, "run", reusing(
        preset_traces, lambda cfg: run(replace(cfg, duration=1.0))))
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    out = capsys.readouterr().out
    assert "scenario: combined" in out and "barrier violation: no" in out
    assert re.search(r"^1\.0 \[", out, re.M)  # the narrow box's last step, at 1 s
