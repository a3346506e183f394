"""Smoke test: the QP projection demo runs against the current API."""

import importlib.util
from pathlib import Path

DEMO = Path(__file__).resolve().parent.parent / "demos" / "03_qp_projection.py"


def test_qp_projection_demo_runs(capsys):
    spec = importlib.util.spec_from_file_location("qp_projection_demo", DEMO)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    demo.main()
    out = capsys.readouterr().out
    assert "binding row 'ws_max_x'" in out
    assert "clipped" in out and "passed through" in out
