"""tools/parity.py: a checkout compared with itself shows no difference, and
a differing bit in any column is reported."""

import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import parity  # noqa: E402


def test_checkout_equals_itself():
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "parity.py"), str(ROOT),
                          "--duration", "0.07"], capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.splitlines()[-1] == "52 of 52 runs identical"


def test_a_signed_zero_differs():
    run = {"t": np.zeros(3), "h": np.zeros((3, 1)), "x_f": np.zeros((3, 2)),
           "qp_active": np.array(["", "0", ""]), "qp_status": np.array(["ok"] * 3),
           "abort": np.array(""), "h_names": np.array(["obs"])}
    assert parity.compare(run, dict(run), ["x_f"])[0]
    flipped = dict(run, x_f=np.array([[0.0, 0.0], [-0.0, 0.0], [0.0, 0.0]]))
    ok, line = parity.compare(run, flipped, ["x_f"])
    assert not ok and "x_f=0!" in line
