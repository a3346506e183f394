"""tools/parity.py: a checkout compared with itself shows no difference, and
a differing bit in any column, a differing CSV digest or a CSV that does
not read back is reported."""

import hashlib
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from safeadmit import emit_csv, run, scenario_library

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import parity  # noqa: E402


RUN = {"t": np.zeros(3), "h": np.zeros((3, 1)), "x_f": np.zeros((3, 2)),
       "qp_active": np.array(["", "0", ""]), "qp_status": np.array(["ok"] * 3),
       "abort": np.array(""), "h_names": np.array(["obs"]),
       "csv_sha256": np.array("0" * 64), "csv_reads_back": np.array(True)}


def test_checkout_equals_itself():
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "parity.py"), str(ROOT),
                          "--duration", "0.07"], capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr
    lines = out.stdout.splitlines()
    assert lines[-1] == "52 of 52 runs identical"
    assert all(" csv_sha256=same csv_reads_back=same " in line for line in lines[:-1])


def test_dump_writes_the_csv_digest(tmp_path):
    # the digest is that of the CSV this checkout's emit_csv writes, and the
    # CSV reads back
    cfg = replace(scenario_library()["combined"], duration=0.05)
    runs = tmp_path / "runs.json"
    runs.write_text('[["combined", {"preset": "combined"}]]')
    parity.dump(str(ROOT / "src"), str(runs), str(tmp_path), 0.05)
    emit_csv(run(cfg), tmp_path / "expected.csv")
    with np.load(tmp_path / "combined.npz") as saved:
        assert str(saved["csv_sha256"]) == hashlib.sha256(
            (tmp_path / "expected.csv").read_bytes()).hexdigest()
        assert bool(saved["csv_reads_back"])
    assert not (tmp_path / "combined.csv").exists()


@pytest.mark.parametrize("changes, key", [
    ({"csv_sha256": np.array("1" * 64)}, "csv_sha256"),
    ({"csv_reads_back": np.array(False)}, "csv_reads_back"),
])
def test_a_differing_csv_is_reported(changes, key):
    ok, line = parity.compare(RUN, dict(RUN, **changes), ["x_f"])
    assert not ok and f"{key}=DIFF" in line


def test_a_signed_zero_differs():
    assert parity.compare(RUN, dict(RUN), ["x_f"])[0]
    flipped = dict(RUN, x_f=np.array([[0.0, 0.0], [-0.0, 0.0], [0.0, 0.0]]))
    ok, line = parity.compare(RUN, flipped, ["x_f"])
    assert not ok and "x_f=0!" in line
