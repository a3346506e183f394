"""tools/chains.py: each chain's time per step on every preset, and the
in-process ratio of combined to baseline-unsafe, at a short duration."""

import subprocess
import sys
from pathlib import Path

from safeadmit import scenario_library

ROOT = Path(__file__).resolve().parent.parent


def test_prints_each_chain_of_every_preset():
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "chains.py"), "--duration", "0.1",
                          "--repeat", "1"], capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr
    *lines, ratio = out.stdout.splitlines()
    assert [line.split()[0] for line in lines] == list(scenario_library())
    for line in lines:
        _, _, ref, _, plant, unit = line.split()
        assert float(ref) > 0.0 and float(plant) > 0.0 and unit == "us/step"
    assert ratio.startswith("in-process ratio combined / baseline-unsafe: ")
    assert float(ratio.rsplit(" ", 1)[1]) > 0.0
