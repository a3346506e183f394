from dataclasses import replace

import numpy as np
import pytest

from safeadmit import emit_csv, run, scenario_library


@pytest.fixture(scope="session")
def preset_traces():
    """Run all four presets once and share the traces across tests."""
    return {name: run(cfg) for name, cfg in scenario_library().items()}


@pytest.fixture
def rng():
    return np.random.default_rng(42)


# Defects of a trace CSV that read_csv must refuse, each at a known line.
MALFORMED_CASES = ("field-count", "missing-column", "non-numeric", "non-finite",
                   "active-index", "status", "encoding")


@pytest.fixture
def malformed_csv(tmp_path):
    """``make(case)`` writes a short valid trace CSV with the one defect
    ``case`` (from MALFORMED_CASES) and returns (path, the 1-based line of
    the defect)."""
    good = tmp_path / "good.csv"
    emit_csv(run(replace(scenario_library()["workspace"], duration=0.01)), good)
    lines = good.read_text().splitlines()

    def make(case):
        out, line = list(lines), {"field-count": 5, "missing-column": 1, "non-numeric": 4,
                                  "non-finite": 8, "active-index": 3, "status": 6,
                                  "encoding": 7}[case]
        fields = out[line - 1].split(",")
        if case == "field-count":
            fields = fields[:3]
        elif case == "missing-column":
            fields.remove("fec_y")
        elif case == "non-numeric":
            fields[5] = "abc"
        elif case == "non-finite":
            fields[17] = "nan"  # h_ws_max_x
        elif case == "active-index":
            fields[-2] = "1.5"
        elif case == "status":
            fields[-1] = "weird"
        else:
            fields[1] = "\xff"  # written as the lone byte 0xff, which is not UTF-8
        out[line - 1] = ",".join(fields)
        path = tmp_path / f"{case}.csv"
        path.write_bytes(("\n".join(out) + "\n").encode("latin-1"))
        return path, line

    return make
