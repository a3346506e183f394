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
# The active-* cases write an active set that emit_csv never writes for the
# trace's four barrier rows ("\u0663" is an Arabic-Indic three, which int()
# reads as 3); "repeated-h-column" names one row twice; "crlf" ends every
# line in "\r\n".
ACTIVE_SETS = {"active-index": "1.5", "active-past-rows": "4", "active-repeated": "1;1",
               "active-unordered": "2;1", "active-non-ascii": "\u0663"}
MALFORMED_CASES = ("field-count", "missing-column", "repeated-h-column", "non-numeric",
                   "non-finite", *ACTIVE_SETS, "status", "form-feed", "encoding", "crlf")

# Records whose every field passes its own check but one of whose kernel
# constants is not finite: (record class, its fields, the INI that gives
# them, the refusal's message, which names the fields feeding the constants).
NON_FINITE_CONSTANTS = (
    ("FxtismcGains", {"kappa1": 5e-324, "m_exp": 0.99},
     "[controller]\nkappa1 = 5e-324\nm_exp = 0.99\n",
     "kappa1, m_exp, kappa2, n_exp, rho and epsilon give a kernel constant that is not finite"),
    ("AdmittanceParams", {"k_m": 5e-324}, "[admittance]\nk_m = 5e-324\n",
     "k_m gives an input gain 1 / k_m that is not finite"),
    ("ManipulatorParams", {"m1": 1e300, "l1": 1e300}, "[robot]\nm1 = 1e300\nl1 = 1e300\n",
     "m1, m2, l1, l2 and gravity give a kernel constant that is not finite"),
)


@pytest.fixture
def malformed_csv(tmp_path):
    """``make(case)`` writes a short valid trace CSV with the one defect
    ``case`` (from MALFORMED_CASES) and returns (path, the 1-based line of
    the defect)."""
    good = tmp_path / "good.csv"
    emit_csv(run(replace(scenario_library()["workspace"], duration=0.01)), good)
    lines = good.read_text().splitlines()

    def make(case):
        out, line = list(lines), {"field-count": 5, "missing-column": 1,
                                  "repeated-h-column": 1, "non-numeric": 4, "non-finite": 8,
                                  "active-index": 3, "active-past-rows": 9,
                                  "active-repeated": 10, "active-unordered": 11,
                                  "active-non-ascii": 2, "status": 6, "form-feed": 3,
                                  "encoding": 7, "crlf": 1}[case]
        fields = out[line - 1].split(",")
        if case == "field-count":
            fields = fields[:3]
        elif case == "missing-column":
            fields.remove("fec_y")
        elif case == "repeated-h-column":
            fields[fields.index("h_ws_max_y")] = "h_ws_max_x"
        elif case == "non-numeric":
            fields[5] = "abc"
        elif case == "non-finite":
            fields[17] = "nan"  # h_ws_max_x
        elif case in ACTIVE_SETS:
            fields[-2] = ACTIVE_SETS[case]
        elif case == "status":
            fields[-1] = "weird"
        elif case == "form-feed":
            fields[-1] += "\x0c"  # a line break to str.splitlines, not to emit_csv
        elif case == "encoding":
            fields[1] = "\xff"  # written as the lone byte 0xff, which is not UTF-8
        out[line - 1] = ",".join(fields)
        path = tmp_path / f"{case}.csv"
        end = "\r\n" if case == "crlf" else "\n"
        text = end.join(out) + end
        path.write_bytes(text.encode("latin-1" if case == "encoding" else "utf-8"))
        return path, line

    return make
