"""Row-wise reference for the CSV trace format, used as the oracle in the
tests.

These are the row-at-a-time writer and reader that the columnar emit_csv
and read_csv replaced: the writer formats every value of every row with
format(v, ".17g") on its own, and the reader splits every row into a dict
keyed by the header and assembles a Trace from the parsed rows.
"""

import numpy as np

from safeadmit.sim import Trace

_VEC_COLUMNS = [
    ("x_d", "xd"), ("x_f", "xf"), ("x_r_shadow", "xrs"), ("x_actual", "xa"),
    ("f_e", "fe"), ("f_e_hat", "feh"), ("f_e_comp", "fec"), ("f_c", "fc"),
]


def _fmt(v: float) -> str:
    return format(v, ".17g")


def csv_header(trace):
    cols = ["t"]
    for _, prefix in _VEC_COLUMNS:
        cols += [f"{prefix}_x", f"{prefix}_y"]
    cols += [f"h_{name}" for name in trace.h_names]
    cols += ["qp_active", "qp_status"]
    return cols


def emit_csv(trace, path) -> None:
    lines = [",".join(csv_header(trace))]
    for k in range(len(trace)):
        row = [_fmt(float(trace.t[k]))]
        for attr, _ in _VEC_COLUMNS:
            x, y = getattr(trace, attr)[k].tolist()
            row += [_fmt(x), _fmt(y)]
        row += [_fmt(v) for v in trace.h[k].tolist()]
        row.append(";".join(str(i) for i in trace.qp_active[k]) or "-")
        row.append(trace.qp_status[k])
        lines.append(",".join(row))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv(path) -> Trace:
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    h_names = [c[2:] for c in header if c.startswith("h_")]
    rows, active_sets, statuses = [], [], []
    for line in lines[1:]:
        rec = dict(zip(header, line.split(",")))
        rows.append([float(rec["t"])]
                    + [float(rec[f"{p}_{axis}"]) for _, p in _VEC_COLUMNS for axis in "xy"]
                    + [float(rec[f"h_{name}"]) for name in h_names])
        active = rec["qp_active"]
        active_sets.append(() if active == "-" else tuple(int(i) for i in active.split(";")))
        statuses.append(rec["qp_status"])
    matrix = np.array(rows, dtype=float).reshape(len(rows), 1 + 2 * len(_VEC_COLUMNS) + len(h_names))
    return Trace(matrix, tuple(h_names), tuple(active_sets), tuple(statuses))
