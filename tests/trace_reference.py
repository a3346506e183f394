"""Row-wise reference for the CSV trace format, used as the oracle in the
tests.

These are the record-at-a-time writer and reader that the columnar
emit_csv and read_csv replaced: every value is formatted with
format(v, ".17g") on its own, and every row is split into a dict keyed by
the header. The writer takes any sequence of TraceRecords (iterating a
Trace gives one); the reader returns a list of them.
"""

import numpy as np

from safeadmit.sim import TraceRecord

_VEC_COLUMNS = [
    ("x_d", "xd"), ("x_f", "xf"), ("x_r_shadow", "xrs"), ("x_actual", "xa"),
    ("f_e", "fe"), ("f_e_hat", "feh"), ("f_e_comp", "fec"), ("f_c", "fc"),
]


def _fmt(v: float) -> str:
    return format(v, ".17g")


def csv_header(records):
    cols = ["t"]
    for _, prefix in _VEC_COLUMNS:
        cols += [f"{prefix}_x", f"{prefix}_y"]
    cols += [f"h_{name}" for name in records[0].h]
    cols += ["qp_active", "qp_status"]
    return cols


def emit_csv(records, path) -> None:
    h_names = list(records[0].h)
    lines = [",".join(csv_header(records))]
    for rec in records:
        row = [_fmt(rec.t)]
        for attr, _ in _VEC_COLUMNS:
            vec = getattr(rec, attr)
            row += [_fmt(vec[0]), _fmt(vec[1])]
        row += [_fmt(rec.h[name]) for name in h_names]
        row.append(";".join(str(i) for i in rec.qp_active) or "-")
        row.append(rec.qp_status)
        lines.append(",".join(row))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    h_names = [c[2:] for c in header if c.startswith("h_")]
    records = []
    for line in lines[1:]:
        rec = dict(zip(header, line.split(",")))
        vectors = {attr: np.array([float(rec[f"{p}_x"]), float(rec[f"{p}_y"])])
                   for attr, p in _VEC_COLUMNS}
        active = rec["qp_active"]
        records.append(TraceRecord(
            t=float(rec["t"]),
            h={name: float(rec[f"h_{name}"]) for name in h_names},
            qp_active=() if active == "-" else tuple(int(i) for i in active.split(";")),
            qp_status=rec["qp_status"],
            **vectors,
        ))
    return records
