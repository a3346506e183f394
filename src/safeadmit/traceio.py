"""Trace serialization (CSV), run reports, and SVG trajectory plots, each
over whole columns of a Trace.

CSV schema: one header row, then one data row per step. Floats are
rendered with 17 significant digits so a reread trace is bit-identical to
the in-memory one. The active-set column joins row indices with ';' and is
'-' when empty. The h_* columns depend on which constraints were enabled
and are taken from the header on reread. read_csv refuses a malformed file
with a ValidationError that names the path and the 1-based line.
"""

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import ValidationError
from .safety import DEFAULT_SAFE_DISTANCE, ObstacleConstraint, WorkspaceConstraint
from .sim import QP_STATUSES, VECTORS, Trace

_PREFIXES = ("xd", "xf", "xrs", "xa", "fe", "feh", "fec", "fc")  # one per name in VECTORS
_LEADING = ["t"] + [f"{p}_{axis}" for p in _PREFIXES for axis in "xy"]
_TRAILING = ["qp_active", "qp_status"]
_BLOCK = 4096  # rows converted at a time, which bounds the text held in memory
# The report's tracking error skips the first second, while the tracker
# converges from its start.
_TRANSIENT_S = 1.0
# The plot draws every tenth sample of a trajectory, which keeps the SVG small.
_PLOT_STRIDE = 10


def csv_header(trace: Trace) -> List[str]:
    return _LEADING + [f"h_{name}" for name in trace.h_names] + _TRAILING


def emit_csv(trace: Trace, path) -> None:
    """Write the trace: each row is one '%.17g' template over a row of the
    stacked float columns, plus the active-set and status fields."""
    if not len(trace):
        raise ValidationError("cannot emit an empty trace")
    matrix = np.column_stack([trace.t, *(getattr(trace, v) for v in VECTORS), trace.h])
    bad = _non_finite(matrix)
    if bad:
        raise ValidationError(f"cannot emit step {bad[0]}: its {csv_header(trace)[bad[1]]} "
                              "is not finite")
    template = ",".join(["%.17g"] * matrix.shape[1] + ["%s", "%s"])
    fields = {a: ";".join(map(str, a)) or "-" for a in set(trace.qp_active)}
    with open(path, "w", newline="") as fh:
        fh.write(",".join(csv_header(trace)) + "\n")
        for start in range(0, len(trace), _BLOCK):
            stop = start + _BLOCK
            rows = matrix[start:stop].tolist()
            for row, active, status in zip(rows, trace.qp_active[start:stop],
                                           trace.qp_status[start:stop]):
                row += (fields[active], status)
            fh.write("\n".join([template % tuple(row) for row in rows]) + "\n")


def _non_finite(matrix: np.ndarray) -> Optional[Tuple[int, int]]:
    """(row, column) of the first NaN or infinity of ``matrix``, or None. A
    run aborts before its state stops being finite, so a trace never holds
    one."""
    where = np.argwhere(~np.isfinite(matrix))
    return tuple(where[0].tolist()) if len(where) else None


def _bad(path, line: int, what: str) -> ValidationError:
    return ValidationError(f"{path}:{line}: {what}")


def _h_names(path, header: List[str]) -> List[str]:
    """The barrier names of a header, which must be the leading columns,
    any h_* columns, then the trailing two."""
    expected = _LEADING + [c for c in header if c.startswith("h_")] + _TRAILING
    for column in expected:
        if column not in header:
            raise _bad(path, 1, f"missing column '{column}'")
    if header != expected:
        raise _bad(path, 1, f"columns are not in the order {','.join(expected)}")
    return [c[2:] for c in header if c.startswith("h_")]


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _parse_active(path, line: int, text: str) -> Tuple[int, ...]:
    if text == "-":
        return ()
    indices = text.split(";")
    if not all(i.isdecimal() for i in indices):
        raise _bad(path, line, f"active set '{text}' is not row indices joined by ';'")
    return tuple(map(int, indices))


def _lines(path) -> List[str]:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode().splitlines()
    except UnicodeDecodeError as exc:
        raise _bad(path, data.count(b"\n", 0, exc.start) + 1, "not UTF-8 text") from exc


def _floats(path, first: int, numbers: List[str], width: int) -> np.ndarray:
    """The (len(numbers), width) floats of the numeric fields of a block of
    rows whose first row is on line ``first``."""
    try:
        values = np.fromiter(map(float, ",".join(numbers).split(",")), float,
                             len(numbers) * width)
    except ValueError:
        k, field = next((k, f) for k, text in enumerate(numbers)
                        for f in text.split(",") if not _is_float(f))
        raise _bad(path, first + k, f"'{field}' is not a number") from None
    return values.reshape(-1, width)


def read_csv(path) -> Trace:
    """Read a trace written by emit_csv. A wrong field count, a missing or
    misplaced column, a number that does not parse or is not finite, an
    active set that is not integer row indices, an unknown qp_status or
    bytes that are not UTF-8 raise ValidationError naming the path and the
    1-based line."""
    lines = _lines(path)
    if not lines:
        raise ValidationError(f"{path} is empty")
    header = lines[0].split(",")
    h_names = _h_names(path, header)
    body = lines[1:]
    width = len(header) - 2  # the float fields of a row
    if set(map(str.count, body, repeat(","))) - {width + 1}:
        k = next(k for k, line in enumerate(body) if line.count(",") != width + 1)
        raise _bad(path, k + 2, f"{body[k].count(',') + 1} fields, the header has {width + 2}")
    matrix = np.empty((len(body), width))
    active, status = [], []
    for start in range(0, len(body), _BLOCK):
        parts = [line.rsplit(",", 2) for line in body[start:start + _BLOCK]]
        matrix[start:start + len(parts)] = _floats(path, start + 2, [p[0] for p in parts], width)
        active += [p[1] for p in parts]
        status += [p[2] for p in parts]
    bad = _non_finite(matrix)
    if bad:
        raise _bad(path, bad[0] + 2, f"{header[bad[1]]} is not finite")
    for text in dict.fromkeys(status):
        if text not in QP_STATUSES:
            raise _bad(path, status.index(text) + 2, f"unknown qp_status '{text}'")
    sets = {text: _parse_active(path, active.index(text) + 2, text)
            for text in dict.fromkeys(active)}
    return Trace.from_matrix(matrix[:, 0], matrix[:, 1:], h_names,
                             map(sets.__getitem__, active), status)


@dataclass
class RunReport:
    scenario: str
    min_h: Dict[str, float]
    max_tracking_error: float
    max_abs_xf: Tuple[float, float]
    min_obstacle_distance: Optional[float]
    max_active_rows: int
    slack_steps: int
    runtime_s: Optional[float] = None

    def format(self) -> str:
        out = [f"scenario: {self.scenario}"]
        for name, h in self.min_h.items():
            out.append(f"min h[{name}]: {h:.6g}")
        out.append(f"max tracking error (t >= {_TRANSIENT_S:g} s): "
                   f"{self.max_tracking_error:.6g} m")
        out.append(f"max |x_f|: ({self.max_abs_xf[0]:.6g}, {self.max_abs_xf[1]:.6g}) m")
        if self.min_obstacle_distance is not None:
            out.append(f"min obstacle distance: {self.min_obstacle_distance:.6g} m")
        out.append(f"max active QP rows: {self.max_active_rows}")
        out.append(f"steps with slack engaged: {self.slack_steps}")
        # tolerance absorbs the discretization overshoot of the fixed-step
        # integrator; genuine violations are orders of magnitude larger
        violated = any(h < -1e-6 for h in self.min_h.values())
        out.append(f"barrier violation: {'yes' if violated else 'no'}")
        if self.runtime_s is not None:
            out.append(f"runtime: {self.runtime_s:.2f} s")
        return "\n".join(out)


def compute_report(trace: Trace, scenario: str = "custom",
                   safe_distance: float = DEFAULT_SAFE_DISTANCE,
                   runtime_s: Optional[float] = None) -> RunReport:
    """Derive the summary report from the trace's columns only (so a report
    rebuilt from CSV matches the one printed at run time field for field)."""
    if not len(trace):
        raise ValidationError("cannot report on an empty trace")
    min_h = dict(zip(trace.h_names, trace.h.min(axis=0).tolist()))
    late = trace.t >= _TRANSIENT_S
    d = trace.x_actual[late] - trace.x_f[late]
    err = float(np.hypot(d[:, 0], d[:, 1]).max(initial=0.0))
    max_abs_xf = tuple(np.abs(trace.x_f).max(axis=0).tolist())
    min_obs = None
    if "obs" in min_h:
        min_obs = math.sqrt(max(min_h["obs"] + safe_distance ** 2, 0.0))
    return RunReport(
        scenario=scenario,
        min_h=min_h,
        max_tracking_error=err,
        max_abs_xf=max_abs_xf,
        min_obstacle_distance=min_obs,
        max_active_rows=max(map(len, trace.qp_active)),
        slack_steps=trace.qp_status.count("slack"),
        runtime_s=runtime_s,
    )


def _polyline(points: np.ndarray, stroke, dash: str = "") -> str:
    pts = " ".join(f"{x:.5g},{y:.5g}" for x, y in points[::_PLOT_STRIDE].tolist())
    dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
    return (f'<polyline points="{pts}" fill="none" stroke="{stroke}" '
            f'stroke-width="0.002"{dash_attr}/>')


def emit_plot(trace: Trace, path,
              workspace: Optional[WorkspaceConstraint] = None,
              obstacle: Optional[ObstacleConstraint] = None) -> None:
    """Static SVG of the 2D trajectories, drawn in world coordinates
    (metres) inside a y-up group so the geometry is directly assertable."""
    if not len(trace):
        raise ValidationError("cannot plot an empty trace")
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" width="500" height="500" '
        'viewBox="-0.2 -0.2 0.4 0.4" style="background:white">',
        '<g transform="scale(1,-1)">',
    ]
    if workspace is not None:
        lo = workspace.x_min + workspace.r
        hi = workspace.x_max - workspace.r
        parts.append(
            f'<rect x="{lo[0]:.6g}" y="{lo[1]:.6g}" width="{hi[0] - lo[0]:.6g}" '
            f'height="{hi[1] - lo[1]:.6g}" fill="none" stroke="red" '
            'stroke-width="0.002" stroke-dasharray="0.01,0.005"/>'
        )
    if obstacle is not None:
        parts.append(
            f'<circle cx="{obstacle.x_obs[0]:.6g}" cy="{obstacle.x_obs[1]:.6g}" '
            f'r="{obstacle.r:.6g}" fill="lightgray" stroke="black" stroke-width="0.002"/>'
        )
    parts.append(_polyline(trace.x_d, "blue"))
    parts.append(_polyline(trace.x_r_shadow, "gray", dash="0.006,0.004"))
    parts.append(_polyline(trace.x_f, "green"))
    parts.append(_polyline(trace.x_actual, "orange", dash="0.003,0.003"))
    parts.append("</g>")
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
