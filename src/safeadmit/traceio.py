"""Trace serialization (CSV), run reports, and SVG trajectory plots, each
over whole columns of a Trace.

CSV schema: one header row, then per step its row of the Trace's matrix (t,
``<prefix>_x`` and ``<prefix>_y`` per group of sim.COLUMNS, h_* per barrier
row), qp_active and qp_status. Floats are rendered with 17 significant
digits so a reread trace is bit-identical to the in-memory one. The
active-set column joins row indices with ';' and is '-' when empty. The h_*
columns depend on which constraints were enabled and are taken from the
header on reread. Lines end in "\n", the one line break read_csv splits at.
read_csv refuses a malformed file with a ValidationError that names the
path and the 1-based line.

Both convert the rows in slices of at most _SLICE rows (_in_slices), in
row order, so the text they hold is one slice's: only the trace's columns
and read_csv's line ends (8 bytes a row) grow with its length. A trace of
more than _SPLIT rows has its slices shared with a forked child where a
second CPU is free; the bytes, the columns and the errors are the same.
"""

import math
import os
import stat
import sys
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import ValidationError
from .forks import alternate_blocks
from .safety import DEFAULT_SAFE_DISTANCE, ObstacleConstraint, WorkspaceConstraint
from .sim import COLUMNS, QP_STATUSES, Trace

_LEADING = ["t"] + [f"{prefix}_{axis}" for _, prefix in COLUMNS for axis in "xy"]
_TRAILING = ["qp_active", "qp_status"]
_SLICE = 1024  # most rows converted at a time, which bounds the text held in memory
_SPLIT = 4096  # most rows a trace may have for its I/O to stay in one process
_CHUNK = 1 << 20  # bytes read_csv reads at a time while it finds the line ends
# The report's tracking error skips the first second, while the tracker
# converges from its start.
_TRANSIENT_S = 1.0
# The plot draws every tenth sample of a trajectory, which keeps the SVG small.
_PLOT_STRIDE = 10


def csv_header(trace: Trace) -> List[str]:
    return _LEADING + [f"h_{name}" for name in trace.h_names] + _TRAILING


def _in_slices(rows: int, convert, take) -> None:
    """Call ``take(start, stop, convert(start, stop))`` for each slice of
    rows [start, stop) of ``rows`` rows in order: near-equal slices of at
    most _SLICE rows, which alternate_blocks shares with a forked child,
    an even number of them, where there are more than _SPLIT rows."""
    count = -(-rows // _SLICE)
    count += rows > _SPLIT and count % 2
    bounds = [rows * i // count for i in range(count + 1)]
    work, hand = lambda i: convert(*bounds[i:i + 2]), lambda i, block: take(*bounds[i:i + 2], block)
    if rows > _SPLIT:
        alternate_blocks(count, work, hand)
    else:
        for i in range(count):
            hand(i, work(i))


def _non_finite(matrix: np.ndarray) -> Optional[Tuple[int, int]]:
    """(row, column) of the first NaN or infinity of ``matrix`` in row
    order, or None. A run aborts before its state stops being finite, so a
    trace never holds one."""
    return next(map(tuple, np.argwhere(~np.isfinite(matrix)).tolist()), None)


def emit_csv(trace: Trace, path) -> None:
    """Write the trace: each row is one '%.17g' template over a row of its
    matrix, plus the active-set and status fields, formatted slice by slice,
    as the module docstring says, and written in order. A NaN or an
    infinity is refused before the file is opened."""
    if not len(trace):
        raise ValidationError("cannot emit an empty trace")
    header = csv_header(trace)
    bad = _non_finite(trace.matrix)
    if bad:
        raise ValidationError(f"cannot emit step {bad[0]}: its {header[bad[1]]} is not finite")
    template = ",".join(["%.17g"] * (len(header) - 2) + ["%s", "%s"])
    fields = {a: ";".join(map(str, a)) or "-" for a in set(trace.qp_active)}

    def text(start: int, stop: int) -> str:
        rows = trace.matrix[start:stop].tolist()
        for row, active, status in zip(rows, trace.qp_active[start:stop],
                                       trace.qp_status[start:stop]):
            row += (fields[active], status)
        return "\n".join([template % tuple(row) for row in rows]) + "\n"

    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        _in_slices(len(trace), text, lambda start, stop, block: fh.write(block))


def _bad(path, line: int, what: str) -> ValidationError:
    return ValidationError(f"{path}:{line}: {what}")


def _h_names(path, header: List[str]) -> List[str]:
    """The barrier names of a header, which must be the leading columns,
    any h_* columns, then the trailing two."""
    expected = _LEADING + [c for c in header if c.startswith("h_")] + _TRAILING
    for column in expected:
        if header.count(column) != 1:
            raise _bad(path, 1, f"{'repeated' if column in header else 'missing'} column '{column}'")
    if header != expected:
        raise _bad(path, 1, f"columns are not in the order {','.join(expected)}")
    return [c[2:] for c in header if c.startswith("h_")]


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _parse_active(path, line: int, text: str, rows: int) -> Tuple[int, ...]:
    """The active set whose field emit_csv writes as ``text``: its indices,
    strictly increasing and below ``rows``, joined by ';', or '-' for none."""
    try:
        indices = tuple(map(int, text.split(";")))
    except ValueError:
        indices = ()
    named = [i for i in range(rows) if i in indices]
    if (";".join(map(str, named)) or "-") != text:
        raise _bad(path, line, f"active set {text!r} is not increasing indices below {rows}")
    return indices


def _line_ends(fd: int) -> np.ndarray:
    """The end of each line of the regular file ``fd``, read _CHUNK bytes at
    a time: the offset of each "\n", then the size if it ends in no "\n"."""
    ends, size, last = [np.empty(0, np.intp)], 0, b"\n"
    while chunk := os.pread(fd, _CHUNK, size):
        ends.append(np.flatnonzero(np.frombuffer(chunk, np.uint8) == 10) + size)
        size, last = size + len(chunk), chunk[-1:]
    if last != b"\n":  # a last line with no "\n" after it
        ends.append(np.array([size]))
    return np.concatenate(ends)


def _text(path, first: int, data: bytes) -> str:
    """``data``, the bytes of lines from line ``first`` on, decoded."""
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        raise _bad(path, first + data.count(b"\n", 0, exc.start), "not UTF-8 text") from exc


def _parse_rows(path, first: int, data: bytes, width: int):
    """The (rows, width) floats and the interned active-set and status fields
    of the rows whose bytes are ``data``, the first on line ``first``, each
    of which must hold width + 2 fields."""
    rows = _text(path, first, data).split("\n")
    if set(map(str.count, rows, repeat(","))) - {width + 1}:
        k = next(k for k, line in enumerate(rows) if line.count(",") != width + 1)
        raise _bad(path, first + k, f"{rows[k].count(',') + 1} fields, the header has {width + 2}")
    text = ",".join(rows)
    del rows  # so the rows' text and the fields are not held at once
    fields = text.split(",")
    status = list(map(sys.intern, fields[width + 1::width + 2]))
    del fields[width + 1::width + 2]
    active = list(map(sys.intern, fields[width::width + 1]))
    del fields[width::width + 1]
    try:
        values = np.fromiter(map(float, fields), float, len(fields))
    except ValueError:
        j = next(j for j, text in enumerate(fields) if not _is_float(text))
        raise _bad(path, first + j // width, f"{fields[j]!r} is not a number") from None
    return values.reshape(-1, width), active, status


def read_csv(path) -> Trace:
    """Read a trace written by emit_csv. A wrong field count, a missing,
    misplaced or repeated column, a header that ends in "\r\n", a number
    that does not parse or is not finite, an active set or qp_status that
    emit_csv does not write, or bytes that are not UTF-8 raise
    ValidationError naming the path and the 1-based line; a file with no
    data row, or no regular file (a pipe), raises one naming the path. One
    pass finds the line ends; then each slice of rows is read by offset and
    has its UTF-8, field counts and numbers checked, so the first failing
    slice wins. The other checks follow the last slice, in file order."""
    with open(path, "rb", buffering=0) as fh:
        fd = fh.fileno()
        if not stat.S_ISREG(os.fstat(fd).st_mode):
            raise ValidationError(f"{path} is not a regular file")
        ends = _line_ends(fd)
        header = _text(path, 1, os.pread(fd, ends[0], 0)) if len(ends) else ""
        if len(ends) < 2:
            raise ValidationError(f"{path} is empty")
        if header.endswith("\r"):
            raise _bad(path, 1, 'the line ends in "\\r\\n", and emit_csv ends lines in "\\n"')
        header = header.split(",")
        h_names = _h_names(path, header)
        width = len(header) - 2  # the float fields of a row
        matrix = np.empty((len(ends) - 1, width))
        active, status = [], []

        def parse(start: int, stop: int):
            offset = ends[start] + 1
            return _parse_rows(path, start + 2, os.pread(fd, ends[stop] - offset, offset), width)

        def keep(start: int, stop: int, block) -> None:
            values, block_active, block_status = block
            matrix[start:stop] = values
            active.extend(block_active)
            status.extend(block_status)

        _in_slices(len(matrix), parse, keep)
    bad = _non_finite(matrix)
    if bad:
        raise _bad(path, bad[0] + 2, f"{header[bad[1]]} is not finite")
    for text in dict.fromkeys(status):
        if text not in QP_STATUSES:
            raise _bad(path, status.index(text) + 2, f"unknown qp_status {text!r}")
    sets = {text: _parse_active(path, active.index(text) + 2, text, len(h_names))
            for text in dict.fromkeys(active)}
    return Trace(matrix, h_names, map(sets.__getitem__, active), status)


@dataclass
class RunReport:
    scenario: str
    min_h: Dict[str, float]
    max_tracking_error: float
    max_abs_xf: Tuple[float, float]
    min_obstacle_distance: Optional[float]
    max_active_rows: int
    slack_steps: int
    active_steps: Dict[str, int]
    runtime_s: Optional[float] = None

    def format(self) -> str:
        out = [f"scenario: {self.scenario}"]
        for name, h in self.min_h.items():
            out.append(f"min h[{name}]: {h:.6g}")
        for name, steps in self.active_steps.items():
            out.append(f"active steps[{name}]: {steps}")
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
    rebuilt from CSV matches the one printed at run time field for field).
    A barrier row's active steps are the steps whose active set holds it."""
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
    sets = Counter(trace.qp_active)
    return RunReport(
        scenario=scenario,
        min_h=min_h,
        max_tracking_error=err,
        max_abs_xf=max_abs_xf,
        min_obstacle_distance=min_obs,
        max_active_rows=max(map(len, trace.qp_active)),
        slack_steps=trace.qp_status.count("slack"),
        active_steps={name: sum(n for rows, n in sets.items() if j in rows)
                      for j, name in enumerate(trace.h_names)},
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
