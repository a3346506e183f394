"""Barrier-based force filter for the admittance reference system.

Every position constraint is one quadratic barrier on the reference
position x1,

    h = sum w * (x1 - c)**2 - r**2,

with a diagonal weight w: the unit vector e_a for a workspace box side on
axis a (centre c = x_max or x_min), and (1, 1) for the obstacle clearance
ball (centre x_obs). A ConstraintSet holds these rows in one table, built
when the set is made, and evaluates all of them together.

Along the admittance dynamics x1dot = x2, x2dot = drift + g * u, with the
per-axis input gain g = 1/k_m, each barrier has relative degree two:

    Lf_h   = 2 sum w (x1 - c) x2
    h_ddot = p + q . u,  p = 2 sum w (x1 - c) drift + 2 sum w x2**2,
                         q = 2 w (x1 - c) * g

so enforcing h_ddot + K0 * h + K1 * Lf_h >= 0 for every row is a set of
linear rows A u <= b with A = -q and b = p + K0 * h + K1 * Lf_h. The gain
pair (K0, K1) is one per barrier kind (EcbfGains): K_max for the upper box
sides, K_min for the lower ones and K_obs for the obstacle. Each pair must
give s**2 + K1 s + K0 real roots (real_roots), the ECBF's precondition for
forward invariance (Nguyen & Sreenath, ACC 2016). The filter
projects the measured human force onto that polyhedron (minimal-deviation
QP) and returns the safe force plus the additive compensation.

The records are frozen, and their geometry arrays read-only. The row
table holds each row's floats, r**2 and its gain pair included, and is
built once, when the set is made. One loop
evaluates every row (_row_pass) for the filter and for evaluate, and one
its h alone (ConstraintSet._h) for barrier_values and a bypassed filter
step. The filter step's kernel, _filter_floats, takes and returns bare
floats: the row pass gives each row's values, QP row and bound, refuses a
non-finite entry and tests the human force against the row, and only
where the force lies outside a row does the closed-form projection
(qp._project_pair) run. It builds a QpProblem, and an array, only in the
slack fallback; filter_force is its validating wrapper, whose diagnostics
hold the rows the kernel evaluated.
"""

from dataclasses import dataclass, field
from math import isfinite
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .admittance import AdmittanceState
from .errors import InfeasibleQp, Pair, StartOutsideSafeSet, ValidationError, axis_pair, finite_fields, float_pair
# solve is re-exported: callers look it up as safety.solve.
from .qp import FEAS_TOL, QpProblem, _project_pair, solve, solve_with_slack

# Table-1 geometry: the workspace box half-width, the obstacle centre and
# the safe distance r.
DEFAULT_BOUNDS = 0.13
DEFAULT_OBSTACLE = (-0.07, 0.07)
DEFAULT_SAFE_DISTANCE = 0.04
# How far past a barrier's boundary the reference may start: the rounding
# of a start clipped onto the shrunk workspace box.
_START_TOL = 1e-9


def _read_only(obj, *names) -> None:
    """Make each pair field of ``obj`` named in ``names`` a read-only array."""
    for name in names:
        object.__setattr__(obj, name, np.array(getattr(obj, name)))
        getattr(obj, name).flags.writeable = False


@dataclass(frozen=True)
class WorkspaceConstraint:
    x_min: np.ndarray = (-DEFAULT_BOUNDS, -DEFAULT_BOUNDS)
    x_max: np.ndarray = (DEFAULT_BOUNDS, DEFAULT_BOUNDS)
    r: float = DEFAULT_SAFE_DISTANCE

    def __post_init__(self):
        finite_fields(self, numbers=("r",), pairs=("x_min", "x_max"))
        _read_only(self, "x_min", "x_max")
        if not self.r > 0.0:
            raise ValidationError("safe distance r must be positive")
        if not (self.x_min + self.r < self.x_max - self.r).all():
            raise ValidationError("workspace interior is empty (x_min + r >= x_max - r)")


@dataclass(frozen=True)
class ObstacleConstraint:
    x_obs: np.ndarray = DEFAULT_OBSTACLE
    r: float = DEFAULT_SAFE_DISTANCE

    def __post_init__(self):
        finite_fields(self, numbers=("r",), pairs=("x_obs",))
        _read_only(self, "x_obs")
        if not self.r > 0.0:
            raise ValidationError("safe distance r must be positive")


def real_roots(pair: Pair) -> bool:
    """Whether s**2 + K1 s + K0 has real roots for the gain pair (K0, K1):
    K1**2 >= 4 K0, a double root included."""
    k0, k1 = pair
    return k1 * k1 >= 4.0 * k0


@dataclass(frozen=True)
class EcbfGains:
    """Barrier condition coefficients, one (position, velocity) gain pair
    per barrier kind: the upper and the lower box sides, and the obstacle.
    Each pair serves every row of its kind, and each must be positive with
    real roots."""

    K_max: Pair = (500.0, 50.0)
    K_min: Pair = (500.0, 50.0)
    K_obs: Pair = (700.0, 70.0)

    def __post_init__(self):
        names = ("K_max", "K_min", "K_obs")
        finite_fields(self, pairs=names)
        if min(*self.K_max, *self.K_min, *self.K_obs) <= 0.0:
            raise ValidationError("barrier gains must be positive")
        for name in names:
            if not real_roots(getattr(self, name)):
                raise ValidationError(f"{name} = {getattr(self, name)} has complex roots: "
                                      "the ECBF needs K1**2 >= 4 K0")


class RowValues(NamedTuple):
    """Every barrier row at one reference state, in table order, each a
    tuple with one entry per row: h, its derivative Lf_h along the drift,
    the affine second derivative h_ddot(u) = p + q @ u with q a pair, and
    the row's gain pair K."""

    h: Tuple[float, ...]
    lf_h: Tuple[float, ...]
    p: Tuple[float, ...]
    q: Tuple[Pair, ...]
    K: Tuple[Pair, ...]


def assemble_qp(rows: RowValues, u_nom) -> QpProblem:
    """Stack barrier rows into the minimal-deviation QP min ||u - u_nom||^2
    over the force pair u_nom, with the bounds b = p + K0 h + K1 Lf_h."""
    ux, uy = u_nom
    return QpProblem.of_rows((ux, uy), tuple([(-q0, -q1) for q0, q1 in rows.q]),
                             tuple([pj + k0 * hj + k1 * lf for pj, (k0, k1), hj, lf
                                    in zip(rows.p, rows.K, rows.h, rows.lf_h)]))


@dataclass(frozen=True)
class ConstraintSet:
    """Enabled constraints plus their barrier gains and the slack policy.

    The row table is built once, here: per row a name (in ``names``) and
    the floats the kernels read (in ``_rows``): the diagonal weight w, the
    centre c, r and r**2, the gain pair K, and the side (+1 for an upper box
    wall, -1 for a lower one, 0 for the obstacle).

    With ``slack`` set, a step whose rows conflict takes the penalized
    projection instead of aborting (see filter_force).
    """

    workspace: Optional[WorkspaceConstraint] = None
    obstacle: Optional[ObstacleConstraint] = None
    gains: EcbfGains = field(default_factory=EcbfGains)
    slack: bool = False

    def __post_init__(self):
        rows = []
        ws, obs, gains = self.workspace, self.obstacle, self.gains
        if ws is not None:
            x_max, x_min = float_pair(ws.x_max, "x_max"), float_pair(ws.x_min, "x_min")
            for w, suffix in (((1.0, 0.0), "x"), ((0.0, 1.0), "y")):
                rows.append((f"ws_max_{suffix}", w, x_max, ws.r, gains.K_max, 1.0))
                rows.append((f"ws_min_{suffix}", w, x_min, ws.r, gains.K_min, -1.0))
        if obs is not None:
            rows.append(("obs", (1.0, 1.0), float_pair(obs.x_obs, "x_obs"), obs.r, gains.K_obs, 0.0))
        object.__setattr__(self, "names", tuple(row[0] for row in rows))
        # per row: w (2 floats), c (2 floats), r, r**2, K (2 floats), side
        object.__setattr__(self, "_rows", [(*w, *c, r, r * r, *K, side) for _, w, c, r, K, side in rows])

    def _h(self, x, y):
        """Every row's h, a list in table order, at the position (x, y)."""
        return [w0 * (x - c0) * (x - c0) + w1 * (y - c1) * (y - c1) - rr
                for w0, w1, c0, c1, _, rr, _, _, _ in self._rows]

    def _row_values(self, h, lf_h, p, A) -> RowValues:
        return RowValues(tuple(h), tuple(lf_h), tuple(p), tuple([(-a, -b) for a, b in A]),
                         tuple([(k0, k1) for *_, k0, k1, _ in self._rows]))

    def evaluate(self, adm: AdmittanceState, drift, g) -> RowValues:
        """Every row at ``adm`` under the force-free acceleration pair
        ``drift`` and the per-axis input gain ``g`` (a pair, or one gain
        for both axes), from the filter's row pass, which also computes
        each row's bound b and tests a zero force against it; neither is
        returned. A QP row or bound that is not finite raises ValidationError."""
        (x, y), (vx, vy) = adm.x1, adm.x2
        dx, dy = drift
        h, lf_h, p, A, _, _ = _row_pass(self, x, y, vx, vy, dx, dy, *axis_pair(g, "g"), 0.0, 0.0)
        return self._row_values(h, lf_h, p, A)

    def barrier_values(self, x1) -> Tuple[float, ...]:
        """Barrier values at a reference position pair, in row-table order."""
        x, y = x1
        return tuple(self._h(x, y))


@dataclass
class FilterDiagnostics:
    """One filter step: every barrier row's values at the state (the trace
    logs ``rows.h``), the QP's active set, and its status."""

    rows: RowValues
    active: Tuple[int, ...]
    status: str
    slack_max: float = 0.0


def check_start_inside(cset: ConstraintSet, adm: AdmittanceState) -> None:
    """Verify the reference starts in the intended safe-set component.

    For a box side the safe set h >= 0 has two components; only the one on
    the interior side of the shrunk boundary is intended, so the offset
    toward the wall must be at most -r. For the obstacle, h >= 0.
    """
    x, y = adm.x1
    for name, (w0, w1, c0, c1, r, _, _, _, side), h in zip(cset.names, cset._rows,
                                                           cset.barrier_values(adm.x1)):
        bad = side * (w0 * (x - c0) + w1 * (y - c1)) > -r + _START_TOL if side else h < -_START_TOL
        if bad:
            raise StartOutsideSafeSet(
                f"reference start {adm.x1} outside the safe set of barrier row "
                f"'{name}' (h = {h:.6g})"
            )


def _unit_rows(problem: QpProblem) -> QpProblem:
    """The same polyhedron with every nonzero row (a_j, b_j) divided by
    |a_j|, so that a row's slack is a force in newtons."""
    A = problem.A
    norms = np.linalg.norm(A, axis=1)
    norms[norms == 0.0] = 1.0
    return QpProblem.of_rows(problem.u_nom, tuple(map(tuple, (A / norms[:, None]).tolist())),
                             tuple((np.array(problem.b) / norms).tolist()))


def _row_pass(cset: ConstraintSet, x, y, vx, vy, dx, dy, gx, gy, fx, fy):
    """Every row's h, Lf_h, p, QP row A = -q (a pair) and bound b, five
    lists in table order, and whether the force (fx, fy) lies inside every
    row; a QP row or bound that is not finite raises ValidationError."""
    h, lf_h, p, A, b, inside = [], [], [], [], [], True
    vxx, vyy = vx * vx, vy * vy
    for w0, w1, c0, c1, _, rr, k0, k1, _ in cset._rows:
        o0, o1 = x - c0, y - c1
        wd0, wd1 = w0 * o0, w1 * o1
        hj = wd0 * o0 + wd1 * o1 - rr
        e0, e1 = 2.0 * wd0, 2.0 * wd1
        lfj = e0 * vx + e1 * vy
        pj = 2.0 * ((wd0 * dx + wd1 * dy) + (w0 * vxx + w1 * vyy))
        a0, a1 = -(e0 * gx), -(e1 * gy)
        bj = pj + k0 * hj + k1 * lfj
        if not (isfinite(bj) and isfinite(a0) and isfinite(a1)):
            raise ValidationError("QP entries must be finite")
        if a0 * fx + a1 * fy > bj + FEAS_TOL:
            inside = False
        h.append(hj)
        lf_h.append(lfj)
        p.append(pj)
        A.append((a0, a1))
        b.append(bj)
    return h, lf_h, p, A, b, inside


def _filter_floats(cset: ConstraintSet, bypass: Optional[str], x, y, vx, vy, dx, dy, gx, gy,
                   fx, fy):
    """filter_force on floats, at the state (x, y, vx, vy), drift (dx, dy),
    input gain (gx, gy) and force (fx, fy): returns f_e_hat and f_e_comp as
    four floats, the rows' h (a list in table order), the active set, the
    status, the largest slack and the rows' (Lf_h, p, A) lists, from which
    filter_force builds its RowValues. ``bypass`` is None to filter, or the
    status of a step that passes f_e on unfiltered (f_e_comp zero, no
    active row, only h evaluated and None for the rows). The projection
    runs only where f_e lies outside a row."""
    if bypass is not None:
        return fx, fy, 0.0, 0.0, cset._h(x, y), (), bypass, 0.0, None
    if not (isfinite(fx) and isfinite(fy)):
        raise ValidationError("QP entries must be finite")
    h, lf_h, p, A, b, inside = _row_pass(cset, x, y, vx, vy, dx, dy, gx, gy, fx, fy)
    try:
        (ux, uy), active = ((fx, fy), ()) if inside else _project_pair((fx, fy), A, b)
        status, slack_max = "ok", 0.0
    except InfeasibleQp:
        if not cset.slack:
            raise
        sol, slacks = solve_with_slack(_unit_rows(QpProblem.of_rows((fx, fy), tuple(A), tuple(b))))
        (ux, uy), active = sol.u, sol.active_set
        slack_max = float(slacks.max())
        status = "slack" if slack_max > 0.0 else "ok"
    return ux, uy, ux - fx, uy - fy, h, active, status, slack_max, (lf_h, p, A)


def filter_force(cset: ConstraintSet, adm: AdmittanceState, drift, g, f_e):
    """Project the human force onto the barrier polyhedron.

    Returns the pairs f_e_hat and f_e_comp = f_e_hat - f_e, and the
    FilterDiagnostics. With no enabled constraints, or when every row is
    already satisfied by f_e, the filter is the identity.

    The hard projection is always tried first. Only where the rows conflict
    (InfeasibleQp) does a slack set fall back to the penalized projection,
    on rows scaled to unit norm; that step's status is then "slack".
    """
    (x, y), (vx, vy) = adm.x1, adm.x2
    (dx, dy), (fx, fy) = drift, f_e
    gx, gy = axis_pair(g, "g")
    ux, uy, cx, cy, h, active, status, slack_max, rows = _filter_floats(
        cset, None, x, y, vx, vy, dx, dy, gx, gy, fx, fy)
    return (ux, uy), (cx, cy), FilterDiagnostics(cset._row_values(h, *rows), active, status,
                                                 slack_max)
