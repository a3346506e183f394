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

The step's values are float pairs: evaluate takes the state, drift and
gain as pairs and returns RowValues of float tuples, assemble_qp hands the
negated q pairs to the QP as its rows and b as a float tuple, and
filter_force returns its forces as pairs. A filter step builds no array:
only the slack fallback reads the QP's rows as the array A.
"""

from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .admittance import AdmittanceState
from .errors import InfeasibleQp, Pair, StartOutsideSafeSet, ValidationError, axis_pair, finite_fields, float_pair
from .qp import QpProblem, solve, solve_with_slack

# Table-1 geometry: the workspace box half-width, the obstacle centre and
# the safe distance r.
DEFAULT_BOUNDS = 0.13
DEFAULT_OBSTACLE = (-0.07, 0.07)
DEFAULT_SAFE_DISTANCE = 0.04
# How far past a barrier's boundary the reference may start: the rounding
# of a start clipped onto the shrunk workspace box.
_START_TOL = 1e-9


@dataclass
class WorkspaceConstraint:
    x_min: np.ndarray = (-DEFAULT_BOUNDS, -DEFAULT_BOUNDS)
    x_max: np.ndarray = (DEFAULT_BOUNDS, DEFAULT_BOUNDS)
    r: float = DEFAULT_SAFE_DISTANCE

    def __post_init__(self):
        finite_fields(self, numbers=("r",), pairs=("x_min", "x_max"))
        self.x_min, self.x_max = np.array(self.x_min), np.array(self.x_max)
        if not self.r > 0.0:
            raise ValidationError("safe distance r must be positive")
        if not (self.x_min + self.r < self.x_max - self.r).all():
            raise ValidationError("workspace interior is empty (x_min + r >= x_max - r)")


@dataclass
class ObstacleConstraint:
    x_obs: np.ndarray = DEFAULT_OBSTACLE
    r: float = DEFAULT_SAFE_DISTANCE

    def __post_init__(self):
        finite_fields(self, numbers=("r",), pairs=("x_obs",))
        self.x_obs = np.array(self.x_obs)
        if not self.r > 0.0:
            raise ValidationError("safe distance r must be positive")


def real_roots(pair: Pair) -> bool:
    """Whether s**2 + K1 s + K0 has real roots for the gain pair (K0, K1):
    K1**2 >= 4 K0, a double root included."""
    k0, k1 = pair
    return k1 * k1 >= 4.0 * k0


@dataclass
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
    over the force pair u_nom."""
    ux, uy = u_nom
    b = tuple([p + k0 * h + k1 * lf for p, (k0, k1), h, lf in zip(rows.p, rows.K, rows.h, rows.lf_h)])
    return QpProblem.of_rows((ux, uy), tuple([(-q0, -q1) for q0, q1 in rows.q]), b)


@dataclass
class ConstraintSet:
    """Enabled constraints plus their barrier gains and the slack policy.

    The row table is built once, here: per row a name, the diagonal weight
    w, the centre c, r, the gain pair K, and the side (+1 for an upper box
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
        self.names: Tuple[str, ...] = tuple(row[0] for row in rows)
        # per row: w (2 floats), c (2 floats), r, side
        self._rows = [(*w, *c, r, side) for _, w, c, r, _, side in rows]
        self._K = tuple(K for _, _, _, _, K, _ in rows)

    def _h(self, x1):
        """Per row: the weighted offsets w * (x1 - c) and the barrier value h.
        evaluate computes the same three in its own loop, in the same
        operations (test_barrier_values_match_evaluate holds them equal)."""
        x, y = x1
        out = []
        for w0, w1, c0, c1, r, _ in self._rows:
            o0, o1 = x - c0, y - c1
            wd0, wd1 = w0 * o0, w1 * o1
            out.append((wd0, wd1, wd0 * o0 + wd1 * o1 - r * r))
        return out

    def evaluate(self, adm: AdmittanceState, drift, g) -> RowValues:
        """Every row at ``adm`` under the force-free acceleration pair
        ``drift`` and the per-axis input gain ``g`` (a pair, or one gain
        for both axes)."""
        x, y = adm.x1
        vx, vy = adm.x2
        dx, dy = drift
        gx, gy = axis_pair(g, "g")
        h, lf_h, p, q = [], [], [], []
        for w0, w1, c0, c1, r, _ in self._rows:
            o0, o1 = x - c0, y - c1
            wd0, wd1 = w0 * o0, w1 * o1
            h.append(wd0 * o0 + wd1 * o1 - r * r)
            lf_h.append(2.0 * wd0 * vx + 2.0 * wd1 * vy)
            p.append(2.0 * ((wd0 * dx + wd1 * dy) + (w0 * (vx * vx) + w1 * (vy * vy))))
            q.append((2.0 * wd0 * gx, 2.0 * wd1 * gy))
        return RowValues(h=tuple(h), lf_h=tuple(lf_h), p=tuple(p), q=tuple(q), K=self._K)

    def barrier_values(self, x1) -> Tuple[float, ...]:
        """Barrier values at a reference position pair, in row-table order
        (the trace's h row on a step without the filter)."""
        return tuple(hj for _, _, hj in self._h(x1))


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
    for name, (*_, r, side), (wd0, wd1, h) in zip(cset.names, cset._rows, cset._h(adm.x1)):
        bad = side * (wd0 + wd1) > -r + _START_TOL if side else h < -_START_TOL
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


def filter_force(cset: ConstraintSet, adm: AdmittanceState, drift, g, f_e):
    """Project the human force onto the barrier polyhedron.

    Returns the pairs f_e_hat and f_e_comp = f_e_hat - f_e, and the
    FilterDiagnostics. With no enabled constraints, or when every row is
    already satisfied by f_e, the filter is the identity.

    The hard projection is always tried first. Only where the rows conflict
    (InfeasibleQp) does a slack set fall back to the penalized projection,
    on rows scaled to unit norm; that step's status is then "slack".
    """
    fx, fy = f_e
    rows = cset.evaluate(adm, drift, g)
    problem = assemble_qp(rows, f_e)
    try:
        sol = solve(problem)
        diag = FilterDiagnostics(rows, active=sol.active_set, status="ok")
    except InfeasibleQp:
        if not cset.slack:
            raise
        sol, slacks = solve_with_slack(_unit_rows(problem))
        slack_max = float(slacks.max())
        diag = FilterDiagnostics(rows, active=sol.active_set,
                                 status="slack" if slack_max > 0.0 else "ok",
                                 slack_max=slack_max)
    ux, uy = sol.u
    return (ux, uy), (ux - fx, uy - fy), diag
