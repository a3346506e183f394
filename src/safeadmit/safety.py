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
linear rows A u <= b with A = -q and b = p + K0 * h + K1 * Lf_h. The filter
projects the measured human force onto that polyhedron (minimal-deviation
QP) and returns the safe force plus the additive compensation.
"""

from dataclasses import dataclass, field
from typing import Dict, NamedTuple, Optional, Tuple

import numpy as np

from .admittance import AdmittanceState, _pair
from .errors import StartOutsideSafeSet, ValidationError, require_finite
from .qp import QpProblem, solve, solve_with_slack

# Table-1 geometry: the workspace box half-width, the obstacle centre and
# the safe distance r.
DEFAULT_BOUNDS = 0.13
DEFAULT_OBSTACLE = (-0.07, 0.07)
DEFAULT_SAFE_DISTANCE = 0.04


@dataclass
class WorkspaceConstraint:
    x_min: np.ndarray = (-DEFAULT_BOUNDS, -DEFAULT_BOUNDS)
    x_max: np.ndarray = (DEFAULT_BOUNDS, DEFAULT_BOUNDS)
    r: float = DEFAULT_SAFE_DISTANCE

    def __post_init__(self):
        self.x_min = _pair(self.x_min)
        self.x_max = _pair(self.x_max)
        self.r = float(self.r)
        require_finite(self)
        if not self.r > 0.0:
            raise ValidationError("safe distance r must be positive")
        if not (self.x_min + self.r < self.x_max - self.r).all():
            raise ValidationError("workspace interior is empty (x_min + r >= x_max - r)")


@dataclass
class ObstacleConstraint:
    x_obs: np.ndarray = DEFAULT_OBSTACLE
    r: float = DEFAULT_SAFE_DISTANCE

    def __post_init__(self):
        self.x_obs = _pair(self.x_obs)
        self.r = float(self.r)
        require_finite(self)
        if not self.r > 0.0:
            raise ValidationError("safe distance r must be positive")


def _gain_pairs(v) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.shape == (2,):
        arr = np.stack([arr, arr])
    return arr.reshape(2, 2).copy()


@dataclass
class EcbfGains:
    """Barrier condition coefficients [position-gain, velocity-gain].

    K_max / K_min carry one pair per axis (a single pair broadcasts to
    both axes); K_obs is one pair.
    """

    K_max: np.ndarray = (500.0, 50.0)
    K_min: np.ndarray = (500.0, 50.0)
    K_obs: np.ndarray = (700.0, 70.0)

    def __post_init__(self):
        self.K_max = _gain_pairs(self.K_max)
        self.K_min = _gain_pairs(self.K_min)
        self.K_obs = np.asarray(self.K_obs, dtype=float).reshape(2).copy()
        require_finite(self)
        if (self.K_max <= 0).any() or (self.K_min <= 0).any() or (self.K_obs <= 0).any():
            raise ValidationError("barrier gains must be positive")


class RowValues(NamedTuple):
    """Every barrier row at one reference state, in table order: h, its
    derivative Lf_h along the drift, the affine second derivative
    h_ddot(u) = p + q @ u, and the row's gain pair K."""

    h: np.ndarray
    lf_h: np.ndarray
    p: np.ndarray
    q: np.ndarray
    K: np.ndarray


def assemble_qp(rows: RowValues, u_nom) -> QpProblem:
    """Stack barrier rows into the minimal-deviation QP min ||u - u_nom||^2."""
    b = rows.p + rows.K[:, 0] * rows.h + rows.K[:, 1] * rows.lf_h
    return QpProblem(u_nom=_pair(u_nom), A=-rows.q, b=b)


@dataclass
class ConstraintSet:
    """Enabled constraints plus their barrier gains and the slack policy.

    The row table is built once, here: per row a name, the diagonal weight
    w, the centre c, r and r**2, the gain pair K, and the side (+1 for an
    upper box wall, -1 for a lower one, 0 for the obstacle).
    """

    workspace: Optional[WorkspaceConstraint] = None
    obstacle: Optional[ObstacleConstraint] = None
    gains: EcbfGains = field(default_factory=EcbfGains)
    slack: bool = False
    slack_weight: float = 1e6

    def __post_init__(self):
        rows = []
        ws, obs = self.workspace, self.obstacle
        if ws is not None:
            for axis, suffix in ((0, "x"), (1, "y")):
                e = np.eye(2)[axis]
                rows.append((f"ws_max_{suffix}", e, ws.x_max, ws.r, self.gains.K_max[axis], 1.0))
                rows.append((f"ws_min_{suffix}", e, ws.x_min, ws.r, self.gains.K_min[axis], -1.0))
        if obs is not None:
            rows.append(("obs", np.ones(2), obs.x_obs, obs.r, self.gains.K_obs, 0.0))
        names, w, c, r, K, side = zip(*rows) if rows else ((),) * 6
        self.names: Tuple[str, ...] = names
        self._w = np.array(w).reshape(-1, 2)
        self._c = np.array(c).reshape(-1, 2)
        self._r = np.array(r)
        self._r2 = self._r * self._r
        self._K = np.array(K).reshape(-1, 2)
        self._side = np.array(side)

    def _h(self, x1):
        """Weighted offsets w * (x1 - c) and the barrier values h."""
        off = x1 - self._c
        wd = self._w * off
        return wd, (wd * off).sum(axis=1) - self._r2

    def evaluate(self, adm: AdmittanceState, drift, g) -> RowValues:
        """Every row at ``adm`` under the force-free acceleration ``drift``
        and the per-axis input gain ``g``."""
        wd, h = self._h(adm.x1)
        return RowValues(h=h, lf_h=2.0 * wd @ adm.x2,
                         p=2.0 * (wd @ drift + self._w @ (adm.x2 * adm.x2)),
                         q=2.0 * wd * g, K=self._K)

    def barrier_values(self, x1) -> Dict[str, float]:
        """Barrier values at a reference position (diagnostics/logging)."""
        return dict(zip(self.names, self._h(_pair(x1))[1].tolist()))


@dataclass
class FilterDiagnostics:
    h: Dict[str, float]
    active: Tuple[int, ...]
    status: str
    slack_max: float = 0.0


def check_start_inside(cset: ConstraintSet, adm: AdmittanceState,
                       tol: float = 1e-9) -> None:
    """Verify the reference starts in the intended safe-set component.

    For a box side the safe set h >= 0 has two components; only the one on
    the interior side of the shrunk boundary is intended, so the offset
    toward the wall must be at most -r. For the obstacle, h >= 0.
    """
    wd, h = cset._h(adm.x1)
    toward_wall = cset._side * wd.sum(axis=1)
    bad = np.where(cset._side != 0.0, toward_wall > -cset._r + tol, h < -tol)
    if bad.any():
        i = int(np.argmax(bad))
        raise StartOutsideSafeSet(
            f"reference start {adm.x1} outside the safe set of barrier row "
            f"'{cset.names[i]}' (h = {h[i]:.6g})"
        )


def filter_force(cset: ConstraintSet, adm: AdmittanceState, drift, g, f_e):
    """Project the human force onto the barrier polyhedron.

    Returns (f_e_hat, f_e_comp, FilterDiagnostics) with
    f_e_comp = f_e_hat - f_e. With no enabled constraints, or when every
    row is already satisfied by f_e, the filter is the identity.
    """
    f_e = _pair(f_e)
    rows = cset.evaluate(adm, drift, g)
    h = dict(zip(cset.names, rows.h.tolist()))
    if not cset.names:
        return f_e.copy(), np.zeros(2), FilterDiagnostics(h=h, active=(), status="ok")
    problem = assemble_qp(rows, f_e)
    if cset.slack:
        sol, slacks = solve_with_slack(problem, cset.slack_weight)
        status = "slack" if slacks.max() > 0.0 else "ok"
        diag = FilterDiagnostics(h=h, active=sol.active_set, status=status,
                                 slack_max=float(slacks.max()))
    else:
        sol = solve(problem)
        diag = FilterDiagnostics(h=h, active=sol.active_set, status="ok")
    return sol.u, sol.u - f_e, diag
