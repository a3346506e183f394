"""Exact solver for small dense projection QPs.

Solves min ||u - u_nom||^2 subject to A u <= b by enumerating active
subsets in (size, lexicographic) order and returning the first KKT point.
The objective is strictly convex, so that point is the unique optimum, and
its active set is the lexicographically smallest one of minimal size.

For n <= 2 variables every subset has at most two rows and the point has a
closed form on Python floats: the foot of the perpendicular on one row, or
Cramer's rule on a 2x2 system, whose rank test compares its smallest
singular value |det| / sigma_max with RANK_TOL; n = 1 is solved as n = 2
with a zero second column. For n > 2, one SVD per
subset, A_S = U diag(s) V^T, tests the rows' rank and gives the point and
its multipliers without forming the Gram matrix A_S A_S^T, which would
square the rows' conditioning. The penalized-slack variant is the same
projection on a lifted variable. Problems are sized for n <= 4 variables
and m <= 8 rows; larger ones are rejected.

A problem's u_nom and b are tuples of floats and its A a 2-D float array;
a solution's u is a tuple of floats.
"""

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Tuple

import numpy as np

from .errors import InfeasibleQp, ValidationError, all_finite

FEAS_TOL = 1e-9
DUAL_TOL = -1e-10
RANK_TOL = 1e-12

MAX_VARS = 4
MAX_ROWS = 8


@dataclass
class QpProblem:
    u_nom: Tuple[float, ...]
    A: np.ndarray
    b: Tuple[float, ...]

    def __post_init__(self):
        self.u_nom = tuple(map(float, self.u_nom))
        n = len(self.u_nom)
        # a float array of the right shape is kept, not copied: the solver
        # never writes to it
        self.A = np.asarray(self.A, dtype=float).reshape(-1, n)
        self.b = tuple(map(float, self.b))
        if self.A.shape[0] != len(self.b):
            raise ValidationError("A and b row counts differ")
        if n < 1:
            raise ValidationError("need at least one decision variable")
        if not all_finite(*self.u_nom, *self.A.ravel().tolist(), *self.b):
            raise ValidationError("QP entries must be finite")


@dataclass
class QpSolution:
    u: Tuple[float, ...]
    active_set: Tuple[int, ...] = field(default_factory=tuple)
    objective: float = 0.0


def _check_size(problem: QpProblem) -> None:
    n, m = len(problem.u_nom), problem.A.shape[0]
    if n > MAX_VARS or m > MAX_ROWS:
        raise ValidationError(
            f"solver sized for n<={MAX_VARS}, m<={MAX_ROWS}; got n={n}, m={m}"
        )


def _project_pair(u_nom, A, b):
    """_project for n = 2 on floats: u_nom a pair, A a list of row pairs;
    returns (u, S) with u a pair."""
    bound = [b_j + FEAS_TOL for b_j in b]

    def feasible(u0, u1):
        for (a0, a1), c in zip(A, bound):
            if a0 * u0 + a1 * u1 > c:
                return False
        return True

    u0, u1 = u_nom
    if feasible(u0, u1):
        return u_nom, ()
    resid = [a0 * u0 + a1 * u1 - b_j for (a0, a1), b_j in zip(A, b)]
    for j, (a0, a1) in enumerate(A):
        if math.hypot(a0, a1) <= RANK_TOL:
            continue
        lam = resid[j] / (a0 * a0 + a1 * a1)
        if lam < DUAL_TOL:
            continue
        v0, v1 = u0 - a0 * lam, u1 - a1 * lam
        if feasible(v0, v1):
            return (v0, v1), (j,)
    for i, j in combinations(range(len(A)), 2):
        (a, b_), (c, d) = A[i], A[j]
        sigma_max = 0.5 * (math.hypot(a + d, b_ - c) + math.hypot(a - d, b_ + c))
        det = a * d - b_ * c
        if sigma_max == 0.0 or abs(det) / sigma_max <= RANK_TOL:
            continue
        # A_S u = b_S: u = u_nom - w with A_S w = resid_S, and the
        # multipliers solve A_S^T lam = w; both by Cramer's rule
        r_i, r_j = resid[i], resid[j]
        w0, w1 = (d * r_i - b_ * r_j) / det, (a * r_j - c * r_i) / det
        if (d * w0 - c * w1) / det < DUAL_TOL or (a * w1 - b_ * w0) / det < DUAL_TOL:
            continue
        v0, v1 = u0 - w0, u1 - w1
        if feasible(v0, v1):
            return (v0, v1), (i, j)
    raise InfeasibleQp("no KKT point over any active subset; polyhedron is empty")


def _project(u_nom: Tuple[float, ...], A: np.ndarray, b: Tuple[float, ...]):
    """Return (u, S): the projection of u_nom onto {A u <= b}, a tuple of
    floats, and the first active subset S, in (size, lexicographic) order,
    at which it is a KKT point. Raises InfeasibleQp when no subset gives
    one."""
    if len(u_nom) == 2:
        return _project_pair(u_nom, A.tolist(), b)
    if len(u_nom) == 1:
        # the same problem with a zero second column: each point keeps
        # u[1] = 0, every pair of rows has rank one, and the sums gain only
        # exact zero terms
        u, S = _project_pair((u_nom[0], 0.0), [(a, 0.0) for (a,) in A.tolist()], b)
        return u[:1], S
    u_nom, b = np.array(u_nom), np.array(b)
    Au = A @ u_nom
    if (Au <= b + FEAS_TOL).all():
        return tuple(u_nom.tolist()), ()
    resid = Au - b
    for k in range(1, u_nom.size + 1):
        for S in combinations(range(A.shape[0]), k):
            rows = list(S)
            U, s, Vt = np.linalg.svd(A[rows], full_matrices=False)
            if s[-1] <= RANK_TOL:
                continue
            # u = u_nom - A_S^T lam with A_S u = b_S: lam = U (y / s)
            y = U.T @ resid[rows] / s
            if (U @ (y / s) < DUAL_TOL).any():
                continue
            u = u_nom - Vt.T @ y
            if (A @ u <= b + FEAS_TOL).all():
                return tuple(u.tolist()), S
    raise InfeasibleQp("no KKT point over any active subset; polyhedron is empty")


def _objective(u, u_nom) -> float:
    """||u - u_nom||^2."""
    return sum((a - b) ** 2 for a, b in zip(u, u_nom))


def solve(problem: QpProblem) -> QpSolution:
    _check_size(problem)
    u, S = _project(problem.u_nom, problem.A, problem.b)
    return QpSolution(u=u, active_set=S, objective=_objective(u, problem.u_nom))


def solve_with_slack(problem: QpProblem, weight: float = 1e6):
    """Soft-constrained variant, always feasible: minimizes
    ||u - u_nom||^2 + weight * ||max(0, A u - b)||^2.

    This is the projection of (u_nom, 0) onto {[A, -I/sqrt(weight)] v <= b}
    for v = (u, sqrt(weight) * slack); its rows are independent, so it is
    never empty, and the active set is that lifted problem's.

    Returns (QpSolution, slacks) where slacks is the array of
    max(0, A_j u - b_j).
    """
    _check_size(problem)
    u_nom, A, b = problem.u_nom, problem.A, problem.b
    m = A.shape[0]
    lifted_A = np.hstack([A, -np.eye(m) / np.sqrt(weight)])
    v, S = _project(u_nom + (0.0,) * m, lifted_A, b)
    u = v[:len(u_nom)]
    return (QpSolution(u=u, active_set=S, objective=_objective(u, u_nom)),
            np.maximum(A @ np.array(u) - np.array(b), 0.0))
