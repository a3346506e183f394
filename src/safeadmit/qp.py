"""Exact solver for small dense projection QPs.

Solves min ||u - u_nom||^2 subject to A u <= b by enumerating active
subsets in (size, lexicographic) order and returning the first KKT point.
The objective is strictly convex, so that point is the unique optimum, and
its active set is the lexicographically smallest one of minimal size.

For n <= 2 variables every subset has at most two rows and the point has a
closed form on Python floats: the foot of the perpendicular on one row, or
Cramer's rule on a 2x2 system, whose rank test compares its smallest
singular value |det| / sigma_max with RANK_TOL. For n > 2, one SVD per
subset, A_S = U diag(s) V^T, tests the rows' rank and gives the point and
its multipliers without forming the Gram matrix A_S A_S^T, which would
square the rows' conditioning. The penalized-slack variant is the same
projection on a lifted variable. Problems are sized for n <= 4 variables
and m <= 8 rows; larger ones are rejected.
"""

import math
from dataclasses import dataclass, field
from itertools import combinations
from operator import mul
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
    u_nom: np.ndarray
    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        # float arrays of the right shape are kept, not copied: the solver
        # never writes to them
        self.u_nom = np.asarray(self.u_nom, dtype=float).reshape(-1)
        n = self.u_nom.size
        self.A = np.asarray(self.A, dtype=float).reshape(-1, n)
        self.b = np.asarray(self.b, dtype=float).reshape(-1)
        if self.A.shape[0] != self.b.size:
            raise ValidationError("A and b row counts differ")
        if n < 1:
            raise ValidationError("need at least one decision variable")
        if not all_finite(*self.u_nom.tolist(), *self.A.ravel().tolist(), *self.b.tolist()):
            raise ValidationError("QP entries must be finite")


@dataclass
class QpSolution:
    u: np.ndarray
    active_set: Tuple[int, ...] = field(default_factory=tuple)
    objective: float = 0.0


def _check_size(problem: QpProblem) -> None:
    n, m = problem.u_nom.size, problem.A.shape[0]
    if n > MAX_VARS or m > MAX_ROWS:
        raise ValidationError(
            f"solver sized for n<={MAX_VARS}, m<={MAX_ROWS}; got n={n}, m={m}"
        )


def _project_small(u_nom, A, b):
    """_project for n <= 2 on float lists; returns (u as a list, S)."""
    def feasible(u):
        return all(sum(map(mul, a, u)) <= b_j + FEAS_TOL for a, b_j in zip(A, b))

    if feasible(u_nom):
        return list(u_nom), ()
    resid = [sum(map(mul, a, u_nom)) - b_j for a, b_j in zip(A, b)]
    for j, a in enumerate(A):
        if math.hypot(*a) <= RANK_TOL:
            continue
        lam = resid[j] / sum(map(mul, a, a))
        if lam < DUAL_TOL:
            continue
        u = [u_i - a_i * lam for u_i, a_i in zip(u_nom, a)]
        if feasible(u):
            return u, (j,)
    if len(u_nom) < 2:
        raise InfeasibleQp("no KKT point over any active subset; polyhedron is empty")
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
        u = [u_nom[0] - w0, u_nom[1] - w1]
        if feasible(u):
            return u, (i, j)
    raise InfeasibleQp("no KKT point over any active subset; polyhedron is empty")


def _project(u_nom: np.ndarray, A: np.ndarray, b: np.ndarray):
    """Return (u, S): the projection of u_nom onto {A u <= b} and the first
    active subset S, in (size, lexicographic) order, at which it is a KKT
    point. Raises InfeasibleQp when no subset gives one."""
    if u_nom.size <= 2:
        u, S = _project_small(u_nom.tolist(), A.tolist(), b.tolist())
        return np.array(u), S
    Au = A @ u_nom
    if (Au <= b + FEAS_TOL).all():
        return u_nom.copy(), ()
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
                return u, S
    raise InfeasibleQp("no KKT point over any active subset; polyhedron is empty")


def solve(problem: QpProblem) -> QpSolution:
    _check_size(problem)
    u, S = _project(problem.u_nom, problem.A, problem.b)
    du = u - problem.u_nom
    return QpSolution(u=u, active_set=S, objective=float(du @ du))


def solve_with_slack(problem: QpProblem, weight: float = 1e6):
    """Soft-constrained variant, always feasible: minimizes
    ||u - u_nom||^2 + weight * ||max(0, A u - b)||^2.

    This is the projection of (u_nom, 0) onto {[A, -I/sqrt(weight)] v <= b}
    for v = (u, sqrt(weight) * slack); its rows are independent, so it is
    never empty, and the active set is that lifted problem's.

    Returns (QpSolution, slacks) where slacks[j] = max(0, A_j u - b_j).
    """
    _check_size(problem)
    u_nom, A, b = problem.u_nom, problem.A, problem.b
    m = A.shape[0]
    lifted_A = np.hstack([A, -np.eye(m) / np.sqrt(weight)])
    v, S = _project(np.concatenate([u_nom, np.zeros(m)]), lifted_A, b)
    u = v[:u_nom.size]
    du = u - u_nom
    return (QpSolution(u=u, active_set=S, objective=float(du @ du)),
            np.maximum(A @ u - b, 0.0))
