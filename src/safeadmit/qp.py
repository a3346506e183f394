"""Exact solver for small dense projection QPs.

Solves min ||u - u_nom||^2 subject to A u <= b by enumerating active
subsets in (size, lexicographic) order and returning the first KKT point.
The objective is strictly convex, so that point is the unique optimum, and
its active set is the lexicographically smallest one of minimal size.

For n = 2 variables (the filter's force) every subset has at most two rows
and the point has a closed form on Python floats: the foot of the
perpendicular on one row, or Cramer's rule on a 2x2 system, whose rank test
compares its smallest singular value |det| / sigma_max with RANK_TOL. For
any other n, one SVD per subset, A_S = U diag(s) V^T, tests the rows' rank
and gives the point and its multipliers without forming the Gram matrix
A_S A_S^T, which would square the rows' conditioning. The penalized-slack
variant is the same projection on a lifted variable. Problems are sized
for n <= 4 variables and m <= 8 rows; larger ones are rejected.

A problem holds u_nom, b and the rows of A as tuples of floats; its A is
the (m, n) float array of those rows, built on each read. The public
constructor takes A, checks it, refusing text, and keeps its rows;
QpProblem.of_rows takes the float tuples a caller has just computed and
runs only the finiteness check. solve reads the rows for n = 2 and builds
A once for any other n. A solution's u is a tuple of floats.
"""

import math
from dataclasses import dataclass, field
from itertools import combinations
from math import isfinite
from typing import Tuple

import numpy as np

from .errors import InfeasibleQp, ValidationError, all_finite, holds_text

FEAS_TOL = 1e-9
DUAL_TOL = -1e-10
RANK_TOL = 1e-12

MAX_VARS = 4
MAX_ROWS = 8


def _check_finite(u_nom, rows, b) -> None:
    """Refuse a float of u_nom, b or the rows that is not finite."""
    for row in (u_nom, b, *rows):
        for v in row:
            if not isfinite(v):
                raise ValidationError("QP entries must be finite")


class QpProblem:
    """min ||u - u_nom||^2 subject to A u <= b. The constructor coerces and
    checks its inputs; of_rows takes float rows as they are (module
    docstring)."""

    def __init__(self, u_nom, A, b):
        try:
            if holds_text((u_nom, A, b)):
                raise TypeError
            self.u_nom = tuple(map(float, u_nom))
            self.b = tuple(map(float, b))
            A = np.asarray(A, dtype=float)
        except (TypeError, ValueError):
            raise ValidationError("QP entries must be numbers") from None
        n, m = len(self.u_nom), len(self.b)
        if n < 1:
            raise ValidationError("need at least one decision variable")
        if A.size == 0 and m == 0:
            A = A.reshape(0, n)
        if A.shape != (m, n):
            raise ValidationError(f"A must be len(b) x len(u_nom) = {m} x {n}, "
                                  f"got shape {A.shape}")
        self.rows = tuple(map(tuple, A.tolist()))
        if not all_finite(*self.u_nom, *A.ravel().tolist(), *self.b):
            raise ValidationError("QP entries must be finite")

    @classmethod
    def of_rows(cls, u_nom: Tuple[float, ...], rows, b: Tuple[float, ...]) -> "QpProblem":
        """The problem of float tuples taken as they are: u_nom, the rows of
        A (one tuple of n floats each) and b, as many as rows. Only the
        constructor's finiteness check runs."""
        _check_finite(u_nom, rows, b)
        problem = object.__new__(cls)
        problem.u_nom, problem.rows, problem.b = u_nom, rows, b
        return problem

    @property
    def A(self) -> np.ndarray:
        """The (m, n) float array of the rows, built on each read."""
        return np.array(self.rows, dtype=float).reshape(-1, len(self.u_nom))


@dataclass
class QpSolution:
    u: Tuple[float, ...]
    active_set: Tuple[int, ...] = field(default_factory=tuple)


def _check_size(problem: QpProblem) -> None:
    n, m = len(problem.u_nom), len(problem.b)
    if n > MAX_VARS or m > MAX_ROWS:
        raise ValidationError(
            f"solver sized for n<={MAX_VARS}, m<={MAX_ROWS}; got n={n}, m={m}"
        )


def _within(A, b, u0: float, u1: float) -> bool:
    """Whether the pair (u0, u1) satisfies every row of A u <= b to FEAS_TOL."""
    for (a0, a1), b_j in zip(A, b):
        if a0 * u0 + a1 * u1 > b_j + FEAS_TOL:
            return False
    return True


def _project_pair(u_nom, A, b):
    """_project for n = 2 on floats, where u_nom, a pair, is not _within the
    rows: A is a list of row pairs; returns (u, S) with u a pair."""
    u0, u1 = u_nom
    resid = [a0 * u0 + a1 * u1 - b_j for (a0, a1), b_j in zip(A, b)]
    for j, (a0, a1) in enumerate(A):
        if math.hypot(a0, a1) <= RANK_TOL:
            continue
        lam = resid[j] / (a0 * a0 + a1 * a1)
        if lam < DUAL_TOL:
            continue
        v0, v1 = u0 - a0 * lam, u1 - a1 * lam
        if _within(A, b, v0, v1):
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
        if _within(A, b, v0, v1):
            return (v0, v1), (i, j)
    raise InfeasibleQp("no KKT point over any active subset; polyhedron is empty")


def _project(problem: QpProblem):
    """Return (u, S): the projection of u_nom onto {A u <= b}, a tuple of
    floats, and the first active subset S, in (size, lexicographic) order,
    at which it is a KKT point. Raises InfeasibleQp when no subset gives
    one."""
    u_nom, b = problem.u_nom, problem.b
    if len(u_nom) == 2:
        if _within(problem.rows, b, *u_nom):
            return u_nom, ()
        return _project_pair(u_nom, problem.rows, b)
    A = problem.A
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


def solve(problem: QpProblem) -> QpSolution:
    _check_size(problem)
    u, S = _project(problem)
    return QpSolution(u=u, active_set=S)


def solve_with_slack(problem: QpProblem, weight: float = 1e6):
    """Soft-constrained variant, always feasible: minimizes
    ||u - u_nom||^2 + weight * ||max(0, A u - b)||^2.

    This is the projection of (u_nom, 0) onto {[A, -I/sqrt(weight)] v <= b}
    for v = (u, sqrt(weight) * slack); its rows are independent, so it is
    never empty, and the active set is that lifted problem's.

    ``weight`` must be a finite positive number; anything else raises
    ValidationError naming it. Returns (QpSolution, slacks) where slacks is
    the array of max(0, A_j u - b_j).
    """
    try:
        valid = isfinite(weight) and weight > 0.0
    except TypeError:  # not a real number
        valid = False
    if not valid:
        raise ValidationError(f"weight must be a finite positive number, got {weight!r}")
    _check_size(problem)
    u_nom, A, b = problem.u_nom, problem.A, problem.b
    m = A.shape[0]
    lifted_rows = tuple(map(tuple, np.hstack([A, -np.eye(m) / np.sqrt(weight)]).tolist()))
    v, S = _project(QpProblem.of_rows(u_nom + (0.0,) * m, lifted_rows, b))
    u = v[:len(u_nom)]
    return (QpSolution(u=u, active_set=S),
            np.maximum(A @ np.array(u) - np.array(b), 0.0))
