"""Brute-force reference solver for the projection QP, used as the
independent oracle in the tests.

Unlike the production solver it knows nothing about KKT multipliers: it
projects u_nom onto the affine hull of every subset of constraint rows
(all sizes, via pseudo-inverse), keeps the feasible candidates, and takes
the one closest to u_nom. The projection onto a polyhedron always lies on
such a face, so the minimum over faces is the exact answer.

The penalized-slack oracle is built the same way from the violation
patterns instead of the faces.
"""

from itertools import combinations

import numpy as np

FEAS_TOL = 1e-9


def project_oracle(u_nom, A, b):
    """Return the projection of u_nom onto {u : A u <= b}, or None if the
    enumeration finds no feasible face point (empty polyhedron)."""
    u_nom = np.asarray(u_nom, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m = A.shape[0]
    best = None
    best_d = np.inf
    for k in range(m + 1):
        for S in combinations(range(m), k):
            if k == 0:
                u = u_nom.copy()
            else:
                A_S = A[list(S)]
                resid = A_S @ u_nom - b[list(S)]
                u = u_nom - np.linalg.pinv(A_S) @ resid
                if np.abs(A_S @ u - b[list(S)]).max() > 1e-8:
                    continue  # inconsistent equality subset
            if (A @ u <= b + FEAS_TOL).all():
                d = float(np.linalg.norm(u - u_nom))
                if d < best_d - 1e-15:
                    best, best_d = u, d
    return best


def slack_oracle(u_nom, A, b, w):
    """Return the minimizer of ||u - u_nom||^2 + w * ||max(0, A u - b)||^2.

    The minimizer u* is the stationary point of the quadratic that
    penalizes exactly its violated rows V, so it solves the normal equations
    (I + w A_V^T A_V) u = u_nom + w A_V^T b_V for that V. Solving them for
    every pattern V and keeping the candidate with the smallest true
    objective finds it without any tolerance or multiplier."""
    u_nom = np.asarray(u_nom, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape
    best = None
    best_f = np.inf
    for k in range(m + 1):
        for V in combinations(range(m), k):
            A_V, b_V = A[list(V)], b[list(V)]
            u = np.linalg.solve(np.eye(n) + w * A_V.T @ A_V, u_nom + w * A_V.T @ b_V)
            du = u - u_nom
            f = du @ du + w * np.sum(np.maximum(A @ u - b, 0.0) ** 2)
            if f < best_f:
                best, best_f = u, f
    return best


def feasible_by_sampling(A, b, rng, n_samples=20000, radius=10.0):
    """Randomized feasibility probe used to cross-check 'infeasible'."""
    n = A.shape[1]
    pts = rng.uniform(-radius, radius, size=(n_samples, n))
    return bool((pts @ A.T <= b + FEAS_TOL).all(axis=1).any())
