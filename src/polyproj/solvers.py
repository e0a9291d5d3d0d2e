"""Nonnegative least squares with verified optimality.

No library module imports this file, so scipy.optimize stays off the import
path of ``polyproj``: cone membership is a half-space test and zonotopes are
counted by covectors.  It is kept for the benchmark's traced replay
(``bench/staged.py``), whose ``solvers.nnls_us`` probe times this solver.

scipy's active-set solver can stop early on rare inputs and its reported
residual norm can be stale.  This wrapper recomputes the residual from the
returned solution, verifies first-order optimality, and falls back to a slower
bounded least-squares solve when the check fails.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import lsq_linear, nnls

_KKT_TOL = 1e-7


def robust_nnls(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """Solve min |a x - b| over x >= 0; return (x, true residual norm).

    A near-zero residual needs no optimality check: the solution itself is a
    membership certificate.  A large residual is only trusted after the KKT
    conditions hold (no descent direction left), since an early-terminated
    solve would overstate the distance.
    """
    x, _ = nnls(a, b)
    r = a @ x - b
    res = float(np.linalg.norm(r))
    if res <= 1e-9 * (1.0 + float(np.linalg.norm(b))):
        return x, res
    g = a.T @ r
    kkt = max(float(-g.min(initial=0.0)), float(np.abs(g[x > 0]).max(initial=0.0)))
    if kkt > _KKT_TOL * max(1.0, res):
        sol = lsq_linear(a, b, bounds=(0.0, np.inf))
        x = np.asarray(sol.x)
        res = float(np.linalg.norm(a @ x - b))
    return x, res
