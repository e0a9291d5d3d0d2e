"""Independent oracles used by the tests.

Everything here deliberately takes a different route than the library:
quadrature instead of sampling, determinants instead of closed forms, linear
programming instead of least squares, least squares on cone generators instead
of half-space tests, modified Gram-Schmidt one basis vector at a time instead
of blocked classical Gram-Schmidt, raw subset enumeration instead of qhull
bookkeeping, facets grouped by rounded hyperplane equations instead of
by qhull's neighbour graph, and one freshly derived generator and one
f-vector call per replication instead of batched stream keys and
block-wise face counting.
Agreement between routes is the point.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np
from scipy.integrate import quad
from scipy.optimize import linprog, nnls
from scipy.spatial import ConvexHull
from scipy.stats import norm


def cayley_menger_volume(points: np.ndarray) -> float:
    """Volume of the simplex spanned by k+1 points via the Cayley-Menger determinant."""
    pts = np.asarray(points, dtype=float)
    k = pts.shape[0] - 1
    if k == 0:
        return 1.0
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    m = np.ones((k + 2, k + 2))
    m[0, 0] = 0.0
    m[1:, 1:] = d2
    det = np.linalg.det(m)
    coef = (-1) ** (k + 1) / (2**k * math.factorial(k) ** 2)
    return math.sqrt(max(coef * det, 0.0))


def simplex_external_quadrature(n: int, g: int) -> float:
    """External angle of the regular n-simplex at a g-face: E[Phi(M)^(n-g)], M ~ N(0, 1/(g+1)).

    Computed by Gauss-Hermite quadrature; derived by conditioning the normal
    cone's Gaussian on the shared coordinate height.
    """
    nodes, weights = np.polynomial.hermite_e.hermegauss(240)
    sigma = 1.0 / math.sqrt(g + 1)
    vals = norm.cdf(nodes * sigma) ** (n - g)
    return float((weights * vals).sum() / math.sqrt(2 * math.pi))


def cross_external_quadrature(n: int, g: int) -> float:
    """External angle of the n-crosspolytope at a proper g-face.

    The normal cone at the canonical face is {u: u_1 = ... = u_{g+1} = c >= 0,
    |u_j| <= c}; integrating out the free coordinates gives
    int_0^inf phi(z) (2 Phi(z/sqrt(g+1)) - 1)^(n-g-1) dz.
    """
    s = math.sqrt(g + 1)

    def f(z: float) -> float:
        return norm.pdf(z) * (2 * norm.cdf(z / s) - 1) ** (n - g - 1)

    val, _ = quad(f, 0, np.inf)
    return float(val)


# closed-form internal angles of small regular simplex face pairs
TETRA_VERTEX_ANGLE = (3 * math.acos(1 / 3) - math.pi) / (4 * math.pi)
TETRA_EDGE_ANGLE = math.acos(1 / 3) / (2 * math.pi)
TRIANGLE_VERTEX_ANGLE = 1 / 6

# the pinned composite value: expected vertex count of the planar shadow of a
# regular 3-simplex, 12 * (pi - arccos(1/3)) / (2 pi)
SHADOW_TETRA_VERTICES = 6 * (math.pi - math.acos(1 / 3)) / math.pi


def mgs_orthonormal_basis(vecs: np.ndarray, drop_tol: float = 1e-10) -> np.ndarray:
    """Orthonormal basis of span(rows) by modified Gram-Schmidt, applied twice.

    Same contract as the library's basis: rows in order, a row is dropped when
    its residual is below drop_tol * (1 + |row|).
    """
    basis: list[np.ndarray] = []
    for v in np.asarray(vecs, dtype=float):
        w = v.copy()
        for _ in range(2):
            for b in basis:
                w -= (w @ b) * b
        nw = np.linalg.norm(w)
        if nw > drop_tol * (1.0 + np.linalg.norm(v)):
            basis.append(w / nw)
    return np.array(basis).reshape(len(basis), np.shape(vecs)[1])


def full_pass_orthonormal_basis(vecs: np.ndarray, drop_tol: float = 1e-10) -> np.ndarray:
    """The library's Gram-Schmidt basis without its early exit: every row is projected.

    Same arithmetic as polyproj.angles.orthonormal_basis, so a row the library
    skips once its basis is full must be dropped here and the bases agree bit
    for bit.
    """
    vecs = np.asarray(vecs, dtype=float)
    basis = np.empty_like(vecs)
    r = 0
    for v in vecs:
        w = v.copy()
        for _ in range(2):
            w -= (basis[:r] @ w) @ basis[:r]
        nw = np.linalg.norm(w)
        if nw > drop_tol * (1.0 + np.linalg.norm(v)):
            basis[r] = w / nw
            r += 1
    return basis[:r]


def nnls_member_count(generators: np.ndarray, u: np.ndarray, tol: float = 1e-8) -> int:
    """Rows of u in pos(generators): those that NNLS on the generators reproduces.

    The residual is recomputed from the returned coefficients rather than
    taken from the solver, and compared against tol * (1 + |u|).
    """
    a = np.asarray(generators, dtype=float).T
    hits = 0
    for row in np.asarray(u, dtype=float):
        x, _ = nnls(a, row)
        if np.linalg.norm(a @ x - row) <= tol * (1.0 + np.linalg.norm(row)):
            hits += 1
    return hits


def lp_strict_separation(rows: np.ndarray) -> bool:
    """True iff some c has <row_i, c> > 0 for all i: the margin LP route."""
    rows = np.asarray(rows, dtype=float)
    m, r = rows.shape
    c_obj = np.zeros(r + 1)
    c_obj[-1] = -1.0
    a_ub = np.hstack([-rows, np.ones((m, 1))])
    res = linprog(c_obj, A_ub=a_ub, b_ub=np.zeros(m), bounds=[(-1, 1)] * r + [(None, None)])
    return res.status == 0 and res.x[-1] > 1e-9


def lp_zonotope_f_vector(generators: np.ndarray) -> tuple[int, ...]:
    """Zonotope f-vector by sign-pattern enumeration with the LP feasibility test."""
    from scipy.linalg import null_space

    g = np.asarray(generators, dtype=float)
    n, d = g.shape
    counts = [0] * d
    for k in range(d):
        for subset in combinations(range(n), k):
            basis = np.eye(d) if k == 0 else null_space(g[list(subset)])
            rest = [i for i in range(n) if i not in subset]
            w = g[rest] @ basis
            wn = w / np.linalg.norm(w, axis=1, keepdims=True)
            m = wn.shape[0]
            total = 0

            def rec(depth: int, rows: list[np.ndarray]) -> None:
                nonlocal total
                if depth == m:
                    total += 1
                    return
                for s in (1.0, -1.0):
                    cand = rows + [s * wn[depth]]
                    if lp_strict_separation(np.array(cand)):
                        rec(depth + 1, cand)

            rec(1, [wn[0]])
            counts[k] += 2 * total
    return tuple(counts)


def zonotope_vertex_cloud(generators: np.ndarray) -> np.ndarray:
    """All subset sums of the generators; contains every vertex of the zonotope."""
    g = np.asarray(generators, dtype=float)
    n, d = g.shape
    pts = np.zeros((2**n, d))
    for i in range(2**n):
        mask = [(i >> j) & 1 for j in range(n)]
        pts[i] = (g * np.array(mask)[:, None]).sum(axis=0)
    return pts


def full_dimensional(points: np.ndarray) -> np.ndarray:
    """Re-express a flat point set in orthonormal coordinates of its affine hull."""
    pts = np.asarray(points, dtype=float)
    rel = pts - pts[0]
    _, s, vt = np.linalg.svd(rel, full_matrices=False)
    rank = int((s > 1e-10 * s[0]).sum())
    return rel @ vt[:rank].T


def rounded_facet_f_vector(points: np.ndarray) -> tuple[int, ...]:
    """f-vector of a full-dimensional hull, facets grouped by rounded equations.

    Every simplex of qhull's triangulated output is filed under its
    [normal, offset] row rounded to 9 places, one simplex at a time;
    simplicial hulls count k-faces as distinct (k+1)-subsets of facets, and
    merged ones close the facets under intersection and rank each face.
    Rounding can split one facet whose rows straddle a rounding boundary, so
    inputs are kept away from such near-ties.
    """
    pts = np.asarray(points, dtype=float)
    d = pts.shape[1]
    hull = ConvexHull(pts)
    groups: dict[bytes, set[int]] = {}
    for simplex, eq in zip(hull.simplices, hull.equations):
        groups.setdefault(np.round(eq, 9).tobytes(), set()).update(int(v) for v in simplex)
    facet_sets = [frozenset(g) for g in groups.values()]
    counts = [0] * d
    counts[0] = len(hull.vertices)
    counts[d - 1] = len(facet_sets)
    if d <= 2:
        return tuple(counts)
    if all(len(fs) == d for fs in facet_sets):
        for k in range(1, d - 1):
            counts[k] = len({sub for fs in facet_sets for sub in combinations(sorted(fs), k + 1)})
        return tuple(counts)
    faces = set(facet_sets)
    frontier = list(facet_sets)
    while frontier:
        fresh = []
        for f in frontier:
            for g in facet_sets:
                h = f & g
                if h and h not in faces:
                    faces.add(h)
                    fresh.append(h)
        frontier = fresh
    rank_tol = 1e-9 * float(np.abs(pts - pts.mean(axis=0)).max())
    counts = [0] * d
    counts[d - 1] = len(facet_sets)
    for fs in faces.difference(facet_sets):
        idx = sorted(fs)
        dim = 0 if len(idx) == 1 else int(np.linalg.matrix_rank(pts[idx[1:]] - pts[idx[0]], tol=rank_tol))
        if dim <= d - 2:
            counts[dim] += 1
    return tuple(counts)


def per_replication_rows(model: str, n: int, d: int, seed: int, replications: int,
                         sampler=None) -> tuple[np.ndarray, np.ndarray]:
    """simulate's f-vector rows and per-replication degenerate counts, one replication at a time.

    The replication loop simulate_expected_f ran before it worked a block at
    a time: every attempt builds its own generator with derive_generator and
    counts its hull alone with hull_f_vector.  sampler stands in for
    polyproj.hull._sample_cloud when given.
    """
    from polyproj.errors import DegenerateGeometryError, SimulationAbortError
    from polyproj.hull import (
        _MAX_ATTEMPTS,
        _sample_cloud,
        hull_f_vector,
        random_orthonormal_frame,
        zonotope_f_vector,
    )
    from polyproj.streams import MODEL_CODES, SIM_REPLICATION, derive_generator

    sampler = sampler or _sample_cloud
    rows = np.zeros((replications, d), dtype=np.int64)
    degenerate = np.zeros(replications, dtype=np.int64)
    for index in range(replications):
        for attempt in range(_MAX_ATTEMPTS):
            rng = derive_generator(seed, SIM_REPLICATION, MODEL_CODES[model], n, d, index, attempt)
            try:
                if model == "zonotope":
                    fv = zonotope_f_vector(rng.standard_normal((n, d)))
                elif model == "projected_cube":
                    fv = zonotope_f_vector(random_orthonormal_frame(n, d, rng))
                else:
                    fv = hull_f_vector(sampler(model, n, d, rng))
            except DegenerateGeometryError:
                degenerate[index] += 1
                continue
            if fv.degenerate:
                degenerate[index] += 1
                continue
            rows[index] = fv.counts
            break
        else:
            raise SimulationAbortError(f"replication {index} stayed degenerate",
                                       degenerate=int(degenerate[index]), replications=index)
    return rows, degenerate
