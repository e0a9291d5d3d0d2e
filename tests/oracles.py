"""Independent oracles used by the tests.

Everything here deliberately takes a different route than the library:
Gauss-Hermite and adaptive SciPy quadrature instead of one Gauss-Legendre
rule around the integrand's mode, that rule's nodes from an eigenproblem
instead of Newton steps, determinants instead of closed forms, linear
programming instead of least squares, least squares on cone generators instead
of half-space tests, one product over every outer normal instead of a lead
block of normals and its survivors, modified Gram-Schmidt one basis vector at
a time instead of blocked classical Gram-Schmidt, raw subset enumeration
instead of qhull bookkeeping, index tables subset by subset through
dictionaries of positions instead of array operations on one subset list,
each side test of a point against d others as a sum of d minors instead of
one minor of the lifted map [X | 1] per d + 1 points,
rays of a zonotope's arrangement by SVD instead of off a table of minors,
facets grouped by rounded hyperplane equations instead of by qhull's
neighbour graph, one freshly derived generator and one f-vector call per
replication instead of batched stream keys and block-wise face counting,
Poisson tail bounds written out per model name instead of read off the
model table, every face of a simplicial hull counted as a distinct subset of
its facets instead of read off the h-vector, exact angles as a ladder of
branches instead of one power of 1/2 per kind, one exactly rounded math.fsum
per quadrature window instead of NumPy's row sums, and a linear scan for a
Poisson sum's stopping size instead of galloping and bisection.
Agreement between routes is the point.
"""

from __future__ import annotations

import math
from fractions import Fraction
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


def fsum_rule_sums(family, windows: list) -> list[float]:
    """The quadrature rule over each (m, s, a, b, peak) window, one window at a time.

    The node values of polyproj.angles._rule_sums, but each window's weighted
    values are summed by one exactly rounded math.fsum.
    """
    from polyproj.angles import _LOG_SQRT_2PI, _legendre_rule, _log_f_nodes

    nodes, weights = _legendre_rule()
    sums = []
    for m, s, a, b, peak in windows:
        half = 0.5 * (b - a)
        x = 0.5 * (a + b) + half * nodes
        h = -0.5 * x * x + m * _log_f_nodes(family, x / s)
        sums.append(math.exp(peak - _LOG_SQRT_2PI) * half * math.fsum((weights * np.exp(h - peak)).tolist()))
    return sums


def golub_welsch_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule from the eigenvectors of the Legendre Jacobi matrix."""
    k = np.arange(1, n)
    off = k / np.sqrt(4.0 * k * k - 1.0)
    nodes, vecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    return nodes, 2.0 * vecs[0] ** 2


# closed-form internal angles of small regular simplex face pairs
TETRA_VERTEX_ANGLE = (3 * math.acos(1 / 3) - math.pi) / (4 * math.pi)
TETRA_EDGE_ANGLE = math.acos(1 / 3) / (2 * math.pi)
TRIANGLE_VERTEX_ANGLE = 1 / 6

# the pinned composite value: expected vertex count of the planar shadow of a
# regular 3-simplex, 12 * (pi - arccos(1/3)) / (2 pi)
SHADOW_TETRA_VERTICES = 6 * (math.pi - math.acos(1 / 3)) / math.pi


def exact_angle_ladder(kind: str, family: str, n: int, k: int, g: int) -> Fraction | None:
    """The rational value of an angle, branch by branch; None where it is not rational.

    None means a sampled internal angle, or a quadrature external angle.

    kind is "ext" for gamma(Q_g, P_n), with k ignored, or "int" for
    beta(Q_k, Q_g).  family is the family's name.
    """
    if kind == "ext":
        if family == "cube":
            return Fraction(1, 2 ** (n - g))
        if g == n:
            return Fraction(1)
        if g == n - 1:
            return Fraction(1, 2)
        if g == 0:
            # all vertices are alike and their angles sum to 1
            return Fraction(1, n + 1) if family == "simplex" else Fraction(1, 2 * n)
        return None
    if k > g:
        return Fraction(0)
    if k == g:
        return Fraction(1)
    if family == "cube":
        return Fraction(1, 2 ** (g - k))
    if g == k + 1:
        return Fraction(1, 2)
    return None


def poisson_face_bound(model: str, ell: int, k: int) -> float:
    """The Poisson tail's bound on f_k of a hull model with parameter ell, by model name.

    ell Gaussian points have at most C(ell, k+1) k-faces, and ell symmetric
    pairs at most C(2 ell, k+1).
    """
    if model == "gaussian":
        return float(math.comb(ell, k + 1))
    if model == "symmetric":
        return float(math.comb(2 * ell, k + 1))
    raise ValueError(f"model {model!r} has no hull face bound")


def poisson_growth_ratio(model: str, ell: int, k: int) -> float:
    """The largest ratio of consecutive face bounds from ell on, as a closed form per model name."""
    if model == "gaussian":
        if ell <= k:
            return float(k + 2)
        return (ell + 1) / (ell - k)
    if model == "symmetric":
        if 2 * ell <= k:
            return float(k + 2)
        return ((2 * ell + 2) * (2 * ell + 1)) / ((2 * ell + 1 - k) * (2 * ell - k))
    raise ValueError(f"model {model!r} has no hull growth ratio")


def poisson_sum_per_t(t: float, d: int, k: int, model: str, eps: float, cfg) -> tuple:
    """One Poisson sum with every term, growth ratio and face bound rebuilt at each size.

    The truncated sum as polyproj.expected takes it, in the same order and with
    the same stopping rule, but sharing nothing between sizes or calls.
    Returns (value, std_error, exact, exact_value, truncation_bound, terms).
    """
    from polyproj.expected import MODEL_TABLE, _face_bound, _growth_ratio, expected_f_model

    row = MODEL_TABLE[model]
    value = se = 0.0
    exact = True
    ell = 0
    while True:
        weight = math.exp(-t + ell * math.log(t) - math.lgamma(ell + 1))
        term = expected_f_model(row, ell, d, k, cfg)
        value += weight * term.value
        se += weight * term.std_error
        exact = exact and term.exact
        if ell >= max(k + 2, int(t) + 1):
            q = t * _growth_ratio(row, ell, d, k) / (ell + 1)
            if q < 0.5:
                log_tail = _log_tail_bound(t, ell, _face_bound(row, ell, d, k), q)
                if log_tail < math.log(eps):
                    return value, se, exact, None, math.exp(log_tail), ell + 1
        ell += 1


def poisson_stop_by_scan(t: float, d: int, k: int, model: str, eps: float) -> tuple[int, float] | None:
    """The term count and tail bound of the Poisson(t) sum, every size tested in turn.

    polyproj.expected._poisson_stop's rule, scanning ell = max(k + 2, int(t) + 1),
    ... up to the cap one at a time; None when no ell up to the cap stops the sum.
    """
    from polyproj.expected import MAX_POISSON_SIZE, MODEL_TABLE, _face_bound, _growth_ratio

    row = MODEL_TABLE[model]
    for ell in range(max(k + 2, int(t) + 1), min(int(10 * t + 400), MAX_POISSON_SIZE) + 1):
        q = t * _growth_ratio(row, ell, d, k) / (ell + 1)
        if q < 0.5:
            log_tail = _log_tail_bound(t, ell, _face_bound(row, ell, d, k), q)
            if log_tail < math.log(eps):
                return ell + 1, math.exp(log_tail)
    return None


def _log_tail_bound(t: float, ell: int, bound, q: float) -> float:
    """log(weight(ell) * bound * q / (1 - q)), summed in log space as polyproj.expected sums it; -inf for a zero bound.

    A hull's face bound is an exact int that may be past the float range;
    math.log takes it as it is.
    """
    if bound == 0:
        return -math.inf
    return -t + ell * math.log(t) - math.lgamma(ell + 1) + math.log(bound) + math.log(q / (1.0 - q))


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


def one_product_member_mask(cone, z: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Membership mask of the rows of z (frame coordinates) from one product over every normal.

    Each row is scored against all of the cone's outer normals at once, and is
    in the cone when its largest score is at most tol * (1 + |z|).
    """
    scores = z @ (cone.frame @ cone.data.normals.T)
    bound = tol * (1.0 + np.sqrt(np.einsum("ij,ij->i", z, z)))
    return scores.max(axis=1, initial=-np.inf) <= bound


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


def svd_zonotope_f_vector(generators: np.ndarray) -> tuple[int, ...]:
    """Zonotope f-vector from covectors at rays found by SVD, one generator set at a time.

    The route the library took before it read rays off d x d minors: the ray
    of d-1 generators is the last right singular vector of their normalized
    rows, covector signs are its cosines with the generators, and one
    np.unique over the base-3 keys of every ray's fills counts the faces.
    General position is checked by the smallest singular value of every d-1
    normalized generators and the cosine of every other one with their ray,
    and raises the library's DegenerateGeometryError like the library's check.
    """
    from itertools import product

    from polyproj.errors import DegenerateGeometryError
    from polyproj.hull import _GENERAL_POSITION_TOL

    g = np.asarray(generators, dtype=float)
    n, d = g.shape
    norms = np.linalg.norm(g, axis=1)
    if np.any(norms <= _GENERAL_POSITION_TOL * norms.max()):
        raise DegenerateGeometryError("zero generator")
    unit = g / norms[:, None]
    subsets = np.array(list(combinations(range(n), d - 1)))
    _, sing, vt = np.linalg.svd(unit[subsets])
    if np.any(sing[:, -1] <= _GENERAL_POSITION_TOL):
        raise DegenerateGeometryError(f"some {d - 1} generators are rank-deficient")
    rays = vt[:, -1]
    cos = rays @ unit.T
    on_span = np.zeros(cos.shape, dtype=bool)
    np.put_along_axis(on_span, subsets, True, axis=1)
    if np.any(np.abs(cos[~on_span]) <= _GENERAL_POSITION_TOL):
        raise DegenerateGeometryError(f"a generator lies in the span of {d - 1} others")
    # base-3 covector keys, digit 0 for a zero, 1 for +, 2 for -; the zero
    # count rides above the n digits, so one unique counts every k at once
    digits = np.where(cos > 0, 1, 2)
    digits[on_span] = 0
    pow3 = 3 ** np.arange(n + 1, dtype=np.int64)
    ray_keys = np.stack([digits, (3 - digits) % 3]) @ pow3[:n]  # each ray and its negative
    fills = np.array(list(product(range(3), repeat=d - 1)), dtype=np.int64)
    fill_keys = pow3[subsets] @ fills.T + (fills == 0).sum(axis=1) * pow3[n]
    keys = ray_keys[:, :, None] + fill_keys
    return tuple(int(c) for c in np.bincount(np.unique(keys) // pow3[n], minlength=d))


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


def model_cloud(model: str, n: int, d: int, rng) -> np.ndarray:
    """The point cloud of one draw of a hull model, written out model by model.

    The sampler simulate used before the model table: every model names its
    polytope and its map itself, and the vertices are multiplied out.
    """
    from polyproj.families import Family, vertices
    from polyproj.hull import random_orthonormal_frame

    if model == "gaussian":
        return rng.standard_normal((n, d))
    if model == "symmetric":
        cloud = rng.standard_normal((n, d))
        return np.vstack([cloud, -cloud])
    if model == "projected_simplex":
        verts = vertices(Family.SIMPLEX, n - 1)
    elif model == "projected_crosspolytope":
        verts = vertices(Family.CROSSPOLYTOPE, n)
    elif model == "projected_cube":
        verts = vertices(Family.CUBE, n)
    else:
        raise ValueError(f"model {model!r} has no point-cloud sampler")
    frame = random_orthonormal_frame(verts.shape[1], d, rng)
    return verts @ frame


def minor_levels_by_loops(m: int, d: int) -> list:
    """hull._laplace_level(m, k) for k = 2..d, subset by subset through a dictionary of positions.

    Level k (k = 2..d) is the pair (at, sub): at[p] is the p-th row of each
    k-subset S in combinations order, and sub[p] the position of S without
    S_p among the (k-1)-subsets.
    """
    subsets = [list(combinations(range(m), k)) for k in range(d + 1)]
    where = [{s: r for r, s in enumerate(level)} for level in subsets]
    levels = []
    for k in range(2, d + 1):
        sub = [[where[k - 1][s[:p] + s[p + 1 :]] for p in range(k)] for s in subsets[k]]
        levels.append((np.array(subsets[k]).T, np.array(sub).T))
    return levels


def covector_sign_by_loops(n: int, d: int) -> np.ndarray:
    """hull._insertions(n, d), one (ray, generator) pair at a time.

    For the r-th (d-1)-subset s and a generator i outside it, the entry is the
    position of s + i among the d-subsets, plus C(n, d) when an odd number of
    s lies above i; it is 2 C(n, d) for i in s.
    """
    top = math.comb(n, d)
    where = {s: r for r, s in enumerate(combinations(range(n), d))}
    rays = list(combinations(range(n), d - 1))
    sign = np.full((len(rays), n), 2 * top, dtype=np.intp)
    for r, s in enumerate(rays):
        for i in set(range(n)).difference(s):
            odd = sum(x > i for x in s) % 2
            sign[r, i] = where[tuple(sorted((*s, i)))] + odd * top
    return sign


def side_table_by_permutations(m: int, d: int) -> np.ndarray:
    """hull._side_table, one entry at a time from the sign of each permutation.

    For the r-th d-subset s and the a-th row i outside it, the minor with
    s's p-th row replaced by i is that of the sorted rows times the sign of
    the permutation that sorts them, counted by its inversions; the entry
    indexes the minors stacked on their negatives.
    """
    facets = list(combinations(range(m), d))
    where = {s: r for r, s in enumerate(facets)}
    top = len(facets)
    swap = np.empty((d, top, m - d), dtype=np.intp)
    for r, s in enumerate(facets):
        for a, i in enumerate(sorted(set(range(m)).difference(s))):
            for p in range(d):
                t = s[:p] + (i,) + s[p + 1 :]
                odd = sum(x > y for x, y in combinations(t, 2)) % 2
                swap[p, r, a] = where[tuple(sorted(t))] + odd * top
    return swap


def lifted_side_table_by_loops(m: int, d: int) -> np.ndarray:
    """hull._lifted_side_table, one (d-subset, row) pair at a time.

    For the r-th d-subset s and the a-th row i outside it, the entry is the
    position of s + i among the (d+1)-subsets, plus C(m, d+1), which
    indexes the negated minors, when an even number of s lies above i.
    """
    top = math.comb(m, d + 1)
    where = {s: r for r, s in enumerate(combinations(range(m), d + 1))}
    facets = list(combinations(range(m), d))
    table = np.empty((len(facets), m - d), dtype=np.intp)
    for r, s in enumerate(facets):
        for a, i in enumerate(sorted(set(range(m)).difference(s))):
            even = sum(x > i for x in s) % 2 == 0
            table[r, a] = where[tuple(sorted((*s, i)))] + even * top
    return table


def simplex_facets_by_side_sums(maps: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """hull._enumerated_facets for the hulls of the maps' rows, each side test summed from d minors.

    With chi(I) the minor of rows I and c_ip that of X_I with its p-th row
    replaced by x_i, read through hull._side_table, x_i lies on the side
    sum_p c_ip - chi(I) of the hyperplane through X_I; a cloud with such a
    value within its margin of 0 is near.  Returns the near flags, the
    simplices of the other clouds in cloud order and how many belong to each.
    """
    from polyproj.hull import _ENUM_MARGIN, _Workspace, _minors, _side_table, _subsets

    m, d = maps.shape[1:]
    x = np.ascontiguousarray(maps.transpose(1, 2, 0))
    subsets = _subsets(m, d)
    swap = _side_table(m, d)
    chi = _minors(x, _Workspace())
    signed = np.concatenate([chi, -chi])
    norms = np.sqrt((x * x).sum(axis=1))
    volume_bound = np.prod(norms[subsets[:, 1:]] + norms[subsets[:, :1]], axis=1)
    tol = _ENUM_MARGIN * (1 + norms.max(axis=0)) * volume_bound
    side = signed[swap[0]] - chi[:, None]
    for p in range(1, d):
        side += signed[swap[p]]
    near = (np.abs(side) <= tol[:, None]).any(axis=(0, 1))
    above = (side > 0).sum(axis=1)
    facet = ((above == 0) | (above == m - d)).T[~near]
    return near, subsets[np.nonzero(facet)[1]], facet.sum(axis=1)


def distinct_subset_f_vectors(simplices: np.ndarray, sizes) -> np.ndarray:
    """The f-vector rows of simplicial hulls with every f_k counted, none read off the h-vector.

    The facets of every hull are stacked hull after hull, sizes[h] of hull h;
    f_{d-1} counts a hull's facets, and f_k for k <= d-2 its distinct sorted
    (k+1)-subsets of facet vertex ids, one np.unique per hull and k.
    """
    from polyproj.hull import _subsets

    d = simplices.shape[1]
    ordered = np.sort(simplices, axis=1)
    rows = np.empty((len(sizes), d), dtype=np.int64)
    for h, end in enumerate(np.cumsum(sizes)):
        facets = ordered[end - sizes[h] : end]
        rows[h, d - 1] = len(facets)
        for k in range(d - 1):
            rows[h, k] = len(np.unique(facets[:, _subsets(d, k + 1)].reshape(-1, k + 1), axis=0))
    return rows


def per_replication_rows(model: str, n: int, d: int, seed: int, replications: int,
                         sampler=model_cloud) -> tuple[np.ndarray, np.ndarray]:
    """simulate's f-vector rows and per-replication degenerate counts, one replication at a time.

    The replication loop simulate_expected_f ran before it worked a block at
    a time: every attempt builds its own generator with derive_generator and
    counts its hull alone with hull_f_vector, or its zonotope with
    svd_zonotope_f_vector.  Point clouds come from `sampler`, model_cloud
    unless another is given; zonotope generators and projected-cube frames
    are drawn here.
    """
    from polyproj.errors import DegenerateGeometryError, SimulationAbortError
    from polyproj.hull import _MAX_ATTEMPTS, hull_f_vector, random_orthonormal_frame
    from polyproj.streams import MODEL_CODES, SIM_REPLICATION, derive_generator

    rows = np.zeros((replications, d), dtype=np.int64)
    degenerate = np.zeros(replications, dtype=np.int64)
    for index in range(replications):
        for attempt in range(_MAX_ATTEMPTS):
            rng = derive_generator(seed, SIM_REPLICATION, MODEL_CODES[model], n, d, index, attempt)
            try:
                if model == "zonotope":
                    counts = svd_zonotope_f_vector(rng.standard_normal((n, d)))
                elif model == "projected_cube":
                    counts = svd_zonotope_f_vector(random_orthonormal_frame(n, d, rng))
                else:
                    fv = hull_f_vector(sampler(model, n, d, rng))
                    if fv.degenerate:
                        degenerate[index] += 1
                        continue
                    counts = fv.counts
            except DegenerateGeometryError:
                degenerate[index] += 1
                continue
            rows[index] = counts
            break
        else:
            raise SimulationAbortError(f"replication {index} stayed degenerate",
                                       degenerate=int(degenerate[index]), replications=index)
    return rows, degenerate
