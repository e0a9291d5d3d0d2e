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
one minor of the lifted map [X | 1] per d + 1 points, every side test exact
on ints (memoized cofactor expansions for the rows' hull, row echelon forms
reduced by cross-multiplication and gcds for the symmetric one) and
determinants as sums over permutations instead of a float filter with a
fraction-free (Bareiss) integer elimination behind it,
a zonotope's faces counted as covectors at rays found by SVD instead of
taken from the closed form of a generic arrangement,
facets grouped by rounded hyperplane equations instead of by qhull's
neighbour graph, one freshly derived generator and one f-vector call per
replication instead of batched stream keys and block-wise face counting,
the projected models' vertices multiplied by Haar frames (the Q of a
Gaussian matrix G = QR) instead of counted on G, whose image differs by R^-1,
Poisson tail bounds written out per model name instead of read off the
model table, every face of a simplicial hull counted as a distinct subset of
its facets instead of read off the h-vector, exact angles as a ladder of
branches instead of one power of 1/2 per kind, one exactly rounded math.fsum
per quadrature window instead of NumPy's row sums, each size's sum of
sn_terms on its own instead of one batch of angles for a range of sizes,
a linear scan for a Poisson sum's stopping size from max(k + 2, int(t) + 1)
instead of a scan that starts past 2t, colex subset lists built by
recursion on the largest element instead of sorted by reversed tuple,
ball volumes by their closed forms with pi from Machin's formula instead
of a product of 2 pi / j with a 50-digit pi, and the size functional's
Gamma ratios as rising products instead of log-Gamma differences.
Agreement between routes is the point.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations, product

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


def machin_pi(digits: int) -> Fraction:
    """pi to about `digits` decimals by Machin's formula, 16 arctan(1/5) - 4 arctan(1/239), in integers."""
    scale = 10 ** (digits + 10)

    def arctan_inverse(x: int) -> int:
        total, term, k, sign = 0, scale // x, 1, 1
        while term:
            total += sign * (term // k)
            term //= x * x
            k, sign = k + 2, -sign
        return total

    return Fraction(16 * arctan_inverse(5) - 4 * arctan_inverse(239), scale)


def ball_volume_closed_form(ell: int) -> Fraction:
    """The ell-dimensional unit ball's volume as a rational, pi to 80 decimals.

    pi^m / m! at ell = 2m and 2^(2m+1) m! pi^m / (2m+1)! at ell = 2m + 1,
    instead of a product of 2 pi / j over the dimensions.
    """
    m = ell // 2
    if ell % 2:
        return Fraction(2 ** ell * math.factorial(m), math.factorial(ell)) * machin_pi(80) ** m
    return machin_pi(80) ** m / math.factorial(m)


def size_functional_multiplier(d: int, k: int, half_b: int) -> Fraction:
    """t_functional_expected's multiplier at b = 2 half_b as a rational.

    Each ratio Gamma(x + half_b) / Gamma(x) is the rising product
    x (x+1) ... (x + half_b - 1), instead of a difference of log-Gammas.
    """
    multiplier = Fraction((k + 1) ** half_b, math.factorial(k) ** (2 * half_b))
    for j in range(1, k + 1):
        x = Fraction(d + 1 - j, 2)
        for i in range(half_b):
            multiplier *= x + i
    return multiplier


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


def model_value_by_terms(row, n: int, d: int, k: int, cfg):
    """E f_k of a target row with parameter n, from this size alone, as an Estimate.

    Every branch of the projection formula written out, as expected_f_model
    took them one size at a time: a simplex or crosspolytope sum is the sum
    of sn_terms, with the angles of the one size fetched anew.
    """
    from polyproj import Estimate, Family, expected_f_cube_closed_form, face_count, sn_terms

    if n == 0:
        return Estimate.rational(0)
    if n == row.shift:
        return Estimate.rational(1 if k == 0 else 0)
    m = n - row.shift
    if k > min(m, d):
        return Estimate.rational(0)
    if k == min(m, d):
        return Estimate.rational(1)
    if d >= m:
        return Estimate.rational(face_count(row.family, m, k))
    if d == 1:
        return Estimate.rational(2)
    if row.family is Family.CUBE:
        return Estimate.rational(expected_f_cube_closed_form(m, d, k))
    terms = sn_terms(row.family, m, d, k, cfg)
    value = 2.0 * sum(term.value for term in terms)
    if all(term.beta.exact and term.gamma.exact for term in terms):
        return Estimate(value, 0.0, True)
    return Estimate(value, 2.0 * sum(term.std_error for term in terms))


def poisson_sum_per_t(t: float, d: int, k: int, model: str, eps: float, cfg) -> tuple:
    """One Poisson sum with every term, growth ratio and face bound rebuilt at each size.

    The truncated sum as polyproj.expected takes it, in the same order and with
    the same stopping rule, but sharing nothing between sizes or calls.
    Returns (value, std_error, exact, exact_value, truncation_bound, terms).
    """
    from polyproj.expected import MODEL_TABLE, _face_bound, _growth_ratio

    row = MODEL_TABLE[model]
    value = se = 0.0
    exact = True
    ell = 0
    while True:
        weight = math.exp(-t + ell * math.log(t) - math.lgamma(ell + 1))
        term = model_value_by_terms(row, ell, d, k, cfg)
        value += weight * term.value
        se += weight * term.std_error
        exact = exact and term.exact
        if ell >= max(k + 2, int(t) + 1):
            q = t * _growth_ratio(row, ell, d, lambda size: _face_bound(row, size, d, k)) / (ell + 1)
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
        q = t * _growth_ratio(row, ell, d, lambda size: _face_bound(row, size, d, k)) / (ell + 1)
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

    A count of faces where the library takes a closed form: a k-face is a
    covector of the generators' hyperplane arrangement with k zeros, and in a
    simple arrangement every covector lies next to a ray.  The ray of d-1
    generators is the last right singular vector of their normalized rows,
    covector signs are its cosines with the generators, and one np.unique
    over the base-3 keys of every ray's sign vector, its d-1 zeros filled in
    all 3^(d-1) ways, counts the faces.
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


def colex_subsets(m: int, k: int) -> list[tuple[int, ...]]:
    """The k-subsets of range(m) as sorted tuples in colex order: those without m - 1, in this order for m - 1, then those with it."""
    if k == 0:
        return [()]
    if k > m:
        return []
    return colex_subsets(m - 1, k) + [s + (m - 1,) for s in colex_subsets(m - 1, k - 1)]


def minor_levels_by_loops(m: int, d: int) -> list:
    """hull._laplace_level(m, k) for k = 2..d, subset by subset through a dictionary of positions.

    Level k (k = 2..d) is the pair (at, sub): at[p] is the p-th row of each
    k-subset S in colex order, and sub[p] the position of S without S_p
    among the (k-1)-subsets.
    """
    subsets = [colex_subsets(m, k) for k in range(d + 1)]
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
    where = {s: r for r, s in enumerate(colex_subsets(n, d))}
    rays = colex_subsets(n, d - 1)
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
    facets = colex_subsets(m, d)
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
    where = {s: r for r, s in enumerate(colex_subsets(m, d + 1))}
    facets = colex_subsets(m, d)
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
    swap = _side_table(m, d).transpose(1, 2, 0)  # [p, r, a]
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


def leibniz_det(rows) -> Fraction:
    """The determinant of a square matrix, its entries as exact Fractions, as the signed sum over permutations."""
    a = [[Fraction(v) for v in row] for row in rows]
    total = Fraction(0)
    for perm in permutations(range(len(a))):
        inversions = sum(x > y for x, y in combinations(perm, 2))
        total += (-1) ** inversions * math.prod(a[i][j] for i, j in enumerate(perm))
    return total


def int_rref(rows) -> tuple[list, list]:
    """A reduced row echelon form of an int matrix, kept on ints, and its pivot columns.

    Row k is a multiple of the k-th row of the reduced form over the
    rationals: each pivot row clears its column from every other row by
    cross-multiplication, and each row it changes is divided by the gcd of
    its entries, which keeps the ints short.  No step divides by a minor.
    """
    a = [list(row) for row in rows]
    pivots = []
    for col in range(len(a[0])):
        r = len(pivots)
        p = next((i for i in range(r, len(a)) if a[i][col]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        top = a[r]
        for row in a:
            if row is not top and row[col]:
                f, g = top[col], row[col]
                row[:] = [f * v - g * t for v, t in zip(row, top)]
                k = math.gcd(*row) or 1
                row[:] = [v // k for v in row]
        pivots.append(col)
    return a, pivots


def exact_hull_f_vector(cloud: np.ndarray, symmetric: bool = False) -> tuple[int, ...] | None:
    """The f-vector of the hull of a cloud's rows, with their negatives if symmetric, from exact side tests; None for a flat draw.

    Every float entry is taken as its exact ratio of ints, and the cloud is
    scaled to ints by their common denominator.  For the rows' hull, d rows
    I span a facet iff det[X_I, 1; y, 1] has one strict sign at every other
    row y; a zero there is d + 1 rows on one hyperplane, a flat draw.  Each
    determinant is a cofactor expansion along the last column, every smaller
    minor of [X | 1] taken once.  For the symmetric hull, eps*I spans the
    hyperplane u.y = 1 with X_I u = eps, so u.x_a = eps.mu_a for the
    coordinates mu_a of x_a in the basis X_I, read off a reduced row echelon
    form kept on ints (int_rref): eps*I is a facet iff every |u.x_a| < 1,
    and a singular X_I or a largest |u.x_a| of exactly 1 is a flat draw.
    Faces are counted as distinct subsets of the facets.  Meant for small
    shapes.
    """
    m, d = cloud.shape
    ratios = [[v.as_integer_ratio() for v in row] for row in cloud.tolist()]
    # scaled by the common denominator of its entries the cloud has the same hull
    scale = math.lcm(*(q for row in ratios for _, q in row))
    pts = [[p * (scale // q) for p, q in row] for row in ratios]
    lifted = [[*p, 1] for p in pts]

    @cache
    def minor(rows: tuple) -> int:
        # the minor of the sorted lifted rows on the leading len(rows) columns, expanded along the last of them
        k = len(rows)
        return sum((-1) ** (k - 1 - p) * lifted[r][k - 1] * minor(rows[:p] + rows[p + 1 :]) for p, r in enumerate(rows)) if k else 1

    facets = []
    for rows in combinations(range(m), d):
        if not symmetric:
            # det[X_I, 1; y, 1]: moving y past the rows of I above it sorts them
            sides = [(-1) ** sum(i > y for i in rows) * minor(tuple(sorted((*rows, y)))) for y in range(m) if y not in rows]
            if 0 in sides:
                return None
            if all(v > 0 for v in sides) or all(v < 0 for v in sides):
                facets.append(rows)
            continue
        # [X_I^T | the other rows, transposed] reduces to multiples of [1 | their coordinates mu_a]
        others = [pts[i] for i in range(m) if i not in rows]
        a, pivots = int_rref(zip(*(pts[i] for i in rows), *others))
        if pivots != list(range(d)):
            return None
        # over a common denominator, |u.x_a| < 1 is |eps.(den mu_a)| < den
        den = math.lcm(*(a[k][k] for k in range(d)))
        coords = [[a[k][d + j] * (den // a[k][k]) for k in range(d)] for j in range(len(others))]
        for eps in product((1, -1), repeat=d):
            worst = max((abs(sum(e * v for e, v in zip(eps, mu))) for mu in coords), default=0)
            if worst == den:
                return None
            if worst < den:
                facets.append([i + m * (e < 0) for i, e in zip(rows, eps)])
    return tuple(distinct_subset_f_vectors(np.array(facets).reshape(-1, d), [len(facets)])[0].tolist())


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
    are drawn here.  The projected models' vertices are multiplied by Haar
    frames, so their rows check, draw by draw, that simulate may count them
    on the Gaussian matrices whose Q factors the frames are.
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
