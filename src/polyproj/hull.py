"""Monte Carlo laboratory: exact f-vectors of sampled random polytopes.

Random models are the rows of families.MODEL_TABLE: model n is the image of
P_{n - shift} under a Gaussian map or a uniform orthogonal projection to R^d.
  gaussian                 convex hull of n iid standard Gaussian points
  symmetric                hull of n Gaussian points and their negatives
  zonotope                 Minkowski sum of n segments [0, g_i], Gaussian g_i
  projected_simplex        image of the (n-1)-simplex (n vertices)
  projected_crosspolytope  image of the n-crosspolytope (2n vertices)
  projected_cube           image of the n-cube (2^n vertices)

Simulated hulls of the simplex and crosspolytope images (the hull of the
map's rows, or of those and their negatives) are decided a chunk of clouds
at a time from one table of d x d minors of each map, built by Laplace
expansion one column at a time over precomputed index tables.  The minor
chi(I) of rows I and the minors c_ij of X_I with row j replaced by x_i give
every side test: I is a facet of the rows' hull iff sum_j c_ij - chi(I) has
one strict sign over the rows i outside I, and the signed set eps*I is a
facet of the symmetric hull, with its antipode, iff |sum_j eps_j c_ij| <
|chi(I)| for each of them.  A cloud with a point within a margin of some
hyperplane through d others (_ENUM_MARGIN, a distance at the cloud's scale
that dominates _FACET_TOL) is not read off the table but goes to qhull, and
so do shapes with more side tests per point than the measured _ENUM_CAP.

Hulls that hull_f_vector is asked for, and those clouds, go through qhull,
whose output is triangulated.  SciPy, which wraps qhull, is imported when the
first such hull is built, not with this module: a process that sends no hull
to qhull (the formula commands, simulate of the cube models, most small
Gaussian shapes) never loads it.  Two neighbouring simplices lie on one
facet when their [normal, offset] rows agree within _FACET_TOL, which one
vectorized comparison over qhull's neighbour array tests.  If no neighbours
agree the hull is simplicial; otherwise facet labels spread over agreeing
neighbours, and the face lattice is recovered by closing the facet vertex
sets under intersection.  The k-faces of a simplicial hull, from either
route, are the distinct (k+1)-subsets of its facets, counted by sorting one
integer key per subset, with the hull's position as the key's top digit so
that one sort per k counts many hulls at once.

Zonotope f-vectors are counted combinatorially: a k-face is a covector of
the generators' hyperplane arrangement with k zeros, and every covector is
read off a ray of the arrangement.  The ray of d-1 generators S is
x -> det[g_S; x], so its sign at generator i is that of the minor chi(S + i)
times the parity of putting i into S: the same table of d x d minors, of
the normalized generators, gives every ray's sign vector, and its entries'
sizes are the general-position check.  A projected cube is the zonotope of
its frame rows.  simulate counts a chunk of zonotopes with one sort of
their covector keys, as it counts hulls' faces, and zonotope_f_vector is
the call for one.

Every replication draws from its own counter-based stream derived from
(seed, model, n, d, replication index, attempt), so estimates are identical
for any worker count and assembly order.  Replications run in blocks of
_BLOCK whose attempts run in rounds: round a draws the maps of the
replications still undecided on their attempt-a Philox keys, from one
derive_keys call over the column of their indices, which are the draws
derive_generator's generators would give.  An index is one SeedSequence
word, so SimConfig caps replications at 2^32.  Every round's maps take the
same route, and a map the minors route hands to qhull goes there as drawn,
so reports depend on neither the blocking nor the route.  A flat cube map, or a cloud qhull finds flat,
waits for the next round.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cache
from itertools import combinations, product

import numpy as np
from numpy.random import Generator, Philox

from .angles import Estimate
from .errors import (
    DegenerateGeometryError,
    InvalidArgumentError,
    InvalidDimensionError,
    SimulationAbortError,
)
from .families import MODEL_TABLE, Family, Model, check_int, model_row
from .streams import MODEL_CODES, SIM_REPLICATION, derive_keys, rekey

MODELS = tuple(MODEL_TABLE)

_MAX_HULL_DIM = 6
_MAX_GENERATORS = 15
_MAX_ATTEMPTS = 5
_DEGENERATE_RATE_LIMIT = 1e-3
_GENERAL_POSITION_TOL = 1e-9  # on unit generators: their d x d minors
_FACET_TOL = 1e-9  # largest entry difference of two simplices' [normal, offset] rows on one facet
_RANK_TOL = 1e-9  # relative to the cloud's extent, on the scale of _FACET_TOL
_BLOCK = 512
# a cloud is enumerated only if every point lies farther than _ENUM_MARGIN * (1 + R)
# from every hyperplane through d other points, R the largest point norm; qhull's
# neighbours merge only within sqrt(d) * _FACET_TOL * (1 + R), 40 times less at d = 6
_ENUM_MARGIN = 1e-7
# Side tests per cloud point up to which the minors route decides a shape (see
# _enumerates); larger shapes go to qhull.  Time per hull of the minors route
# over qhull's, 512-cloud blocks, 2-core VM, one thread, tests per point in
# brackets:
#   gaussian  n=10 d=2 (36) 0.19, n=20 d=2 (171) 1.03, n=10 d=3 (84) 0.32,
#             n=12 d=3 (165) 0.51, n=14 d=3 (286) 1.06, n=10 d=4 (126) 0.42,
#             n=12 d=4 (330) 1.03, n=10 d=6 (84) 0.47
#   symmetric n=20 d=2 (171) 1.68, n=10 d=3 (168) 0.42, n=12 d=3 (330) 1.27,
#             n=8 d=4 (140) 0.31, n=10 d=4 (504) 0.95, n=8 d=5 (168) 0.32
# The route stops paying near 170 at d = 2 and 300-500 at d = 3, 4; at 160
# every shape it takes was measured at least 1.6 times faster.
_ENUM_CAP = 160
_ENUM_ENTRIES = 1 << 16  # float64 entries of the largest per-chunk temporary
_COUNT_BATCH = 2048  # simplices counted by one sort per k; caps the key arrays at 2048 * C(d, k+1) entries
_INT64_MAX = int(np.iinfo(np.int64).max)
# column index sets of the j-subsets of a d-column row, for the simplicial path
_COLUMN_SUBSETS = {
    (d, j): np.array(list(combinations(range(d), j)))
    for d in range(2, _MAX_HULL_DIM + 1)
    for j in range(1, d)
}


@dataclass(frozen=True)
class FVectorSample:
    """One sampled f-vector (f_0 .. f_{d-1}); degenerate marks a flat draw."""

    counts: tuple[int, ...]
    degenerate: bool = False


@dataclass(frozen=True)
class SimConfig:
    model: str
    n: int
    d: int
    replications: int
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        row = model_row(self.model)
        # NumPy integers are stored as Python ints
        for name, lo in (("n", None), ("d", None), ("replications", 1), ("seed", 0), ("workers", 1)):
            object.__setattr__(self, name, check_int(name, getattr(self, name), lo))
        if self.replications > 2**32:  # each replication index is one SeedSequence word of its stream
            raise InvalidArgumentError(f"replications must be <= 2^32, got {self.replications}")
        if not (2 <= self.d <= _MAX_HULL_DIM):
            raise InvalidDimensionError(f"hull dimension must be in 2..{_MAX_HULL_DIM}, got {self.d}")
        min_n = self.d + row.shift
        if self.n < min_n:
            raise InvalidDimensionError(
                f"model {self.model} needs n >= {min_n} for a full-dimensional hull, got {self.n}"
            )
        if row.family is Family.CUBE and self.n > _MAX_GENERATORS:
            raise InvalidDimensionError(
                f"model {self.model} capped at n = {_MAX_GENERATORS}, got {self.n}"
            )


def random_orthonormal_frame(ambient: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed ambient x d matrix with orthonormal columns.

    QR of a Gaussian matrix with the R-diagonal sign fixed, which makes the
    draw both Haar and a deterministic function of the stream.
    """
    if d > ambient:
        raise InvalidDimensionError(f"frame needs d <= ambient, got {d} > {ambient}")
    return _orthonormal_frames(rng.standard_normal((ambient, d)))


def _orthonormal_frames(g: np.ndarray) -> np.ndarray:
    """The Q factors of one Gaussian matrix or a stack of them, with the R-diagonal signs fixed."""
    q, r = np.linalg.qr(g)
    return q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]


def sample_gaussian(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal((n, d))


def symmetrize(cloud: np.ndarray) -> np.ndarray:
    return np.vstack([cloud, -cloud])


def _sample_maps(row: Model, keys: np.ndarray, bitgen: Philox, rng: Generator, out: np.ndarray) -> np.ndarray:
    """The maps of the streams with the given Philox keys, drawn into out.

    A model's map takes R^n, where its P_{n - shift} lies, to R^d: Gaussian,
    or a random orthonormal frame for the projected models.  Each map is
    drawn in place after a re-key, as a fresh generator on that key would
    draw it, and the frames come from one stacked QR.
    """
    for j, key in enumerate(keys.tolist()):
        rekey(bitgen, key)
        rng.standard_normal(out=out[j])
    if not row.gaussian:
        out[:] = _orthonormal_frames(out)
    return out


def hull_f_vector(points: np.ndarray) -> FVectorSample:
    """Exact f-vector (f_0 .. f_{d-1}) of the convex hull of a point cloud.

    qhull's simplices are merged into facets across ridges where the two
    neighbours' [normal, offset] rows differ by at most _FACET_TOL in every
    entry; merging follows the neighbour graph, so one facet is never split
    by where its rows happen to round.  With nothing merged the hull is
    simplicial and goes to _simplicial_f_vectors; merged facets go through
    intersection closure, with faces below the facets ranked at _RANK_TOL
    times the cloud's extent.

    Flat inputs come back flagged degenerate rather than raising; other qhull
    failures raise a degeneracy error.  Dimension is capped at 6: face-lattice
    recovery enumerates vertex subsets and is meant for desk-scale checks.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise InvalidArgumentError("points must be a 2-d array")
    if not np.isfinite(pts).all():
        raise InvalidArgumentError("points must be finite")
    d = pts.shape[1]
    if not (2 <= d <= _MAX_HULL_DIM):
        raise InvalidDimensionError(f"hull dimension must be in 2..{_MAX_HULL_DIM}, got {d}")
    fv = _f_vector_or_simplices(pts)
    if isinstance(fv, FVectorSample):
        return fv
    return FVectorSample(tuple(int(c) for c in _simplicial_f_vectors(fv, [len(fv)])[0]))


def _f_vector_or_simplices(pts: np.ndarray) -> FVectorSample | np.ndarray:
    """The simplices of qhull's hull of pts if it is simplicial, else its f-vector.

    A flat cloud gives a degenerate FVectorSample; a hull with merged facets
    is counted here by intersection closure.  Simplicial hulls are handed
    back as qhull's simplices so that many of them can be counted at once.
    """
    # SciPy loads on the first hull that reaches qhull, not at import
    from scipy.spatial import ConvexHull, QhullError

    m, d = pts.shape
    if m < d + 1:
        return FVectorSample((0,) * d, degenerate=True)
    try:
        hull = ConvexHull(pts)
    except QhullError as exc:
        if np.linalg.matrix_rank(pts - pts[0]) < d:
            return FVectorSample((0,) * d, degenerate=True)
        raise DegenerateGeometryError(f"qhull failed on non-flat input: {exc}") from exc

    simplices, eq, nb = hull.simplices, hull.equations, hull.neighbors
    # neighbouring simplices lie on one facet when their hyperplanes agree;
    # nb[i, j] is the simplex across the ridge opposite vertex j of simplex i
    close = np.abs(eq[nb] - eq[:, None]).max(axis=2) <= _FACET_TOL
    if not close.any():
        return simplices

    # each facet is labelled by the least simplex index among its simplices,
    # spread over close neighbours until no label moves
    label = np.arange(len(simplices))
    while True:
        relaxed = np.minimum(label, np.where(close, label[nb], len(simplices)).min(axis=1))
        if np.array_equal(relaxed, label):
            break
        label = relaxed
    order = np.argsort(label, kind="stable")
    bounds = np.flatnonzero(np.diff(label[order])) + 1
    facet_sets = [frozenset(block.ravel().tolist()) for block in np.split(simplices[order], bounds)]
    if d == 2:
        # a polygon has as many vertices as edges; a merged edge's inner vertex is none
        return FVectorSample((len(facet_sets), len(facet_sets)))

    # merged facets: close the facet vertex sets under intersection, then
    # bucket every face by its affine dimension
    faces: set[frozenset[int]] = set(facet_sets)
    frontier = list(facet_sets)
    while frontier:
        fresh: list[frozenset[int]] = []
        for f in frontier:
            for g in facet_sets:
                h = f & g
                if h and h not in faces:
                    faces.add(h)
                    fresh.append(h)
        frontier = fresh
    # facets are (d-1)-faces by construction; a rank call could call a flat
    # one d-dimensional, so only lower faces are ranked, at the cloud's scale
    rank_tol = _RANK_TOL * float(np.abs(pts - pts.mean(axis=0)).max())
    counts = [0] * d
    counts[d - 1] = len(facet_sets)
    for fs in faces.difference(facet_sets):
        idx = sorted(fs)
        if len(idx) == 1:
            counts[0] += 1
            continue
        rel = pts[idx[1:]] - pts[idx[0]]
        dim = int(np.linalg.matrix_rank(rel, tol=rank_tol))
        if dim <= d - 2:
            counts[dim] += 1
    return FVectorSample(tuple(counts))


def _simplicial_f_vectors(simplices: np.ndarray, sizes) -> np.ndarray:
    """f-vectors, one int64 row per hull, of simplicial hulls given by their simplices.

    The simplices of every hull are stacked hull after hull, sizes[h] of
    hull h.  f_{d-1} counts a hull's simplices, and f_k for k <= d-2 its
    distinct sorted (k+1)-subsets of simplex vertex ids; each f_k of every
    hull comes from one _count_distinct_rows call.
    """
    d = simplices.shape[1]
    ordered = np.sort(simplices, axis=1)
    base = int(ordered.max()) + 1
    owner = np.repeat(np.arange(len(sizes)), sizes)
    rows = np.empty((len(sizes), d), dtype=np.int64)
    rows[:, d - 1] = sizes
    for k in range(d - 1):
        cols = _COLUMN_SUBSETS[d, k + 1]
        subsets = ordered[:, cols].reshape(-1, k + 1)
        rows[:, k] = _count_distinct_rows(subsets, base, np.repeat(owner, len(cols)), len(sizes))
    return rows


def _count_distinct_rows(rows: np.ndarray, base: int, group: np.ndarray, groups: int) -> np.ndarray:
    """Number of distinct rows in each group, for integer rows with entries in [0, base).

    group is the nondecreasing group index (below `groups`) of each row.  A
    row's key has its group as the top digit and its entries as base-`base`
    digits below, so after one sort the keys still sit in group order and one
    bincount over the first key of each run counts every group.  `top` bounds
    the keys read so far; when the next digit could overflow int64 they are
    first renumbered densely, which keeps their order and their distinctness.
    """
    key, top = group.astype(np.int64), groups
    for col in rows.T:
        if top * base > _INT64_MAX:
            key = np.unique(key, return_inverse=True)[1]
            top = len(key)
        key *= base
        key += col
        top *= base
    key.sort()
    first = np.ones(len(key), dtype=bool)
    np.not_equal(key[1:], key[:-1], out=first[1:])
    return np.bincount(group[first], minlength=groups)


@cache
def _minor_levels(m: int, d: int) -> tuple[list, np.ndarray]:
    """Index tables of the d x d minors of an m x d map, by Laplace expansion.

    Row subsets are listed in combinations order.  Level k holds the minors
    on columns 0..k-1 of every k-subset S, expanded along column k-1:
    M_k(S) = sum_p (-1)^(p+k-1) X[S_p, k-1] M_{k-1}(S without S_p), so a
    level is, for each p, one gather of rows at[p], one of the level below
    at sub[p] and a signed add.  Returns the levels 2..d as (at, sub) pairs
    and the d-subsets; built on first use, once per (m, d).
    """
    subsets = [list(combinations(range(m), k)) for k in range(d + 1)]
    where = [{s: r for r, s in enumerate(level)} for level in subsets]
    levels = []
    for k in range(2, d + 1):
        sub = [[where[k - 1][s[:p] + s[p + 1 :]] for p in range(k)] for s in subsets[k]]
        levels.append((np.array(subsets[k]).T, np.array(sub).T))
    top = np.array(subsets[d])
    for table in [*(a for level in levels for a in level), top]:
        table.setflags(write=False)  # shared by every caller through the cache
    return levels, top


def _minors(x: np.ndarray, levels: list) -> np.ndarray:
    """Every d x d minor, shape (C(m, d), maps), of a stack of maps given as x[row, column, map]."""
    chi = x[:, 0]
    for k, (at, sub) in enumerate(levels, start=1):
        # the cofactor of row p in column k has sign (-1)^(p+k)
        col = x[:, k]
        acc = col[at[k]] * chi[sub[k]]
        for p in range(k):
            term = col[at[p]] * chi[sub[p]]
            acc -= term if (k - p) % 2 else -term
        chi = acc
    return chi


@cache
def _side_table(m: int, d: int) -> np.ndarray:
    """Where the side tests of an m x d map sit among its signed minors.

    For the r-th d-subset I and the a-th row i outside it, the minor of X_I
    with its p-th row replaced by x_i is entry swap[p, r, a] of the minors
    stacked on their negatives: the ray table of the (d-1)-subset drop[p, r],
    I without its p-th row, has that minor with i put in sorted order, and
    moving i to position p flips its sign d-1-p times, up to an even count.
    """
    levels, facets = _minor_levels(m, d)
    drop = levels[-1][1]
    top = len(facets)
    outside = np.array([np.setdiff1d(np.arange(m), s) for s in facets]).reshape(top, m - d)
    swap = _covector_tables(m, d)[0][drop[:, :, None], outside]
    swap[d % 2 :: 2] = (swap[d % 2 :: 2] + top) % (2 * top)  # the p with d-1-p odd
    swap.setflags(write=False)  # shared by every caller through the cache
    return swap


@cache
def _covector_tables(n: int, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index tables that read the covectors of n generators in R^d off their d x d minors.

    The ray of the (d-1)-subset S (combinations order) is x -> det[g_S; x],
    so its covector sign at generator i outside S is the sign of chi(S + i)
    times (-1)^(number of S above i).  Entry sign[S, i] indexes the minors
    stacked on their negatives and one zero, which it gives for i in S.
    Covector keys are base 3, digit 0 for a zero, 1 for +, 2 for -, with the
    count of zeros as the digit above the n generator digits: the ray's key
    is off[S] plus 3^i for each negative i, its negative's 2 off[S] minus
    that, and fill[S, f] adds the f-th of the 3^(d-1) fills of S's zeros.
    """
    top = math.comb(n, d)
    where = {s: r for r, s in enumerate(combinations(range(n), d))}
    rays = list(combinations(range(n), d - 1))
    sign = np.full((len(rays), n), 2 * top, dtype=np.intp)
    for r, s in enumerate(rays):
        for i in set(range(n)).difference(s):
            odd = sum(x > i for x in s) % 2
            sign[r, i] = where[tuple(sorted((*s, i)))] + odd * top
    pow3 = 3 ** np.arange(n + 1, dtype=np.int64)
    spans = np.array(rays)
    off = (pow3[n] - 1) // 2 - pow3[spans].sum(axis=1)
    fills = np.array(list(product(range(3), repeat=d - 1)), dtype=np.int64)
    fill = pow3[spans] @ fills.T + (fills == 0).sum(axis=1) * pow3[n]
    for table in (sign, off, fill):
        table.setflags(write=False)  # shared by every caller through the cache
    return sign, off, fill


@cache
def _signed_facets(m: int, d: int) -> np.ndarray:
    """Vertex ids, shape (2^(d-1), C(m, d), 2, d), of each signed d-subset and its antipode.

    Sign vector e has eps_0 = +1 and eps_p = -1 exactly when bit p-1 of e is
    set; in the cloud [X; -X] the point eps_j x_j has id j when eps_j is +1
    and m + j otherwise.
    """
    e = np.arange(1 << (d - 1))[:, None]
    flip = np.concatenate([np.zeros_like(e), (e >> np.arange(d - 1)) & 1], axis=1) * m
    subsets = np.array(list(combinations(range(m), d)))
    ids = np.stack([subsets + flip[:, None], subsets + (m - flip)[:, None]], axis=2)
    ids.setflags(write=False)  # shared by every caller through the cache
    return ids


def _side_tests(row: Model, n: int, d: int) -> int:
    """Side tests of one cloud on the minors route: points outside each candidate facet, per sign vector."""
    tests = math.comb(n, d) * (n - d)
    return tests << (d - 1) if row.family is Family.CROSSPOLYTOPE else tests


def _enumerates(row: Model, n: int, d: int) -> bool:
    """Whether the minors route decides the model's draws at (n, d).

    It takes every cube shape, which SimConfig caps at _MAX_GENERATORS, and
    simplex and crosspolytope images with at most _ENUM_CAP side tests per
    point of the cloud.
    """
    if row.family is Family.CUBE:
        return True
    points = 2 * n if row.family is Family.CROSSPOLYTOPE else n
    return _side_tests(row, n, d) <= _ENUM_CAP * points


def _chunk_size(row: Model, n: int, d: int) -> int:
    """Maps drawn at once: one for shapes qhull decides, on the minors route so many that the largest temporary has about _ENUM_ENTRIES entries.

    That is a cube's covector keys, a ray and its negative with every fill
    for each (d-1)-subset of generators, and a cloud's side tests.
    """
    if not _enumerates(row, n, d):
        return 1
    if row.family is Family.CUBE:
        entries = 2 * math.comb(n, d - 1) * 3 ** (d - 1)
    else:
        entries = max(_side_tests(row, n, d), 1)
    return max(1, _ENUM_ENTRIES // entries)


def _enumerated_facets(maps: np.ndarray, symmetric: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Facets of the hulls of a stack of m x d maps' rows, with their negatives if symmetric.

    With chi(I) the minor of rows I and c_ij the minor of X_I with row j
    replaced by x_i, the point x_i is on the side sum_j c_ij - chi(I) of the
    hyperplane through X_I: so I is a facet of the rows' hull iff that has one
    strict sign for every i outside I.  The signed set eps*I is a facet of the
    symmetric hull iff |sum_j eps_j c_ij| < |chi(I)| for every i outside I,
    and its antipode -eps*I with it.  Each such value is, up to sign, the
    distance of a point from the hyperplane through the d points of I times
    (d-1)! times their (d-1)-volume, which is at most the product over p >= 1
    of |x_{I_p}| + |x_{I_0}|.  A cloud with any value within _ENUM_MARGIN *
    (1 + R) times that product of 0, R its largest point norm, or with
    |2 chi(I)| that small (the points -eps_j x_j), is flagged near and its
    facets are not read.

    Returns the near flags, the simplices of the other clouds in cloud order
    and how many belong to each of those clouds.  Arrays are worked with the
    cloud axis last, so that every gather copies whole rows.
    """
    m, d = maps.shape[1:]
    x = np.ascontiguousarray(maps.transpose(1, 2, 0))
    levels, subsets = _minor_levels(m, d)
    swap = _side_table(m, d)
    chi = _minors(x, levels)
    signed = np.concatenate([chi, -chi])
    norms = np.sqrt((x * x).sum(axis=1))
    volume_bound = np.prod(norms[subsets[:, 1:]] + norms[subsets[:, :1]], axis=1)
    tol = _ENUM_MARGIN * (1 + norms.max(axis=0)) * volume_bound
    side = signed[swap[0]]
    if not symmetric:
        side -= chi[:, None]
        for p in range(1, d):
            side += signed[swap[p]]
        near = (np.abs(side) <= tol[:, None]).any(axis=(0, 1))
        above = (side > 0).sum(axis=1)
        facet = ((above == 0) | (above == side.shape[1])).T[~near]
        return near, subsets[np.nonzero(facet)[1]], facet.sum(axis=1)
    # sums[e] = sum_p eps_p c_ip for sign vector e, built in place one p at a time
    sums = np.empty((1 << (d - 1),) + side.shape)
    sums[0] = side
    for p in range(1, d):
        half = 1 << (p - 1)
        np.take(signed, swap[p], axis=0, out=side)
        np.subtract(sums[:half], side, out=sums[half : 2 * half])
        sums[:half] += side
    size = np.abs(chi)
    np.abs(sums, out=sums)
    sums -= size[:, None]
    facet = (sums < 0).all(axis=2)
    near = (np.abs(sums, out=sums) <= tol[:, None]).any(axis=(0, 1, 2)) | (2 * size <= tol).any(axis=0)
    facet = facet.transpose(2, 0, 1)[~near]
    _, e, r = np.nonzero(facet)
    return near, _signed_facets(m, d)[e, r].reshape(-1, d), 2 * facet.sum(axis=(1, 2))


def zonotope_f_vector(generators: np.ndarray) -> FVectorSample:
    """Exact f-vector of the zonotope sum of segments [0, g_i].

    A k-face is a covector of the generators' hyperplane arrangement with k
    zeros; they are read off the d x d minors of the normalized generators,
    the count simulate runs on a chunk of maps (_zonotope_f_vectors) run on
    one.  Generators not in general position at _GENERAL_POSITION_TOL, a
    zero generator or a minor that small, raise a degeneracy error.
    """
    g = np.asarray(generators, dtype=float)
    if g.ndim != 2:
        raise InvalidArgumentError("generators must be a 2-d array")
    if not np.isfinite(g).all():
        raise InvalidArgumentError("generators must be finite")
    n, d = g.shape
    if not (2 <= d <= _MAX_HULL_DIM):
        raise InvalidDimensionError(f"zonotope dimension must be in 2..{_MAX_HULL_DIM}, got {d}")
    if n > _MAX_GENERATORS:
        raise InvalidDimensionError(f"zonotope enumeration capped at n = {_MAX_GENERATORS}, got {n}")
    if n < d:
        raise DegenerateGeometryError("generators do not span the ambient space")
    flat, rows = _zonotope_f_vectors(g[None])
    if flat[0]:
        raise DegenerateGeometryError(
            f"generators not in general position: a zero generator, or {d} of them nearly on one hyperplane"
        )
    return FVectorSample(tuple(int(c) for c in rows[0]))


def _zonotope_f_vectors(maps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """f-vectors of the zonotopes of a stack of n x d generator maps, n >= d.

    A k-face is a covector sign(G c) of the arrangement of the planes g_i^perp
    with exactly k zeros.  In a simple arrangement every nonzero covector lies
    next to a ray, the null vector of some d-1 generators, and the covectors
    next to a ray are its sign vector with the d-1 zeros filled in all
    3^(d-1) ways; f_k counts the distinct ones with k zeros.  The rays' sign
    vectors are read off the d x d minors of the normalized generators (see
    _covector_tables), and the keys of every map sort together, the map's
    position their top digit, so that one sort and one bincount count them.

    A map is flat when a generator is no longer than _GENERAL_POSITION_TOL
    times the longest, or some d x d minor of the normalized generators is
    no larger than _GENERAL_POSITION_TOL: d-1 of them then nearly fail to
    span a hyperplane, or another lies nearly on it.  Returns the flat flags
    and the f-vector rows of the other maps, in map order.
    """
    m, n, d = maps.shape
    norms = np.sqrt((maps * maps).sum(axis=2))
    short = (norms <= _GENERAL_POSITION_TOL * norms.max(axis=1, keepdims=True)).any(axis=1)
    unit = maps / np.where(norms > 0, norms, 1.0)[:, :, None]
    chi = _minors(np.ascontiguousarray(unit.transpose(1, 2, 0)), _minor_levels(n, d)[0])
    flat = short | (np.abs(chi) <= _GENERAL_POSITION_TOL).any(axis=0)
    chi = chi[:, ~flat]
    kept = chi.shape[1]
    sign, off, fill = _covector_tables(n, d)
    negative = np.concatenate([chi, -chi, np.zeros((1, kept))])[sign] < 0
    unit_key = 3 ** n
    low = np.matmul(3.0 ** np.arange(n), negative).astype(np.int64)  # exact below 2^53
    top = np.arange(kept, dtype=np.int64) * (d * unit_key)  # the map's position, above the zero count
    keys = np.empty((2, len(off), kept, fill.shape[1]), dtype=np.int64)
    keys[0] = (off[:, None] + top + low)[..., None]
    keys[1] = (2 * off[:, None] + top - low)[..., None]
    keys += fill[:, None, :]
    keys = keys.ravel()
    keys.sort()
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return flat, np.bincount(keys[first] // unit_key, minlength=kept * d).reshape(kept, d)


@dataclass(frozen=True)
class SimulationResult:
    config: SimConfig
    means: dict[int, Estimate]
    replications: int
    degenerate_events: int


def _replication_block(args: tuple[str, int, int, int, int, int]) -> tuple[int, np.ndarray, int]:
    """Rows lo..hi-1 of a simulation and their degenerate-attempt count.

    Attempts run in rounds.  Round a takes the replications still undecided,
    gets their attempt-a keys from one derive_keys call and draws their maps,
    a chunk of _chunk_size maps at a time, by re-keying one Philox.  Shapes
    that _enumerates takes are decided on the minors route; the clouds it
    flags, and every cloud of other shapes, go to qhull as drawn.  A flat
    cube map or a cloud qhull finds flat waits for the next round.  The
    simplices of simplicial hulls, from either route, are counted together
    after a chunk that leaves about _COUNT_BATCH of them, and after a round.
    """
    model, n, d, seed, lo, hi = args
    row = MODEL_TABLE[model]
    symmetric = row.family is Family.CROSSPOLYTOPE
    bitgen = Philox(key=0)
    rng = Generator(bitgen)
    enumerates = _enumerates(row, n, d)
    chunk = _chunk_size(row, n, d)
    maps = np.empty((min(chunk, hi - lo), n, d))
    rows = np.zeros((hi - lo, d), dtype=np.int64)
    degen = 0
    # simplicial hulls not counted yet: their simplices, hull after hull, their sizes and block rows
    simplices, sizes, at = [], [], []
    pending = np.arange(hi - lo)  # block rows still undecided, in order
    for attempt in range(_MAX_ATTEMPTS):
        keys = derive_keys(seed, SIM_REPLICATION, MODEL_CODES[model], n, d, lo + pending, attempt)
        flat = []  # per chunk, the block rows whose draws were flat
        for start in range(0, len(pending), chunk):
            todo = pending[start : start + chunk]
            drawn = _sample_maps(row, keys[start : start + chunk], bitgen, rng, maps[: len(todo)])
            if row.family is Family.CUBE:
                # the zonotope of the map's rows; zonotope_f_vector would reject a flat map by this same test
                again, counts = _zonotope_f_vectors(drawn)
                rows[todo[~again]] = counts
                flat.append(todo[again])
                continue
            # the simplex's vertices are the e_i and the crosspolytope's the +-e_i,
            # so their images are the map's rows, and those and their negatives
            again = np.zeros(len(todo), dtype=bool)
            near = ~again
            if enumerates:
                near, facets, counts = _enumerated_facets(drawn, symmetric)
                simplices.append(facets)
                sizes.append(counts)
                at.append(todo[~near])
            for j in np.flatnonzero(near):
                try:
                    fv = _f_vector_or_simplices(symmetrize(drawn[j]) if symmetric else drawn[j])
                except DegenerateGeometryError:  # qhull failed on a cloud it did not find flat
                    fv = FVectorSample((0,) * d, degenerate=True)
                if not isinstance(fv, FVectorSample):
                    simplices.append(fv)
                    sizes.append([len(fv)])
                    at.append(todo[j : j + 1])
                elif fv.degenerate:
                    again[j] = True
                else:
                    rows[todo[j]] = fv.counts
            flat.append(todo[again])
            if at and (sum(map(len, simplices)) >= _COUNT_BATCH or start + chunk >= len(pending)):
                # counted in runs of hulls of about _COUNT_BATCH simplices, one sort per k each
                stacked, sizes, at = np.concatenate(simplices), np.concatenate(sizes), np.concatenate(at)
                ends = np.cumsum(sizes)
                firsts = np.unique((ends - 1) // _COUNT_BATCH, return_index=True)[1]
                for a, b in zip(firsts, [*firsts[1:], len(at)]):
                    rows[at[a:b]] = _simplicial_f_vectors(stacked[ends[a] - sizes[a] : ends[b - 1]], sizes[a:b])
                simplices, sizes, at = [], [], []
        pending = np.concatenate(flat)
        degen += len(pending)
        if not len(pending):
            break
    else:
        index = lo + int(pending[0])
        message = f"replication {index} of model {model} stayed degenerate after {_MAX_ATTEMPTS} attempts"
        raise SimulationAbortError(message, degenerate=_MAX_ATTEMPTS, replications=index)
    return lo, rows, degen


def simulate_expected_f(cfg: SimConfig, dump_path: str | None = None) -> SimulationResult:
    """Empirical mean f-vector over cfg.replications independent draws.

    Results are bit-identical for any worker count: each replication has its
    own derived stream and rows are assembled by index.  A degenerate-draw
    rate above 0.1% aborts the run.
    """
    r = cfg.replications
    blocks = [
        (cfg.model, cfg.n, cfg.d, cfg.seed, lo, min(lo + _BLOCK, r))
        for lo in range(0, r, _BLOCK)
    ]
    rows = np.zeros((r, cfg.d), dtype=np.int64)
    degen = 0
    # a pool starts all its workers at once, so it gets no more than there are blocks
    workers = min(cfg.workers, len(blocks))
    # the dump file is opened first, so a bad path fails before any replication is drawn
    with open(dump_path, "w", newline="", encoding="utf-8") if dump_path is not None else nullcontext() as dump:
        with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
            for lo, block_rows, block_degen in (pool.map if pool else map)(_replication_block, blocks):
                rows[lo : lo + len(block_rows)] = block_rows
                degen += block_degen
        if degen > _DEGENERATE_RATE_LIMIT * r:
            raise SimulationAbortError(
                f"degenerate rate {degen}/{r} exceeds {_DEGENERATE_RATE_LIMIT:.1%}",
                degenerate=degen,
                replications=r,
            )
        if dump is not None:
            writer = csv.writer(dump, lineterminator="\n")
            writer.writerow(["replication"] + [f"f_{k}" for k in range(cfg.d)])
            for i in range(r):
                writer.writerow([i] + [int(v) for v in rows[i]])
    means: dict[int, Estimate] = {}
    for k in range(cfg.d):
        col = rows[:, k].astype(float)
        mean = float(col.mean())
        se = float(col.std(ddof=1) / math.sqrt(r)) if r > 1 else 0.0
        means[k] = Estimate(mean, se)
    return SimulationResult(cfg, means, r, degen)
