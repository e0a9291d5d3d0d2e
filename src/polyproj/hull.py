"""Monte Carlo laboratory: exact f-vectors of sampled random polytopes.

Random models are the rows of families.MODEL_TABLE: model n is the image of
P_{n - shift} under a Gaussian map or a uniform orthogonal projection to R^d.
  gaussian                 convex hull of n iid standard Gaussian points
  symmetric                hull of n Gaussian points and their negatives
  zonotope                 Minkowski sum of n segments [0, g_i], Gaussian g_i
  projected_simplex        image of the (n-1)-simplex (n vertices)
  projected_crosspolytope  image of the n-crosspolytope (2n vertices)
  projected_cube           image of the n-cube (2^n vertices)
The projection's frame is the Q of a Gaussian map G = QR, and the two images
differ by R^-1, a linear bijection of R^d, so they have one face lattice draw
by draw (Baryshnikov & Vitale): simulate counts every model on its Gaussian
map (_sample_maps).

Simulated hulls of the simplex and crosspolytope images (the hull of the map's
rows, or of those and their negatives) are decided a chunk of clouds at a time
from one table of d x d minors of each map, built by Laplace expansion one
column at a time.  Every index table here is built once, on first use, and
shared read-only through a cache: the subsets of _subsets(m, k) in their one
colex order, in which a sorted subset's row is a sum of binomials (_rank) and
the subsets of range(m') lead those of range(m), the levels of the expansion
(_laplace_level), and the one inverted level, _insertions(m, k), which says
where the minor of a (k-1)-subset with one row put after it sits among the
k x k minors.  The side tables of both hull types are gathers of it.  Side
tests are (d+1)-minors of the lifted map [X | 1] for the rows' hull and sums
of d minors for the symmetric one, one sign-vector product per outside
point (_worst_sums).  One within its cloud's margin of zero, four times the
rounding bound of its floats (_rounding_margin), is decided again on ints,
so the route counts the exact f-vector of the drawn floats.  Shapes with
more than _ENUM_CAP side tests go to qhull.  Every array of that route the
size of a chunk is written into one _Workspace that the chunks of a
simulation share, so the chunk size is set by the cache (_ENUM_ENTRIES), not
by the allocator; gathers into it take mode="clip" (_gather).

Hulls that hull_f_vector is asked for, and those clouds, go through qhull,
whose output is triangulated.  SciPy, which wraps qhull, is imported when the
first such hull is built, not with this module: a process that sends no hull
to qhull (the formula commands, simulate of shapes under the cap) never
loads it.  qhull merges facets within _FACET_TOL, so the routes differ only
on a cloud with a point within about 1e-9 (1 + R) of a facet's hyperplane,
R its largest point norm.  Neighbouring simplices lie on one facet when
their [normal, offset] rows agree within _FACET_TOL (hull_f_vector); merged
facets are closed under intersection, and a face lattice that breaks
Euler's relation is a DegenerateGeometryError, which simulate resamples.
A simplicial hull, from either route, has its f-vector fixed by
Dehn-Sommerville, one product with a cached integer matrix
(_simplicial_f_vectors), from its facet count, its vertex
count at d >= 4 and its edge count at d = 6, counted where its facets are
found: off qhull's simplices, or for a chunk of clouds by one product of
their facet flags with a table of which rows and row pairs each candidate
facet holds (_incidence).

A zonotope whose generators are in general position has the f-vector of a
generic central arrangement (Zaslavsky, 1975), expected_f_cube_closed_form,
for every draw, and a projected cube is the zonotope of its map's rows.  So
a cube map is only tested for an exactly zero d x d minor, on the same
filtered minors (_flat_generators).

Every replication draws from its own counter-based stream derived from
(seed, model, n, d, replication index, attempt), so estimates are identical
for any worker count and assembly order.  Each worker takes one contiguous
share of the replications, a block of at most _MAX_BLOCK at a time, and a
run in one process is one share; a block's attempts run in rounds: round a
draws the maps of the replications still undecided on their attempt-a
Philox keys, from one derive_keys call over the column of their indices,
which are the draws derive_generator's generators would give.  SimConfig
caps replications x d at 2^26, which keeps the int64 f-vector rows within
512 MiB and, since d >= 2, every index within one SeedSequence word, and
--dump writes the rows _BLOCK at a time.  Every round's maps
take their shape's route, so reports depend on neither the blocking nor the
worker count; flat draws wait for the next round.
"""

from __future__ import annotations

import csv
import math
import os
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cache
from itertools import combinations, repeat

import numpy as np
from numpy.random import Generator, Philox

from .angles import Estimate
from .errors import (
    DegenerateGeometryError,
    InvalidArgumentError,
    InvalidDimensionError,
    SimulationAbortError,
)
from .expected import expected_f_cube_closed_form
from .families import MODEL_TABLE, Family, Model, check_int, face_count, model_row
from .streams import MODEL_CODES, SIM_REPLICATION, derive_keys

MODELS = tuple(MODEL_TABLE)

_MAX_HULL_DIM = 6
# generators of a cube model's map: it bounds the C(n, d) minors of its
# general-position test, 5005 at n = 15, d = 6, 0.09-0.10 ms a map (2-core VM)
_MAX_GENERATORS = 15
# points of one simplex or crosspolytope hull (n, or 2n for the crosspolytope
# models): one replication at the cap, the formula row included, took 4.4-8.1 s
# and 200-240 MB peak RSS through qhull at d = 6 (gaussian n = 200 000,
# symmetric and projected_crosspolytope n = 100 000), 0.5 s and 77 MB at d = 3
# (symmetric n = 100 000), 2-core x86 VM
_MAX_POINTS = 200_000
_MAX_ATTEMPTS = 5
_DEGENERATE_RATE_LIMIT = 1e-3
_FACET_TOL = 1e-9  # largest entry difference of two simplices' [normal, offset] rows on one facet
_RANK_TOL = 1e-9  # relative to the cloud's extent, on the scale of _FACET_TOL
# replications per unit of the pool-size rule (simulate_expected_f) and per slice of --dump
_BLOCK = 512
# replications of one _replication_block at most: it bounds derive_keys' uint32 and uint64
# temporaries and the block's own rows.  Peak RSS of simulate at 2 * 10^5 replications, one
# process (gaussian n=10 d=3 / symmetric n=8 d=4): 46.8 / 48.2 MB in blocks of 512,
# 47.3 / 48.7 MB at 2^14, 53.1 / 56.0 MB at 2^16 and 57.9 MB in one block
_MAX_BLOCK = 1 << 14
# Side tests per cloud up to which the minors route decides a shape (see
# _side_tests and _enumerates); larger shapes go to qhull.  Time per hull of
# the minors route over qhull's, one 512-cloud block at seed 5 on each route,
# fastest of four, 2-core VM, one thread, equal rows on both routes; side
# tests per cloud in brackets, in thousands (runs moved 10-30 %):
#   gaussian   d=2  n=20 (3.4) 0.14, n=29 (11.0) 0.47, n=30 (12.2) 0.51-0.59
#              d=3  n=12 (2.0) 0.10, n=17 (9.5) 0.41, n=18 (12.2) 0.54-0.63
#              d=4  n=11 (2.3) 0.10, n=14 (10.0) 0.46, n=15 (15.0) 0.79
#              d=5  n=11 (2.8) 0.11-0.13, n=13 (10.3) 0.30-0.35, n=14 (18.0) 0.59-0.69
#              d=6  n=11 (2.3) 0.09-0.10, n=12 (5.5) 0.14-0.18, n=13 (12.0) 0.29-0.32
#   projected_simplex  d=3  n=17 (9.5) 0.53-0.73, n=18 (12.2) 0.41-0.74
#   symmetric  d=2  n=23 (10.6) 0.39, n=24 (12.1) 0.40
#              d=3  n=13 (11.4) 0.32, n=14 (16.0) 0.53
#              d=4  n=10 (10.1) 0.19, n=11 (18.5) 0.26
#              d=5  n=9 (8.1) 0.06-0.07, n=10 (20.2) 0.11-0.14
#              d=6  n=9 (8.1) 0.05, n=10 (26.9) 0.15-0.16
# The gaussian break-even point lies near 15 000 tests at d = 4 and past
# 18 000 at d = 5, the symmetric one past 20 000 at every d.  At 12 000
# every shape taken read at most 0.73 of qhull's time, and a chunk holds at
# least 16 clouds.
_ENUM_CAP = 12_000
# Side tests of a minors-route chunk (see _chunk_size): at 3 << 16 its largest
# temporaries fit a 2 MiB L2.  Microseconds per replication of a whole
# simulate run in one block (1000 replications, 4000 at gaussian n=10 d=3),
# median of 15 runs interleaved over the budgets, 2-core VM, one thread,
# clouds per chunk in brackets:
#                         2^16        2^17        3 << 16     2^18
#   gaussian  n=10 d=3    5.3 (78)    4.5 (156)   4.5 (234)   4.5 (312)
#   gaussian  n=19 d=2   17.0 (22)   11.2 (45)   10.2 (67)   11.0 (90)
#   gaussian  n=10 d=6   24.4 (78)   34.1 (156)  24.9 (234)  32.3 (312)
#   symmetric n=8 d=4    15.3 (29)   11.2 (58)   10.6 (87)   12.0 (117)
#   symmetric n=9 d=3     9.8 (32)    8.4 (65)    7.7 (97)    7.7 (130)
#   symmetric n=19 d=2   24.6 (11)   18.5 (22)   16.8 (33)   15.1 (45)
#   symmetric n=8 d=6    35.1 (36)   29.3 (73)   29.3 (109)  27.7 (146)
# (gaussian n=10 d=6 moved 10-30 % between runs).  2^18 was no faster on the
# benchmark's two shapes, gaussian n=10 d=3 and symmetric n=8 d=4; in
# 512-replication blocks it was no faster either and raised the peak RSS of
# the benchmark's hull_sim workload by 3.5 MB, against 1.1 MB.  Sizing
# symmetric chunks on their 2^(d-1) C(n, d) sums per cloud would make them 4
# to 6 times larger: at 4 times these, n=8 d=4 and n=9 d=3 ran 20-35 % slower.
_ENUM_ENTRIES = 3 << 16


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
        # NumPy integers are stored as Python ints; a standard error takes two replications
        for name, lo in (("n", None), ("d", None), ("replications", 2), ("seed", 0), ("workers", 1)):
            object.__setattr__(self, name, check_int(name, getattr(self, name), lo))
        if not (2 <= self.d <= _MAX_HULL_DIM):
            raise InvalidDimensionError(f"hull dimension must be in 2..{_MAX_HULL_DIM}, got {self.d}")
        if self.replications * self.d > 2**26:  # int64 rows within 512 MiB, each index one SeedSequence word
            raise InvalidArgumentError(f"replications x d must be <= 2^26, got {self.replications} x {self.d}")
        min_n = self.d + row.shift
        if self.n < min_n:
            raise InvalidDimensionError(
                f"model {self.model} needs n >= {min_n} for a full-dimensional hull, got {self.n}"
            )
        if row.family is Family.CUBE and self.n > _MAX_GENERATORS:
            raise InvalidDimensionError(
                f"model {self.model} capped at n = {_MAX_GENERATORS}, got {self.n}"
            )
        points = face_count(row.family, self.n - row.shift, 0)
        if points > _MAX_POINTS:
            raise InvalidDimensionError(
                f"model {self.model} capped at {_MAX_POINTS} hull points, got {points} at n = {self.n}"
            )


def random_orthonormal_frame(ambient: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed ambient x d matrix with orthonormal columns.

    QR of a Gaussian matrix with the R-diagonal sign fixed, which makes the
    draw both Haar and a deterministic function of the stream.
    """
    if d > ambient:
        raise InvalidDimensionError(f"frame needs d <= ambient, got {d} > {ambient}")
    q, r = np.linalg.qr(rng.standard_normal((ambient, d)))
    return q * np.sign(np.diagonal(r))


def sample_gaussian(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal((n, d))


def symmetrize(cloud: np.ndarray) -> np.ndarray:
    return np.vstack([cloud, -cloud])


def _sample_maps(keys: np.ndarray, bitgen: Philox, rng: Generator, out: np.ndarray) -> np.ndarray:
    """The n x d Gaussian maps of the streams with the given Philox keys, drawn into out.

    A model's map takes R^n, where its P_{n - shift} lies, to R^d.  Each map
    is drawn in place after a re-key, as a fresh generator on that key would
    draw it.  The projected models take the same Gaussian map G: their frame
    is the Q of G = QR (random_orthonormal_frame), whose image of
    P_{n - shift} is G's image moved by R^-1 and has its face lattice, so no
    frame is built.
    """
    state = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": None},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for key, image in zip(keys.tolist(), out):
        state["state"]["key"] = key
        bitgen.state = state
        rng.standard_normal(out=image)
    return out


def _real_rows(values, name: str, what: str) -> np.ndarray:
    """values as finite float rows in R^d, 2 <= d <= _MAX_HULL_DIM; unreadable, ragged or non-finite input is an InvalidArgumentError."""
    try:
        if np.iscomplexobj(values):  # NumPy would drop the imaginary parts with a warning
            raise TypeError("complex entries")
        a = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:  # ragged rows, text, complex entries
        raise InvalidArgumentError(f"{name} must be an array of real numbers ({exc})") from None
    if a.ndim != 2:
        raise InvalidArgumentError(f"{name} must be a 2-d array")
    if not np.isfinite(a).all():
        raise InvalidArgumentError(f"{name} must be finite")
    if not (2 <= a.shape[1] <= _MAX_HULL_DIM):
        raise InvalidDimensionError(f"{what} dimension must be in 2..{_MAX_HULL_DIM}, got {a.shape[1]}")
    return a


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
    failures, and merged facets whose count breaks Euler's relation, raise a
    degeneracy error.  Dimension is capped at 6: face-lattice
    recovery closes the facet vertex sets under intersection and is meant
    for desk-scale checks.
    """
    return _qhull_f_vector(_real_rows(points, "points", "hull"))


def _qhull_f_vector(pts: np.ndarray) -> FVectorSample:
    """The f-vector of qhull's hull of pts; a flat cloud gives a degenerate one.

    A simplicial hull has its vertices (the distinct ids of its simplices)
    and, at d = 6, its edges (the distinct sorted id pairs) counted for
    _simplicial_f_vectors; a hull with merged facets is counted by
    intersection closure, and a count that breaks Euler's relation raises a
    degeneracy error.
    """
    # SciPy loads here, on the first hull that needs it
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
    # nb[i, j] is the simplex across the ridge opposite vertex j of simplex i,
    # and each ridge is tested once, from its simplex of smaller index
    i, j = np.nonzero(nb > np.arange(len(nb))[:, None])
    diff = eq.take(nb[i, j], axis=0)
    diff -= eq.take(i, axis=0)
    if not (np.abs(diff, out=diff) <= _FACET_TOL).all(axis=1).any():
        lower = []
        if d > 3:
            lower.append(_distinct(simplices))
        if d == 6:
            ordered = np.sort(simplices, axis=1).astype(np.int64)
            first, second = _subsets(d, 2).T
            lower.append(_distinct(ordered[:, first] * m + ordered[:, second]))
        return FVectorSample(tuple(_simplicial_f_vectors(np.array([1, *lower, len(simplices)]), d).tolist()))

    # each facet is labelled by the least simplex index among its simplices,
    # spread over close neighbours until no label moves
    close = np.abs(eq[nb] - eq[:, None]).max(axis=2) <= _FACET_TOL
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
    # a point just off a facet can leave some of its near-coplanar simplices
    # unmerged, and the closure then miscounts
    if sum((-1) ** k * f for k, f in enumerate(counts)) != 1 - (-1) ** d:
        raise DegenerateGeometryError(f"merged facets gave f-vector {tuple(counts)}, which breaks Euler's relation")
    return FVectorSample(tuple(counts))


def _distinct(ids: np.ndarray) -> int:
    """How many distinct entries a nonempty integer array has, by one sort: np.unique took about twice as long on one hull's ids."""
    ids = np.sort(ids, axis=None)
    return 1 + int(np.count_nonzero(ids[1:] != ids[:-1]))


@cache
def _dehn_sommerville(d: int) -> np.ndarray:
    """The int64 matrix M with 2 (f_0 .. f_{d-1}) = [1, f_0 .. f_{d/2-2}, f_{d-1}] @ M for every simplicial d-polytope.

    The boundary of a simplicial d-polytope has the h-vector
    h_j = sum_{i<=j} (-1)^(j-i) C(d-i, j-i) f_{i-1}, f_{-1} = 1, with
    h_j = h_{d-j} (Dehn-Sommerville), and f_{k-1} = sum_{i<=k} C(d-i, k-i) h_i.
    The known counts give h_j for j < d/2; the facet count, sum_j h_j, gives
    the middle entry, which appears twice at odd d: so each row is built on 2 h.
    """
    half = d // 2
    rows = []
    for known in np.eye(half + 1, dtype=int).tolist():
        h = [2 * sum((-1) ** (j - i) * math.comb(d - i, j - i) * known[i] for i in range(j + 1)) for j in range(half)]
        h.append((2 * known[half] - 2 * sum(h)) // (1 + d % 2))
        h += h[d - half - 1 :: -1]
        rows.append([sum(math.comb(d - i, k - i) * h[i] for i in range(k + 1)) for k in range(1, d + 1)])
    table = np.array(rows, dtype=np.int64)
    table.setflags(write=False)  # shared by every caller through the cache
    return table


def _simplicial_f_vectors(known: np.ndarray, d: int) -> np.ndarray:
    """f_0 .. f_{d-1} of simplicial d-polytopes, along the last axis, from their int64 rows [1, f_0 .. f_{d/2-2}, f_{d-1}].

    One hull's row and a chunk's rows take the same product with
    _dehn_sommerville(d).  Both routes hand in the boundary of a simplicial
    d-polytope: qhull's with no facet merged, the minors route's with no
    side test exactly zero.
    """
    rows = known @ _dehn_sommerville(d)
    rows //= 2
    return rows


@cache
def _subsets(m: int, k: int) -> np.ndarray:
    """The k-subsets of range(m), shape (C(m, k), k), each sorted, in colex order: every index table's one order.

    Colex order sorts the subsets by their reversed tuples, so the k-subsets
    of range(m') are the first C(m', k) rows for every m' < m, and the row of
    a subset is _rank's sum of binomials.
    """
    rows = sorted(combinations(range(m), k), key=lambda s: s[::-1])
    rows = np.array(rows, dtype=np.intp).reshape(math.comb(m, k), k)
    rows.setflags(write=False)  # shared by every caller through the cache
    return rows


def _rank(sets: np.ndarray) -> np.ndarray:
    """The rows in _subsets' colex order of the sorted subsets along sets' last axis: sum_i C(S_i, i + 1)."""
    top, k = int(sets.max(initial=0)), sets.shape[-1]
    binomials = np.array([[math.comb(a, i) for i in range(1, k + 1)] for a in range(top + 1)], dtype=np.intp)
    return binomials[sets, np.arange(k)].sum(axis=-1)


@cache
def _laplace_level(m: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Index tables of level k of the Laplace expansion of the minors of an m-row map.

    Level k holds the minors on columns 0..k-1 of each k-subset S, a row of
    _subsets(m, k), expanded along column k-1:
    M_k(S) = sum_p (-1)^(p+k-1) X[S_p, k-1] M_{k-1}(S without S_p), so a
    level is, for each p, one gather of rows at[p], one of the level below
    at sub[p], the _rank of S without S_p, and a signed add.  Returns
    (at, sub), each of shape (k, C(m, k)).
    """
    sets = _subsets(m, k)
    # row p of _subsets(k, k - 1)[::-1] is the columns of S without S_p
    sub = _rank(sets[:, _subsets(k, k - 1)[::-1]]).T
    sub.setflags(write=False)  # shared by every caller through the cache
    return sets.T, sub


class _Workspace:
    """Buffers that the chunks of a simulation write their temporaries into, one per name.

    A buffer is allocated when a chunk first asks it for more entries than it
    holds: the first full chunk sizes it, and every later chunk, the short
    last one included, writes into its leading entries.  Nothing is read that
    the same chunk did not write.
    """

    def __init__(self):
        self.buffers: dict[str, np.ndarray] = {}

    def array(self, name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """A C-contiguous array of the given shape on the leading entries of the buffer name; its values are left over."""
        size = math.prod(shape)
        buffer = self.buffers.get(name)
        if buffer is None or buffer.size < size or buffer.dtype != dtype:
            buffer = self.buffers[name] = np.empty(size, dtype)
        return buffer[:size].reshape(shape)


def _gather(source: np.ndarray, index: np.ndarray, out: np.ndarray) -> np.ndarray:
    """source[index] written into out; every index table here is in range by construction, which a test checks.

    With mode="raise" NumPy takes through a copy of out, which cost a third
    of a gaussian n=10 d=3 chunk's time (README).
    """
    return source.take(index, axis=0, out=out, mode="clip")


def _minors(x: np.ndarray, work: _Workspace) -> np.ndarray:
    """Every d x d minor, shape (C(m, d), maps), of a stack of m x d maps given as x[row, column, map], built in work."""
    m, d = x.shape[:2]
    chi = x[:, 0]
    for k in range(1, d):
        at, sub = _laplace_level(m, k + 1)
        # the cofactor of row p in column k has sign (-1)^(p+k)
        col = x[:, k]
        shape = (at.shape[1], x.shape[2])
        acc = _gather(col, at[k], work.array(f"level{k % 2}", shape))
        term, factor = work.array("term", shape), work.array("factor", shape)
        acc *= _gather(chi, sub[k], factor)
        for p in range(k):
            _gather(col, at[p], term)
            term *= _gather(chi, sub[p], factor)
            if (k - p) % 2:
                acc -= term
            else:
                acc += term
        chi = acc
    return chi


def _lifted_minors(chi: np.ndarray, m: int, d: int, work: _Workspace) -> np.ndarray:
    """Every (d+1) x (d+1) minor D(J), shape (C(m, d+1), maps), of the lifted maps [X | 1], from their d x d minors chi, built in work.

    It is level d + 1 of the Laplace expansion: its column is all ones, so
    D(J) = sum_r (-1)^(r+d) chi(J without J_r) takes signed adds only.
    """
    sub = _laplace_level(m, d + 1)[1]
    shape = (sub.shape[1], chi.shape[1])
    lifted = _gather(chi, sub[d], work.array("lifted", shape))
    term = work.array("term", shape)
    for r in range(d):
        if (d - r) % 2:
            lifted -= _gather(chi, sub[r], term)
        else:
            lifted += _gather(chi, sub[r], term)
    return lifted


@cache
def _insertions(m: int, k: int) -> np.ndarray:
    """Where the minor of each (k-1)-subset with one more row sits among the k x k minors of an m-row map.

    Entry [S, i], for the (k-1)-subset S (colex order) and a row i
    outside it, is chi(S + i) times (-1)^(number of S above i), the minor of
    the rows of S followed by row i: an index into the minors stacked on
    their negatives and one zero, which it gives for i in S.  The table
    inverts level k of the Laplace expansion: the k-subset T is sub[p] + T_p
    with k-1-p rows of sub[p] above T_p.  Every other index table that puts
    a row into a subset is a gather of this one.
    """
    sets = _subsets(m, k)
    top = len(sets)
    table = np.full((math.comb(m, k - 1), m), 2 * top, dtype=np.intp)
    for p, sub in enumerate(_laplace_level(m, k)[1]):
        table[sub, sets[:, p]] = np.arange(top) + (k - 1 - p) % 2 * top
    table.setflags(write=False)  # shared by every caller through the cache
    return table


@cache
def _lifted_side_table(m: int, d: int) -> np.ndarray:
    """Where the side tests of the rows of an m x d map sit among the minors of [X | 1].

    For the r-th d-subset I and the a-th row i outside it, the point x_i is
    on the side -det[X_I, 1; x_i, 1] of the hyperplane through X_I, the
    negative of _insertions(m, d+1)'s entry [I, i]: that entry of the minors
    D stacked on their negatives, moved by C(m, d+1) to its negative.
    """
    top = math.comb(m, d + 1)
    # the rows outside each d-subset: complements reverse colex order
    table = (np.take_along_axis(_insertions(m, d + 1), _subsets(m, m - d)[::-1], axis=1) + top) % (2 * top)
    table.setflags(write=False)  # shared by every caller through the cache
    return table


@cache
def _side_table(m: int, d: int) -> np.ndarray:
    """Where the side tests of an m x d map sit among its signed minors, point-major: shape (m - d, d, C(m, d)).

    For the r-th d-subset I and the a-th row i outside it, the minor of X_I
    with its p-th row replaced by x_i is entry [a, p, r] of the minors
    stacked on their negatives: _insertions(m, d) puts i into I without its
    p-th row, the (d-1)-subset sub[p, r] of level d, and moving i from the
    end to position p flips its sign d-1-p times.
    """
    top = math.comb(m, d)
    # the rows outside each d-subset: complements reverse colex order
    swap = _insertions(m, d)[_laplace_level(m, d)[1][:, :, None], _subsets(m, m - d)[::-1]]
    swap[d % 2 :: 2] = (swap[d % 2 :: 2] + top) % (2 * top)  # the p with d-1-p odd
    swap = np.ascontiguousarray(swap.transpose(2, 0, 1))
    swap.setflags(write=False)  # shared by every caller through the cache
    return swap


@cache
def _sign_vectors(d: int) -> np.ndarray:
    """The sign vectors eps of the symmetric hull's candidates, shape (2^(d-1), d): eps_0 = +1, eps_p = -1 exactly when bit p-1 of e is set."""
    signs = 1 - 2 * ((np.arange(1 << (d - 1))[:, None] << 1 >> np.arange(d)) & 1)
    signs.setflags(write=False)  # shared by every caller through the cache
    return signs


def _worst_sums(chi: np.ndarray, m: int, d: int, work: _Workspace) -> np.ndarray:
    """The largest |sum_p eps_p c_ap| over the rows a outside each d-subset I, shape (2^(d-1), C(m, d), maps), 0 at m = d.

    c_ap is the minor of X_I with its p-th row replaced by x_a, read from
    the minors chi stacked on their negatives; a point's sums for every
    sign vector are one product of _sign_vectors with its d gathered
    minors, folded into a running maximum, built in work.
    """
    top, clouds = chi.shape
    signs = _sign_vectors(d).astype(float)
    signed = work.array("signed", (2 * top, clouds))
    signed[:top] = chi
    np.negative(chi, out=signed[top:])
    worst = work.array("worst", (len(signs), top * clouds))
    if m == d:
        worst.fill(0.0)
    side, sums = work.array("side", (d, top, clouds)), work.array("sums", worst.shape)
    for a, rows in enumerate(_side_table(m, d)):
        out = sums if a else worst
        np.abs(np.matmul(signs, _gather(signed, rows, side).reshape(d, -1), out=out), out=out)
        if a:
            np.maximum(worst, sums, out=worst)
    return worst.reshape(len(signs), top, clouds)


@cache
def _incidence(m: int, d: int, symmetric: bool) -> np.ndarray:
    """Which rows, and at d = 6 which row pairs, each candidate facet of an m x d map's hull holds: 0/1 floats.

    Rows are the candidates _enumerated_facets flags: the d-subsets I in
    colex order, for the symmetric hull the signed sets eps*I, one
    _sign_vectors row after another.  Column i is row i; at d = 6, column
    m + P + C(m, 2) s is the P-th pair (i, j) (colex order, its _rank) with
    s = 1 where eps_i eps_j = -1; the last column is all ones, for the facet
    count.  A symmetric hull's faces come in antipodal pairs, eps*J and
    -eps*J, which share their column.
    """
    sets = _subsets(m, d)
    signs = _sign_vectors(d)[: 1 << (d - 1) if symmetric else 1]
    cols = [np.broadcast_to(sets, (len(signs), *sets.shape))]
    if d == 6:
        pairs = _subsets(d, 2)
        relative = signs[:, pairs[:, 0]] != signs[:, pairs[:, 1]]
        cols.append(m + _rank(sets[:, pairs]) + math.comb(m, 2) * relative[:, None])
    cols = np.concatenate(cols, axis=2).reshape(len(signs) * len(sets), -1)
    table = np.zeros((len(cols), int(cols.max()) + 2))
    np.put_along_axis(table, cols, 1.0, axis=1)
    table[:, -1] = 1.0
    table.setflags(write=False)  # shared by every caller through the cache
    return table


def _side_tests(row: Model, n: int, d: int) -> int:
    """Side tests of one cloud on the minors route: points outside each candidate facet, per sign vector."""
    tests = math.comb(n, d) * (n - d)
    return tests << (d - 1) if row.family is Family.CROSSPOLYTOPE else tests


def _enumerates(row: Model, n: int, d: int) -> bool:
    """Whether the minors route decides the model's draws at (n, d): every cube shape (capped at _MAX_GENERATORS), else up to _ENUM_CAP side tests per cloud."""
    return row.family is Family.CUBE or _side_tests(row, n, d) <= _ENUM_CAP


def _chunk_size(row: Model, n: int, d: int) -> int:
    """Maps drawn at once: one for shapes qhull decides, on the minors route so many that they have about _ENUM_ENTRIES side tests.

    The rows' hull holds a sign bit per side test, the symmetric hull the
    sums of one outside point at a time, and a cube map its C(n, d) minors,
    both n - d times fewer: sizing cube chunks on the minors was no faster
    (512 maps, medians of 15, zonotope n=12 d=5 20.7 ms against 16.2, n=15
    d=6 118 against 126).
    """
    if not _enumerates(row, n, d):
        return 1
    return max(1, _ENUM_ENTRIES // max(_side_tests(row, n, d), 1))


def _dyadic(rows: list) -> list:
    """A float matrix's exact values as ints over one shared power of two (math.frexp)."""
    parts = [[math.frexp(v) for v in row] for row in rows]
    low = min(e for row in parts for _, e in row)
    return [[int(f * 2.0**53) << (e - low) for f, e in row] for row in parts]


def _fraction_free(rows) -> tuple[int, list]:
    """det A and N = det A * A^-1 B for the int rows of [A | B], A square, by fraction-free (Bareiss) Gauss-Jordan elimination.

    Past column s, step s leaves (s+1)-minors, so each division is exact.  A
    zero pivot takes the next row nonzero there; a singular A gives 0, N = 0.
    """
    a = [list(row) for row in rows]
    k, sign, prev = len(a), 1, 1
    solve = len(a[0]) > k  # rows above a pivot only feed N
    for s in range(k):
        r = next((r for r in range(s, k) if a[r][s]), None)
        if r is None:
            return 0, [[0] * (len(row) - k) for row in a]
        if r != s:
            a[s], a[r], sign = a[r], a[s], -sign
        top, pivot = a[s][s + 1 :], a[s][s]
        for row in (a[:s] if solve else []) + a[s + 1 :]:
            row[s + 1 :] = [(pivot * v - row[s] * t) // prev for v, t in zip(row[s + 1 :], top)]
        prev = pivot
    return sign * prev, [[sign * v for v in row[k:]] for row in a]


@cache
def _rounding_margin(d: int) -> float:
    """The float filter's margin at d, per (1 + R)(2R)^(d-1) of a cloud whose largest point norm is R.

    A minor of d rows or a lifted one of d + 1, summed by Laplace in at most
    N = (d+1)(d+2)/2 rounded steps, errs by at most (d+1)! gamma_N
    (gamma_N = N u / (1 - N u), u = 2^-53) times the largest product of d
    of its rows' norms, and a symmetric side sum by that times (1 + R)
    prod_{p>=1} (|x_{I_p}| + |x_{I_0}|): (1 + R)(2R)^(d-1) bounds both
    products.  The factor 4 covers the symmetric test's two operands, its
    worst sum and |chi(I)|, and the rounding of the margin itself.
    """
    steps = (d + 1) * (d + 2) // 2
    return 4 * math.factorial(d + 1) * steps * 2.0**-53 / (1 - steps * 2.0**-53)


def _filtered_minors(maps: np.ndarray, work: _Workspace) -> tuple[np.ndarray, np.ndarray]:
    """The d x d minors of a stack of m x d maps, built in work, and each map's margin: _rounding_margin(d) (1 + R)(2R)^(d-1), R its largest row norm."""
    clouds, m, d = maps.shape
    x = work.array("x", (m, d, clouds))
    np.copyto(x, maps.transpose(1, 2, 0))
    largest = np.sqrt(np.multiply(x, x, out=work.array("square", x.shape)).sum(axis=1).max(axis=0))
    return _minors(x, work), _rounding_margin(d) * (1 + largest) * (2 * largest) ** (d - 1)


def _enumerated_facets(maps: np.ndarray, symmetric: bool, work: _Workspace) -> tuple[np.ndarray, np.ndarray]:
    """f-vectors of the hulls of a stack of m x d maps' rows, with their negatives if symmetric, from their facets.

    The point x_i is on the side -det[X_I, 1; x_i, 1] of the hyperplane
    through X_I, which is +-D(J) for the (d+1)-minor D of the lifted map
    [X | 1] on J = I + i (_lifted_minors, read through _lifted_side_table):
    so I is a facet of the rows' hull iff those have one strict sign for
    every i outside I.  With chi(I) the minor of rows I and c_ij the minor of
    X_I with row j replaced by x_i, the signed set eps*I is a facet of the
    symmetric hull iff the largest |sum_j eps_j c_ij| over i outside I, its
    worst point's (_worst_sums), is below |chi(I)|, and its antipode with it.
    |chi(I)| -+ sum_j eps_j c_ij is, up to sign, the distance of x_i from
    the hyperplane through eps*I times (d-1)! times their (d-1)-volume,
    which is at most the product over p >= 1 of |x_{I_p}| + |x_{I_0}|.

    The float values are a filter (Shewchuk's static filter): each errs by
    at most a quarter of its cloud's margin (_filtered_minors).  A cloud
    with a value within its margin of 0 is decided again on its exact
    floats, and only those values: a D(J), or every eps*I of an I whose
    worst value less |chi(I)|, or |2 chi(I)| (the points -eps_j x_j), is
    that small.  An exact zero is a flat draw.

    The other clouds' facet flags give their facet counts and, at d >= 4 in
    one product with _incidence, their vertex counts and at d = 6 edge
    counts, each doubled for the symmetric hull, whose faces come in
    antipodal pairs; _simplicial_f_vectors does the rest.  Returns the flat
    flags and the int64 f-vector rows of the other clouds, in cloud order.
    Arrays are worked with the cloud axis last, so that every gather copies
    whole rows, and every array the size of a chunk is written into work.
    """
    clouds, m, d = maps.shape
    subsets = _subsets(m, d)
    chi, margin = _filtered_minors(maps, work)
    flat = np.zeros(clouds, dtype=bool)
    if not symmetric:
        lifted = _lifted_minors(chi, m, d, work)
        smallest = np.abs(lifted, out=work.array("term", lifted.shape)).min(axis=0)
        for c in np.flatnonzero(smallest <= margin):
            ints = _dyadic([[*p, 1.0] for p in maps[c].tolist()])
            for j in np.flatnonzero(np.abs(lifted[:, c]) <= margin[c]):
                det = _fraction_free([ints[i] for i in _subsets(m, d + 1)[j]])[0]
                lifted[j, c] = (det > 0) - (det < 0)
                flat[c] |= det == 0
        top = len(lifted)
        signs = work.array("signs", (2 * top, clouds), bool)
        np.greater(lifted, 0, out=signs[:top])
        np.less(lifted, 0, out=signs[top:])
        table = _lifted_side_table(m, d)
        side = _gather(signs, table, work.array("side", (*table.shape, clouds), bool))
        above = side.sum(axis=1, dtype=np.uint8, out=work.array("above", (len(table), clouds), np.uint8))
        facet = np.equal(above, 0, out=work.array("facet", above.shape, bool))
        facet |= np.equal(above, m - d, out=work.array("full", above.shape, bool))
    else:
        size = np.abs(chi, out=work.array("size", chi.shape))
        worst = _worst_sums(chi, m, d, work)
        # eps*I is decided on its worst outside point
        facet = np.less(worst, size, out=work.array("facet", worst.shape, bool))
        # the value nearest a decision for each I: |2 chi(I)|, for the points
        # -eps_j x_j, and with points outside I each |worst - |chi(I)||
        closest = np.multiply(size, 2, out=work.array("closest", size.shape))
        if m > d:
            np.minimum(closest, np.abs(np.subtract(worst, size, out=worst), out=worst).min(axis=0), out=closest)
        outside = _subsets(m, m - d)[::-1]  # complements reverse colex order
        for c in np.flatnonzero(closest.min(axis=0) <= margin):
            ints = _dyadic(maps[c].tolist())
            for r in np.flatnonzero(closest[:, c] <= margin[c]):
                # chi(I) and coef[p][a] = c_ap from [X_I^T | X_outside^T]
                det, coef = _fraction_free(zip(*(ints[i] for i in (*subsets[r], *outside[r]))))
                peak = np.abs(_sign_vectors(d).astype(object) @ np.array(coef, dtype=object)).max(axis=1, initial=0)
                facet[:, r, c] = peak < abs(det)
                flat[c] |= (peak == abs(det)).any()
        facet = facet.reshape(-1, clouds)
    # facet[r, c]: whether candidate r is a facet of cloud c; the rows of flat clouds are counted and dropped
    known = work.array("known", (clouds, d // 2 + 1), np.int64)
    known[:, 0] = 1
    if d > 3:
        flags = work.array("flags", facet.shape)
        np.copyto(flags, facet)
        product = flags.T @ _incidence(m, d, symmetric)
        known[:, -1] = product[:, -1]
        hit = product[:, :-1] > 0
        hit[:, :m].sum(axis=1, out=known[:, 1])
        if d == 6:
            hit[:, m:].sum(axis=1, out=known[:, 2])
    else:
        facet.sum(axis=0, out=known[:, 1])
    if symmetric:  # a face and its antipode
        known[:, 1:] *= 2
    rows = _simplicial_f_vectors(known, d)
    return flat, rows[~flat]


def zonotope_f_vector(generators: np.ndarray) -> FVectorSample:
    """Exact f-vector of the zonotope sum of segments [0, g_i].

    Generators in general position, every d of them independent, give a
    generic central arrangement's face lattice, expected_f_cube_closed_form,
    near-flat ones included.  simulate's test (_flat_generators) finds an
    exactly zero d x d minor, as a zero generator's are: a degeneracy error.
    """
    g = _real_rows(generators, "generators", "zonotope")
    n, d = g.shape
    if n > _MAX_GENERATORS:
        raise InvalidDimensionError(f"zonotope general-position test capped at n = {_MAX_GENERATORS} generators, got {n}")
    if n < d:
        raise DegenerateGeometryError("generators do not span the ambient space")
    if _flat_generators(g[None], _Workspace())[0]:
        raise DegenerateGeometryError(f"generators not in general position: {d} of them on one hyperplane")
    return FVectorSample(tuple(expected_f_cube_closed_form(n, d, k) for k in range(d)))


def _flat_generators(maps: np.ndarray, work: _Workspace) -> np.ndarray:
    """Which of a stack of n x d generator maps, n >= d, are not in general position: some d x d minor is exactly 0.

    The float minors are a filter (_filtered_minors): those not beyond their
    map's margin from 0, an overflow's inf and NaN included, are decided on
    ints, so NumPy's overflow and invalid-value warnings are not raised.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        chi, margin = _filtered_minors(maps, work)
        size = np.abs(chi, out=work.array("size", chi.shape))
        # the chunk's widest margin first: one number is several times faster
        sure = np.greater(size, margin.max(), out=work.array("sure", chi.shape, bool))
    flat = np.zeros(len(maps), dtype=bool)
    if sure.all():
        return flat
    r, c = np.nonzero(~sure)
    keep = ~(size[r, c] > margin[c])
    for cloud in np.unique(c[keep]):
        ints = _dyadic(maps[cloud].tolist())
        flat[cloud] = any(_fraction_free([ints[i] for i in s])[0] == 0 for s in _subsets(*maps.shape[1:])[r[keep & (c == cloud)]])
    return flat


@dataclass(frozen=True)
class SimulationResult:
    config: SimConfig
    means: dict[int, Estimate]
    replications: int
    degenerate_events: int


def _replication_block(args: tuple[str, int, int, int, int, int], work: _Workspace) -> tuple[int, np.ndarray, int]:
    """Rows lo..hi-1 of a simulation and their degenerate-attempt count.

    Attempts run in rounds.  Round a takes the replications still undecided,
    gets their attempt-a keys from one derive_keys call and draws their
    Gaussian maps, a chunk of _chunk_size maps at a time, by re-keying one
    Philox; a projected model is counted on that map, not on its frame.  A cube
    map in general position takes the closed-form row, built once per block.
    Other shapes that _enumerates takes are decided on the minors route and
    the rest on qhull, a cloud a chunk; a draw found flat waits for the next
    round.  Each chunk writes its rows as soon as they are counted, and its
    maps and temporaries into work, which every block run in one process can
    share.  A replication's row depends only on its own streams, so any
    split of a range into blocks gives the same rows and count.
    """
    model, n, d, seed, lo, hi = args
    row = MODEL_TABLE[model]
    symmetric = row.family is Family.CROSSPOLYTOPE
    bitgen = Philox(key=0)
    rng = Generator(bitgen)
    enumerates = _enumerates(row, n, d)
    chunk = _chunk_size(row, n, d)
    if row.family is Family.CUBE:
        cube = [expected_f_cube_closed_form(n, d, k) for k in range(d)]
    maps = work.array("maps", (min(chunk, hi - lo), n, d))
    rows = np.zeros((hi - lo, d), dtype=np.int64)
    degen = 0
    pending = np.arange(hi - lo)  # block rows still undecided, in order
    for attempt in range(_MAX_ATTEMPTS):
        keys = derive_keys(seed, SIM_REPLICATION, MODEL_CODES[model], n, d, lo + pending, attempt)
        flat = []  # per chunk, the block rows whose draws were flat
        for start in range(0, len(pending), chunk):
            todo = pending[start : start + chunk]
            drawn = _sample_maps(keys[start : start + chunk], bitgen, rng, maps[: len(todo)])
            if row.family is Family.CUBE:
                # the zonotope of the map's rows
                again = _flat_generators(drawn, work)
                rows[todo[~again]] = cube
            # the simplex's vertices are the e_i and the crosspolytope's the +-e_i,
            # so their images are the map's rows, and those and their negatives
            elif enumerates:
                again, counts = _enumerated_facets(drawn, symmetric, work)
                rows[todo[~again]] = counts
            else:  # one cloud a chunk
                try:
                    fv = _qhull_f_vector(symmetrize(drawn[0]) if symmetric else drawn[0])
                except DegenerateGeometryError:  # qhull failed on a cloud it did not find flat
                    fv = FVectorSample((0,) * d, degenerate=True)
                rows[todo[0]], again = fv.counts, np.array([fv.degenerate])
            flat.append(todo[again])
        pending = np.concatenate(flat)
        degen += len(pending)
        if not len(pending):
            break
    else:
        index = lo + int(pending[0])
        message = f"replication {index} of model {model} stayed degenerate after {_MAX_ATTEMPTS} attempts"
        raise SimulationAbortError(message, degenerate=_MAX_ATTEMPTS, replications=index)
    return lo, rows, degen


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def simulate_expected_f(cfg: SimConfig, dump_path: str | None = None) -> SimulationResult:
    """Empirical mean f-vector over cfg.replications independent draws.

    Each worker takes one contiguous share of the replications, so a run in
    one process of up to _MAX_BLOCK replications derives each round's keys
    in one call and its chunks run on past every _BLOCK edge.  Results are
    bit-identical for any worker count: each replication has its own
    derived stream and rows are assembled by index.  A degenerate-draw rate
    above 0.1% aborts the run.
    """
    r = cfg.replications
    # a pool starts all its workers at once, so it gets no more than there are _BLOCK-replication units or CPUs
    workers = min(cfg.workers, -(-r // _BLOCK), _usable_cpus())
    # one contiguous share per worker, cut into blocks of at most _MAX_BLOCK
    bounds = [r * w // workers for w in range(workers + 1)]
    blocks = [
        (cfg.model, cfg.n, cfg.d, cfg.seed, lo, min(lo + _MAX_BLOCK, hi))
        for start, hi in zip(bounds, bounds[1:])
        for lo in range(start, hi, _MAX_BLOCK)
    ]
    rows = np.zeros((r, cfg.d), dtype=np.int64)
    degen = 0
    # every block run in this process writes into one workspace; a pool's
    # workers are sent an empty copy of it with each block
    work = _Workspace()
    # the dump file is opened first, so a bad path fails before any replication is drawn
    with open(dump_path, "w", newline="", encoding="utf-8") if dump_path is not None else nullcontext() as dump:
        if workers > 1:
            # the pool's modules load only for a run that starts one, not at import
            from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
            for lo, block_rows, block_degen in (pool.map if pool else map)(_replication_block, blocks, repeat(work)):
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
            for lo in range(0, r, _BLOCK):  # _BLOCK rows at a time, not one list of every row
                writer.writerows(np.column_stack([np.arange(lo, min(lo + _BLOCK, r)), rows[lo : lo + _BLOCK]]).tolist())
    means: dict[int, Estimate] = {}
    for k in range(cfg.d):
        col = rows[:, k].astype(float)
        mean = float(col.mean())
        means[k] = Estimate(mean, float(col.std(ddof=1) / math.sqrt(r)))
    return SimulationResult(cfg, means, r, degen)
