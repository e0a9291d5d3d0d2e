"""Monte Carlo laboratory: exact f-vectors of sampled random polytopes.

Random models
  gaussian                 convex hull of n iid standard Gaussian points
  symmetric                hull of n Gaussian points and their negatives
  zonotope                 Minkowski sum of n segments [0, g_i], Gaussian g_i
  projected_simplex        image of the (n-1)-simplex (n vertices) under a
                           uniform random orthogonal projection to R^d
  projected_crosspolytope  image of the n-crosspolytope (2n vertices)
  projected_cube           image of the n-cube (2^n vertices)

Hulls go through qhull, whose output is triangulated.  Two neighbouring
simplices lie on one facet when their [normal, offset] rows agree within
_FACET_TOL, which one vectorized comparison over qhull's neighbour array
tests.  If no neighbours agree the hull is simplicial and its k-faces are the
distinct (k+1)-subsets of the simplices, counted by sorting one integer key
per subset, with the hull's position as the key's top digit so that one sort
per k counts many hulls at once; otherwise facet labels spread over
agreeing neighbours, and the face lattice is recovered by closing the facet
vertex sets under intersection.
Zonotope f-vectors are counted combinatorially: a k-face is a covector of
the generators' hyperplane arrangement with k zeros, and every covector is
read off a ray of the arrangement, so one batched SVD and one np.unique count
them all.  A projected cube is the zonotope of its frame rows and is counted
the same way.

Every replication draws from its own counter-based stream derived from
(seed, model, n, d, replication index, attempt), so estimates are identical
for any worker count and assembly order.  Replications run in blocks of
_BLOCK: one derive_keys call gives the attempt-0 Philox keys of the whole
block, one Philox is re-keyed per replication, and only a degenerate draw's
resample builds its own generator with derive_generator.  The draws are the
ones derive_generator's generators would give, so reports do not depend on
the blocking.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import combinations, product

import numpy as np
from numpy.random import Generator, Philox
from scipy.spatial import ConvexHull, QhullError

from .errors import (
    DegenerateGeometryError,
    InvalidArgumentError,
    InvalidDimensionError,
    SimulationAbortError,
)
from .expected import Estimate
from .families import Family, check_int, vertices
from .streams import MODEL_CODES, SIM_REPLICATION, derive_generator, derive_keys, rekey

MODELS = tuple(MODEL_CODES)

_MAX_HULL_DIM = 6
_MAX_GENERATORS = 15
_MAX_ATTEMPTS = 5
_DEGENERATE_RATE_LIMIT = 1e-3
_GENERAL_POSITION_TOL = 1e-9  # on unit generators: singular values and distances to spans
_FACET_TOL = 1e-9  # largest entry difference of two simplices' [normal, offset] rows on one facet
_RANK_TOL = 1e-9  # relative to the cloud's extent, on the scale of _FACET_TOL
_BLOCK = 512
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
        if self.model not in MODELS:
            raise InvalidArgumentError(f"unknown model {self.model!r}, expected one of {MODELS}")
        # NumPy integers are stored as Python ints
        for name, lo in (("n", None), ("d", None), ("replications", 1), ("seed", 0), ("workers", 1)):
            object.__setattr__(self, name, check_int(name, getattr(self, name), lo))
        if not (2 <= self.d <= _MAX_HULL_DIM):
            raise InvalidDimensionError(f"hull dimension must be in 2..{_MAX_HULL_DIM}, got {self.d}")
        min_n = {
            "gaussian": self.d + 1,
            "symmetric": self.d,
            "zonotope": self.d,
            "projected_simplex": self.d + 1,
            "projected_crosspolytope": self.d,
            "projected_cube": self.d,
        }[self.model]
        if self.n < min_n:
            raise InvalidDimensionError(
                f"model {self.model} needs n >= {min_n} for a full-dimensional hull, got {self.n}"
            )
        if self.model in ("zonotope", "projected_cube") and self.n > _MAX_GENERATORS:
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
    g = rng.standard_normal((ambient, d))
    q, r = np.linalg.qr(g)
    return q * np.sign(np.diag(r))


def sample_gaussian(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal((n, d))


def symmetrize(cloud: np.ndarray) -> np.ndarray:
    return np.vstack([cloud, -cloud])


def _sample_cloud(model: str, n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    if model == "gaussian":
        return sample_gaussian(n, d, rng)
    if model == "symmetric":
        return symmetrize(sample_gaussian(n, d, rng))
    if model == "projected_simplex":
        verts = vertices(Family.SIMPLEX, n - 1)
    elif model == "projected_crosspolytope":
        verts = vertices(Family.CROSSPOLYTOPE, n)
    elif model == "projected_cube":
        verts = vertices(Family.CUBE, n)
    else:
        raise InvalidArgumentError(f"model {model!r} has no point-cloud sampler")
    frame = random_orthonormal_frame(verts.shape[1], d, rng)
    return verts @ frame


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
    d = pts.shape[1]
    if not (2 <= d <= _MAX_HULL_DIM):
        raise InvalidDimensionError(f"hull dimension must be in 2..{_MAX_HULL_DIM}, got {d}")
    fv = _f_vector_or_simplices(pts)
    if isinstance(fv, FVectorSample):
        return fv
    return FVectorSample(tuple(int(c) for c in _simplicial_f_vectors([fv])[0]))


def _f_vector_or_simplices(pts: np.ndarray) -> FVectorSample | np.ndarray:
    """The simplices of qhull's hull of pts if it is simplicial, else its f-vector.

    A flat cloud gives a degenerate FVectorSample; a hull with merged facets
    is counted here by intersection closure.  Simplicial hulls are handed
    back as qhull's simplices so that many of them can be counted at once.
    """
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
        return FVectorSample((len(hull.vertices), len(facet_sets)))

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


def _simplicial_f_vectors(simplices: list[np.ndarray]) -> np.ndarray:
    """f-vectors, one int64 row per hull, of simplicial hulls given by their simplices.

    f_{d-1} counts a hull's simplices, and f_k for k <= d-2 its distinct
    sorted (k+1)-subsets of simplex vertex ids; each f_k of every hull comes
    from one _count_distinct_rows call.
    """
    d = simplices[0].shape[1]
    sizes = [len(s) for s in simplices]
    ordered = np.sort(np.concatenate(simplices), axis=1)
    base = int(ordered.max()) + 1
    owner = np.repeat(np.arange(len(simplices)), sizes)
    rows = np.empty((len(simplices), d), dtype=np.int64)
    rows[:, d - 1] = sizes
    for k in range(d - 1):
        cols = _COLUMN_SUBSETS[d, k + 1]
        subsets = ordered[:, cols].reshape(-1, k + 1)
        rows[:, k] = _count_distinct_rows(subsets, base, np.repeat(owner, len(cols)), len(simplices))
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


def zonotope_f_vector(generators: np.ndarray) -> FVectorSample:
    """Exact f-vector of the zonotope sum of segments [0, g_i].

    A k-face is a covector sign(G c) of the arrangement of the planes g_i^perp
    with exactly k zeros.  In a simple arrangement every nonzero covector lies
    next to a ray, the null vector of some d-1 generators, and the covectors
    next to a ray are its sign vector with the d-1 zeros filled in all
    3^(d-1) ways; f_k counts the distinct ones with k zeros.  Simplicity is
    checked, at _GENERAL_POSITION_TOL each: no generator is shorter than that
    fraction of the longest, and of the normalized generators every d-1 have
    full rank and every other one lies off their span.
    """
    g = np.asarray(generators, dtype=float)
    if g.ndim != 2:
        raise InvalidArgumentError("generators must be a 2-d array")
    n, d = g.shape
    if not (2 <= d <= _MAX_HULL_DIM):
        raise InvalidDimensionError(f"zonotope dimension must be in 2..{_MAX_HULL_DIM}, got {d}")
    if n > _MAX_GENERATORS:
        raise InvalidDimensionError(f"zonotope enumeration capped at n = {_MAX_GENERATORS}, got {n}")
    if n < d:
        raise DegenerateGeometryError("generators do not span the ambient space")
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
    counts = np.bincount(np.unique(keys) // pow3[n], minlength=d)
    return FVectorSample(tuple(int(c) for c in counts))


@dataclass(frozen=True)
class SimulationResult:
    config: SimConfig
    means: dict[int, Estimate]
    replications: int
    degenerate_events: int


def _sample_f_vector(model: str, n: int, d: int, rng: np.random.Generator) -> FVectorSample | np.ndarray:
    """One draw of the model: its f-vector, or its hull's simplices when that is simplicial."""
    if model == "zonotope":
        return zonotope_f_vector(rng.standard_normal((n, d)))
    if model == "projected_cube":
        # the cube's shadow is the zonotope of the frame rows, drawn as
        # _sample_cloud draws it
        return zonotope_f_vector(random_orthonormal_frame(n, d, rng))
    return _f_vector_or_simplices(_sample_cloud(model, n, d, rng))


def _one_replication(
    model: str, n: int, d: int, seed: int, index: int, rng: np.random.Generator
) -> tuple[FVectorSample | np.ndarray, int]:
    """Replication `index` and its count of degenerate attempts.

    rng is the attempt-0 stream; a degenerate draw is resampled from the
    stream of the next attempt, derived on its own.
    """
    degen = 0
    for attempt in range(_MAX_ATTEMPTS):
        if attempt:
            rng = derive_generator(seed, SIM_REPLICATION, MODEL_CODES[model], n, d, index, attempt)
        try:
            fv = _sample_f_vector(model, n, d, rng)
        except DegenerateGeometryError:
            degen += 1
            continue
        if isinstance(fv, FVectorSample) and fv.degenerate:
            degen += 1
            continue
        return fv, degen
    raise SimulationAbortError(
        f"replication {index} of model {model} stayed degenerate after {_MAX_ATTEMPTS} attempts",
        degenerate=degen,
        replications=index,
    )


def _replication_block(args: tuple[str, int, int, int, int, int]) -> tuple[int, np.ndarray, int]:
    """Rows lo..hi-1 of a simulation and their degenerate-attempt count.

    The attempt-0 keys of the whole block come from one derive_keys call and
    one Philox is re-keyed for each replication.  The simplices of simplicial
    hulls are set aside and counted together whenever _COUNT_BATCH simplices
    wait, and at the end of the block.
    """
    model, n, d, seed, lo, hi = args
    keys = derive_keys(seed, SIM_REPLICATION, MODEL_CODES[model], n, d, np.arange(lo, hi), 0)
    bitgen = Philox(key=0)
    rng = Generator(bitgen)
    rows = np.zeros((hi - lo, d), dtype=np.int64)
    degen = 0
    simplicial: list[np.ndarray] = []
    at: list[int] = []
    pending = 0
    for j, key in enumerate(keys):
        rekey(bitgen, key)
        fv, extra = _one_replication(model, n, d, seed, lo + j, rng)
        degen += extra
        if isinstance(fv, FVectorSample):
            rows[j] = fv.counts
            continue
        simplicial.append(fv)
        at.append(j)
        pending += len(fv)
        if pending >= _COUNT_BATCH:
            rows[at] = _simplicial_f_vectors(simplicial)
            simplicial, at, pending = [], [], 0
    if simplicial:
        rows[at] = _simplicial_f_vectors(simplicial)
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
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            for lo, block_rows, block_degen in pool.map(_replication_block, blocks):
                rows[lo : lo + len(block_rows)] = block_rows
                degen += block_degen
    else:
        for block in blocks:
            lo, block_rows, block_degen = _replication_block(block)
            rows[lo : lo + len(block_rows)] = block_rows
            degen += block_degen
    if degen > _DEGENERATE_RATE_LIMIT * r:
        raise SimulationAbortError(
            f"degenerate rate {degen}/{r} exceeds {_DEGENERATE_RATE_LIMIT:.1%}",
            degenerate=degen,
            replications=r,
        )
    if dump_path is not None:
        with open(dump_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["replication"] + [f"f_{k}" for k in range(cfg.d)])
            for i in range(r):
                writer.writerow([i] + [int(v) for v in rows[i]])
    means: dict[int, Estimate] = {}
    for k in range(cfg.d):
        col = rows[:, k].astype(float)
        mean = float(col.mean())
        se = float(col.std(ddof=1) / math.sqrt(r)) if r > 1 else 0.0
        means[k] = Estimate(mean, se, False, None)
    return SimulationResult(cfg, means, r, degen)
