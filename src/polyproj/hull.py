"""Monte Carlo laboratory: exact f-vectors of sampled random polytopes.

Random models
  gaussian                 convex hull of n iid standard Gaussian points
  symmetric                hull of n Gaussian points and their negatives
  zonotope                 Minkowski sum of n segments [0, g_i], Gaussian g_i
  projected_simplex        image of the (n-1)-simplex (n vertices) under a
                           uniform random orthogonal projection to R^d
  projected_crosspolytope  image of the n-crosspolytope (2n vertices)
  projected_cube           image of the n-cube (2^n vertices)

Hulls go through qhull; the full face lattice is recovered either by a
simplicial fast path (k-faces are the (k+1)-subsets of facet vertex sets) or,
when facets merge, by closing the facet vertex sets under intersection.
Zonotope f-vectors are counted combinatorially: a k-face corresponds to a
k-subset of generators together with a feasible sign pattern on the rest,
and feasibility is a strict linear separation test.

Every replication draws from its own counter-based stream derived from
(seed, model, n, d, replication index, attempt), so estimates are identical
for any worker count and assembly order.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy.linalg import null_space
from scipy.spatial import ConvexHull, QhullError

from .errors import (
    DegenerateGeometryError,
    InvalidArgumentError,
    InvalidDimensionError,
    SimulationAbortError,
)
from .expected import Estimate
from .families import Family, vertices
from .solvers import robust_nnls
from .streams import MODEL_CODES, SIM_REPLICATION, derive_generator

MODELS = tuple(MODEL_CODES)

_MAX_HULL_DIM = 6
_MAX_GENERATORS = 15
_MAX_ATTEMPTS = 5
_DEGENERATE_RATE_LIMIT = 1e-3
_SEPARATION_TOL = 1e-6
_RANK_TOL = 1e-9  # relative to the cloud's extent, like the 9-digit facet grouping
_BLOCK = 512


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
        if not (2 <= self.d <= _MAX_HULL_DIM):
            raise InvalidDimensionError(f"hull dimension must be in 2..{_MAX_HULL_DIM}, got {self.d}")
        if self.replications < 1:
            raise InvalidArgumentError(f"replications must be >= 1, got {self.replications}")
        if self.seed < 0:
            raise InvalidArgumentError(f"seed must be >= 0, got {self.seed}")
        if self.workers < 1:
            raise InvalidArgumentError(f"workers must be >= 1, got {self.workers}")
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

    Flat inputs come back flagged degenerate rather than raising; other qhull
    failures raise a degeneracy error.  Dimension is capped at 6: face-lattice
    recovery enumerates vertex subsets and is meant for desk-scale checks.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise InvalidArgumentError("points must be a 2-d array")
    m, d = pts.shape
    if not (2 <= d <= _MAX_HULL_DIM):
        raise InvalidDimensionError(f"hull dimension must be in 2..{_MAX_HULL_DIM}, got {d}")
    if m < d + 1:
        return FVectorSample((0,) * d, degenerate=True)
    try:
        hull = ConvexHull(pts)
    except QhullError as exc:
        if np.linalg.matrix_rank(pts - pts[0]) < d:
            return FVectorSample((0,) * d, degenerate=True)
        raise DegenerateGeometryError(f"qhull failed on non-flat input: {exc}") from exc

    # group the triangulated output back into genuine facets by hyperplane
    groups: dict[bytes, set[int]] = {}
    for simplex, eq in zip(hull.simplices, hull.equations):
        key = np.round(eq, 9).tobytes()
        groups.setdefault(key, set()).update(int(v) for v in simplex)
    facet_sets = [frozenset(g) for g in groups.values()]

    counts = [0] * d
    counts[0] = len(hull.vertices)
    counts[d - 1] = len(facet_sets)
    if d <= 2:
        return FVectorSample(tuple(counts))

    if all(len(fs) == d for fs in facet_sets):
        # simplicial hull: every k-face is a (k+1)-subset of some facet
        for k in range(1, d - 1):
            seen: set[tuple[int, ...]] = set()
            for fs in facet_sets:
                seen.update(combinations(sorted(fs), k + 1))
            counts[k] = len(seen)
        return FVectorSample(tuple(counts))

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


def _origin_in_hull(rows: np.ndarray) -> bool:
    # 0 in conv(rows) iff the system P^T lam = 0, sum lam = 1 admits lam >= 0
    a = np.vstack([rows.T, np.ones((1, rows.shape[0]))])
    b = np.zeros(rows.shape[1] + 1)
    b[-1] = 1.0
    _, resid = robust_nnls(a, b)
    return resid < _SEPARATION_TOL


def _chamber_count(w: np.ndarray) -> int:
    """Number of sign vectors sigma with an open solution to sigma_i <w_i, c> > 0.

    Strict feasibility of a sign pattern is equivalent to the origin lying
    outside the convex hull of the signed, normalized rows.  Chambers come in
    antipodal pairs, so the first sign is pinned and the count doubled.
    """
    norms = np.linalg.norm(w, axis=1)
    if np.any(norms < 1e-12):
        raise DegenerateGeometryError("zero generator after projection")
    wn = w / norms[:, None]
    m = wn.shape[0]
    total = 0

    def rec(depth: int, rows: list[np.ndarray]) -> None:
        nonlocal total
        if depth == m:
            total += 1
            return
        for s in (1.0, -1.0):
            cand = rows + [s * wn[depth]]
            if not _origin_in_hull(np.array(cand)):
                rec(depth + 1, cand)

    rec(1, [wn[0]])
    return 2 * total


def zonotope_f_vector(generators: np.ndarray) -> FVectorSample:
    """Exact f-vector of the zonotope sum of segments [0, g_i].

    A k-face is a k-subset S of generators translated to a vertex of the
    zonotope of the others, so f_k is a sum of sign-pattern chamber counts in
    the orthogonal complement of span(S).  Requires generators in general
    position (full rank, no generator inside a k-subset's span).
    """
    g = np.asarray(generators, dtype=float)
    if g.ndim != 2:
        raise InvalidArgumentError("generators must be a 2-d array")
    n, d = g.shape
    if not (2 <= d <= _MAX_HULL_DIM):
        raise InvalidDimensionError(f"zonotope dimension must be in 2..{_MAX_HULL_DIM}, got {d}")
    if n > _MAX_GENERATORS:
        raise InvalidDimensionError(f"zonotope enumeration capped at n = {_MAX_GENERATORS}, got {n}")
    if n < d or np.linalg.matrix_rank(g) < d:
        raise DegenerateGeometryError("generators do not span the ambient space")
    counts = [0] * d
    for k in range(d):
        for subset in combinations(range(n), k):
            if k == 0:
                basis = np.eye(d)
            else:
                basis = null_space(g[list(subset)])
                if basis.shape[1] != d - k:
                    raise DegenerateGeometryError(
                        f"generator subset {subset} is rank-deficient"
                    )
            rest = [i for i in range(n) if i not in subset]
            w = g[rest] @ basis
            counts[k] += _chamber_count(w)
    return FVectorSample(tuple(counts))


@dataclass(frozen=True)
class SimulationResult:
    config: SimConfig
    means: dict[int, Estimate]
    replications: int
    degenerate_events: int


def _one_replication(model: str, n: int, d: int, seed: int, index: int) -> tuple[np.ndarray, int]:
    degen = 0
    for attempt in range(_MAX_ATTEMPTS):
        rng = derive_generator(seed, SIM_REPLICATION, MODEL_CODES[model], n, d, index, attempt)
        try:
            if model == "zonotope":
                fv = zonotope_f_vector(rng.standard_normal((n, d)))
            else:
                fv = hull_f_vector(_sample_cloud(model, n, d, rng))
        except DegenerateGeometryError:
            degen += 1
            continue
        if fv.degenerate:
            degen += 1
            continue
        return np.asarray(fv.counts, dtype=np.int64), degen
    raise SimulationAbortError(
        f"replication {index} of model {model} stayed degenerate after {_MAX_ATTEMPTS} attempts",
        degenerate=degen,
        replications=index,
    )


def _replication_block(args: tuple[str, int, int, int, int, int]) -> tuple[int, np.ndarray, int]:
    model, n, d, seed, lo, hi = args
    rows = np.zeros((hi - lo, d), dtype=np.int64)
    degen = 0
    for i in range(lo, hi):
        rows[i - lo], extra = _one_replication(model, n, d, seed, i)
        degen += extra
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
