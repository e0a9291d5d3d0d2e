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
Zonotope f-vectors are counted combinatorially: a k-face is a covector of
the generators' hyperplane arrangement with k zeros, and every covector is
read off a ray of the arrangement, so one batched SVD and one np.unique count
them all.  A projected cube is the zonotope of its frame rows and is counted
the same way.

Every replication draws from its own counter-based stream derived from
(seed, model, n, d, replication index, attempt), so estimates are identical
for any worker count and assembly order.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import combinations, product

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .errors import (
    DegenerateGeometryError,
    InvalidArgumentError,
    InvalidDimensionError,
    SimulationAbortError,
)
from .expected import Estimate
from .families import Family, vertices
from .streams import MODEL_CODES, SIM_REPLICATION, derive_generator

MODELS = tuple(MODEL_CODES)

_MAX_HULL_DIM = 6
_MAX_GENERATORS = 15
_MAX_ATTEMPTS = 5
_DEGENERATE_RATE_LIMIT = 1e-3
_GENERAL_POSITION_TOL = 1e-9  # on unit generators: singular values and distances to spans
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


def _one_replication(model: str, n: int, d: int, seed: int, index: int) -> tuple[np.ndarray, int]:
    degen = 0
    for attempt in range(_MAX_ATTEMPTS):
        rng = derive_generator(seed, SIM_REPLICATION, MODEL_CODES[model], n, d, index, attempt)
        try:
            if model == "zonotope":
                fv = zonotope_f_vector(rng.standard_normal((n, d)))
            elif model == "projected_cube":
                # the cube's shadow is the zonotope of the frame rows, drawn as
                # _sample_cloud draws it
                fv = zonotope_f_vector(random_orthonormal_frame(n, d, rng))
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
