"""Solid angles of polyhedral cones by Gaussian sampling, with exact branches.

The angle of a cone C inside its linear hull L is the probability that a
standard Gaussian vector on L lands in C.  Two constructions cover everything
the projection formulas need:

  normal cone    Nor(Q_g, P_n) = {u in lin(P_n - x) : <u, v - x> <= 0 for all
                 vertices v}, x a relative-interior point of Q_g; its angle is
                 the external angle gamma(Q_g, P_n).
  internal cone  pos(Q_g - bary(Q_k)), the positive hull of a face seen from
                 the barycenter of one of its subfaces; its angle is the
                 internal angle beta(Q_k, Q_g).

Both kinds carry an H-representation, a set of outer normals a with the cone
equal to {u in L : <u, a> <= 0 for all a}.  Normal cones take the vertex
directions v - x as their normals.  Internal cones are cut out by the facets
of Q_g that contain Q_k, which in canonical coordinates are sign conditions
u_i >= 0: on coordinates k+1..g for simplex-type faces, k..g-1 for cube faces.

A cone's frame is an orthonormal basis of L, built by classical Gram-Schmidt
applied twice (one matrix-vector product per pass and row, rows kept in
order).  Membership is tested in frame coordinates: the normals are projected
onto the frame once, when the cone is built, so scoring a batch of samples z
is the single product z @ (frame @ normals^T) against the tolerance
HALFSPACE_TOL * (1 + |z|).  Ambient points of L are mapped to frame
coordinates first; the frame is orthonormal, so the test is the same.

Cube angles and codimension <= 1 pairs are exact powers of 1/2 and never hit
the sampler.  Monte Carlo estimates are deterministic: every chunk of samples
draws from a counter-based stream derived from the angle's identity, so values
do not depend on evaluation order or worker count.  Estimates are memoized
in-process and optionally persisted to an append-only text cache, keyed by
everything that fixes the draws: the cone, the sample count, the seed and the
chunk grid.

Internal angles of simplex and crosspolytope faces coincide: every proper face
of either series is a regular simplex with edge sqrt(2), and the canonical
coordinates of (Q_k, Q_g) agree.  Internal estimates are therefore computed
once on a minimal canonical embedding and shared across the two families.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import (
    CacheFormatError,
    InvalidArgumentError,
    InvalidDimensionError,
    InvalidFaceError,
    InvalidPairError,
    NumericError,
)
from .families import Family, barycenter, canonical_face, check_int, vertices
from .streams import ANGLE_SAMPLES, FAMILY_CODES, KIND_EXTERNAL, KIND_INTERNAL, chunk_counts, derive_generator

ORTHONORMALITY_TOL = 1e-12
SPAN_TOL = 1e-10
HALFSPACE_TOL = 1e-10
DEFAULT_CHUNK = 1 << 15


@dataclass(frozen=True)
class MCConfig:
    """Sampling budget and stream identity for Monte Carlo angle estimation."""

    samples: int = 1_000_000
    seed: int = 0
    workers: int = 1
    chunk_size: int = DEFAULT_CHUNK
    cache_path: str | None = None

    def __post_init__(self):
        if self.samples < 1:
            raise InvalidArgumentError(f"samples must be >= 1, got {self.samples}")
        if self.seed < 0:
            raise InvalidArgumentError(f"seed must be >= 0, got {self.seed}")
        if self.workers < 1:
            raise InvalidArgumentError(f"workers must be >= 1, got {self.workers}")
        if self.chunk_size < 1:
            raise InvalidArgumentError(f"chunk_size must be >= 1, got {self.chunk_size}")


@dataclass(frozen=True)
class AngleEstimate:
    value: float
    std_error: float
    method: str  # "exact" or "monte_carlo"
    samples: int
    exact_value: Fraction | None = None

    def __post_init__(self):
        if not (-1e-12 <= self.value <= 1 + 1e-12):
            raise NumericError(f"angle {self.value} outside [0, 1]")
        if self.method == "exact" and self.std_error != 0.0:
            raise NumericError("exact angle must have zero std error")


def _exact_angle(frac: Fraction | int) -> AngleEstimate:
    frac = Fraction(frac)
    return AngleEstimate(float(frac), 0.0, "exact", 0, frac)


@dataclass(frozen=True)
class NormalConeData:
    """Normal cone at apex x: u in cone iff <u, v - x> <= tol for all vertices v."""

    apex: np.ndarray
    polytope_vertices: np.ndarray

    @property
    def normals(self) -> np.ndarray:
        return self.polytope_vertices - self.apex


@dataclass(frozen=True)
class PositiveHullData:
    """pos(generators) with its H-representation.

    u is in the cone iff <u, a> <= tol for every row a of normals.  The
    generators are kept as the V-representation; a cone checks them against
    its own half-spaces when it is built.
    """

    generators: np.ndarray
    normals: np.ndarray


@dataclass(frozen=True)
class Cone:
    """A polyhedral cone: orthonormal frame of its linear hull plus outer normals.

    frame rows are unit vectors in the ambient space; seed_path is the identity
    tuple mixed into sampling streams so distinct cones never share randomness.
    """

    frame: np.ndarray
    data: NormalConeData | PositiveHullData
    seed_path: tuple[int, ...] = ()
    # the outer normals in frame coordinates, frame @ normals^T, set when built
    frame_normals: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        f = self.frame
        if f.ndim != 2:
            raise InvalidArgumentError("frame must be a 2-d array (rows = basis vectors)")
        gram = f @ f.T
        if gram.size and np.abs(gram - np.eye(f.shape[0])).max() > ORTHONORMALITY_TOL:
            raise NumericError("frame rows are not orthonormal to 1e-12")
        object.__setattr__(self, "frame_normals", f @ self.data.normals.T)
        if isinstance(self.data, PositiveHullData):
            g = self.data.generators
            resid = g - (g @ f.T) @ f
            scale = 1.0 + np.linalg.norm(g, axis=1)
            if np.any(np.linalg.norm(resid, axis=1) > SPAN_TOL * scale):
                raise NumericError("generators leave the frame span beyond 1e-10")
            if not self.contains(g).all():
                raise NumericError("a generator violates the cone's own half-spaces")

    @property
    def dim(self) -> int:
        return self.frame.shape[0]

    def contains(self, u: np.ndarray) -> np.ndarray:
        """Membership mask of the rows of u, points of the cone's linear hull."""
        return self.contains_coords(u @ self.frame.T)

    def contains_coords(self, z: np.ndarray) -> np.ndarray:
        """Membership mask of the rows of z, points in frame coordinates.

        A row is in the cone when no outer normal scores it above
        HALFSPACE_TOL * (1 + |z|).
        """
        scores = z @ self.frame_normals
        tol = HALFSPACE_TOL * (1.0 + np.sqrt(np.einsum("ij,ij->i", z, z)))
        return scores.max(axis=1, initial=-np.inf) <= tol


def orthonormal_basis(vecs: np.ndarray, drop_tol: float = 1e-10) -> np.ndarray:
    """Orthonormal basis of span(rows) by classical Gram-Schmidt applied twice.

    Rows are taken in order; each is projected off the rows kept so far in two
    passes (the second controls cancellation for near-dependent rows).  Rows
    whose residual is below drop_tol * (1 + |row|) are treated as dependent and
    dropped.  Once the basis spans the whole space the remaining rows would
    all be dropped, so they are not projected.
    """
    vecs = np.asarray(vecs, dtype=float)
    if vecs.ndim != 2:
        raise InvalidArgumentError("expected a 2-d array of row vectors")
    basis = np.empty_like(vecs)
    r = 0
    for v in vecs:
        if r == vecs.shape[1]:
            break
        w = v.copy()
        for _ in range(2):
            w -= (basis[:r] @ w) @ basis[:r]
        nw = np.linalg.norm(w)
        if nw > drop_tol * (1.0 + np.linalg.norm(v)):
            basis[r] = w / nw
            r += 1
    return basis[:r]


def complement_basis(span_vecs: np.ndarray, within_basis: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of span(span_vecs) inside a subspace.

    within_basis must span a subspace containing span(span_vecs).
    """
    sub = orthonormal_basis(span_vecs)
    if sub.shape[0] == 0:
        return orthonormal_basis(within_basis)
    stacked = np.vstack([sub, np.asarray(within_basis, dtype=float)])
    return orthonormal_basis(stacked)[sub.shape[0] :]


def normal_cone(family: Family, n: int, g: int) -> Cone:
    """Nor(Q_g, P_n) as a Cone, frame spanning lin(P_n - x) ∩ lin(Q_g - x)^perp.

    Requires 0 <= g <= n-1; the g = n case is the trivial cone {0} and is
    handled exactly by external_angle.
    """
    face = canonical_face(family, n, g)
    if g > n - 1:
        raise InvalidFaceError(f"normal cone needs a proper face, got g = {g} = n")
    verts = vertices(family, n).astype(float)
    x = barycenter(face)
    lin_p = orthonormal_basis(verts - x)
    frame = complement_basis(face.vertices - x, lin_p)
    if frame.shape[0] != n - g:
        raise NumericError(
            f"normal cone frame has dimension {frame.shape[0]}, expected {n - g}"
        )
    return Cone(
        frame,
        NormalConeData(x, verts),
        seed_path=(KIND_EXTERNAL, FAMILY_CODES[family.value], n, g),
    )


def internal_cone(family: Family, n: int, k: int, g: int) -> Cone:
    """pos(Q_g - bary(Q_k)) as a Cone; requires 0 <= k <= g with both faces canonical.

    The facets of Q_g through Q_k are coordinate hyperplanes, so the cone is
    {u in lin(Q_g - bary(Q_k)) : u_i >= 0} over the coordinates those facets
    fix: k+1..g for simplex-type faces (the vertices e_i outside Q_k), and
    k..g-1 for cube faces (the axes Q_g spans beyond Q_k).
    """
    face_g = canonical_face(family, n, g)
    face_k = canonical_face(family, n, k)
    if k > g:
        raise InvalidPairError(f"Q_{k} is not a face of Q_{g} (k > g)")
    gens = face_g.vertices - barycenter(face_k)
    frame = orthonormal_basis(gens)
    if frame.shape[0] != g:
        raise NumericError(f"internal cone frame has dimension {frame.shape[0]}, expected {g}")
    fixed = range(k, g) if family is Family.CUBE else range(k + 1, g + 1)
    normals = -np.eye(gens.shape[1])[list(fixed)]
    return Cone(
        frame,
        PositiveHullData(gens.astype(float), normals),
        seed_path=(KIND_INTERNAL, FAMILY_CODES[family.value], k, g),
    )


def cone_angle(cone: Cone, cfg: MCConfig | None = None) -> AngleEstimate:
    """Monte Carlo estimate of the solid angle of `cone` within its linear hull.

    Samples standard Gaussians in frame coordinates, counts membership, and
    returns hit rate with binomial standard error.  A zero-dimensional frame
    means the cone is {0}: angle exactly 1.
    """
    cfg = cfg or MCConfig()
    if cone.dim == 0:
        return _exact_angle(1)
    counts = chunk_counts(cfg.samples, cfg.chunk_size)

    def run_chunk(job: tuple[int, int]) -> int:
        idx, count = job
        rng = derive_generator(cfg.seed, ANGLE_SAMPLES, *cone.seed_path, idx)
        z = rng.standard_normal((count, cone.dim))
        return int(np.count_nonzero(cone.contains_coords(z)))

    jobs = list(enumerate(counts))
    if cfg.workers > 1:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            hits = sum(pool.map(run_chunk, jobs))
    else:
        hits = sum(map(run_chunk, jobs))
    p = hits / cfg.samples
    se = math.sqrt(p * (1.0 - p) / cfg.samples)
    return AngleEstimate(p, se, "monte_carlo", cfg.samples)


# ---------------------------------------------------------------------------
# memoization and the optional append-only cache file

_MEMO: dict[tuple, AngleEstimate] = {}
_LOCK = threading.Lock()
_LOADED_CACHES: set[str] = set()
# memos of values computed from angles, emptied together with the angle memo
_DERIVED_MEMOS: list[dict] = []

# internal angles are shared between simplex and crosspolytope (identical
# canonical geometry); this token marks such rows in memo keys and cache files
_SHARED_FACE = "simplexface"


def derived_memo() -> dict:
    """A new module-level memo that clear_angle_memo() empties along with its own."""
    memo: dict = {}
    _DERIVED_MEMOS.append(memo)
    return memo


def clear_angle_memo() -> None:
    with _LOCK:
        _MEMO.clear()
        _LOADED_CACHES.clear()
        for memo in _DERIVED_MEMOS:
            memo.clear()


def _ensure_cache_loaded(path: str) -> None:
    """Merge a cache file's rows into the memo; a malformed row rejects the whole file.

    A row is `family n k g kind samples seed value stderr chunk_size`; rows
    written before the chunk grid was recorded have nine fields and were
    sampled on the default grid.
    """
    apath = os.path.abspath(path)
    with _LOCK:
        if apath in _LOADED_CACHES:
            return
        rows: dict[tuple, AngleEstimate] = {}
        if os.path.exists(apath):
            with open(apath, "r", encoding="utf-8") as fh:
                for lineno, line in enumerate(fh, 1):
                    parts = line.split()
                    if not parts or parts[0].startswith("#"):
                        continue
                    if len(parts) not in (9, 10):
                        raise CacheFormatError(apath, lineno, f"expected 9 or 10 fields, got {len(parts)}")
                    fam, n_s, k_s, g_s, kind, samples_s, seed_s, value_s, stderr_s = parts[:9]
                    chunk_s = parts[9] if len(parts) == 10 else DEFAULT_CHUNK
                    try:
                        key = (kind, fam, int(n_s), int(k_s), int(g_s), int(samples_s), int(seed_s),
                               int(chunk_s))
                        est = AngleEstimate(
                            float(value_s), float(stderr_s), "monte_carlo", int(samples_s)
                        )
                    except (ValueError, NumericError) as exc:
                        raise CacheFormatError(apath, lineno, str(exc)) from exc
                    rows.setdefault(key, est)
        for key, est in rows.items():
            _MEMO.setdefault(key, est)
        _LOADED_CACHES.add(apath)


def _append_cache(path: str, key: tuple, est: AngleEstimate) -> None:
    kind, fam, n, k, g, samples, seed, chunk = key
    with _LOCK:
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(f"{fam} {n} {k} {g} {kind} {samples} {seed} {est.value!r} {est.std_error!r} {chunk}\n")


def _memoized_angle(key: tuple, build, cfg: MCConfig) -> AngleEstimate:
    if cfg.cache_path:
        _ensure_cache_loaded(cfg.cache_path)
    with _LOCK:
        hit = _MEMO.get(key)
    if hit is not None:
        return hit
    est = cone_angle(build(), cfg)
    with _LOCK:
        _MEMO[key] = est
    if cfg.cache_path:
        _append_cache(cfg.cache_path, key, est)
    return est


def external_angle(family: Family, n: int, g: int, cfg: MCConfig | None = None) -> AngleEstimate:
    """gamma(Q_g, P_n): the external angle of P_n at its canonical g-face.

    Exact branches: cubes (2^-(n-g)), g = n (angle 1), g = n-1 (facet, 1/2).
    Everything else is estimated by sampling the normal cone.
    """
    cfg = cfg or MCConfig()
    family = Family(family)
    n = check_int("n", n)
    g = check_int("g", g)
    if n < 1:
        raise InvalidDimensionError(f"polytope dimension must be >= 1, got {n}")
    if g < 0 or g > n:
        raise InvalidFaceError(f"external angle needs 0 <= g <= n, got g={g}, n={n}")
    if family is Family.CUBE:
        return _exact_angle(Fraction(1, 2 ** (n - g)))
    if g == n:
        return _exact_angle(1)
    if g == n - 1:
        return _exact_angle(Fraction(1, 2))
    key = ("ext", family.value, n, -1, g, cfg.samples, cfg.seed, cfg.chunk_size)
    return _memoized_angle(key, lambda: normal_cone(family, n, g), cfg)


def internal_angle(
    family: Family, n: int, k: int, g: int, cfg: MCConfig | None = None
) -> AngleEstimate:
    """beta(Q_k, Q_g): the internal angle of Q_g at its subface Q_k.

    Exact branches: k > g (0), k = g (1, the empty-cone convention that makes
    the top projection term reproduce facet counts), cubes (2^-(g-k)), and
    g = k+1 (1/2).  The Monte Carlo branch samples the positive hull on a
    minimal canonical embedding; the value does not depend on n, and simplex
    and crosspolytope share it because their proper faces are the same regular
    simplices.
    """
    cfg = cfg or MCConfig()
    family = Family(family)
    n = check_int("n", n)
    k = check_int("k", k)
    g = check_int("g", g)
    if n < 1:
        raise InvalidDimensionError(f"polytope dimension must be >= 1, got {n}")
    if k < 0 or g < 0:
        raise InvalidArgumentError(f"face dimensions must be >= 0, got k={k}, g={g}")
    hi = n - 1 if family is Family.CROSSPOLYTOPE else n
    if g > hi:
        raise InvalidFaceError(
            f"no canonical {g}-face of the {family.value} P_{n} (valid range 0..{hi})"
        )
    if k > g:
        return _exact_angle(0)
    if k == g:
        return _exact_angle(1)
    if family is Family.CUBE:
        return _exact_angle(Fraction(1, 2 ** (g - k)))
    if g == k + 1:
        return _exact_angle(Fraction(1, 2))
    key = ("int", _SHARED_FACE, 0, k, g, cfg.samples, cfg.seed, cfg.chunk_size)
    return _memoized_angle(key, lambda: _canonical_internal_cone(k, g), cfg)


def _canonical_internal_cone(k: int, g: int) -> Cone:
    """Internal cone of the face pair in its smallest simplex embedding.

    Simplex and crosspolytope proper faces share these canonical coordinates;
    the seed path uses family code 0 to mark the shared geometry.
    """
    cone = internal_cone(Family.SIMPLEX, g, k, g)
    return Cone(cone.frame, cone.data, seed_path=(KIND_INTERNAL, 0, k, g))
