"""Solid angles of polyhedral cones: exact branches, one-dimensional quadrature and sampling.

The angle of a cone C inside its linear hull L is the probability that a
standard Gaussian vector on L lands in C.  Two constructions cover everything
the projection formulas need:

  normal cone    Nor(Q_g, P_n) = {u in lin(P_n - x) : <u, v - x> <= 0 for all
                 vertices v}, x a relative-interior point of Q_g; its angle is
                 the external angle gamma(Q_g, P_n).
  internal cone  pos(Q_g - bary(Q_k)), the positive hull of a face seen from
                 the barycenter of one of its subfaces; its angle is the
                 internal angle beta(Q_k, Q_g).

External angles are never sampled.  Cube angles and faces of codimension
<= 1 are exact powers of 1/2 of the codimension, and a vertex of the simplex
or the crosspolytope has 1/(number of vertices), as all vertices are alike
and their angles sum to 1; these are Fractions with std_error 0.  Every other
simplex or crosspolytope external angle is a one-dimensional Gaussian integral
(Affentranger & Schneider 1992; Boeroeczky & Henk 1999), with s = sqrt(g + 1):

  simplex        gamma(Q_g, T_n) = int phi(x) Phi(x / s)^(n - g) dx
  crosspolytope  gamma(Q_g, C_n) = int_0^inf phi(z) (2 Phi(z / s) - 1)^(n - g - 1) dz

Both integrands are log-concave.  A scalar Newton search on each face's
log-integrand, with log Phi from math.erfc, finds its mode and curvature
width w, and one _QUAD_NODES-point Gauss-Legendre rule on the mode
+- _QUAD_WIDTHS w (clipped at 0 for the crosspolytope) sums it in log
space.  The rule's nodes come from Newton steps on the Legendre recurrence.
Such an angle is exact=True with exact_value None and std_error 0:
deterministic, and within QUADRATURE_RTOL of the integral over the n ranges
its comment names.  An angle below the smallest normal float, which could
not keep that accuracy, is a NumericError.  Quadrature values are memoized
in-process under the face alone.

external_angles takes every face a caller needs at once: the rule runs over
one node matrix of _BATCH_ROWS faces by _QUAD_NODES nodes at a time (no
temporary above about 2^16 floats), and each row is summed by NumPy's row
sum.  The node values are NumPy array expressions: log Phi(t) and
log(2 Phi(t) - 1) come from Q(t) = erfcx(t / sqrt 2) = 2 exp(t^2 / 2)
Phi(-t) and exp(-t^2 / 2), and from erf(t / sqrt 2) itself below
t = sqrt(2) / 2.  Q and erf are read from one table built on the first
quadrature angle from math.erfc and math.erf: nodes every 1/_TAIL_STEPS on
[0, _TAIL_EDGE], each with its degree-_TAIL_DEGREE Taylor step (2561 nodes,
148 KB with erf's 91 and exp(-t_j^2 / 2)).  Past the edge, where no node of
a face with n <= 2^53 lies, Q is its asymptotic series.  exp(-t^2 / 2) is
split at the nearest node, so no rounding of t^2 enters it.  Both logs stay
within 6.6e-16 relative of 40-digit values on [-36, 36], where math.erfc on
the rounded t / sqrt 2 loses 2e-14 by t = 12 and 1.2e-13 by t = 30.  Each
entry and each row is computed on its own, so a value does not depend on
its batch, and external_angle is the batch of one face.  An angle costs
about 0.017-0.026 ms inside a batch of 227 faces and a median 0.053 ms
alone, of which the Newton search is about 0.004-0.008 ms (n = 4-79,
g = 1-3, 2-core x86 VM, one thread, whose load moved these figures by up
to 1.7x between runs).  The row sums stay within 5e-16 relative of one
math.fsum per row (4.5e-16 over 31 380 faces with g <= 5 and n <= 1e4).

Internal angles beta(Q_k, Q_g) of the simplex and the crosspolytope with
codimension m = g - k >= 2 are angles of the regular g-simplex, that is,
orthant probabilities of m Gaussians with correlation -1/g.  At m = 2 and
3 these are closed forms, 1/4 - arcsin(1/g) / (2 pi) (Sheppard 1899) and
1/8 - 3 arcsin(1/g) / (4 pi) (Steck 1962), within 5.5e-17 and 3.1e-16
relative of 40-digit values for every g = 3..128, at about 0.3 us each.
Past m = 3, Steck's equicorrelated formula, continued to negative
correlation, gives (Boeroeczky & Henk 1999; Kabluchko & Zaporozhets, Adv.
Appl. Probab. 2020)

  beta(Q_k, Q_g) = Re int phi(y) Phi(i y / s)^m dy,   s = sqrt(g + 1).

On the real line the integrand oscillates; it is entire, so the sum runs on
the line Im y = c, where c minimises the log-integrand c^2/2 + m log
Phi(-c / s) along the imaginary axis (Newton steps by math.erfc), and there
the integrand hardly changes sign.  The same _QUAD_NODES-point rule sums it
over +-_QUAD_WIDTHS curvature widths, in log space.  Phi of a complex
argument is log Phi(z) = -log 2 - v^2 + log w(i v), v = -z / sqrt 2, with
the Faddeeva function w by Weideman's 40-term rational approximation (SIAM
J. Numer. Anal. 1994), NumPy only; the y^2 terms of phi and of Phi^m are
added before they are rounded, as they nearly cancel.  Such an angle is
exact=True with exact_value None and std_error 0, as is a closed-form
angle: within 3e-15 relative of the closed forms at m = 2, 3 and every
g = 3..128 (its tests check it there), and log beta within 4.6e-14 of
40-digit references up to g = 128, the cap (MAX_INTERNAL_G); it costs
0.09-0.16 ms (2-core x86 VM, one thread).  Every g >= 3 takes a closed
form at m = 2, 3 and the integral at m >= 4.

beta(0, 2) = 1/6 alone is still sampled, by cone_angle: the benchmark's
self-test needs one formula row with a nonzero stderr, and beta(0, 2) is
the only sampled input of that row (see _INTEGRAL_MIN_G).  The sampler
also stays as the integral's test oracle.  Both kinds of cone carry an
H-representation, a set of outer normals a with the cone equal to
{u in L : <u, a> <= 0 for all a}.  Normal cones take the vertex directions
v - x as their normals; they stay as an independent check of the
quadrature.  Internal cones are cut out
by the facets of Q_g that contain Q_k, which in canonical coordinates are
sign conditions u_i >= 0: on coordinates k+1..g for simplex-type faces,
k..g-1 for cube faces.

A cone's frame is an orthonormal basis of L, built by classical Gram-Schmidt
applied twice (one matrix-vector product per pass and row, rows kept in
order).  Membership is tested in frame coordinates: the normals are projected
onto the frame once, when the cone is built, into one contiguous block, and
a point z is in the cone when every score <z, frame @ a> is at most
HALFSPACE_TOL * (1 + |z|).  Ambient points of L are mapped to frame
coordinates first; the frame is orthonormal, so the test is the same.  The
sampler does not use it; its one library caller checks a built cone's
generators.

Sampling is conditional Monte Carlo (Rao-Blackwellization; Genz 1992 does
the same for multivariate normal probabilities).  Each cone carries an axis
u, minus the normalised sum of its unit outer normals a_i (normals below
DROP_TOL dropped), which must have c_i = -<a_i, u> > 0 for every i; an
orthonormal basis W of span(a_i) ∩ u^perp, r - 1 rows for normals of rank r,
so a cone's lineality drops out; and ray normals R_i = W (a_i / c_i + u).  A
point t u + w, w in W's span, is in the cone exactly when t >= max_i <R_i, w>,
so a standard Gaussian point is in it with probability Phi(-max_i <R_i, w>)
given its cross-section w.  The estimate is the mean of that probability over
standard Gaussian w, with its standard error (the scores' standard deviation
over sqrt(samples)): unbiased, with 5.8-6.6 times less variance per draw
than the hit rate 1[z in C] at codimension 2 and 3, 8.2-8.3 times at 4, 12
at 5, 17 and 29 at beta(0, 6) and beta(0, 7).  Phi comes from a table built
once per process, on the first sampled angle, from math.erfc: nodes every
1/_CDF_STEPS on [-_CDF_EDGE, _CDF_EDGE], each with its degree-_CDF_DEGREE
Taylor step, whose coefficients are Hermite polynomials times phi; values
within 2.2e-16 of math.erfc's, NumPy only, as SciPy stays off the formula
path.  A cone of rank 1 is a half-space, angle exactly 1/2, and one of
rank 0 its whole linear hull, angle exactly 1; neither is sampled.

Every angle is an Estimate, the package's one value-with-uncertainty type,
which the formula layers reuse for sums of angles.  Monte Carlo estimates
are deterministic: streams.angle_draws, the home of the sampler's stream
layout, draws a cone's cross-section rows on a fixed chunk grid from
counter-based streams derived from its seed_path, so values do not depend on
the order of evaluation, and cone_angle only scores them.  Sampled estimates are memoized
in-process, keyed by everything that fixes the draws: the face pair, the
sample count and the seed; integral values are memoized under the face pair
alone, as quadrature values are under the face.  The memo is the only cache
of values of the formula route; sums over many sizes, such as Poisson sums,
are rebuilt from it.  The cones behind those estimates are geometry: each canonical internal
cone is built once per process, read-only, and clear_angle_memo keeps it.

Internal angles of simplex and crosspolytope faces coincide: every proper face
of either series is a regular simplex with edge sqrt(2), and the canonical
coordinates of (Q_k, Q_g) agree.  Internal estimates are therefore computed
once on a minimal canonical embedding and shared across the two families.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from typing import ClassVar

import numpy as np

from .errors import (
    InvalidArgumentError,
    InvalidDimensionError,
    InvalidFaceError,
    InvalidPairError,
    NumericError,
)
from .families import Family, barycenter, canonical_face, check_count_size, check_int, exact_float, face_count, resolve_family, vertices
from .streams import DEFAULT_CHUNK, angle_draws, cone_path

ORTHONORMALITY_TOL = 1e-12
SPAN_TOL = 1e-10
HALFSPACE_TOL = 1e-10
# a row whose Gram-Schmidt residual is below this times 1 + |row| is dependent
DROP_TOL = 1e-10
# the relative accuracy every quadrature external angle keeps.  Tests check it
# on 30-digit constants at g = 1, 2, 5 and n - 2 and on the vertices' 1/f_0
# for n <= 1e4, and on the ridges' (g = n - 2) closed forms and the edges'
# (g = 1) Gaussian mean widths, by scipy's quad, for n <= 2^53
QUADRATURE_RTOL = 1e-12
# the largest n external_angles takes: up to 2^53 the rule's exponent n - g
# is an exact float; past it the exponent is rounded, and past 2^64 the
# window array would hold Python ints as objects, which np.exp rejects
MAX_EXTERNAL_N = 1 << 53
# Gauss-Legendre nodes, and the half-width of the rule in curvature widths of
# the log-integrand at its mode.  Vertex integrands (n = 1e4), whose left
# flank falls fastest, lose 1e-12 at 160 nodes and 2e-14 at 176; 96 nodes
# over +-14 widths lose about 1e-9 at n = 1e4
_QUAD_NODES = 176
_QUAD_WIDTHS = 20.0
# windows summed as one node matrix, so that no temporary exceeds about 2^16 floats
_BATCH_ROWS = (1 << 16) // _QUAD_NODES
# cap on Newton steps, for the rule's nodes and for the mode of an integrand
_NEWTON_STEPS = 100
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_SQRT2 = math.sqrt(2.0)
# the Phi table: nodes every 1/_CDF_STEPS on [-_CDF_EDGE, _CDF_EDGE], and
# the degree of each node's Taylor step, whose remainder stays below 1e-17
# within half a node spacing; past the edges Phi is within 1e-17 of 0 or 1
_CDF_EDGE = 8.5
_CDF_STEPS = 64
_CDF_DEGREE = 6
# the table of the external-angle rule: nodes every 1/_TAIL_STEPS on
# [0, _TAIL_EDGE], each with its degree-_TAIL_DEGREE Taylor step (Q within
# 5.1e-16 relative of 40-digit values at degree 5 and 6, 4.8e-14 at 4; erf
# within 4e-16 at 5).  No node of a face with n <= 2^53 lies past the edge:
# the widest window, n = 2 and g = 0, reaches t = 15.4.  Past it the first
# _TAIL_TERMS terms of Q's asymptotic series stand in, whose remainder is
# below 1e-17 there.  The first _ERF_NODES nodes, t < _ERF_EDGE, also carry
# the steps of erf(t / sqrt 2), which 1 - erfc would lose to cancellation
_TAIL_EDGE = 20
_TAIL_STEPS = 128
_TAIL_DEGREE = 5
_TAIL_TERMS = 10
_ERF_NODES = 91
_ERF_EDGE = (_ERF_NODES - 0.5) / _TAIL_STEPS  # just below sqrt(2) / 2
# the smallest g whose internal angles are deterministic: closed forms at
# m = g - k = 2, 3 (about 0.3 us) and the shifted Steck integral at m >= 4
# (0.09-0.16 ms); below it only beta(0, 2) is left, and it stays sampled: the benchmark
# self-test shifts a gaussian n=6 d=3 row by 20 of its stderrs, and that
# row's one inexact input is beta(0, 2).  It goes to 2 once the benchmark's
# formula workload is rebuilt around exact rows (ROADMAP item 5a)
_INTEGRAL_MIN_G = 3
# the largest g internal_angle takes, the range measured: log beta within
# 4.6e-14 of 40-digit references at g = 64 and 128 (tests/oracles.py); past
# it beta(0, g) soon leaves the float range, and beta(0, 256) is below it
MAX_INTERNAL_G = 128
# Weideman's rational approximation of the Faddeeva function: its number of
# terms, within 1.5e-14 relative of scipy's wofz on every pair's nodes up to
# g = 128 at 40
_FADDEEVA_TERMS = 40


@dataclass(frozen=True)
class MCConfig:
    """Sampling budget and stream identity for Monte Carlo angle estimation.

    workers is validated and ignored, and cache_path is neither validated nor
    read; they stay so that callers written for the old angle thread pool and
    angle cache file still build.
    """

    samples: int = 1_000_000
    seed: int = 0
    workers: int = 1
    cache_path: str | None = None
    # the fixed grid every estimate is sampled on
    chunk_size: ClassVar[int] = DEFAULT_CHUNK

    def __post_init__(self):
        # NumPy integers are stored as Python ints
        for name, lo in (("samples", 1), ("seed", 0), ("workers", 1)):
            object.__setattr__(self, name, check_int(name, getattr(self, name), lo))


@dataclass(frozen=True)
class Estimate:
    """A value with its uncertainty: an angle, a sum of angles or a row built from them.

    Exact estimates carry std_error 0 and, when the value is rational,
    exact_value as a Fraction; exact results with irrational values (simplex
    volumes, quadrature external angles, integral internal angles and sums
    of them) keep exact=True with exact_value=None, and are deterministic
    within QUADRATURE_RTOL.
    samples is the number of draws behind a sampled angle, and 0 for
    everything else.
    """

    value: float
    std_error: float = 0.0
    exact: bool = False
    exact_value: Fraction | None = None
    samples: int = 0

    def __post_init__(self):
        if self.exact and self.std_error != 0.0:
            raise NumericError("exact estimate must have zero std error")

    @classmethod
    def rational(cls, v: Fraction | int) -> Estimate:
        """The exact estimate of a rational value; one past the float range is an InvalidDimensionError."""
        v = Fraction(v)
        return cls(exact_float(v), 0.0, True, v)

    @property
    def method(self) -> str:
        """The report's method column."""
        return "exact" if self.exact else "monte_carlo"


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
    tuple mixed into sampling streams (streams.cone_path), and cones built
    without one all sample the one bare path ().
    frame_normals, set when the cone is built, holds the outer normals in frame
    coordinates, one contiguous row per normal.  axis, cross_section and
    ray_normals, set with it, are the sampler's u, W and R_i (see the module
    docstring), all in frame coordinates; a cone whose mean-normal axis is
    not interior is a NumericError.
    """

    frame: np.ndarray
    data: NormalConeData | PositiveHullData
    seed_path: tuple[int, ...] = ()
    frame_normals: np.ndarray = field(init=False, repr=False, compare=False)
    axis: np.ndarray = field(init=False, repr=False, compare=False)
    cross_section: np.ndarray = field(init=False, repr=False, compare=False)
    ray_normals: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        f = self.frame
        if f.ndim != 2:
            raise InvalidArgumentError("frame must be a 2-d array (rows = basis vectors)")
        gram = f @ f.T
        if gram.size and np.abs(gram - np.eye(f.shape[0])).max() > ORTHONORMALITY_TOL:
            raise NumericError("frame rows are not orthonormal to 1e-12")
        object.__setattr__(self, "frame_normals", np.ascontiguousarray((f @ self.data.normals.T).T))
        for name, value in zip(("axis", "cross_section", "ray_normals"), _axis_split(self.frame_normals)):
            object.__setattr__(self, name, value)
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
        worst = np.maximum.reduce(self.frame_normals @ z.T, axis=0, initial=-np.inf)
        return worst <= HALFSPACE_TOL * (1.0 + np.sqrt(np.einsum("ij,ij->i", z, z)))


def _axis_split(normals: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The axis u, cross-section basis W and ray normals R of the cone {z : <z, a> <= 0 for every row a}.

    Rows of normals shorter than DROP_TOL are dropped, the rest normalised;
    a cone without normals has u = 0, W with no rows and R with none.  W is
    the complement of u in the normals' span, with one row fewer than their
    rank.  Every c_i = -<a_i, u> must be positive.
    """
    lengths = np.linalg.norm(normals, axis=1)
    unit = normals[lengths > DROP_TOL] / lengths[lengths > DROP_TOL, None]
    total = unit.sum(axis=0)
    if not len(unit):
        return total, np.zeros((0, normals.shape[1])), np.zeros((0, 0))
    scaled = unit @ total  # c_i times |total|
    if not scaled.min() > 0.0:
        raise NumericError("the cone's mean-normal axis is not interior: some outer normal has <a, u> >= 0")
    norm = math.sqrt(float(total @ total))
    axis = -total / norm
    cross = complement_basis(axis[None], unit)
    return axis, cross, (unit * (norm / scaled)[:, None] + axis) @ cross.T


def orthonormal_basis(vecs: np.ndarray) -> np.ndarray:
    """Orthonormal basis of span(rows) by classical Gram-Schmidt applied twice.

    Rows are taken in order; each is projected off the rows kept so far in two
    passes (the second controls cancellation for near-dependent rows).  Rows
    whose residual is below DROP_TOL * (1 + |row|) are treated as dependent and
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
        if nw > DROP_TOL * (1.0 + np.linalg.norm(v)):
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
    family = resolve_family(family)
    face = canonical_face(family, n, g)
    if g > n - 1:
        raise InvalidFaceError(f"normal cone needs a proper face, got g = {g} = n")
    verts = vertices(family, n).astype(float)
    x = barycenter(face)
    lin_p = orthonormal_basis(verts - x)
    frame = complement_basis(face.vertices - x, lin_p)
    if frame.shape[0] != n - g:
        raise NumericError(f"normal cone frame has dimension {frame.shape[0]}, expected {n - g}")
    return Cone(frame, NormalConeData(x, verts), cone_path("external", family.value, n, g))


def internal_cone(family: Family, n: int, k: int, g: int) -> Cone:
    """pos(Q_g - bary(Q_k)) as a Cone; requires 0 <= k <= g with both faces canonical.

    The facets of Q_g through Q_k are coordinate hyperplanes, so the cone is
    {u in lin(Q_g - bary(Q_k)) : u_i >= 0} over the coordinates those facets
    fix: k+1..g for simplex-type faces (the vertices e_i outside Q_k), and
    k..g-1 for cube faces (the axes Q_g spans beyond Q_k).
    """
    family = resolve_family(family)
    return _internal_cone(family, n, k, g, cone_path("internal", family.value, k, g))


def _internal_cone(family: Family, n: int, k: int, g: int, seed_path: tuple[int, ...]) -> Cone:
    """internal_cone with the seed path given."""
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
    return Cone(frame, PositiveHullData(gens.astype(float), normals), seed_path)


def cone_angle(cone: Cone, cfg: MCConfig | None = None) -> Estimate:
    """Conditional Monte Carlo estimate of the solid angle of `cone` within its linear hull.

    Scores each block of standard Gaussian cross-section rows w that
    streams.angle_draws draws for the cone's seed path, one entry per row of
    cone.cross_section, by Phi(-max_i <R_i, w>), the probability that the
    axis coordinate puts the point in the cone, and returns the mean with its
    sample standard error; samples counts the rows.  Nothing is memoized
    here.  A cone of rank 1 is a half-space, exactly 1/2, and one of rank 0,
    the zero-dimensional {0} included, exactly 1: neither draws.  Only cones
    whose mean-normal axis is interior can be built (Cone).
    """
    cfg = cfg or MCConfig()
    if not len(cone.ray_normals):
        return Estimate.rational(1)
    width = cone.cross_section.shape[0]
    if width == 0:
        return Estimate.rational(Fraction(1, 2))
    shift = None
    sums, squares = [], []
    for w in angle_draws(cfg.seed, cone.seed_path, cfg.samples, width):
        lam = np.maximum.reduce(cone.ray_normals @ w.T, axis=0)
        h = _normal_cdf(np.negative(lam, out=lam))
        if shift is None:  # every sum is taken about the first block's mean, against cancellation
            shift = float(h.mean())
        h -= shift
        sums.append(float(h.sum()))
        squares.append(float(h @ h))
    mean = math.fsum(sums) / cfg.samples
    spread = max(math.fsum(squares) / cfg.samples - mean * mean, 0.0)
    return Estimate(shift + mean, math.sqrt(spread / cfg.samples), samples=cfg.samples)


@cache
def _cdf_table() -> np.ndarray:
    """Row i, column j: the Taylor coefficient Phi^(i)(x_j) / i! at node x_j = j / _CDF_STEPS - _CDF_EDGE, read-only.

    Phi comes from math.erfc; Phi^(i) = (-1)^(i-1) He_(i-1) phi for i >= 1,
    with the probabilists' Hermite polynomials He from their recurrence.
    """
    x = np.arange(2 * _CDF_EDGE * _CDF_STEPS + 1) / _CDF_STEPS - _CDF_EDGE
    phi = np.exp(-0.5 * x * x - _LOG_SQRT_2PI)
    table = np.empty((_CDF_DEGREE + 1, len(x)))
    table[0] = [0.5 * math.erfc(-v / _SQRT2) for v in x.tolist()]
    older, he = np.zeros_like(x), np.ones_like(x)  # He_(i-2), He_(i-1)
    for i in range(1, _CDF_DEGREE + 1):
        table[i] = (-1) ** (i - 1) * he * phi / math.factorial(i)
        older, he = he, x * he - (i - 1) * older
    table.flags.writeable = False
    return table


def _normal_cdf(x: np.ndarray) -> np.ndarray:
    """Phi at every entry of the 1-d array x, within 2.2e-16: the nearest node's Taylor step, clipped at +-_CDF_EDGE."""
    table = _cdf_table()
    x = np.clip(x, -_CDF_EDGE, _CDF_EDGE)
    nodes = np.rint(x * _CDF_STEPS)
    index = (nodes + _CDF_EDGE * _CDF_STEPS).astype(np.intp)
    step = x - nodes / _CDF_STEPS  # exact: the node is a multiple of 2^-6 within 2^-7 of x
    return _taylor(table, index, step)


def _taylor(table: np.ndarray, index: np.ndarray, step: np.ndarray) -> np.ndarray:
    """sum_i table[i, index] step^i, by Horner from the top row: each node's Taylor step, row i its i-th coefficients."""
    out = table[-1].take(index)
    for row in table[-2::-1]:
        out *= step
        out += row.take(index)
    return out


# ---------------------------------------------------------------------------
# external angles by one-dimensional quadrature


@cache
def _legendre_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the _QUAD_NODES-point Gauss-Legendre rule on [-1, 1], read-only.

    Newton steps on P_N from x_i = cos(pi (i + 3/4) / (N + 1/2)), all nodes
    at once, with P_N and P_{N-1} from the three-term recurrence; each weight
    is 2 / ((1 - x^2) P_N'(x)^2).  Golub-Welsch through np.linalg.eigh gives
    the same rule but raised peak RSS by 1-3 MB (LAPACK workspace); this
    touches only arrays of N floats.
    """
    n = _QUAD_NODES
    x = np.cos(np.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(_NEWTON_STEPS):
        p0, p1 = np.ones(n), x
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        slope = n * (x * p1 - p0) / (x * x - 1.0)
        step = p1 / slope
        x = x - step
        if np.abs(step).max() < 1e-15:
            break
    else:
        raise NumericError("Gauss-Legendre nodes did not converge")
    weights = 2.0 / ((1.0 - x * x) * slope * slope)
    x.flags.writeable = weights.flags.writeable = False
    return x, weights


def _newton_mode(
    slopes: Callable[[float], tuple[float, float]], lo: float, hi: float, x: float, failure: Callable[[], str]
) -> tuple[float, float]:
    """The mode of a concave h and its curvature width (-h'')^(-1/2), from the start x.

    slopes(x) is (h'(x), h''(x)), and h' changes sign in the bracket
    (lo, hi).  Newton steps stop within 1e-9 widths of the mode; each moves
    the bracket's end on its side of the mode, and a step that leaves the
    bracket falls back to bisection.  No mode within _NEWTON_STEPS steps is a
    NumericError whose message is failure().
    """
    for _ in range(_NEWTON_STEPS):
        d1, d2 = slopes(x)
        if d1 > 0.0:
            lo = x
        else:
            hi = x
        step = -d1 / d2
        if abs(step) * math.sqrt(-d2) < 1e-9:  # within 1e-9 widths of the mode
            return x, 1.0 / math.sqrt(-d2)
        x += step
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
    raise NumericError(failure())


def _log_cdf(t: float) -> float:
    """log Phi(t) for t >= 0, without cancellation near 1: the Newton search keeps x, and t = x / s, above 0."""
    return math.log1p(-0.5 * math.erfc(t / _SQRT2))


def _log_two_sided(t: float) -> float:
    """log(2 Phi(t) - 1) = log erf(t / sqrt 2) for t > 0."""
    y = t / _SQRT2
    return math.log(math.erf(y)) if y < 0.5 else math.log1p(-math.erfc(y))


@cache
def _tail_table() -> tuple[np.ndarray, np.ndarray]:
    """Taylor coefficients of Q(t) = erfcx(t / sqrt 2) and of erf(t / sqrt 2) at t_j = j / _TAIL_STEPS, and exp(-t_j^2 / 2); read-only.

    erfcx(y) = exp(y^2) erfc(y), so Phi(-t) = Q(t) exp(-t^2 / 2) / 2.  Row i
    of the first array is the i-th coefficient, Q^(i)(t_j) / i! in column j
    for every node, then E^(i)(t_j) / i! for E(t) = erf(t / sqrt 2) in the
    _ERF_NODES columns after them.  Q(t_j) is _scaled_erfc(t_j / sqrt 2);
    from Q' = t Q - sqrt(2 / pi) the rest follow c_1 = t c_0 - sqrt(2 / pi)
    and (i + 1) c_(i+1) = t c_i + c_(i-1).  That recurrence loses relative
    accuracy in c_i as t grows, but not in c_i times the i-th power of a
    Taylor step.  E(t_j) is math.erf, and E^(i) = (-1)^(i-1) He_(i-1) E',
    E' = sqrt(2 / pi) exp(-t^2 / 2), with the probabilists' Hermite
    polynomials He from their recurrence.
    """
    t = np.arange(_TAIL_EDGE * _TAIL_STEPS + 1) / _TAIL_STEPS
    table = np.empty((_TAIL_DEGREE + 1, len(t) + _ERF_NODES))
    tail, erf = table[:, : len(t)], table[:, len(t) :]
    tail[0] = [_scaled_erfc(v) for v in (t / _SQRT2).tolist()]
    tail[1] = t * tail[0] - math.sqrt(2.0 / math.pi)
    for i in range(1, _TAIL_DEGREE):
        tail[i + 1] = (t * tail[i] + tail[i - 1]) / (i + 1)
    gauss = np.exp(-0.5 * t * t)  # t_j^2 = j^2 / 2^14 is exact
    low = t[:_ERF_NODES]
    erf[0] = [math.erf(v) for v in (low / _SQRT2).tolist()]
    older, he = np.zeros_like(low), np.ones_like(low)  # He_(i-2), He_(i-1)
    for i in range(1, _TAIL_DEGREE + 1):
        erf[i] = (-1) ** (i - 1) * he * math.sqrt(2.0 / math.pi) * gauss[:_ERF_NODES] / math.factorial(i)
        older, he = he, low * he - (i - 1) * older
    table.flags.writeable = gauss.flags.writeable = False
    return table, gauss


def _scaled_erfc(y: float) -> float:
    """erfcx(y) = exp(y^2) erfc(y) from math.erfc and math.exp.

    y^2 is split into its rounded value and the exact rest (Dekker's
    product), as rounding it would move exp(y^2) by about y^2 ulps.
    """
    square = y * y
    split = 134217729.0 * y  # 2^27 + 1 splits y into two halves of 26 bits
    high = split - (split - y)
    low = y - high
    rest = ((high * high - square) + 2.0 * high * low) + low * low
    return math.erfc(y) * math.exp(square) * (1.0 + rest)


def _tail_factors(t: np.ndarray, erf_below: bool) -> tuple[np.ndarray, np.ndarray]:
    """Q(t) = erfcx(t / sqrt 2), or erf(t / sqrt 2) below _ERF_EDGE if erf_below, and exp(-t^2 / 2), at every t >= 0.

    Q exp(-t^2 / 2) is 2 Phi(-t).  Each value is the nearest node's Taylor
    step, and past the table's edge Q is the first _TAIL_TERMS terms of its
    asymptotic series.  exp(-t^2 / 2) is the node's exp(-t_j^2 / 2) times
    exp(-(t - t_j)(t + t_j) / 2), so that no rounding of t^2, about t^2 / 2
    ulps, enters it; past the edge the nearest multiple of 2^-7 stands in
    for t_j.
    """
    table, gauss = _tail_table()
    nodes = np.rint(np.minimum(t, _TAIL_EDGE) * _TAIL_STEPS)
    index = nodes.astype(np.intp)
    nodes /= _TAIL_STEPS
    delta = t - nodes  # exact within the table: the node is a multiple of 2^-7 within 2^-8 of t
    step = np.minimum(delta, 0.5 / _TAIL_STEPS)
    delta *= -0.5 * (t + nodes)
    gaussian = np.exp(delta, out=delta) * gauss.take(index)
    if erf_below:
        index[t < _ERF_EDGE] += len(gauss)  # to erf's columns: these nodes are below _ERF_NODES
    values = _taylor(table, index, step)
    far = t > _TAIL_EDGE
    if far.any():  # no quadrature node gets here (see _TAIL_EDGE)
        beyond = t[far]
        inverse = 1.0 / (beyond * beyond)
        series = np.ones_like(inverse)
        for k in range(_TAIL_TERMS - 1, 0, -1):  # Horner on 1 - 1/t^2 + 1 3/t^4 - 1 3 5/t^6 ...
            series *= -(2 * k - 1) * inverse
            series += 1.0
        values[far] = series * math.sqrt(2.0 / math.pi) / beyond
        rounded = np.rint(beyond * _TAIL_STEPS) / _TAIL_STEPS
        gaussian[far] = np.exp(-0.5 * rounded * rounded) * np.exp(-0.5 * (beyond - rounded) * (beyond + rounded))
    return values, gaussian


def _log_f_nodes(family: Family, t: np.ndarray) -> np.ndarray:
    """log Phi (simplex) or _log_two_sided (crosspolytope) at every entry of the array t.

    From _tail_factors, Phi(t) = 1 - Q(t) exp(-t^2 / 2) / 2 for t >= 0, and
    log Phi(t) = log(Q(|t|) / 2) - t^2 / 2 below, which keeps its accuracy
    at any t; 2 Phi(t) - 1 = erf(t / sqrt 2) below _ERF_EDGE, and
    1 - Q(t) exp(-t^2 / 2) from there on.  NumPy only, as SciPy stays off
    the formula path; each entry is computed on its own, whatever else t
    holds.
    """
    if family is Family.SIMPLEX:
        scaled, gauss = _tail_factors(np.abs(t), False)
        return np.where(t >= 0.0, np.log1p(-0.5 * scaled * gauss), np.log(0.5 * scaled) - 0.5 * t * t)
    values, gauss = _tail_factors(t, True)  # erf(t / sqrt 2) < 0.53 below _ERF_EDGE, so both logs are finite
    return np.where(t < _ERF_EDGE, np.log(values), np.log1p(-values * gauss))


def _quadrature_window(family: Family, n: int, g: int) -> tuple[int, float, float, float, float]:
    """(m, s, a, b, peak) of the rule for gamma(Q_g, P_n), 0 <= g <= n - 2.

    The integrand is phi(x) F(x / s)^m with F = Phi on the line (simplex) or
    F = 2 Phi - 1 on x > 0 (crosspolytope); F' = c phi.  Its log
    h(x) = -x^2/2 + m log F(x / s) is concave, with h' = -x + (m / s) r and
    h'' = -1 - (m / s^2) r (t + r) for r = c phi(t) / F(t), t = x / s.
    The mode lies in (0, s + 1.2 m / s), where h' changes sign, and
    _newton_mode finds it from x = s.  The rule runs over [a, b], the mode
    +- _QUAD_WIDTHS curvature widths clipped at the support, and peak is h
    at the mode.
    """
    s = math.sqrt(g + 1)
    if family is Family.SIMPLEX:
        m, log_f, c, floor = n - g, _log_cdf, 1.0, -math.inf
    else:
        m, log_f, c, floor = n - g - 1, _log_two_sided, 2.0, 0.0

    def slopes(x: float) -> tuple[float, float]:
        t = x / s
        r = c * math.exp(-0.5 * t * t - _LOG_SQRT_2PI - log_f(t))
        return -x + m / s * r, -1.0 - m / (s * s) * r * (t + r)

    x, width = _newton_mode(
        slopes, 0.0, s + 1.2 * m / s, s, lambda: f"no mode found for the external angle of {family.value} n={n} g={g}"
    )
    peak = -0.5 * x * x + m * log_f(x / s)
    return m, s, max(floor, x - _QUAD_WIDTHS * width), x + _QUAD_WIDTHS * width, peak


def _rule_sums(family: Family, windows: list[tuple[int, float, float, float, float]]) -> list[float]:
    """The rule over each window, as one (len(windows), _QUAD_NODES) node matrix.

    Each row is summed in log space relative to its peak, by NumPy's row sum.
    Every entry and every row is computed on its own, so a value does not
    depend on the other windows of the batch.
    """
    nodes, weights = _legendre_rule()
    m, s, a, b, peak = np.array(windows).T[:, :, None]
    half, mid = 0.5 * (b - a), 0.5 * (a + b)
    x = mid + half * nodes
    h = -0.5 * x * x + m * _log_f_nodes(family, x / s)
    totals = (weights * np.exp(h - peak)).sum(axis=1)
    scales = zip(peak[:, 0].tolist(), half[:, 0].tolist(), totals.tolist())
    return [math.exp(p - _LOG_SQRT_2PI) * hw * total for p, hw, total in scales]


def _external_quadratures(family: Family, faces: list[tuple[int, int]]) -> list[float]:
    """gamma(Q_g, P_n) of the simplex or the crosspolytope for every (n, g) of faces, 0 <= g <= n - 2.

    Each face's window comes from its own Newton search; the rule then runs
    over _BATCH_ROWS windows at a time.  An angle below the smallest normal
    float is a NumericError that names its face.
    """
    windows = [_quadrature_window(family, n, g) for n, g in faces]
    values: list[float] = []
    for start in range(0, len(windows), _BATCH_ROWS):
        values += _rule_sums(family, windows[start : start + _BATCH_ROWS])
    for (n, g), value in zip(faces, values):
        if not value >= sys.float_info.min:  # a subnormal cannot keep QUADRATURE_RTOL
            raise NumericError(
                f"the external angle of the {family.value} n={n} g={g} is below the smallest normal float"
            )
    return values


# ---------------------------------------------------------------------------
# internal angles: closed forms at codimension 2 and 3, the shifted Steck integral past them


@cache
def _faddeeva_coefficients() -> tuple[float, tuple[float, ...]]:
    """L and the _FADDEEVA_TERMS coefficients a_1.. of Weideman's approximation.

    Weideman (SIAM J. Numer. Anal. 1994) takes a_j from the discrete Fourier
    transform of f(t) = exp(-t^2) (L^2 + t^2) at t = L tan(theta / 2); f is
    even in theta, so the real part of that transform is one cosine sum per
    coefficient.  These are math's functions and math.fsum: NumPy's fft
    module, and its tan loop, would each add resident memory for 40 numbers.
    """
    n = _FADDEEVA_TERMS
    half = 2 * n  # the transform has 2 * half points, theta = j pi / half
    scale = math.sqrt(n / _SQRT2)
    theta = [j * math.pi / half for j in range(1, half)]
    f = [math.exp(-t * t) * (scale * scale + t * t) for t in (scale * math.tan(0.5 * a) for a in theta)]
    return scale, tuple(
        (scale * scale + 2.0 * math.fsum(fi * math.cos(j * a) for fi, a in zip(f, theta))) / (2 * half)
        for j in range(1, n + 1)
    )


def _faddeeva(z: np.ndarray) -> np.ndarray:
    """w(z) = exp(-z^2) erfc(-i z) at every entry of z, Im z >= 0, by Weideman's rational approximation.

    1 / (L - i z) is its conjugate over its squared modulus, so that no
    complex division is taken.
    """
    scale, coefficients = _faddeeva_coefficients()
    below = scale - 1j * z
    inverse = below.conjugate() * (1.0 / (below.real * below.real + below.imag * below.imag))
    ratio = (scale + 1j * z) * inverse
    p = np.zeros_like(ratio)
    for a in reversed(coefficients):  # Horner, from a_N down to a_1
        p *= ratio
        p += a
    return (2.0 * p * inverse + 1.0 / math.sqrt(math.pi)) * inverse


def _steck_window(k: int, g: int) -> tuple[int, float, float, float]:
    """(m, s, c, w): the contour Im y = c and the curvature width w for beta(k, g), m = g - k >= 2.

    c minimises h(c) = c^2/2 + m log Phi(-c / s), the log-integrand on the
    imaginary axis, with h' = c - (m / s) R and h'' = 1 - (m / s^2) R (R - t)
    for R = phi(t) / Phi(-t), t = c / s.  h is convex (R (R - t) < 1 and
    m < s^2), h'(0) < 0, and t < R < t + 1/t puts the minimum below
    sqrt(m s^2 / (k + 1)); _newton_mode finds the mode of -h from there, and
    w = h''^(-1/2).
    """
    m, s = g - k, math.sqrt(g + 1)

    def slopes(c: float) -> tuple[float, float]:  # of -h
        t = c / s
        r = math.exp(-0.5 * t * t - _LOG_SQRT_2PI) / (0.5 * math.erfc(t / _SQRT2))
        return m / s * r - c, m / (s * s) * r * (r - t) - 1.0

    hi = math.sqrt(m * (g + 1) / (k + 1))
    c, width = _newton_mode(slopes, 0.0, hi, hi, lambda: f"no contour found for the internal angle beta({k}, {g})")
    return m, s, c, width


def _steck_integral(k: int, g: int) -> float:
    """beta(k, g) of the regular g-simplex, m = g - k >= 2, 3 <= g <= MAX_INTERNAL_G.

    beta(k, g) = Re int phi(y) Phi(i y / s)^m dy, s = sqrt(g + 1), summed on
    the line y = x + i c of _steck_window by _legendre_rule over
    x in +-_QUAD_WIDTHS w.  log Phi(z) = -log 2 - v^2 + log w(i v) with
    v = -z / sqrt 2, i v = y / (s sqrt 2) in the upper half-plane; each
    node's log-integrand is taken relative to the largest real part.
    """
    m, s, c, w = _steck_window(k, g)
    nodes, weights = _legendre_rule()
    half = _QUAD_WIDTHS * w
    y = half * nodes + 1j * c
    # m v^2 - y^2 / 2 is one term, as its two parts nearly cancel at large c
    log_f = m * np.log(0.5 * _faddeeva(y / (s * _SQRT2))) - (k + 1) / (2 * s * s) * (y * y) - _LOG_SQRT_2PI
    peak = float(log_f.real.max())
    total = float((weights * np.exp(log_f - peak)).sum().real)
    value = math.exp(peak) * half * total
    if not value >= sys.float_info.min:  # a subnormal cannot keep the integral's accuracy
        raise NumericError(f"the internal angle beta({k}, {g}) is below the smallest normal float")
    return value


def _simplex_internal_angle(k: int, g: int) -> float:
    """beta(k, g) of the regular g-simplex, m = g - k >= 2: a closed form at m = 2, 3, else _steck_integral.

    With rho = -1/g, Sheppard's bivariate orthant probability
    1/4 + arcsin(rho) / (2 pi) and the trivariate one of equal correlations
    1/8 + 3 arcsin(rho) / (4 pi).
    """
    m = g - k
    if m == 2:
        return 0.25 - math.asin(1 / g) / (2 * math.pi)
    if m == 3:
        return 0.125 - 3 * math.asin(1 / g) / (4 * math.pi)
    return _steck_integral(k, g)


# ---------------------------------------------------------------------------
# memoization

_MEMO: dict[tuple, Estimate] = {}


def clear_angle_memo() -> None:
    """Drop every memoized angle value; the cached internal cones, being geometry, stay."""
    _MEMO.clear()


def external_angle(family: Family, n: int, g: int, cfg: MCConfig | None = None) -> Estimate:
    """gamma(Q_g, P_n): the external angle of P_n at its canonical g-face.

    The one-face case of external_angles.  No external angle is sampled, so
    cfg is accepted only for callers that pass one to every angle, and
    ignored.
    """
    return external_angles(family, [(n, g)])[0]


def external_angles(family: Family, faces: Iterable[tuple[int, int]]) -> list[Estimate]:
    """gamma(Q_g, P_n) for every face (n, g) of faces, in order.

    Rational for cubes and for g >= n-1 (the polytope itself, or a facet):
    the codimension's power of 1/2, whose count 2^(n-g) must be a float
    (codimension at most 1023); and for vertices: one over the vertex
    count.  Every other angle is exact with exact_value None, memoized under
    the face alone; the faces missing from the memo go through
    _external_quadratures as one batch.  A quadrature value does not depend
    on the batch it was taken in, so a memo hit is what recomputation gives.
    Every face is validated before any is computed; n is at most
    MAX_EXTERNAL_N = 2^53.
    """
    family = resolve_family(family)
    checked = []
    missing: dict[tuple[int, int], None] = {}  # in first-seen order, each face once
    for n, g in faces:
        n = check_int("n", n)
        g = check_int("g", g)
        if n < 1:
            raise InvalidDimensionError(f"polytope dimension must be >= 1, got {n}")
        if n > MAX_EXTERNAL_N:
            raise InvalidDimensionError(f"external angles capped at polytope dimension n = 2^53, got {n}")
        if g < 0 or g > n:
            raise InvalidFaceError(f"external angle needs 0 <= g <= n, got g={g}, n={n}")
        rational = _rational_external(family, n, g)
        if rational is None and ("ext", family.value, n, g) not in _MEMO:
            missing[n, g] = None
        checked.append((n, g, rational))
    if missing:
        for (n, g), value in zip(missing, _external_quadratures(family, list(missing))):
            _MEMO["ext", family.value, n, g] = Estimate(value, 0.0, True)
    return [_MEMO["ext", family.value, n, g] if r is None else Estimate.rational(r) for n, g, r in checked]


def _rational_external(family: Family, n: int, g: int) -> Fraction | None:
    """The rational external angle of a valid face, or None where it takes quadrature."""
    if family is Family.CUBE or g >= n - 1:
        check_count_size(n - g)  # before the count 2^(n-g) is built
        count = 1 << (n - g)
        exact_float(count)  # 2^1024 passes the size check but is past the float range
        return Fraction(1, count)
    if g == 0:
        return Fraction(1, face_count(family, n, 0))
    return None


def internal_angle(
    family: Family, n: int, k: int, g: int, cfg: MCConfig | None = None
) -> Estimate:
    """beta(Q_k, Q_g): the internal angle of Q_g at its subface Q_k.

    k > g gives 0.  Cubes and codimension g-k <= 1 are exact powers 2^-(g-k);
    k = g gives 1, the empty-cone convention that makes the top projection
    term reproduce facet counts.  Every other angle is the regular
    g-simplex's: it does not depend on n, and simplex and crosspolytope share
    it because their proper faces are the same regular simplices.  For
    g >= 3 it is a closed form at m = g - k = 2, 3 and the shifted Steck
    integral at m >= 4 (module docstring), exact=True with exact_value None
    and std_error 0 either way, memoized in-process under (k, g)
    whatever cfg says; g is at most MAX_INTERNAL_G = 128, past which a
    simplex or crosspolytope pair is an InvalidDimensionError.  beta(0, 2)
    alone is sampled, by cone_angle on a minimal canonical embedding at
    cfg.samples draws, and memoized under (0, 2, cfg.samples, cfg.seed).
    """
    cfg = cfg or MCConfig()
    family = resolve_family(family)
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
        return Estimate.rational(0)
    if family is Family.CUBE or g - k <= 1:
        return Estimate.rational(Fraction(1, 2 ** (g - k)))
    if g > MAX_INTERNAL_G:
        raise InvalidDimensionError(
            f"internal angles of simplex faces capped at g = {MAX_INTERNAL_G}, got beta({k}, {g})"
        )
    if g >= _INTEGRAL_MIN_G:
        key = ("int", k, g)
        if key not in _MEMO:
            _MEMO[key] = Estimate(_simplex_internal_angle(k, g), 0.0, True)
        return _MEMO[key]
    key = ("int", k, g, cfg.samples, cfg.seed)
    if key not in _MEMO:
        _MEMO[key] = cone_angle(_canonical_internal_cone(k, g), cfg)
    return _MEMO[key]


@cache
def _canonical_internal_cone(k: int, g: int) -> Cone:
    """Internal cone of the face pair in its smallest simplex embedding, built once per process.

    Simplex and crosspolytope proper faces share these canonical coordinates;
    the seed path has no family (code 0) to mark the shared geometry.  The cone
    is geometry, not an estimate: clear_angle_memo leaves it cached, and its
    arrays are read-only, so every caller sees the bits a rebuild gives.
    """
    cone = _internal_cone(Family.SIMPLEX, g, k, g, cone_path("internal", None, k, g))
    for a in (cone.frame, cone.frame_normals, cone.axis, cone.cross_section, cone.ray_normals,
              cone.data.generators, cone.data.normals):
        a.flags.writeable = False
    return cone
