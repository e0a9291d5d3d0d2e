"""Expected face numbers of random projections and Gaussian random polytopes.

The central quantity is E f_k of the image of P_n under a uniform random
orthogonal projection to R^d.  For d <= n it equals

    2 * sum over j = d, d-2, d-4, ..., j >= 1 of
        c(n, j-1) * c(j-1, k) * beta(Q_k, Q_{j-1}) * gamma(Q_{j-1}, P_n)

with face counts c from the family's combinatorics, internal angles beta and
external angles gamma from the angle engine.  For d >= n the projection is
injective on P_n almost surely, so f_k is the face count of P_n and the sum
is not evaluated.  Cube angles are powers of 1/2 that cancel against the
face counts, so a cube's value is the exact integer of
expected_f_cube_closed_form, which is what makes cube monotonicity verdicts
exact; no cube angle is taken.  The sum of a simplex or crosspolytope always
has a quadrature external angle, so when its internal angles are exact too
(as in every planar sum) it is exact with exact_value None and std_error 0,
deterministic within QUADRATURE_RTOL.
An exact count past the float range, which a report could not carry, is an
InvalidDimensionError, found before the count is built where it is a face
count or a closed form.

A monotonicity table and a Poisson series take E f_k over a range of sizes
in one pass: each subface count c(j-1, k) once and each size's term
counts, checked against the float range first; then one external_angles
call for every external angle of the range, each internal angle
beta(Q_k, Q_{j-1}) once, and each size's terms, j descending from d by 2,
so that every value is the one expected_f_model gives at its size alone,
bit for bit.
expected_f_model and expected_f_projection are that pass over one size.

Every result is an angles.Estimate.  A Poissonized expectation and a row of
a monotonicity table extend it with keyword-only fields: the truncation bound
and term count of the Poisson sum, and the row's n and strict-increase
verdict.

Every formula target is a row of families.MODEL_TABLE, or a family's own
row (P_n itself, shift 0): the target with parameter n has the expected
f-vector of the projected P_{n - shift}.  So the convex hull of n iid
standard Gaussian points behaves like a projected (n-1)-simplex, the hull of
n symmetrized pairs like a projected n-crosspolytope, and the zonotope sum
of n random segments like a projected n-cube.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

import numpy as np

from .angles import QUADRATURE_RTOL, Estimate, MCConfig, external_angle, external_angles, internal_angle
from .errors import InvalidArgumentError, InvalidDimensionError, TruncationError
from .families import (
    LOG_FLOAT_MAX,
    MODEL_TABLE,
    Family,
    Model,
    canonical_face_volume,
    check_count_size,
    check_int,
    check_real,
    exact_float,
    face_count,
    model_row,
    resolve_family,
    target_row,
)

GAUSSIAN_MODELS = tuple(name for name, row in MODEL_TABLE.items() if row.gaussian)
# the most sizes one Poisson sum takes, which every model reaches near t = 5000: one
# gaussian d = 2 sum at t = 4900 took 0.65 s, and a 10 000-point grid over
# t = 4000-5000 took 13 s (2-core x86 VM)
MAX_POISSON_SIZE = 10_000


def _term(count: float, beta: Estimate, gamma: Estimate) -> tuple[float, float]:
    """The value count * beta * gamma of one j-term and its standard error, beta's alone: gamma is exact."""
    return count * beta.value * gamma.value, count * (gamma.value * beta.std_error)


def expected_f_projection(
    family: Family, n: int, d: int, k: int, cfg: MCConfig | None = None
) -> Estimate:
    """E f_k of the random projection of P_n to d dimensions.

    Deterministic branches: k beyond min(n, d) gives 0; k = min(n, d) gives 1
    (the image itself); d >= n gives the face count of P_n (injective); d = 1
    gives the segment counts (2, 1); a cube gives its closed form.  The
    general branch evaluates the projection sum: exact without an
    exact_value when every angle is exact, and as a Monte Carlo estimate
    otherwise.  An exact value past the float range is an
    InvalidDimensionError.
    """
    return expected_f_model(target_row(resolve_family(family)), check_int("n", n, 1), d, k, cfg)


def expected_f_cube_closed_form(n: int, d: int, k: int) -> int:
    """E f_k of a projected cube, as an integer, by the collapsed sum.

    Cube internal and external angles are powers of 1/2 that cancel against
    the 2-power in the face counts, leaving 2 * sum_j C(n, j-1) * C(j-1, k),
    whose terms with j - 1 < k vanish.  It is every cube value of the
    projection sum: no cube angle term is multiplied out.  Requires
    1 <= d <= n and 0 <= k < d.
    A total past the float range is an InvalidDimensionError, found from its
    largest term before any is built.
    """
    n = check_int("n", n, 1)
    d = check_int("d", d, 1)
    k = check_int("k", k, 0)
    if d > n:
        raise InvalidArgumentError(f"closed form needs d <= n, got d={d} > n={n}")
    if k >= d:
        raise InvalidArgumentError(f"closed form needs k < d, got k={k}, d={d}")
    # the term C(n, i) C(i, k) = C(n, k) C(n - k, i - k), i = j - 1, at d - 1 or, if that
    # is past the middle (n + k) / 2, at the i of d - 1's parity just below it, is at most
    # the total and near its largest term: the total's size, known before any term is built
    i = min(d - 1, (n + k) // 2)
    i -= (d - 1 - i) % 2
    check_count_size(0, (n, k), (n - k, i - k))
    return 2 * sum(math.comb(n, j - 1) * math.comb(j - 1, k) for j in range(d, k, -2))


def expected_f_model(model: str | Model, n: int, d: int, k: int, cfg: MCConfig | None = None) -> Estimate:
    """E f_k of a target row or MODEL_TABLE name with parameter n: that of the projected P_{n - shift}.

    n - shift < 0 is the empty hull.  n - shift = 0 is a single point for
    simplex and cube rows (P_0 of either is one vertex, the zonotope of no
    segments is {0}), and the empty hull for crosspolytope rows, whose P_0
    has no vertex.
    """
    row = model if isinstance(model, Model) else model_row(model)
    n = check_int("n", n, 0)
    d = check_int("d", d, 1)
    k = check_int("k", k, 0)
    return _model_values(row, (n,), d, k, cfg)[0]


def _model_values(row: Model, sizes: Sequence[int], d: int, k: int, cfg: MCConfig | None) -> list[Estimate]:
    """expected_f_model(row, n, d, k, cfg) for each n of sizes, in order, from one batch of angles.

    sizes, d and k are valid.  Where d >= 2 and k < d, a simplex or
    crosspolytope size with n - shift > d takes the projection sum; every
    other size, each cube size included, is rational and takes no angle:
    _rational_value gives it, one size at a time.
    """
    family, js = row.family, range(d, 0, -2)
    summed = d >= 2 and k < d and family is not Family.CUBE
    sums = [n - row.shift for n in sizes if n - row.shift > d] if summed else []
    subfaces = [face_count(family, j - 1, k, on_polytope=False) for j in js] if sums else []
    rows: list[Estimate | list[float]] = []  # a rational size's value, or the counts of its terms
    for n in sizes:
        m = n - row.shift
        if not summed or m <= d:
            rows.append(_rational_value(row, n, d, k))
        else:  # the float c(m, j-1) c(j-1, k) * beta.value would take, checked
            rows.append([exact_float(face_count(family, m, j - 1) * c2) for j, c2 in zip(js, subfaces)])
    # the angles come after every count: a count past the float range is the
    # error of its size, not an angle below that range which it would scale
    gammas = iter(external_angles(family, [(m, j - 1) for m in sums for j in js]) if sums else ())
    betas = [internal_angle(family, sums[0], k, j - 1, cfg) for j in js] if sums else []
    exact = all(beta.exact for beta in betas)  # every external angle is exact
    values: list[Estimate] = []
    for counts in rows:
        if isinstance(counts, Estimate):
            values.append(counts)
            continue
        terms = [_term(count, beta, next(gammas)) for count, beta in zip(counts, betas)]
        value = 2.0 * sum(v for v, _ in terms)
        if exact:
            values.append(Estimate(value, 0.0, True))
        else:
            # independent terms: different face pairs on different streams
            values.append(Estimate(value, 2.0 * math.hypot(*(se for _, se in terms))))
    return values


def _rational_value(row: Model, n: int, d: int, k: int) -> Estimate:
    """expected_f_model(row, n, d, k) at a size that takes no projection sum.

    A cube size past the injective case ends in expected_f_cube_closed_form,
    which checks its own total against the float range and sums its terms.
    """
    m = n - row.shift
    if m < 0 or (m == 0 and row.family is Family.CROSSPOLYTOPE):  # P_m has no vertex: the empty hull
        return Estimate.rational(0)
    if k >= min(m, d):  # the image itself, or no face
        return Estimate.rational(1 if k == min(m, d) else 0)
    if d >= m:
        return Estimate.rational(face_count(row.family, m, k, on_polytope=True, fits_float=True))
    if d == 1:
        # the image is a segment for every draw; only k = 0 reaches here
        return Estimate.rational(2)
    return Estimate.rational(expected_f_cube_closed_form(m, d, k))  # a cube


def expected_f_zonotope(n: int, d: int, k: int) -> Estimate:
    """E f_k of the Minkowski sum of n segments with iid Gaussian directions in R^d; always exact."""
    return expected_f_model("zonotope", check_int("n", n, 1), d, k)


# ---------------------------------------------------------------------------
# intrinsic volumes and the T-functional scaling

def intrinsic_volume(family: Family, n: int, k: int) -> Estimate:
    """V_k(P_n) = c(n, k) * gamma(Q_k, P_n) * Vol_k(Q_k).

    Rational for cubes (V_k = C(n, k), at every n, read without an angle) and
    for k = 0 (V_0 = 1); exact without an exact_value otherwise.  The
    crosspolytope's top volume V_n = 2^n/n!, rational too, is a special
    branch since it has no canonical n-face.
    """
    family = resolve_family(family)
    n = check_int("n", n, 1)
    k = check_int("k", k, 0)
    if k > n:
        raise InvalidArgumentError(f"intrinsic volume needs 0 <= k <= n, got k={k}")
    if family is Family.CROSSPOLYTOPE and k == n:
        return Estimate.rational(Fraction(2**n, math.factorial(n)))
    if family is Family.CUBE:
        # c(n, k) = 2^(n-k) C(n, k) faces, each with external angle 2^(k-n) and volume 1
        check_count_size(0, (n, k))
        return Estimate.rational(math.comb(n, k))
    c = face_count(family, n, k, on_polytope=True)
    gamma = external_angle(family, n, k)
    value = canonical_face_volume(family, k, c, gamma.value)
    return Estimate(value, 0.0, True, c * gamma.exact_value if k == 0 else None)


def t_functional_expected(d: int, k: int, b: float, expected_f_value: float, model: str = "gaussian") -> float:
    """Scale the model's expected k-face count into its expected size functional, E sum_F vol_k(F)^b over the k-faces F.

    The multiplier is 2^(bk/2) prod_{j=1..k} Gamma((d+b+1-j)/2) /
    Gamma((d+1-j)/2), times (k+1)^(b/2) / (k!)^b for gaussian and symmetric.
    Their k-faces are simplices on standard Gaussian points: whether k + 1
    points span one depends only on their affine hull, in which they are
    Gaussian with the volume tilt of the affine Blaschke-Petkantschin
    formula, whose moments are Miles' ("Isotropic random simplices", 1971).
    A zonotope's k-faces are parallelotopes on k Gaussian generators, every
    k-set carrying as many.  b = 0 or k = 0 returns the input unchanged (the
    functional degenerates to counting), and so does a zero input.  A
    multiplier past the float range is applied through the input's log, and
    a scaled value that is still past it, or a multiplier whose log is, is
    an InvalidDimensionError.  k must be a proper face dimension, k < d,
    and model one of GAUSSIAN_MODELS: else it is an InvalidArgumentError.
    """
    if model not in GAUSSIAN_MODELS:
        raise InvalidArgumentError(f"unknown model {model!r}, expected one of {GAUSSIAN_MODELS}")
    d = check_int("d", d, 1)
    k = check_int("k", k, 0)
    b = check_real("b", b, 0, what="a finite real number >= 0")
    expected_f_value = check_real("expected_f_value", expected_f_value, what="finite")
    if k >= d:  # a k-face of a d-polytope has k < d; k = d would be the polytope itself
        raise InvalidArgumentError(f"k must be < d, got k={k}, d={d}")
    if b == 0 or k == 0 or expected_f_value == 0:
        return expected_f_value
    simplex = MODEL_TABLE[model].family is not Family.CUBE
    try:
        if (b / 2).is_integer() and b * k <= 128:
            # each Gamma ratio is a rising product, and one division ends it: a small multiplier is the nearest float
            m = 2.0 ** (b * k / 2) * math.prod((d + 1 - j) / 2 + i for j in range(1, k + 1) for i in range(int(b) // 2))
            if simplex:
                m = m * (k + 1) ** (b / 2) / math.factorial(k) ** b
            if not math.isinf(expected_f_value * m):
                return expected_f_value * m
        log_m = b * k * 0.5 * math.log(2)
        if simplex:
            log_m += b * (0.5 * math.log(k + 1) - math.lgamma(k + 1))
        for j in range(1, k + 1):
            log_m += math.lgamma((d + b + 1 - j) / 2.0) - math.lgamma((d + 1 - j) / 2.0)
        if log_m > LOG_FLOAT_MAX:  # math.exp would overflow: the value's log goes into the exponent
            log_m, expected_f_value = log_m + math.log(abs(expected_f_value)), math.copysign(1.0, expected_f_value)
        scaled = expected_f_value * math.exp(log_m)
        if not math.isinf(scaled):
            return scaled
    except OverflowError:  # a log-Gamma, or the scaled value, is past the float range
        pass
    raise InvalidDimensionError(f"the size functional at d={d}, k={k}, b={b} is past the float range")


# ---------------------------------------------------------------------------
# Poissonization

@dataclass(frozen=True, kw_only=True)
class PoissonizedExpectation(Estimate):
    """E f_k at Poisson(t) points, with the tail bound and length of its truncated sum."""

    truncation_bound: float
    terms: int


def _face_bound(row: Model, ell: int, d: int, k: int) -> float:
    # an upper bound on f_k of the model with parameter ell, used only for tails:
    # a hull's k-faces are (k+1)-sets of the vertices of P_{ell - shift}, and a
    # zonotope's f-vector is deterministic, so its expectation is one
    if row.family is Family.CUBE:
        return _rational_value(row, ell, d, k).value
    return math.comb(face_count(row.family, ell - row.shift, 0), k + 1)


def _growth_ratio(row: Model, ell: int, d: int, bound: Callable[[int], float]) -> float:
    # sup over ell' >= ell of bound(ell'+1)/bound(ell'), as every ratio decreases
    # in ell; a hull's bounds are ints, so their ratio is correctly rounded, and
    # nonzero from ell >= k + 2 on, where the Poisson sum first asks for it
    if row.family is not Family.CUBE:
        return bound(ell + 1) / bound(ell)
    if ell + 1 <= d:
        return 2.0 * d
    return (ell + 1) / (ell + 2 - d)


def poissonized_series(
    ts: Iterable[float],
    d: int,
    k: int,
    model: str = "gaussian",
    eps: float = 1e-8,
    cfg: MCConfig | None = None,
) -> Iterator[PoissonizedExpectation]:
    """E f_k when the number of points is Poisson(t), for each t of ts in order.

    Every argument, each t included, is validated before any sum is taken.
    Each sum is the adaptively truncated sum of poissonized_expected.  When
    the first item is drawn from the returned iterator, every t's stopping
    size is found from Poisson weights, growth ratios and face bounds alone,
    up to the first t that runs into its cap; every size below the largest
    is then built in one pass over the sizes, as the module docstring says:
    its external angles are one quadrature batch (0.017-0.026 ms an angle,
    against a median 0.053 ms alone, on a 2-core x86 VM), and each internal
    angle is taken once.  A t's
    weights are then one array of exponents mapped through math.exp, and
    its sums are taken left to right by cumsum, which adds what one call per
    t adds in its order, bit for bit.  A grid thus costs one term build per
    distinct size and one array pass per t: the 10 000-point d = 2 grid over
    t = 0.01-100 takes 0.4-0.65 s in-process (2-core x86 VM, most of it the
    array passes).  The sums, and the TruncationError of a t past its cap,
    still arrive one per item drawn; the stored sizes are freed with the
    iterator.
    """
    if model not in GAUSSIAN_MODELS:
        raise InvalidArgumentError(f"unknown model {model!r}, expected one of {GAUSSIAN_MODELS}")
    row = MODEL_TABLE[model]
    ts = [check_real("t", t, 0, strict=True, what="a positive real") for t in ts]
    eps = check_real("eps", eps, 0, strict=True, what="a positive finite real")
    d = check_int("d", d, 1)
    k = check_int("k", k, 0)
    return _poisson_sums(ts, row, d, k, eps, cfg or MCConfig())


def _poisson_sums(
    ts: list[float], row: Model, d: int, k: int, eps: float, cfg: MCConfig
) -> Iterator[PoissonizedExpectation]:
    # each size's face bound and growth ratio are built once for the whole grid;
    # a hull row's ratio divides two bounds read from the cache
    bound = cache(lambda ell: _face_bound(row, ell, d, k))
    ratio = cache(lambda ell: _growth_ratio(row, ell, d, bound))
    # every stopping size first, up to the first t that runs into its cap
    stops: list[tuple[int, float]] = []
    failure = None
    for t in ts:
        try:
            stops.append(_poisson_stop(t, k, eps, ratio, bound))
        except TruncationError as exc:
            failure = exc
            break
    top = max((size for size, _ in stops), default=0)
    terms = _model_values(row, range(top), d, k, cfg)
    # every size's log(ell!), term value and standard error, once for the grid
    ells = np.arange(top, dtype=float)
    log_factorials = np.array([math.lgamma(ell + 1) for ell in range(top)])
    values = np.array([term.value for term in terms], dtype=float)
    errors = np.array([term.std_error for term in terms], dtype=float)
    exact_below = next((ell for ell, term in enumerate(terms) if not term.exact), top)  # first inexact size
    for t, (size, tail) in zip(ts, stops):
        # the weights P(Poisson(t) = ell), summed left to right by cumsum
        exponents = _poisson_exponent(t, math.log(t), ells[:size], log_factorials[:size])
        weights = np.array(list(map(math.exp, exponents.tolist())))
        value = float(np.cumsum(weights * values[:size])[-1])
        se = float(np.cumsum(weights * errors[:size])[-1])
        yield PoissonizedExpectation(value, se, size <= exact_below, truncation_bound=tail, terms=size)
    if failure is not None:
        raise failure


def _poisson_exponent(t, log_t, ell, log_factorial):
    # log P(Poisson(t) = ell), for one ell or, entry by entry, an array of them
    return -t + ell * log_t - log_factorial


def _poisson_stop(
    t: float, k: int, eps: float, ratio: Callable[[int], float], bound: Callable[[int], float]
) -> tuple[int, float]:
    """The term count of the Poisson(t) sum and the tail bound it stops at.

    From size max(k + 2, int(t) + 1) on, the tail beyond ell is at most
    weight(ell) * bound(ell) * q / (1 - q) for q = t * ratio(ell) / (ell + 1)
    < 1/2; the sum ends after the first ell where that bound drops below
    eps.  Every row's growth ratio is at least 1 (a hull's bounds are
    binomials of a vertex count that does not fall as ell grows, and a
    cube's ratio is 2d or (ell + 1) / (ell + 2 - d)), so q >= t / (ell + 1)
    > 1/2 while ell + 1 < 2t, in floats too, as rounding is monotone and
    1/2 is exact: the scan starts at ceil(2t) - 1 when that is later.  q
    strictly decreases in ell, so past the first ell with q < 1/2 every
    size is tested for its tail.  Only Poisson weights, growth ratios and
    face bounds are read, no term.  The tail bound is compared in log space,
    since a hull's face bound is an exact int that may be past the float
    range, and a zero bound is a zero tail.  TruncationError when no ell up
    to cap = min(int(10 t + 400), MAX_POISSON_SIZE) gets there; its achieved
    bound is the tail bound at the cap, or inf when q >= 1/2 there and the
    cap's weight bounds nothing, or when the bound is past the float range.
    """
    cap = min(int(10 * t + 400), MAX_POISSON_SIZE)
    log_t, log_eps = math.log(t), math.log(eps)
    log_tail = math.inf
    for ell in range(max(k + 2, int(t) + 1, math.ceil(2 * t) - 1), cap + 1):
        q = t * ratio(ell) / (ell + 1)
        if q < 0.5:
            face_bound = bound(ell)
            log_tail = -math.inf
            if face_bound:
                log_weight = _poisson_exponent(t, log_t, ell, math.lgamma(ell + 1))
                log_tail = log_weight + math.log(face_bound) + math.log(q / (1.0 - q))
            if log_tail < log_eps:
                return ell + 1, math.exp(log_tail)
    # q decreases in ell, so this is the cap's bound if q < 1/2 there and inf otherwise
    tail = math.exp(log_tail) if log_tail < LOG_FLOAT_MAX else math.inf
    raise TruncationError(f"poissonized sum did not reach eps={eps} within {cap} terms", tail)


def poissonized_expected(
    t: float,
    d: int,
    k: int,
    model: str = "gaussian",
    eps: float = 1e-8,
    cfg: MCConfig | None = None,
) -> PoissonizedExpectation:
    """E f_k when the number of points is Poisson(t), by adaptive truncation.

    Sums Poisson(t) weights against the fixed-size expectations until the
    remaining tail, bounded through face-count growth bounds read off the
    model's row, drops below eps.  exact is true when every term of the sum
    is exact.  The terms share their internal angles; their weighted
    standard errors, summed, bound the sum's (Minkowski's inequality).  A
    grid of t values is cheaper through poissonized_series, which builds
    each fixed-size term once for the whole grid.
    """
    return next(poissonized_series([t], d, k, model, eps, cfg))


# ---------------------------------------------------------------------------
# monotonicity tables

# Monte Carlo neighbors of a monotonicity table must be this many summed
# standard errors apart to earn a strict verdict
STRICT_SIGMAS = 3.0


@dataclass(frozen=True, kw_only=True)
class MonotonicityRow(Estimate):
    """E f_k at one n of a monotonicity table."""

    n: int
    strict_increase: bool | None  # verdict for the step n -> n+1; None on the last row


def monotonicity_table(
    target: str,
    d: int,
    k: int,
    n_lo: int,
    n_hi: int,
    cfg: MCConfig | None = None,
) -> list[MonotonicityRow]:
    """E f_k over n = n_lo..n_hi with per-step strict-increase verdicts.

    target is a family name or a Gaussian model name.  Rational neighbors are
    compared as rationals; other exact neighbors must be more than
    QUADRATURE_RTOL * (|a| + |b|) apart, and Monte Carlo neighbors more than
    STRICT_SIGMAS times the sum of their standard errors, to earn a strict
    verdict: neighbors share their internal angles, and by the triangle
    inequality that sum bounds the standard error of their difference.  The
    rows are built in one pass over the range, with every external angle it
    needs taken as one quadrature batch.
    """
    targets = GAUSSIAN_MODELS + tuple(f.value for f in Family)
    if target not in targets:
        raise InvalidArgumentError(f"unknown target {target!r}, expected one of {targets}")
    n_lo = check_int("n_lo", n_lo, 1)
    n_hi = check_int("n_hi", n_hi, n_lo)
    d = check_int("d", d, 1)
    k = check_int("k", k, 0)
    estimates = _model_values(target_row(target), range(n_lo, n_hi + 1), d, k, cfg)
    rows: list[MonotonicityRow] = []
    for i, est in enumerate(estimates):
        if i + 1 == len(estimates):
            verdict = None
        else:
            nxt = estimates[i + 1]
            gap = nxt.value - est.value
            if est.exact_value is not None and nxt.exact_value is not None:
                verdict = nxt.exact_value > est.exact_value
            elif est.exact and nxt.exact:
                verdict = gap > QUADRATURE_RTOL * (abs(est.value) + abs(nxt.value))
            else:
                verdict = gap > STRICT_SIGMAS * (est.std_error + nxt.std_error)
        rows.append(MonotonicityRow(est.value, est.std_error, est.exact, est.exact_value,
                                    n=n_lo + i, strict_increase=verdict))
    return rows
