import dataclasses
import math
import os
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from polyproj import (
    QUADRATURE_RTOL,
    Cone,
    Estimate,
    Family,
    InvalidArgumentError,
    InvalidDimensionError,
    InvalidFaceError,
    InvalidPairError,
    MCConfig,
    NumericError,
    PositiveHullData,
    barycenter,
    canonical_face,
    clear_angle_memo,
    complement_basis,
    cone_angle,
    external_angle,
    face_count,
    internal_angle,
    internal_cone,
    monotonicity_table,
    normal_cone,
    orthonormal_basis,
    vertices,
)
from polyproj.angles import (
    DROP_TOL,
    HALFSPACE_TOL,
    MAX_INTERNAL_G,
    ORTHONORMALITY_TOL,
    SPAN_TOL,
    _CDF_EDGE,
    _CDF_STEPS,
    _canonical_internal_cone,
    _faddeeva_coefficients,
    _normal_cdf,
)
import polyproj.angles
from polyproj.streams import _SUB_ROWS, DEFAULT_CHUNK

from oracles import (
    LOG_NORMAL_CDF,
    LOG_TWO_SIDED,
    SIMPLEX_5_VERTEX_ANGLE,
    STECK_ANGLES,
    TETRA_EDGE_ANGLE,
    TETRA_VERTEX_ANGLE,
    TRIANGLE_VERTEX_ANGLE,
    angle_chunk_draws,
    cross_external_quadrature,
    erfc_angle_estimate,
    exact_angle_ladder,
    fsum_rule_sums,
    full_pass_orthonormal_basis,
    golub_welsch_rule,
    mcmullen_internal_angle,
    mgs_orthonormal_basis,
    nnls_member_count,
    one_product_member_mask,
    simplex_external_quadrature,
)

FAST = MCConfig(samples=20_000, seed=0)
# the relative tolerance of an integral internal angle against a closed form:
# float rounding, 2.5e-15 at most at m = 2, 3 and g <= 12, with room
INTEGRAL_RTOL = 1e-14


# ---------------------------------------------------------------------------
# bases


def test_orthonormal_basis_properties():
    rng = np.random.default_rng(3)
    vecs = rng.standard_normal((4, 7))
    stacked = np.vstack([vecs, vecs[1] + 2 * vecs[3]])  # dependent row gets dropped
    basis = orthonormal_basis(stacked)
    assert basis.shape == (4, 7)
    assert np.allclose(basis @ basis.T, np.eye(4), atol=1e-12)
    # original rows lie in the span
    resid = vecs - (vecs @ basis.T) @ basis
    assert np.abs(resid).max() < 1e-10


def test_orthonormal_basis_zero_input():
    assert orthonormal_basis(np.zeros((3, 5))).shape == (0, 5)
    with pytest.raises(InvalidArgumentError):
        orthonormal_basis(np.zeros(5))


@pytest.mark.parametrize("t,kept", [(2.1e-10, True), (1.9e-10, False)])
def test_orthonormal_basis_drop_tolerance_boundary(t, kept):
    # a row is dropped when its residual is below DROP_TOL * (1 + |row|), here about 2e-10
    assert polyproj.angles.DROP_TOL == 1e-10
    basis = orthonormal_basis(np.array([[1.0, 0.0, 0.0], [1.0, t, 0.0]]))
    assert basis.shape == ((2, 3) if kept else (1, 3))


def test_complement_basis_splits_subspace():
    rng = np.random.default_rng(4)
    within = orthonormal_basis(rng.standard_normal((5, 8)))
    sub = rng.standard_normal((2, 8)) @ within.T @ within  # 2 directions inside
    comp = complement_basis(sub, within)
    assert comp.shape == (3, 8)
    assert np.abs(comp @ orthonormal_basis(sub).T).max() < 1e-10
    # complement stays inside the enclosing subspace
    resid = comp - (comp @ within.T) @ within
    assert np.abs(resid).max() < 1e-10
    assert complement_basis(np.zeros((1, 8)), within).shape == (5, 8)


def _assert_same_basis(vecs):
    ours = orthonormal_basis(vecs)
    ref = mgs_orthonormal_basis(vecs)
    assert ours.shape == ref.shape  # same rank, same rows dropped
    assert np.abs(ours - ref).max(initial=0.0) <= 1e-14


@pytest.mark.parametrize("family", [Family.SIMPLEX, Family.CROSSPOLYTOPE])
@pytest.mark.parametrize("n,g", [(n, g) for n in (2, 3, 10, 40, 80) for g in (0, 1, 3) if g < n])
def test_orthonormal_basis_matches_mgs_oracle(family, n, g):
    # the inputs of a normal-cone frame: verts - x, then the face directions
    # stacked on the polytope's frame as complement_basis stacks them
    verts = vertices(family, n).astype(float)
    face = canonical_face(family, n, g)
    x = barycenter(face)
    _assert_same_basis(verts - x)
    _assert_same_basis(face.vertices - x)
    stacked = np.vstack([mgs_orthonormal_basis(face.vertices - x), mgs_orthonormal_basis(verts - x)])
    _assert_same_basis(stacked)


@pytest.mark.parametrize("n,g", [(n, g) for n in (3, 10, 40, 70) for g in (0, 1, 3) if g < n])
def test_orthonormal_basis_stops_when_full(n, g):
    # a normal-cone input of 2n rows in R^n: the basis is full before the last
    # n rows, which the library skips and the full pass drops
    verts = vertices(Family.CROSSPOLYTOPE, n).astype(float)
    vecs = verts - barycenter(canonical_face(Family.CROSSPOLYTOPE, n, g))
    ours = orthonormal_basis(vecs)
    assert ours.shape == (n, n)
    assert np.array_equal(ours, full_pass_orthonormal_basis(vecs))


@pytest.mark.parametrize("k,g", [(k, g) for g in range(1, 8) for k in range(g)])
def test_orthonormal_basis_matches_mgs_oracle_internal(k, g):
    # the generators of every canonical internal cone up to g = 7
    face_g = canonical_face(Family.SIMPLEX, g, g)
    face_k = canonical_face(Family.SIMPLEX, g, k)
    _assert_same_basis(face_g.vertices - barycenter(face_k))


# ---------------------------------------------------------------------------
# cone construction


@pytest.mark.parametrize("family,n,g", [
    (Family.SIMPLEX, 4, 1),
    (Family.CROSSPOLYTOPE, 4, 1),
    (Family.CUBE, 4, 2),
])
def test_normal_cone_frame(family, n, g):
    cone = normal_cone(family, n, g)
    assert cone.dim == n - g
    f = cone.frame
    assert np.allclose(f @ f.T, np.eye(n - g), atol=1e-12)
    # frame is orthogonal to the face's affine hull
    face = canonical_face(family, n, g)
    dirs = face.vertices - cone.data.apex
    assert np.abs(f @ dirs.T).max() < 1e-10


def test_normal_cone_rejects_improper_face():
    with pytest.raises(InvalidFaceError):
        normal_cone(Family.SIMPLEX, 3, 3)


def test_internal_cone_frame_and_errors():
    cone = internal_cone(Family.SIMPLEX, 4, 1, 3)
    assert cone.dim == 3
    assert isinstance(cone.data, PositiveHullData)
    with pytest.raises(InvalidPairError):
        internal_cone(Family.SIMPLEX, 4, 3, 1)
    with pytest.raises(InvalidFaceError):
        internal_cone(Family.CROSSPOLYTOPE, 3, 0, 3)


def test_cone_validation():
    with pytest.raises(InvalidArgumentError, match="frame must be a 2-d array"):
        Cone(np.ones(2), PositiveHullData(np.eye(2), -np.eye(2)))
    bad_frame = np.array([[1.0, 0.0], [1.0, 1.0]])
    with pytest.raises(NumericError):
        Cone(bad_frame, PositiveHullData(np.eye(2), -np.eye(2)))
    frame = np.array([[1.0, 0.0, 0.0]])
    outside = PositiveHullData(np.array([[0.0, 1.0, 0.0]]), np.zeros((0, 3)))
    with pytest.raises(NumericError):
        Cone(frame, outside)
    # a wrong normal set cuts off a generator and fails when the cone is built
    cone = internal_cone(Family.SIMPLEX, 4, 1, 3)
    flipped = PositiveHullData(cone.data.generators, -cone.data.normals)
    with pytest.raises(NumericError):
        Cone(cone.frame, flipped)


# ---------------------------------------------------------------------------
# exact branches


@pytest.mark.parametrize("n,g", [(3, 0), (4, 2), (5, 4)])
def test_external_angle_cube_exact(n, g):
    est = external_angle(Family.CUBE, n, g)
    assert est.method == "exact"
    assert est.exact_value == Fraction(1, 2 ** (n - g))
    assert est.std_error == 0.0


@pytest.mark.parametrize("family", list(Family))
def test_external_angle_trivial_faces(family):
    hi = 4
    assert external_angle(family, hi, hi).exact_value == 1
    assert external_angle(family, hi, hi - 1).exact_value == Fraction(1, 2)


@pytest.mark.parametrize("family", list(Family))
def test_internal_angle_exact_branches(family):
    assert internal_angle(family, 4, 3, 1).exact_value == 0
    assert internal_angle(family, 4, 2, 2).exact_value == 1
    assert internal_angle(family, 4, 1, 2).exact_value == Fraction(1, 2)


def test_internal_angle_cube_exact():
    assert internal_angle(Family.CUBE, 5, 1, 4).exact_value == Fraction(1, 8)


@pytest.mark.parametrize("family", list(Family))
def test_exact_angles_match_the_branch_ladder(family, monkeypatch):
    # a sampled angle comes back as this marker, so nothing is drawn; a fresh
    # memo keeps earlier values out and the markers in.  Of the irrational
    # internal angles only beta(0, 2) is sampled, the rest are integrals
    sampled = object()
    monkeypatch.setattr(polyproj.angles, "cone_angle", lambda cone, cfg: sampled)
    monkeypatch.setattr(polyproj.angles, "_MEMO", {})

    def check(est, want, kind, g=None):
        if want is None and kind == "int" and g == 2:
            assert est is sampled
        elif want is None:
            # a quadrature external angle or an integral internal one: exact, but not rational
            assert (est.exact, est.exact_value, est.std_error, est.samples) == (True, None, 0.0, 0)
            assert est.method == "exact"
        else:
            assert type(est.exact_value) is Fraction and est.exact_value == want
            assert est.value.hex() == float(want).hex()
            assert (est.exact, est.std_error, est.samples) == (True, 0.0, 0)

    for n in range(1, 11):
        for g in range(n + 1):
            check(external_angle(family, n, g), exact_angle_ladder("ext", family.value, n, -1, g), "ext")
        hi = n - 1 if family is Family.CROSSPOLYTOPE else n
        for g in range(hi + 1):
            for k in range(n + 1):
                check(internal_angle(family, n, k, g), exact_angle_ladder("int", family.value, n, k, g), "int", g)


def test_angle_argument_validation():
    with pytest.raises(InvalidFaceError):
        external_angle(Family.SIMPLEX, 3, 4)
    with pytest.raises(InvalidFaceError):
        external_angle(Family.SIMPLEX, 3, -1)
    with pytest.raises(InvalidFaceError):
        internal_angle(Family.CROSSPOLYTOPE, 3, 0, 3)  # no canonical 3-face
    with pytest.raises(InvalidArgumentError):
        internal_angle(Family.SIMPLEX, 3, -1, 2)
    with pytest.raises(InvalidArgumentError):
        external_angle(Family.SIMPLEX, True, 0)


@pytest.mark.parametrize("n", [0, -1, np.int64(0)], ids=["0", "-1", "int64-0"])
def test_angles_of_a_polytope_below_dimension_1_are_dimension_errors(n):
    # a batch is validated before any of its faces is computed
    message = f"polytope dimension must be >= 1, got {int(n)}"
    with pytest.raises(InvalidDimensionError, match=message):
        polyproj.angles.external_angles(Family.SIMPLEX, [(5, 1), (n, 0)])
    with pytest.raises(InvalidDimensionError, match=message):
        internal_angle(Family.SIMPLEX, n, 0, 0)


def test_angle_estimate_validation():
    with pytest.raises(NumericError):
        Estimate(0.5, 0.1, True)


# ---------------------------------------------------------------------------
# Monte Carlo vs exact and vs quadrature


def test_normal_cone_sampler_matches_cube_exact():
    # the cube branch never samples, so drive the sampler directly
    cfg = MCConfig(samples=200_000, seed=0)
    est = cone_angle(normal_cone(Family.CUBE, 3, 0), cfg)
    assert est.method == "monte_carlo"
    assert abs(est.value - 0.125) < 4 * est.std_error + 1e-12


def test_positive_hull_sampler_matches_cube_exact():
    cfg = MCConfig(samples=10_000, seed=0)
    est = cone_angle(internal_cone(Family.CUBE, 3, 0, 2), cfg)
    assert abs(est.value - 0.25) < 4 * est.std_error + 1e-12


@pytest.mark.parametrize("n,g", [(4, 0), (5, 1), (9, 3), (30, 2)])
def test_simplex_external_matches_quadrature(n, g):
    # the oracle's Gauss-Hermite rule is a second route to the same integral
    est = external_angle(Family.SIMPLEX, n, g)
    assert est.value == pytest.approx(simplex_external_quadrature(n, g), rel=1e-9)


@pytest.mark.parametrize("n,g", [(3, 0), (4, 1), (9, 3), (30, 2)])
def test_cross_external_matches_quadrature(n, g):
    est = external_angle(Family.CROSSPOLYTOPE, n, g)
    assert est.value == pytest.approx(cross_external_quadrature(n, g), rel=1e-9)


# gamma(Q_g, P_n) to 30 digits: mpmath tanh-sinh quadrature of the same
# integrals over 64 panels around the mode, at 45 and 60 digits, which agree
# to 32
PINNED_EXTERNAL_ANGLES = [
    ("simplex", 3, 1, "0.304086723984696364914572220389"),
    ("simplex", 10, 1, "0.0511251858391969688761830506242"),
    ("simplex", 10, 2, "0.0406736865586791145548460176037"),
    ("simplex", 10, 5, "0.0630556033399406330552493596271"),
    ("simplex", 10, 8, "0.265942140214629961979208080289"),
    ("simplex", 75, 1, "0.00149749872237358874550660632653"),
    ("simplex", 75, 2, "0.000257680396386639125872932410731"),
    ("simplex", 75, 5, "0.00000499360407962111502362784510676"),
    ("simplex", 75, 73, "0.252122128788949452812386792779"),
    ("simplex", 10000, 1, "0.000000136523445220719835807224364389"),
    ("simplex", 10000, 2, "3.03143421650824034021615388293e-10"),
    ("simplex", 10000, 5, "1.60589563549755689289944319005e-17"),
    ("simplex", 10000, 9998, "0.250015915494335715357544903807"),
    ("crosspolytope", 3, 1, "0.195913276015303635085427779611"),
    ("crosspolytope", 10, 1, "0.0185193431887319736483859267914"),
    ("crosspolytope", 10, 2, "0.0105790636002427650434865100682"),
    ("crosspolytope", 10, 5, "0.0105200340018301503430762899151"),
    ("crosspolytope", 10, 8, "0.102416382349566725824598923775"),
    ("crosspolytope", 75, 1, "0.000423235095730201953106907978578"),
    ("crosspolytope", 75, 2, "0.0000415950563886251581405027279131"),
    ("crosspolytope", 75, 5, "0.000000165530210921443608474554122096"),
    ("crosspolytope", 75, 73, "0.0368374320448814263510239502095"),
    ("crosspolytope", 10000, 1, "0.0000000356192096369254750655031427081"),
    ("crosspolytope", 10000, 2, "4.14669595202744953459571176274e-11"),
    ("crosspolytope", 10000, 5, "3.21511668722513897768918195428e-19"),
    ("crosspolytope", 10000, 9998, "0.00318315191587307027250070768074"),
]


@pytest.mark.parametrize("family,n,g,pinned", PINNED_EXTERNAL_ANGLES)
def test_external_quadrature_matches_pinned_constants(family, n, g, pinned):
    est = external_angle(family, n, g)
    assert (est.exact, est.exact_value, est.std_error, est.method) == (True, None, 0.0, "exact")
    assert abs(est.value - float(pinned)) <= QUADRATURE_RTOL * float(pinned)


@pytest.mark.parametrize("n", [3, 4, 5, 10, 40, 75, 1000, 10_000, 10**6, 10**9, 2**40, 2**50, 2**53])
def test_external_quadrature_ridge_closed_forms(n):
    # a ridge's normal cone is a planar wedge, its angle (pi - dihedral) / (2 pi):
    # for the simplex 1/4 + asin(1/n) / (2 pi), for the crosspolytope
    # asin(1/sqrt(n)) / pi, both well conditioned up to MAX_EXTERNAL_N = 2^53
    simplex = 0.25 + math.asin(1 / n) / (2 * math.pi)
    cross = math.asin(1 / math.sqrt(n)) / math.pi
    forms = [(simplex, cross)]
    if n <= 10_000:  # the arccos forms cancel past it: the crosspolytope's was 1.4e-11 off at n = 10^6
        forms.append(((math.pi - math.acos(1 / n)) / (2 * math.pi), (math.pi - math.acos((2 - n) / n)) / (2 * math.pi)))
    for simplex, cross in forms:
        assert abs(external_angle(Family.SIMPLEX, n, n - 2).value - simplex) <= QUADRATURE_RTOL * simplex
        assert abs(external_angle(Family.CROSSPOLYTOPE, n, n - 2).value - cross) <= QUADRATURE_RTOL * cross


def _expected_gaussian_maximum(count: int, absolute: bool) -> float:
    """E max of count iid standard Gaussians, or of their absolute values, by scipy.integrate.quad.

    E M = int_0^inf (1 - F(x)) dx - int_-inf^0 F(x) dx for the maximum's CDF
    F = Phi^count, or (2 Phi - 1)^count, each power taken through log1p or
    log of an erfc.  The upper integral is split at sqrt(2 log count), near
    the maximum's mode; below x = -37 Phi^count is under 1e-300.
    """
    from scipy.integrate import quad

    def above(x):  # 1 - F(x), without cancellation where F(x) is near 1
        return -math.expm1(count * math.log1p(-math.erfc(x / math.sqrt(2)) * (1.0 if absolute else 0.5)))

    split = math.sqrt(2 * math.log(count))
    value = sum(quad(above, a, b, epsabs=0, epsrel=1e-13, limit=200)[0] for a, b in [(0, split), (split, math.inf)])
    if not absolute:
        value -= quad(lambda x: math.exp(count * math.log(0.5 * math.erfc(-x / math.sqrt(2)))), -37, 0,
                      epsabs=0, epsrel=1e-13, limit=200)[0]
    return value


@pytest.mark.parametrize("n", [3, 10, 100, 1000, 10_000, 10**5, 10**6, 10**9, 2**53])
def test_external_edge_angles_give_the_gaussian_mean_width(n):
    # the mean width V_1(K) = sqrt(2 pi) E max_{x in K} <x, G> (Sudakov;
    # Tsirelson) is also the sum over edges of sqrt(2) gamma(1, n).  The
    # simplex P_n has C(n + 1, 2) edges and its maximum is that of n + 1 iid
    # N(0, 1); the crosspolytope has 4 C(n, 2) and its maximum is that of n
    # iid |N(0, 1)|.  quad on those maxima, not the library's integrands, agreed
    # with the quadrature within 1e-14 relative up to n = 10^6 and 7e-14 at 2^53
    simplex = math.sqrt(math.pi) * _expected_gaussian_maximum(n + 1, False) / math.comb(n + 1, 2)
    cross = math.sqrt(math.pi) * _expected_gaussian_maximum(n, True) / (4 * math.comb(n, 2))
    assert abs(external_angle(Family.SIMPLEX, n, 1).value - simplex) <= QUADRATURE_RTOL * simplex
    assert abs(external_angle(Family.CROSSPOLYTOPE, n, 1).value - cross) <= QUADRATURE_RTOL * cross


@pytest.mark.parametrize("family", [Family.SIMPLEX, Family.CROSSPOLYTOPE])
@pytest.mark.parametrize("n", [1, 2, 3, 10, 75, 10_000])
def test_vertex_external_angles_sum_to_one(family, n):
    # vertices take the rational rule; the quadrature agrees with it
    vertex = external_angle(family, n, 0)
    assert vertex.exact_value * face_count(family, n, 0) == 1
    quadrature = polyproj.angles._external_quadratures(family, [(n, 0)])[0]
    assert abs(quadrature - vertex.value) <= QUADRATURE_RTOL * vertex.value


@pytest.mark.parametrize("family", [Family.SIMPLEX, Family.CROSSPOLYTOPE])
def test_batched_external_angles_equal_one_at_a_time(family):
    # one node matrix for every face, several chunks of it, bit for bit the one-face values
    faces = [(n, g) for g in (1, 2, 3, 5) for n in [*range(g + 2, 401), 10_000]]
    batch = polyproj.angles._external_quadratures(family, faces)
    assert len(faces) > 2 * polyproj.angles._BATCH_ROWS
    single = [polyproj.angles._external_quadratures(family, [face])[0] for face in faces]
    assert [v.hex() for v in batch] == [v.hex() for v in single]
    assert all(type(v) is float for v in batch)
    # through the memo: a batch that fills it, then a batch of memo hits
    clear_angle_memo()
    filled = polyproj.angles.external_angles(family, faces[::-1])[::-1]
    assert [est.value for est in filled] == batch
    assert all(a is b for a, b in zip(filled, polyproj.angles.external_angles(family, faces)))
    clear_angle_memo()


@pytest.mark.parametrize("family", [Family.SIMPLEX, Family.CROSSPOLYTOPE])
def test_rule_row_sums_stay_within_1e_15_of_one_fsum_per_row(family):
    # NumPy's row sums against one exactly rounded math.fsum per window, on the
    # pinned faces and a sweep to n = 10 000
    pinned = [(n, g) for name, n, g, _ in PINNED_EXTERNAL_ANGLES if name == family.value]
    sweep = [(n, g) for g in (1, 2, 3, 5) for n in [*range(g + 2, 300), *range(300, 10_000, 89), 10_000]]
    faces = pinned + sweep
    got = polyproj.angles._external_quadratures(family, faces)
    want = fsum_rule_sums(family, [polyproj.angles._quadrature_window(family, n, g) for n, g in faces])
    assert max(abs(a - b) / b for a, b in zip(got, want)) <= 1e-15


def test_angles_below_the_smallest_normal_float_raise():
    # a value that underflows to 0.0 or to a subnormal cannot keep its
    # relative accuracy: gamma(Q_500, C_1834) = 2.30e-308 is just above the
    # smallest normal float, 2.23e-308, and gamma(Q_500, C_1835) = 1.81e-308
    # just below; gamma(Q_500, C_2000) was once 0.0 marked exact
    tiny = sys.float_info.min
    clear_angle_memo()
    assert tiny < external_angle(Family.CROSSPOLYTOPE, 1834, 500).value < 1.1 * tiny
    for n in (1835, 2000):
        with pytest.raises(NumericError, match=f"crosspolytope n={n} g=500 is below the smallest normal float"):
            external_angle(Family.CROSSPOLYTOPE, n, 500)
    # the integral past MAX_INTERNAL_G: beta(0, 226) = 2.9e-307, beta(0, 227) below
    assert tiny < polyproj.angles._steck_integral(0, 226) < 1e-306
    with pytest.raises(NumericError, match=r"beta\(0, 227\) is below the smallest normal float"):
        polyproj.angles._steck_integral(0, 227)
    clear_angle_memo()


def test_a_mode_search_out_of_steps_is_a_numeric_error_naming_its_face(monkeypatch):
    # one Newton step reaches no mode; the Legendre rule, which reads the
    # same cap, is built first, and a fresh memo sends every face to the search
    polyproj.angles._legendre_rule()
    monkeypatch.setattr(polyproj.angles, "_NEWTON_STEPS", 1)
    monkeypatch.setattr(polyproj.angles, "_MEMO", {})
    for family in ("simplex", "crosspolytope"):
        with pytest.raises(NumericError, match=f"no mode found for the external angle of {family} n=40 g=1$"):
            external_angle(family, 40, 1)
    with pytest.raises(NumericError, match=r"no contour found for the internal angle beta\(0, 6\)$"):
        internal_angle("simplex", 9, 0, 6)


def test_external_angles_cap_n_at_2_to_the_53():
    # up to 2^53 the rule's exponent n - g is an exact float; past it the face is refused before any work
    cap = polyproj.angles.MAX_EXTERNAL_N
    assert cap == 2**53
    for family in Family:
        for n in (cap + 1, 10**21):
            with pytest.raises(InvalidDimensionError, match="capped at polytope dimension n = 2\\^53"):
                polyproj.angles.external_angles(family, [(10, 2), (n, 1)])
    clear_angle_memo()
    for family in (Family.SIMPLEX, Family.CROSSPOLYTOPE):
        est = polyproj.angles.external_angles(family, [(cap, 1)])[0]
        assert est.exact and est.exact_value is None and 0.0 < est.value < 1e-6
    clear_angle_memo()


@pytest.mark.parametrize("n,g", [(1023, 0), (10**9, 10**9 - 1023), (2**53, 2**53 - 1023)])
def test_cube_external_angles_up_to_codimension_1023(n, g):
    start = time.perf_counter()
    est = external_angle(Family.CUBE, n, g)
    assert est.exact_value == Fraction(1, 2**1023) and est.value == 2.0**-1023
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("n,g", [(1024, 0), (10**9, 10**9 - 1024), (10**9, 1), (2**53, 1)])
def test_cube_external_angles_past_codimension_1023_fail_at_once(n, g):
    # the count 2^(n-g) is sized before it is built; 10^9 took 9.7 s to give 0.0 when it was built
    start = time.perf_counter()
    with pytest.raises(InvalidDimensionError, match="past the float range"):
        external_angle(Family.CUBE, n, g)
    assert time.perf_counter() - start < 1.0


def test_external_angles_validate_every_face_before_any_quadrature(monkeypatch):
    def no_quadrature(family, faces):
        if faces:
            raise AssertionError("a quadrature ran before the last face was checked")
        return []

    monkeypatch.setattr(polyproj.angles, "_external_quadratures", no_quadrature)
    clear_angle_memo()
    with pytest.raises(InvalidFaceError):
        polyproj.angles.external_angles(Family.SIMPLEX, [(10, 2), (10, 11)])
    with pytest.raises(InvalidArgumentError):
        polyproj.angles.external_angles(Family.SIMPLEX, [(10, 2), (True, 0)])
    # rational faces and an empty list take no quadrature either
    assert polyproj.angles.external_angles(Family.CUBE, [(10, 2)])[0].exact_value == Fraction(1, 256)
    assert polyproj.angles.external_angles(Family.CROSSPOLYTOPE, [(10, 0), (10, 9), (10, 10)])[0].exact_value == Fraction(1, 20)
    assert polyproj.angles.external_angles(Family.SIMPLEX, []) == []


def test_quadrature_batches_stay_under_the_chunk_bound(monkeypatch):
    # a sweep to n = 1000 reaches the rule in chunks of at most _BATCH_ROWS windows
    rows = []
    original = polyproj.angles._rule_sums

    def spy(family, windows):
        rows.append(len(windows))
        return original(family, windows)

    monkeypatch.setattr(polyproj.angles, "_rule_sums", spy)
    clear_angle_memo()
    bound = polyproj.angles._BATCH_ROWS
    assert bound * polyproj.angles._QUAD_NODES <= 1 << 16
    rows_table = monotonicity_table("symmetric", 2, 0, 1, 1000)
    assert all(r.strict_increase for r in rows_table[:-1])
    assert sum(rows) == 998  # gamma(Q_1, C_n) for n = 3..1000
    assert max(rows) == bound
    assert len(rows) == -(-998 // bound)
    clear_angle_memo()


@pytest.mark.parametrize("family,scalar", [
    (Family.SIMPLEX, polyproj.angles._log_cdf), (Family.CROSSPOLYTOPE, polyproj.angles._log_two_sided),
])
def test_log_f_nodes_follow_the_scalar_branches(family, scalar):
    # against the 30-digit constants of every branch, on both sides of the
    # erf and tail-table edges and past the table, the kernel is within 1e-15
    # (5.4e-16 measured) and no less accurate than math's branches (1.3e-14
    # by t = 12, 1.2e-13 at 30, from rounding t / sqrt 2); the simplex's
    # t < 0 half of those branches is math inline
    def math_route(v):
        return scalar(v) if v >= 0 else math.log(0.5 * math.erfc(-v / math.sqrt(2.0)))

    constants = LOG_NORMAL_CDF if family is Family.SIMPLEX else LOG_TWO_SIDED
    points = np.array(list(constants))
    want = np.array(list(constants.values()))
    kernel = np.abs(polyproj.angles._log_f_nodes(family, points) - want) / np.abs(want)
    scalar_error = np.abs(np.array([math_route(v) for v in points.tolist()]) - want) / np.abs(want)
    assert kernel.max() <= 1e-15
    within = points <= 12.0
    assert kernel[within].max() <= scalar_error[within].max() and kernel.max() <= scalar_error.max()
    # on a dense grid the two routes differ by at most the sum of their errors
    # against the constants: 6e-16 for the kernel, and for math 3e-16 times
    # max(t^2, 1), as rounding u = t / sqrt 2 moves erfc(u) by about 2 u^2 ulps
    lo = -36.0 if family is Family.SIMPLEX else 1e-6
    t = np.concatenate([np.linspace(lo, 12.0, 3001), [-14.2, -1e-300, 0.0, 0.5 * math.sqrt(2.0)]])
    t = t[t > 0] if family is Family.CROSSPOLYTOPE else t
    got = polyproj.angles._log_f_nodes(family, t.reshape(-1, 1)).ravel()
    route = np.array([math_route(v) for v in t.tolist()])
    assert np.all(np.abs(got - route) <= (6e-16 + 3e-16 * np.maximum(t * t, 1.0)) * np.abs(route))


def test_simplex_quadrature_nodes_stay_above_minus_20_over_root_2():
    # a node lies within _QUAD_WIDTHS widths, each below 1, of a mode x >= 0,
    # and s = sqrt(g + 1) >= sqrt 2, so _log_f_nodes needs no far tail
    lowest = math.inf
    for n in range(2, 10**4 + 1):
        for g in range(min(5, n - 2) + 1):
            _, s, a, _, _ = polyproj.angles._quadrature_window(Family.SIMPLEX, n, g)
            lowest = min(lowest, a / s)
    assert -polyproj.angles._QUAD_WIDTHS / math.sqrt(2.0) < lowest < 0.0


@pytest.mark.parametrize("family,n,g", [
    (Family.SIMPLEX, 4, 1), (Family.SIMPLEX, 10, 3), (Family.SIMPLEX, 40, 1),
    (Family.CROSSPOLYTOPE, 4, 1), (Family.CROSSPOLYTOPE, 10, 3), (Family.CROSSPOLYTOPE, 40, 1),
])
def test_normal_cone_sampler_matches_quadrature(family, n, g):
    # the sampler stays as an independent check of the rule
    est = cone_angle(normal_cone(family, n, g), MCConfig(samples=200_000, seed=0))
    assert abs(est.value - external_angle(family, n, g).value) < 4 * est.std_error


def test_legendre_rule_matches_eigenproblem_rules():
    # Newton steps on the recurrence against Golub-Welsch and against NumPy's
    # companion-matrix rule, which the package does not import
    nodes, weights = (np.array(v) for v in polyproj.angles._legendre_rule())
    order = np.argsort(nodes)
    for ref_nodes, ref_weights in (golub_welsch_rule(len(nodes)), np.polynomial.legendre.leggauss(len(nodes))):
        assert np.abs(nodes[order] - ref_nodes).max() < 1e-14
        assert np.abs(weights[order] - ref_weights).max() < 1e-14
    assert abs(weights.sum() - 2.0) < 1e-14


def test_external_angle_memo_ignores_samples_and_seed(tmp_path):
    clear_angle_memo()
    path = tmp_path / "angles.cache"
    first = external_angle(Family.CROSSPOLYTOPE, 12, 2, MCConfig(samples=100, seed=1, cache_path=str(path)))
    assert external_angle(Family.CROSSPOLYTOPE, 12, 2, MCConfig(samples=5, seed=9)) is first
    assert external_angle(Family.CROSSPOLYTOPE, 12, 2) is first
    assert not path.exists()  # quadrature values never reach a cache file
    clear_angle_memo()
    assert external_angle(Family.CROSSPOLYTOPE, 12, 2) == first


def test_internal_angle_triangle_vertex():
    est = internal_angle(Family.SIMPLEX, 3, 0, 2, FAST)
    assert abs(est.value - TRIANGLE_VERTEX_ANGLE) < 4 * est.std_error


def test_internal_angle_tetra_edge():
    # the Steck integral: exact, and within float rounding of arccos(1/3) / (2 pi)
    est = internal_angle(Family.SIMPLEX, 4, 1, 3, FAST)
    assert (est.exact, est.exact_value, est.std_error, est.samples) == (True, None, 0.0, 0)
    assert math.isclose(est.value, TETRA_EDGE_ANGLE, rel_tol=INTEGRAL_RTOL)


def test_internal_shared_between_simplex_and_cross():
    a = internal_angle(Family.SIMPLEX, 5, 0, 2, FAST)
    b = internal_angle(Family.CROSSPOLYTOPE, 6, 0, 2, FAST)
    assert a == b  # identical canonical geometry, identical memo entry


def test_internal_angle_independent_of_n():
    # the same face pair inside a bigger polytope spans the same cone
    cfg = MCConfig(samples=10_000, seed=0)
    big = cone_angle(internal_cone(Family.SIMPLEX, 7, 0, 2), cfg)
    shared = internal_angle(Family.SIMPLEX, 3, 0, 2, cfg)
    assert abs(big.value - shared.value) < 4 * (big.std_error + shared.std_error)


@pytest.mark.parametrize("k,g", [(0, 2), (0, 3), (1, 3), (0, 5)])
def test_sampled_angle_error_bars_match_their_seed_spread(k, g):
    # over 300 seeds the values spread by the standard error each reports, and
    # their mean is the closed form, or at (0, 5) the 30-digit integral
    exact = {(0, 2): TRIANGLE_VERTEX_ANGLE, (0, 3): TETRA_VERTEX_ANGLE, (1, 3): TETRA_EDGE_ANGLE,
             (0, 5): SIMPLEX_5_VERTEX_ANGLE}[k, g]
    cone = _canonical_internal_cone(k, g)
    estimates = [cone_angle(cone, MCConfig(samples=4000, seed=seed)) for seed in range(300)]
    values = np.array([est.value for est in estimates])
    spread = values.std(ddof=1)
    assert abs(values.mean() - exact) <= 4 * spread / math.sqrt(len(values))
    assert 0.85 <= spread / np.mean([est.std_error for est in estimates]) <= 1.15


@pytest.mark.parametrize("g", [4, 5, 6])
def test_sampled_angles_satisfy_grams_relation(g):
    # sum_k (-1)^k C(g + 1, k + 1) beta(k, g) = 0 over the faces of the
    # regular g-simplex, the simplex itself included, with cone_angle, the
    # integral's oracle, on each canonical cone of codimension >= 2; the
    # sampled angles come from independent streams, so their errors add in
    # quadrature
    cfg = MCConfig(samples=20_000, seed=3)
    terms = [(-1) ** k * math.comb(g + 1, k + 1) for k in range(g + 1)]
    angles = [cone_angle(_canonical_internal_cone(k, g), cfg) for k in range(g - 1)]
    angles += [internal_angle(Family.SIMPLEX, g, k, g, cfg) for k in (g - 1, g)]
    assert [est.method for est in angles] == ["monte_carlo"] * (g - 1) + ["exact"] * 2
    total = sum(c * est.value for c, est in zip(terms, angles))
    error = math.sqrt(sum((c * est.std_error) ** 2 for c, est in zip(terms, angles)))
    assert abs(total) <= 4 * error


def _integral(k: int, g: int) -> Estimate:
    """beta(k, g) through internal_angle, which takes it from the Steck integral for g >= 3."""
    return internal_angle(Family.SIMPLEX, g, k, g)


@pytest.mark.parametrize("g", range(3, 13))
def test_integral_matches_the_closed_forms_at_codimension_2_and_3(g):
    # beta(g - 2, g) = 1/4 - arcsin(1/g) / (2 pi) and
    # beta(g - 3, g) = 1/8 - 3 arcsin(1/g) / (4 pi): the orthant probabilities
    # of two and three Gaussians with correlation -1/g
    for m, closed in ((2, 0.25 - math.asin(1 / g) / (2 * math.pi)),
                      (3, 0.125 - 3 * math.asin(1 / g) / (4 * math.pi))):
        est = _integral(g - m, g)
        assert (est.exact, est.exact_value, est.std_error, est.samples) == (True, None, 0.0, 0)
        assert type(est.value) is float
        assert math.isclose(est.value, closed, rel_tol=INTEGRAL_RTOL)


def test_integral_matches_the_30_digit_constants():
    # beta(0, 5) within float rounding; the others, up to the cap g = 128,
    # within the 4.6e-14 the module docstring states, with room
    assert math.isclose(_integral(0, 5).value, SIMPLEX_5_VERTEX_ANGLE, rel_tol=INTEGRAL_RTOL)
    for (k, g), want in STECK_ANGLES.items():
        assert math.isclose(_integral(k, g).value, want, rel_tol=1e-13), (k, g)


@pytest.mark.parametrize("g", range(3, 9))
def test_integral_angles_satisfy_grams_relation(g):
    # sum_k (-1)^k C(g + 1, k + 1) beta(k, g) = 0 over the faces of the
    # regular g-simplex, within float rounding of the terms' sizes
    terms = [(-1) ** k * math.comb(g + 1, k + 1) * _integral(k, g).value for k in range(g + 1)]
    assert abs(math.fsum(terms)) <= 1e-14 * math.fsum(map(abs, terms))


@pytest.mark.parametrize("g", [3, 4, 5])
def test_integral_matches_mcmullens_recursion(g):
    # the recursion reads only external angles, and its sum keeps about 1e-15
    # absolute (6.7e-16 at worst here)
    for k in range(g - 1):
        assert math.isclose(_integral(k, g).value, mcmullen_internal_angle(k, g), rel_tol=0.0, abs_tol=2e-15)


@pytest.mark.parametrize("g", range(3, 8))
def test_sampler_agrees_with_the_integral(g):
    # cone_angle on each canonical cone, the integral's oracle, at 1e5 draws
    cfg = MCConfig(samples=100_000, seed=7)
    for k in range(g - 1):
        sampled = cone_angle(_canonical_internal_cone(k, g), cfg)
        assert abs(sampled.value - _integral(k, g).value) <= 4 * sampled.std_error, (k, g)


@pytest.mark.parametrize("family", [Family.SIMPLEX, Family.CROSSPOLYTOPE])
def test_internal_angles_are_capped_at_g_128(family):
    # g = 128 is the edge of the measured range; g = 129 raises rather than
    # returning a value nobody measured, and cube angles stay exact past it
    top = internal_angle(family, MAX_INTERNAL_G + 1, 0, MAX_INTERNAL_G)
    assert top.exact and 0.0 < top.value < math.inf
    assert math.isclose(top.value, STECK_ANGLES[0, 128], rel_tol=1e-13)
    with pytest.raises(InvalidDimensionError, match="capped at g = 128"):
        internal_angle(family, MAX_INTERNAL_G + 2, 0, MAX_INTERNAL_G + 1)
    with pytest.raises(InvalidDimensionError, match="capped at g = 128"):
        internal_angle(family, 300, 200, 202)
    # codimension <= 1 is rational at any g
    assert internal_angle(family, 300, 199, 200).exact_value == Fraction(1, 2)
    assert internal_angle(Family.CUBE, 300, 0, 200).exact_value == Fraction(1, 2**200)


def test_integral_memo_hit_equals_a_recomputation():
    # the memo key is the face pair alone: sample count and seed do not enter
    clear_angle_memo()
    first = internal_angle(Family.SIMPLEX, 9, 2, 7, MCConfig(samples=10, seed=1))
    assert internal_angle(Family.CROSSPOLYTOPE, 12, 2, 7, MCConfig(samples=99, seed=5)) is first
    assert polyproj.angles._MEMO["int", 2, 7] is first
    clear_angle_memo()
    again = internal_angle(Family.SIMPLEX, 9, 2, 7)
    assert again is not first and again == first


def test_faddeeva_coefficients_match_weidemans_transform():
    # Weideman's own recipe, by NumPy's FFT: f at theta = k pi / M for
    # k = -M..M-1 (f = 0 at k = -M), shifted so k = 0 comes first; the
    # library takes the same real parts as cosine sums
    scale, coefficients = _faddeeva_coefficients()
    terms = len(coefficients)
    m = 2 * terms
    t = scale * np.tan(np.arange(-m + 1, m) * math.pi / (2 * m))
    f = np.concatenate([[0.0], np.exp(-t * t) * (scale * scale + t * t)])
    transform = np.fft.fft(np.fft.fftshift(f)).real / (2 * m)
    assert (scale, terms) == (math.sqrt(terms / math.sqrt(2.0)), 40)
    assert np.allclose(coefficients, transform[1 : terms + 1], rtol=0.0, atol=2e-15)  # 4.5e-16 at most


def _normal_cdf_errors(x: np.ndarray) -> np.ndarray:
    """|the table's Phi - math.erfc's| at every entry of x."""
    return np.abs(_normal_cdf(x) - np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in x.tolist()]))


def test_normal_cdf_table_matches_erfc_at_nodes_midpoints_and_edges():
    nodes = np.arange(-_CDF_EDGE * _CDF_STEPS, _CDF_EDGE * _CDF_STEPS + 1) / _CDF_STEPS
    assert nodes[0] == -_CDF_EDGE and nodes[-1] == _CDF_EDGE
    midpoints = nodes[:-1] + 0.5 / _CDF_STEPS  # the farthest any value is from its node
    edges = [side * np.nextafter(_CDF_EDGE, edge) for side in (-1.0, 1.0) for edge in (0.0, _CDF_EDGE, math.inf)]
    past = np.concatenate([np.linspace(_CDF_EDGE, 40.0, 4001), [1e3, 1e300, math.inf]])
    for x in (nodes, midpoints, np.array(edges), past, -past, np.linspace(-12.0, 12.0, 24_001)):
        assert _normal_cdf_errors(x).max() <= 1e-15


def test_normal_cdf_table_waits_for_the_first_sampled_angle():
    # importing the package, and a formula run with no sampled angle, leave
    # the table unbuilt; the first sampled angle builds it
    src = os.path.dirname(os.path.dirname(polyproj.__file__))
    code = ("import polyproj.cli\n"
            "from polyproj import Family, expected_f_projection\n"
            "from polyproj.angles import _cdf_table\n"
            "expected_f_projection(Family.SIMPLEX, 5, 2, 0)\n"
            "before = _cdf_table.cache_info().currsize\n"
            "expected_f_projection(Family.SIMPLEX, 5, 3, 0)\n"
            "print(before, _cdf_table.cache_info().currsize)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         timeout=120, check=True).stdout
    assert out.split() == ["0", "1"]


def test_cone_whose_mean_normal_axis_is_not_interior_is_a_numeric_error():
    # the planar wedge {x <= 0, y <= 2.06 x} with its normal (1, 0) given ten
    # times: the mean of the unit normals leans to (1, 0), and the axis it
    # gives, nearly (-1, 0), leaves the wedge
    slant = np.array([-0.9, math.sqrt(1 - 0.81)])
    rays = np.array([[0.0, -1.0], [-slant[1], slant[0]]])
    Cone(np.eye(2), PositiveHullData(rays, np.array([[1.0, 0.0], slant])))  # one copy: interior axis
    with pytest.raises(NumericError, match="axis is not interior"):
        Cone(np.eye(2), PositiveHullData(rays, np.array([[1.0, 0.0]] * 10 + [slant])))
    # a flat cone, two opposite normals, has no axis at all
    with pytest.raises(NumericError, match="axis is not interior"):
        Cone(np.eye(2), PositiveHullData(np.array([[0.0, 1.0]]), np.array([[1.0, 0.0], [-1.0, 0.0]])))


def test_half_line_angle_is_one_half_with_no_error():
    # a cone whose normals have rank 1 is a half-space: exactly 1/2, with no draw
    half_line = Cone(np.eye(1), PositiveHullData(np.array([[1.0]]), np.array([[-1.0]])))
    half_plane = Cone(np.eye(3)[:2], PositiveHullData(np.eye(3)[:2], np.array([[0.0, -1.0, 0.0]] * 3)))
    for cone in (half_line, half_plane):
        assert cone.cross_section.shape == (0, cone.dim)
        assert cone_angle(cone, MCConfig(samples=DEFAULT_CHUNK + 5, seed=2)) == Estimate.rational(Fraction(1, 2))


MEMBERSHIP_CONES = [
    # every canonical pair the sampler sees up to g = 7, minimal embedding
    *[(Family.SIMPLEX, g, k, g) for g in range(2, 8) for k in range(g - 1)],
    (Family.SIMPLEX, 7, 0, 2),  # non-minimal embedding
    (Family.SIMPLEX, 6, 1, 4),
    (Family.CROSSPOLYTOPE, 6, 0, 3),
    (Family.CUBE, 3, 0, 2),
    (Family.CUBE, 5, 1, 4),
]


def _thresholds(cone: Cone, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each cross-section row's threshold max_i <R_i, w> and the row as a point of the frame."""
    return (w @ cone.ray_normals.T).max(axis=1), w @ cone.cross_section


def _kept_normals(cone: Cone) -> np.ndarray:
    """The cone's outer normals in frame coordinates longer than DROP_TOL, normalised."""
    lengths = np.linalg.norm(cone.frame_normals, axis=1)
    return cone.frame_normals[lengths > DROP_TOL] / lengths[lengths > DROP_TOL, None]


def _assert_brackets(cone: Cone, w: np.ndarray, member_count) -> None:
    """member_count(points) admits every row's point just above its threshold on the axis and none just below.

    The step eps is 1e-6 (1 + |lam| + |w|) / min_i c_i, c_i = -<a_i, u>, so
    the point below lies at least 1e-6 (1 + |lam| + |w|) outside the facet it
    crosses: about 100 times NNLS's residual tolerance 1e-8 (1 + |point|).
    """
    lam, base = _thresholds(cone, w)
    scale = 1.0 + np.abs(lam) + np.linalg.norm(base, axis=1)
    eps = 1e-6 * scale / (-_kept_normals(cone) @ cone.axis).min()
    for sign, want in ((1.0, len(w)), (-1.0, 0)):
        u = ((lam + sign * eps)[:, None] * cone.axis + base) @ cone.frame
        assert member_count(u) == want


@pytest.mark.parametrize("family,n,k,g", MEMBERSHIP_CONES)
def test_nnls_membership_matches_hrep_oracle(family, n, k, g):
    # on the sampler's own cross-section rows, NNLS on the cone's generators
    # puts each row's threshold, from the half-spaces, where it should be
    cone = internal_cone(family, n, k, g)
    assert cone.cross_section.shape == (g - k - 1, g)  # an internal cone's lineality drops out
    cfg = MCConfig(samples=4000, seed=12345)
    w = angle_chunk_draws(cfg.seed, cone.seed_path, cfg.samples, cone.cross_section.shape[0])
    _assert_brackets(cone, w, lambda u: nnls_member_count(cone.data.generators, u))


_NORMAL_BUILDS = [
    lambda: normal_cone(Family.SIMPLEX, 10, 1),
    lambda: normal_cone(Family.CROSSPOLYTOPE, 40, 1),
    lambda: normal_cone(Family.CUBE, 4, 1),
]


@pytest.mark.parametrize("build", [*_NORMAL_BUILDS, *[lambda spec=spec: internal_cone(*spec) for spec in MEMBERSHIP_CONES]],
                         ids=[f"normal-{f.value}" for f in (Family.SIMPLEX, Family.CROSSPOLYTOPE, Family.CUBE)]
                         + ["internal-" + "-".join(str(getattr(x, "value", x)) for x in spec) for spec in MEMBERSHIP_CONES])
def test_contains_coords_is_the_axis_threshold_on_full_rows(build):
    # per-sample agreement with the hit counts the sampler took before it drew
    # only cross-sections: on those full rows z, z in C exactly when the axis
    # coordinate <z, u> reaches the threshold of z's cross-section, except
    # within HALFSPACE_TOL of a facet (normal cones also carry the zero
    # normals of the face's own vertices, which no row can violate)
    cone = build()
    cfg = MCConfig(samples=4000, seed=12345)
    z = angle_chunk_draws(cfg.seed, cone.seed_path, cfg.samples, cone.dim)
    lam, _ = _thresholds(cone, z @ cone.cross_section.T)
    worst = (z @ _kept_normals(cone).T).max(axis=1)
    clear = np.abs(worst) > 2 * HALFSPACE_TOL * (1.0 + np.linalg.norm(z, axis=1))
    assert clear.sum() >= len(z) - 1
    assert np.array_equal(cone.contains_coords(z)[clear], (z @ cone.axis >= lam)[clear])


@pytest.mark.parametrize("build", [
    *_NORMAL_BUILDS,
    lambda: internal_cone(Family.SIMPLEX, 5, 0, 3),
    lambda: internal_cone(Family.CROSSPOLYTOPE, 6, 1, 4),
    lambda: internal_cone(Family.CUBE, 4, 0, 3),
])
def test_cone_angle_counts_contains_on_its_draws(build):
    # each of cone_angle's draws scores the Gaussian mass of the axis line
    # through it that contains() admits: contains() takes the ambient points
    # just above the draw's threshold and none just below
    cone = build()
    cfg = MCConfig(samples=2 * DEFAULT_CHUNK + 5000, seed=7)  # three chunks
    w = angle_chunk_draws(cfg.seed, cone.seed_path, cfg.samples, cone.cross_section.shape[0])
    _assert_brackets(cone, w, lambda u: int(np.count_nonzero(cone.contains(u))))


AGREEMENT_CONES = [
    *[("normal", family, n, g) for family in (Family.SIMPLEX, Family.CROSSPOLYTOPE)
      for n in (3, 9, 10, 40, 75, 150) for g in (0, 1, 3, 5) if g < n],
    *[("internal", Family.SIMPLEX, g, k, g) for g in range(2, 8) for k in range(g - 1)],
    # internal cones with more normals than any formula sum uses
    ("internal", Family.SIMPLEX, 12, 0, 11),
    ("internal", Family.CUBE, 10, 0, 10),
]
AGREEMENT_ROWS = (1, 7, _SUB_ROWS - 1, _SUB_ROWS, _SUB_ROWS + 1, 20_000)


@pytest.mark.parametrize("spec", AGREEMENT_CONES,
                         ids=lambda spec: "-".join(str(getattr(x, "value", x)) for x in spec))
def test_contains_coords_matches_one_product_oracle(spec):
    cone = normal_cone(*spec[1:]) if spec[0] == "normal" else internal_cone(*spec[1:])
    rng = np.random.default_rng(list(spec[2:]))
    for rows in AGREEMENT_ROWS:
        z = rng.standard_normal((rows, cone.dim))
        assert np.array_equal(cone.contains_coords(z), one_product_member_mask(cone, z)), rows


def _orthant(dim: int) -> Cone:
    """The nonnegative orthant on the identity frame: scores are exactly -z_j."""
    eye = np.eye(dim)
    return Cone(eye, PositiveHullData(eye, -eye))


def _row_tol(row: np.ndarray) -> float:
    """HALFSPACE_TOL * (1 + |row|), as the one-product oracle computes it."""
    return HALFSPACE_TOL * (1.0 + math.sqrt(float(np.einsum("ij,ij->i", row[None], row[None])[0])))


def _plant_worst(row: np.ndarray, worst: float) -> np.ndarray:
    """row with its last entry set so that the orthant's worst score is exactly worst (all else >= 0)."""
    row = np.abs(row)
    row[-1] = -worst
    return row


@pytest.mark.parametrize("dim", [2, 3, 6])
@pytest.mark.parametrize("scale", [1.0, 1e3, 1e6])
def test_contains_coords_row_tolerance_edges_inside_one_block(dim, scale):
    # one _SUB_ROWS block of Gaussian rows, with rows planted at every edge
    # of the test: a worst score of exactly HALFSPACE_TOL, one ulp either side
    # of HALFSPACE_TOL * (1 + |z|) at |z| near 0.1, near scale and at the
    # block's largest row, and zero rows
    cone = _orthant(dim)
    rng = np.random.default_rng([dim, int(scale)])
    z = rng.standard_normal((_SUB_ROWS, dim))
    planted = [_plant_worst(np.zeros(dim), HALFSPACE_TOL), np.zeros(dim), -np.zeros(dim)]
    for size in (0.1, scale, scale, scale):
        row = _plant_worst(size * rng.standard_normal(dim) / math.sqrt(dim), 0.0)
        row[0] = size
        tol = _row_tol(_plant_worst(row, HALFSPACE_TOL * (1.0 + size)))
        for worst in (np.nextafter(tol, 0.0), tol, np.nextafter(tol, math.inf)):
            planted.append(_plant_worst(row, worst))
            assert _row_tol(planted[-1]) == tol  # the planted score leaves |z| as it was
    # a row of entries scale, |z| near sqrt(dim) scale: the closest any tolerance comes to that bound
    edge = np.full(dim, scale)
    planted.append(_plant_worst(edge, _row_tol(_plant_worst(edge, HALFSPACE_TOL * (1 + scale)))))
    z[: len(planted)] = planted
    # a row twice as long as any other, so its tolerance is the block's largest
    top = np.zeros(dim)
    top[0] = 2.0 * np.linalg.norm(z, axis=1).max()
    tol = _row_tol(_plant_worst(top, HALFSPACE_TOL * (1.0 + top[0])))
    for worst, inside_top in ((np.nextafter(tol, 0.0), True), (np.nextafter(tol, math.inf), False)):
        z[len(planted)] = _plant_worst(top, worst)
        assert _row_tol(z[len(planted)]) == tol
        assert np.linalg.norm(z, axis=1).argmax() == len(planted)
        mask = cone.contains_coords(z)
        assert np.array_equal(mask, one_product_member_mask(cone, z))
        assert mask[len(planted)] == inside_top
    inside = mask[: len(planted)].tolist()
    assert inside == [True, True, True] + [True, True, False] * 4 + [True]


@pytest.mark.parametrize("bad", [np.nan, math.inf, -math.inf, 1e200])
def test_contains_coords_non_finite_and_overflowing_rows_match_oracle(bad):
    # a NaN or inf entry, or one whose square passes the float range, in the
    # block: every row, those rows and the finite ones beside them, gets the
    # one-product answer
    cones = [_orthant(3), _canonical_internal_cone(0, 3), internal_cone(Family.SIMPLEX, 4, 3, 3)]
    for cone in cones:
        rng = np.random.default_rng(5)
        z = rng.standard_normal((_SUB_ROWS, cone.dim))
        z[0, 0] = bad
        z[1] = bad
        z[2] = _plant_worst(np.array([bad, 1.0, 1.0]), 1e195) if math.isfinite(bad) else z[2]
        z[3] = _plant_worst(np.zeros(3), HALFSPACE_TOL * 2.5)
        with np.errstate(invalid="ignore"):  # inf times a zero normal entry
            assert np.array_equal(cone.contains_coords(z), one_product_member_mask(cone, z))


@pytest.mark.parametrize("k,g", [(0, 2), (0, 4), (1, 4), (2, 6)])
@pytest.mark.parametrize("scale", [1.0, 1e3, 1e6])
def test_contains_coords_boundary_rays_match_oracle(k, g, scale):
    # the cone's own generators, scaled and nudged across the facets through
    # them, have worst scores near HALFSPACE_TOL * (1 + |z|)
    cone = _canonical_internal_cone(k, g)
    rng = np.random.default_rng([k, g, int(scale)])
    rays = cone.data.generators @ cone.frame.T
    lengths = np.linalg.norm(rays, axis=1)
    rays = rays[lengths > 0.5] / lengths[lengths > 0.5, None]  # the apex's own vertex is no ray
    z = rng.standard_normal((_SUB_ROWS, g))
    picks = rays[rng.integers(len(rays), size=_SUB_ROWS // 2)]
    normals = cone.frame_normals[np.argmax(picks @ cone.frame_normals.T, axis=1)]  # a facet through the ray
    nudges = rng.uniform(-6.0, 6.0, (_SUB_ROWS // 2, 1)) * HALFSPACE_TOL * (1.0 + scale)
    z[::2] = scale * picks + nudges * normals
    mask = cone.contains_coords(z)
    assert np.array_equal(mask, one_product_member_mask(cone, z))
    assert 0 < mask[::2].sum() < _SUB_ROWS // 2


def test_contains_coords_of_empty_blocks_and_zero_dimensional_frames():
    cones = [_orthant(3), Cone(np.zeros((0, 3)), PositiveHullData(np.zeros((0, 3)), np.zeros((0, 3)))),
             internal_cone(Family.SIMPLEX, 4, 0, 0)]
    for cone in cones:
        for rows in (0, 1, _SUB_ROWS):
            z = np.zeros((rows, cone.dim))
            mask = cone.contains_coords(z)
            assert mask.shape == (rows,) and mask.all()
            assert np.array_equal(mask, one_product_member_mask(cone, z))


def test_cached_internal_cone_is_read_only():
    cone = _canonical_internal_cone(1, 4)
    assert _canonical_internal_cone(1, 4) is cone
    for array in (cone.frame, cone.frame_normals, cone.axis, cone.cross_section, cone.ray_normals,
                  cone.data.generators, cone.data.normals):
        with pytest.raises(ValueError):
            array[0] = 0.0
    # the public builder still returns fresh, writable arrays on the cone's frame and normals
    fresh = internal_cone(Family.SIMPLEX, 4, 1, 4)
    assert np.array_equal(fresh.frame, cone.frame) and np.array_equal(fresh.frame_normals, cone.frame_normals)
    assert fresh.seed_path != cone.seed_path
    fresh.frame_normals[0] = 0.0


_PAIRS = [(k, g) for g in range(2, 7) for k in range(g - 1)]


def test_cached_cones_give_a_fresh_interpreters_angles():
    cfg = MCConfig(samples=3000, seed=21)
    for k, g in _PAIRS:  # warm the cone cache at another seed
        internal_angle(Family.SIMPLEX, 7, k, g, MCConfig(samples=3000, seed=20))
    clear_angle_memo()
    warm = [internal_angle(Family.SIMPLEX, 7, k, g, cfg) for k, g in _PAIRS]
    clear_angle_memo()
    src = os.path.dirname(os.path.dirname(polyproj.__file__))
    code = ("from polyproj import Family, MCConfig, internal_angle\n"
            f"print([internal_angle(Family.SIMPLEX, 7, k, g, MCConfig(samples=3000, seed=21)) for k, g in {_PAIRS!r}])")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         timeout=120, check=True).stdout
    assert warm == eval(out, {"Estimate": Estimate, "Fraction": Fraction})


def test_patched_cone_angle_sees_every_sampled_angle(monkeypatch):
    # the benchmark self-test counts the cones sampled by wrapping cone_angle;
    # of _PAIRS only beta(0, 2) is sampled, the others are integrals
    cfg = MCConfig(samples=2000, seed=4)
    for k, g in _PAIRS:
        internal_angle(Family.CROSSPOLYTOPE, 8, k, g, cfg)
    seen = []
    original = polyproj.angles.cone_angle
    monkeypatch.setattr(polyproj.angles, "cone_angle", lambda cone, cfg=None: seen.append(cone) or original(cone, cfg))
    for family in (Family.SIMPLEX, Family.CROSSPOLYTOPE):
        clear_angle_memo()
        seen.clear()
        for k, g in _PAIRS:
            internal_angle(family, 8, k, g, cfg)
        assert [cone.seed_path[2:] for cone in seen] == [(0, 2)]
        assert all(cone is _canonical_internal_cone(*cone.seed_path[2:]) for cone in seen)
    clear_angle_memo()


@pytest.mark.parametrize("build", [
    lambda: normal_cone(Family.CROSSPOLYTOPE, 40, 1),
    lambda: normal_cone(Family.SIMPLEX, 39, 1),
    lambda: internal_cone(Family.SIMPLEX, 5, 0, 3),
])
@pytest.mark.parametrize("samples", [
    1, _SUB_ROWS - 1, _SUB_ROWS + 1, 3 * _SUB_ROWS, DEFAULT_CHUNK + _SUB_ROWS + 3, DEFAULT_CHUNK + 5,
    2 * DEFAULT_CHUNK + _SUB_ROWS // 2,
])
def test_cone_angle_hits_match_oracle_on_single_call_draws(build, samples):
    # cone_angle scores angle_draws' blocks of one buffer, filled a sub-block at
    # a time and reused for a shorter last chunk, by the Phi table, and sums
    # about the first block's mean; the oracle draws each chunk at once and
    # scores every row by math.erfc
    cone = build()
    cfg = MCConfig(samples=samples, seed=3)
    est = cone_angle(cone, cfg)
    value, std_error = erfc_angle_estimate(cone, cfg.seed, cfg.samples)
    assert math.isclose(est.value, value, rel_tol=1e-13)
    assert math.isclose(est.std_error, std_error, rel_tol=1e-13)
    assert (est.samples, est.exact) == (samples, False)
    assert (est.std_error == 0.0) == (samples == 1)


# hit counts of the 2e4 full rows z at seed 1 that the sampler drew before it
# drew only cross-sections, and of their negatives -z, with no draw hitting
# both, as one product over every normal decides them; and the value and
# standard error cone_angle now gives from the cross-sections of the same
# streams, to 1e-12, which BLAS's summation order may move in the last bits:
# a sampler change that moves one decision, or one draw, fails
PINNED_EXTERNAL_HITS = [
    (Family.CROSSPOLYTOPE, 40, 0, 274, 253, 0.01249896879705189, 8.586380931751105e-05),
    (Family.CROSSPOLYTOPE, 40, 1, 27, 38, 0.0014125433082966157, 1.8849713417683533e-05),
    (Family.CROSSPOLYTOPE, 75, 0, 124, 151, 0.0066609607230085025, 4.6631200267037906e-05),
    (Family.CROSSPOLYTOPE, 75, 1, 12, 4, 0.0004178479446062466, 5.70926961464839e-06),
    (Family.SIMPLEX, 39, 1, 91, 99, 0.004909703714156938, 5.455774843855928e-05),
    (Family.SIMPLEX, 74, 1, 19, 28, 0.0015513762257057361, 1.883015023761351e-05),
]


@pytest.mark.parametrize("family,n,g,hits,mirrored,value,std_error", PINNED_EXTERNAL_HITS,
                         ids=[f"{family.value}-{n}-{g}-{hits}" for family, n, g, hits, *_ in PINNED_EXTERNAL_HITS])
def test_external_angle_hits_are_pinned(family, n, g, hits, mirrored, value, std_error):
    cone = normal_cone(family, n, g)
    cfg = MCConfig(samples=20_000, seed=1)
    z = angle_chunk_draws(cfg.seed, cone.seed_path, cfg.samples, cone.dim)
    inside = [cone.contains_coords(sign * z) for sign in (1.0, -1.0)]
    assert [int(np.count_nonzero(mask)) for mask in inside] == [hits, mirrored]
    assert not np.any(inside[0] & inside[1])
    assert np.array_equal(inside[0], one_product_member_mask(cone, z))
    est = cone_angle(cone, cfg)
    assert math.isclose(est.value, value, rel_tol=1e-12)
    assert math.isclose(est.std_error, std_error, rel_tol=1e-12)
    assert est == cone_angle(normal_cone(family, n, g), MCConfig(samples=20_000, seed=1, workers=2))


@pytest.mark.parametrize("family,n,k,g,base,axis,free", [
    # a point on the facet u_3 = 0 of pos(Q_3 - bary Q_1), pushed along e_0 - e_3
    (Family.SIMPLEX, 4, 1, 3, [-0.5, -0.5, 1.0, 0.0, 0.0], 3, 0),
    # a point on the facet u_0 = 0 of the cube's pos(Q_2 - Q_0), pushed along -e_0
    (Family.CUBE, 3, 0, 2, [0.0, 1.0, 0.0], 0, None),
])
@pytest.mark.parametrize("scale,inside", [(-2.0, False), (-0.5, True), (0.5, True), (2.0, True)])
def test_halfspace_tolerance_boundary(family, n, k, g, base, axis, free, scale, inside):
    cone = internal_cone(family, n, k, g)
    base = np.array(base)
    shift = scale * HALFSPACE_TOL * (1.0 + np.linalg.norm(base))
    u = base.copy()
    u[axis] += shift
    if free is not None:
        u[free] -= shift  # stay on the zero-sum hyperplane of the simplex face
    assert cone.contains(u[None])[0] == inside
    assert cone.contains(base[None])[0]


@pytest.mark.parametrize("scale,ok", [(0.5, True), (2.0, False)])
def test_orthonormality_tolerance_boundary(scale, ok):
    # the second row leans toward the first by scale * ORTHONORMALITY_TOL
    lean = scale * ORTHONORMALITY_TOL
    frame = np.array([[1.0, 0.0, 0.0], [lean, 1.0, 0.0]])
    data = PositiveHullData(np.zeros((0, 3)), np.zeros((0, 3)))
    if ok:
        assert Cone(frame, data).dim == 2
    else:
        with pytest.raises(NumericError, match="orthonormal"):
            Cone(frame, data)


@pytest.mark.parametrize("scale,ok", [(0.5, True), (2.0, False)])
def test_span_tolerance_boundary(scale, ok):
    # a generator of norm about 1 that leaves the frame's line by scale * SPAN_TOL * 2
    off = scale * SPAN_TOL * 2.0
    generators = np.array([[1.0, off, 0.0]])
    data = PositiveHullData(generators, np.zeros((0, 3)))
    frame = np.array([[1.0, 0.0, 0.0]])
    if ok:
        assert Cone(frame, data).dim == 1
    else:
        with pytest.raises(NumericError, match="frame span"):
            Cone(frame, data)


# ---------------------------------------------------------------------------
# determinism, memoization, caching


def test_cone_angle_deterministic():
    cfg = MCConfig(samples=30_000, seed=5)
    cone = normal_cone(Family.SIMPLEX, 4, 0)
    a = cone_angle(cone, cfg)
    b = cone_angle(cone, cfg)
    assert a == b


def test_cone_angle_worker_invariant():
    cone = normal_cone(Family.CROSSPOLYTOPE, 4, 0)
    a = cone_angle(cone, MCConfig(samples=50_000, seed=2, workers=1))
    b = cone_angle(cone, MCConfig(samples=50_000, seed=2, workers=3))
    assert a.value == b.value


def test_cone_angle_seed_sensitivity():
    cone = normal_cone(Family.SIMPLEX, 4, 0)
    a = cone_angle(cone, MCConfig(samples=30_000, seed=0))
    b = cone_angle(cone, MCConfig(samples=30_000, seed=1))
    assert a.value != b.value


def test_zero_dimensional_cone_is_exact():
    cone = Cone(np.zeros((0, 3)), PositiveHullData(np.zeros((0, 3)), np.zeros((0, 3))))
    est = cone_angle(cone)
    assert est.exact_value == 1


def test_memo_returns_same_estimate():
    clear_angle_memo()
    cfg = MCConfig(samples=5_000, seed=9)
    a = internal_angle(Family.SIMPLEX, 4, 0, 2, cfg)
    b = internal_angle(Family.SIMPLEX, 4, 0, 2, cfg)
    assert a is b or a == b


def test_mcconfig_validation():
    with pytest.raises(InvalidArgumentError):
        MCConfig(samples=0)
    with pytest.raises(InvalidArgumentError):
        MCConfig(seed=-1)
    with pytest.raises(InvalidArgumentError):
        MCConfig(workers=0)
    # the chunk grid is fixed, not a field
    assert [f.name for f in dataclasses.fields(MCConfig)] == ["samples", "seed", "workers", "cache_path"]
    assert MCConfig().chunk_size == DEFAULT_CHUNK == 32768
    # integer fields take ints and NumPy integers, never floats, bools or strings
    for field, bad in [("seed", 2.7), ("samples", 1.5), ("workers", True), ("samples", "5"),
                       ("seed", np.float64(8.0))]:
        with pytest.raises(InvalidArgumentError, match=field):
            MCConfig(**{field: bad})
    cfg = MCConfig(samples=np.int64(2000), seed=np.uint32(3), workers=np.int8(1))
    assert all(type(v) is int for v in (cfg.samples, cfg.seed, cfg.workers))
    twin = MCConfig(samples=2000, seed=3, workers=1)
    assert cfg == twin
    clear_angle_memo()
    est = internal_angle(Family.SIMPLEX, 4, 0, 2, cfg)
    clear_angle_memo()
    assert est == internal_angle(Family.SIMPLEX, 4, 0, 2, twin)
    clear_angle_memo()


def test_stream_helpers():
    # seed paths (kind, family, i, j): internal 1, external 2, and family 0 for the shared canonical cones
    cones = [internal_cone(Family.CUBE, 4, 0, 3), normal_cone(Family.CROSSPOLYTOPE, 40, 1), _canonical_internal_cone(1, 4)]
    assert [cone.seed_path for cone in cones] == [(1, 3, 0, 3), (2, 2, 40, 1), (1, 0, 1, 4)]
