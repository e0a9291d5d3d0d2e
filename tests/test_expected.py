import math
import sys
from fractions import Fraction

import numpy as np
import pytest

import polyproj.angles
import polyproj.expected
from polyproj import (
    MODEL_TABLE,
    QUADRATURE_RTOL,
    Estimate,
    Family,
    InvalidArgumentError,
    InvalidDimensionError,
    MCConfig,
    NumericError,
    TruncationError,
    clear_angle_memo,
    expected_f_cube_closed_form,
    expected_f_model,
    expected_f_projection,
    expected_f_zonotope,
    external_angle,
    face_count,
    internal_angle,
    intrinsic_volume,
    monotonicity_table,
    poissonized_expected,
    poissonized_series,
    t_functional_expected,
)

from polyproj.families import canonical_face_volume, check_count_size, target_row

from oracles import (
    SHADOW_TETRA_VERTICES,
    cube_projection_sum,
    model_value_by_terms,
    poisson_face_bound,
    poisson_growth_ratio,
    poisson_stop_by_scan,
    poisson_sum_per_t,
    sampled_facet_size_ratio,
    size_functional_multiplier,
)

FAST = MCConfig(samples=20_000, seed=0)


# ---------------------------------------------------------------------------
# deterministic branches


@pytest.mark.parametrize("family", list(Family))
def test_trivial_branches(family):
    assert expected_f_projection(family, 4, 3, 5).exact_value == 0
    assert expected_f_projection(family, 4, 3, 3).exact_value == 1
    assert expected_f_projection(family, 2, 5, 2).exact_value == 1  # k = min(n, d)
    # injective regime reproduces the face count
    got = expected_f_projection(family, 3, 6, 1)
    assert got.exact_value == face_count(family, 3, 1)


@pytest.mark.parametrize("family", list(Family))
def test_d_equals_n_is_exact(family):
    # onto n dimensions P_n projects injectively almost surely: no sampling
    for n in range(1, 7):
        for k in range(n):
            est = expected_f_projection(family, n, n, k)
            assert est.exact and est.std_error == 0.0
            assert est.exact_value == face_count(family, n, k)


@pytest.mark.parametrize("family", list(Family))
def test_d_equals_one_is_a_segment(family):
    est = expected_f_projection(family, 5, 1, 0)
    assert est.exact and est.exact_value == 2
    assert expected_f_projection(family, 5, 1, 1).exact_value == 1


@pytest.mark.parametrize("n", range(1, 9))
def test_cube_projection_equals_closed_form(n):
    for d in range(1, min(n, 6) + 1):
        for k in range(d):
            est = expected_f_projection(Family.CUBE, n, d, k)
            assert est.exact
            assert est.exact_value == expected_f_cube_closed_form(n, d, k)


def test_frozen_projection_values():
    assert expected_f_cube_closed_form(4, 3, 0) == 14
    assert expected_f_cube_closed_form(4, 3, 1) == 24
    assert expected_f_cube_closed_form(4, 3, 2) == 12
    assert expected_f_cube_closed_form(3, 2, 0) == 6
    for n in range(2, 9):
        assert expected_f_cube_closed_form(n, 2, 0) == 2 * n
    # d = n reproduces the cube itself
    assert expected_f_cube_closed_form(3, 3, 0) == 8
    assert expected_f_cube_closed_form(4, 4, 1) == 32


def test_closed_form_validation():
    with pytest.raises(InvalidArgumentError):
        expected_f_cube_closed_form(3, 4, 0)
    with pytest.raises(InvalidArgumentError):
        expected_f_cube_closed_form(4, 3, 3)


@pytest.mark.parametrize("family,n", [
    (Family.SIMPLEX, 6),
    (Family.CROSSPOLYTOPE, 5),
    (Family.CUBE, 7),
])
def test_polygon_identity(family, n):
    # a polygon has as many vertices as edges; the two sums agree exactly
    a = expected_f_projection(family, n, 2, 0, FAST)
    b = expected_f_projection(family, n, 2, 1, FAST)
    assert a.value == b.value


def test_pinned_shadow_value():
    # a planar sum: quadrature external angles and exact internal ones, so it
    # is exact without being rational
    est = expected_f_model("gaussian", 4, 2, 0)
    assert (est.exact, est.exact_value, est.std_error, est.method) == (True, None, 0.0, "exact")
    assert abs(est.value - SHADOW_TETRA_VERTICES) <= QUADRATURE_RTOL * SHADOW_TETRA_VERTICES


# ---------------------------------------------------------------------------
# models


def test_gaussian_wrapper_matches_simplex():
    a = expected_f_model("gaussian", 5, 2, 0, FAST)
    b = expected_f_projection(Family.SIMPLEX, 4, 2, 0, FAST)
    assert a == b
    assert expected_f_model("gaussian", 1, 2, 0).exact_value == 1
    assert expected_f_model("gaussian", 1, 2, 1).exact_value == 0


def test_symmetric_wrapper_matches_cross():
    a = expected_f_model("symmetric", 4, 2, 0, FAST)
    b = expected_f_projection(Family.CROSSPOLYTOPE, 4, 2, 0, FAST)
    assert a == b


def test_zonotope_wrapper():
    assert expected_f_zonotope(4, 3, 0).exact_value == 14
    assert expected_f_zonotope(3, 5, 1).exact_value == face_count(Family.CUBE, 3, 1)
    assert expected_f_zonotope(4, 4, 4).exact_value == 1
    assert expected_f_zonotope(2, 3, 2).exact_value == 1
    assert expected_f_zonotope(2, 3, 5).exact_value == 0
    assert expected_f_zonotope(5, 3, 1).std_error == 0.0


def test_model_dispatch():
    assert expected_f_model("zonotope", 4, 3, 0).exact_value == 14
    assert expected_f_model("gaussian", 0, 3, 0).exact_value == 0
    a = expected_f_model("symmetric", 4, 2, 0, FAST)
    assert a == expected_f_projection(Family.CROSSPOLYTOPE, 4, 2, 0, FAST)
    # a family's row is P_n itself, but its name is no model name
    row = target_row("crosspolytope")
    assert expected_f_model(row, 5, 3, 1, FAST) == expected_f_projection(Family.CROSSPOLYTOPE, 5, 3, 1, FAST)
    with pytest.raises(InvalidArgumentError):
        expected_f_model("cube", 4, 3, 0)


def test_target_rows_at_every_face_dimension():
    cube = target_row(Family.CUBE)
    assert [expected_f_model(cube, 4, 3, k).exact_value for k in range(4)] == [14, 24, 12, 1]
    # the hull of 3 points is at most a triangle: the image itself at k = 2
    assert [expected_f_model("gaussian", 3, 4, k).exact_value for k in range(4)] == [3, 3, 1, 0]
    # the simplex family's n is P_n itself, projected_simplex's n is P_{n-1}
    simplex = target_row("simplex")
    for k in range(3):
        assert expected_f_model(simplex, 4, 3, k, FAST) == expected_f_projection(Family.SIMPLEX, 4, 3, k, FAST)
        assert expected_f_model("projected_simplex", 4, 3, k, FAST) == expected_f_projection(
            Family.SIMPLEX, 3, 3, k, FAST)
    # the tetrahedron itself
    assert [expected_f_model("projected_simplex", 4, 3, k).exact_value for k in range(3)] == [4, 6, 4]
    assert not expected_f_model(simplex, 4, 3, 0, FAST).exact


def test_estimate_method_property():
    assert expected_f_zonotope(4, 3, 0).method == "exact"
    assert expected_f_model("gaussian", 5, 2, 0, FAST).method == "exact"
    # beta(Q_0, Q_2) is sampled
    assert expected_f_model("gaussian", 5, 3, 0, FAST).method == "monte_carlo"


def test_argument_validation():
    with pytest.raises(InvalidArgumentError):
        expected_f_projection(Family.CUBE, 0, 1, 0)
    with pytest.raises(InvalidArgumentError):
        expected_f_projection(Family.CUBE, 3, 2, -1)
    with pytest.raises(InvalidArgumentError):
        expected_f_projection(Family.CUBE, 3.0, 2, 0)
    with pytest.raises(InvalidArgumentError):
        expected_f_model("gaussian", -1, 2, 0)
    with pytest.raises(InvalidArgumentError):
        expected_f_model("gaussian", True, 2, 0)
    with pytest.raises(InvalidArgumentError, match="unknown model 'bogus'"):
        expected_f_model("bogus", 0, 2, 0)
    with pytest.raises(InvalidArgumentError, match="d must be an integer"):
        expected_f_model("gaussian", 4, 3.5, 0)
    with pytest.raises(InvalidArgumentError, match="n must be an integer"):
        expected_f_model(target_row(Family.CUBE), 4.0, 3, 0)


@pytest.mark.parametrize("model", list(MODEL_TABLE))
def test_every_model_is_its_projected_polytope(model):
    # the model with parameter n is the projected P_{n - shift}; n < shift is
    # the empty hull, and so is the crosspolytope's P_0, which has no vertex,
    # while the P_0 of a simplex or cube is a point
    row = MODEL_TABLE[model]
    for n in range(row.shift + 1, row.shift + 5):
        for d in (1, 2, 3):
            for k in range(d + 1):
                assert expected_f_model(model, n, d, k, FAST) == expected_f_projection(
                    row.family, n - row.shift, d, k, FAST)
    for n in range(row.shift + 1):
        point = n == row.shift and row.family is not Family.CROSSPOLYTOPE
        for d in (1, 2, 3):
            assert [expected_f_model(model, n, d, k).exact_value for k in range(3)] == [int(point), 0, 0]
    # the image of P_{shift + 4} in R^3 is 3-dimensional
    assert expected_f_model(model, row.shift + 4, 3, 3, FAST).exact_value == 1


def test_numpy_integer_arguments():
    # NumPy integers are integers wherever the package takes one
    args = (np.int64(5), np.int32(2), np.int64(0))
    assert expected_f_model("gaussian", *args, FAST) == expected_f_model("gaussian", 5, 2, 0, FAST)
    assert expected_f_projection(Family.CUBE, *args) == expected_f_projection(Family.CUBE, 5, 2, 0)
    assert face_count(Family.CUBE, np.int64(3), np.uint8(1)) == face_count(Family.CUBE, 3, 1)
    assert external_angle(Family.CUBE, np.int64(4), np.int64(1)).exact_value == Fraction(1, 8)


# ---------------------------------------------------------------------------
# intrinsic volumes and the size functional


@pytest.mark.parametrize("n", [2, 5, 9])
def test_cube_intrinsic_volumes_are_binomial(n):
    for k in range(n + 1):
        est = intrinsic_volume(Family.CUBE, n, k)
        assert est.exact
        assert est.exact_value == math.comb(n, k)


@pytest.mark.parametrize("n", [16, 75])
def test_intrinsic_volumes_past_the_cube_vertex_cap(n):
    # no face is built, so the cube's vertex-enumeration cap (n = 15) does not apply
    for k in (0, 1, 3, n):
        est = intrinsic_volume(Family.CUBE, n, k)
        assert est.exact_value == math.comb(n, k) and est.value == float(math.comb(n, k))
    # simplex and crosspolytope values are the face count times the external
    # angle times the canonical face's volume
    for family in (Family.SIMPLEX, Family.CROSSPOLYTOPE):
        for k in (0, 1, 3, n - 1):
            want = (face_count(family, n, k) * external_angle(family, n, k).value
                    * canonical_face_volume(family, k))
            assert intrinsic_volume(family, n, k).value == want


def test_cube_values_at_a_trillion_take_no_angle(monkeypatch):
    # cube rows come from the closed form and cube intrinsic volumes are binomials:
    # no external angle, whose exact power of 1/2 would have 10^12 bits, is taken
    monkeypatch.setattr(polyproj.expected, "external_angle", None)
    monkeypatch.setattr(polyproj.expected, "external_angles", None)
    n = 10**12
    assert intrinsic_volume(Family.CUBE, n, 2).exact_value == math.comb(n, 2)
    for d in (2, 3, 4):
        for k in range(d):
            est = expected_f_projection(Family.CUBE, n, d, k)
            assert est.exact_value == expected_f_cube_closed_form(n, d, k)
            # 2 sum_j C(n, j - 1) C(j - 1, k), j = d, d - 2, ...
            want = 2 * sum(math.comb(n, j - 1) * math.comb(j - 1, k) for j in range(d, 0, -2))
            assert est.exact_value == want and est.value == float(want)
    rows = monotonicity_table("cube", 3, 0, n, n + 2)
    assert [r.exact_value for r in rows] == [expected_f_cube_closed_form(m, 3, 0) for m in (n, n + 1, n + 2)]


@pytest.mark.parametrize("n,d", [(7, 2), (12, 5), (40, 9), (61, 60)])
def test_cube_closed_form_rows_are_the_projection_sums(n, d):
    # the closed form gives every cube row the value and rational that the exact
    # products c(n, j - 1) c(j - 1, k) beta gamma of the library's angles add up to
    def angle(kind, family, n, k, g):
        est = internal_angle(family, n, k, g) if kind == "int" else external_angle(family, n, g)
        assert est.exact_value is not None
        return est.exact_value

    for k in range(d):
        total = cube_projection_sum(n, d, k, angle)
        est = expected_f_projection(Family.CUBE, n, d, k)
        assert (est.value, est.exact_value, est.std_error, est.exact) == (float(total), total, 0.0, True)


def test_exact_values_at_the_edge_of_the_float_range():
    # 2^1023 is a float and 2^1024 is not; a count whose size bound passes the
    # float range (2^1025 vertices) is rejected before it is built
    assert expected_f_projection(Family.CUBE, 1023, 1023, 0).value == 8.98846567431158e+307
    with pytest.raises(InvalidDimensionError, match="about 2\\^1024 is past the float range"):
        expected_f_projection(Family.CUBE, 1024, 1024, 0)
    with pytest.raises(InvalidDimensionError, match="at least 2\\^1025 is past the float range"):
        expected_f_projection(Family.CUBE, 1025, 1025, 0)
    # the bound is the count for C(a, 1): a simplex with as many vertices as the largest float passes it
    top = int(sys.float_info.max)
    check_count_size(0, (top, 1))
    assert face_count(Family.SIMPLEX, top - 1, 0, fits_float=True) == top
    assert expected_f_projection(Family.SIMPLEX, top - 1, top - 1, 0).value == sys.float_info.max
    with pytest.raises(InvalidDimensionError):
        expected_f_projection(Family.SIMPLEX, 2 * top, 2 * top, 0)
    # a closed form is bounded by a middle term: 2^(n-1) and more, not its first term C(n, 2)
    with pytest.raises(InvalidDimensionError, match="past the float range"):
        expected_f_cube_closed_form(10**6 + 1, 10**6 - 2, 0)
    assert expected_f_cube_closed_form(1000, 998, 990) == expected_f_projection(Family.CUBE, 1000, 998, 990).exact_value
    # a cube intrinsic volume is bounded the same way
    with pytest.raises(InvalidDimensionError, match="past the float range"):
        intrinsic_volume(Family.CUBE, 10**12, 5 * 10**11)


def test_simplex_top_intrinsic_volume():
    est = intrinsic_volume(Family.SIMPLEX, 1, 1)
    assert est.exact
    assert est.value == pytest.approx(math.sqrt(2), rel=1e-15)
    assert est.exact_value is None  # irrational


def test_cross_top_intrinsic_volume():
    est = intrinsic_volume(Family.CROSSPOLYTOPE, 4, 4)
    assert est.exact
    assert est.exact_value == Fraction(2**4, math.factorial(4))


@pytest.mark.parametrize("n", [23, 170, 171, 1000])
def test_cross_top_intrinsic_volume_is_correctly_rounded_past_the_float_range_of_n_factorial(n):
    # 170! is the last factorial below the float range; 2.0**n / n! raised OverflowError from n = 171 on
    est = intrinsic_volume(Family.CROSSPOLYTOPE, n, n)
    want = Fraction(2**n, math.factorial(n))
    assert (est.exact, est.exact_value, est.std_error) == (True, want, 0.0)
    assert abs(Fraction(est.value) - want) <= Fraction(math.ulp(est.value)) / 2  # the nearest float
    assert (est.value > 0) == (n < 1000)  # 2^1000 / 1000! is about 1e-2267, below the least subnormal
    if n == 23:  # one of the n <= 170 where the float quotient was one ulp off
        assert est.value != 2.0**n / math.factorial(n)


def test_vertex_intrinsic_volume_is_one():
    for family in Family:
        for n in (1, 4, 12):
            est = intrinsic_volume(family, n, 0)
            assert est.exact_value == 1 and est.value == 1.0 and est.std_error == 0.0


def test_intrinsic_volume_is_exact_where_gamma_is():
    # an edge's V_1: quadrature gamma times sqrt(2), deterministic but irrational
    est = intrinsic_volume(Family.SIMPLEX, 5, 1)
    assert (est.exact, est.exact_value, est.std_error) == (True, None, 0.0)
    want = face_count(Family.SIMPLEX, 5, 1) * external_angle(Family.SIMPLEX, 5, 1).value * math.sqrt(2)
    assert est.value == pytest.approx(want, rel=1e-15)


def test_intrinsic_volume_validation():
    with pytest.raises(InvalidArgumentError):
        intrinsic_volume(Family.CUBE, 3, 4)
    with pytest.raises(InvalidArgumentError):
        intrinsic_volume(Family.CUBE, 3, -1)


def _nearest_float(value: float, exact: Fraction) -> bool:
    """Whether value is a float nearest to exact: within half an ulp of it, the least subnormal's for 0.0."""
    return abs(Fraction(value) - exact) <= Fraction(math.ulp(value)) / 2


@pytest.mark.parametrize("family", [Family.SIMPLEX, Family.CROSSPOLYTOPE])
@pytest.mark.parametrize("k", [170, 171, 200])
def test_face_volume_past_the_float_range_of_k_factorial(family, k):
    # 170! is the last factorial in the float range: from k = 171 on, where
    # sqrt(k + 1) / k! raised OverflowError, the volume is that quotient
    # rounded once, 0.0 once it is below half the least subnormal
    value = canonical_face_volume(family, k)
    exact = Fraction(math.sqrt(k + 1)) / math.factorial(k)
    if k == 170:
        assert value == math.sqrt(k + 1) / math.factorial(k)
    assert _nearest_float(value, exact)
    assert (value > 0) == (k < 200)


def test_scaled_face_volume_past_the_float_range_of_its_factors():
    # an int factor past the float range raised OverflowError; the exact
    # product is rounded once, or is an InvalidDimensionError past the range
    assert canonical_face_volume(Family.SIMPLEX, 1, 2**1023, 1.0) == 2.0**1023 * math.sqrt(2)
    big = canonical_face_volume(Family.SIMPLEX, 1, 2**1100, 2.0**-200)
    assert _nearest_float(big, 2**900 * Fraction(math.sqrt(2)))
    with pytest.raises(InvalidDimensionError, match="past the float range"):
        canonical_face_volume(Family.SIMPLEX, 1, 2**1100, 1.0)
    assert canonical_face_volume(Family.CUBE, 7, 2**1100, 2.0**-1000) == 2.0**100


@pytest.mark.parametrize("family,n,k", [
    (Family.SIMPLEX, 4160, 170),  # the last n whose face count C(n + 1, k + 1) is a float
    (Family.SIMPLEX, 4161, 170),
    (Family.SIMPLEX, 172, 171),  # 171! past the float range, the face count not
    (Family.SIMPLEX, 3000, 1500),
    (Family.CROSSPOLYTOPE, 3000, 1500),
])
def test_intrinsic_volume_past_the_float_range_of_its_count(family, n, k):
    # the face count times the angle times the face volume: in floats while
    # the count and k! are floats, as before, else the exact product rounded
    # once where the float conversion raised OverflowError.  At k = 1500 the
    # angle gamma(Q_k, P_n) is below the smallest normal float, a
    # NumericError, where it was once 0.0 marked exact
    if k == 1500:
        for volume in (intrinsic_volume, external_angle):
            with pytest.raises(NumericError, match=f"{family.value} n={n} g={k} is below the smallest normal float"):
                volume(family, n, k)
        return
    est = intrinsic_volume(family, n, k)
    count, gamma = face_count(family, n, k), external_angle(family, n, k).value
    exact = count * Fraction(gamma) * Fraction(math.sqrt(k + 1)) / math.factorial(k)
    if (n, k) == (4160, 170):
        assert est.value == count * gamma * canonical_face_volume(family, k)
        assert est.value == pytest.approx(float(exact), rel=1e-15)
    else:
        assert _nearest_float(est.value, exact)
    assert (est.exact, est.std_error) == (True, 0.0)
    assert est.value > 0


def test_t_functional_reductions():
    assert t_functional_expected(3, 2, 0.0, 7.25) == 7.25
    assert t_functional_expected(3, 0, 2.0, 7.25) == 7.25


def test_t_functional_known_factors():
    # the mean length of an edge of standard Gaussian points' hull is sqrt(pi),
    # that of a zonotope's edge, a Gaussian generator in R^2, sqrt(pi / 2)
    assert t_functional_expected(2, 1, 1.0, 1.0) == pytest.approx(math.sqrt(math.pi), abs=1e-12)
    assert t_functional_expected(2, 1, 1.0, 1.0, "symmetric") == t_functional_expected(2, 1, 1.0, 1.0)
    assert t_functional_expected(2, 1, 1.0, 1.0, "zonotope") == pytest.approx(math.sqrt(math.pi / 2), abs=1e-12)
    assert t_functional_expected(3, 2, 2.0, 1.0) == 4.5
    assert t_functional_expected(2, 1, 1.0, 3.0) == pytest.approx(3 * math.sqrt(math.pi), abs=1e-12)
    with pytest.raises(InvalidArgumentError, match="unknown model 'projected_cube'"):
        t_functional_expected(2, 1, 1.0, 1.0, "projected_cube")


@pytest.mark.parametrize("d", range(2, 7))
def test_t_functional_b2_anchors(d):
    # at b = 2 the multipliers are rationals: M_G = (k+1) C(d, k) / k! for the
    # hulls of standard Gaussian points (Miles 1971), M_Z = d! / (d-k)! for the
    # zonotope (its k-faces, parallelotopes on k generators); each is the
    # oracle's product, and the library's value is the nearest float
    for k in range(1, d):
        gaussian = Fraction((k + 1) * math.comb(d, k), math.factorial(k))
        zonotope = Fraction(math.factorial(d), math.factorial(d - k))
        assert size_functional_multiplier(d, k, 1) == gaussian
        assert size_functional_multiplier(d, k, 1, "zonotope") == zonotope
        assert t_functional_expected(d, k, 2, 1.0) == float(gaussian)
        assert t_functional_expected(d, k, 2, 1.0, "zonotope") == float(zonotope)
    assert (size_functional_multiplier(2, 1, 1), size_functional_multiplier(3, 2, 1, "zonotope")) == (4, 6)


def test_t_functional_matches_sampled_edge_lengths():
    # sum of the edge lengths of 10 standard Gaussian points' hull in R^2 over
    # its edge count, 20 000 qhull hulls: 1.7741 +- 0.0034 at this seed, and
    # the multiplier sqrt(pi) = 1.7725 must lie within 4 standard errors
    ratio, stderr = sampled_facet_size_ratio(10, 2, 1.0, 20_000, np.random.default_rng(3))
    assert abs(ratio - t_functional_expected(2, 1, 1.0, 1.0)) < 4 * stderr
    assert stderr < 0.005


@pytest.mark.parametrize("b,value", [(174.0, 1.0), (174.0, -3.0), (176.0, 1e-10), (176.0, -1e-10), (176.0, 1.0),
                                     (200.0, 1.0), (200.0, -3.0), (202.0, 1e-10), (202.0, -1e-10), (202.0, 1.0),
                                     (1e6, 1.0), (1e308, 1.0), (1e308, 0.0)])
def test_t_functional_past_the_float_range_of_its_multiplier(b, value):
    # at gaussian d = 3, k = 2 the multiplier leaves the float range between
    # b = 174 and 176, where math.exp would raise OverflowError, and its
    # log-Gammas near b = 1e308; a scaled value still in the float range is
    # kept, and else it is an InvalidDimensionError
    past = value != 0.0
    if b < 1e6:
        multiplier = size_functional_multiplier(3, 2, int(b) // 2)
        assert (multiplier > Fraction(sys.float_info.max)) == (b > 175)
        exact = multiplier * Fraction(value)
        past = abs(exact) > Fraction(sys.float_info.max)
    if value == 0.0:
        assert t_functional_expected(3, 2, b, value) == 0.0
    elif past:
        with pytest.raises(InvalidDimensionError, match="size functional at d=3, k=2, .* past the float range"):
            t_functional_expected(3, 2, b, value)
    else:
        assert t_functional_expected(3, 2, b, value) == pytest.approx(float(exact), rel=1e-12)


def test_t_functional_validation():
    with pytest.raises(InvalidArgumentError):
        t_functional_expected(2, 3, 1.0, 1.0)
    # k = d is the polytope itself, not one of its faces
    with pytest.raises(InvalidArgumentError, match="k must be < d, got k=2, d=2"):
        t_functional_expected(2, 2, 1.0, 0.8753479805159249)
    with pytest.raises(InvalidArgumentError):
        t_functional_expected(2, 1, -1.0, 1.0)
    with pytest.raises(InvalidArgumentError):
        t_functional_expected(2, 1, True, 1.0)
    # non-finite inputs are typed errors, not nan or inf results
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidArgumentError, match="b must be a finite real number"):
            t_functional_expected(3, 1, value, 5.0)
        with pytest.raises(InvalidArgumentError, match="expected_f_value must be finite"):
            t_functional_expected(3, 1, 1.0, value)


def test_t_functional_takes_numpy_reals_and_rejects_non_numbers():
    # a NumPy real is the Python float it holds; a bool or a non-number is a typed error
    assert t_functional_expected(3, 1, np.float32(1.5), 5.0) == t_functional_expected(3, 1, 1.5, 5.0)
    assert t_functional_expected(3, 2, np.int64(2), np.float32(2.5)) == t_functional_expected(3, 2, 2.0, 2.5)
    for value in ("x", None, True, np.bool_(True)):
        with pytest.raises(InvalidArgumentError, match="expected_f_value must be finite"):
            t_functional_expected(3, 1, 1.0, value)
    for b in ("1.5", None, np.float64(-0.5), 10**400):
        with pytest.raises(InvalidArgumentError, match="b must be a finite real number"):
            t_functional_expected(3, 1, b, 5.0)


# ---------------------------------------------------------------------------
# Poissonization


def test_poisson_small_sizes_enter_the_sum():
    # at tiny t the sum is dominated by ell = 0, 1, 2
    t = 0.01
    got = poissonized_expected(t, 2, 0, model="zonotope", eps=1e-10)
    w = [math.exp(-t) * t**i / math.factorial(i) for i in range(8)]
    # no segment sums to a point
    f = [expected_f_zonotope(i, 2, 0).value if i else 1.0 for i in range(8)]
    manual = sum(wi * fi for wi, fi in zip(w, f))
    assert got.value == pytest.approx(manual, abs=1e-10)
    assert got.std_error == 0.0


@pytest.mark.parametrize("t", [0.01, 0.5, 3.0, 20.0])
def test_poisson_zonotope_vertices_in_closed_form(t):
    # a zonotope of ell >= 1 segments has 2 ell vertices in the plane and 2 on
    # the line, and that of no segment is the point {0}: the Poisson(t) sums are
    # 2t + e^-t and 2 - e^-t
    for d, want in ((2, 2 * t + math.exp(-t)), (1, 2 - math.exp(-t))):
        assert poissonized_expected(t, d, 0, model="zonotope", eps=1e-12).value == pytest.approx(want, abs=1e-10)


def test_poisson_zonotope_matches_direct_sum():
    t = 3.0
    got = poissonized_expected(t, 2, 0, model="zonotope", eps=1e-10)
    manual = sum(
        math.exp(-t + i * math.log(t) - math.lgamma(i + 1))
        * (expected_f_zonotope(i, 2, 0).value if i else 1.0)
        for i in range(80)
    )
    assert got.value == pytest.approx(manual, abs=1e-9)
    assert got.truncation_bound < 1e-10
    assert got.terms >= max(2, int(t) + 1)


def test_poisson_grid_reuses_memoized_angles(monkeypatch):
    # a second grid over sizes already seen samples no cone and gives the same sums
    calls = []
    original = polyproj.angles.cone_angle

    def counting(cone, cfg=None):
        calls.append(cone.seed_path)
        return original(cone, cfg)

    monkeypatch.setattr(polyproj.angles, "cone_angle", counting)
    cfg = MCConfig(samples=2_000, seed=0)
    clear_angle_memo()
    grid = (1.0, 2.0, 3.0)
    first = [poissonized_expected(t, 3, 0, model="symmetric", eps=1e-6, cfg=cfg) for t in grid]
    assert calls
    calls.clear()
    again = [poissonized_expected(t, 3, 0, model="symmetric", eps=1e-6, cfg=cfg) for t in grid]
    assert calls == []
    assert again == first
    clear_angle_memo()


@pytest.mark.parametrize("model,exact", [("zonotope", True), ("gaussian", False), ("symmetric", False)])
def test_poisson_exact_only_when_every_term_is(model, exact):
    # one sample per angle: a sampled term may well carry stderr 0, yet it is not exact
    clear_angle_memo()
    est = poissonized_expected(2.0, 3, 0, model=model, eps=1e-6, cfg=MCConfig(samples=1, seed=0))
    assert est.exact is exact
    clear_angle_memo()


def test_poisson_validation():
    with pytest.raises(InvalidArgumentError):
        poissonized_expected(0.0, 2, 0)
    with pytest.raises(InvalidArgumentError):
        poissonized_expected(1.0, 2, 0, model="cube")
    with pytest.raises(InvalidArgumentError):
        poissonized_expected(1.0, 2, 0, eps=0.0)
    # non-finite t or eps is a typed error, never a hang or a bare ValueError
    for t in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidArgumentError, match="t must be a positive real"):
            poissonized_expected(t, 2, 0)
    for eps in (math.nan, math.inf):
        with pytest.raises(InvalidArgumentError, match="eps must be"):
            poissonized_expected(1.0, 2, 0, eps=eps)
    # eps takes a real like t does, and a bool is not one
    for eps in (True, False):
        with pytest.raises(InvalidArgumentError, match="eps must be a positive finite real"):
            poissonized_expected(1.0, 2, 0, model="zonotope", eps=eps)


def test_poisson_takes_numpy_reals():
    # NumPy t and eps give the sums of the Python floats they hold
    assert poissonized_series(np.arange(1, 4), 2, 0) == poissonized_series([1.0, 2.0, 3.0], 2, 0)
    eps = np.float32(1e-6)
    assert poissonized_expected(2.0, 2, 0, eps=eps) == poissonized_expected(2.0, 2, 0, eps=float(eps))
    for bad in (np.float64(0.0), np.float32(np.nan), np.bool_(True)):
        with pytest.raises(InvalidArgumentError, match="eps must be a positive finite real"):
            poissonized_expected(1.0, 2, 0, eps=bad)
        with pytest.raises(InvalidArgumentError, match="t must be a positive real"):
            poissonized_series([1.0, bad], 2, 0)


@pytest.mark.parametrize("model", ["gaussian", "symmetric"])
def test_poisson_tails_read_off_the_row_match_the_closed_forms(model):
    # the hull bounds come from the vertex count of the row's P_{ell - shift},
    # the ratios as int divisions; both equal the per-model closed forms bit for bit
    row = MODEL_TABLE[model]
    for k in range(12):
        bound = lambda size: polyproj.expected._face_bound(row, size, 3, k)  # noqa: E731
        for ell in range(k + 2, 3001):
            assert float(polyproj.expected._face_bound(row, ell, 3, k)) == poisson_face_bound(model, ell, k)
            assert polyproj.expected._growth_ratio(row, ell, 3, bound) == poisson_growth_ratio(model, ell, k)


def test_poisson_truncation_valve(monkeypatch):
    # the cap is defensive: keep the tail test unreachable so the sum hits it
    monkeypatch.setattr(polyproj.expected, "_growth_ratio", lambda *a: float("inf"))
    with pytest.raises(TruncationError) as exc:
        poissonized_expected(1.0, 2, 0, model="zonotope", eps=1e-8)
    assert "410 terms" in str(exc.value)
    assert exc.value.achieved_bound == math.inf  # q >= 1/2 at the cap, where no weight bounds the tail


def test_poisson_truncation_bound_at_the_cap(monkeypatch):
    # one face bound past the float range at every size, so the growth ratio of
    # the hull row is 1.0 and q < 1/2 from 2t on, but the tail test fails up to
    # the cap: the achieved bound is the cap's tail bound, weight * bound * q / (1 - q)
    bound = 10**1400
    monkeypatch.setattr(polyproj.expected, "_face_bound", lambda *a: bound)
    t, cap = 4000.0, 10_000
    with pytest.raises(TruncationError) as exc:
        poissonized_expected(t, 2, 0, model="gaussian", eps=1e-8)
    assert f"within {cap} terms" in str(exc.value)
    q = t / (cap + 1)
    log_weight = -t + cap * math.log(t) - math.lgamma(cap + 1)
    want = log_weight + math.log(bound) + math.log(q / (1 - q))
    assert math.log(exc.value.achieved_bound) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("model", ["gaussian", "symmetric", "zonotope"])
def test_poisson_truncation_bound_far_past_the_cap(model):
    # at t = 1e6 the 10 000-term cap sits far below the Poisson mass, whose
    # weight at the cap underflows: the bound reported must not fall below eps
    with pytest.raises(TruncationError) as exc:
        poissonized_expected(1e6, 3, 0, model=model, eps=1e-8)
    assert exc.value.achieved_bound >= 1e-8


def sum_fields(est):
    return (est.value, est.std_error, est.exact, est.exact_value, est.truncation_bound, est.terms)


# an unsorted grid, so that some t first reaches no new size and a later t reaches new ones
SERIES_GRID = (2.5, 0.5, 7.0, 1.0, 7.0, 12.0, 3.0)


@pytest.mark.parametrize("model,d,cfg", [
    ("gaussian", 2, MCConfig()),  # every term exact
    ("symmetric", 3, MCConfig(samples=2000)),  # sampled internal angles
    ("zonotope", 3, MCConfig()),  # rational terms, bounds from the terms themselves
])
def test_poisson_series_matches_one_call_per_t(model, d, cfg):
    # bit for bit: the series, one poissonized_expected per t, and the per-t oracle
    exact = []
    for k in range(d):
        clear_angle_memo()
        series = [sum_fields(s) for s in poissonized_series(SERIES_GRID, d, k, model, 1e-8, cfg)]
        clear_angle_memo()
        assert series == [sum_fields(poissonized_expected(t, d, k, model, 1e-8, cfg)) for t in SERIES_GRID]
        assert series == [poisson_sum_per_t(t, d, k, model, 1e-8, cfg) for t in SERIES_GRID]
        exact += [s[2] for s in series]
    assert all(exact) is (model != "symmetric")  # symmetric k = 0 samples beta(Q_0, Q_2)
    clear_angle_memo()


@pytest.mark.parametrize("model,d", [("gaussian", 2), ("symmetric", 2), ("gaussian", 3)])
def test_poisson_series_builds_each_size_once(monkeypatch, model, d):
    # one term build per distinct size for the whole grid, where one call per t
    # builds sum(terms); the hull models' face bounds need no term
    sizes = []
    original = polyproj.expected._model_values

    def counting(row, ns, *args):
        sizes.extend(ns)
        return original(row, ns, *args)

    monkeypatch.setattr(polyproj.expected, "_model_values", counting)
    grid = [0.5 * i for i in range(1, 41)]
    terms = [s.terms for s in poissonized_series(grid, d, 0, model, cfg=FAST)]
    assert sizes == list(range(max(terms)))
    assert sum(terms) > 5 * max(terms)


@pytest.mark.parametrize("bad", [-1.0, 0.0, math.nan, math.inf, True, "3"])
def test_poisson_series_validates_every_t_before_any_work(monkeypatch, bad):
    def no_sampling(cone, cfg=None):
        raise AssertionError("an angle was sampled before the last t was checked")

    monkeypatch.setattr(polyproj.angles, "cone_angle", no_sampling)
    clear_angle_memo()
    with pytest.raises(InvalidArgumentError, match="t must be a positive real"):
        poissonized_series([1.0, 2.0, bad], 3, 0, "symmetric", cfg=FAST)
    for kwargs, message in (({"eps": 0.0}, "eps must be"), ({"model": "cube"}, "unknown model")):
        with pytest.raises(InvalidArgumentError, match=message):
            poissonized_series([1.0, 2.0], 3, 0, **{"model": "symmetric", **kwargs})
    with pytest.raises(InvalidArgumentError):
        poissonized_series([1.0], 3, -1, "symmetric")


def test_poisson_series_truncation_at_a_later_t(monkeypatch):
    # the tail test passes below size 40 only: t = 1 ends there, t = 30 runs into its cap,
    # so the series call raises t = 30's error, before any term is built
    original = polyproj.expected._growth_ratio
    monkeypatch.setattr(polyproj.expected, "_growth_ratio",
                        lambda row, ell, d, bound: original(row, ell, d, bound) if ell < 40 else math.inf)
    [one] = poissonized_series([1.0], 2, 0, "zonotope")
    assert sum_fields(one) == sum_fields(poissonized_expected(1.0, 2, 0, "zonotope"))
    with pytest.raises(TruncationError) as alone:
        poissonized_expected(30.0, 2, 0, "zonotope")
    monkeypatch.setattr(polyproj.expected, "_model_values", None)
    with pytest.raises(TruncationError) as in_series:
        poissonized_series([1.0, 30.0], 2, 0, "zonotope")
    assert "within 700 terms" in str(in_series.value)
    assert str(in_series.value) == str(alone.value)
    assert in_series.value.achieved_bound == alone.value.achieved_bound


@pytest.mark.parametrize("model,d,k", [
    ("gaussian", 2, 0), ("gaussian", 3, 1), ("symmetric", 2, 0), ("symmetric", 3, 2), ("zonotope", 3, 0),
])
@pytest.mark.parametrize("grid", [SERIES_GRID, tuple(0.5 * i for i in range(1, 41))], ids=["series", "forty"])
def test_poisson_stopping_sizes_match_the_oracle(monkeypatch, model, d, k, grid):
    # the sizes found before any term is built are the oracle's term counts, tails included
    row = MODEL_TABLE[model]
    want = [poisson_sum_per_t(t, d, k, model, 1e-8, FAST)[4:] for t in grid]
    if row.gaussian and row.family is not Family.CUBE:
        # a hull model's stopping rule reads no term
        monkeypatch.setattr(polyproj.expected, "_model_values", None)
    bound = lambda ell: polyproj.expected._face_bound(row, ell, d, k)  # noqa: E731
    ratio = lambda ell: polyproj.expected._growth_ratio(row, ell, d, bound)  # noqa: E731
    got = [polyproj.expected._poisson_stop(t, k, 1e-8, ratio, bound) for t in grid]
    assert [(tail, size) for size, tail in got] == want


@pytest.mark.parametrize("model,d,k", [
    ("gaussian", 2, 0), ("gaussian", 4, 2), ("symmetric", 2, 0), ("symmetric", 3, 1),
    ("zonotope", 2, 1), ("zonotope", 3, 0), ("zonotope", 3, 2),
])
def test_poisson_stops_match_the_linear_scan(model, d, k):
    # the scan that starts past 2t finds the size a scan of every size from
    # max(k + 2, int(t) + 1) finds, tails bit for bit; from t = 1000.5 on it
    # skips a thousand sizes or more
    row = MODEL_TABLE[model]
    bound = lambda ell: polyproj.expected._face_bound(row, ell, d, k)  # noqa: E731
    ratio = lambda ell: polyproj.expected._growth_ratio(row, ell, d, bound)  # noqa: E731
    for t in (0.01, 0.5, 1.0, 2.5, 3.0, 7.0, 12.25, 30.0, 99.5, 100.0, 137.9, 250.0, 499.9, 500.0,
              1000.5, 2500.0, 4000.0, 4900.0):
        for eps in (1e-8, 1e-14):
            assert polyproj.expected._poisson_stop(t, k, eps, ratio, bound) == poisson_stop_by_scan(t, d, k, model, eps)


@pytest.mark.parametrize("model", ["gaussian", "symmetric", "zonotope"])
def test_poisson_growth_ratios_are_at_least_one(model):
    # what lets a stop's scan start past 2t: q = t * ratio / (ell + 1) >= 1/2 while ell + 1 < 2t
    row = MODEL_TABLE[model]
    for d in range(2, 7):
        for k in range(d):
            bound = lambda ell: polyproj.expected._face_bound(row, ell, d, k)  # noqa: E731
            assert min(polyproj.expected._growth_ratio(row, ell, d, bound) for ell in range(k + 2, 2001)) >= 1.0


def test_poisson_sizes_stop_at_max_poisson_size(monkeypatch):
    # a sum needs ell up to its size - 1 under the cap; one less and it is a TruncationError
    size = poissonized_expected(10.0, 2, 0).terms
    monkeypatch.setattr(polyproj.expected, "MAX_POISSON_SIZE", size - 1)
    assert sum_fields(poissonized_expected(10.0, 2, 0)) == poisson_sum_per_t(10.0, 2, 0, "gaussian", 1e-8, None)
    monkeypatch.setattr(polyproj.expected, "MAX_POISSON_SIZE", size - 2)
    with pytest.raises(TruncationError, match=f"within {size - 2} terms"):
        poissonized_expected(10.0, 2, 0)
    monkeypatch.undo()
    # t = 1e6 starts its search past the cap, so it fails at once, with no size tested
    assert polyproj.expected.MAX_POISSON_SIZE == 10_000
    for model in ("gaussian", "symmetric", "zonotope"):
        with pytest.raises(TruncationError, match="within 10000 terms"):
            poissonized_expected(1e6, 3, 0, model)


def test_cube_terms_past_the_float_range_of_their_counts():
    # from n of about 1000 on, c(n, j - 1) overflows a float; the rows stay exact
    rows = monotonicity_table("cube", 3, 0, 1020, 1040)
    assert [r.exact_value for r in rows] == [expected_f_cube_closed_form(n, 3, 0) for n in range(1020, 1041)]
    assert all(r.strict_increase for r in rows[:-1])
    # so a zonotope's Poisson tail bounds reach past size 1000, where t = 600 stops
    clear_angle_memo()
    est = poissonized_expected(600.0, 3, 0, "zonotope")
    assert est.terms > 1200 and sum_fields(est) == poisson_sum_per_t(600.0, 3, 0, "zonotope", 1e-8, None)


@pytest.mark.parametrize("model,d,k", [
    ("gaussian", 2, 0), ("gaussian", 3, 0), ("gaussian", 4, 1), ("symmetric", 3, 1), ("symmetric", 4, 0),
])
def test_tables_and_series_take_their_angles_in_one_batch(monkeypatch, model, d, k):
    # every quadrature a table or a series needs, and no other, is fetched before
    # its loop as one batch; each memoized value is the one a fresh external_angle gives
    clear_angle_memo()
    top = max(s.terms for s in poissonized_series([4.0, 1.0, 30.0], d, k, model, cfg=FAST))
    clear_angle_memo()
    for n in range(max(61, top)):  # the sizes of the table, 1..60, and of the series, 0..top - 1
        model_value_by_terms(MODEL_TABLE[model], n, d, k, FAST)
    needed = {key for key in polyproj.angles._MEMO if key[0] == "ext"}
    batches = []
    original = polyproj.angles._external_quadratures

    def spy(family, faces):
        if faces:
            batches.append(len(faces))
        return original(family, faces)

    monkeypatch.setattr(polyproj.angles, "_external_quadratures", spy)
    clear_angle_memo()
    monotonicity_table(model, d, k, 1, 60, FAST)
    assert len(batches) == 1
    poissonized_series([4.0, 1.0, 30.0], d, k, model, cfg=FAST)
    assert len(batches) == 2  # sizes past 60 only
    memo = {key: est for key, est in polyproj.angles._MEMO.items() if key[0] == "ext"}
    assert set(memo) == needed and len(memo) == sum(batches)
    for (_, family, n, g), est in memo.items():
        clear_angle_memo()
        assert external_angle(family, n, g) == est
    clear_angle_memo()


def estimate_fields(est):
    return (est.value, est.std_error, est.exact, est.exact_value)


@pytest.mark.parametrize("target", [f.value for f in Family] + list(MODEL_TABLE))
def test_size_ranges_match_the_per_size_oracle(target):
    # bit for bit, over n = shift, n <= d, k >= min(n, d), d = 1 and the cube closed form:
    # a range of sizes in one pass, a table and a series give what the per-size oracle gives
    row = target_row(target)
    gaussian = target in polyproj.expected.GAUSSIAN_MODELS
    for d in range(1, 7):
        for k in range(d):
            want = [estimate_fields(model_value_by_terms(row, n, d, k, FAST)) for n in range(41)]
            got = polyproj.expected._model_values(row, range(41), d, k, FAST)
            assert [estimate_fields(e) for e in got] == want
            if gaussian or target in tuple(f.value for f in Family):
                assert [estimate_fields(r) for r in monotonicity_table(target, d, k, 1, 40, FAST)] == want[1:]
            if gaussian:
                series = poissonized_series(SERIES_GRID, d, k, target, 1e-8, FAST)
                assert [sum_fields(s) for s in series] == [
                    poisson_sum_per_t(t, d, k, target, 1e-8, FAST) for t in SERIES_GRID]
    clear_angle_memo()


@pytest.mark.parametrize("model,n,d,k,samples", [("gaussian", 8, 5, 0, 4000), ("symmetric", 7, 3, 0, 3000)])
def test_sampled_rows_report_their_seed_spread(model, n, d, k, samples):
    # the one sampled j-term of each row is beta(0, 2)'s (at d = 5 beside the
    # integral beta(0, 4)); its standard error, scaled by the term's count
    # and external angle, is the row's, and matches the spread over 300
    # seeds.  The two sample counts keep the two rows' draws apart
    estimates = [expected_f_model(model, n, d, k, MCConfig(samples=samples, seed=seed)) for seed in range(300)]
    clear_angle_memo()
    values = np.array([est.value for est in estimates])
    assert 0.85 <= values.std(ddof=1) / np.mean([est.std_error for est in estimates]) <= 1.15


# around the float edge of 2 (C(n, 2) + 1) at d = 3; face counts then the
# closed form at d = 1020; a count bound past the float range at its first size
_EDGE = math.isqrt(2**1024 - 2**970)


@pytest.mark.parametrize("lo,hi,d,k", [(_EDGE, _EDGE + 4, 3, 0), (1018, 1025, 1020, 0),
                                       (10**6 - 1, 10**6 + 1, 10**6 - 2, 0)], ids=["d3", "d1020", "count"])
def test_cube_ranges_past_the_float_range_raise_where_one_size_does(lo, hi, d, k):
    # a cube range takes each size's closed form in turn: its first size past
    # the float range raises the error the one-size route raises there, value
    # or count bound alike, and the sizes below it give the one-size values, bit for bit
    below = []
    for n in range(lo, hi + 1):
        try:
            below.append(estimate_fields(expected_f_model("zonotope", n, d, k)))
        except InvalidDimensionError as exc:
            message = str(exc)
            break
    else:
        pytest.fail("no size past the float range")
    assert len(below) == {3: 2, 1020: 6}.get(d, 0)
    row = target_row("cube")
    assert [estimate_fields(e) for e in polyproj.expected._model_values(row, range(lo, n), d, k, None)] == below
    for target in ("zonotope", "cube"):
        with pytest.raises(InvalidDimensionError) as exc:
            polyproj.expected._model_values(target_row(target), range(lo, hi + 1), d, k, None)
        assert str(exc.value) == message
    with pytest.raises(InvalidDimensionError) as exc:
        monotonicity_table("cube", d, k, lo, hi)
    assert str(exc.value) == message


@pytest.mark.parametrize("model,d,k", [("gaussian", 2, 0), ("symmetric", 4, 1), ("gaussian", 5, 0), ("zonotope", 3, 0)])
def test_tables_and_series_request_each_angle_once(monkeypatch, model, d, k):
    # one external_angles call for the range, and one internal_angle call per (k, g)
    calls = []
    external, internal = polyproj.expected.external_angles, polyproj.expected.internal_angle
    monkeypatch.setattr(polyproj.expected, "external_angles",
                        lambda family, faces: calls.append("external_angles") or external(family, faces))
    monkeypatch.setattr(polyproj.expected, "internal_angle",
                        lambda family, n, k, g, cfg: calls.append((k, g)) or internal(family, n, k, g, cfg))
    row = MODEL_TABLE[model]
    clear_angle_memo()
    monotonicity_table(model, d, k, 1, 40, FAST)
    table_calls = list(calls)
    calls.clear()
    poissonized_series(SERIES_GRID, d, k, model, cfg=FAST)
    for made in (table_calls, calls):
        if row.family is Family.CUBE:
            assert made == []  # a cube row takes its closed form
        else:
            assert made == ["external_angles"] + [(k, j - 1) for j in range(d, 0, -2)]
    clear_angle_memo()


# ---------------------------------------------------------------------------
# monotonicity tables


def test_monotonicity_cube_exact_strict():
    rows = monotonicity_table("cube", 3, 0, 3, 8)
    assert [r.n for r in rows] == list(range(3, 9))
    assert all(r.exact for r in rows)
    assert all(r.strict_increase for r in rows[:-1])
    assert rows[-1].strict_increase is None
    assert rows[0].value == 8.0 and rows[1].value == 14.0


def test_monotonicity_flat_at_top_dimension():
    # k = min(n, d) rows are identically 1, so no step is strict
    rows = monotonicity_table("simplex", 2, 2, 2, 5)
    assert all(r.value == 1.0 and r.exact for r in rows)
    assert all(r.strict_increase is False for r in rows[:-1])


def test_monotonicity_includes_injective_regime():
    # below n = d the projection is injective and the counts are exact
    rows = monotonicity_table("zonotope", 3, 0, 1, 5)
    assert [r.value for r in rows] == [2.0, 4.0, 8.0, 14.0, 22.0]
    assert all(r.strict_increase for r in rows[:-1])


def test_monotonicity_mc_verdicts():
    cfg = MCConfig(samples=100_000, seed=0)
    rows = monotonicity_table("gaussian", 3, 0, 5, 7, cfg)
    assert all(not r.exact for r in rows)
    assert all(r.std_error > 0 for r in rows)
    # expected vertex counts of Gaussian polytopes in R^3 grow by clear margins
    assert all(r.strict_increase for r in rows[:-1])


def test_monotonicity_planar_rows_are_exact_and_strict():
    rows = monotonicity_table("symmetric", 2, 0, 1, 40)
    assert all(r.exact and r.std_error == 0.0 for r in rows)
    assert [r.exact_value for r in rows[:2]] == [2, 4]  # a segment, then a square
    assert all(r.exact_value is None for r in rows[2:])
    assert all(r.strict_increase for r in rows[:-1])


@pytest.mark.parametrize("gap,strict", [(2.5e-12, True), (1.5e-12, False), (-1e-9, False)])
def test_monotonicity_quadrature_tolerance_boundary(monkeypatch, gap, strict):
    # exact neighbours without a rational value must be QUADRATURE_RTOL * (|a| + |b|) apart
    values = {3: Estimate(1.0, 0.0, True), 4: Estimate(1.0 + gap, 0.0, True)}
    monkeypatch.setattr(polyproj.expected, "_model_values", lambda row, sizes, d, k, cfg: [values[n] for n in sizes])
    rows = monotonicity_table("gaussian", 2, 0, 3, 4)
    assert QUADRATURE_RTOL == 1e-12
    assert [r.strict_increase for r in rows] == [strict, None]


@pytest.mark.parametrize("gap,strict", [(0.061, True), (0.059, False)])
def test_monotonicity_strict_sigmas_boundary(monkeypatch, gap, strict):
    # Monte Carlo neighbours must be STRICT_SIGMAS times their summed standard errors apart, here 0.06
    values = {3: Estimate(1.0, 0.01), 4: Estimate(1.0 + gap, 0.01)}
    monkeypatch.setattr(polyproj.expected, "_model_values", lambda row, sizes, d, k, cfg: [values[n] for n in sizes])
    rows = monotonicity_table("gaussian", 2, 0, 3, 4)
    assert polyproj.expected.STRICT_SIGMAS == 3.0
    assert [r.strict_increase for r in rows] == [strict, None]


def test_monotonicity_validation():
    with pytest.raises(InvalidArgumentError):
        monotonicity_table("dodecahedron", 2, 0, 2, 4)
    with pytest.raises(InvalidArgumentError):
        monotonicity_table("cube", 2, 0, 4, 2)


def test_monotonicity_table_row_cap(monkeypatch):
    # MAX_TABLE_ROWS rows reach the row builder; one more is an InvalidArgumentError before it runs
    class Reached(Exception):
        pass

    def reached(*args):
        raise Reached

    cap = polyproj.expected.MAX_TABLE_ROWS
    assert cap == 100_000
    monkeypatch.setattr(polyproj.expected, "_model_values", reached)
    with pytest.raises(Reached):
        monotonicity_table("crosspolytope", 2, 0, 2, 2 + cap - 1)
    with pytest.raises(InvalidArgumentError, match=f"gives more than {cap} table rows"):
        monotonicity_table("crosspolytope", 2, 0, 2, 2 + cap)
    with pytest.raises(InvalidArgumentError, match=f"gives more than {cap} table rows"):
        monotonicity_table("crosspolytope", 2, 0, 2, 10**9)
