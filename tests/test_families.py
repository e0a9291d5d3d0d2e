import enum
import math

import numpy as np
import pytest

from polyproj import (
    MODEL_TABLE,
    CanonicalFace,
    Family,
    InvalidArgumentError,
    InvalidDimensionError,
    InvalidFaceError,
    Model,
    ambient_dim,
    barycenter,
    canonical_face,
    expected_f_projection,
    external_angle,
    face_count,
    hull_f_vector,
    internal_angle,
    internal_cone,
    intrinsic_volume,
    normal_cone,
    vertices,
)
from polyproj.families import canonical_face_volume, check_int, check_real, resolve_family, target_row

from oracles import cayley_menger_volume, full_dimensional

# f_0 .. f_{n-1}, f_n = 1 checked separately
FROZEN_F_VECTORS = {
    (Family.SIMPLEX, 1): (2,),
    (Family.SIMPLEX, 2): (3, 3),
    (Family.SIMPLEX, 3): (4, 6, 4),
    (Family.SIMPLEX, 4): (5, 10, 10, 5),
    (Family.CROSSPOLYTOPE, 1): (2,),
    (Family.CROSSPOLYTOPE, 2): (4, 4),
    (Family.CROSSPOLYTOPE, 3): (6, 12, 8),
    (Family.CROSSPOLYTOPE, 4): (8, 24, 32, 16),
    (Family.CUBE, 1): (2,),
    (Family.CUBE, 2): (4, 4),
    (Family.CUBE, 3): (8, 12, 6),
    (Family.CUBE, 4): (16, 32, 24, 8),
}


@pytest.mark.parametrize("family,n", sorted(FROZEN_F_VECTORS, key=str))
def test_face_count_frozen_tables(family, n):
    expected = FROZEN_F_VECTORS[(family, n)]
    got = tuple(face_count(family, n, ell) for ell in range(n))
    assert got == expected
    assert face_count(family, n, n) == 1
    assert face_count(family, n, n + 1) == 0


@pytest.mark.parametrize("family,n", [
    (Family.SIMPLEX, 3),
    (Family.SIMPLEX, 4),
    (Family.CROSSPOLYTOPE, 3),
    (Family.CROSSPOLYTOPE, 4),
    (Family.CUBE, 3),
    (Family.CUBE, 4),
])
def test_face_count_matches_hull_route(family, n):
    pts = vertices(family, n).astype(float)
    if family is Family.SIMPLEX:
        pts = full_dimensional(pts)  # the standard embedding is flat in R^{n+1}
    fv = hull_f_vector(pts)
    assert not fv.degenerate
    assert fv.counts == FROZEN_F_VECTORS[(family, n)]


@pytest.mark.parametrize("m,ell", [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2), (5, 3)])
def test_cross_proper_faces_count_like_simplices(m, ell):
    # a proper m-face of a crosspolytope is an m-simplex, not a smaller crosspolytope
    assert face_count(Family.CROSSPOLYTOPE, m, ell, on_polytope=False) == math.comb(
        m + 1, ell + 1
    )
    assert face_count(Family.SIMPLEX, m, ell) == math.comb(m + 1, ell + 1)


def test_cross_flag_changes_only_cross():
    for family in (Family.SIMPLEX, Family.CUBE):
        for m in range(1, 5):
            for ell in range(m):
                assert face_count(family, m, ell, on_polytope=True) == face_count(
                    family, m, ell, on_polytope=False
                )
    assert face_count(Family.CROSSPOLYTOPE, 3, 0, on_polytope=True) == 6
    assert face_count(Family.CROSSPOLYTOPE, 3, 0, on_polytope=False) == 4


@pytest.mark.parametrize("family,n,count,dim", [
    (Family.SIMPLEX, 4, 5, 5),
    (Family.CROSSPOLYTOPE, 4, 8, 4),
    (Family.CUBE, 4, 16, 4),
])
def test_vertices_shape_and_dtype(family, n, count, dim):
    v = vertices(family, n)
    assert v.shape == (count, dim)
    assert v.dtype == np.int64
    assert ambient_dim(family, n) == dim
    # no repeated vertices
    assert len({tuple(row) for row in v}) == count


def test_cube_vertices_are_binary():
    v = vertices(Family.CUBE, 5)
    assert set(np.unique(v)) == {0, 1}
    assert v.shape == (32, 5)


@pytest.mark.parametrize("family", list(Family))
def test_canonical_face_ranges(family):
    n = 4
    hi = n - 1 if family is Family.CROSSPOLYTOPE else n
    for i in range(hi + 1):
        face = canonical_face(family, n, i)
        assert isinstance(face, CanonicalFace)
        assert face.dim == i
        expected_rows = 2**i if family is Family.CUBE else i + 1
        assert face.vertices.shape[0] == expected_rows
    with pytest.raises(InvalidFaceError):
        canonical_face(family, n, hi + 1)
    with pytest.raises(InvalidFaceError):
        canonical_face(family, n, -1)


def test_canonical_face_vertices_are_frozen():
    face = canonical_face(Family.SIMPLEX, 3, 2)
    with pytest.raises(ValueError):
        face.vertices[0, 0] = 5


def test_canonical_face_geometry():
    face = canonical_face(Family.CROSSPOLYTOPE, 4, 2)
    assert np.array_equal(face.vertices, np.eye(4, dtype=np.int64)[:3])
    sub = canonical_face(Family.CUBE, 3, 2)
    assert sub.vertices.shape == (4, 3)
    assert np.array_equal(sub.vertices[:, 2], np.zeros(4, dtype=np.int64))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_face_volume_matches_cayley_menger(k):
    face = canonical_face(Family.SIMPLEX, 5, k)
    vol = cayley_menger_volume(face.vertices.astype(float))
    assert canonical_face_volume(face.family, face.dim) == pytest.approx(vol, rel=1e-12)
    assert canonical_face_volume(face.family, face.dim) == pytest.approx(math.sqrt(k + 1) / math.factorial(k))


def test_face_volume_conventions():
    assert canonical_face_volume(Family.SIMPLEX, 0) == 1.0
    assert canonical_face_volume(Family.CUBE, 0) == 1.0
    assert canonical_face_volume(Family.CUBE, 3) == 1.0
    assert canonical_face_volume(Family.CROSSPOLYTOPE, 2) == canonical_face_volume(Family.SIMPLEX, 2)


@pytest.mark.parametrize("family,k", [("simplex", -1), ("simplex", 2.5), ("cube", -3), ("simplex", True),
                                      ("crosspolytope", "2")])
def test_face_volume_rejects_a_bad_k(family, k):
    # k must be an int >= 0, for the cube too, and a bool is not one
    with pytest.raises(InvalidArgumentError, match="k must be"):
        canonical_face_volume(family, k)


def test_barycenter():
    face = canonical_face(Family.SIMPLEX, 3, 2)
    assert np.allclose(barycenter(face), [1 / 3, 1 / 3, 1 / 3, 0])
    cube_face = canonical_face(Family.CUBE, 3, 3)
    assert np.allclose(barycenter(cube_face), [0.5, 0.5, 0.5])


def test_dimension_validation():
    with pytest.raises(InvalidDimensionError):
        vertices(Family.SIMPLEX, 0)
    with pytest.raises(InvalidDimensionError):
        vertices(Family.CUBE, 16)
    with pytest.raises(InvalidArgumentError):
        vertices(Family.CUBE, 2.5)
    with pytest.raises(InvalidArgumentError):
        vertices(Family.CUBE, True)
    with pytest.raises(InvalidArgumentError):
        face_count(Family.SIMPLEX, 3, -1)
    with pytest.raises(InvalidArgumentError):
        face_count(Family.SIMPLEX, -1, 0)
    with pytest.raises(InvalidArgumentError):
        canonical_face(Family.SIMPLEX, 3, 1.5)


def test_check_real():
    # Python and NumPy reals come back as Python floats; bools and non-numbers are typed errors
    for v in (2, 2.5, np.int64(2), np.uint8(2), np.float32(2.5), np.float64(2.5)):
        x = check_real("v", v)
        assert type(x) is float and x == v
    for v in (True, np.bool_(True), "2", None, 1j, math.nan, -math.inf, np.float32(np.inf), 10**400):
        with pytest.raises(InvalidArgumentError, match="v must be a finite real number, got "):
            check_real("v", v)
    assert check_real("v", 0, 0) == 0.0
    for v, lo, strict in ((0, 0, True), (-1e-300, 0, False), (np.float32(0.5), 1, False)):
        with pytest.raises(InvalidArgumentError, match="v must be a positive real, got "):
            check_real("v", v, lo, strict, what="a positive real")


class _Small(enum.IntEnum):
    THREE = 3


@pytest.mark.parametrize("lo", [None, 0, 3])
def test_check_int_boundaries(lo):
    # plain ints take the fast path and everything else the converting one; both test lo alike
    for v in (3, np.int8(3), np.uint64(3), np.int64(3), _Small.THREE, 10**30):
        x = check_int("v", v, lo)
        assert type(x) is int and x == v
    assert check_int("v", 7, 7) == check_int("v", np.int64(7), 7) == 7
    for v in (6, np.int8(6), np.uint64(6)):
        with pytest.raises(InvalidArgumentError, match="v must be >= 7, got 6"):
            check_int("v", v, 7)
    for v in (True, False, np.bool_(True), 3.0, np.float64(3.0), "3", None):
        with pytest.raises(InvalidArgumentError, match="v must be an integer, got "):
            check_int("v", v, lo)


def test_resolve_family_boundaries():
    # a member comes back as itself; a name or a str-enum equal to one resolves; the rest is a typed error
    for f in Family:
        assert resolve_family(f) is f
        assert resolve_family(f.value) is f
        assert resolve_family(str(f.value)) is f
    for bad in ("hexagon", "SIMPLEX", "", None, 3, 3.0, True):
        with pytest.raises(InvalidArgumentError, match="unknown family"):
            resolve_family(bad)


def test_target_rows():
    # a family on its own is P_n itself; a model name is its table row
    for f in Family:
        assert target_row(f) == target_row(f.value) == Model(f, 0, False)
    for name, row in MODEL_TABLE.items():
        assert target_row(name) is row
    with pytest.raises(InvalidArgumentError, match="unknown model 'dodecahedron'"):
        target_row("dodecahedron")


_FAMILY_ENTRY_POINTS = {
    "expected_f_projection": lambda f: expected_f_projection(f, 3, 2, 1),
    "intrinsic_volume": lambda f: intrinsic_volume(f, 3, 1),
    "external_angle": lambda f: external_angle(f, 3, 1),
    "internal_angle": lambda f: internal_angle(f, 3, 0, 2),
    "face_count": lambda f: face_count(f, 3, 1),
    "vertices": lambda f: vertices(f, 2),
    "canonical_face": lambda f: canonical_face(f, 3, 1),
    "ambient_dim": lambda f: ambient_dim(f, 3),
    "internal_cone": lambda f: internal_cone(f, 4, 1, 3),
    "normal_cone": lambda f: normal_cone(f, 5, 1),
    "canonical_face_volume": lambda f: canonical_face_volume(f, 2),
}


@pytest.mark.parametrize("entry", sorted(_FAMILY_ENTRY_POINTS))
def test_unknown_family_is_a_typed_error(entry):
    # a model name is not a family; neither is a number
    for bad in ("hexagon", "gaussian", 3):
        with pytest.raises(InvalidArgumentError, match="unknown family"):
            _FAMILY_ENTRY_POINTS[entry](bad)


@pytest.mark.parametrize("entry", ["face_count", "vertices", "ambient_dim", "canonical_face",
                                   "internal_cone", "normal_cone", "canonical_face_volume"])
def test_family_names_resolve_to_members(entry):
    # a name gives what its member gives; the cube's counts are never returned for a simplex name
    for f in Family:
        by_name, by_member = _FAMILY_ENTRY_POINTS[entry](f.value), _FAMILY_ENTRY_POINTS[entry](f)
        if entry == "vertices":
            assert np.array_equal(by_name, by_member)
        elif entry == "canonical_face":
            assert by_name.family is by_member.family and np.array_equal(by_name.vertices, by_member.vertices)
        elif entry in ("internal_cone", "normal_cone"):
            assert np.array_equal(by_name.frame, by_member.frame) and by_name.seed_path == by_member.seed_path
        else:
            assert by_name == by_member
    assert resolve_family("simplex") is Family.SIMPLEX
