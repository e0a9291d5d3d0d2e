import math
from fractions import Fraction

import numpy as np
import pytest

from polyproj import (
    AngleEstimate,
    CacheFormatError,
    Cone,
    Family,
    InvalidArgumentError,
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
    internal_angle,
    internal_cone,
    normal_cone,
    orthonormal_basis,
    vertices,
)
from polyproj.angles import DEFAULT_CHUNK, HALFSPACE_TOL
from polyproj.streams import ANGLE_SAMPLES, chunk_counts, derive_generator

from oracles import (
    TETRA_EDGE_ANGLE,
    TRIANGLE_VERTEX_ANGLE,
    cross_external_quadrature,
    full_pass_orthonormal_basis,
    mgs_orthonormal_basis,
    nnls_member_count,
    simplex_external_quadrature,
)

FAST = MCConfig(samples=20_000, seed=0)


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


def test_angle_estimate_validation():
    with pytest.raises(NumericError):
        AngleEstimate(1.5, 0.0, "exact", 0)
    with pytest.raises(NumericError):
        AngleEstimate(0.5, 0.1, "exact", 0)


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


@pytest.mark.parametrize("n,g", [(4, 0), (5, 1)])
def test_simplex_external_matches_quadrature(n, g):
    cfg = MCConfig(samples=200_000, seed=0)
    est = external_angle(Family.SIMPLEX, n, g, cfg)
    assert abs(est.value - simplex_external_quadrature(n, g)) < 4 * est.std_error


@pytest.mark.parametrize("n,g", [(3, 0), (4, 1)])
def test_cross_external_matches_quadrature(n, g):
    cfg = MCConfig(samples=200_000, seed=0)
    est = external_angle(Family.CROSSPOLYTOPE, n, g, cfg)
    assert abs(est.value - cross_external_quadrature(n, g)) < 4 * est.std_error


def test_internal_angle_triangle_vertex():
    est = internal_angle(Family.SIMPLEX, 3, 0, 2, FAST)
    assert abs(est.value - TRIANGLE_VERTEX_ANGLE) < 4 * est.std_error


def test_internal_angle_tetra_edge():
    est = internal_angle(Family.SIMPLEX, 4, 1, 3, FAST)
    assert abs(est.value - TETRA_EDGE_ANGLE) < 4 * est.std_error


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


MEMBERSHIP_CONES = [
    # every canonical pair the sampler sees up to g = 7, minimal embedding
    *[(Family.SIMPLEX, g, k, g) for g in range(2, 8) for k in range(g - 1)],
    (Family.SIMPLEX, 7, 0, 2),  # non-minimal embedding
    (Family.SIMPLEX, 6, 1, 4),
    (Family.CROSSPOLYTOPE, 6, 0, 3),
    (Family.CUBE, 3, 0, 2),
    (Family.CUBE, 5, 1, 4),
]


@pytest.mark.parametrize("family,n,k,g", MEMBERSHIP_CONES)
def test_nnls_membership_matches_hrep_oracle(family, n, k, g):
    # replay the sampler's own draws through NNLS on the cone's generators
    cone = internal_cone(family, n, k, g)
    cfg = MCConfig(samples=4000, seed=12345, chunk_size=1500)
    est = cone_angle(cone, cfg)
    hits = 0
    for idx, count in enumerate(chunk_counts(cfg.samples, cfg.chunk_size)):
        rng = derive_generator(cfg.seed, ANGLE_SAMPLES, *cone.seed_path, idx)
        u = rng.standard_normal((count, cone.dim)) @ cone.frame
        hits += nnls_member_count(cone.data.generators, u)
    assert round(est.value * cfg.samples) == hits


@pytest.mark.parametrize("build", [
    lambda: normal_cone(Family.SIMPLEX, 10, 1),
    lambda: normal_cone(Family.CROSSPOLYTOPE, 40, 1),
    lambda: normal_cone(Family.CUBE, 4, 1),
    lambda: internal_cone(Family.SIMPLEX, 5, 0, 3),
    lambda: internal_cone(Family.CROSSPOLYTOPE, 6, 1, 4),
    lambda: internal_cone(Family.CUBE, 4, 0, 3),
])
def test_cone_angle_counts_contains_on_its_draws(build):
    # the sampler scores in frame coordinates; contains() takes ambient points
    cone = build()
    cfg = MCConfig(samples=5000, seed=7, chunk_size=2000)
    est = cone_angle(cone, cfg)
    hits = 0
    for idx, count in enumerate(chunk_counts(cfg.samples, cfg.chunk_size)):
        rng = derive_generator(cfg.seed, ANGLE_SAMPLES, *cone.seed_path, idx)
        z = rng.standard_normal((count, cone.dim))
        hits += int(np.count_nonzero(cone.contains(z @ cone.frame)))
    assert round(est.value * cfg.samples) == hits


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
    a = external_angle(Family.SIMPLEX, 4, 0, cfg)
    b = external_angle(Family.SIMPLEX, 4, 0, cfg)
    assert a is b or a == b


def test_memo_key_includes_chunk_size():
    # a different chunk grid draws different samples, so it is a different estimate
    chunked = MCConfig(samples=20_000, seed=3, chunk_size=1000)
    clear_angle_memo()
    fresh = external_angle(Family.SIMPLEX, 5, 1, chunked)
    clear_angle_memo()
    default = external_angle(Family.SIMPLEX, 5, 1, MCConfig(samples=20_000, seed=3))
    after = external_angle(Family.SIMPLEX, 5, 1, chunked)
    assert after == fresh
    assert after.value != default.value
    clear_angle_memo()


def test_cache_file_roundtrip(tmp_path):
    clear_angle_memo()
    path = str(tmp_path / "angles.cache")
    cfg = MCConfig(samples=5_000, seed=9, cache_path=path)
    est = external_angle(Family.SIMPLEX, 4, 0, cfg)
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert len(lines) == 1
    fields = lines[0].split()
    assert fields[:7] == ["simplex", "4", "-1", "0", "ext", "5000", "9"]
    assert fields[9:] == [str(DEFAULT_CHUNK)]
    clear_angle_memo()
    again = external_angle(Family.SIMPLEX, 4, 0, cfg)
    assert again.value == est.value
    clear_angle_memo()


def test_cache_file_is_trusted(tmp_path):
    # a preloaded row short-circuits sampling entirely
    clear_angle_memo()
    path = tmp_path / "angles.cache"
    path.write_text("simplex 4 -1 0 ext 777 3 0.123 0.001\n", encoding="utf-8")
    cfg = MCConfig(samples=777, seed=3, cache_path=str(path))
    est = external_angle(Family.SIMPLEX, 4, 0, cfg)
    assert est.value == 0.123
    clear_angle_memo()


def test_cache_file_chunk_size_field(tmp_path):
    # a nine-field row was written on the default grid; a ten-field row names its grid
    clear_angle_memo()
    path = tmp_path / "angles.cache"
    path.write_text("# comment\n\nsimplex 4 -1 0 ext 777 3 0.123 0.001\n"
                    "simplex 5 -1 0 ext 777 3 0.25 0.001 100\n", encoding="utf-8")
    default = MCConfig(samples=777, seed=3, cache_path=str(path))
    small = MCConfig(samples=777, seed=3, chunk_size=100, cache_path=str(path))
    assert external_angle(Family.SIMPLEX, 4, 0, default).value == 0.123
    assert external_angle(Family.SIMPLEX, 4, 0, small).value != 0.123
    assert external_angle(Family.SIMPLEX, 5, 0, small).value == 0.25
    assert external_angle(Family.SIMPLEX, 5, 0, default).value != 0.25
    clear_angle_memo()


@pytest.mark.parametrize("row", [
    "simplex 4 -1 0 ext 100 0 0.5\n",  # a field short
    "simplex 4 -1 0 ext 100 0 0.5 0.01 32768 extra\n",
])
def test_cache_file_wrong_field_count(tmp_path, row):
    clear_angle_memo()
    path = tmp_path / "angles.cache"
    path.write_text("simplex 5 -1 0 ext 100 0 0.25 0.001\n" + row, encoding="utf-8")
    with pytest.raises(CacheFormatError) as exc:
        external_angle(Family.SIMPLEX, 4, 0, MCConfig(samples=100, seed=0, cache_path=str(path)))
    assert exc.value.lineno == 2
    assert str(path) in str(exc.value)
    assert path.read_text(encoding="utf-8").count("\n") == 2  # nothing appended
    clear_angle_memo()


def test_cache_file_malformed_row(tmp_path):
    clear_angle_memo()
    path = tmp_path / "angles.cache"
    good = "simplex 5 -1 0 ext 777 3 0.25 0.001\n"
    path.write_text(good + "simplex 4 -1 0 ext 777 3 notanumber 0.1\n", encoding="utf-8")
    cfg = MCConfig(samples=777, seed=3, cache_path=str(path))
    for _ in range(2):  # a failed load leaves the file unloaded, so it fails again
        with pytest.raises(CacheFormatError) as exc:
            external_angle(Family.SIMPLEX, 5, 0, cfg)
        assert exc.value.lineno == 2
        assert str(path) in str(exc.value)
    # no row of the rejected file reached the memo (777 samples never give 0.25)
    assert external_angle(Family.SIMPLEX, 5, 0, MCConfig(samples=777, seed=3)).value != 0.25
    clear_angle_memo()
    path.write_text(good, encoding="utf-8")
    assert external_angle(Family.SIMPLEX, 5, 0, cfg).value == 0.25
    clear_angle_memo()


def test_mcconfig_validation():
    with pytest.raises(InvalidArgumentError):
        MCConfig(samples=0)
    with pytest.raises(InvalidArgumentError):
        MCConfig(seed=-1)
    with pytest.raises(InvalidArgumentError):
        MCConfig(workers=0)
    with pytest.raises(InvalidArgumentError):
        MCConfig(chunk_size=0)


def test_stream_helpers():
    assert chunk_counts(70_000, 1 << 15) == [32768, 32768, 4464]
    assert sum(chunk_counts(123, 7)) == 123
    with pytest.raises(ValueError):
        derive_generator(3, -1)
    a = derive_generator(3, 1, 2).standard_normal(4)
    b = derive_generator(3, 1, 2).standard_normal(4)
    assert np.array_equal(a, b)
