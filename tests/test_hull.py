import csv
import io
import math
import os
from itertools import combinations, product

import numpy as np
import pytest
from numpy.random import Generator, Philox, SeedSequence
from scipy.spatial import ConvexHull

from polyproj import (
    MODEL_TABLE,
    DegenerateGeometryError,
    Family,
    InvalidArgumentError,
    InvalidDimensionError,
    SimConfig,
    SimulationAbortError,
    expected_f_cube_closed_form,
    expected_f_zonotope,
    hull_f_vector,
    random_orthonormal_frame,
    simulate_expected_f,
    symmetrize,
    vertices,
    zonotope_f_vector,
)
from polyproj.hull import (
    _BLOCK,
    _ENUM_MARGIN,
    _FACET_TOL,
    _GENERAL_POSITION_TOL,
    _MAX_HULL_DIM,
    _covector_tables,
    _enumerated_facets,
    _enumerates,
    _chunk_size,
    _MAX_ATTEMPTS,
    _MAX_GENERATORS,
    _MAX_POINTS,
    _incidence,
    _insertions,
    _laplace_level,
    _lifted_minors,
    _lifted_side_table,
    _minors,
    _qhull_f_vector,
    _replication_block,
    MODELS,
    _sample_maps,
    _side_table,
    _simplicial_f_vectors,
    _subsets,
    _usable_cpus,
    _Workspace,
    _zonotope_f_vectors,
)
from polyproj.streams import MODEL_CODES, SIM_REPLICATION, derive_generator, derive_keys

from oracles import (
    covector_sign_by_loops,
    distinct_subset_f_vectors,
    full_dimensional,
    lifted_side_table_by_loops,
    lp_zonotope_f_vector,
    minor_levels_by_loops,
    model_cloud,
    per_replication_rows,
    rounded_facet_f_vector,
    side_table_by_permutations,
    simplex_facets_by_side_sums,
    svd_zonotope_f_vector,
    zonotope_vertex_cloud,
)


# ---------------------------------------------------------------------------
# hull face lattices


def test_hull_square_pyramid():
    # one merged square facet among triangles
    pts = np.array([[1, 1, 0], [1, -1, 0], [-1, 1, 0], [-1, -1, 0], [0, 0, 1.0]])
    assert hull_f_vector(pts).counts == (5, 8, 5)


def test_hull_facet_straddling_a_rounding_boundary_is_one_facet():
    # the base rows differ by about 5e-13; rounded to 9 places one of their
    # components is 0.0 and the other -0.0, whose bytes differ
    c = 0.3
    pts = np.array([[1, 1, -c], [1, -1, -c], [-1, 1, -c], [-1, -1, -c + 1e-12], [0, 0, 1]])
    assert hull_f_vector(pts).counts == (5, 8, 5)


@pytest.mark.parametrize("factor,expected", [(0.5, (5, 8, 5)), (2.0, (5, 9, 6))])
def test_facet_tolerance_boundary(factor, expected):
    # the bottom triangles (a, b, p) and (a, b, q) share the ridge ab; lifting
    # q by t tilts the second one so that their [normal, offset] rows differ
    # by t / sqrt(1 + t^2) in the y entry and by less elsewhere
    t = factor * _FACET_TOL
    pts = np.array([[-1, 0, 0], [1, 0, 0], [0, -1, 0], [0, 1, t], [0, 0, 1.0]])
    assert hull_f_vector(pts).counts == expected


def test_hull_merged_polygon_has_as_many_vertices_as_edges():
    # (0, -1e-10) lies within _FACET_TOL of the edge from (-1, 0) to (1, 0),
    # so qhull's two edges through it merge into one and it is no vertex
    pts = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, -1e-10]])
    assert hull_f_vector(pts).counts == (3, 3)


def test_hull_regular_polygon():
    ang = 2 * np.pi * np.arange(7) / 7
    pts = np.column_stack([np.cos(ang), np.sin(ang)])
    assert hull_f_vector(pts).counts == (7, 7)


def test_hull_interior_points_are_ignored():
    pts = np.vstack([vertices(Family.CUBE, 3).astype(float), [[0.5, 0.5, 0.5]]])
    assert hull_f_vector(pts).counts == (8, 12, 6)


@pytest.mark.parametrize("family,n,expected", [
    (Family.CUBE, 3, (8, 12, 6)),
    (Family.CROSSPOLYTOPE, 3, (6, 12, 8)),
    (Family.CUBE, 4, (16, 32, 24, 8)),
    (Family.CROSSPOLYTOPE, 4, (8, 24, 32, 16)),
])
def test_hull_regular_solids(family, n, expected):
    fv = hull_f_vector(vertices(family, n).astype(float))
    assert fv.counts == expected


def test_hull_simplex_after_rectification():
    pts = full_dimensional(vertices(Family.SIMPLEX, 4).astype(float))
    assert hull_f_vector(pts).counts == (5, 10, 10, 5)


@pytest.mark.parametrize("rep", range(8))
def test_hull_euler_relation_3d(rep):
    rng = derive_generator(17, 3, rep)
    fv = hull_f_vector(rng.standard_normal((30, 3)))
    f0, f1, f2 = fv.counts
    assert f0 - f1 + f2 == 2
    assert 2 * f1 == 3 * f2  # Gaussian hulls are simplicial a.s.


@pytest.mark.parametrize("rep", range(4))
def test_hull_euler_relation_4d(rep):
    rng = derive_generator(18, 4, rep)
    fv = hull_f_vector(rng.standard_normal((20, 4)))
    f0, f1, f2, f3 = fv.counts
    assert f0 - f1 + f2 - f3 == 0
    assert f2 == 2 * f3  # every ridge of a simplicial 4-polytope joins two facets


def test_hull_flat_merged_facet_is_counted():
    # a projected 8-cube whose flat facet has third singular value 2.3e-16,
    # above the default matrix_rank cutoff of about 1.8e-16
    cloud = model_cloud("projected_cube", 8, 3, derive_generator(11, 2, 6, 8, 3, 104, 0))
    f0, f1, f2 = hull_f_vector(cloud).counts
    assert (f0, f1, f2) == (58, 112, 56)
    assert f0 - f1 + f2 == 2


_ORACLE_MODELS = {"gaussian": 5, "symmetric": 2, "projected_simplex": 4, "projected_crosspolytope": 2}


@pytest.mark.parametrize("d", range(2, 7))
@pytest.mark.parametrize("model", sorted(_ORACLE_MODELS))
def test_hull_matches_rounded_facet_oracle(model, d):
    # the per-simplex rounding grouping the library used before it read
    # qhull's neighbour graph, on 50 replication streams of each model
    n = d + _ORACLE_MODELS[model]
    for index in range(50):
        rng = derive_generator(13, SIM_REPLICATION, MODEL_CODES[model], n, d, index, 0)
        cloud = model_cloud(model, n, d, rng)
        assert hull_f_vector(cloud).counts == rounded_facet_f_vector(cloud)


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("family", [Family.SIMPLEX, Family.CROSSPOLYTOPE, Family.CUBE])
def test_hull_regular_solids_match_rounded_facet_oracle(family, n):
    pts = vertices(family, n).astype(float)
    if family is Family.SIMPLEX:
        pts = full_dimensional(pts)
    assert hull_f_vector(pts).counts == rounded_facet_f_vector(pts)


# ---------------------------------------------------------------------------
# simplicial f-vectors read off the h-vector


def _largest_enumerated_n(model: str, d: int) -> int:
    row = MODEL_TABLE[model]
    n = d + row.shift
    while _enumerates(row, n + 1, d):
        n += 1
    return n


def _assert_minors_route_rows(maps, symmetric):
    # rows counted where the facets are found, against every f_k counted from
    # subsets: of the side-sum oracle's facets for the rows' hull, of qhull's
    # hull of each cloud and its negatives for the symmetric one
    near, rows = _enumerated_facets(maps, symmetric, _Workspace())
    assert rows.dtype == np.int64 and rows.shape == (np.count_nonzero(~near), maps.shape[2])
    if symmetric:
        assert rows.tolist() == [list(hull_f_vector(symmetrize(cloud)).counts) for cloud in maps[~near]]
    else:
        near_ref, facets, counts = simplex_facets_by_side_sums(maps)
        assert np.array_equal(near, near_ref)
        assert np.array_equal(rows, distinct_subset_f_vectors(facets, counts))
    return near


@pytest.mark.parametrize("d", range(2, _MAX_HULL_DIM + 1))
@pytest.mark.parametrize("model", sorted(_ORACLE_MODELS))
def test_simplicial_f_vectors_of_minors_route_chunks(model, d):
    # a chunk's rows as simulate counts them, at the smallest n and the
    # largest n the minors route takes, and on clouds with a row 1e-10..1e-5
    # off a hyperplane through d others
    row = MODEL_TABLE[model]
    symmetric = row.family is Family.CROSSPOLYTOPE
    bitgen = Philox(key=0)
    largest = _largest_enumerated_n(model, d)
    for n in sorted({d + row.shift, largest}):
        chunk = min(_chunk_size(row, n, d), 200)
        keys = derive_keys(17, SIM_REPLICATION, MODEL_CODES[model], n, d, np.arange(chunk), 0)
        maps = _sample_maps(row, keys, bitgen, Generator(bitgen), np.empty((chunk, n, d)))
        assert not _assert_minors_route_rows(maps, symmetric).all()
    maps = _clouds_near_hyperplanes(np.random.default_rng(MODEL_CODES[model] + 10 * d), 64, largest, d)
    near = _assert_minors_route_rows(maps, symmetric)
    assert near.any() and not near.all()


@pytest.mark.parametrize("d", range(2, _MAX_HULL_DIM + 1))
def test_simplicial_f_vectors_of_qhull_simplices(d):
    # qhull's hulls of every model one shape past _ENUM_CAP, and of clouds
    # with a point 1e-10..1e-5 off a hyperplane through d others, with and
    # without points inside, against every f_k counted from their simplices
    clouds = []
    for model in sorted(_ORACLE_MODELS):
        n = _largest_enumerated_n(model, d) + 1
        assert not _enumerates(MODEL_TABLE[model], n, d)
        for index in range(6):
            rng = derive_generator(19, SIM_REPLICATION, MODEL_CODES[model], n, d, index, 0)
            clouds.append(model_cloud(model, n, d, rng))
    for cloud in _clouds_near_hyperplanes(np.random.default_rng(d), 12, d + 4, d):
        clouds += [cloud, symmetrize(cloud)]
    simplicial, broken = 0, []
    for c, cloud in enumerate(clouds):
        simplices = ConvexHull(cloud).simplices
        row = distinct_subset_f_vectors(simplices, [len(simplices)])[0].tolist()
        inner = cloud.mean(axis=0) + 0.01 * (cloud - cloud.mean(axis=0))
        for points in (cloud, np.vstack([cloud, inner])):
            try:
                counts = _qhull_f_vector(points).counts
            except DegenerateGeometryError:  # merged facets that break Euler's relation
                broken.append(c)
                continue
            assert all(type(f) is int for f in counts)
            assert sum((-1) ** k * f for k, f in enumerate(counts)) == 1 - (-1) ** d  # Euler
            if counts[d - 1] == len(simplices):  # no facet merged
                assert list(counts) == row
                simplicial += 1
    assert simplicial >= 80
    # near cloud 10 at d = 6, with and without the inner points (see
    # test_merged_facets_that_break_euler_are_a_degeneracy_error)
    assert broken == ([24 + 2 * 10] * 2 if d == 6 else [])


def test_merged_facets_that_break_euler_are_a_degeneracy_error(monkeypatch):
    # row 0 lies 3.3e-10 off the hyperplane through rows 1..6: of qhull's 32
    # simplices two merge and the next pair, 1.4e-9 apart, does not, and the
    # closure counts (9, 36, 82, 112, 87, 31), whose Euler sum is -1
    cloud = _clouds_near_hyperplanes(np.random.default_rng(6), 12, 10, 6)[10]
    assert rounded_facet_f_vector(cloud) == (10, 42, 96, 128, 96, 32)
    with pytest.raises(DegenerateGeometryError, match="Euler"):
        hull_f_vector(cloud)
    # simulate resamples such a draw from the replication's next attempt
    model, n, d, seed = "gaussian", 10, 6, 3
    path = (seed, SIM_REPLICATION, MODEL_CODES[model], n, d)
    broken = _key(*path, 1, 0)
    _patch_sample_map(monkeypatch, lambda key, image: cloud if key == broken else image)
    _, rows, degen = _replication_block((model, n, d, seed, 0, 3), _Workspace())
    assert degen == 1
    monkeypatch.undo()
    redrawn = model_cloud(model, n, d, derive_generator(*path, 1, 1))
    assert rows[1].tolist() == list(hull_f_vector(redrawn).counts)
    assert rows[[0, 2]].tolist() == _replication_block((model, n, d, seed, 0, 3), _Workspace())[1][[0, 2]].tolist()


def _cyclic_facets(n: int, d: int) -> np.ndarray:
    """Facets of the cyclic polytope C(n, d): the d-subsets of range(n) that pass Gale's evenness condition."""
    facets = []
    for s in combinations(range(n), d):
        gaps = sorted(set(range(n)).difference(s))
        if all(sum(a < j < b for j in s) % 2 == 0 for a, b in zip(gaps, gaps[1:])):
            facets.append(s)
    return np.array(facets)


# f-vectors of cyclic polytopes, one per dimension (Upper Bound Theorem)
_CYCLIC_F = {(6, 2): (6, 6), (7, 3): (7, 15, 10), (8, 4): (8, 28, 40, 20), (9, 5): (9, 36, 74, 75, 30),
             (8, 6): (8, 28, 56, 68, 48, 16)}


@pytest.mark.parametrize("d", range(2, _MAX_HULL_DIM + 1))
def test_simplicial_f_vectors_of_known_polytopes(d):
    # the simplex, the crosspolytope (vertex j + d b for the sign bit b of
    # coordinate j) and cyclic polytopes with 1..4 vertices more than d: the
    # completion on int64 columns and on each hull's Python ints
    cross = np.array([[j + d * b for j, b in enumerate(bits)] for bits in product((0, 1), repeat=d)])
    cyclic = range(d + 1, d + 5)
    hulls = [_subsets(d + 1, d), cross, *(_cyclic_facets(n, d) for n in cyclic)]
    rows = distinct_subset_f_vectors(np.concatenate(hulls), [len(h) for h in hulls])
    columns = np.column_stack(_simplicial_f_vectors(list(rows[:, : d // 2 - 1].T), rows[:, d - 1], d))
    assert columns.dtype == np.int64 and np.array_equal(columns, rows)
    for row in rows.tolist():
        counts = _simplicial_f_vectors(row[: d // 2 - 1], row[d - 1], d)
        assert counts == row and all(type(f) is int for f in counts)
    assert rows[0].tolist() == [math.comb(d + 1, k + 1) for k in range(d)]
    assert rows[1].tolist() == [2 ** (k + 1) * math.comb(d, k + 1) for k in range(d)]
    for n, row in zip(cyclic, rows[2:]):
        # neighbourly: every set of up to d/2 vertices is a face
        assert row[: d // 2].tolist() == [math.comb(n, k + 1) for k in range(d // 2)]
        if (n, d) in _CYCLIC_F:
            assert tuple(row) == _CYCLIC_F[n, d]


def test_hull_degenerate_inputs():
    assert hull_f_vector(np.zeros((3, 3))).degenerate
    flat = np.hstack([np.random.default_rng(0).standard_normal((9, 2)), np.zeros((9, 1))])
    assert hull_f_vector(flat).degenerate
    with pytest.raises(InvalidArgumentError):
        hull_f_vector(np.zeros(4))
    with pytest.raises(InvalidDimensionError):
        hull_f_vector(np.zeros((5, 1)))
    with pytest.raises(InvalidDimensionError):
        hull_f_vector(np.zeros((10, 7)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_hull_rejects_non_finite_points(bad):
    # a non-finite coordinate is bad input, not a flat draw or a qhull failure
    pts = np.random.default_rng(1).standard_normal((8, 3))
    pts[2, 1] = bad
    with pytest.raises(InvalidArgumentError, match="points must be finite"):
        hull_f_vector(pts)


# ---------------------------------------------------------------------------
# zonotopes


@pytest.mark.parametrize("n,d", [(3, 2), (5, 2), (3, 3), (4, 3), (5, 3), (4, 4), (5, 4),
                                 (15, 2), (15, 3), (15, 6)])  # n = 15 is the cap
def test_zonotope_counts_match_closed_form(n, d):
    # generic generators give the same f-vector almost surely
    for rep in range(3):
        rng = derive_generator(23, n, d, rep)
        fv = zonotope_f_vector(rng.standard_normal((n, d)))
        assert fv.counts == tuple(
            int(expected_f_zonotope(n, d, k).value) for k in range(d)
        )


@pytest.mark.parametrize("n,d", [(4, 2), (4, 3), (5, 3), (7, 4), (7, 5), (8, 6)])
def test_zonotope_counts_match_hull_of_subset_sums(n, d):
    rng = derive_generator(29, n, d)
    g = rng.standard_normal((n, d))
    fv = zonotope_f_vector(g)
    hull = hull_f_vector(zonotope_vertex_cloud(g))
    assert fv.counts == hull.counts


@pytest.mark.parametrize("n,d", [(5, 3), (6, 2), (6, 5), (7, 6)])
def test_zonotope_counts_match_lp_route(n, d):
    rng = derive_generator(31, n, d)
    g = rng.standard_normal((n, d))
    assert zonotope_f_vector(g).counts == lp_zonotope_f_vector(g)


def _near_span_generators(d, gap):
    # e_1 .. e_{d-1} and one unit generator at distance `gap` from their span;
    # every other general-position quantity of this set is at least `gap`
    g = np.eye(d)
    g[d - 1, : d - 1] = math.sqrt((1.0 - gap**2) / (d - 1))
    g[d - 1, d - 1] = gap
    return g


@pytest.mark.parametrize("d", [2, 3, 4])
def test_general_position_tolerance_boundary(d):
    with pytest.raises(DegenerateGeometryError):
        zonotope_f_vector(_near_span_generators(d, 0.5 * _GENERAL_POSITION_TOL))
    # d generators in general position span a parallelotope, a d-cube's f-vector
    fv = zonotope_f_vector(_near_span_generators(d, 2.0 * _GENERAL_POSITION_TOL))
    assert fv.counts == tuple(int(expected_f_zonotope(d, d, k).value) for k in range(d))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_zero_generator_tolerance_boundary(d):
    g = derive_generator(41, d).standard_normal((d + 2, d))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    g[0] *= 0.5 * _GENERAL_POSITION_TOL
    with pytest.raises(DegenerateGeometryError):
        zonotope_f_vector(g)
    g[0] *= 4.0
    assert zonotope_f_vector(g).counts == tuple(
        int(expected_f_zonotope(d + 2, d, k).value) for k in range(d)
    )


def test_zonotope_degenerate_generators():
    with pytest.raises(DegenerateGeometryError):
        zonotope_f_vector(np.ones((4, 3)))  # rank 1
    g = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]])  # parallel pair
    with pytest.raises(DegenerateGeometryError):
        zonotope_f_vector(g)
    with pytest.raises(InvalidDimensionError):
        zonotope_f_vector(np.zeros((16, 3)))
    with pytest.raises(InvalidArgumentError):
        zonotope_f_vector(np.zeros(3))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_zonotope_rejects_non_finite_generators(bad):
    # a non-finite generator is bad input, not a degenerate arrangement
    g = np.random.default_rng(1).standard_normal((5, 3))
    g[3, 0] = bad
    with pytest.raises(InvalidArgumentError, match="generators must be finite"):
        zonotope_f_vector(g)


@pytest.mark.parametrize("bad", [
    [[0.0, 1.0], [1.0, 0.0, 2.0], [1.0, 1.0]],
    "abc",
    [[1j, 0.0], [1.0, 0.0], [0.0, 1.0]],
    np.random.default_rng(0).standard_normal((6, 3)) + 1j,
    None,
], ids=["ragged", "string", "complex", "complex-array", "none"])
@pytest.mark.parametrize("count,name", [(hull_f_vector, "points"), (zonotope_f_vector, "generators")])
def test_unreadable_input_is_a_typed_error(count, name, bad):
    # what NumPy cannot read as a 2-d array of reals is bad input, not a bare ValueError or TypeError
    with pytest.raises(InvalidArgumentError, match=f"^{name} must be "):
        count(bad)


@pytest.mark.parametrize("index", range(100, 150))
def test_projected_cube_frame_zonotope_matches_hull(index):
    # the shadow of the cube is the zonotope of the frame rows; qhull on the
    # 2^n projected vertices stays the independent route (index 104 is the
    # draw with a nearly flat merged facet)
    key = (11, SIM_REPLICATION, MODEL_CODES["projected_cube"], 8, 3, index, 0)
    frame = random_orthonormal_frame(8, 3, derive_generator(*key))
    cloud = model_cloud("projected_cube", 8, 3, derive_generator(*key))
    assert zonotope_f_vector(frame).counts == hull_f_vector(cloud).counts


# ---------------------------------------------------------------------------
# sampling machinery


def test_random_orthonormal_frame():
    rng = derive_generator(5, 1)
    f = random_orthonormal_frame(6, 3, rng)
    assert f.shape == (6, 3)
    assert np.allclose(f.T @ f, np.eye(3), atol=1e-12)
    again = random_orthonormal_frame(6, 3, derive_generator(5, 1))
    assert np.array_equal(f, again)
    with pytest.raises(InvalidDimensionError):
        random_orthonormal_frame(2, 3, rng)


@pytest.mark.parametrize("model,n,rows", [
    ("gaussian", 5, 5),
    ("symmetric", 5, 10),
    ("zonotope", 4, 16),
    ("projected_simplex", 5, 5),
    ("projected_crosspolytope", 4, 8),
    ("projected_cube", 4, 16),
])
def test_sample_cloud_shapes(model, n, rows):
    # the model's map is n x d and takes the rows vertices of P_{n - shift} in R^n
    # to the cloud; a projected model's map is an orthonormal frame
    row = MODEL_TABLE[model]
    cloud_map = _one_map(row, n, 3, 7, 2)
    assert cloud_map.shape == (n, 3)
    assert vertices(row.family, n - row.shift).shape == (rows, n)
    if not row.gaussian:
        assert np.allclose(cloud_map.T @ cloud_map, np.eye(3), atol=1e-12)


def test_model_table_follows_stream_codes():
    # the codes are part of every simulate stream key; the table lists the same models in order
    assert tuple(MODEL_TABLE) == tuple(MODEL_CODES)
    assert MODELS == tuple(MODEL_CODES)


@pytest.mark.parametrize("model", sorted(set(MODEL_CODES) - {"zonotope"}))
def test_sample_cloud_matches_written_out_sampler(model):
    # a drawn map's polytope, as simulate counts it, is the hull of the
    # written-out sampler's cloud on the same stream
    row = MODEL_TABLE[model]
    for d in (2, 3, 4):
        n = d + 2
        for index in range(20):
            image = _one_map(row, n, d, 5, index)
            if row.family is Family.CUBE:  # the zonotope of the map's rows
                fv = zonotope_f_vector(image)
            else:  # the hull of the map's rows, with their negatives for the crosspolytope
                fv = hull_f_vector(symmetrize(image) if row.family is Family.CROSSPOLYTOPE else image)
            assert fv == hull_f_vector(model_cloud(model, n, d, derive_generator(5, index)))


def test_sim_config_caps_replications_at_one_stream_word():
    # a replication index is one SeedSequence word of its stream key
    for reps in (2**32 + 1, np.uint64(2**32 + 1), 2**64):
        with pytest.raises(InvalidArgumentError, match="replications must be <= 2\\^32"):
            SimConfig(model="gaussian", n=5, d=2, replications=reps)
    # 2^32 itself is one stream word, but its f-vector rows pass the 2^26-entry cap below
    with pytest.raises(InvalidArgumentError, match="replications x d must be <= 2\\^26"):
        SimConfig(model="gaussian", n=5, d=2, replications=2**32)


@pytest.mark.parametrize("d", [2, 3, 6])
def test_sim_config_caps_the_rows_array(d):
    # replications x d int64 entries: at most 2^26, 512 MiB, asked for before the first replication
    most = 2**26 // d
    assert SimConfig(model="gaussian", n=8, d=d, replications=most).replications == most
    with pytest.raises(InvalidArgumentError, match=f"replications x d must be <= 2\\^26, got {most + 1} x {d}"):
        SimConfig(model="gaussian", n=8, d=d, replications=most + 1)


def test_sim_config_caps_hull_points():
    # one hull takes at most _MAX_POINTS points: n for the simplex models, 2n for the crosspolytope ones
    assert _MAX_POINTS == 200_000
    for model, n in (("gaussian", 200_000), ("projected_simplex", 200_000),
                     ("symmetric", 100_000), ("projected_crosspolytope", 100_000)):
        assert SimConfig(model=model, n=n, d=6, replications=1).n == n
        with pytest.raises(InvalidDimensionError, match=f"capped at {_MAX_POINTS} hull points"):
            SimConfig(model=model, n=n + 1, d=3, replications=2)
    with pytest.raises(InvalidDimensionError, match="got 100000000000 at n = 100000000000"):
        SimConfig(model="gaussian", n=10**11, d=3, replications=2)


def test_sim_config_validation():
    with pytest.raises(InvalidArgumentError):
        SimConfig(model="icosahedron", n=5, d=3, replications=1)
    with pytest.raises(InvalidDimensionError):
        SimConfig(model="gaussian", n=9, d=1, replications=1)
    with pytest.raises(InvalidDimensionError):
        SimConfig(model="gaussian", n=9, d=7, replications=1)
    with pytest.raises(InvalidDimensionError):
        SimConfig(model="gaussian", n=3, d=3, replications=1)  # needs n >= d+1
    with pytest.raises(InvalidDimensionError):
        SimConfig(model="zonotope", n=16, d=3, replications=1)
    with pytest.raises(InvalidArgumentError):
        SimConfig(model="gaussian", n=5, d=2, replications=0)
    with pytest.raises(InvalidArgumentError):
        SimConfig(model="gaussian", n=5, d=2, replications=5, seed=-1)
    with pytest.raises(InvalidArgumentError):
        SimConfig(model="gaussian", n=5, d=2, replications=5, workers=0)
    # integer fields take ints and NumPy integers, never floats or bools
    for field, bad in [("n", 5.5), ("d", 3.0), ("replications", True), ("seed", 2.7),
                       ("workers", "2"), ("seed", np.float64(1.0))]:
        fields = dict(model="gaussian", n=5, d=3, replications=5, seed=0, workers=1)
        fields[field] = bad
        with pytest.raises(InvalidArgumentError, match=field):
            SimConfig(**fields)
    cfg = SimConfig(model="gaussian", n=np.int64(5), d=np.int32(3), replications=np.uint16(5),
                    seed=np.int64(2), workers=np.int8(1))
    assert (cfg.n, cfg.d, cfg.replications, cfg.seed, cfg.workers) == (5, 3, 5, 2, 1)
    assert all(type(v) is int for v in (cfg.n, cfg.d, cfg.replications, cfg.seed, cfg.workers))
    assert simulate_expected_f(cfg).means == simulate_expected_f(
        SimConfig(model="gaussian", n=5, d=3, replications=5, seed=2)).means


def test_simulate_zonotope_has_zero_variance():
    cfg = SimConfig(model="zonotope", n=4, d=3, replications=40, seed=0)
    result = simulate_expected_f(cfg)
    assert result.replications == 40
    for k, expected in enumerate((14.0, 24.0, 12.0)):
        assert result.means[k].value == expected
        assert result.means[k].std_error == 0.0


def test_simulate_projected_cube_has_zero_variance():
    cfg = SimConfig(model="projected_cube", n=8, d=3, replications=200, seed=5)
    result = simulate_expected_f(cfg)
    assert result.degenerate_events == 0
    for k in range(3):
        assert result.means[k].value == expected_f_zonotope(8, 3, k).value
        assert result.means[k].std_error == 0.0


def test_simulate_polygon_edge_count_equals_vertex_count():
    cfg = SimConfig(model="gaussian", n=6, d=2, replications=50, seed=1)
    result = simulate_expected_f(cfg)
    assert result.means[0].value == result.means[1].value


def test_simulate_worker_invariance():
    base = dict(model="gaussian", n=6, d=3, replications=600, seed=3)
    a = simulate_expected_f(SimConfig(**base, workers=1))
    b = simulate_expected_f(SimConfig(**base, workers=2))
    assert a.means == b.means
    assert a.degenerate_events == b.degenerate_events


def test_simulate_pool_has_no_more_workers_than_blocks(monkeypatch):
    # a pool starts all of its workers at its first task; this stand-in
    # records the size it is asked for and maps in this process
    pools = []

    class RecordingPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    base = dict(model="symmetric", n=4, d=2, seed=5)
    alone = {r: simulate_expected_f(SimConfig(**base, replications=r)) for r in (10, 1100)}
    monkeypatch.setattr("polyproj.hull.ProcessPoolExecutor", RecordingPool)
    for cpus, r, workers, pool in [(64, 10, 64, None), (64, 1100, 64, 3), (64, 1100, 2, 2),
                                   (64, 1100, 1, None), (2, 1100, 5000, 2), (1, 1100, 5000, None)]:
        monkeypatch.setattr("polyproj.hull._usable_cpus", lambda: cpus)
        pools.clear()
        result = simulate_expected_f(SimConfig(**base, replications=r, workers=workers))
        # one block, one worker or one CPU runs in this process
        assert pools == ([] if pool is None else [pool])
        assert result.means == alone[r].means
        assert result.degenerate_events == alone[r].degenerate_events


def test_usable_cpus_reads_the_affinity_set(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert _usable_cpus() == 3
    monkeypatch.delattr(os, "sched_getaffinity")  # platforms without affinity sets
    assert _usable_cpus() == 64
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # a count the platform cannot tell
    assert _usable_cpus() == 1


_BLOCK_ORACLE_EXTRA_N = {"gaussian": 3, "symmetric": 1, "zonotope": 2,
                         "projected_simplex": 2, "projected_crosspolytope": 1, "projected_cube": 2}


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("model", sorted(_BLOCK_ORACLE_EXTRA_N))
def test_simulate_blocks_match_per_replication_oracle(model, d, tmp_path):
    # 1, 511, 512 and 513 replications sit on either side of a block edge;
    # replication i's row does not depend on how many there are
    n = d + _BLOCK_ORACLE_EXTRA_N[model]
    rows, degenerate = per_replication_rows(model, n, d, 17, 513)
    dump = tmp_path / "rows.csv"
    for r, workers in [(1, 1), (511, 1), (512, 1), (513, 1), (513, 2)]:
        cfg = SimConfig(model=model, n=n, d=d, replications=r, seed=17, workers=workers)
        result = simulate_expected_f(cfg, dump_path=str(dump))
        assert result.degenerate_events == degenerate[:r].sum()
        dumped = np.loadtxt(dump, delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)
        assert np.array_equal(dumped[:, 0], np.arange(r))
        assert np.array_equal(dumped[:, 1:], rows[:r])
        assert result.means[d - 1].value == float(rows[:r, d - 1].mean())


def _one_map(row, n, d, *path):
    """The model's n x d map on the stream (*path), drawn by _sample_maps as simulate draws it."""
    bitgen = Philox(key=0)
    keys = derive_keys(*path[:-1], np.array(path[-1:]))
    return _sample_maps(row, keys, bitgen, Generator(bitgen), np.empty((1, n, d)))[0]


def _key(*path):
    """The Philox key, as a tuple of ints, of the stream (*path)."""
    return tuple(SeedSequence(path).generate_state(2, np.uint64).tolist())


def _patch_sample_map(monkeypatch, edit):
    """Draw every map with _sample_maps, then replace it by edit(key, map), key the map's Philox key as ints."""

    def sample_maps(row, keys, bitgen, rng, out):
        _sample_maps(row, keys, bitgen, rng, out)
        for j, key in enumerate(keys.tolist()):
            out[j] = edit(tuple(key), out[j])
        return out

    monkeypatch.setattr("polyproj.hull._sample_maps", sample_maps)


def _flattening(model, n, d, seed, flat):
    """An edit for _patch_sample_map that flattens the maps of the (replication, attempt) pairs in flat."""
    path = (seed, SIM_REPLICATION, MODEL_CODES[model], n, d)
    flat_keys = {_key(*path, i, a) for i, a in flat}

    def flattened(key, image):
        if key in flat_keys:
            image[:, -1] = 0.0
        return image

    return flattened


def test_simulate_resamples_degenerate_draws_from_later_attempts(monkeypatch):
    # flatten the attempt-0 maps of replications 0, 511, 512, 600 and 1700 and
    # the attempt-1 map of 1700; keys pick the draws, whatever the order.  Every
    # minor of a flat map is 0, so the minors route hands it to qhull, which
    # flags it degenerate, and it is resampled from its next attempt's stream
    model, n, d, seed, r = "gaussian", 6, 3, 23, 6000  # 6 is the most degenerate draws allowed
    assert _enumerates(MODEL_TABLE[model], n, d)
    path = (seed, SIM_REPLICATION, MODEL_CODES[model], n, d)
    flattened = _flattening(model, n, d, seed, {(0, 0), (511, 0), (512, 0), (600, 0), (1700, 0), (1700, 1)})

    def sampler(model, n, d, rng):
        key = tuple(rng.bit_generator.state["state"]["key"].tolist())
        return flattened(key, rng.standard_normal((n, d)))  # a gaussian cloud is its map

    rows, degenerate = per_replication_rows(model, n, d, seed, r, sampler=sampler)
    assert degenerate.sum() == 6 and degenerate[1700] == 2
    _patch_sample_map(monkeypatch, flattened)
    lo, block_rows, block_degen = _replication_block((model, n, d, seed, 512, 1024), _Workspace())
    assert block_degen == 2 and np.array_equal(block_rows, rows[512:1024])
    result = simulate_expected_f(SimConfig(model=model, n=n, d=d, replications=r, seed=seed))
    assert result.degenerate_events == 6
    assert result.means[0].value == float(rows[:, 0].mean())
    monkeypatch.undo()
    # the resampled rows are the f-vectors of the next attempts' streams
    for i, attempt in [(0, 1), (511, 1), (512, 1), (600, 1), (1700, 2)]:
        rng = derive_generator(*path, i, attempt)
        assert rows[i].tolist() == list(hull_f_vector(model_cloud(model, n, d, rng)).counts)


def test_simulate_dump_is_deterministic(tmp_path):
    cfg = SimConfig(model="projected_cube", n=3, d=2, replications=25, seed=4)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    simulate_expected_f(cfg, dump_path=str(p1))
    simulate_expected_f(cfg, dump_path=str(p2))
    data = p1.read_bytes()
    assert data == p2.read_bytes()
    lines = data.decode().splitlines()
    assert lines[0] == "replication,f_0,f_1"
    assert len(lines) == 26
    # a generic planar shadow of the 3-cube is a hexagon
    assert lines[1].split(",")[1] == "6"


def test_dump_written_a_block_at_a_time_is_the_one_call_dump(tmp_path):
    # two whole blocks and a part of one, each written as its own slice, give the
    # bytes one writerows call over every row gives
    r = 2 * _BLOCK + 276
    dump = tmp_path / "rows.csv"
    simulate_expected_f(SimConfig(model="zonotope", n=5, d=3, replications=r, seed=6), dump_path=str(dump))
    rows = np.concatenate([_replication_block(("zonotope", 5, 3, 6, lo, min(lo + _BLOCK, r)), _Workspace())[1]
                           for lo in range(0, r, _BLOCK)])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["replication", "f_0", "f_1", "f_2"])
    writer.writerows(np.column_stack([np.arange(r), rows]).tolist())
    assert dump.read_bytes() == buf.getvalue().encode()


def test_simulation_abort_error_fields():
    err = SimulationAbortError("model stalled", degenerate=7, replications=30)
    assert err.degenerate == 7
    assert err.replications == 30


@pytest.mark.parametrize("model,n,d", [("gaussian", 6, 3), ("symmetric", 10, 4), ("zonotope", 5, 3)])
def test_simulate_aborts_on_a_replication_flat_at_every_attempt(monkeypatch, model, n, d):
    # replications 700 and 900 stay flat; the smallest one still flat after
    # the last round is reported, with one degenerate draw per attempt
    flat = {(i, a) for i in (700, 900) for a in range(_MAX_ATTEMPTS)}
    _patch_sample_map(monkeypatch, _flattening(model, n, d, 3, flat))
    with pytest.raises(SimulationAbortError) as info:
        simulate_expected_f(SimConfig(model=model, n=n, d=d, replications=1000, seed=3))
    assert info.value.replications == 700
    assert info.value.degenerate == _MAX_ATTEMPTS == 5
    assert "replication 700" in str(info.value)


def test_simulate_aborts_when_flat_draws_exceed_the_rate_limit(monkeypatch):
    # 2 flat draws in 1000 replications, each redrawn fine, are over 0.1 %
    cfg = SimConfig(model="gaussian", n=6, d=3, replications=1000, seed=3)
    _patch_sample_map(monkeypatch, _flattening("gaussian", 6, 3, 3, {(10, 0), (600, 0)}))
    with pytest.raises(SimulationAbortError, match="degenerate rate 2/1000") as info:
        simulate_expected_f(cfg)
    assert (info.value.degenerate, info.value.replications) == (2, 1000)
    # one flat draw is within it
    _patch_sample_map(monkeypatch, _flattening("gaussian", 6, 3, 3, {(10, 0)}))
    assert simulate_expected_f(cfg).degenerate_events == 1


# ---------------------------------------------------------------------------
# the minors route and its qhull fallback


def _assert_simulate_matches_oracle(model, n, d, seed, r, tmp_path):
    """simulate's degenerate count and --dump bytes are those of per_replication_rows."""
    rows, degenerate = per_replication_rows(model, n, d, seed, r)
    dump = tmp_path / "rows.csv"
    result = simulate_expected_f(SimConfig(model=model, n=n, d=d, replications=r, seed=seed),
                                 dump_path=str(dump))
    assert result.degenerate_events == degenerate.sum()
    expected = "".join(
        [",".join(["replication"] + [f"f_{k}" for k in range(d)]) + "\n"]
        + [",".join(map(str, [i, *row])) + "\n" for i, row in enumerate(rows.tolist())]
    )
    assert dump.read_bytes() == expected.encode()


# (model, n, d): d = 2, the smallest full-dimensional n of each model (n = d
# for the crosspolytope images), crosspolytope images at d = 5, and the
# benchmark's gaussian n=10 d=3 and symmetric n=8 d=4
_MINORS_GRID = [
    ("gaussian", 3, 2), ("gaussian", 7, 2), ("gaussian", 4, 3), ("gaussian", 10, 3),
    ("gaussian", 5, 4), ("gaussian", 6, 5), ("gaussian", 8, 6),
    ("symmetric", 2, 2), ("symmetric", 6, 2), ("symmetric", 3, 3), ("symmetric", 8, 4),
    ("symmetric", 5, 5), ("symmetric", 6, 5), ("symmetric", 6, 6),
    ("projected_simplex", 3, 2), ("projected_simplex", 6, 3), ("projected_simplex", 7, 5),
    ("projected_crosspolytope", 2, 2), ("projected_crosspolytope", 4, 3),
    ("projected_crosspolytope", 5, 5), ("projected_crosspolytope", 6, 5),
]


@pytest.mark.parametrize("model,n,d", _MINORS_GRID)
def test_minors_route_matches_per_replication_oracle(model, n, d, tmp_path):
    assert _enumerates(MODEL_TABLE[model], n, d)
    _assert_simulate_matches_oracle(model, n, d, 29, 300, tmp_path)


# past _ENUM_CAP every draw goes to qhull; 513 replications cross a block edge
_QHULL_GRID = [("gaussian", 14, 3), ("projected_simplex", 14, 3), ("symmetric", 10, 4),
               ("projected_crosspolytope", 9, 4)]


@pytest.mark.parametrize("model,n,d", _QHULL_GRID)
def test_qhull_route_matches_per_replication_oracle(model, n, d, tmp_path):
    assert not _enumerates(MODEL_TABLE[model], n, d)
    _assert_simulate_matches_oracle(model, n, d, 31, 513, tmp_path)


@pytest.mark.parametrize("d", range(2, _MAX_HULL_DIM + 1))
@pytest.mark.parametrize("model", sorted(_ORACLE_MODELS) + ["projected_cube", "zonotope"])
def test_workspace_leaks_nothing_across_chunks(monkeypatch, model, d):
    # one block of maps in chunks that share a workspace whose every byte is
    # set before each chunk is drawn (NaN in every float), the last chunk
    # short: 16, 16 and 9 clouds, or 4, 4 and 1 cube maps (16 zonotopes at
    # n = 15, d = 6 would sort 190 MB of keys).  In the first chunk maps 1 and
    # 2 have row 0 moved 1e-9 off the affine hull of rows 1..d, near enough
    # for qhull, or a cube map's row 0 1e-12 off the span of rows 1..d-1,
    # flat enough to be drawn again.  The block's rows and degenerate count
    # are those of each map decided in a block of its own
    row = MODEL_TABLE[model]
    cube = row.family is Family.CUBE
    count = _zonotope_f_vectors if cube else _enumerated_facets
    chunk, block, offset = (4, 9, 1e-12) if cube else (16, 41, 1e-9)
    found = []

    def recorded(*args):
        flags, rows = count(*args)
        found.append(flags)
        return flags, rows

    monkeypatch.setattr("polyproj.hull._chunk_size", lambda row, n, d: chunk)
    monkeypatch.setattr(f"polyproj.hull.{count.__name__}", recorded)
    largest = _MAX_GENERATORS if cube else _largest_enumerated_n(model, d)
    for n in sorted({d + row.shift, largest}):
        assert cube or _chunk_size(row, n, d) >= chunk
        path = (7, SIM_REPLICATION, MODEL_CODES[model], n, d)
        moved = {_key(*path, i, 0) for i in (1, 2)}
        span = d - 1 if cube else min(d, n - 1)
        work = _Workspace()

        def poisoned_draw(row, keys, bitgen, rng, out):
            for buffer in work.buffers.values():
                buffer.view(np.uint8).fill(0xFF)
            _sample_maps(row, keys, bitgen, rng, out)
            for j, key in enumerate(keys.tolist()):
                if tuple(key) in moved:
                    weights = np.arange(1.0, span + 1) / (span * (span + 1) / 2)
                    out[j, 0] = weights @ out[j, 1 : span + 1] + offset * np.arange(1.0, d + 1)
            return out

        monkeypatch.setattr("polyproj.hull._sample_maps", poisoned_draw)
        alone = [_replication_block((model, n, d, 7, i, i + 1), _Workspace()) for i in range(block)]
        found.clear()
        _, rows, degen = _replication_block((model, n, d, 7, 0, block), work)
        assert [len(flags) for flags in found[:3]] == [chunk, chunk, block - 2 * chunk] and found[0][1:3].all()
        assert rows.tolist() == [alone_block[1][0].tolist() for alone_block in alone]
        assert degen == sum(alone_block[2] for alone_block in alone)


@pytest.mark.parametrize("model,n,d,sums", [
    ("gaussian", 10, 3, [10744, 24432, 16288]),
    ("symmetric", 8, 4, [18154, 74778, 113248, 56624]),
])
def test_benchmark_shapes_keep_their_counts(model, n, d, sums, tmp_path):
    # the hull_sim workload's minors-route shapes over two whole blocks and a
    # short third one: the column sums of their dump rows, pinned when every
    # chunk allocated its own temporaries
    dump = tmp_path / "rows.csv"
    cfg = SimConfig(model=model, n=n, d=d, replications=2 * _BLOCK + 276, seed=5)
    assert simulate_expected_f(cfg, dump_path=str(dump)).degenerate_events == 0
    rows = np.loadtxt(dump, delimiter=",", skiprows=1, dtype=np.int64)
    assert rows[:, 0].tolist() == list(range(cfg.replications))
    assert rows[:, 1:].sum(axis=0).tolist() == sums


def test_enumeration_cap_sends_large_shapes_to_qhull():
    # the cap is in side tests per cloud point; cube shapes take the route up to their own cap
    assert _enumerates(MODEL_TABLE["gaussian"], 10, 3)
    assert _enumerates(MODEL_TABLE["symmetric"], 8, 4)
    assert not _enumerates(MODEL_TABLE["gaussian"], 14, 3)
    assert not _enumerates(MODEL_TABLE["symmetric"], 10, 4)
    for model in ("zonotope", "projected_cube"):
        assert _enumerates(MODEL_TABLE[model], 3, 3)
        assert _enumerates(MODEL_TABLE[model], 15, 6)


def test_enumeration_margin_dominates_facet_tolerance():
    # qhull's neighbours are merged only if their [normal, offset] rows agree
    # within _FACET_TOL, which puts a vertex of one within
    # _FACET_TOL * (|p|_1 + 1) <= sqrt(d) * _FACET_TOL * (1 + R) of the other's
    # hyperplane; the margin is ten times that at the largest d
    assert _ENUM_MARGIN >= 10 * math.sqrt(_MAX_HULL_DIM) * _FACET_TOL


def _routed_block(monkeypatch, model, cloud_map):
    """Row 0 of a one-replication block whose map is cloud_map, and whether qhull ran.

    The map is drawn once, whichever route decides it.
    """
    calls, draws = [], []

    def counted_hull(points):
        calls.append(len(points))
        return ConvexHull(points)

    def drawing(key, image):
        draws.append(key)
        return cloud_map

    _patch_sample_map(monkeypatch, drawing)
    # hull.py imports ConvexHull where it calls qhull, so the name is read from scipy.spatial then
    monkeypatch.setattr("scipy.spatial.ConvexHull", counted_hull)
    n, d = cloud_map.shape
    _, rows, degen = _replication_block((model, n, d, 0, 0, 1), _Workspace())
    assert degen == 0
    assert len(draws) == 1
    return tuple(rows[0].tolist()), bool(calls)


# a point well within the facet tolerance, just inside the margin, just outside it
_PLACEMENTS = [("merged", True), ("inside", True), ("outside", False)]


def _placement(where, margin):
    return {"merged": 0.1 * _FACET_TOL, "inside": 0.9 * margin, "outside": 1.1 * margin}[where]


@pytest.mark.parametrize("where,qhull", _PLACEMENTS)
def test_enumeration_margin_boundary_simplex_type(monkeypatch, where, qhull):
    # p lies at distance h below the segment ab; a and b are antipodal, so the
    # volume bound is exact there and the cloud goes to qhull exactly when
    # h <= _ENUM_MARGIN * (1 + R), R = 1.  At h = _FACET_TOL / 10 qhull merges
    # the edges ap and pb into one facet
    h = _placement(where, 2 * _ENUM_MARGIN)
    cloud = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, -h]])
    counts, ran_qhull = _routed_block(monkeypatch, "gaussian", cloud)
    assert ran_qhull is qhull
    assert counts == hull_f_vector(cloud).counts
    assert counts == ((3, 3) if where == "merged" else (4, 4))


@pytest.mark.parametrize("where,qhull", _PLACEMENTS)
def test_enumeration_margin_boundary_crosspolytope_type(monkeypatch, where, qhull):
    # p lies at distance h outside the segment from a = e_1 to c = e_2; the
    # side value of p at the facet {a, c} is |c - a| h = sqrt(2) h and its
    # bound _ENUM_MARGIN * (1 + R) * (|a| + |c|) with R = 1, so the cloud
    # goes to qhull exactly when h <= 2 sqrt(2) _ENUM_MARGIN.  At h =
    # _FACET_TOL / 10 qhull merges ap with pc, and their antipodes
    h = _placement(where, 2 * math.sqrt(2) * _ENUM_MARGIN)
    cloud = np.array([[1.0, 0.0], [0.0, 1.0], [0.5 + h / math.sqrt(2), 0.5 + h / math.sqrt(2)]])
    counts, ran_qhull = _routed_block(monkeypatch, "symmetric", cloud)
    assert ran_qhull is qhull
    assert counts == hull_f_vector(symmetrize(cloud)).counts
    assert counts == ((4, 4) if where == "merged" else (6, 6))


# ---------------------------------------------------------------------------
# cube models on the minors table


# (n, d, replications): n from d to the cap at every d; 513 replications
# cross a block edge wherever the SVD oracle is cheap enough
_CUBE_GRID = [
    (2, 2, 513), (3, 2, 513), (9, 2, 513), (15, 2, 513),
    (3, 3, 513), (4, 3, 513), (8, 3, 513), (15, 3, 60),
    (4, 4, 513), (5, 4, 513), (10, 4, 100), (15, 4, 8),
    (5, 5, 513), (6, 5, 513), (10, 5, 20), (15, 5, 3),
    (6, 6, 513), (7, 6, 100), (11, 6, 6), (15, 6, 2),
]


@pytest.mark.parametrize("n,d,r", _CUBE_GRID)
@pytest.mark.parametrize("model", ["zonotope", "projected_cube"])
def test_cube_minors_route_matches_svd_oracle(model, n, d, r, tmp_path):
    # the oracle finds each replication's rays by SVD, one replication at a time
    assert _enumerates(MODEL_TABLE[model], n, d)
    _assert_simulate_matches_oracle(model, n, d, 37, r, tmp_path)


@pytest.mark.parametrize("factor,resampled", [(0.5, True), (2.0, False)])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_cube_general_position_boundary_inside_a_chunk(monkeypatch, d, factor, resampled):
    # replication 5 of a 16-map chunk draws d generators, one at distance
    # factor * _GENERAL_POSITION_TOL from the span of the others, which is
    # their only d x d minor; every other map is a Gaussian draw
    model, n, seed, placed = "zonotope", d, 7, 5
    assert _chunk_size(MODEL_TABLE[model], n, d) >= 16
    path = (seed, SIM_REPLICATION, MODEL_CODES[model], n, d)
    placed_key = _key(*path, placed, 0)
    drawn, counted = [], []

    def placing(key, image):
        drawn.append(key)
        return _near_span_generators(d, factor * _GENERAL_POSITION_TOL) if key == placed_key else image

    def counting(generators):
        counted.append(len(generators))
        return zonotope_f_vector(generators)

    _patch_sample_map(monkeypatch, placing)
    monkeypatch.setattr("polyproj.hull.zonotope_f_vector", counting)
    _, rows, degen = _replication_block((model, n, d, seed, 0, 16), _Workspace())
    parallelotope = [int(expected_f_zonotope(d, d, k).value) for k in range(d)]
    assert rows.tolist() == [parallelotope] * 16
    keys = [tuple(k) for k in derive_keys(*path, np.arange(16), 0).tolist()]
    # zonotope_f_vector is never called: the chunk's own count finds a flat map
    assert counted == []
    if resampled:
        # found flat in the chunk, drawn again from attempt 1 in the next round
        assert degen == 1
        assert drawn == keys + [_key(*path, placed, 1)]
    else:
        assert degen == 0
        assert drawn == keys


def test_side_table_matches_permutation_oracle():
    # read off the ray tables, the table is the one the sign of each permutation gives
    for d in range(2, _MAX_HULL_DIM + 1):
        for m in range(d, 13):
            table = _side_table(m, d)
            assert table.shape == (d, math.comb(m, d), m - d)
            assert np.array_equal(table, side_table_by_permutations(m, d))


def test_lifted_side_table_matches_loop_oracle():
    # the inverted top Laplace level of [X | 1] is the table one (d-subset, row) pair at a time gives
    for d in range(2, _MAX_HULL_DIM + 1):
        for m in range(d + 1, 13):
            table = _lifted_side_table(m, d)
            assert table.shape == (math.comb(m, d), m - d)
            assert np.array_equal(table, lifted_side_table_by_loops(m, d))


def _clouds_near_hyperplanes(rng, clouds, m, d):
    """Gaussian m x d maps; in every other one row 0 is moved to 1e-10..1e-5 off the hyperplane through rows 1..d."""
    maps = rng.standard_normal((clouds, m, d))
    for c in range(0, clouds, 2):
        weights = rng.random(d)
        offset = 10 ** rng.uniform(-10, -5) * rng.standard_normal(d)
        maps[c, 0] = weights / weights.sum() @ maps[c, 1 : d + 1] + offset
    return maps


@pytest.mark.parametrize("m,d", [(4, 3), (6, 2), (10, 3), (12, 4), (9, 5), (8, 6)])
def test_lifted_minors_route_matches_side_sum_oracle(m, d):
    # one (d+1)-minor per point set flags the same clouds, and counts the same
    # rows, as summing d minors per side test
    rng = np.random.default_rng(100 * m + d)
    for _ in range(4):
        near = _assert_minors_route_rows(_clouds_near_hyperplanes(rng, 64, m, d), False)
        assert near.any() and not near.all()


@pytest.mark.parametrize("m,d", [(4, 3), (6, 2), (10, 3), (12, 4), (9, 5), (8, 6)])
def test_lifted_minors_read_through_the_table_are_side_determinants(m, d):
    # the entry of (I, i) is x_i's side of the hyperplane through X_I: -det[X_I, 1; x_i, 1]
    maps = np.random.default_rng(m + 10 * d).standard_normal((5, m, d))
    x = np.ascontiguousarray(maps.transpose(1, 2, 0))
    work = _Workspace()
    lifted = _lifted_minors(_minors(x, work), m, d, work)
    side = np.concatenate([lifted, -lifted])[_lifted_side_table(m, d)]
    for r, rows in enumerate(combinations(range(m), d)):
        for a, i in enumerate(sorted(set(range(m)).difference(rows))):
            lifted_rows = np.concatenate([maps[:, [*rows, i]], np.ones((5, d + 1, 1))], axis=2)
            np.testing.assert_allclose(side[r, a], -np.linalg.det(lifted_rows), rtol=1e-12)


@pytest.mark.parametrize("d", range(2, _MAX_HULL_DIM + 1))
def test_index_tables_match_loop_oracles(d):
    # the Laplace levels, read off one subset list, are the tables that
    # looking each subset up in a dictionary gives
    for m in range(d, _MAX_GENERATORS + 1):
        for k, (at_ref, sub_ref) in enumerate(minor_levels_by_loops(m, d), start=2):
            at, sub = _laplace_level(m, k)
            assert np.array_equal(at, at_ref) and np.array_equal(sub, sub_ref)


@pytest.mark.parametrize("k", range(2, _MAX_HULL_DIM + 2))
def test_insertions_match_covector_sign_oracle(k):
    # the one inverted Laplace level is the table one (subset, row) pair at a time gives
    for m in range(k, _MAX_GENERATORS + 1):
        table = _insertions(m, k)
        assert table.shape == (math.comb(m, k - 1), m)
        assert np.array_equal(table, covector_sign_by_loops(m, k))


@pytest.mark.parametrize("d", range(2, _MAX_HULL_DIM + 1))
def test_gathered_index_tables_are_in_range(d):
    # _gather clamps an index past the end of its source (mode="clip") where
    # plain indexing would raise, so every table it reads is checked here to
    # stay inside the array it indexes, at every m the minors route takes at d:
    # the cube models' n up to _MAX_GENERATORS and each cloud model's enumerated n
    largest = max([_MAX_GENERATORS] + [_largest_enumerated_n(model, d) for model in _ORACLE_MODELS])
    for m in range(d, largest + 1):
        # level k reads rows of the map and the (k-1)-minors of the level below
        for k in range(2, min(m, d + 1) + 1):
            at, sub = _laplace_level(m, k)
            assert 0 <= at.min() and at.max() < m
            assert 0 <= sub.min() and sub.max() < math.comb(m, k - 1)
        assert 0 <= _subsets(m, d).min() and _subsets(m, d).max() < m
        # side tables read the minors stacked on their negatives
        if m > d:
            swap, lifted = _side_table(m, d), _lifted_side_table(m, d)
            assert 0 <= swap.min() and swap.max() < 2 * math.comb(m, d)
            assert 0 <= lifted.min() and lifted.max() < 2 * math.comb(m, d + 1)


def test_subsets_edge_cases_and_read_only_tables():
    assert _subsets(5, 0).shape == (1, 0)
    assert _subsets(5, 5).tolist() == [[0, 1, 2, 3, 4]]
    assert _subsets(1, 1).tolist() == [[0]]
    for m, k in [(6, 2), (7, 3), (9, 4)]:
        assert _subsets(m, k).tolist() == [list(s) for s in combinations(range(m), k)]
        assert _subsets(m, k).dtype == np.intp
        # complements reverse combinations order
        complements = [sorted(set(range(m)).difference(s)) for s in combinations(range(m), k)]
        assert _subsets(m, m - k)[::-1].tolist() == complements
    # every cached table is shared by its callers, so none can be written
    tables = [_subsets(8, 3), _side_table(8, 3), _lifted_side_table(8, 3)]
    tables += [_incidence(8, 4, False), _incidence(10, 6, False), _incidence(8, 6, True)]
    tables += [_insertions(8, 3), _insertions(8, 4), *_covector_tables(8, 3)]
    tables += [a for k in (2, 3, 4) for a in _laplace_level(8, k)]
    for table in tables:
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[(0,) * table.ndim] = 1


@pytest.mark.parametrize("n,d", [(4, 2), (8, 3), (10, 4), (15, 6)])
def test_stacked_frames_match_per_map_frames(n, d):
    # one QR over the chunk gives each map the frame random_orthonormal_frame gives it alone
    path = (3, SIM_REPLICATION, MODEL_CODES["projected_cube"], n, d)
    keys = derive_keys(*path, np.arange(40), 0)
    bitgen = Philox(key=0)
    frames = _sample_maps(MODEL_TABLE["projected_cube"], keys, bitgen, Generator(bitgen), np.empty((40, n, d)))
    for i in range(40):
        alone = random_orthonormal_frame(n, d, derive_generator(*path, i, 0))
        assert frames[i].tobytes() == alone.tobytes()


@pytest.mark.parametrize("model", ["zonotope", "projected_cube"])
def test_simulate_cube_models_at_the_cap(model, tmp_path):
    # n = 15, d = 6: 3003 rays and 1.46 million covector keys per replication
    dump = tmp_path / "rows.csv"
    result = simulate_expected_f(SimConfig(model=model, n=15, d=6, replications=20, seed=2),
                                 dump_path=str(dump))
    assert result.degenerate_events == 0
    rows = np.loadtxt(dump, delimiter=",", skiprows=1, dtype=np.int64)[:, 1:]
    assert rows.tolist() == [[expected_f_cube_closed_form(15, 6, k) for k in range(6)]] * 20
