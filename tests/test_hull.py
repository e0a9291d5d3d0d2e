import csv
import io
import math
import os
from fractions import Fraction
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
    face_count,
    hull_f_vector,
    random_orthonormal_frame,
    simulate_expected_f,
    symmetrize,
    vertices,
    zonotope_f_vector,
)
from polyproj.hull import (
    _BLOCK,
    _rounding_margin,
    _FACET_TOL,
    _MAX_HULL_DIM,
    _enumerated_facets,
    _enumerates,
    _side_tests,
    _chunk_size,
    _flat_generators,
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
    _worst_sums,
    _Workspace,
    _dyadic,
    _fraction_free,
)
from polyproj.streams import MODEL_CODES, SIM_REPLICATION, derive_generator, derive_keys

from oracles import (
    colex_subsets,
    covector_sign_by_loops,
    distinct_subset_f_vectors,
    exact_hull_f_vector,
    filter_margin,
    full_dimensional,
    leibniz_det,
    lifted_side_table_by_loops,
    lp_zonotope_f_vector,
    minor_levels_by_loops,
    model_cloud,
    near_row,
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


def _dyadic_calls(monkeypatch) -> list:
    """A list that every later call of hull._dyadic appends to: the exact recheck converts each cloud it takes."""
    calls = []

    def counted(rows):
        calls.append(None)
        return _dyadic(rows)

    monkeypatch.setattr("polyproj.hull._dyadic", counted)
    return calls


def _rechecked(monkeypatch, maps, symmetric):
    """Which of maps the margin sends to the exact recheck: those whose decision, each in a chunk of its own, calls hull._dyadic."""
    calls = _dyadic_calls(monkeypatch)
    flags = []
    for cloud in maps:
        calls.clear()
        _enumerated_facets(cloud[None], symmetric, _Workspace())
        flags.append(bool(calls))
    return np.array(flags)


def _assert_minors_route_rows(monkeypatch, maps, symmetric, placed=()):
    """A chunk's rows, no cloud flat, against oracles; returns which clouds the margin sends to the exact recheck.

    Every rechecked cloud's row, and every placed one's (a cloud with a
    point put near a hyperplane), is checked against the exact side-test
    oracle: qhull merges facets within _FACET_TOL, far wider than the
    margin.  The rows' hull's other rows are checked against every f_k
    counted from the side-sum oracle's facets (it flags the rechecked
    clouds), the symmetric hull's against those of qhull's hull of each
    cloud and its negatives.
    """
    flat, rows = _enumerated_facets(maps, symmetric, _Workspace())
    rechecked = _rechecked(monkeypatch, maps, symmetric)
    assert not flat.any() and rows.dtype == np.int64 and rows.shape == maps.shape[::2]
    exact = rechecked.copy()
    exact[list(placed)] = True
    if symmetric:
        kept = ~exact
        assert rows[kept].tolist() == [list(hull_f_vector(symmetrize(cloud)).counts) for cloud in maps[kept]]
    else:
        near, facets, counts = simplex_facets_by_side_sums(maps)
        assert np.array_equal(rechecked, near)
        assert np.array_equal(rows[~rechecked], distinct_subset_f_vectors(facets, counts))
    for c in np.flatnonzero(exact):
        assert tuple(rows[c].tolist()) == exact_hull_f_vector(maps[c], symmetric)
    return rechecked


@pytest.mark.parametrize("d", range(2, _MAX_HULL_DIM + 1))
@pytest.mark.parametrize("model", sorted(_ORACLE_MODELS))
def test_simplicial_f_vectors_of_minors_route_chunks(monkeypatch, model, d):
    # a chunk's rows as simulate counts them, at the smallest n and the
    # largest n the minors route takes, and on clouds with a row placed
    # within a tenth of the margin, or past ten times it, off a hyperplane
    # through d others, for the symmetric hull one of its facets'
    # hyperplanes (it rechecks no other): no cloud is flat, and the rows of
    # the placed clouds and of those the margin sends to the exact recheck
    # are the exact oracle's
    row = MODEL_TABLE[model]
    symmetric = row.family is Family.CROSSPOLYTOPE
    bitgen = Philox(key=0)
    largest = _largest_enumerated_n(model, d)
    for n in sorted({d + row.shift, largest}):
        chunk = min(_chunk_size(row, n, d), 200)
        keys = derive_keys(17, SIM_REPLICATION, MODEL_CODES[model], n, d, np.arange(chunk), 0)
        maps = _sample_maps(keys, bitgen, Generator(bitgen), np.empty((chunk, n, d)))
        assert not _assert_minors_route_rows(monkeypatch, maps, symmetric).all()
    maps = _clouds_near_hyperplanes(np.random.default_rng(MODEL_CODES[model] + 10 * d), 64, largest, d, symmetric)
    rechecked = _assert_minors_route_rows(monkeypatch, maps, symmetric, range(0, 64, 2))
    assert rechecked.any() and not rechecked.all()
    assert rechecked.tolist() == [c % 4 == 0 for c in range(64)]


@pytest.mark.parametrize("d", range(2, _MAX_HULL_DIM + 1))
def test_symmetric_minors_route_at_n_equal_d(monkeypatch, d):
    # no row lies outside a candidate, so all 2^d are facets and the hull is
    # the image of the d-crosspolytope; only map 5, whose row 0 lies so near
    # the span of the others that |2 chi| is a tenth of its margin, is
    # rechecked, by that minor alone, and it is small, not 0: no map is flat
    rng = np.random.default_rng(50 + d)
    maps = rng.standard_normal((32, d, d))
    maps[5, 0] = near_row(maps[5], True, 0.1, rng)
    rechecked = _assert_minors_route_rows(monkeypatch, maps, True, [5])
    assert np.flatnonzero(rechecked).tolist() == [5]
    crosspolytope = [face_count(Family.CROSSPOLYTOPE, d, k) for k in range(d)]
    assert _enumerated_facets(maps, True, _Workspace())[1].tolist() == [crosspolytope] * 32


@pytest.mark.parametrize("d", range(2, _MAX_HULL_DIM + 1))
def test_symmetric_minors_route_flags_points_near_facets_only(monkeypatch, d):
    # a candidate is decided on its worst outside point, so a point near the
    # hyperplane of a candidate that is no facet is not rechecked.  At
    # n = d + 1, one outside point per candidate, and at the largest n the
    # route takes: in maps 0, 3, 6, ... row 0 lies a tenth of the margin off
    # the hyperplane through rows 1..d, inside their simplex, and the cloud
    # is rechecked exactly where that hyperplane is a facet; in maps 1, 4,
    # 7, ... row 0 lies as near a facet's hyperplane of the hull of the other
    # rows and their negatives, and the cloud is always rechecked.  The
    # placed rows are the exact oracle's
    rng = np.random.default_rng(40 + d)
    for n in sorted({d + 1, _largest_enumerated_n("symmetric", d)}):
        maps = rng.standard_normal((48, n, d))
        facets = []
        for c in range(0, 48, 3):
            maps[c, 0] = near_row(maps[c], False, 0.1, rng)
            # the hyperplane a x = 1 through rows 1..d is a facet iff no other row has |a x| > 1
            beyond = np.abs(maps[c, d + 1 :] @ np.linalg.solve(maps[c, 1 : d + 1], np.ones(d))).max(initial=0.0)
            assert abs(beyond - 1) > 1e-3
            facets.append(bool(beyond < 1))
        for c in range(1, 48, 3):
            maps[c, 0] = near_row(maps[c], True, 0.1, rng)
        placed = [c for c in range(48) if c % 3 < 2]
        rechecked = _assert_minors_route_rows(monkeypatch, maps, True, placed)
        assert rechecked[0::3].tolist() == facets
        assert rechecked[1::3].all() and not rechecked[2::3].any()
        if n > d + 1:
            assert not all(facets)


@pytest.mark.parametrize("d", range(2, _MAX_HULL_DIM + 1))
def test_simplicial_f_vectors_of_qhull_simplices(d):
    # qhull's hulls of every model one shape past its cap, and of clouds
    # with a point 1e-10..1e-5 off a hyperplane through d others, with and
    # without points inside, against every f_k counted from their simplices
    clouds = []
    for model in sorted(_ORACLE_MODELS):
        n = _largest_enumerated_n(model, d) + 1
        assert not _enumerates(MODEL_TABLE[model], n, d)
        for index in range(6):
            rng = derive_generator(19, SIM_REPLICATION, MODEL_CODES[model], n, d, index, 0)
            clouds.append(model_cloud(model, n, d, rng))
    for cloud in _clouds_near_facet_tolerance(np.random.default_rng(d), 12, d + 4, d):
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
    cloud = _clouds_near_facet_tolerance(np.random.default_rng(6), 12, 10, 6)[10]
    assert rounded_facet_f_vector(cloud) == (10, 42, 96, 128, 96, 32)
    with pytest.raises(DegenerateGeometryError, match="Euler"):
        hull_f_vector(cloud)
    # simulate decides its side tests exactly: it counts the cloud's exact
    # row, the one the rounded grouping finds, and draws nothing again
    model, n, d, seed = "gaussian", 10, 6, 3
    path = (seed, SIM_REPLICATION, MODEL_CODES[model], n, d)
    placed = _key(*path, 1, 0)
    _patch_sample_map(monkeypatch, lambda key, image: cloud if key == placed else image)
    _, rows, degen = _replication_block((model, n, d, seed, 0, 3), _Workspace())
    assert degen == 0
    monkeypatch.undo()
    assert rows[1].tolist() == list(exact_hull_f_vector(cloud)) == [10, 42, 96, 128, 96, 32]
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


def _cross_vertices(d):
    return np.vstack([np.eye(d), -np.eye(d)])


def _icosahedron():
    phi = (1 + math.sqrt(5)) / 2
    base = [(0.0, a, b * phi) for a in (-1, 1) for b in (-1, 1)]
    return np.array([np.roll(v, s) for v in base for s in range(3)])


# simplicial polytopes with their vertices and f-vectors: a polygon, the
# octahedron, the icosahedron, C(7, 4), the simplex and crosspolytopes
_SIMPLICIAL = [
    (np.array([[math.cos(t), math.sin(t)] for t in np.linspace(0, 2 * math.pi, 9)[:-1]]), (8, 8)),
    (_cross_vertices(3), (6, 12, 8)),
    (_icosahedron(), (12, 30, 20)),
    (np.array([[t, t**2, t**3, t**4] for t in np.linspace(-1, 1, 7)]), (7, 21, 28, 14)),  # cyclic C(7, 4)
    (_cross_vertices(4), (8, 24, 32, 16)),
    (np.vstack([np.eye(5), -np.ones(5)]), (6, 15, 20, 15, 6)),
    (_cross_vertices(5), (10, 40, 80, 80, 32)),
    (_cross_vertices(6), (12, 60, 160, 240, 192, 64)),
]


@pytest.mark.parametrize("d", range(2, _MAX_HULL_DIM + 1))
def test_simplicial_f_vectors_of_known_polytopes(d):
    # the simplex, the crosspolytope (vertex j + d b for the sign bit b of
    # coordinate j), cyclic polytopes with 1..4 vertices more than d and the
    # pinned f-vectors of _SIMPLICIAL: the completion on int64 columns and on
    # each hull's Python ints, and for the pinned ones on qhull's hull of
    # their vertices
    cross = np.array([[j + d * b for j, b in enumerate(bits)] for bits in product((0, 1), repeat=d)])
    cyclic = range(d + 1, d + 5)
    hulls = [_subsets(d + 1, d), cross, *(_cyclic_facets(n, d) for n in cyclic)]
    pinned = [(points, f) for points, f in _SIMPLICIAL if len(f) == d]
    rows = np.vstack([distinct_subset_f_vectors(np.concatenate(hulls), [len(h) for h in hulls]),
                      np.array([f for _, f in pinned], dtype=np.int64)])
    known = np.column_stack([np.ones(len(rows), np.int64), rows[:, : d // 2 - 1], rows[:, d - 1]])
    columns = _simplicial_f_vectors(known, d)
    assert columns.dtype == np.int64 and np.array_equal(columns, rows)
    for row in rows.tolist():
        counts = _simplicial_f_vectors(np.array([1, *row[: d // 2 - 1], row[d - 1]]), d).tolist()
        assert counts == row and all(type(f) is int for f in counts)
    assert rows[0].tolist() == [math.comb(d + 1, k + 1) for k in range(d)]
    assert rows[1].tolist() == [2 ** (k + 1) * math.comb(d, k + 1) for k in range(d)]
    for n, row in zip(cyclic, rows[2:]):
        # neighbourly: every set of up to d/2 vertices is a face
        assert row[: d // 2].tolist() == [math.comb(n, k + 1) for k in range(d // 2)]
        if (n, d) in _CYCLIC_F:
            assert tuple(row) == _CYCLIC_F[n, d]
    for points, f in pinned:
        assert hull_f_vector(points).counts == f


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


@pytest.mark.parametrize("n,d", [(n, d) for d in range(2, _MAX_HULL_DIM + 1)
                                 for n in range(d, _MAX_GENERATORS + 1)])
def test_zonotope_counts_match_closed_form(n, d):
    # zonotope_f_vector returns the closed form for generators in general
    # position; the oracle counts the covectors of one Gaussian draw
    g = derive_generator(23, n, d).standard_normal((n, d))
    assert zonotope_f_vector(g).counts == svd_zonotope_f_vector(g)


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


def _placed_generators(d, h):
    # e_1 .. e_{d-1} and (1/2, 0, .., 0, h): their one d x d minor is h, in
    # floats too, and their largest row norm is 1, so the filter margin is
    # exactly _rounding_margin(d) 2^d (filter_margin)
    g = np.eye(d)
    g[d - 1, 0], g[d - 1, d - 1] = 0.5, h
    return g


def _recheck_log(monkeypatch) -> list:
    """A list that every later call of hull._fraction_free appends to: the rows of the map whose minor it decides."""
    log, current = [], []

    def dyadic(rows):
        current[:] = [rows]
        return _dyadic(rows)

    def fraction_free(rows):
        log.append(current[0])
        return _fraction_free(rows)

    monkeypatch.setattr("polyproj.hull._dyadic", dyadic)
    monkeypatch.setattr("polyproj.hull._fraction_free", fraction_free)
    return log


def _cube_row(n, d):
    return tuple(expected_f_cube_closed_form(n, d, k) for k in range(d))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_general_position_tolerance_boundary(monkeypatch, d):
    # the general-position test's float minors are a filter: a minor within
    # the margin is decided again on ints, and only an exact 0 is flat
    margin = filter_margin(_placed_generators(d, 0.0))
    assert margin == _rounding_margin(d) * 2**d
    log = _recheck_log(monkeypatch)
    for factor, rechecked in [(0.0, True), (0.1, True), (10.0, False)]:
        g = _placed_generators(d, factor * margin)
        log.clear()
        if factor == 0.0:
            with pytest.raises(DegenerateGeometryError, match=f"{d} of them on one hyperplane"):
                zonotope_f_vector(g)
        else:
            # d generators in general position span a parallelotope, a d-cube's f-vector
            assert zonotope_f_vector(g).counts == _cube_row(d, d)
        assert log == ([g.tolist()] if rechecked else [])
    # exactly flat whatever the float minor: the last row twice the first Gaussian one
    g = derive_generator(41, d).standard_normal((d, d))
    g[-1] = 2 * g[0]
    with pytest.raises(DegenerateGeometryError):
        zonotope_f_vector(g)


def test_general_position_margin_boundary_is_exact_at_d2(monkeypatch):
    # at d = 2 the minor h of (1, 0) and (1/2, h) is exact, so a minor equal
    # to the margin is rechecked and one ulp above it is not
    margin = filter_margin(_placed_generators(2, 0.0))
    log = _recheck_log(monkeypatch)
    for h, rechecked in [(margin, True), (math.nextafter(margin, math.inf), False)]:
        log.clear()
        assert zonotope_f_vector(_placed_generators(2, h)).counts == (4, 4)
        assert log == ([_placed_generators(2, h).tolist()] if rechecked else [])


@pytest.mark.parametrize("d", [2, 3, 4])
def test_zero_generator_tolerance_boundary(monkeypatch, d):
    # a zero generator makes its minors exactly 0; one scaled by 2^-1000 has
    # minors far within the margin, rechecked and nonzero
    g = derive_generator(41, d).standard_normal((d + 2, d))
    g[0] = 0.0
    with pytest.raises(DegenerateGeometryError):
        zonotope_f_vector(g)
    g = derive_generator(41, d).standard_normal((d + 2, d))
    g[0] *= 2.0**-1000
    log = _recheck_log(monkeypatch)
    assert zonotope_f_vector(g).counts == _cube_row(d + 2, d)
    # the C(d+1, d-1) minors with row 0, each nonzero
    assert log == [g.tolist()] * math.comb(d + 1, d - 1)


@pytest.mark.filterwarnings("error")
def test_overflowing_minors_are_decided_exactly():
    # generators of norm near 2^500 overflow their float minors to inf and
    # NaN, and the margin to inf: every minor is decided on ints instead,
    # and none of NumPy's overflow or invalid-value warnings reaches the caller
    g = derive_generator(43).standard_normal((6, 4)) * 2.0**500
    assert zonotope_f_vector(g).counts == _cube_row(6, 4)
    g[5] = 2 * g[1]
    with pytest.raises(DegenerateGeometryError):
        zonotope_f_vector(g)


def test_zonotope_degenerate_generators():
    with pytest.raises(DegenerateGeometryError):
        zonotope_f_vector(np.ones((4, 3)))  # rank 1
    g = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]])  # parallel pair
    with pytest.raises(DegenerateGeometryError):
        zonotope_f_vector(g)
    with pytest.raises(InvalidDimensionError, match="general-position test capped at n = 15 generators"):
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
    # to the cloud; every model's map is its stream's Gaussian matrix G, and a
    # projected model's orthonormal frame is the Q of G = QR, R upper
    # triangular with a positive diagonal
    row = MODEL_TABLE[model]
    cloud_map = _one_map(n, 3, 7, 2)
    assert cloud_map.shape == (n, 3)
    assert vertices(row.family, n - row.shift).shape == (rows, n)
    assert cloud_map.tobytes() == derive_generator(7, 2).standard_normal((n, 3)).tobytes()
    if not row.gaussian:
        frame = random_orthonormal_frame(n, 3, derive_generator(7, 2))
        assert np.allclose(frame.T @ frame, np.eye(3), atol=1e-12)
        r = frame.T @ cloud_map
        assert np.allclose(frame @ r, cloud_map, atol=1e-12)
        assert np.allclose(np.tril(r, -1), 0.0, atol=1e-12) and (np.diagonal(r) > 0).all()


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
            image = _one_map(n, d, 5, index)
            if row.family is Family.CUBE:  # the zonotope of the map's rows
                fv = zonotope_f_vector(image)
            else:  # the hull of the map's rows, with their negatives for the crosspolytope
                fv = hull_f_vector(symmetrize(image) if row.family is Family.CROSSPOLYTOPE else image)
            assert fv == hull_f_vector(model_cloud(model, n, d, derive_generator(5, index)))


def test_sim_config_caps_replications_at_one_stream_word():
    # a replication index is one SeedSequence word of its stream key; the
    # 2^26-entry cap on the f-vector rows keeps it there, since d >= 2
    assert SimConfig(model="gaussian", n=5, d=2, replications=2**25).replications == 2**25
    for reps in (2**25 + 1, 2**32, 2**32 + 1, np.uint64(2**32 + 1), 2**64):
        with pytest.raises(InvalidArgumentError, match="replications x d must be <= 2\\^26"):
            SimConfig(model="gaussian", n=5, d=2, replications=reps)


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
        assert SimConfig(model=model, n=n, d=6, replications=2).n == n
        with pytest.raises(InvalidDimensionError, match=f"capped at {_MAX_POINTS} hull points"):
            SimConfig(model=model, n=n + 1, d=3, replications=2)
    with pytest.raises(InvalidDimensionError, match="got 100000000000 at n = 100000000000"):
        SimConfig(model="gaussian", n=10**11, d=3, replications=2)


def test_sim_config_validation():
    with pytest.raises(InvalidArgumentError):
        SimConfig(model="icosahedron", n=5, d=3, replications=2)
    with pytest.raises(InvalidDimensionError):
        SimConfig(model="gaussian", n=9, d=1, replications=2)
    with pytest.raises(InvalidDimensionError):
        SimConfig(model="gaussian", n=9, d=7, replications=2)
    with pytest.raises(InvalidDimensionError):
        SimConfig(model="gaussian", n=3, d=3, replications=2)  # needs n >= d+1
    with pytest.raises(InvalidDimensionError):
        SimConfig(model="zonotope", n=16, d=3, replications=2)
    with pytest.raises(InvalidArgumentError):
        SimConfig(model="gaussian", n=5, d=2, replications=0)
    # a standard error takes two replications: one would report 0 for a random mean
    with pytest.raises(InvalidArgumentError, match="replications must be >= 2, got 1"):
        SimConfig(model="gaussian", n=5, d=2, replications=1)
    assert SimConfig(model="gaussian", n=5, d=2, replications=2).replications == 2
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


def test_simulate_workers_1_2_3_agree_in_real_pools(monkeypatch, tmp_path):
    # 1301 replications are three 512-replication units: one worker, two
    # shares (650 and 651) and three (433, 434 and 434), none a whole number
    # of the shape's 87-map chunks, give equal estimates, degenerate counts
    # and dump bytes
    monkeypatch.setattr("polyproj.hull._usable_cpus", lambda: 3)
    found = []
    for workers in (1, 2, 3):
        dump = tmp_path / f"w{workers}.csv"
        cfg = SimConfig(model="symmetric", n=8, d=4, replications=1301, seed=3, workers=workers)
        result = simulate_expected_f(cfg, dump_path=str(dump))
        found.append((result.means, result.degenerate_events, dump.read_bytes()))
    assert found[1] == found[0] and found[2] == found[0]


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
    # simulate imports the pool class when it starts one
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    for cpus, r, workers, pool in [(64, 10, 64, None), (64, 1100, 64, 3), (64, 1100, 2, 2),
                                   (64, 1100, 1, None), (2, 1100, 5000, 2), (1, 1100, 5000, None)]:
        monkeypatch.setattr("polyproj.hull._usable_cpus", lambda: cpus)
        pools.clear()
        result = simulate_expected_f(SimConfig(**base, replications=r, workers=workers))
        # one block, one worker or one CPU runs in this process
        assert pools == ([] if pool is None else [pool])
        assert result.means == alone[r].means
        assert result.degenerate_events == alone[r].degenerate_events


@pytest.mark.parametrize("model,n,d", [("gaussian", 10, 3), ("symmetric", 8, 4), ("zonotope", 8, 3), ("gaussian", 18, 3)])
def test_blocking_does_not_change_rows(monkeypatch, model, n, d):
    # one block over every replication, blocks of _BLOCK, and three uneven
    # shares give the same rows and degenerate count, on the minors route of
    # both hull types, for a cube model and past the cap on qhull.  Flat
    # draws are forced at attempt 0 of replications on either side of the
    # block and share edges, and at attempt 1 of one of them
    assert _enumerates(MODEL_TABLE[model], n, d) == (n < 18)
    r = 1100
    flat = {(i, 0) for i in (0, 366, 367, 511, 512, r - 1)} | {(512, 1)}
    _patch_sample_map(monkeypatch, _flattening(model, n, d, 13, flat))
    bounds = [0, 366, 733, r]
    layouts = {
        "one": [(0, r)],
        "blocks": [(lo, min(lo + _BLOCK, r)) for lo in range(0, r, _BLOCK)],
        "shares": list(zip(bounds, bounds[1:])),
    }
    found = {}
    for name, blocks in layouts.items():
        work = _Workspace()
        parts = [_replication_block((model, n, d, 13, lo, hi), work) for lo, hi in blocks]
        assert [lo for lo, _, _ in parts] == [lo for lo, _ in blocks]
        found[name] = (np.concatenate([rows for _, rows, _ in parts]), sum(degen for _, _, degen in parts))
    rows, degen = found["one"]
    assert degen == len(flat) and rows.shape == (r, d) and rows.all()
    for name in ("blocks", "shares"):
        assert np.array_equal(found[name][0], rows) and found[name][1] == degen


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
    # 2 (the fewest simulate takes), 511, 512 and 513 replications sit on
    # either side of a block edge; replication i's row does not depend on how
    # many there are
    n = d + _BLOCK_ORACLE_EXTRA_N[model]
    rows, degenerate = per_replication_rows(model, n, d, 17, 513)
    dump = tmp_path / "rows.csv"
    for r, workers in [(2, 1), (511, 1), (512, 1), (513, 1), (513, 2)]:
        cfg = SimConfig(model=model, n=n, d=d, replications=r, seed=17, workers=workers)
        result = simulate_expected_f(cfg, dump_path=str(dump))
        assert result.degenerate_events == degenerate[:r].sum()
        dumped = np.loadtxt(dump, delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)
        assert np.array_equal(dumped[:, 0], np.arange(r))
        assert np.array_equal(dumped[:, 1:], rows[:r])
        assert result.means[d - 1].value == float(rows[:r, d - 1].mean())


def _one_map(n, d, *path):
    """The n x d map on the stream (*path), drawn by _sample_maps as simulate draws it."""
    bitgen = Philox(key=0)
    keys = derive_keys(*path[:-1], np.array(path[-1:]))
    return _sample_maps(keys, bitgen, Generator(bitgen), np.empty((1, n, d)))[0]


def _key(*path):
    """The Philox key, as a tuple of ints, of the stream (*path)."""
    return tuple(SeedSequence(path).generate_state(2, np.uint64).tolist())


def _patch_sample_map(monkeypatch, edit):
    """Draw every map with _sample_maps, then replace it by edit(key, map), key the map's Philox key as ints."""

    def sample_maps(keys, bitgen, rng, out):
        _sample_maps(keys, bitgen, rng, out)
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
# the minors route, its exact recheck and the qhull route


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
# for the crosspolytope images), crosspolytope images at d = 5, the
# benchmark's gaussian n=10 d=3 and symmetric n=8 d=4, and simplex images near
# the cap at d = 3 and 6
_MINORS_GRID = [
    ("gaussian", 3, 2), ("gaussian", 7, 2), ("gaussian", 4, 3), ("gaussian", 10, 3),
    ("gaussian", 5, 4), ("gaussian", 6, 5), ("gaussian", 8, 6), ("gaussian", 12, 6),
    ("symmetric", 2, 2), ("symmetric", 6, 2), ("symmetric", 3, 3), ("symmetric", 8, 4),
    ("symmetric", 5, 5), ("symmetric", 6, 5), ("symmetric", 6, 6),
    ("projected_simplex", 3, 2), ("projected_simplex", 6, 3), ("projected_simplex", 7, 5),
    ("projected_simplex", 17, 3),
    ("projected_crosspolytope", 2, 2), ("projected_crosspolytope", 4, 3),
    ("projected_crosspolytope", 5, 5), ("projected_crosspolytope", 6, 5),
]


@pytest.mark.parametrize("model,n,d", _MINORS_GRID)
def test_minors_route_matches_per_replication_oracle(model, n, d, tmp_path):
    assert _enumerates(MODEL_TABLE[model], n, d)
    _assert_simulate_matches_oracle(model, n, d, 29, 300, tmp_path)


# past _ENUM_CAP every draw goes to qhull; 513 replications cross a block edge
_QHULL_GRID = [("gaussian", 18, 3), ("projected_simplex", 18, 3), ("symmetric", 11, 4),
               ("projected_crosspolytope", 11, 4)]


@pytest.mark.parametrize("model,n,d", _QHULL_GRID)
def test_qhull_route_matches_per_replication_oracle(model, n, d, tmp_path):
    assert not _enumerates(MODEL_TABLE[model], n, d)
    _assert_simulate_matches_oracle(model, n, d, 31, 513, tmp_path)


@pytest.mark.parametrize("d", range(2, _MAX_HULL_DIM + 1))
@pytest.mark.parametrize("model", sorted(_ORACLE_MODELS) + ["projected_cube", "zonotope"])
def test_workspace_leaks_nothing_across_chunks(monkeypatch, model, d):
    # one block of maps in chunks that share a workspace whose every byte is
    # set before each chunk is drawn (NaN in every float), the last chunk
    # short: 16, 16 and 9 maps.  In the first chunk maps 1 and 2 have row 0
    # placed a tenth of the margin off the hyperplane through rows 1..d, near
    # enough for the exact recheck (for the symmetric hull with n > d off one
    # of its facets, the only hyperplanes it rechecks, and at n = d off the
    # span of rows 1..d-1), or a cube map's row 0 twice its row 1, exactly
    # flat, so it is drawn again.  The block's rows and
    # degenerate count are those of each map decided in a block of its own
    row = MODEL_TABLE[model]
    cube = row.family is Family.CUBE
    symmetric = row.family is Family.CROSSPOLYTOPE
    count = _flat_generators if cube else _enumerated_facets
    chunk, block = 16, 41
    found = []

    def recorded(*args):
        result = count(*args)
        found.append(result if cube else _rechecked(monkeypatch, args[0], symmetric))
        return result

    monkeypatch.setattr("polyproj.hull._chunk_size", lambda row, n, d: chunk)
    monkeypatch.setattr(f"polyproj.hull.{count.__name__}", recorded)
    largest = _MAX_GENERATORS if cube else _largest_enumerated_n(model, d)
    for n in sorted({d + row.shift, largest}):
        assert cube or _chunk_size(row, n, d) >= chunk
        path = (7, SIM_REPLICATION, MODEL_CODES[model], n, d)
        moved = {_key(*path, i, 0) for i in (1, 2)}
        work = _Workspace()

        def poisoned_draw(keys, bitgen, rng, out):
            for buffer in work.buffers.values():
                buffer.view(np.uint8).fill(0xFF)
            _sample_maps(keys, bitgen, rng, out)
            for j, key in enumerate(keys.tolist()):
                if tuple(key) not in moved:
                    continue
                if cube:
                    out[j, 0] = 2 * out[j, 1]
                else:
                    out[j, 0] = near_row(out[j], symmetric, 0.1, np.random.default_rng(j))
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
    ("gaussian", 9, 5, [11633, 44141, 86234, 85210, 34084]),
    ("gaussian", 10, 6, [12990, 57470, 142403, 204809, 160329, 53443]),
    ("symmetric", 7, 5, [17854, 92656, 218084, 234470, 93788]),
    ("symmetric", 7, 6, [18128, 105444, 318332, 518416, 431100, 143700]),
    ("projected_simplex", 10, 3, [10647, 24141, 16094]),
    ("projected_crosspolytope", 8, 4, [18236, 75286, 114100, 57050]),
    ("projected_simplex", 10, 6, [12978, 57378, 142119, 204357, 159957, 53319]),
    ("projected_crosspolytope", 7, 6, [18150, 105500, 318238, 517964, 430614, 143538]),
    ("symmetric", 8, 6, [20644, 134758, 441070, 752640, 638526, 212842]),
    ("symmetric", 9, 3, [15008, 37224, 24816]),
    ("symmetric", 19, 2, [9892, 9892]),
    ("symmetric", 10, 4, [21178, 92602, 142848, 71424]),
    ("symmetric", 9, 5, [22312, 132822, 334168, 368430, 147372]),
    ("symmetric", 13, 3, [17640, 45120, 30080]),
    ("symmetric", 23, 2, [10288, 10288]),
    ("symmetric", 5, 5, [13000, 52000, 104000, 104000, 41600]),
])
def test_benchmark_shapes_keep_their_counts(model, n, d, sums, tmp_path):
    # the hull_sim workload's minors-route shapes, and one d = 5 and one d = 6
    # minors-route shape of each hull type, over two whole blocks and a short
    # third one: the column sums of their dump rows, pinned for the first two
    # when every chunk allocated its own temporaries, for the next four when
    # every index table was in lex order; the projected twins of the first two
    # and two d = 6 projected shapes were pinned when simulate still counted
    # them on their QR frames, so these check that counting them on the
    # frames' Gaussian matrices changed no row.  The last three, the largest
    # symmetric n at d = 6, 3 and 2, were pinned when a symmetric cloud went
    # to qhull for a point near any candidate's hyperplane, not only near its
    # facets'.  The next five, the largest symmetric n at d = 4, 5, 3 and 2
    # and n = d = 5 (no outside point), were pinned when the symmetric side
    # sums were built for every outside point at once
    dump = tmp_path / "rows.csv"
    cfg = SimConfig(model=model, n=n, d=d, replications=2 * _BLOCK + 276, seed=5)
    assert simulate_expected_f(cfg, dump_path=str(dump)).degenerate_events == 0
    rows = np.loadtxt(dump, delimiter=",", skiprows=1, dtype=np.int64)
    assert rows[:, 0].tolist() == list(range(cfg.replications))
    assert rows[:, 1:].sum(axis=0).tolist() == sums


def test_enumeration_cap_sends_large_shapes_to_qhull(monkeypatch):
    # one cap in side tests per cloud for simplex and crosspolytope images;
    # cube shapes take the route up to their own cap
    for n, d in ((10, 3), (14, 3), (17, 3), (11, 6), (12, 6)):
        assert _enumerates(MODEL_TABLE["gaussian"], n, d)
    assert _enumerates(MODEL_TABLE["symmetric"], 8, 4)
    assert _enumerates(MODEL_TABLE["symmetric"], 10, 4)
    for n, d in ((18, 3), (13, 6), (30, 2)):
        assert not _enumerates(MODEL_TABLE["gaussian"], n, d)
    assert not _enumerates(MODEL_TABLE["symmetric"], 11, 4)
    # the cap takes a shape at its value and refuses it one below, for either hull type
    for model in ("gaussian", "symmetric"):
        tests = _side_tests(MODEL_TABLE[model], 12, 3)
        monkeypatch.setattr("polyproj.hull._ENUM_CAP", tests)
        assert _enumerates(MODEL_TABLE[model], 12, 3)
        monkeypatch.setattr("polyproj.hull._ENUM_CAP", tests - 1)
        assert not _enumerates(MODEL_TABLE[model], 12, 3)
        monkeypatch.undo()
    for model in ("zonotope", "projected_cube"):
        assert _enumerates(MODEL_TABLE[model], 3, 3)
        assert _enumerates(MODEL_TABLE[model], 15, 6)


@pytest.mark.parametrize("d", range(2, _MAX_HULL_DIM + 1))
def test_enumeration_margin_bounds_side_test_rounding(d):
    # the bound the float filter relies on: a minor chi(I) of d rows and a
    # lifted minor D(J) of d + 1, summed by Laplace in at most
    # (d+1)(d+2)/2 rounded steps, err by at most (d+1)! gamma_{(d+1)(d+2)/2}
    # times the largest product of the norms of d of their rows, and the
    # cloud's margin is at least twice that for every minor.  Checked
    # against the exact determinants on clouds whose point norms span
    # 2^-20..2^20
    steps = (d + 1) * (d + 2) // 2
    bound = math.factorial(d + 1) * steps * 2.0**-53 / (1 - steps * 2.0**-53)
    rng = np.random.default_rng(60 + d)
    m = d + 3
    maps = rng.standard_normal((40, m, d)) * 2.0 ** rng.integers(-20, 21, (40, m, 1))
    x = np.ascontiguousarray(maps.transpose(1, 2, 0))
    work = _Workspace()
    chi = _minors(x, work).copy()
    lifted = _lifted_minors(chi, m, d, work)
    norms = np.linalg.norm(maps, axis=2)
    inexact = 0
    for c, cloud in enumerate(maps):
        ints = _dyadic([[*p, 1.0] for p in cloud.tolist()])
        one = ints[0][d]  # 1.0 over the shared power of two
        margin = Fraction(filter_margin(cloud))
        for k, values in ((d, chi[:, c]), (d + 1, lifted[:, c])):
            for rows, value in zip(_subsets(m, k).tolist(), values.tolist()):
                exact = Fraction(_fraction_free([ints[i][:k] for i in rows])[0], one**k)
                product = np.prod(norms[c, rows]) / (norms[c, rows].min() if k > d else 1.0)
                error = abs(Fraction(value) - exact)
                assert error <= Fraction(bound) * Fraction(product)
                assert margin >= 2 * Fraction(bound) * Fraction(product)
                inexact += error > 0
    assert inexact


@pytest.mark.parametrize("d", range(2, _MAX_HULL_DIM + 1))
def test_enumeration_margin_bounds_symmetric_side_sum_rounding(d):
    # the symmetric hull's side test is |chi(I)| against the worst
    # |sum_p eps_p c_ap|, each c_ap a minor within the bound above of its
    # exact value, summed by one product with the sign vectors in d - 1 more
    # rounded steps.  With V = prod_{p>=1} (|x_{I_p}| + |x_{I_0}|), which
    # bounds |chi(I)| and every |c_ap| / R, the worst value of each eps*I as
    # _worst_sums forms it errs by at most (d+1)! gamma_{(d+1)(d+2)/2} (1+R) V,
    # and the cloud's margin is at least twice that for every I, room for
    # both operands of the test, the worst value and |chi(I)|.  Checked
    # against the exact sums on clouds whose point norms span 2^-20..2^20,
    # sign vector e taking eps_0 = +1 and eps_p = -1 where bit p-1 of e is set
    steps = (d + 1) * (d + 2) // 2
    bound = math.factorial(d + 1) * steps * 2.0**-53 / (1 - steps * 2.0**-53)
    rng = np.random.default_rng(70 + d)
    m = d + 3
    maps = rng.standard_normal((24, m, d)) * 2.0 ** rng.integers(-20, 21, (24, m, 1))
    work = _Workspace()
    worst = _worst_sums(_minors(np.ascontiguousarray(maps.transpose(1, 2, 0)), work).copy(), m, d, work)
    norms = np.linalg.norm(maps, axis=2)
    table = _side_table(m, d)
    signs = np.array([[1, *(-1 if e >> (p - 1) & 1 else 1 for p in range(1, d))] for e in range(1 << (d - 1))], dtype=object)
    inexact = 0
    for c, cloud in enumerate(maps):
        ints = _dyadic([[*p, 1.0] for p in cloud.tolist()])
        scale = ints[0][d] ** d  # 1.0 over the shared power of two, to the d
        exact = [_fraction_free([ints[i][:d] for i in rows])[0] for rows in _subsets(m, d).tolist()]
        # every exact sum, shape (outside point, sign vector, I), over scale
        sums = signs @ np.array(exact + [-v for v in exact], dtype=object)[table]
        for r, rows in enumerate(_subsets(m, d).tolist()):
            volume = np.prod(norms[c, rows[1:]] + norms[c, rows[0]]) * (1 + norms[c].max())
            assert filter_margin(cloud) >= 2 * Fraction(bound) * Fraction(volume)
            limit = Fraction(bound) * Fraction(volume) * scale
            for e, value in enumerate(np.abs(sums[:, :, r]).max(axis=0).tolist()):
                error = abs(Fraction(worst[e, r, c]) * scale - value)
                assert error <= limit
                inexact += error > 0
    assert inexact


def _routed_block(monkeypatch, model, cloud_map):
    """Row 0 of a one-replication block whose map is cloud_map, and whether it was rechecked exactly.

    The map is drawn once and never reaches qhull.
    """
    draws = []

    def drawing(key, image):
        draws.append(key)
        return cloud_map

    def no_qhull(points):
        raise AssertionError("a minors-route cloud reached qhull")

    _patch_sample_map(monkeypatch, drawing)
    monkeypatch.setattr("polyproj.hull._qhull_f_vector", no_qhull)
    calls = _dyadic_calls(monkeypatch)
    n, d = cloud_map.shape
    _, rows, degen = _replication_block((model, n, d, 0, 0, 1), _Workspace())
    assert degen == 0
    assert len(draws) == 1
    return tuple(rows[0].tolist()), bool(calls)


# a point well within the facet tolerance (far past the margin), within the margin, at it, one ulp past it and past it
_PLACEMENTS = [("merged", False), ("inside", True), ("margin", True), ("ulp", False), ("outside", False)]


def _placement(where, margin):
    """The offset of the test point: margin is the largest one the float side test rechecks."""
    return {"merged": 0.1 * _FACET_TOL, "inside": 0.9 * margin, "margin": margin,
            "ulp": np.nextafter(margin, 1.0), "outside": 1.1 * margin}[where]


@pytest.mark.parametrize("where,rechecked", _PLACEMENTS)
def test_enumeration_margin_boundary_simplex_type(monkeypatch, where, rechecked):
    # p lies at distance h below the segment ab, and D(a, b, p) = -2h and the
    # margin _rounding_margin(2) (1 + R) 2R = 4 _rounding_margin(2) (R = 1)
    # are exact in floats: the cloud is rechecked exactly when
    # h <= 2 _rounding_margin(2).  Every h gives the quadrilateral, on floats
    # past the margin; qhull merges the edges ap and pb at every h here, all
    # at most _FACET_TOL / 10
    h = _placement(where, 2 * _rounding_margin(2))
    cloud = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, -h]])
    assert hull_f_vector(cloud).counts == (3, 3)
    counts, exact = _routed_block(monkeypatch, "gaussian", cloud)
    assert exact is rechecked
    assert counts == exact_hull_f_vector(cloud) == (4, 4)


@pytest.mark.parametrize("where,rechecked", _PLACEMENTS)
def test_enumeration_margin_boundary_crosspolytope_type(monkeypatch, where, rechecked):
    # p = (q, q) lies at distance h = sqrt(2) (q - 1/2) outside the segment
    # from a = e_1 to c = e_2.  Its side value at the facet {a, c} is 2q - 1,
    # exact in floats, and the margin _rounding_margin(2) (1 + R) 2R =
    # 4 _rounding_margin(2) with R = 1, so the cloud is rechecked exactly when
    # q - 1/2 <= 2 _rounding_margin(2), h <= 2 sqrt(2) _rounding_margin(2);
    # "margin" is the largest float q within it.  Every h gives the hexagon,
    # on floats past the margin; qhull merges ap with pc, and their
    # antipodes, at every h here, all at most _FACET_TOL / 10
    rounding = _rounding_margin(2)
    top = 0.5 + 2 * rounding
    while 2 * top - 1 > 4 * rounding:
        top = np.nextafter(top, 0.0)
    if where in ("margin", "ulp"):
        q = top if where == "margin" else np.nextafter(top, 1.0)
    else:
        q = 0.5 + _placement(where, 2 * math.sqrt(2) * rounding) / math.sqrt(2)
    cloud = np.array([[1.0, 0.0], [0.0, 1.0], [q, q]])
    assert hull_f_vector(symmetrize(cloud)).counts == (4, 4)
    counts, exact = _routed_block(monkeypatch, "symmetric", cloud)
    assert exact is rechecked
    assert counts == exact_hull_f_vector(cloud, True) == (6, 6)


# [A | B] with A square, as floats: 0.0, -0.0, the least subnormal (a zero
# pivot swapped for a subnormal one), 2^1023 and 2^-1074 with ordinary entries
# in one matrix, and integers whose zero pivots at steps 0 and 1 need row swaps
_EXACT_MATRICES = [
    [[0.0, 1.0, 2.0, -0.0, 5e-324], [-0.0, 3.0, 1.0, 1.0, 0.0], [5e-324, -2.5, 0.5, 2.0**-1074, -1.0]],
    [[2.0**1023, 1.0, 0.0, 1.0, -0.0], [2.0**-1074, -0.0, 3.0, 2.0**1023, 1.0],
     [1.5, 2.0**-1074, 2.0**-1000, 0.5, 7e-310]],
    [[2.0**-1074, 7e-310, 1.0, 1e300, 2.0**-1074], [1e-300, 2.0**1023, -3.0, 0.0, 1.0],
     [0.25, 1e300, 2.0**-1074, -1.0, 3.0]],
    [[0.0, 0.0, 2.0, 1.0, 1.0, 0.0], [1.0, 0.0, 3.0, 0.0, 2.0, 1.0], [2.0, 1.0, 6.0, 1.0, 0.0, 1.0],
     [1.0, 3.0, 5.0, 5.0, 1.0, -1.0]],
]


def _power_of_two(q: Fraction) -> bool:
    return q > 0 and q.numerator & (q.numerator - 1) == 0 and q.denominator & (q.denominator - 1) == 0


@pytest.mark.parametrize("matrix", _EXACT_MATRICES)
def test_dyadic_entries_share_one_power_of_two(matrix):
    ints = _dyadic(matrix)
    assert all(type(v) is int for row in ints for v in row)
    pairs = [(v, x) for row, floats in zip(ints, matrix) for v, x in zip(row, floats)]
    assert all(v == 0 for v, x in pairs if x == 0)
    ratios = {Fraction(v) / Fraction(x) for v, x in pairs if x}
    assert len(ratios) == 1 and _power_of_two(ratios.pop())


@pytest.mark.parametrize("matrix", _EXACT_MATRICES)
def test_fraction_free_elimination_matches_leibniz_oracle(matrix):
    # det A, up to the positive power of two of the conversion, and Cramer's
    # numerators over it: det A with column p replaced by column a of B
    k = len(matrix)
    det, numerators = _fraction_free(_dyadic(matrix))
    exact = leibniz_det([row[:k] for row in matrix])
    assert exact and _power_of_two(Fraction(det) / exact)
    for a in range(len(matrix[0]) - k):
        for p in range(k):
            replaced = [[*row[:p], row[k + a], *row[p + 1 : k]] for row in matrix]
            assert Fraction(numerators[p][a], det) == leibniz_det(replaced) / exact


def test_fraction_free_elimination_of_singular_and_swapped_int_matrices():
    # zero pivots at step 0 (a swap from row 2) and at step 1 (after one
    # elimination), a singular matrix and a zero column
    for matrix, det in [([[0, 2, 1], [0, 1, 3], [4, 1, 1]], 20), ([[1, 2, 3], [2, 4, 7], [1, 3, 5]], -1),
                        ([[1, 2, 3], [2, 4, 6], [1, 3, 5]], 0), ([[0, 1], [0, 2]], 0)]:
        assert _fraction_free(matrix)[0] == det == leibniz_det(matrix)
    assert _fraction_free([[1, 2, 3, 5], [2, 4, 6, 1], [1, 3, 5, 2]]) == (0, [[0], [0], [0]])


# clouds with a side test exactly 0: six dyadic points on the plane z = x + y;
# the square base of a pyramid, four points on one facet's hyperplane; two rows
# with the origin on one line, chi = 0; and (1/2, 1/2) on the hyperplane of
# the symmetric hull's facet through e_1 and e_2
_EXACTLY_FLAT = [
    ("gaussian", [[0.5, 0.25, 0.75], [1.0, -2.0, -1.0], [0.125, 3.0, 3.125], [-1.5, 0.5, -1.0],
                  [2.0, 2.0, 4.0], [-0.25, -0.75, -1.0]]),
    ("gaussian", [[1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [-1.0, -1.0, 0.0], [0.0, 0.0, 1.0],
                  [0.25, -0.5, 0.5]]),
    ("symmetric", [[0.5, -1.5], [1.0, -3.0], [2.0, 1.0]]),
    ("symmetric", [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]),
]


@pytest.mark.parametrize("model,cloud", _EXACTLY_FLAT)
def test_exactly_flat_clouds_are_drawn_again(monkeypatch, model, cloud):
    # the route flags such a cloud flat, as the exact oracle does, and
    # simulate draws the replication again from its next attempt
    cloud = np.array(cloud)
    symmetric = model == "symmetric"
    flat, rows = _enumerated_facets(cloud[None], symmetric, _Workspace())
    assert flat.tolist() == [True] and rows.shape == (0, cloud.shape[1])
    assert exact_hull_f_vector(cloud, symmetric) is None
    n, d = cloud.shape
    path = (9, SIM_REPLICATION, MODEL_CODES[model], n, d)
    placed = _key(*path, 1, 0)
    _patch_sample_map(monkeypatch, lambda key, image: cloud if key == placed else image)
    _, rows, degen = _replication_block((model, n, d, 9, 0, 3), _Workspace())
    assert degen == 1
    assert tuple(rows[1].tolist()) == exact_hull_f_vector(_one_map(n, d, *path, 1, 1), symmetric)


def _clouds_within_rounding_of_an_edge(symmetric, count=200):
    """Planar clouds with p = a + t (b - a) rounded, within an ulp or so of the line through a and b.

    For the rows' hull a third point c lies 1 off the middle of ab, so ab is
    an edge; for the symmetric hull ab is always one.  Rounding puts p
    outside that edge, inside it or exactly on it.
    """
    rng = np.random.default_rng(23 + symmetric)
    clouds = []
    for _ in range(count):
        a, b = rng.standard_normal((2, 2))
        p = a + rng.uniform(0.2, 0.8) * (b - a)
        if symmetric:
            clouds.append([a, b, p])
        else:
            normal = np.array([a[1] - b[1], b[0] - a[0]])
            clouds.append([a, b, (a + b) / 2 + normal / np.linalg.norm(normal), p])
    return np.array(clouds)


@pytest.mark.parametrize("symmetric", [False, True])
def test_exact_recheck_decides_points_within_rounding_of_an_edge(symmetric):
    # the floats cannot always tell these clouds' sides apart: every row is
    # the exact oracle's, which finds p outside the edge and inside it
    maps = _clouds_within_rounding_of_an_edge(symmetric)
    flat, rows = _enumerated_facets(maps, symmetric, _Workspace())
    exact = [exact_hull_f_vector(cloud, symmetric) for cloud in maps]
    assert not flat.any() and rows.tolist() == [list(row) for row in exact]
    assert set(exact) == ({(4, 4), (6, 6)} if symmetric else {(3, 3), (4, 4)})
    if not symmetric:
        # and the float minor of a, b and p has the wrong sign, or none, on some of them
        x = np.ascontiguousarray(maps.transpose(1, 2, 0))
        work = _Workspace()
        lifted = _lifted_minors(_minors(x, work), 4, 2, work)[_subsets(4, 3).tolist().index([0, 1, 3])]
        signs = [leibniz_det([[*cloud[i], 1.0] for i in (0, 1, 3)]) for cloud in maps]
        assert any(np.sign(f) != (v > 0) - (v < 0) for f, v in zip(lifted, signs))


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


def _cube_chunk_with(monkeypatch, n, d, placed_map):
    """A 16-map zonotope chunk, seed 7, whose replication 5 draws placed_map at attempt 0.

    Checks that every row is the closed form, and returns the block's
    degenerate count, whether replication 5 was drawn again, and the maps
    whose minors reached hull._fraction_free.
    """
    model, seed, placed = "zonotope", 7, 5
    assert _chunk_size(MODEL_TABLE[model], n, d) >= 16
    path = (seed, SIM_REPLICATION, MODEL_CODES[model], n, d)
    placed_key = _key(*path, placed, 0)
    drawn = []

    def placing(key, image):
        drawn.append(key)
        return placed_map if key == placed_key else image

    _patch_sample_map(monkeypatch, placing)
    # zonotope_f_vector is never called: the chunk runs its own test
    monkeypatch.setattr("polyproj.hull.zonotope_f_vector", None)
    log = _recheck_log(monkeypatch)
    _, rows, degen = _replication_block((model, n, d, seed, 0, 16), _Workspace())
    keys = [tuple(k) for k in derive_keys(*path, np.arange(16), 0).tolist()]
    assert drawn in (keys, keys + [_key(*path, placed, 1)])
    assert rows.tolist() == [list(_cube_row(n, d))] * 16
    return degen, len(drawn) > 16, log


@pytest.mark.parametrize("factor,resampled", [(0.0, True), (0.1, False), (10.0, False)])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_cube_general_position_boundary_inside_a_chunk(monkeypatch, d, factor, resampled):
    # replication 5 of a 16-map chunk draws d generators whose one d x d
    # minor is factor times the filter margin (_placed_generators); every
    # other map is a Gaussian draw, none of them rechecked.  The flat map is
    # drawn again from attempt 1 in the next round, the others keep the
    # closed form, and only those within the margin reach the recheck
    g = _placed_generators(d, factor * filter_margin(_placed_generators(d, 0.0)))
    degen, again, log = _cube_chunk_with(monkeypatch, d, d, g)
    assert (degen, again) == (int(resampled), resampled)
    assert log == ([g.tolist()] if factor <= 1 else [])


@pytest.mark.parametrize("placement", ["margin", "ulp", "zero", "tiny"])
def test_cube_exact_boundaries_inside_a_chunk(monkeypatch, placement):
    # at d = 2 a minor equal to the margin is rechecked and one ulp above it
    # is not; at d = 3, n = 5 a zero generator's map is drawn again, and one
    # scaled by 2^-1000 keeps the closed form after its C(4, 2) minors with
    # row 0 are rechecked
    if placement in ("margin", "ulp"):
        n = d = 2
        margin = filter_margin(_placed_generators(2, 0.0))
        g = _placed_generators(2, margin if placement == "margin" else math.nextafter(margin, math.inf))
        rechecked = [g.tolist()] if placement == "margin" else []
    else:
        n, d = 5, 3
        g = derive_generator(41, d).standard_normal((n, d))
        g[0] = 0.0 if placement == "zero" else g[0] * 2.0**-1000
        rechecked = [g.tolist()] * 6
    degen, again, log = _cube_chunk_with(monkeypatch, n, d, g)
    flat = placement == "zero"
    assert (degen, again) == (int(flat), flat)
    # the zero map's recheck stops at its first minor, exactly 0
    assert log == (rechecked[:1] if flat else rechecked)


def test_side_table_matches_permutation_oracle():
    # read off the ray tables, the table is the one the sign of each permutation gives
    for d in range(2, _MAX_HULL_DIM + 1):
        for m in range(d, 13):
            table = _side_table(m, d)
            assert table.shape == (m - d, d, math.comb(m, d)) and table.flags.c_contiguous
            assert np.array_equal(table, side_table_by_permutations(m, d).transpose(2, 0, 1))


def test_lifted_side_table_matches_loop_oracle():
    # the inverted top Laplace level of [X | 1] is the table one (d-subset, row) pair at a time gives
    for d in range(2, _MAX_HULL_DIM + 1):
        for m in range(d + 1, 13):
            table = _lifted_side_table(m, d)
            assert table.shape == (math.comb(m, d), m - d)
            assert np.array_equal(table, lifted_side_table_by_loops(m, d))


def _clouds_near_facet_tolerance(rng, clouds, m, d):
    """Gaussian m x d maps; in every other one row 0 is moved to 1e-10..1e-5 off the hyperplane through rows 1..d, around qhull's _FACET_TOL."""
    maps = rng.standard_normal((clouds, m, d))
    for c in range(0, clouds, 2):
        weights = rng.random(d)
        offset = 10 ** rng.uniform(-10, -5) * rng.standard_normal(d)
        maps[c, 0] = weights / weights.sum() @ maps[c, 1 : d + 1] + offset
    return maps


def _clouds_near_hyperplanes(rng, clouds, m, d, symmetric=False):
    """Gaussian m x d maps; in every other one row 0 is placed by near_row.

    Its side value is 10^-3..10^-1 times the cloud's margin in maps 0, 4,
    8, ..., which the margin sends to the exact recheck, and 10..10^4 times
    it in maps 2, 6, 10, ..., which the floats decide.
    """
    maps = rng.standard_normal((clouds, m, d))
    for c in range(0, clouds, 2):
        fraction = 10 ** rng.uniform(-3, -1) if c % 4 == 0 else 10 ** rng.uniform(1, 4)
        maps[c, 0] = near_row(maps[c], symmetric, fraction, rng)
    return maps


@pytest.mark.parametrize("m,d", [(4, 3), (6, 2), (10, 3), (12, 4), (9, 5), (8, 6)])
def test_lifted_minors_route_matches_side_sum_oracle(monkeypatch, m, d):
    # one (d+1)-minor per point set sends to the exact recheck the clouds that
    # summing d minors per side test flags, counts the other clouds' rows from
    # the same facets, and finds no cloud flat; the placed and rechecked rows
    # are the exact oracle's
    rng = np.random.default_rng(100 * m + d)
    for _ in range(4):
        maps = _clouds_near_hyperplanes(rng, 64, m, d)
        rechecked = _assert_minors_route_rows(monkeypatch, maps, False, range(0, 64, 2))
        assert rechecked.any() and not rechecked.all()


@pytest.mark.parametrize("m,d", [(4, 3), (6, 2), (10, 3), (12, 4), (9, 5), (8, 6)])
def test_lifted_minors_read_through_the_table_are_side_determinants(m, d):
    # the entry of (I, i) is x_i's side of the hyperplane through X_I: -det[X_I, 1; x_i, 1]
    maps = np.random.default_rng(m + 10 * d).standard_normal((5, m, d))
    x = np.ascontiguousarray(maps.transpose(1, 2, 0))
    work = _Workspace()
    lifted = _lifted_minors(_minors(x, work), m, d, work)
    side = np.concatenate([lifted, -lifted])[_lifted_side_table(m, d)]
    for r, rows in enumerate(colex_subsets(m, d)):
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


@pytest.mark.parametrize("d", range(2, _MAX_HULL_DIM + 1))
def test_index_tables_of_a_prefix_are_leading_slices(d):
    # in colex order the k-subsets of range(m') are the first C(m', k) rows of
    # those of range(m), so both tables of each Laplace level an m'-row map
    # builds, the lifted level d + 1 included, are the leading columns of the
    # m-row map's
    for m in range(d + 1, _MAX_GENERATORS + 1):
        for prefix in range(d, m):
            assert np.array_equal(_subsets(prefix, d), _subsets(m, d)[: math.comb(prefix, d)])
            for k in range(2, d + 2):
                for short, full in zip(_laplace_level(prefix, k), _laplace_level(m, k)):
                    assert np.array_equal(short, full[:, : math.comb(prefix, k)])


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
        assert _subsets(m, k).tolist() == [list(s) for s in colex_subsets(m, k)]
        assert _subsets(m, k).dtype == np.intp
        # complements reverse colex order
        complements = [sorted(set(range(m)).difference(s)) for s in colex_subsets(m, k)]
        assert _subsets(m, m - k)[::-1].tolist() == complements
    # every cached table is shared by its callers, so none can be written
    tables = [_subsets(8, 3), _side_table(8, 3), _lifted_side_table(8, 3)]
    tables += [_incidence(8, 4, False), _incidence(10, 6, False), _incidence(8, 6, True)]
    tables += [_insertions(8, 3), _insertions(8, 4)]
    tables += [a for k in (2, 3, 4) for a in _laplace_level(8, k)]
    for table in tables:
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[(0,) * table.ndim] = 1


@pytest.mark.parametrize("n,d", [(4, 2), (8, 3), (10, 4), (15, 6)])
def test_sampled_maps_are_the_frames_gaussian_matrices(n, d):
    # a chunk's maps are the Gaussian matrices G = QR whose Q factors are the
    # frames random_orthonormal_frame draws on the same streams one at a time
    path = (3, SIM_REPLICATION, MODEL_CODES["projected_cube"], n, d)
    keys = derive_keys(*path, np.arange(40), 0)
    bitgen = Philox(key=0)
    maps = _sample_maps(keys, bitgen, Generator(bitgen), np.empty((40, n, d)))
    for i in range(40):
        assert maps[i].tobytes() == derive_generator(*path, i, 0).standard_normal((n, d)).tobytes()
        frame = random_orthonormal_frame(n, d, derive_generator(*path, i, 0))
        r = frame.T @ maps[i]
        assert np.allclose(frame @ r, maps[i], atol=1e-12)
        assert np.allclose(np.tril(r, -1), 0.0, atol=1e-12) and (np.diagonal(r) > 0).all()


@pytest.mark.parametrize("model", ["zonotope", "projected_cube"])
def test_simulate_cube_models_at_the_cap(model, tmp_path):
    dump = tmp_path / "rows.csv"
    result = simulate_expected_f(SimConfig(model=model, n=15, d=6, replications=20, seed=2),
                                 dump_path=str(dump))
    assert result.degenerate_events == 0
    rows = np.loadtxt(dump, delimiter=",", skiprows=1, dtype=np.int64)[:, 1:]
    assert rows.tolist() == [[expected_f_cube_closed_form(15, 6, k) for k in range(6)]] * 20
