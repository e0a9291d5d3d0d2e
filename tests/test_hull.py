import math

import numpy as np
import pytest
from numpy.random import SeedSequence

from polyproj import (
    DegenerateGeometryError,
    Family,
    InvalidArgumentError,
    InvalidDimensionError,
    SimConfig,
    SimulationAbortError,
    expected_f_zonotope,
    hull_f_vector,
    random_orthonormal_frame,
    simulate_expected_f,
    vertices,
    zonotope_f_vector,
)
from polyproj.hull import (
    _FACET_TOL,
    _GENERAL_POSITION_TOL,
    _count_distinct_rows,
    _replication_block,
    _sample_cloud,
)
from polyproj.streams import MODEL_CODES, SIM_REPLICATION, derive_generator

from oracles import (
    full_dimensional,
    lp_zonotope_f_vector,
    per_replication_rows,
    rounded_facet_f_vector,
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
    cloud = _sample_cloud("projected_cube", 8, 3, derive_generator(11, 2, 6, 8, 3, 104, 0))
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
        cloud = _sample_cloud(model, n, d, rng)
        assert hull_f_vector(cloud).counts == rounded_facet_f_vector(cloud)


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("family", [Family.SIMPLEX, Family.CROSSPOLYTOPE, Family.CUBE])
def test_hull_regular_solids_match_rounded_facet_oracle(family, n):
    pts = vertices(family, n).astype(float)
    if family is Family.SIMPLEX:
        pts = full_dimensional(pts)
    assert hull_f_vector(pts).counts == rounded_facet_f_vector(pts)


def test_count_distinct_rows_renumbers_before_overflow():
    # five digits of base 2^40 overflow int64 unless the keys are renumbered;
    # entries 2^24 apart would wrap onto one another
    base = 2**40
    rows = derive_generator(43).integers(0, 4, size=(400, 5)) * 2**24
    rows = np.vstack([rows, rows[:100]])
    one = np.zeros(len(rows), dtype=np.int64)
    assert _count_distinct_rows(rows, base, one, 1).tolist() == [len(np.unique(rows, axis=0))]
    assert _count_distinct_rows(rows[:, :1], base, one, 1).tolist() == [len(np.unique(rows[:, 0]))]
    # three groups, one of them empty: rows shared across groups count in each
    group = np.repeat([0, 2], [250, 250])
    expected = [len(np.unique(rows[:250], axis=0)), 0, len(np.unique(rows[250:], axis=0))]
    assert _count_distinct_rows(rows, base, group, 3).tolist() == expected


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


@pytest.mark.parametrize("index", range(100, 150))
def test_projected_cube_frame_zonotope_matches_hull(index):
    # the shadow of the cube is the zonotope of the frame rows; qhull on the
    # 2^n projected vertices stays the independent route (index 104 is the
    # draw with a nearly flat merged facet)
    key = (11, SIM_REPLICATION, MODEL_CODES["projected_cube"], 8, 3, index, 0)
    frame = random_orthonormal_frame(8, 3, derive_generator(*key))
    cloud = _sample_cloud("projected_cube", 8, 3, derive_generator(*key))
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
    ("projected_simplex", 5, 5),
    ("projected_crosspolytope", 4, 8),
    ("projected_cube", 4, 16),
])
def test_sample_cloud_shapes(model, n, rows):
    cloud = _sample_cloud(model, n, 3, derive_generator(7, 2))
    assert cloud.shape == (rows, 3)


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


def test_simulate_resamples_degenerate_draws_from_later_attempts(monkeypatch):
    # flatten the attempt-0 clouds of replications 0, 511, 512 and 1700 and
    # the attempt-1 cloud of 1700; keys pick the draws, whatever the order
    model, n, d, seed, r = "gaussian", 6, 3, 23, 5200
    path = (seed, SIM_REPLICATION, MODEL_CODES[model], n, d)
    flat = {(0, 0), (511, 0), (512, 0), (1700, 0), (1700, 1)}
    flat_keys = {tuple(SeedSequence((*path, i, a)).generate_state(2, np.uint64)) for i, a in flat}

    def sampler(model, n, d, rng):
        key = tuple(rng.bit_generator.state["state"]["key"])
        cloud = _sample_cloud(model, n, d, rng)
        if key in flat_keys:
            cloud[:, -1] = 0.0
        return cloud

    rows, degenerate = per_replication_rows(model, n, d, seed, r, sampler=sampler)
    assert degenerate.sum() == 5 and degenerate[1700] == 2
    monkeypatch.setattr("polyproj.hull._sample_cloud", sampler)
    lo, block_rows, block_degen = _replication_block((model, n, d, seed, 512, 1024))
    assert block_degen == 1 and np.array_equal(block_rows, rows[512:1024])
    result = simulate_expected_f(SimConfig(model=model, n=n, d=d, replications=r, seed=seed))
    assert result.degenerate_events == 5
    assert result.means[0].value == float(rows[:, 0].mean())
    # the resampled rows are the f-vectors of the next attempts' streams
    for i, attempt in [(0, 1), (511, 1), (512, 1), (1700, 2)]:
        rng = derive_generator(*path, i, attempt)
        assert rows[i].tolist() == list(hull_f_vector(_sample_cloud(model, n, d, rng)).counts)


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


def test_simulation_abort_error_fields():
    err = SimulationAbortError("model stalled", degenerate=7, replications=30)
    assert err.degenerate == 7
    assert err.replications == 30
