"""Import hygiene: every name a polyproj module, test or demo imports is used in
that file, every private constant a module binds at module level is read in
it, no module but streams.py names a piece of a stream layout, importing
the CLI leaves scipy.optimize and scipy.sparse.csgraph unloaded, and
SciPy itself loads only when a hull goes to qhull: the package, the CLI,
every command that builds no convex hull and simulate of every shape under
the minors cap run without it.  The process pool's modules load only for a
simulate run that starts a pool.  External angles by quadrature load
neither SciPy, numpy.polynomial nor mpmath.

The package's __init__ is exempt from the unused-import scan; its imports are
the public re-exports.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "polyproj"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements in `source` that nothing else references."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_scanner_flags_unused_import():
    assert unused_imports("import os\nfrom math import pi, tau\nprint(pi)\n") == [
        "os (line 1)", "tau (line 2)"]
    assert unused_imports("import numpy as np\nx: np.ndarray\n") == []


@pytest.mark.parametrize("path", [*MODULES, *sorted(PACKAGE.parents[1].glob("tests/*.py")), *sorted(PACKAGE.parents[1].glob("demos/*.py"))],
                         ids=lambda p: p.name if p.parent == PACKAGE else f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unread_private_constants(source: str) -> list[str]:
    """Private names (one leading underscore) bound by module-level assignments in `source` that nothing in it reads."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and name.id.startswith("_") and not name.id.startswith("__"):
                        bound.setdefault(name.id, node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


def test_scanner_flags_unread_private_constant():
    source = ("_TOL = 1e-9\n_CAP: int = 5\n_A, (_B, PUBLIC) = 1, (2, 3)\n__dunder__ = 0\n"
              "def f(x):\n    _local = 1\n    return x < _CAP + _B\n")
    assert unread_private_constants(source) == ["_TOL (line 1)", "_A (line 3)"]
    assert unread_private_constants("_TOL = 1e-9\nclass C:\n    tol = _TOL\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unread_private_constants(path):
    # a private constant that its own module never reads is dead, whatever
    # the tests import of it
    assert unread_private_constants(path.read_text(encoding="utf-8")) == []


# every stream layout, the angle sampler's and simulate's, has one home,
# streams.py: no other module names a piece of it
STREAM_LAYOUT = {"Philox", "SeedSequence", "SIM_REPLICATION", "MODEL_CODES", "derive_keys", "ANGLE_SAMPLES",
                 "KIND_INTERNAL", "KIND_EXTERNAL", "FAMILY_CODES", "derive_generator"}


def stream_layout_names(source: str) -> list[str]:
    """The names of STREAM_LAYOUT that `source` uses as a name, an attribute or an import."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name.rsplit(".", 1)[-1]
        else:
            continue
        if name in STREAM_LAYOUT:
            found.append(f"{name} (line {node.lineno})")
    return found


def test_scanner_flags_stream_layout_names():
    source = ("from numpy.random import Generator, Philox\nfrom .streams import MODEL_CODES as codes\n"
              "import polyproj.streams as s\nkeys = s.derive_keys((1,), col, 0)\nseq = SeedSequence(s.KIND_INTERNAL)\n"
              "# SIM_REPLICATION in a comment is no use of it\nrng: Generator = None\n")
    assert stream_layout_names(source) == [
        "Philox (line 1)", "MODEL_CODES (line 2)", "derive_keys (line 4)", "SeedSequence (line 5)", "KIND_INTERNAL (line 5)"]


@pytest.mark.parametrize("path", [p for p in PACKAGE.glob("*.py") if p.name != "streams.py"], ids=lambda p: p.name)
def test_stream_layout_lives_in_streams(path):
    assert stream_layout_names(path.read_text(encoding="utf-8")) == []


def run_fresh(code: str) -> str:
    """What code prints, run in a fresh interpreter on the package under test.

    A fresh interpreter, so that modules the test run itself loaded do not count.
    """
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, timeout=120, check=True)
    return out.stdout


def loaded_after(code: str, module: str) -> bool:
    """Whether module is in sys.modules after code runs in a fresh interpreter."""
    last = run_fresh(f"import sys\n{code}\nprint({module!r} in sys.modules)").splitlines()[-1]
    assert last in ("True", "False")
    return last == "True"


def test_cli_import_leaves_scipy_optimize_unloaded():
    assert not loaded_after("import polyproj.cli", "scipy.optimize")


def test_cli_import_leaves_scipy_sparse_csgraph_unloaded():
    # facets are qhull's own equations rows, grouped by one np.unique, so no
    # graph library joins the start-up cost
    assert not loaded_after("import polyproj.cli", "scipy.sparse.csgraph")


def _cli_run(*argv: str) -> str:
    return f"import polyproj.cli\nassert polyproj.cli.main({list(argv)!r}) == 0"


@pytest.mark.parametrize("code", [
    "import polyproj",
    "import polyproj.cli",
    _cli_run("expected", "--model", "gaussian", "--n", "6", "--d", "3", "--all-k", "--samples", "2000"),
    _cli_run("expected", "--family", "crosspolytope", "--n", "5", "--d", "3", "--all-k", "--samples", "500"),
    _cli_run("monotonicity", "--model", "symmetric", "--d", "3", "--all-k", "--n-min", "4", "--n-max", "6",
             "--samples", "500"),
    _cli_run("poisson", "--model", "gaussian", "--d", "2", "--all-k", "--t-min", "1", "--t-max", "3",
             "--samples", "500"),
    _cli_run("simulate", "--model", "zonotope", "--n", "6", "--d", "3", "--reps", "200"),
    _cli_run("simulate", "--model", "projected_cube", "--n", "6", "--d", "3", "--reps", "200"),
], ids=["package", "cli", "expected", "expected_family", "monotonicity", "poisson",
        "simulate_zonotope", "simulate_projected_cube"])
def test_no_hull_leaves_scipy_unloaded(code):
    # formula commands evaluate angle sums, and cube models are counted from
    # their minors table; none of them reaches qhull
    assert not loaded_after(code, "scipy")


# (model, n, d, replications): the hull_sim workload's two minors-route
# shapes at its sizes, then the largest minors-route gaussian and symmetric n
# at each d
_RECHECKED_SHAPES = [
    ("gaussian", 10, 3, 4000), ("symmetric", 8, 4, 1000),
    ("gaussian", 29, 2, 600), ("symmetric", 23, 2, 1200),
    ("gaussian", 17, 3, 600), ("symmetric", 13, 3, 1200),
    ("gaussian", 14, 4, 600), ("symmetric", 10, 4, 600),
    ("gaussian", 13, 5, 600), ("symmetric", 9, 5, 600),
    ("gaussian", 12, 6, 600), ("symmetric", 9, 6, 600),
]


def test_minors_route_simulate_leaves_scipy_unloaded():
    # a cloud with a side test within the margin is decided again on ints, so
    # no shape under the cap reaches qhull, its near clouds included.  Gaussian
    # draws almost never come that near, so each run's first map is replaced
    # by one whose row 0 is placed within a tenth of the margin of a value
    # the route always tests (oracles.near_row): off the hyperplane through
    # rows 1..d, for the symmetric hull off the span of rows 1..d-1, where
    # |2 chi| is tested
    from oracles import near_row
    from polyproj.hull import _enumerated_facets, _Workspace

    runs = []
    for model, n, d, r in _RECHECKED_SHAPES:
        symmetric = model == "symmetric"
        rng = np.random.default_rng(n + 10 * d)
        cloud = rng.standard_normal((n, d))
        cloud[0] = near_row(cloud[:d] if symmetric else cloud[: d + 1], symmetric, 0.1, rng)
        assert not _enumerated_facets(cloud[None], symmetric, _Workspace())[0].any()
        runs.append(
            f"calls.clear()\nnear.append(np.array({cloud.tolist()!r}))\n"
            f"assert polyproj.cli.main(['simulate', '--model', {model!r}, '--n', '{n}', '--d', '{d}', "
            f"'--reps', '{r}']) == 0\nrechecked.append(len(calls))\n")
    out = run_fresh(
        "import sys, numpy as np, polyproj.cli, polyproj.hull as hull\n"
        "calls, rechecked, near, convert, draw = [], [], [], hull._dyadic, hull.replication_maps\n"
        "hull._dyadic = lambda rows: calls.append(1) or convert(rows)\n"
        "def replication_maps(*args):\n"
        "    for indices, maps in draw(*args):\n"
        "        if near:\n"
        "            maps[0] = near.pop()\n"
        "        yield indices, maps\n"
        "hull.replication_maps = replication_maps\n"
        f"{''.join(runs)}print(min(rechecked), 'scipy' in sys.modules)\n")
    least, loaded = out.splitlines()[-1].split()
    assert int(least) > 0 and loaded == "False"


@pytest.mark.parametrize("code", [
    _cli_run("expected", "--model", "gaussian", "--n", "6", "--d", "3", "--all-k", "--samples", "2000"),
    _cli_run("monotonicity", "--model", "symmetric", "--d", "3", "--all-k", "--n-min", "4", "--n-max", "6",
             "--samples", "500"),
    _cli_run("poisson", "--model", "gaussian", "--d", "2", "--all-k", "--t-min", "1", "--t-max", "3",
             "--samples", "500"),
    _cli_run("simulate", "--model", "gaussian", "--n", "6", "--d", "3", "--reps", "200", "--workers", "1"),
], ids=["expected", "monotonicity", "poisson", "simulate"])
def test_one_worker_leaves_the_process_pool_unloaded(code):
    # the process pool's modules load only for a simulate run that starts a pool
    assert not loaded_after(code, "concurrent.futures.process")


@pytest.mark.parametrize("module", ["scipy", "numpy.polynomial", "numpy.fft", "mpmath"])
def test_planar_monotonicity_loads_no_quadrature_library(module):
    # every angle of a planar table is exact or a quadrature external angle,
    # whose tail table is NumPy's arithmetic on math.erfc values
    code = _cli_run("monotonicity", "--family", "crosspolytope", "--d", "2", "--k", "0",
                    "--n-min", "2", "--n-max", "60")
    assert not loaded_after(code, module)


@pytest.mark.parametrize("module", ["scipy", "numpy.fft", "mpmath"])
def test_integral_internal_angles_load_no_transform_or_quadrature_library(module):
    # gaussian rows at d = 4 and 6 read beta(k, 3) and beta(k, 5): closed
    # forms at codimension 2 and 3, and Steck integrals at beta(0, 5) and
    # beta(1, 5); Weideman's coefficients come from a cosine product, not
    # from numpy.fft
    for d in ("4", "6"):
        assert not loaded_after(_cli_run("expected", "--model", "gaussian", "--n", "9", "--d", d, "--all-k"), module)


def test_integral_tables_wait_for_the_first_integral_angle():
    # importing the CLI builds neither the Faddeeva coefficients nor the
    # Legendre rule, nor do the closed forms beta(0, 3) and beta(1, 3); the
    # first integral angle, beta(0, 4), builds both
    out = run_fresh(
        "import polyproj.cli\n"
        "from polyproj import internal_angle\n"
        "from polyproj.angles import _faddeeva_coefficients, _legendre_rule\n"
        "tables = (_faddeeva_coefficients, _legendre_rule)\n"
        "print([t.cache_info().currsize for t in tables])\n"
        "internal_angle('simplex', 3, 0, 3)\n"
        "internal_angle('simplex', 3, 1, 3)\n"
        "print([t.cache_info().currsize for t in tables])\n"
        "internal_angle('simplex', 4, 0, 4)\n"
        "print([t.cache_info().currsize for t in tables])\n")
    assert out.split() == ["[0,", "0]", "[0,", "0]", "[1,", "1]"]


def test_tail_table_waits_for_the_first_quadrature_angle():
    # importing the CLI builds neither the external-angle rule's tail table
    # nor the Legendre rule, a rational external angle neither, and the first
    # quadrature angle both
    out = run_fresh(
        "import polyproj.cli\n"
        "from polyproj import external_angle\n"
        "from polyproj.angles import _legendre_rule, _tail_table\n"
        "tables = (_tail_table, _legendre_rule)\n"
        "print([t.cache_info().currsize for t in tables])\n"
        "external_angle('crosspolytope', 10, 0)\n"
        "print([t.cache_info().currsize for t in tables])\n"
        "external_angle('crosspolytope', 10, 3)\n"
        "print([t.cache_info().currsize for t in tables])\n")
    assert out.split() == ["[0,", "0]", "[0,", "0]", "[1,", "1]"]


def test_hull_f_vector_loads_qhull():
    out = run_fresh(
        "import sys\n"
        "from polyproj import hull_f_vector\n"
        "print('scipy' in sys.modules)\n"
        "pyramid = [[1, 1, 0], [1, -1, 0], [-1, 1, 0], [-1, -1, 0], [0, 0, 1]]\n"
        "print(hull_f_vector(pyramid))\n"
        "print('scipy.spatial' in sys.modules)\n")
    assert out.splitlines() == [
        "False", "FVectorSample(counts=(5, 8, 5), degenerate=False)", "True"]


def test_flat_cloud_is_degenerate_under_the_deferred_import():
    # qhull raises QhullError on a flat cloud; the error class comes from the
    # same deferred import as ConvexHull
    out = run_fresh(
        "from polyproj import hull_f_vector\n"
        "print(hull_f_vector([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0], [0.5, 0.2, 0]]))\n")
    assert out.strip() == "FVectorSample(counts=(0, 0, 0), degenerate=True)"


def test_hull_import_builds_no_index_table():
    # every index table is built from _subsets on first use, none at import
    out = run_fresh(
        "import polyproj.hull as h\n"
        "tables = (h._subsets, h._laplace_level, h._insertions, h._side_table, h._lifted_side_table,\n"
        "          h._incidence)\n"
        "print([t.cache_info().currsize for t in tables])\n")
    assert out.strip() == "[0, 0, 0, 0, 0, 0]"
