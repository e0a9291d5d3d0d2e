"""Import hygiene: every name a polyproj module imports is used in that module,
and importing the CLI leaves scipy.optimize and scipy.sparse.csgraph unloaded.

The package's __init__ is exempt from the unused-import scan; its imports are
the public re-exports.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def loaded_after_cli_import(module: str) -> str:
    # a fresh interpreter, so modules the test run itself loaded do not count
    code = f"import sys, polyproj.cli; print({module!r} in sys.modules)"
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, timeout=120, check=True)
    return out.stdout.strip()


def test_cli_import_leaves_scipy_optimize_unloaded():
    assert loaded_after_cli_import("scipy.optimize") == "False"


def test_cli_import_leaves_scipy_sparse_csgraph_unloaded():
    # facets are merged over qhull's neighbour graph with array operations,
    # so no graph library joins the start-up cost
    assert loaded_after_cli_import("scipy.sparse.csgraph") == "False"
