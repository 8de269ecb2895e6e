"""Import hygiene: every name a source module imports is used in it, and
the flows over time in `timed` import no array library."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "roundlab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
ARRAY_LIBRARIES = {"numpy", "scipy"}


def _unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_scan_finds_an_unused_import():
    source = "import os\nimport sys\nfrom math import pi, tau\nprint(sys, pi)\n"
    assert _unused_imports(source) == [(1, "os"), (3, "tau")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def array_imports(path):
    """The array libraries among the packages the module at `path`
    imports by absolute name."""
    names = set()
    for node in ast.walk(ast.parse(Path(path).read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.split(".")[0])
    return names & ARRAY_LIBRARIES


def test_scan_finds_array_imports(tmp_path):
    path = tmp_path / "module.py"
    path.write_text("import numpy as np\nfrom scipy.optimize import linprog\n"
                    "from .numpy import x\nimport math\n")
    assert array_imports(path) == {"numpy", "scipy"}


def test_timed_imports_no_array_library():
    # single-pair and cut flows over time are read off static flows in
    # timed; with no array library there, none of them builds a timed
    # network
    assert array_imports(SRC / "timed.py") == set()
