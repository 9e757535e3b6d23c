"""Static checks on the package's imports: every module-level import is
used, and every import names the standard library, numpy or the package."""

import ast
import pathlib
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "stresstomo"


def unused_imports(source):
    """Names bound by module-level imports that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_found():
    src = "from __future__ import annotations\nimport os\nfrom a import b, c as d\nprint(b)\n"
    assert unused_imports(src) == [(2, "os"), (3, "d")]


_ALLOWED_ROOTS = set(sys.stdlib_module_names) | {"numpy", "stresstomo"}


def foreign_imports(source):
    """(line, module) of every import, at module or function level, whose
    top-level module is neither standard library, numpy nor the package
    (relative imports are the package)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [(node.lineno, n) for n in names if n.split(".")[0] not in _ALLOWED_ROOTS]
    return sorted(found)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_stdlib_numpy_or_package(path):
    # numpy is the one runtime dependency in pyproject.toml
    assert foreign_imports(path.read_text()) == []


def test_foreign_import_is_found():
    src = (
        "import os, numpy.linalg\nfrom . import io\nfrom stresstomo.fields import Grid3\n"
        "def f():\n    import scipy.linalg\n    from matplotlib import pyplot\n"
    )
    assert foreign_imports(src) == [(5, "scipy.linalg"), (6, "matplotlib")]
