"""Static hygiene checks on the library source (standard-library ``ast``)."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "tnn"
# The package ``__init__`` imports only to re-export.
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """``(line, name)`` of every imported name that the module neither
    reads nor lists in ``__all__``."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_detector_finds_unused_and_keeps_used():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy as np\n"
        "from .errors import ParameterError, DimensionError\n"
        "from .norms import exported\n"
        "__all__ = ['exported']\n"
        "def f(x: np.ndarray):\n"
        "    raise ParameterError(x)\n"
    )
    assert unused_imports(source) == [(2, "os"), (4, "DimensionError")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def references(source, name):
    """``(line, function)`` of every read of ``name`` -- as a bare name, an
    attribute or an import alias -- with the innermost enclosing function
    (``None`` at module level).  Imports themselves are not reads."""
    tree = ast.parse(source)
    names = {name} | {alias.asname for node in ast.walk(tree)
                      if isinstance(node, ast.ImportFrom)
                      for alias in node.names
                      if alias.name == name and alias.asname}
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Name) and child.id in names
                    or isinstance(child, ast.Attribute)
                    and child.attr in names):
                found.append((child.lineno, owner))
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_def else owner)

    visit(tree, None)
    return found


def test_reference_detector_finds_every_read():
    source = (
        "from .norms import spectral_certified_upper as bound\n"
        "import tnn.norms\n"
        "def good(T):\n"
        "    return spectral_certified_upper(T)\n"
        "def bad(T):\n"
        "    f = tnn.norms.spectral_certified_upper\n"
        "    return bound(T)\n"
        "x = spectral_certified_upper\n"
        "__all__ = ['spectral_certified_upper']\n"
    )
    assert references(source, "spectral_certified_upper") == [
        (4, "good"), (6, "bad"), (7, "bad"), (8, None)]


def test_only_the_enclosure_calls_the_branch_and_bound():
    found = [f"{path.stem}.{owner}"
             for path in sorted(SRC.glob("*.py"))
             for _, owner in references(path.read_text(),
                                        "spectral_certified_upper")]
    assert found == ["norms.spectral_enclosure"]
