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


def test_one_scale_policy():
    """Only ``tensor_core._unit_scale`` picks a power of two to scale by."""
    found = [f"{path.stem}.{owner}"
             for path in sorted(SRC.glob("*.py"))
             for _, owner in references(path.read_text(), "frexp")]
    assert found == ["tensor_core._unit_scale"]


def test_the_enclosure_is_the_one_lower_end_policy():
    """No module keeps a second lower-end policy beside
    ``spectral_enclosure``, and the decision modules run HOPM only to scale
    ``probe_tau``'s directions."""
    assert [path.name for path in sorted(SRC.glob("*.py"))
            if "_raised_enclosure" in path.read_text()] == []
    found = {stem: {owner for _, owner in references(
                 (SRC / f"{stem}.py").read_text(), "spectral_hopm")}
             for stem in ("subdiff", "decomp", "rpca")}
    assert found == {"subdiff": {"probe_tau"}, "decomp": set(),
                     "rpca": set()}


def test_only_the_sandwich_certifies_dual_witnesses():
    found = {path.stem
             for path in sorted(SRC.glob("*.py"))
             for name in ("_witness_bound", "_certified_witness")
             for _ in references(path.read_text(), name)}
    assert found == {"norms"}
    subdiff = (SRC / "subdiff.py").read_text()
    for name in ("spectral_enclosure", "_witness_bound", "project"):
        owners = {owner for _, owner in references(subdiff, name)}
        assert "find_z_witness" not in owners, name


def test_one_rank_rule():
    """Singular values are cut by one rule, ``subspace._rank``, read by the
    span bases and the reduction to the core; ``RANK_TOL``'s other reader is
    the QR-pivot rule of ``ModeSubspace.span``.  The order-<=2 sandwich
    keeps no threshold of its own, and every witness is bounded through
    ``_certified_witness``."""
    found = {name: sorted({f"{path.stem}.{owner}"
                           for path in sorted(SRC.glob("*.py"))
                           for _, owner in references(path.read_text(), name)
                           if owner})
             for name in ("RANK_TOL", "_rank", "_witness_bound")}
    assert found == {
        "RANK_TOL": ["subspace._rank", "subspace.span"],
        "_rank": ["norms._reduce", "subspace.family_from_tensor"],
        "_witness_bound": ["norms._certified_witness"]}
    tree = ast.parse((SRC / "norms.py").read_text())
    matrix = next(node for node in ast.walk(tree)
                  if getattr(node, "name", None) == "_matrix_sandwich")
    assert [node.value for node in ast.walk(matrix)
            if isinstance(node, ast.Constant)
            and isinstance(node.value, float)] == []


def test_norms_reaches_the_span_bases_only_through_the_core():
    source = (SRC / "norms.py").read_text()
    owners = {name: {owner for _, owner in references(source, name)}
              for name in ("family_from_tensor", "project")}
    assert owners == {"family_from_tensor": {"_reduce"}, "project": set()}


def test_one_flattening_cap_and_one_pairing():
    """``norms`` takes the flattening cap in ``_flattening_cap`` alone and
    factors flattenings only there and in ``_reduce``; every sandwich pairs
    a witness with the tensor in ``_ratio``, and the two checks pair their
    own inputs."""
    source = (SRC / "norms.py").read_text()
    found = {name: sorted({owner for _, owner in references(source, name)})
             for name in ("_flattening_svds", "inner")}
    assert found == {
        "_flattening_svds": ["_flattening_cap", "_reduce"],
        "inner": ["_ratio", "duality_gap_check", "restricted_norm_check"]}
    assert source.count("min(float(s[0]) for s in") == 1
    import tnn

    assert not hasattr(tnn, "spectral_flattening_upper")


def test_one_membership_rule():
    """Every subspace precondition compares ``subspace.residual`` with its
    tolerance; no module keeps a hand-rolled ``max(1, ||X||_F)`` floor."""
    assert [path.name for path in sorted(SRC.glob("*.py"))
            if "max(1.0, holder_norm(" in path.read_text()] == []
    found = sorted({f"{path.stem}.{owner}"
                    for path in sorted(SRC.glob("*.py"))
                    for _, owner in references(path.read_text(), "residual")})
    assert found == ["decomp._require_membership",
                     "norms.restricted_norm_check",
                     "subdiff.check_piece", "subdiff.z_membership"]


def test_scipy_solvers_have_one_caller_each():
    """The library runs no linear program, and the sphere programs' polish
    is its one nonlinear solve."""
    found = {name: sorted({f"{path.stem}.{owner}"
                           for path in sorted(SRC.glob("*.py"))
                           for _, owner in references(path.read_text(), name)})
             for name in ("linprog", "minimize")}
    assert found == {"linprog": [],
                     "minimize": ["subdiff.solve_sphere_program"]}


def test_no_module_reads_the_dense_chain_norm():
    """``operator_norm_chain`` is a dense reference for the tests: no module
    reads it (its definition and the package export are not reads), and
    only it reads ``_chain_apply``."""
    found = {name: [(path.stem, owner)
                    for path in sorted(SRC.glob("*.py"))
                    for _, owner in references(path.read_text(), name)]
             for name in ("operator_norm_chain", "_chain_apply")}
    assert found == {"operator_norm_chain": [],
                     "_chain_apply": [("subspace", "operator_norm_chain")]}


def test_no_module_calls_apply_along_axis():
    found = [(path.stem, line)
             for path in sorted(SRC.glob("*.py"))
             for line, _ in references(path.read_text(), "apply_along_axis")]
    assert found == []


LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp,
         ast.DictComp, ast.GeneratorExp)


def einsum_calls_in_loops(source, function):
    """Lines of the ``einsum`` calls (bare or as an attribute) inside a
    ``for``/``while`` loop or a comprehension of the module-level function
    ``function``; ``None`` when the module has no such function."""
    defs = [node for node in ast.parse(source).body
            if isinstance(node, ast.FunctionDef) and node.name == function]
    if not defs:
        return None
    found = []

    def visit(node, in_loop):
        for child in ast.iter_child_nodes(node):
            if in_loop and isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else (
                    func.id if isinstance(func, ast.Name) else None)
                if name == "einsum":
                    found.append(child.lineno)
            visit(child, in_loop or isinstance(child, LOOPS))

    visit(defs[0], False)
    return found


def test_einsum_loop_detector():
    source = (
        "import numpy as np\n"
        "from numpy import einsum\n"
        "def hopm(A, X):\n"
        "    v = np.einsum('i,i->', A, X)\n"
        "    for k in range(3):\n"
        "        V = np.einsum('ij,j->i', A, X)\n"
        "        while True:\n"
        "            w = einsum('i->', V)\n"
        "            break\n"
        "    ys = [np.einsum('i->', x) for x in X]\n"
        "    return np.dot(A, [x[0] for x in X])\n"
        "def other(A):\n"
        "    for _ in A:\n"
        "        np.einsum('i->', A)\n"
    )
    assert einsum_calls_in_loops(source, "hopm") == [6, 8, 10]
    assert einsum_calls_in_loops(source, "other") == [14]
    assert einsum_calls_in_loops(source, "missing") is None


def test_hopm_iterates_without_einsum():
    # The sweep loop lives in _hopm_stack; spectral_hopm is its stack of one.
    source = (SRC / "norms.py").read_text()
    assert einsum_calls_in_loops(source, "_hopm_stack") == []


def module_level_imports(source, package):
    """Lines of the imports of ``package`` or its submodules that run when
    the module is imported: those outside every function body."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                names = [child.module]
            else:
                names = []
            if any(n == package or n.startswith(package + ".")
                   for n in names):
                found.append(child.lineno)
            visit(child)

    visit(ast.parse(source))
    return found


def test_module_level_import_detector():
    source = (
        "import scipy.sparse\n"
        "from scipy.optimize import linprog\n"
        "from .scipy import x\n"
        "import scipyx\n"
        "try:\n"
        "    from scipy import sparse\n"
        "except ImportError:\n"
        "    pass\n"
        "def solve():\n"
        "    from scipy.optimize import minimize\n"
        "class Solver:\n"
        "    import scipy\n"
        "    def run(self):\n"
        "        import scipy.linalg\n"
    )
    assert module_level_imports(source, "scipy") == [1, 2, 6, 12]


def test_scipy_loads_where_it_is_used():
    """No module imports scipy when ``tnn`` is imported; the functions that
    call a scipy solver import it themselves."""
    found = [(path.stem, line)
             for path in sorted(SRC.glob("*.py"))
             for line in module_level_imports(path.read_text(), "scipy")]
    assert found == []


def test_nuclear_sandwich_loads_no_scipy():
    """A sandwich on the exact program's shape and one on the greedy's
    only, in a fresh interpreter, leave no scipy module loaded."""
    import os
    import subprocess
    import sys

    script = (
        "import sys\n"
        "import numpy as np\n"
        "from tnn import nuclear_sandwich\n"
        "rng = np.random.default_rng(0)\n"
        "for shape in ((2, 2, 2), (3, 3, 3)):\n"
        "    nuclear_sandwich(rng.standard_normal(shape))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC.parent),
                                         os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", script], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.strip() == "[]"


def test_branch_and_bound_signature_is_pinned():
    """The benchmark's tracing binds ``spectral_certified_upper``'s
    arguments by name, so its signature stays as it is."""
    import inspect

    import tnn

    assert str(inspect.signature(tnn.spectral_certified_upper)) == (
        "(T, tol=0.0001, max_evals=2000000, threshold=None)")


def test_nuclear_sandwich_signature_is_pinned():
    """The sandwich takes the tensor alone: no tolerance, budget or seed."""
    import inspect

    import tnn

    assert str(inspect.signature(tnn.nuclear_sandwich)) == "(T)"


def test_partial_transpose_bound_stays_private():
    """The 2x2xn cap and its primal step are reached only through
    ``spectral_certified_upper`` and HOPM's direct path, and the exact
    nuclear program only through the sandwich: no public name of ``tnn`` or
    ``tnn.norms`` carries them."""
    import tnn
    import tnn.norms

    assert not hasattr(tnn, "PartialTranspose")
    assert tnn.norms.__all__ == [
        "SpectralResult", "NuclearSandwich", "spectral_hopm",
        "spectral_certified_upper", "spectral_enclosure",
        "nuclear_sandwich", "duality_gap_check", "restricted_norm_check"]
    source = (SRC / "norms.py").read_text()
    found = {name: [owner for _, owner in references(source, name)]
             for name in ("primal", "program")}
    assert found == {"primal": ["_hopm_direct", "spectral_certified_upper"],
                     "program": ["_sandwich"]}


def shape_tests(source):
    """``(line, function)`` of every 2x2xn shape test, a comparison of the
    two smallest sizes ``sorted(...)[:2]`` with ``[2, 2]``, with the
    innermost enclosing function."""
    found = []

    def smallest_two(node):
        return (isinstance(node, ast.Subscript)
                and isinstance(node.value, ast.Call)
                and getattr(node.value.func, "id", None) == "sorted")

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Compare) and any(
                    map(smallest_two, [child.left, *child.comparators])):
                found.append((child.lineno, owner))
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_def else owner)

    visit(ast.parse(source), None)
    return found


def test_shape_test_detector():
    source = (
        "def a(A):\n"
        "    return A.ndim == 3 and sorted(A.shape)[:2] == [2, 2]\n"
        "def b(dims):\n"
        "    if (2, 2) != sorted(dims)[:2]:\n"
        "        return X.shape[1:] == (2, 2)\n"
    )
    assert shape_tests(source) == [(2, "a"), (4, "b")]


def test_one_partial_transpose_engine():
    """The 2x2xn shape test is written once, in the partial-transpose
    object's constructor, whose module does not import ``norms``; ``norms``
    keeps no ``_pt_*`` or ``_PT_*`` name of its own and builds the object
    only where it takes the cap, the primal step or the nuclear program."""
    found = [f"{path.stem}.{owner}"
             for path in sorted(SRC.glob("*.py"))
             for _, owner in shape_tests(path.read_text())]
    assert found == ["_partial_transpose.__new__"]
    engine = ast.parse((SRC / "_partial_transpose.py").read_text())
    assert "norms" not in {node.module for node in ast.walk(engine)
                           if isinstance(node, ast.ImportFrom)}
    source = (SRC / "norms.py").read_text()
    defined = [getattr(node, "name", getattr(node, "id", ""))
               for node in ast.walk(ast.parse(source))
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               or isinstance(node, ast.Name)
               and isinstance(node.ctx, ast.Store)]
    assert [n for n in defined if n.lower().startswith("_pt")] == []
    owners = sorted({owner for _, owner in references(source,
                                                      "PartialTranspose")})
    assert owners == ["_hopm_direct", "_sandwich", "spectral_certified_upper"]
