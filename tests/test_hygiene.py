"""Imported-but-unused names in the package, its tests and the demos,
public names that nothing outside the tests uses, the optional
parameters of the public callables, row-wise dot
products taken any other way than through numerics.rowdot, masked
max or min reductions taken any other way than through
numerics._masked_maxima, imports of scipy, which the package does
not require, outside curves.arclength_reparametrize, uses of the frame
kernel frenet._frenet, and calls of the ScalarSamples and VectorSamples
wrappers by name.

A plain `ast` scan, so it runs without any linter installed.  A name counts
as used when it appears as a bare name anywhere in the module (attribute
access `np.x` starts with the bare name `np`) or is listed in `__all__`.
The package `__init__.py` is skipped: its imports are the public
re-exports.
"""

import ast
import inspect
import re
from pathlib import Path

import pytest

import frenetdir

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(
    path
    for folder in ("src/frenetdir", "tests", "demos")
    for path in (ROOT / folder).glob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return sorted(
        f"line {line}: {name}" for name, line in imported.items() if name not in used
    )


def test_scan_covers_every_layer():
    folders = {path.parent.name for path in FILES}
    assert folders == {"frenetdir", "tests", "demos"}


def test_scan_sees_an_unused_import():
    assert unused_imports("import os\nfrom math import pi, tau\nprint(pi)\n") == [
        "line 1: os",
        "line 2: tau",
    ]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def loaded_names(source):
    """Names read (not bound or defined) in a module: bare names and
    attribute names."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
    return out


def test_every_export_is_used_outside_tests():
    # a use inside the package counts, its definition and the export lists
    # do not; the benchmark, the demos and the README count as words
    used = set()
    for path in (ROOT / "src" / "frenetdir").glob("*.py"):
        if path.name != "__init__.py":
            used |= loaded_names(path.read_text(encoding="utf-8"))
    for path in [*(ROOT / "perfbench").glob("*.py"), *(ROOT / "demos").glob("*.py"), ROOT / "README.md"]:
        used |= set(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    assert [name for name in frenetdir.__all__ if name not in used] == []


# every optional parameter of a public callable: each one doubles the
# configurations to test, so a new one edits this list in its own diff
OPTIONAL_PARAMETERS = {
    "ODParameters": ["phase_c"],
    "catalog_entry": ["parameters"],
    "classify": ["rel_tol", "rect_tol"],
    "compare_predicted": ["atol", "cos_floor"],
    "evaluate_catalog": ["parameters", "grid"],
    "general_helix_test": ["rel_tol"],
    "mannheim_check": ["tol"],
    "rectifying_test": ["tol"],
    "run_checks": ["only", "curve", "tol"],
    "slant_helix_test": ["rel_tol"],
    "verify_frame": ["tol"],
    "verify_od_properties": ["tol"],
}


def test_optional_parameters_are_the_listed_ones():
    found = {}
    for name in frenetdir.__all__:
        obj = getattr(frenetdir, name)
        # exception classes take *args and have no signature
        if not callable(obj) or (isinstance(obj, type) and issubclass(obj, BaseException)):
            continue
        params = inspect.signature(obj).parameters.values()
        optional = [p.name for p in params if p.default is not inspect.Parameter.empty]
        if optional:
            found[name] = optional
    assert found == OPTIONAL_PARAMETERS


def test_every_row_dot_is_rowdot():
    # einsum's rounding of a row-wise dot product follows the memory layout
    # of its operands; rowdot fixes one order for every layout
    pattern = 'einsum("ij,ij->i"'
    hits = [
        f"{path.relative_to(ROOT)}:{lineno}"
        for path in sorted((ROOT / "src").rglob("*.py"))
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if pattern in line.replace("'", '"').replace(" ", "")
    ]
    assert hits == []


REDUCTIONS = {
    "max", "min", "amax", "amin", "nanmax", "nanmin",
    # ufunc.reduce: np.maximum.reduce(x, where=m)
    "maximum", "minimum", "fmax", "fmin",
}


def nodes_in_functions(source):
    """Every node of a module below its function definitions, with the
    name of the innermost function that holds it (None at module level)."""

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, child.name)
                continue
            yield child, function
            yield from visit(child, function)

    return visit(ast.parse(source), None)


def masked_reductions(source):
    """(line, enclosing function) of every max or min call with a where=
    keyword: np.max(x, where=m), x.min(where=m), np.maximum.reduce(...)
    and the like."""
    hits = []
    for node, function in nodes_in_functions(source):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "reduce" and isinstance(func.value, ast.Attribute):
                name = func.value.attr
            if name in REDUCTIONS and any(k.arg == "where" for k in node.keywords):
                hits.append((node.lineno, function))
    return hits


def test_every_masked_max_is_masked_maxima():
    # one masked-statistic path: block by block over the mask's span,
    # exact, no gathered rows and no full-length temporary
    hits = [
        f"{path.relative_to(ROOT)}:{lineno} in {function}"
        for path in sorted((ROOT / "src").rglob("*.py"))
        for lineno, function in masked_reductions(path.read_text(encoding="utf-8"))
        if (path.name, function) != ("numerics.py", "_masked_maxima")
    ]
    assert hits == []


def test_masked_reductions_are_found():
    source = (
        "def f(x, m):\n"
        "    a = np.min(x, where=m, initial=1.0)\n"
        "    return a + x.max(where=m, initial=0.0) + np.max(x)\n"
        "def g(x, m):\n"
        "    return np.minimum.reduce(x, where=m) + np.add.reduce(x, where=m)\n"
    )
    assert masked_reductions(source) == [(2, "f"), (3, "f"), (5, "g")]


def scipy_imports(source):
    """(line, enclosing function) of every import of scipy or of a scipy
    submodule."""
    hits = []
    for node, function in nodes_in_functions(source):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module]
        else:
            continue
        if any(module.split(".")[0] == "scipy" for module in modules):
            hits.append((node.lineno, function))
    return hits


def test_scipy_is_imported_only_by_arclength_reparametrize():
    # numpy is the one requirement: scipy is imported on the first call
    # of the one function that uses it, and nowhere else
    hits = [
        f"{path.relative_to(ROOT)}:{lineno} in {function}"
        for path in sorted((ROOT / "src").rglob("*.py"))
        for lineno, function in scipy_imports(path.read_text(encoding="utf-8"))
        if (path.name, function) != ("curves.py", "arclength_reparametrize")
    ]
    assert hits == []


def test_scipy_imports_are_found():
    source = (
        "import scipy.linalg\n"
        "from scipy import sparse\n"
        "import scipyx\n"
        "from . import scipy\n"
        "def f():\n"
        "    from scipy.interpolate import CubicSpline\n"
        "    import numpy, scipy as sp\n"
    )
    assert scipy_imports(source) == [(1, None), (2, None), (6, "f"), (7, "f")]


SAMPLES = {"ScalarSamples", "VectorSamples"}


def samples_builds(source):
    """(line, enclosing function) of every call of ScalarSamples or
    VectorSamples by name: ScalarSamples(...) or numerics.VectorSamples(...)."""
    hits = []
    for node, function in nodes_in_functions(source):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in SAMPLES:
                hits.append((node.lineno, function))
    return hits


def test_only_direction_field_builds_a_samples_wrapper():
    # per-sample results are plain arrays; direction_field keeps its
    # VectorSamples while the benchmark calls it
    hits = [
        f"{path.relative_to(ROOT)}:{lineno} in {function}"
        for path in sorted((ROOT / "src").rglob("*.py"))
        for lineno, function in samples_builds(path.read_text(encoding="utf-8"))
        if (path.name, function) != ("direction.py", "direction_field")
    ]
    assert hits == []


def test_samples_builds_are_found():
    source = (
        "def f(g, x):\n"
        "    a = ScalarSamples(g, x)\n"
        "    return numerics.VectorSamples(g, x), type(a)(g, x), Samples(g, x)\n"
        "b = VectorSamples(grid, pts)\n"
    )
    assert samples_builds(source) == [(2, "f"), (3, "f"), (4, None)]


def frame_kernel_uses(source, module):
    """(line, top-level function) of every use of frenet._frenet in a
    package module: by its name in frenet.py or where it is imported from
    .frenet, or as frenet._frenet.  Another module's own _frenet is not
    it."""
    tree = ast.parse(source)
    names = {"_frenet"} if module == "frenet" else set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "frenet":
            names |= {alias.asname or alias.name for alias in node.names if alias.name == "_frenet"}
    hits = []
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in names:
                hits.append((node.lineno, getattr(top, "name", None)))
            elif (isinstance(node, ast.Attribute) and node.attr == "_frenet"
                  and isinstance(node.value, ast.Name) and node.value.id == "frenet"):
                hits.append((node.lineno, getattr(top, "name", None)))
    return sorted(hits)


def test_the_frame_kernel_has_two_callers():
    # one frame path: frenet_apparatus builds the frame it stores, and
    # verify_od_properties computes one block by block and stores none
    hits = [
        f"{path.relative_to(ROOT)}:{lineno} in {function}"
        for path in sorted((ROOT / "src").rglob("*.py"))
        for lineno, function in frame_kernel_uses(path.read_text(encoding="utf-8"), path.stem)
        if (path.name, function) not in {("frenet.py", "frenet_apparatus"),
                                         ("od.py", "verify_od_properties")}
    ]
    assert hits == []


def test_frame_kernel_uses_are_found():
    source = (
        "from .frenet import _frenet as kernel\n"
        "def f(c):\n"
        "    def block(rows):\n"
        "        return kernel(c, rows)\n"
        "    return block\n"
        "def g(c):\n"
        "    return frenet._frenet(c) + _frenet(c)\n"
    )
    assert frame_kernel_uses(source, "od") == [(4, "f"), (7, "g")]
    assert frame_kernel_uses("def h(c):\n    return _frenet(c)\n", "frenet") == [(2, "h")]
