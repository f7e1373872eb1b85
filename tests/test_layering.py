"""The package's import layering, read from the source without running it.

The three regimes (ballistic, diffusive, turing) share their machinery
through the lower layers (shifts, rules, lattice, tracking), so none of them
imports another.  Every package import sits at module level, where the
layering can be read off the top of each file.  numpy is the reverse: it is
imported only inside the functions of :data:`NUMPY_FUNCTIONS`, never at
module level, so importing the package, and every path that calls none of
those functions, leaves numpy unloaded.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "defectca"
REGIMES = ("ballistic", "diffusive", "turing")
MODULES = sorted(path.stem for path in SRC.glob("*.py"))
# (module, function): the Perron eigen-solve, the float proposal of a
# stationary law, a walk sample's random stream and the sampled moments
NUMPY_FUNCTIONS = {("shifts", "perron"), ("diffusive", "_stationary_exact"),
                   ("diffusive", "_uniforms"), ("diffusive", "sample_walks")}


def _tree(module):
    return ast.parse((SRC / f"{module}.py").read_text())


def _imported_modules(tree):
    """The package modules a module imports, by their short names."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 1:
                out.update([parts[0]] if parts[0] else
                           [alias.name for alias in node.names])
            elif node.level == 0 and parts[0] == "defectca" and len(parts) > 1:
                out.add(parts[1])
        elif isinstance(node, ast.Import):
            out.update(alias.name.split(".")[1] for alias in node.names
                       if alias.name.startswith("defectca."))
    return out


def test_modules_found():
    assert set(REGIMES) <= set(MODULES)


@pytest.mark.parametrize("module", REGIMES)
def test_regimes_import_no_other_regime(module):
    others = set(REGIMES) - {module}
    assert sorted(_imported_modules(_tree(module)) & others) == []


def _imports_by_function(tree):
    """(innermost enclosing function or None, import node) for every
    import statement of a module."""
    out = []

    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                out.append((fn, child))
            visit(child, child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else fn)

    visit(tree, None)
    return out


def _top_names(node):
    """The top-level names an import statement loads; a relative import
    loads the package."""
    if isinstance(node, ast.ImportFrom):
        return {"defectca" if node.level else node.module.split(".")[0]}
    return {alias.name.split(".")[0] for alias in node.names}


@pytest.mark.parametrize("module", MODULES)
def test_no_import_inside_a_function(module):
    """A function imports nothing but numpy, and only a function of
    :data:`NUMPY_FUNCTIONS` imports that; numpy is never imported at
    module level."""
    wrong = []
    for fn, node in _imports_by_function(_tree(module)):
        names = _top_names(node)
        if fn is None and "numpy" in names:
            wrong.append(f"module level:{node.lineno} imports numpy")
        elif fn is not None and (names != {"numpy"}
                                 or (module, fn) not in NUMPY_FUNCTIONS):
            wrong.append(f"{fn}:{node.lineno} imports {sorted(names)}")
    assert wrong == []


def test_numpy_functions_import_numpy():
    """Every function named in :data:`NUMPY_FUNCTIONS` exists and imports
    numpy, so the list names no stale exception."""
    found = {(module, fn) for module in MODULES
             for fn, node in _imports_by_function(_tree(module))
             if fn is not None and _top_names(node) == {"numpy"}}
    assert found == NUMPY_FUNCTIONS
