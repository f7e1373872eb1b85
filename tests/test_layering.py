"""The package's import layering, read from the source without running it.

The three regimes (ballistic, diffusive, turing) share their machinery
through the lower layers (shifts, rules, lattice, tracking), so none of them
imports another.  Every import sits at module level, where the layering can
be read off the top of each file.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "defectca"
REGIMES = ("ballistic", "diffusive", "turing")
MODULES = sorted(path.stem for path in SRC.glob("*.py"))


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


@pytest.mark.parametrize("module", MODULES)
def test_no_import_inside_a_function(module):
    inner = [f"{fn.name}:{node.lineno}"
             for fn in ast.walk(_tree(module))
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(fn)
             if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert inner == []
