"""Every ``from defectca... import name`` in the README's Python blocks, the
demos and the benchmark harness names something that exists.

Tier-1 runs none of those files, so a renamed or deleted public name would
otherwise surface only when a reader or the benchmark runs them.  The files
are parsed, never executed.
"""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _sources():
    readme = (ROOT / "README.md").read_text()
    for i, block in enumerate(re.findall(r"```python\n(.*?)```", readme, re.S)):
        yield f"README.md[python block {i}]", block
    for path in sorted((ROOT / "demos").glob("*.py")) + [ROOT / "perfbench" / "workloads.py"]:
        yield str(path.relative_to(ROOT)), path.read_text()


def _imports():
    for where, text in _sources():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and \
                    (node.module or "").split(".")[0] == "defectca":
                for alias in node.names:
                    yield where, node.module, alias.name


IMPORTS = sorted(set(_imports()))


def test_sources_import_defectca():
    # the collector sees every source it promises to scan
    assert {where.split("[")[0] for where, _, _ in IMPORTS} >= {
        "README.md", "perfbench/workloads.py", "demos/subshift_tour.py"}


@pytest.mark.parametrize("where,module,name", IMPORTS,
                         ids=[f"{w}:{m}.{n}" for w, m, n in IMPORTS])
def test_imported_name_resolves(where, module, name):
    mod = importlib.import_module(module)
    assert hasattr(mod, name) or \
        importlib.util.find_spec(f"{module}.{name}") is not None, \
        f"{where} imports {name!r} from {module}, which has no such name"
