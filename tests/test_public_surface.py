"""Every ``from defectca... import name`` in the README's Python blocks, the
demos and the benchmark harness names something that exists, and every
public function and public method of the package has a caller outside the
tests.

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


# Public functions that nothing outside the tests calls, kept because each is
# a construct of the paper or an oracle the tests check the library against.
KEEP = {
    "ballistic.verify_conjugacy":
        "the kinematic system is conjugate to the CA over one period",
    "ballistic.marked_cell_presentation":
        "a block-space particle state in source cells, as the paper prints it",
    "diffusive.pushforward_cylinders": "the Parry measure is Phi-invariant",
    "diffusive.subsampled_walk":
        "the walk with one frozen side, a mixture over its fixed points",
    "io.save_rule": "writes rule specs; the inverse of load_rule",
    "rules.identity_rule": "the trivial rule, whose kinematics are xi = upsilon",
    "rules.is_left_permutative": "the left half of the permutativity pair",
    "rules.is_surjective_on": "Phi(S) = S on words",
    "rules.find_travelling_wave_backgrounds":
        "the periodic backgrounds with Phi^p = sigma^(p*v)",
    "turing.ca_to_turing": "the CA-to-machine direction of the compilation",
    "turing.apda_to_lr": "an APDA as a machine with one frozen tape",
    "turing.run_apda": "the APDA oracle that runaway detection is checked on",
    "zoo.gstar_shift": "the worked G* background of ECA#184",
    "lattice.Configuration.shifted":
        "the shift sigma^k that rules and recodings commute with",
    "shifts.MarkovShift.is_admissible":
        "membership in the shift's language, the oracle for written words",
}

SRC = ROOT / "src" / "defectca"


def _public_functions():
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield path, node


def _uncalled():
    """Public top-level functions whose name appears nowhere in ``src/``
    outside their own definition, nor in a demo, a README Python block or
    the benchmark's workloads."""
    outside = "\n".join(text for _, text in _sources())
    texts = {path: path.read_text() for path in SRC.glob("*.py")}
    for path, node in _public_functions():
        lines = texts[path].splitlines()
        start = min([node.lineno] + [d.lineno for d in node.decorator_list]) - 1
        own = "\n".join(lines[:start] + lines[node.end_lineno:])
        word = re.compile(rf"\b{node.name}\b")
        if not any(word.search(text) for text in
                   [outside, own] + [t for p, t in texts.items() if p != path]):
            yield f"{path.stem}.{node.name}"


def _unused_methods():
    """Public methods and properties of top-level classes in ``src/`` that
    no attribute outside their own definition names.  A receiver is known
    when it is ``self`` or an annotated field of ``self``; such a use counts
    only for that class, so ``self.right.shifted`` in ``Configuration``
    names ``PeriodicBackground.shifted`` and not ``Configuration.shifted``.
    A use on any other receiver counts for every class with the method."""
    trees = {path: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    classes = [(path, cls) for path, tree in trees.items() for cls in tree.body
               if isinstance(cls, ast.ClassDef)]
    fields = {(cls.name, node.target.id): node.annotation.id
              for _, cls in classes for node in cls.body
              if isinstance(node, ast.AnnAssign) and
              isinstance(node.annotation, ast.Name)}

    def receiver(node, cls):
        v = node.value
        if isinstance(v, ast.Name) and v.id == "self":
            return cls
        if isinstance(v, ast.Attribute) and isinstance(v.value, ast.Name) and \
                v.value.id == "self":
            return fields.get((cls, v.attr))
        return None

    uses = []  # (path or None, line, attribute, receiver class or None)
    for path, tree in list(trees.items()) + \
            [(None, ast.parse(text)) for _, text in _sources()]:
        for top in tree.body:
            cls = top.name if isinstance(top, ast.ClassDef) else None
            uses += [(path, node.lineno, node.attr, receiver(node, cls) if cls else None)
                     for node in ast.walk(top) if isinstance(node, ast.Attribute)]
    for path, cls in classes:
        for node in cls.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                start = min([node.lineno] + [d.lineno for d in node.decorator_list])
                if not any(attr == node.name and rc in (None, cls.name) and
                           not (where == path and start <= line <= node.end_lineno)
                           for where, line, attr, rc in uses):
                    yield f"{path.stem}.{cls.name}.{node.name}"


def test_every_public_function_has_a_caller():
    uncalled = set(_uncalled()) | set(_unused_methods())
    # call each of these, delete it, or keep it with a reason
    assert sorted(uncalled - KEEP.keys()) == []
    # these are gone or have a caller now: drop them from KEEP
    assert sorted(KEEP.keys() - uncalled) == []
