"""Every ``from defectca... import name`` in the README's Python blocks, the
demos and the benchmark harness names something that exists, every public
function and public method of the package has a caller outside the tests,
every field of its dataclasses and NamedTuples has a reader there, and
every defaulted parameter and field is set there to another value.

A use of a method or field, or a call of a method, counts for a class when
its receiver has that class as static type (see :class:`_Types`).  A
receiver whose type cannot be worked out counts for every class with an
attribute of that name, so a shared name can still hide an unread field,
an unused method or an unset parameter.

Tier-1 runs none of those files, so a renamed or deleted public name would
otherwise surface only when a reader or the benchmark runs them.  The files
are parsed, never executed.
"""

import ast
import functools
import importlib
import importlib.util
import re
import textwrap
from collections import Counter
from pathlib import Path
from typing import NamedTuple, Optional

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


# Public functions, methods and fields that nothing outside the tests uses,
# with why no CLI mode reaches each.  The oracles the tests check the
# library against live in tests/oracles.py, not here.
KEEP = {
    "turing.ca_to_turing":
        "the paper's CA-to-machine direction; the CLI compiles machines to "
        "CAs and has no mode that reads a CA back as a machine",
    "turing.apda_to_lr":
        "an APDA as a machine with one frozen tape; no CLI config describes "
        "an APDA",
    "diffusive.RecurrentClassStats.stationary":
        "the exact stationary law of the class, which STATIONARY_DIGESTS "
        "pins; walk-stats.json writing it would move the digests that "
        "perfbench/golden.json pins",
    "diffusive.RecurrentClassStats.states":
        "the closed class the law lives on; writing it would move the "
        "walk-stats.json digests that perfbench/golden.json pins",
    "diffusive.RowComparison.visits":
        "criterion 6's visit total per row; writing it would move the "
        "walk-stats.json digests that perfbench/golden.json pins",
}

SRC = ROOT / "src" / "defectca"
TREES = {path: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
CLASSES = [(path, node) for path, tree in TREES.items() for node in tree.body
           if isinstance(node, ast.ClassDef)]


def _public_functions():
    for path, tree in TREES.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield path, node


def _start(node):
    """The first line of a definition, its decorators included."""
    return min([node.lineno] + [d.lineno for d in node.decorator_list])


def _uncalled():
    """Public top-level functions that no name or attribute in ``src/``
    outside their own definition, nor in a demo, a README Python block or
    the benchmark's workloads, reads."""
    for path, node in _public_functions():
        start = _start(node)
        if not any(use.name == node.name and use.read and
                   not (use.path == path and start <= use.line <= node.end_lineno)
                   for use in _uses()):
            yield f"{path.stem}.{node.name}"


class _Types:
    """Static types of the receivers of attribute uses.

    A type is the name of a top-level class of ``src/``, a tuple of types,
    ``"defectca.<module>"`` for a module of the package, or None when
    unknown.  A receiver is typed from ``self`` (the enclosing class), from
    an annotated field or property of a typed receiver, from a parameter
    annotation, and from the annotated return type of the called function,
    class or method; ``a, b = f()`` unpacks a tuple return element by
    element.  A name bound in one scope to two types, or once to an unknown
    one, is unknown.
    """

    def __init__(self):
        self.classes = {node.name: node for _, node in CLASSES}
        defs = [(path.stem, node) for path, tree in TREES.items()
                for node in tree.body if isinstance(node, ast.FunctionDef)]
        self.functions = {(stem, node.name): node for stem, node in defs}
        names = Counter(node.name for _, node in defs)
        # a bare name resolves only when a single module defines it
        self.functions.update({node.name: node for _, node in defs
                               if names[node.name] == 1})

    def annotation(self, node):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            node = ast.parse(node.value, mode="eval").body
        if isinstance(node, ast.Name):
            return node.id if node.id in self.classes else None
        if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name):
            if node.value.id == "Optional":
                return self.annotation(node.slice)
            elts = node.slice.elts if isinstance(node.slice, ast.Tuple) else ()
            if node.value.id == "tuple" and elts and not any(
                    isinstance(e, ast.Constant) and e.value is Ellipsis for e in elts):
                return tuple(self.annotation(e) for e in elts)
        return None

    def member(self, cls, name):
        """The annotated field, method or property ``name`` of class ``cls``."""
        for node in getattr(self.classes.get(cls), "body", ()):
            if isinstance(node, ast.AnnAssign) and node.target.id == name or \
                    isinstance(node, ast.FunctionDef) and node.name == name:
                return node
        return None

    def of(self, node, env):
        """The type of the expression ``node`` where ``env`` types names."""
        if isinstance(node, ast.Name):
            return env.get(node.id)
        if isinstance(node, ast.Attribute):
            m = self.member(self.of(node.value, env), node.attr)
            if isinstance(m, ast.AnnAssign):
                return self.annotation(m.annotation)
            if isinstance(m, ast.FunctionDef) and any(
                    isinstance(d, ast.Name) and d.id == "property"
                    for d in m.decorator_list):
                return self.annotation(m.returns)
            return None
        if not isinstance(node, ast.Call):
            return None
        f = node.func
        if isinstance(f, ast.Name) and f.id in self.classes:
            return f.id
        if isinstance(f, ast.Name):
            fn = self.functions.get(f.id)
        elif isinstance(f, ast.Attribute):
            owner = self.of(f.value, env)
            fn = self.functions.get((owner.removeprefix("defectca."), f.attr)) \
                if str(owner).startswith("defectca.") else self.member(owner, f.attr)
        else:
            return None
        return self.annotation(fn.returns) if isinstance(fn, ast.FunctionDef) else None

    def uses(self, scope, outer, cls=None):
        """Yield each attribute node in ``scope`` (a module, class, function
        or lambda) and in the scopes nested in it, with its receiver's type.
        ``outer`` types the names visible around ``scope``; ``cls`` is the
        class whose method ``scope`` is."""
        env = dict(outer)
        bound: dict = {}

        def bind(target, typ):
            if isinstance(target, ast.Name):
                bound.setdefault(target.id, []).append(typ)
                env[target.id] = typ
            elif isinstance(target, (ast.Tuple, ast.List)):
                n = len(target.elts)
                parts = typ if isinstance(typ, tuple) and len(typ) == n else (None,) * n
                for t, p in zip(target.elts, parts):
                    bind(t, p)

        if isinstance(scope, (ast.FunctionDef, ast.Lambda)):
            a = scope.args
            for arg in a.posonlyargs + a.args + a.kwonlyargs + \
                    [x for x in (a.vararg, a.kwarg) if x]:
                bind(ast.Name(arg.arg), cls if cls and arg.arg == "self" else
                     self.annotation(arg.annotation))
        nodes = list(_local_nodes(scope))
        typed = set()  # the names an assignment or import has bound
        for node in nodes:
            if isinstance(node, ast.Assign):
                typ = self.of(node.value, env)
                for target in node.targets:
                    bind(target, typ)
                    typed.update(id(n) for n in ast.walk(target))
            elif isinstance(node, ast.AnnAssign) and not isinstance(scope, ast.ClassDef):
                bind(node.target, self.annotation(node.annotation))
                typed.add(id(node.target))
            elif isinstance(node, ast.ImportFrom) and \
                    (node.level or node.module == "defectca"):
                for alias in node.names:
                    if (SRC / f"{alias.name}.py").exists():  # a module
                        bind(ast.Name(alias.asname or alias.name),
                             f"defectca.{alias.name}")
            elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load) \
                    and id(node) not in typed:
                bind(node, None)  # a loop, comprehension, with, += or := target
        env.update({k: v[0] if len(set(v)) == 1 else None for k, v in bound.items()})
        for node in nodes:
            if isinstance(node, ast.Attribute):
                yield node, self.of(node.value, env)
            elif isinstance(node, (ast.FunctionDef, ast.Lambda, ast.ClassDef)):
                # a class body's names are not visible in its methods
                in_class = isinstance(scope, ast.ClassDef)
                yield from self.uses(node, outer if in_class else env,
                                     scope.name if in_class else None)


def _local_nodes(scope):
    """The nodes of ``scope``, without entering the scopes nested in it."""
    for child in ast.iter_child_nodes(scope):
        yield child
        if not isinstance(child, (ast.FunctionDef, ast.Lambda, ast.ClassDef)):
            yield from _local_nodes(child)


_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _params(args):
    return args.posonlyargs + args.args + args.kwonlyargs + \
        [a for a in (args.vararg, args.kwarg) if a]


def _bindings(scope):
    """(assigned, defined): the names the module, function, lambda or
    comprehension ``scope`` binds by storing to them, and those it binds as
    parameters, comprehension targets, ``def``, ``class`` or import names.
    Bindings in the scopes nested in it do not count, nor do names it
    declares global."""
    assigned, defined, declared = set(), set(), set()
    if isinstance(scope, _COMPREHENSIONS):
        nodes = [g.target for g in scope.generators]
    else:
        if isinstance(scope, _FUNCTIONS):
            defined |= {a.arg for a in _params(scope.args)}
        nodes = list(scope.body) if isinstance(scope.body, list) else [scope.body]
    while nodes:
        node = nodes.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            assigned.add(node.id)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            assigned.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            defined |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.Global):
            declared |= set(node.names)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)  # its body is a scope of its own
        elif not isinstance(node, (ast.Lambda, *_COMPREHENSIONS)):
            nodes.extend(ast.iter_child_nodes(node))
    return assigned - declared, defined - declared


def _module_loads(tree):
    """The bare-name loads of the module ``tree`` that read a module-level
    name: no function, lambda or comprehension around the load binds the
    name, and the module does not bind it by assignment alone, as it binds
    its variables.  Decorators, defaults, annotations and a comprehension's
    first iterable are read in the enclosing scope."""
    assigned, defined = _bindings(tree)
    found = []

    def visit(node, bound):
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load) and node.id not in bound:
                found.append(node)
            return
        if isinstance(node, _COMPREHENSIONS + _FUNCTIONS):
            inner = bound.union(*_bindings(node))
            if isinstance(node, _COMPREHENSIONS):
                first, *rest = node.generators
                outside = [first.iter]
                inside = [*first.ifs, *rest] + [getattr(node, f) for f in
                                                ("elt", "key", "value") if hasattr(node, f)]
            else:
                a = node.args
                outside = [*getattr(node, "decorator_list", ()), *a.defaults,
                           *a.kw_defaults, getattr(node, "returns", None)]
                outside += [p.annotation for p in _params(a)]
                inside = node.body if isinstance(node.body, list) else [node.body]
            for child in filter(None, outside):
                visit(child, bound)
            for child in inside:
                visit(child, inner)
            return
        for child in ast.iter_child_nodes(node):
            visit(child, bound)

    visit(tree, frozenset(assigned - defined))
    return found


class _Use(NamedTuple):
    path: Optional[Path]  # a file of src/ or tests/, or None for _sources()
    line: int
    name: str  # the attribute, or a bare name as the package defines it
    attr: bool  # an attribute of a receiver, not a bare name
    read: bool
    rtype: object  # the receiver's type, for an attribute
    call: Optional[ast.Call]  # the call this names the callee of


@functools.cache
def _uses(tests=False):
    """Every attribute, and every bare name read that resolves to a
    module-level name (see :func:`_module_loads`), in ``src/``, in the files
    :func:`_sources` scans and, with ``tests``, in ``tests/``.  A bare name
    bound by ``from ... import name as alias`` is recorded as ``name``."""
    types = _Types()
    files = list(TREES.items()) + [(None, ast.parse(text)) for _, text in _sources()]
    if tests:
        files += [(path, ast.parse(path.read_text()))
                  for path in sorted((ROOT / "tests").glob("*.py"))]
    out = []
    for path, tree in files:
        nodes = list(ast.walk(tree))
        aliases = {a.asname: a.name for node in nodes
                   if isinstance(node, ast.ImportFrom) for a in node.names if a.asname}
        calls = {id(node.func): node for node in nodes if isinstance(node, ast.Call)}
        out += [_Use(path, node.lineno, node.attr, True, isinstance(node.ctx, ast.Load),
                     rtype, calls.get(id(node)))
                for node, rtype in types.uses(tree, {})]
        out += [_Use(path, node.lineno, aliases.get(node.id, node.id), False, True,
                     None, calls.get(id(node)))
                for node in _module_loads(tree)]
    return out


def _counts_for(cls, rtype):
    """Whether a use on a receiver of type ``rtype`` counts for ``cls``: a
    receiver :class:`_Types` cannot type counts for every class with that
    attribute name."""
    return rtype is None or rtype == cls


def _unused_methods():
    """Public methods and properties of top-level classes in ``src/`` that
    no attribute outside their own definition names on a receiver of that
    class, or of unknown type."""
    for path, cls in CLASSES:
        for node in cls.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                start = _start(node)
                if not any(use.attr and use.name == node.name and
                           _counts_for(cls.name, use.rtype) and
                           not (use.path == path and start <= use.line <= node.end_lineno)
                           for use in _uses()):
                    yield f"{path.stem}.{cls.name}.{node.name}"


def _is_record(cls):
    """Whether ``cls`` is a dataclass or a NamedTuple."""
    names = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
    return any(isinstance(n, ast.Name) and n.id in ("dataclass", "NamedTuple")
               for n in names + cls.bases)


FIELDS = {f"{path.stem}.{cls.name}.{node.target.id}": cls.name
          for path, cls in CLASSES if _is_record(cls)
          for node in cls.body if isinstance(node, ast.AnnAssign)}


def _unread_fields():
    """Fields of the dataclasses and NamedTuples of ``src/`` that nothing
    reads on a receiver of that class, or of unknown type."""
    for key, cls in FIELDS.items():
        name = key.rsplit(".", 1)[1]
        if not any(use.attr and use.name == name and use.read and
                   _counts_for(cls, use.rtype) for use in _uses()):
            yield key


class _Signature(NamedTuple):
    key: str  # module.function, module.Class.method, or module.Class
    positional: list  # the parameter names a positional argument binds, in order
    defaults: dict  # each defaulted parameter's default expression
    span: Optional[tuple]  # (path, first, last line) of a function's own definition


def _signature(key, args, skip, span):
    named = args.posonlyargs + args.args
    defaults = dict(zip([a.arg for a in named[len(named) - len(args.defaults):]],
                        args.defaults))
    defaults.update({a.arg: d for a, d in zip(args.kwonlyargs, args.kw_defaults) if d})
    return _Signature(key, [a.arg for a in named[skip:]], defaults, span)


def _record_signature(key, cls):
    """The constructor of a dataclass or NamedTuple: its fields, without
    those declared ``field(init=False)``."""
    positional, defaults = [], {}
    for node in cls.body:
        if not isinstance(node, ast.AnnAssign):
            continue
        value = node.value
        if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
            kw = {k.arg: k.value for k in value.keywords}
            if getattr(kw.get("init"), "value", True) is False:
                continue
            value = kw.get("default", kw.get("default_factory"))
        positional.append(node.target.id)
        if value is not None:
            defaults[node.target.id] = value
    return _Signature(key, positional, defaults, None)


def _signatures():
    """The signature of each public function, public method and public
    class of ``src/``; a class's is its constructor's."""
    for path, tree in TREES.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or \
                    node.name.startswith("_"):
                continue
            key = f"{path.stem}.{node.name}"
            if isinstance(node, ast.FunctionDef):
                yield _signature(key, node.args, 0, (path, _start(node), node.end_lineno))
                continue
            if _is_record(node):
                yield _record_signature(key, node)
            for m in node.body:
                if isinstance(m, ast.FunctionDef) and (m.name == "__init__" or
                                                       not m.name.startswith("_")):
                    static = any(getattr(d, "id", None) == "staticmethod"
                                 for d in m.decorator_list)
                    sig = _signature(f"{key}.{m.name}", m.args, 0 if static else 1,
                                     (path, _start(m), m.end_lineno))
                    # a class is called through its __init__
                    yield sig._replace(key=key) if m.name == "__init__" else sig


SIGNATURES = {sig.key: sig for sig in _signatures()}


def _callees(use):
    """The signatures that the call ``use`` names may resolve to: a bare name
    to every public function or class of that name, an attribute of a module
    to that module's, and an attribute of any other receiver to the methods
    of that name of each class the use counts for."""
    if not use.attr:
        return [sig for key, sig in SIGNATURES.items()
                if key.count(".") == 1 and key.endswith(f".{use.name}")]
    if str(use.rtype).startswith("defectca."):
        sig = SIGNATURES.get(f"{use.rtype.removeprefix('defectca.')}.{use.name}")
        return [sig] if sig else []
    return [SIGNATURES[f"{path.stem}.{cls.name}.{use.name}"] for path, cls in CLASSES
            if f"{path.stem}.{cls.name}.{use.name}" in SIGNATURES and
            _counts_for(cls.name, use.rtype)]


def _set_by(call, sig):
    """The defaulted parameters of ``sig`` that ``call`` passes a value
    other than the default expression; a ``*args`` or ``**kwargs`` may pass
    any of them."""
    if any(isinstance(a, ast.Starred) for a in call.args) or \
            any(k.arg is None for k in call.keywords):
        return set(sig.defaults)
    given = dict(zip(sig.positional, call.args)) | {k.arg: k.value for k in call.keywords}
    return {p for p, default in sig.defaults.items()
            if p in given and ast.dump(given[p]) != ast.dump(default)}


def _unset_parameters():
    """Defaulted parameters of the public functions, methods and classes of
    ``src/`` that no call outside their own definition sets: outside the
    tests, or also inside them for a name in ``KEEP``."""
    set_ = set()
    for use in _uses(tests=True):
        if use.call is None:
            continue
        in_tests = use.path is not None and use.path.parent == ROOT / "tests"
        for sig in _callees(use):
            own = sig.span and use.path == sig.span[0] and \
                sig.span[1] <= use.line <= sig.span[2]
            if not own and (not in_tests or sig.key in KEEP):
                set_ |= {f"{sig.key}.{p}" for p in _set_by(use.call, sig)}
    return {f"{sig.key}.{p}" for sig in SIGNATURES.values() for p in sig.defaults} - set_


def test_bare_names_resolve_to_their_binding_scope():
    # a local, parameter, comprehension target or module variable that
    # shares a public function's name is no use of that function
    tree = ast.parse(textwrap.dedent("""
        from m import f, g
        h = 1
        def k(run, x=f):
            total = g(run)
            return [step for step in run] + [h, x, total, helper]
        helper = lambda step: step + f
    """))
    assert sorted(node.id for node in _module_loads(tree)) == ["f", "f", "g"]


def test_every_public_function_has_a_caller():
    uncalled = set(_uncalled()) | set(_unused_methods())
    # call each of these, delete it, or keep it with a reason
    assert sorted(uncalled - KEEP.keys()) == []
    # these are gone or have a caller now: drop them from KEEP
    assert sorted(KEEP.keys() - FIELDS.keys() - uncalled) == []


def test_every_field_has_a_reader():
    unread = set(_unread_fields())
    # read each of these, delete it, or keep it with a reason
    assert sorted(unread - KEEP.keys()) == []
    # these are gone or have a reader now: drop them from KEEP
    assert sorted(KEEP.keys() & FIELDS.keys() - unread) == []


def test_every_parameter_is_set():
    # a default that every caller keeps is a constant: inline it and drop
    # the parameter, or pass another value where a caller needs one
    assert sorted(_unset_parameters()) == []
