"""Static checks: every global name the code reads is defined somewhere,
every name a module imports is used, every function, method and class is
referenced by the code under src/ (test oracles live in tests/oracles.py),
every field a class's __init__ sets is read there (a few kept for outside
readers excepted), every parameter is read by its function, no module
imports dataclasses, no module but the pipeline imports time, no function
mutates a module-level container, no code takes a list's first element
with ``.pop(0)``, some call passes each defaulted parameter, no module but
memory.py spells a pointer symbol's name suffix, and README's command-line
block lists exactly the CLI's options.

Each module under src/ is walked with the stdlib symtable module. A name
that a function or class body reads as a global must be bound at module
level (assigned, imported, or a def/class) or be a builtin; otherwise the
first call that reaches it ends in a NameError. A name imported at module
level must also appear as a name in that module's syntax tree, except for
``from __future__`` imports and the re-exports of a package's __init__.py.
"""

import ast
import builtins
import os
import re
import symtable

import pytest

from cunitgen.cli import build_arg_parser

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "cunitgen")
README = os.path.join(SRC, "..", "..", "README.md")
MODULE_DUNDERS = {"__file__", "__name__", "__doc__", "__package__", "__spec__",
                  "__loader__", "__path__", "__builtins__"}


def modules() -> list[str]:
    out = []
    for root, _dirs, files in os.walk(SRC):
        out += [os.path.join(root, f) for f in files if f.endswith(".py")]
    return sorted(out)


def undefined_globals(text: str, name: str) -> list[str]:
    top = symtable.symtable(text, name, "exec")
    defined = {s.get_name() for s in top.get_symbols()
               if s.is_assigned() or s.is_imported() or s.is_namespace()}
    allowed = defined | set(dir(builtins)) | MODULE_DUNDERS
    missing = []
    work = list(top.get_children())
    while work:
        table = work.pop()
        work += table.get_children()
        for s in table.get_symbols():
            if s.is_global() and s.is_referenced() and s.get_name() not in allowed:
                missing.append(f"{table.get_name()}: {s.get_name()}")
    return sorted(missing)


def unused_imports(text: str) -> list[str]:
    tree = ast.parse(text)
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("path", modules(), ids=lambda p: os.path.relpath(p, SRC))
def test_no_undefined_globals(path):
    with open(path, encoding="utf-8") as fh:
        assert undefined_globals(fh.read(), path) == []


def test_check_sees_a_missing_import():
    src = ("from x import a\n"
           "class C:\n"
           "    def m(self):\n"
           "        return a + b + len(__file__)\n")
    assert undefined_globals(src, "<probe>") == ["m: b"]


@pytest.mark.parametrize("path", [p for p in modules()
                                  if os.path.basename(p) != "__init__.py"],
                         ids=lambda p: os.path.relpath(p, SRC))
def test_no_unused_imports(path):
    with open(path, encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []


def test_check_sees_an_unused_import():
    src = ("from __future__ import annotations\n"
           "import os.path\n"
           "from x import a, b as c\n"
           "def f() -> a:\n"
           "    return os.sep\n")
    assert unused_imports(src) == ["c"]


# Definitions under src/ that only tests reach. An oracle that only tests
# run belongs in tests/oracles.py instead.
TEST_ORACLES: dict[str, str] = {}


def unreferenced_definitions(src_dir: str) -> list[str]:
    """Functions, methods and classes defined under src_dir whose name no
    code there mentions: as a name, an attribute or an imported name.
    Dunder methods are called by Python itself and are not listed."""
    defined: dict[str, str] = {}
    referenced: set[str] = set()
    for root, _dirs, files in os.walk(src_dir):
        for f in sorted(files):
            if not f.endswith(".py"):
                continue
            path = os.path.join(root, f)
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    defined.setdefault(node.name, os.path.relpath(path, src_dir))
                elif isinstance(node, ast.Name):
                    referenced.add(node.id)
                elif isinstance(node, ast.Attribute):
                    referenced.add(node.attr)
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    referenced |= {a.name.split(".")[-1] for a in node.names}
    return sorted(f"{module}: {name}" for name, module in defined.items()
                  if name not in referenced
                  and not (name.startswith("__") and name.endswith("__")))


def test_every_definition_is_reachable_from_src():
    assert unreferenced_definitions(SRC) == sorted(TEST_ORACLES)


# Fields that no code under src/ reads, each kept for a reader
# outside it.
_SELECTION_LOG = ("the selection log is part of generate_function's result: "
                  "perfbench/run.py's counters read verdict, the STCT tests "
                  "read labels")
UNREAD_FIELDS = {
    "frontend/csyntax.py: VarDecl.is_extern": "the parsed unit records it; the unit "
                                              "printer in tests/oracles.py reads it",
    "pipeline.py: SelectionRecord.labels": _SELECTION_LOG,
    "pipeline.py: SelectionRecord.verdict": _SELECTION_LOG,
}


def _is_self_attr(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
        and node.value.id == "self"


def init_fields(node: ast.ClassDef) -> list[str]:
    """The fields of a class: the names its __init__ stores, as
    ``self.<name> = ...`` or, in the immutable records, as keywords of
    ``self.__dict__.update(...)``."""
    names: list[str] = []
    for stmt in node.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__":
            for n in ast.walk(stmt):
                if _is_self_attr(n) and isinstance(n.ctx, ast.Store):
                    names.append(n.attr)
                elif isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) \
                        and n.func.attr == "update" and _is_self_attr(n.func.value) \
                        and n.func.value.attr == "__dict__":
                    names += [k.arg for k in n.keywords if k.arg is not None]
    return names


def _parsed(src_dir: str) -> list[tuple[str, ast.AST]]:
    out = []
    for root, _dirs, files in os.walk(src_dir):
        for f in sorted(files):
            if f.endswith(".py"):
                path = os.path.join(root, f)
                with open(path, encoding="utf-8") as fh:
                    out.append((os.path.relpath(path, src_dir), ast.parse(fh.read())))
    return out


def _exception_classes(classes: list[ast.ClassDef]) -> set[str]:
    """Names of the classes that derive, directly or not, from a builtin
    exception."""
    found = {name for name in dir(builtins)
             if isinstance(getattr(builtins, name), type)
             and issubclass(getattr(builtins, name), BaseException)}
    grew = True
    while grew:
        grew = False
        for c in classes:
            if c.name not in found and any(isinstance(b, ast.Name) and b.id in found
                                           for b in c.bases):
                found.add(c.name)
                grew = True
    return found


def unread_fields(src_dir: str) -> list[str]:
    """Fields of the classes defined under src_dir (see init_fields) whose
    name no code there reads as an attribute (``x.name`` in a load, not a
    store). An exception's attributes are for whoever catches it, so
    exception classes are not checked."""
    parsed = _parsed(src_dir)
    classes = [(module, node) for module, tree in parsed for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)]
    exceptions = _exception_classes([node for _module, node in classes])
    fields = {f"{node.name}.{name}": module for module, node in classes
              if node.name not in exceptions for name in init_fields(node)}
    read = {node.attr for _module, tree in parsed for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{module}: {name}" for name, module in fields.items()
                  if name.split(".")[1] not in read)


def test_every_field_is_read_in_src():
    assert unread_fields(SRC) == sorted(UNREAD_FIELDS)


def test_field_check_sees_an_unread_field(tmp_path):
    (tmp_path / "m.py").write_text(
        "class P(Frozen):\n"
        "    def __init__(self, read, written=0, unread=0):\n"
        "        self.__dict__.update(read=read, written=written, unread=unread)\n"
        "class Q:\n"
        "    def __init__(self, kept, dropped=0):\n"
        "        self.kept = kept\n"
        "        self.dropped = dropped\n"
        "class R:\n"
        "    plain: int = 0\n"
        "class E(ValueError):\n"
        "    def __init__(self, detail):\n"
        "        self.detail = detail\n"
        "class F(E):\n"
        "    def __init__(self, more):\n"
        "        self.more = more\n"
        "def f(p, q):\n"
        "    q.written = p.read + q.kept\n"
        "    return p\n")
    assert unread_fields(str(tmp_path)) == ["m.py: P.unread", "m.py: P.written",
                                            "m.py: Q.dropped"]


def unread_parameters(src_dir: str) -> list[str]:
    """Parameters of the functions, methods and lambdas under src_dir that
    their body never reads: a value each caller passes for nothing. self and
    cls are Python's own, and a dunder method keeps the signature Python
    calls it with."""
    found = []
    for module, tree in _parsed(src_dir):
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            name = getattr(fn, "name", "<lambda>")
            if name.startswith("__") and name.endswith("__"):
                continue
            args = fn.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
                      + [args.vararg, args.kwarg] if a is not None]
            read = {n.id for n in ast.walk(fn)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            found += [f"{module}: {name}({p})" for p in params
                      if p not in read and p not in ("self", "cls")]
    return sorted(found)


def test_every_parameter_is_read():
    assert unread_parameters(SRC) == []


def test_parameter_check_sees_an_unread_parameter(tmp_path):
    (tmp_path / "m.py").write_text(
        "class C:\n"
        "    def __exit__(self, *exc):\n"
        "        return None\n"
        "    def m(self, used, unused, *rest, key=0, **extra):\n"
        "        def inner(x):\n"
        "            return used + key\n"
        "        return inner, extra\n"
        "    @classmethod\n"
        "    def make(cls, n):\n"
        "        return cls\n"
        "f = lambda a, b: a\n")
    assert unread_parameters(str(tmp_path)) == [
        "m.py: <lambda>(b)", "m.py: inner(x)", "m.py: m(rest)", "m.py: m(unused)",
        "m.py: make(n)"]


# The region table owns the names of a pointer input's symbols; every other
# module asks it what a symbol stands for.
_POINTER_SUFFIXES = ("@baseAddress", "@offset")


def pointer_suffix_spellers(src_dir: str) -> list[str]:
    """Modules under src_dir, memory.py aside, whose text spells a pointer
    symbol's name suffix."""
    found = []
    for root, _dirs, files in os.walk(src_dir):
        for f in files:
            path = os.path.join(root, f)
            module = os.path.relpath(path, src_dir)
            if f.endswith(".py") and module != "memory.py":
                with open(path, encoding="utf-8") as fh:
                    text = fh.read()
                if any(suffix in text for suffix in _POINTER_SUFFIXES):
                    found.append(module)
    return sorted(found)


def test_only_the_region_table_spells_pointer_symbols():
    assert pointer_suffix_spellers(SRC) == []


def test_suffix_check_sees_a_spelling(tmp_path):
    (tmp_path / "memory.py").write_text('base = f"{name}@baseAddress"\n')
    (tmp_path / "a.py").write_text('is_offset = name.endswith("@offset")\n')
    (tmp_path / "b.py").write_text('# p@baseAddress\n')
    (tmp_path / "c.py").write_text('offset = 0\n')
    assert pointer_suffix_spellers(str(tmp_path)) == ["a.py", "b.py"]


def test_no_module_imports_dataclasses():
    """Generating dataclass methods dominated the package's import time."""
    importers = []
    for module, tree in _parsed(SRC):
        for node in ast.walk(tree):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) \
                else [node.module] if isinstance(node, ast.ImportFrom) else []
            if "dataclasses" in names:
                importers.append(module)
    assert importers == []


def test_reachability_check_sees_an_unused_method(tmp_path):
    (tmp_path / "m.py").write_text(
        "import os\n"
        "class C:\n"
        "    def __init__(self):\n"
        "        self.used()\n"
        "    def used(self):\n"
        "        return helper(os.sep)\n"
        "    def unused(self):\n"
        "        pass\n"
        "def helper(x):\n"
        "    return C\n")
    assert unreferenced_definitions(str(tmp_path)) == ["m.py: unused"]


# Calls that change a list, dict or set in place.
_MUTATING_METHODS = {"append", "extend", "insert", "update", "setdefault", "add",
                     "pop", "popitem", "remove", "discard", "clear"}
_CONTAINER_CALLS = {"list", "dict", "set", "defaultdict", "OrderedDict", "Counter",
                    "deque", "bytearray"}


def _is_container(value: ast.AST) -> bool:
    if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
                          ast.SetComp)):
        return True
    return isinstance(value, ast.Call) and isinstance(value.func, ast.Name) \
        and value.func.id in _CONTAINER_CALLS


def module_containers(tree: ast.Module) -> set[str]:
    """Names a module binds at its top level to a list, dict or set."""
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        if _is_container(value):
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


def _own_nodes(fn: ast.AST):
    """The nodes of a function's body, not those of the functions, lambdas
    and classes defined inside it."""
    work = list(ast.iter_child_nodes(fn))
    while work:
        node = work.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
                                 ast.ClassDef)):
            work += ast.iter_child_nodes(node)


def mutated_module_containers(text: str) -> list[str]:
    """(function: name) for each module-level container a function changes
    in place: a subscript store or delete, or a call of a mutating method.
    A name the function binds itself is its own, not the module's."""
    tree = ast.parse(text)
    containers = module_containers(tree)
    found = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = fn.args
        local = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
        local |= {a.arg for a in (args.vararg, args.kwarg) if a is not None}
        declared: set[str] = set()
        changed: set[str] = set()
        for node in _own_nodes(fn):
            if isinstance(node, ast.Global):
                declared.update(node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                local.add(node.id)
            elif isinstance(node, ast.Subscript) \
                    and isinstance(node.ctx, (ast.Store, ast.Del)) \
                    and isinstance(node.value, ast.Name):
                changed.add(node.value.id)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in _MUTATING_METHODS \
                    and isinstance(node.func.value, ast.Name):
                changed.add(node.func.value.id)
        name = getattr(fn, "name", "<lambda>")
        found |= {f"{name}: {g}" for g in changed & containers
                  if g in declared or g not in local}
    return sorted(found)


@pytest.mark.parametrize("path", modules(), ids=lambda p: os.path.relpath(p, SRC))
def test_no_function_mutates_a_module_container(path):
    """State shared across calls belongs to an object the caller creates,
    not to the module, where one function's generation could reach the
    next's."""
    with open(path, encoding="utf-8") as fh:
        assert mutated_module_containers(fh.read()) == []


def test_mutation_check_sees_a_module_cache():
    src = ("_CACHE = {}\n"
           "_SEEN: list = []\n"
           "_TABLE = {'a': 1}\n"
           "_FROZEN = frozenset()\n"
           "def f(k):\n"
           "    _CACHE[k] = _TABLE[k]\n"
           "    return _FROZEN\n"
           "def g(x):\n"
           "    _SEEN.append(x)\n"
           "def h(_CACHE):\n"
           "    _CACHE.pop(0)\n"
           "    seen = []\n"
           "    seen.append(_TABLE.get(1))\n"
           "def k():\n"
           "    global _CACHE\n"
           "    _CACHE = {}\n"
           "    _CACHE.setdefault(1, 2)\n"
           "    del _TABLE['a']\n")
    assert mutated_module_containers(src) == ["f: _CACHE", "g: _SEEN", "k: _CACHE",
                                              "k: _TABLE"]


def clock_imports(text: str) -> list[int]:
    """The lines of text that import the time module or a name from it."""
    return sorted(node.lineno for node in ast.walk(ast.parse(text))
                  if isinstance(node, ast.Import)
                  and any(a.name.split(".")[0] == "time" for a in node.names)
                  or isinstance(node, ast.ImportFrom) and node.module == "time")


@pytest.mark.parametrize("path", [p for p in modules()
                                  if os.path.basename(p) != "pipeline.py"],
                         ids=lambda p: os.path.relpath(p, SRC))
def test_only_the_pipeline_reads_the_clock(path):
    """Verdicts come from counts: the solver, symex, the STCT and the
    harness read no clock. The pipeline reads it for the --budget-ms guard
    and the elapsed time it prints."""
    with open(path, encoding="utf-8") as fh:
        assert clock_imports(fh.read()) == []


def test_clock_check_sees_a_time_import():
    src = ("import os, time as t\n"
           "from . import timing\n"
           "def f():\n"
           "    from time import monotonic\n"
           "    return t, monotonic, timing\n")
    assert clock_imports(src) == [1, 4]


def front_pops(text: str) -> list[int]:
    """The lines of the ``.pop(0)`` calls in text. On a list this moves
    every element after the first: an O(n) step that makes a queue loop
    quadratic. A breadth-first loop iterates over its list instead."""
    return sorted(node.lineno for node in ast.walk(ast.parse(text))
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "pop" and len(node.args) == 1
                  and isinstance(node.args[0], ast.Constant) and node.args[0].value == 0)


@pytest.mark.parametrize("path", modules(), ids=lambda p: os.path.relpath(p, SRC))
def test_no_list_is_used_as_a_queue(path):
    with open(path, encoding="utf-8") as fh:
        assert front_pops(fh.read()) == []


def test_queue_check_sees_a_front_pop():
    src = ("def bfs(root):\n"
           "    work = [root]\n"
           "    while work:\n"
           "        node = work.pop(0)\n"
           "        work.pop()\n"
           "        work.pop(1)\n"
           "        seen = {}.pop(0, None)\n"
           "    return work.pop(-1), node, seen\n")
    assert front_pops(src) == [4]


def _defaulted(fn: ast.AST, bound: int) -> list[tuple[str, int | None]]:
    """(name, position) of each defaulted parameter of fn. The position
    counts the arguments a call writes, after the ``bound`` ones that Python
    passes itself (self or cls); a keyword-only parameter has none."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    out = [(a.arg, i - bound) for i, a in enumerate(positional) if i >= first]
    return out + [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                  if d is not None]


def _callee(call: ast.Call, bases: list[str]) -> list[str]:
    """The names a call may reach: a bare or attribute name, or for
    ``super().__init__(...)`` the base classes of the class it is in."""
    func = call.func
    if isinstance(func, ast.Name):
        return [func.id]
    if not isinstance(func, ast.Attribute):
        return []
    if func.attr == "__init__" and isinstance(func.value, ast.Call) \
            and isinstance(func.value.func, ast.Name) and func.value.func.id == "super":
        return bases
    return [func.attr]


def _calls_in(node: ast.AST, enclosing: dict[str, list[str]]):
    """Each call under node, with the functions it is made in: a map from
    the name a call reaches each of them by (its class's for an __init__)
    to its parameter names after the bound one, positional ones first."""
    for child in ast.iter_child_nodes(node):
        inner = enclosing
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            method = isinstance(node, ast.ClassDef) and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod"
                for d in child.decorator_list)
            name = node.name if method and child.name == "__init__" else child.name
            params = [a.arg for a in child.args.posonlyargs + child.args.args]
            inner = {**enclosing, name: params[1 if method else 0:]
                     + [a.arg for a in child.args.kwonlyargs]}
        elif isinstance(child, ast.Call):
            yield child, enclosing
        yield from _calls_in(child, inner)


def _names(arg: ast.AST, param: str) -> bool:
    return isinstance(arg, ast.Name) and arg.id == param


def unset_defaults(src_dir: str, caller_dirs: list[str]) -> list[str]:
    """Defaulted parameters of the functions, methods and classes (their
    __init__) under src_dir that no call under caller_dirs passes. A call
    is resolved by its bare or attribute name, and reaches every definition
    of that name; a ``*`` or ``**`` argument passes every parameter. A call
    made inside the function it reaches, or in a function nested in that
    one, does not pass a parameter it passes on unchanged: the same name at
    the same position or keyword."""
    defs = []
    for module, tree in _parsed(src_dir):
        methods = set()
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    methods.add(fn)
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in fn.decorator_list)
                    # a class is called by its own name
                    init = fn.name == "__init__"
                    defs.append((module, cls.name if init else f"{cls.name}.{fn.name}",
                                 cls.name if init else fn.name,
                                 _defaulted(fn, 0 if static else 1)))
        defs += [(module, fn.name, fn.name, _defaulted(fn, 0)) for fn in ast.walk(tree)
                 if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                 and fn not in methods]
    positions: dict[str, set[int]] = {}
    keywords: dict[str, set[str]] = {}
    spread: set[str] = set()
    for caller_dir in caller_dirs:
        for _module, tree in _parsed(caller_dir):
            bases = {}
            for cls in ast.walk(tree):
                if isinstance(cls, ast.ClassDef):
                    names = [b.id if isinstance(b, ast.Name) else b.attr
                             for b in cls.bases if isinstance(b, (ast.Name, ast.Attribute))]
                    bases.update((id(n), names) for n in ast.walk(cls))
            for call, enclosing in _calls_in(tree, {}):
                for name in _callee(call, bases.get(id(call), [])):
                    # the parameters of the callee the call is made in
                    own = enclosing.get(name, [])
                    positions.setdefault(name, set()).update(
                        i for i, a in enumerate(call.args)
                        if not (i < len(own) and _names(a, own[i])))
                    keywords.setdefault(name, set()).update(
                        k.arg for k in call.keywords if k.arg is not None
                        and not (k.arg in own and _names(k.value, k.arg)))
                    if any(isinstance(a, ast.Starred) for a in call.args) \
                            or any(k.arg is None for k in call.keywords):
                        spread.add(name)
    return sorted(f"{module}: {label}({param})" for module, label, name, params in defs
                  for param, position in params
                  if name not in spread and param not in keywords.get(name, ())
                  and (position is None or position not in positions.get(name, ())))


def test_every_default_is_set_by_a_caller():
    """A parameter that no caller passes is a setting nothing sets: its
    default belongs in the body. Calls are read under src/, tests/ and
    perfbench/."""
    root = os.path.join(SRC, "..", "..")
    callers = [SRC] + [os.path.join(root, d) for d in ("tests", "perfbench")]
    assert unset_defaults(SRC, callers) == []


def test_default_check_sees_an_unset_default(tmp_path):
    (tmp_path / "m.py").write_text(
        "class Base:\n"
        "    def __init__(self, a, b=0):\n"
        "        self.a, self.b = a, b\n"
        "class P(Base):\n"
        "    def __init__(self, a, by_key=0, by_pos=0, never=0):\n"
        "        super().__init__(a, by_pos)\n"
        "        self.ks = (by_key, never)\n"
        "    def m(self, x=0, *, k=1):\n"
        "        return x, k\n"
        "def f(x, y=1, z=2):\n"
        "    return P(x, by_key=y).m(z)\n"
        "def g(*args, w=0, **kwargs):\n"
        "    return f(*args)\n"
        "def walk(t, depth=0, seen=None, mode=0):\n"
        "    def rec(c):\n"
        "        return walk(c, depth + 1, seen=seen, mode=mode)\n"
        "    return [rec(c) for c in t] if walk(t, depth, seen) else mode\n"
        "walk([], mode=1)\n")
    # walk's own calls pass seen and depth on unchanged, which sets
    # neither; rec passes depth + 1, and the last line mode
    assert unset_defaults(str(tmp_path), [str(tmp_path)]) == [
        "m.py: P(by_pos)", "m.py: P(never)", "m.py: P.m(k)", "m.py: g(w)",
        "m.py: walk(seen)"]


def readme_options(text: str) -> set[str]:
    """The options README's "Command line" block lists: the flags in the
    first column of each of its lines that starts with a dash."""
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    found: set[str] = set()
    for line in block.splitlines():
        column = re.split(r"\s{2,}", line.strip())[0]
        if column.startswith("-"):
            found |= set(re.findall(r"(?<![\w-])--?[a-z][\w-]*", column))
    return found


def parser_options() -> set[str]:
    return {s for action in build_arg_parser()._actions
            for s in action.option_strings} - {"-h", "--help"}


def _readme() -> str:
    with open(README, encoding="utf-8") as fh:
        return fh.read()


def test_readme_lists_the_cli_options():
    assert readme_options(_readme()) == parser_options()


def test_readme_check_sees_a_stale_and_a_missing_option():
    text = _readme()
    dump_cfg = re.search(r"\n  --dump-cfg .*", text).group()
    stale = text.replace(dump_cfg, "\n  --jobs N                process functions "
                                   "concurrently", 1)
    assert readme_options(stale) ^ parser_options() == {"--jobs", "--dump-cfg"}
