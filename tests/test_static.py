"""Static checks: every global name the code reads is defined somewhere,
and every name a module imports is used.

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
import symtable

import pytest

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "cunitgen")
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
