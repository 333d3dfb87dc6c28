"""Static check: every global name the code reads is defined somewhere.

Each module under src/ is walked with the stdlib symtable module. A name
that a function or class body reads as a global must be bound at module
level (assigned, imported, or a def/class) or be a builtin; otherwise the
first call that reaches it ends in a NameError.
"""

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
