"""The records are plain classes. The immutable ones (types, expressions,
tokens, memory items, concrete pointers and input cells) are values: they
reject changes, and equal fields make equal, hash-equal records. A mutable
record gets a new container for each field it defaults. Importing the
package generates no code for them."""

import os
import re
import subprocess
import sys

import pytest

from cunitgen.config import Config
from cunitgen.constraints import Constraint
from cunitgen.frontend.annotations import AnnotationSet
from cunitgen.frontend.lexer import Token
from cunitgen.frozen import Frozen
from cunitgen.imr import Target
from cunitgen.memory import MemoryItem, Region
from cunitgen.replay import CPtr, InputCell
from cunitgen.stct import CoverageState
from cunitgen.symex import PathState
from cunitgen.symexpr import BinOp, Cast, Const, Ite, Ptr, Range, Sym, UnOp
from cunitgen.typesys import (
    INT,
    ArrayType,
    BoolType,
    FloatType,
    IntType,
    PointerType,
    StructField,
    StructType,
    VoidType,
)

SRC = os.path.join(os.path.dirname(__file__), "..", "src")

X = Sym("x", INT)
ONE = Const(1, INT)
REGION = Region(1, "x", INT, 1, "param", True, False)

# Each immutable record class, with a maker that builds a new, equal
# instance on every call.
SAMPLES = {
    IntType: lambda: IntType(32, True, "int"),
    FloatType: lambda: FloatType(64, "double"),
    VoidType: VoidType,
    BoolType: BoolType,
    PointerType: lambda: PointerType(INT, True),
    ArrayType: lambda: ArrayType(INT, 4),
    StructField: lambda: StructField("f", INT, 3, 4, 1),
    StructType: lambda: StructType("s", (StructField("f", INT),), False, 4),
    Const: lambda: Const(1, INT),
    Sym: lambda: Sym("x", INT),
    BinOp: lambda: BinOp("+", X, ONE, INT),
    UnOp: lambda: UnOp("-", X, INT),
    Cast: lambda: Cast(X, INT),
    Ite: lambda: Ite(X, ONE, X, INT),
    Range: lambda: Range(X, 0, 4),
    Ptr: lambda: Ptr(X, ONE, PointerType(INT)),
    Target: lambda: Target("edge", 3),
    Token: lambda: Token("int", "1", 1, 2, 5),
    MemoryItem: lambda: MemoryItem(ONE, Const(0, INT), 4, X, (0, 3)),
    CPtr: lambda: CPtr(2, 1),
    InputCell: lambda: InputCell("x", REGION, 0, None, INT, 7),
}

IDS = [cls.__name__ for cls in SAMPLES]


def test_the_immutable_records_are_these():
    assert set(Frozen.__subclasses__()) == set(SAMPLES)


@pytest.mark.parametrize("make", SAMPLES.values(), ids=IDS)
def test_an_immutable_record_rejects_assignment_and_deletion(make):
    record = make()
    for name in [*vars(record), "added"]:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert vars(record) == vars(make())


@pytest.mark.parametrize("make", SAMPLES.values(), ids=IDS)
def test_equal_fields_make_equal_records(make):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(tuple(vars(a).values()))
    assert {a: 1}[b] == 1


def test_records_of_different_classes_or_fields_differ():
    # same field names and values, different classes
    assert VoidType() != BoolType()
    # the same field values in the same order, different classes
    assert CPtr(2, 1) != Target(2, 1)
    assert Const(1, INT).__eq__(1) is NotImplemented
    assert Const(1, INT) != 1
    assert Const(1, INT) != Const(2, INT)
    assert IntType(32, True, "int") != IntType(32, False, "int")


@pytest.mark.parametrize("make,names", [
    (Config, ("do_not_stub", "stub_globals")),
    (Constraint, ("conjuncts", "free", "segments")),
    (AnnotationSet, ("pres", "posts", "testcases", "aux", "initial_vars", "annotations")),
    (lambda: CoverageState(set()), ("attempts", "bound_nodes", "unknown_nodes")),
    (lambda: PathState(None), ("items", "base_items", "symbolic_items", "assumptions",
                               "branches", "stub_counts", "stub_calls", "snapshots",
                               "flags", "pending", "nodes")),
], ids=["Config", "Constraint", "AnnotationSet", "CoverageState", "PathState"])
def test_defaulted_containers_are_not_shared(make, names):
    a, b = make(), make()
    for name in names:
        assert getattr(a, name) is not getattr(b, name), name


@pytest.mark.parametrize("kwargs,message", [
    ({"ptr_array_size": 0}, "pointer region size must be >= 1"),
    ({"max_depth": 0}, "max depth must be >= 1"),
    ({"budget_nodes": 0}, "solver node budget must be >= 1"),
    ({"coverage": "c2"}, "unknown coverage criterion 'c2'"),
])
def test_config_rejects_bad_values(kwargs, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        Config(**kwargs)


def test_import_loads_no_dataclasses_inspect_or_smtlib():
    """The builtin-solver path imports neither the code generators of
    dataclasses (and the inspect module they use) nor the SMT-LIB module,
    which only smtlib-out mode needs."""
    code = ("import sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "import cunitgen.pipeline, cunitgen.cli\n"
            "print([m for m in ('dataclasses', 'inspect', 'cunitgen.smtlib')"
            " if m in sys.modules])\n")
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", code, SRC],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"
