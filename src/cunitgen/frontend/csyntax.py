"""AST node definitions for the C subset, plus annotation statements.

Expression nodes carry a ctype slot that the sema pass fills in; Name nodes
additionally get a binding describing what declaration they resolve to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from ..typesys import CType


class AnnotationKind(Enum):
    PRE = "precondition"
    POST = "postcondition"
    TESTCASE = "testcase"
    AUX = "aux"
    ASSIGN = "assign"
    ASSERT = "assert"
    MODIFIES = "modifies"


# --------------------------------------------------------------------------
# Expressions


@dataclass
class Name:
    name: str
    line: int = 0
    ctype: CType | None = None
    binding: "Binding | None" = None


@dataclass
class IntLit:
    value: int
    line: int = 0
    suffix: str = ""
    ctype: CType | None = None


@dataclass
class FloatLit:
    value: float
    line: int = 0
    is_single: bool = False
    ctype: CType | None = None


@dataclass
class CharLit:
    value: int
    line: int = 0
    ctype: CType | None = None


@dataclass
class StrLit:
    value: str
    line: int = 0
    ctype: CType | None = None


@dataclass
class Bin:
    op: str
    lhs: "Expr"
    rhs: "Expr"
    line: int = 0
    ctype: CType | None = None


@dataclass
class Un:
    op: str  # one of - + ~ ! & *
    operand: "Expr"
    line: int = 0
    ctype: CType | None = None


@dataclass
class Assign:
    op: str  # = += -= *= /= %= &= |= ^= <<= >>=
    target: "Expr"
    value: "Expr"
    line: int = 0
    ctype: CType | None = None


@dataclass
class Update:
    op: str  # ++ or --
    operand: "Expr"
    is_prefix: bool
    line: int = 0
    ctype: CType | None = None


@dataclass
class Cond:
    cond: "Expr"
    then: "Expr"
    other: "Expr"
    line: int = 0
    ctype: CType | None = None


@dataclass
class Call:
    name: str
    args: list["Expr"]
    line: int = 0
    ctype: CType | None = None


@dataclass
class Index:
    base: "Expr"
    index: "Expr"
    line: int = 0
    ctype: CType | None = None


@dataclass
class Member:
    base: "Expr"
    field_name: str
    arrow: bool
    line: int = 0
    ctype: CType | None = None


@dataclass
class CastExpr:
    target: CType
    operand: "Expr"
    line: int = 0
    ctype: CType | None = None


@dataclass
class SizeofType:
    target: CType | None
    line: int = 0
    operand: "Expr | None" = None  # sizeof(expr) form; sema fills target
    ctype: CType | None = None


@dataclass
class InitialRef:
    """__rtt_initial(v): the value of v on function entry."""

    var: Name
    line: int = 0
    ctype: CType | None = None


@dataclass
class ReturnRef:
    """__rtt_return: the value returned by the unit under test."""

    line: int = 0
    ctype: CType | None = None


Expr = (
    Name | IntLit | FloatLit | CharLit | StrLit | Bin | Un | Assign | Update
    | Cond | Call | Index | Member | CastExpr | SizeofType | InitialRef | ReturnRef
)


# --------------------------------------------------------------------------
# Statements


@dataclass
class DeclStmt:
    name: str
    ctype: CType
    init: Expr | None
    line: int = 0


@dataclass
class ExprStmt:
    expr: Expr
    line: int = 0


@dataclass
class If:
    cond: Expr
    then: "Block"
    orelse: "Block | None"
    line: int = 0


@dataclass
class While:
    cond: Expr
    body: "Block"
    line: int = 0


@dataclass
class DoWhile:
    body: "Block"
    cond: Expr
    line: int = 0


@dataclass
class For:
    init: "Stmt | None"
    cond: Expr | None
    step: Expr | None
    body: "Block"
    line: int = 0


@dataclass
class SwitchCase:
    value: int | None  # None is the default label
    body: list["Stmt"]
    line: int = 0


@dataclass
class Switch:
    scrutinee: Expr
    cases: list[SwitchCase]
    line: int = 0


@dataclass
class Break:
    line: int = 0


@dataclass
class Continue:
    line: int = 0


@dataclass
class Return:
    value: Expr | None
    line: int = 0


@dataclass
class Block:
    stmts: list["Stmt"]
    line: int = 0


@dataclass
class Annotation:
    """One __rtt_* statement, payload kept as AST."""

    kind: AnnotationKind
    exprs: list[Expr] = field(default_factory=list)
    tags: list[str] = field(default_factory=list)
    aux_name: str = ""
    aux_type: CType | None = None
    names: list[Name] = field(default_factory=list)  # MODIFIES arguments
    line: int = 0


@dataclass
class EmptyStmt:
    line: int = 0


Stmt = (
    DeclStmt | ExprStmt | If | While | DoWhile | For | Switch | Break
    | Continue | Return | Block | Annotation | EmptyStmt
)


# --------------------------------------------------------------------------
# Top level


@dataclass
class Param:
    name: str
    ctype: CType
    line: int = 0


@dataclass
class FunctionDef:
    name: str
    return_type: CType
    params: list[Param]
    body: Block | None  # None for a prototype
    line: int = 0
    annotation_only: bool = False  # body holds only annotations (external spec)
    # Filled by the sema pass:
    locals_types: dict[str, CType] = field(default_factory=dict)
    aux_types: dict[str, CType] = field(default_factory=dict)
    end_line: int = 0
    # extraction strips the body, so the result is cached for reuse
    extracted: object | None = field(default=None, compare=False, repr=False)


@dataclass
class VarDecl:
    name: str
    ctype: CType
    init: Expr | None
    line: int = 0
    is_extern: bool = False


@dataclass
class TypeDecl:
    name: str
    ctype: CType
    line: int = 0
    enum_consts: list[tuple[str, int]] = field(default_factory=list)


@dataclass
class Binding:
    kind: str  # global, param, local, aux, enum-const
    name: str  # unique resolved name
    ctype: CType
    line: int = 0
    enum_value: int = 0


@dataclass
class SourceUnit:
    file_name: str
    functions: list[FunctionDef]
    globals: list[VarDecl]
    typedecls: list[TypeDecl]

    def function(self, name: str) -> FunctionDef:
        for f in self.functions:
            if f.name == name and f.body is not None:
                return f
        raise KeyError(name)
