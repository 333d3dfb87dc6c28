"""AST node definitions for the C subset, plus annotation statements.

Expression nodes carry a ctype slot that the sema pass fills in; Name nodes
additionally get a binding describing what declaration they resolve to.
"""

from __future__ import annotations

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


class Name:
    def __init__(self, name: str, line: int = 0):
        self.name = name
        self.line = line
        self.ctype: CType | None = None
        self.binding: Binding | None = None


class IntLit:
    def __init__(self, value: int, line: int = 0, suffix: str = ""):
        self.value = value
        self.line = line
        self.suffix = suffix
        self.ctype: CType | None = None


class FloatLit:
    def __init__(self, value: float, line: int = 0, is_single: bool = False):
        self.value = value
        self.line = line
        self.is_single = is_single
        self.ctype: CType | None = None


class CharLit:
    def __init__(self, value: int, line: int = 0):
        self.value = value
        self.line = line
        self.ctype: CType | None = None


class StrLit:
    def __init__(self, value: str, line: int = 0):
        self.value = value
        self.line = line
        self.ctype: CType | None = None


class Bin:
    def __init__(self, op: str, lhs: Expr, rhs: Expr, line: int = 0):
        self.op = op
        self.lhs = lhs
        self.rhs = rhs
        self.line = line
        self.ctype: CType | None = None


class Un:
    def __init__(self, op: str, operand: Expr, line: int = 0):
        self.op = op  # one of - + ~ ! & *
        self.operand = operand
        self.line = line
        self.ctype: CType | None = None


class Assign:
    def __init__(self, op: str, target: Expr, value: Expr, line: int = 0):
        self.op = op  # = += -= *= /= %= &= |= ^= <<= >>=
        self.target = target
        self.value = value
        self.line = line
        self.ctype: CType | None = None


class Update:
    def __init__(self, op: str, operand: Expr, is_prefix: bool, line: int = 0):
        self.op = op  # ++ or --
        self.operand = operand
        self.is_prefix = is_prefix
        self.line = line
        self.ctype: CType | None = None


class Cond:
    def __init__(self, cond: Expr, then: Expr, other: Expr, line: int = 0):
        self.cond = cond
        self.then = then
        self.other = other
        self.line = line
        self.ctype: CType | None = None


class Call:
    def __init__(self, name: str, args: list[Expr], line: int = 0):
        self.name = name
        self.args = args
        self.line = line
        self.ctype: CType | None = None


class Index:
    def __init__(self, base: Expr, index: Expr, line: int = 0):
        self.base = base
        self.index = index
        self.line = line
        self.ctype: CType | None = None


class Member:
    def __init__(self, base: Expr, field_name: str, arrow: bool, line: int = 0):
        self.base = base
        self.field_name = field_name
        self.arrow = arrow
        self.line = line
        self.ctype: CType | None = None


class CastExpr:
    def __init__(self, target: CType, operand: Expr, line: int = 0):
        self.target = target
        self.operand = operand
        self.line = line
        self.ctype: CType | None = None


class SizeofType:
    def __init__(self, target: CType | None, line: int = 0, operand: Expr | None = None):
        self.target = target
        self.line = line
        self.operand = operand  # sizeof(expr) form; sema fills target
        self.ctype: CType | None = None


class InitialRef:
    """__rtt_initial(v): the value of v on function entry."""

    def __init__(self, var: Name, line: int = 0):
        self.var = var
        self.line = line
        self.ctype: CType | None = None


class ReturnRef:
    """__rtt_return: the value returned by the unit under test."""

    def __init__(self, line: int = 0):
        self.line = line
        self.ctype: CType | None = None


Expr = (
    Name | IntLit | FloatLit | CharLit | StrLit | Bin | Un | Assign | Update
    | Cond | Call | Index | Member | CastExpr | SizeofType | InitialRef | ReturnRef
)


# --------------------------------------------------------------------------
# Statements


class DeclStmt:
    def __init__(self, name: str, ctype: CType, init: Expr | None, line: int = 0):
        self.name = name
        self.ctype = ctype
        self.init = init
        self.line = line


class ExprStmt:
    def __init__(self, expr: Expr, line: int = 0):
        self.expr = expr
        self.line = line


class If:
    def __init__(self, cond: Expr, then: Block, orelse: Block | None, line: int = 0):
        self.cond = cond
        self.then = then
        self.orelse = orelse
        self.line = line


class While:
    def __init__(self, cond: Expr, body: Block, line: int = 0):
        self.cond = cond
        self.body = body
        self.line = line


class DoWhile:
    def __init__(self, body: Block, cond: Expr, line: int = 0):
        self.body = body
        self.cond = cond
        self.line = line


class For:
    def __init__(self, init: Stmt | None, cond: Expr | None, step: Expr | None,
                 body: Block, line: int = 0):
        self.init = init
        self.cond = cond
        self.step = step
        self.body = body
        self.line = line


class SwitchCase:
    def __init__(self, value: int | None, body: list[Stmt], line: int = 0):
        self.value = value  # None is the default label
        self.body = body
        self.line = line


class Switch:
    def __init__(self, scrutinee: Expr, cases: list[SwitchCase], line: int = 0):
        self.scrutinee = scrutinee
        self.cases = cases
        self.line = line


class Break:
    def __init__(self, line: int = 0):
        self.line = line


class Continue:
    def __init__(self, line: int = 0):
        self.line = line


class Return:
    def __init__(self, value: Expr | None, line: int = 0):
        self.value = value
        self.line = line


class Block:
    def __init__(self, stmts: list[Stmt], line: int = 0):
        self.stmts = stmts
        self.line = line


class Annotation:
    """One __rtt_* statement, payload kept as AST."""

    def __init__(self, kind: AnnotationKind, line: int = 0):
        self.kind = kind
        self.exprs: list[Expr] = []
        self.tags: list[str] = []
        self.aux_name = ""
        self.aux_type: CType | None = None
        self.names: list[Name] = []  # MODIFIES arguments
        self.line = line


class EmptyStmt:
    def __init__(self, line: int = 0):
        self.line = line


Stmt = (
    DeclStmt | ExprStmt | If | While | DoWhile | For | Switch | Break
    | Continue | Return | Block | Annotation | EmptyStmt
)


def is_passive(stmt: Stmt) -> bool:
    """Whether executing stmt does nothing: ``;`` or a declaration without
    an initializer."""
    return isinstance(stmt, EmptyStmt) or (isinstance(stmt, DeclStmt) and stmt.init is None)


# --------------------------------------------------------------------------
# Top level


class Param:
    def __init__(self, name: str, ctype: CType, line: int = 0):
        self.name = name
        self.ctype = ctype
        self.line = line


class FunctionDef:
    def __init__(self, name: str, return_type: CType, params: list[Param],
                 body: Block | None, line: int = 0):
        self.name = name
        self.return_type = return_type
        self.params = params
        self.body = body  # None for a prototype
        self.line = line
        self.annotation_only = False  # body holds only annotations (external spec)
        # Filled by the sema pass:
        self.locals_types: dict[str, CType] = {}
        self.aux_types: dict[str, CType] = {}
        self.end_line = 0
        # extraction strips the body, so the result is cached for reuse
        self.extracted: object | None = None


class VarDecl:
    def __init__(self, name: str, ctype: CType, init: Expr | None, line: int = 0,
                 is_extern: bool = False):
        self.name = name
        self.ctype = ctype
        self.init = init
        self.line = line
        self.is_extern = is_extern


class TypeDecl:
    def __init__(self, name: str, ctype: CType, line: int = 0,
                 enum_consts: list[tuple[str, int]] | None = None):
        self.name = name
        self.ctype = ctype
        self.line = line
        self.enum_consts = [] if enum_consts is None else enum_consts


class Binding:
    def __init__(self, kind: str, name: str, ctype: CType, line: int = 0,
                 enum_value: int = 0):
        self.kind = kind  # global, param, local, aux, enum-const
        self.name = name  # unique resolved name
        self.ctype = ctype
        self.line = line
        self.enum_value = enum_value


class SourceUnit:
    def __init__(self, file_name: str, functions: list[FunctionDef],
                 globals: list[VarDecl], typedecls: list[TypeDecl]):
        self.file_name = file_name
        self.functions = functions
        self.globals = globals
        self.typedecls = typedecls
        self.calls: dict[str, set[str]] = {}  # caller -> callees, from sema

    def function(self, name: str) -> FunctionDef:
        for f in self.functions:
            if f.name == name and f.body is not None:
                return f
        raise KeyError(name)
