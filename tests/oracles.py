"""Test oracles: code that only the tests run, so it stays out of the package.

unit_to_c prints a parsed unit back as C, which the parser round-trip test
compares with its input. parse_smtlib reads back the subset of SMT-LIB2
that ``cunitgen.smtlib.export_smtlib`` writes and rebuilds an
equisatisfiable constraint, so tests can check the export against the
constraint it states. ill_typed checks the typing rule of
``cunitgen.symexpr`` on a symbolic expression, and smt_sort_errors checks
that exported SMT-LIB2 text is well-sorted.
"""

from __future__ import annotations

import struct

from cunitgen.constraints import Constraint, FreeSymbol
from cunitgen.frontend.csyntax import (
    Annotation,
    Block,
    Break,
    Continue,
    DeclStmt,
    DoWhile,
    EmptyStmt,
    ExprStmt,
    For,
    FunctionDef,
    If,
    Return,
    SourceUnit,
    Stmt,
    Switch,
    While,
)
from cunitgen.frontend.writer import (
    annotation_to_c,
    decl_text,
    expr_to_c,
    type_text,
    typedecl_to_c,
)
from cunitgen.smtlib import _INT_OPS_SIGNED, _INT_OPS_UNSIGNED, SmtError
from cunitgen.symexpr import (
    FALSE,
    TRUE,
    BinOp,
    Cast,
    Const,
    Ite,
    Ptr,
    Range,
    Sym,
    SymExpr,
    UnOp,
    negate,
)
from cunitgen.typesys import BOOL, DOUBLE, FLOAT, FloatType, IntType, wrap_int

# ---------------------------------------------------------------------------
# A parsed unit back to C


class _Printer:
    def __init__(self) -> None:
        self.lines: list[str] = []
        self.depth = 0

    def emit(self, text: str = "") -> None:
        self.lines.append("    " * self.depth + text if text else "")

    def block(self, block: Block) -> None:
        self.emit("{")
        self.depth += 1
        for s in block.stmts:
            self.stmt(s)
        self.depth -= 1
        self.emit("}")

    def stmt(self, s: Stmt) -> None:
        if isinstance(s, DeclStmt):
            init = f" = {expr_to_c(s.init)}" if s.init is not None else ""
            self.emit(f"{decl_text(s.name, s.ctype)}{init};")
        elif isinstance(s, ExprStmt):
            self.emit(f"{expr_to_c(s.expr)};")
        elif isinstance(s, If):
            self.emit(f"if ({expr_to_c(s.cond)})")
            self.block(s.then)
            if s.orelse is not None:
                self.emit("else")
                self.block(s.orelse)
        elif isinstance(s, While):
            self.emit(f"while ({expr_to_c(s.cond)})")
            self.block(s.body)
        elif isinstance(s, DoWhile):
            self.emit("do")
            self.block(s.body)
            self.emit(f"while ({expr_to_c(s.cond)});")
        elif isinstance(s, For):
            init = ""
            if isinstance(s.init, DeclStmt):
                ini_val = f" = {expr_to_c(s.init.init)}" if s.init.init is not None else ""
                init = f"{decl_text(s.init.name, s.init.ctype)}{ini_val}"
            elif isinstance(s.init, ExprStmt):
                init = expr_to_c(s.init.expr)
            cond = expr_to_c(s.cond) if s.cond is not None else ""
            step = expr_to_c(s.step) if s.step is not None else ""
            self.emit(f"for ({init}; {cond}; {step})")
            self.block(s.body)
        elif isinstance(s, Switch):
            self.emit(f"switch ({expr_to_c(s.scrutinee)})")
            self.emit("{")
            self.depth += 1
            for case in s.cases:
                label = "default:" if case.value is None else f"case {case.value}:"
                self.emit(label)
                self.depth += 1
                for inner in case.body:
                    self.stmt(inner)
                self.depth -= 1
            self.depth -= 1
            self.emit("}")
        elif isinstance(s, Break):
            self.emit("break;")
        elif isinstance(s, Continue):
            self.emit("continue;")
        elif isinstance(s, Return):
            if s.value is None:
                self.emit("return;")
            else:
                self.emit(f"return {expr_to_c(s.value)};")
        elif isinstance(s, Block):
            self.block(s)
        elif isinstance(s, Annotation):
            self.emit(annotation_to_c(s))
        elif isinstance(s, EmptyStmt):
            self.emit(";")
        else:
            raise TypeError(f"cannot print {s!r}")


def function_to_c(fn: FunctionDef) -> list[str]:
    if fn.params:
        params = ", ".join(decl_text(p.name, p.ctype).strip() for p in fn.params)
    else:
        params = "void"
    ret = type_text(fn.return_type)
    sep = "" if ret.endswith("*") else " "
    head = f"{ret}{sep}{fn.name}({params})"
    if fn.body is None:
        return [head + ";"]
    printer = _Printer()
    printer.emit(head)
    printer.block(fn.body)
    return printer.lines


def unit_to_c(unit: SourceUnit) -> str:
    lines: list[str] = []
    for td in unit.typedecls:
        lines.extend(typedecl_to_c(td))
        lines.append("")
    for g in unit.globals:
        prefix = "extern " if g.is_extern else ""
        init = f" = {expr_to_c(g.init)}" if g.init is not None else ""
        lines.append(f"{prefix}{decl_text(g.name, g.ctype)}{init};")
    if unit.globals:
        lines.append("")
    for fn in unit.functions:
        lines.extend(function_to_c(fn))
        lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Exported SMT-LIB2 back to a constraint


def _tokenize(text: str) -> list[str]:
    out: list[str] = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c in " \t\r\n":
            i += 1
        elif c == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif c in "()":
            out.append(c)
            i += 1
        elif c == "|":
            j = text.find("|", i + 1)
            if j < 0:
                raise SmtError("unterminated quoted symbol")
            out.append(text[i:j + 1])
            i = j + 1
        else:
            j = i
            while j < n and text[j] not in " \t\r\n()|;":
                j += 1
            out.append(text[i:j])
            i = j
    return out


def _read_sexp(tokens: list[str], pos: int):
    tok = tokens[pos]
    if tok == "(":
        items = []
        pos += 1
        while tokens[pos] != ")":
            item, pos = _read_sexp(tokens, pos)
            items.append(item)
        return items, pos + 1
    return tok, pos + 1


def _sort_from_sexp(sexp) -> object:
    if sexp == "Bool":
        return BOOL
    if isinstance(sexp, list) and len(sexp) == 3 and sexp[1] == "BitVec":
        width = int(sexp[2])
        # bit-vector sorts carry no signedness; operators re-type operands
        return IntType(width, True, f"int{width}")
    if isinstance(sexp, list) and sexp[1] == "FloatingPoint":
        return FLOAT if sexp[2] == "8" else DOUBLE
    raise SmtError(f"unknown sort {sexp}")


_REV_SIGNED = {v: k for k, v in _INT_OPS_SIGNED.items()}
_REV_UNSIGNED = {v: k for k, v in _INT_OPS_UNSIGNED.items()}
_REV_FP = {"fp.lt": "<", "fp.leq": "<=", "fp.gt": ">", "fp.geq": ">=",
           "fp.add": "+", "fp.sub": "-", "fp.mul": "*", "fp.div": "/"}


def parse_smtlib(text: str) -> Constraint:
    """Rebuild a constraint from text that ``export_smtlib`` wrote."""
    tokens = _tokenize(text)
    pos = 0
    symbols: dict[str, Sym] = {}
    conjuncts: list[SymExpr] = []
    while pos < len(tokens):
        sexp, pos = _read_sexp(tokens, pos)
        if not isinstance(sexp, list) or not sexp:
            continue
        head = sexp[0]
        if head == "declare-fun":
            name = _unquote(sexp[1])
            ctype = _sort_from_sexp(sexp[3])
            sym = Sym(name, ctype)
            symbols[name] = sym
        elif head == "assert":
            conjuncts.append(_expr_from_sexp(sexp[1], symbols))
    c = Constraint(conjuncts)
    c.free = {
        name: FreeSymbol(name, sym.ctype) for name, sym in symbols.items()
    }
    return c


def _unquote(tok: str) -> str:
    if tok.startswith("|") and tok.endswith("|"):
        return tok[1:-1]
    return tok


def _expr_from_sexp(sexp, symbols: dict[str, Sym]) -> SymExpr:
    if isinstance(sexp, str):
        if sexp == "true":
            return TRUE
        if sexp == "false":
            return FALSE
        name = _unquote(sexp)
        if name in symbols:
            return symbols[name]
        raise SmtError(f"unknown atom {sexp}")
    head = sexp[0]
    if isinstance(head, list):  # an indexed operator: a cast
        return _cast_from_sexp(head, _expr_from_sexp(sexp[-1], symbols))
    if head == "_":
        value = int(sexp[1][2:])
        width = int(sexp[2])
        t = IntType(width, True, f"int{width}")
        return Const(wrap_int(value, t), t)
    if head == "fp":
        return Const(_fp_from_bits(sexp), DOUBLE if len(sexp[2]) - 2 == 11 else FLOAT)
    if head == "not":
        return negate(_expr_from_sexp(sexp[1], symbols))
    if head in ("and", "or"):
        op = "&&" if head == "and" else "||"
        parts = [_expr_from_sexp(s, symbols) for s in sexp[1:]]
        out = parts[0]
        for p in parts[1:]:
            out = BinOp(op, out, p, BOOL)
        return out
    if head == "ite":
        c = _expr_from_sexp(sexp[1], symbols)
        a = _expr_from_sexp(sexp[2], symbols)
        b = _expr_from_sexp(sexp[3], symbols)
        return Ite(c, a, b, a.ctype)
    if head in ("=", "fp.eq", "distinct"):
        a = _expr_from_sexp(sexp[1], symbols)
        b = _expr_from_sexp(sexp[2], symbols)
        return BinOp("!=" if head == "distinct" else "==", a, b, BOOL)
    if head in ("bvneg", "bvnot", "fp.neg"):
        a = _expr_from_sexp(sexp[1], symbols)
        return UnOp("~" if head == "bvnot" else "-", a, a.ctype)
    if head in ("fp.add", "fp.sub", "fp.mul", "fp.div"):
        a = _expr_from_sexp(sexp[2], symbols)
        b = _expr_from_sexp(sexp[3], symbols)
        return BinOp(_REV_FP[head], a, b, a.ctype)
    if head in _REV_FP:
        a = _expr_from_sexp(sexp[1], symbols)
        b = _expr_from_sexp(sexp[2], symbols)
        return BinOp(_REV_FP[head], a, b, BOOL)
    if head in _REV_SIGNED or head in _REV_UNSIGNED:
        a = _expr_from_sexp(sexp[1], symbols)
        b = _expr_from_sexp(sexp[2], symbols)
        op = _REV_SIGNED.get(head) or _REV_UNSIGNED[head]
        signed_only = {"bvsdiv", "bvsrem", "bvashr", "bvslt", "bvsle",
                       "bvsgt", "bvsge"}
        unsigned_only = {"bvudiv", "bvurem", "bvlshr", "bvult", "bvule",
                         "bvugt", "bvuge"}
        if head in signed_only or head in unsigned_only:
            a = _retype_int(a, head in signed_only)
            b = _retype_int(b, head in signed_only)
        if op in ("<", "<=", ">", ">="):
            return BinOp(op, a, b, BOOL)
        return BinOp(op, a, b, a.ctype)
    raise SmtError(f"cannot parse {sexp}")


def _cast_from_sexp(head: list, a: SymExpr) -> SymExpr:
    """The cast ``_cast_text`` writes as the indexed operator head on a."""
    op, n = head[1], int(head[2])
    if op == "extract":
        return Cast(a, IntType(n + 1, True, f"int{n + 1}"))
    if op in ("sign_extend", "zero_extend"):
        a = _retype_int(a, op == "sign_extend")  # the operand's signedness extends
        assert isinstance(a.ctype, IntType)
        return Cast(a, IntType(a.ctype.width + n, True, f"int{a.ctype.width + n}"))
    if op in ("to_fp", "to_fp_unsigned"):
        if isinstance(a.ctype, IntType):
            a = _retype_int(a, op == "to_fp")
        return Cast(a, FLOAT if n == 8 else DOUBLE)
    if op in ("fp.to_sbv", "fp.to_ubv"):
        signed = op == "fp.to_sbv"
        return Cast(a, IntType(n, signed, f"{'' if signed else 'u'}int{n}"))
    raise SmtError(f"indexed operator {head}")


def _retype_int(e: SymExpr, signed: bool) -> SymExpr:
    if isinstance(e.ctype, IntType) and e.ctype.signed != signed:
        t = IntType(e.ctype.width, signed, f"{'' if signed else 'u'}int{e.ctype.width}")
        if isinstance(e, Const):
            return Const(wrap_int(int(e.value), t), t)
        return Cast(e, t)
    return e


def _fp_from_bits(sexp) -> float:
    sign = sexp[1][2:]
    exp = sexp[2][2:]
    mant = sexp[3][2:]
    bits = int(sign + exp + mant, 2)
    if len(exp) == 8:
        return struct.unpack(">f", struct.pack(">I", bits))[0]
    return struct.unpack(">d", struct.pack(">Q", bits))[0]


# ---------------------------------------------------------------------------
# The typing rule of symbolic expressions


def ill_typed(e: SymExpr) -> list[SymExpr]:
    """The nodes of e that break the typing rule of ``cunitgen.symexpr``:
    both operands of an arithmetic or shift node have the node's type, both
    sides of a comparison share one arithmetic type, the arms of an Ite
    have its type, and a truth value (BOOL) appears only under &&, || and
    ! and as an Ite condition. e itself is a truth value, as a conjunct
    is. A shared subterm is checked once."""
    bad: list[SymExpr] = []
    seen: set[int] = set()

    def truth(x: SymExpr) -> bool:
        return x.ctype is BOOL

    def arith(x: SymExpr) -> bool:
        return isinstance(x.ctype, (IntType, FloatType))

    def ok(x: SymExpr) -> bool:
        if isinstance(x, Sym):
            return arith(x)
        if isinstance(x, Const):
            return arith(x) or truth(x)
        if isinstance(x, BinOp):
            if x.op in ("&&", "||"):
                return truth(x) and truth(x.lhs) and truth(x.rhs)
            if x.op in ("<", "<=", ">", ">=", "==", "!="):
                return truth(x) and arith(x.lhs) and x.lhs.ctype == x.rhs.ctype
            return arith(x) and x.lhs.ctype == x.ctype == x.rhs.ctype
        if isinstance(x, UnOp):
            if x.op == "!":
                return truth(x) and truth(x.operand)
            return arith(x) and x.operand.ctype == x.ctype
        if isinstance(x, Cast):
            return arith(x) and arith(x.operand)
        if isinstance(x, Ite):
            return truth(x.cond) and arith(x) \
                and x.then.ctype == x.ctype == x.other.ctype
        if isinstance(x, Range):
            return isinstance(x.expr.ctype, IntType)
        return False  # a Ptr, or no node at all

    def walk(x: SymExpr) -> None:
        if id(x) in seen:
            return
        seen.add(id(x))
        if not ok(x):
            bad.append(x)
        if isinstance(x, Ptr):
            return
        for v in vars(x).values():
            if isinstance(v, (Const, Sym, BinOp, UnOp, Cast, Ite, Range, Ptr)):
                walk(v)

    if not truth(e):
        bad.append(e)
    walk(e)
    return bad


# ---------------------------------------------------------------------------
# Sorts of exported SMT-LIB2


_BV_PREDICATES = {"bvslt", "bvsle", "bvsgt", "bvsge", "bvult", "bvule", "bvugt", "bvuge"}
_FP_PREDICATES = {"fp.eq", "fp.lt", "fp.leq", "fp.gt", "fp.geq"}


def smt_sort_errors(text: str) -> list[str]:
    """The terms of SMT-LIB2 text that are ill-sorted: each bv operator,
    ``=``, ``distinct`` and both arms of an ``ite`` take operands of one
    sort, floating-point operators take one FloatingPoint sort, and
    ``ite`` (its condition), ``and``, ``or``, ``not`` and ``assert`` take
    Bool. A sort is "Bool", ("BitVec", width) or ("FP", eb, sb)."""
    errors: list[str] = []
    sorts: dict[str, object] = {}

    def sort_of(sexp) -> object:
        if isinstance(sexp, str):
            if sexp in ("true", "false"):
                return "Bool"
            if sexp in ("RNE", "RTZ"):
                return "RoundingMode"
            return sorts[sexp]
        head, args = sexp[0], sexp[1:]
        if head == "_":
            return ("BitVec", int(sexp[2]))
        if head == "fp":
            return ("FP", len(sexp[2]) - 2, len(sexp[3]) - 1)
        arg_sorts = [sort_of(a) for a in args]
        if isinstance(head, list):  # an indexed operator
            op, n = head[1], int(head[2])
            x = arg_sorts[-1]
            if op == "extract":
                return ("BitVec", n - int(head[3]) + 1)
            if op in ("sign_extend", "zero_extend"):
                return ("BitVec", x[1] + n)
            if op in ("to_fp", "to_fp_unsigned"):
                return ("FP", n, int(head[3]))
            return ("BitVec", n)  # fp.to_sbv, fp.to_ubv
        if head in ("and", "or", "not"):
            if any(s != "Bool" for s in arg_sorts):
                errors.append(f"{head} over {arg_sorts}: {sexp}")
            return "Bool"
        if head == "ite":
            if arg_sorts[0] != "Bool":
                errors.append(f"ite condition of sort {arg_sorts[0]}: {sexp}")
            if arg_sorts[1] != arg_sorts[2]:
                errors.append(f"ite arms of sorts {arg_sorts[1:]}: {sexp}")
            return arg_sorts[1]
        if head.startswith("fp."):
            operands = [s for s in arg_sorts if s != "RoundingMode"]
            if len(set(operands)) != 1 or operands[0][0] != "FP":
                errors.append(f"{head} over {arg_sorts}: {sexp}")
            return "Bool" if head in _FP_PREDICATES else operands[0]
        if head in ("=", "distinct") or head.startswith("bv"):
            if len(set(arg_sorts)) != 1 or (head.startswith("bv")
                                            and arg_sorts[0][0] != "BitVec"):
                errors.append(f"{head} over {arg_sorts}: {sexp}")
            return "Bool" if head in _BV_PREDICATES or not head.startswith("bv") \
                else arg_sorts[0]
        raise SmtError(f"no sort rule for {head}")

    tokens = _tokenize(text)
    pos = 0
    while pos < len(tokens):
        sexp, pos = _read_sexp(tokens, pos)
        if sexp[0] == "declare-fun":
            sort = sexp[3]
            sorts[sexp[1]] = "Bool" if sort == "Bool" else \
                ("BitVec", int(sort[2])) if sort[1] == "BitVec" else \
                ("FP", int(sort[2]), int(sort[3]))
        elif sexp[0] == "assert" and sort_of(sexp[1]) != "Bool":
            errors.append(f"assertion not Bool: {sexp[1]}")
    return errors
