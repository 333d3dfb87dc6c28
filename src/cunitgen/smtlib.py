"""SMT-LIB2 emission and re-parsing for path constraints.

Integers map to fixed-width bit-vectors, floats to IEEE FloatingPoint
sorts. Symbol names are emitted as quoted symbols |...| which makes the
escaping trivially reversible (our names never contain pipes or
backslashes). Every conjunct becomes one assertion, in order, including
conjuncts that have folded to literal true. Then the domains the built-in
search starts from follow, one assertion for each symbol where that domain
is narrower than the sort: an offset lies in [0, dim), and a pointer base
is one of its candidate regions (null included), each with its offset in
that region ([0, dim) of the region, 0 for null). The text therefore states
the problem the built-in solver decides, and ends in (check-sat) and
(get-model).

parse_smtlib() reads back the subset this module emits and rebuilds an
equisatisfiable constraint, which is what the round-trip tests check.
Model files for the smtlib-out solver mode use a line-oriented
name = value format, parsed by parse_model_file(). The pipeline reads each
value by its symbol's sort and offers the answer to the solver as a hint,
so an answer is used only where ``solver.model_fits`` admits it.
"""

from __future__ import annotations

import struct

from .constraints import Constraint, FreeSymbol
from .errors import CunitgenError
from .solver import narrowed_domain, paired_range
from .symexpr import (
    FALSE,
    TRUE,
    BinOp,
    Cast,
    Const,
    Ite,
    Range,
    Role,
    Sym,
    SymExpr,
    UnOp,
    free_symbols,
    negate,
)
from .typesys import BOOL, DOUBLE, FLOAT, FloatType, IntType, UINT, wrap_int

_INT_OPS_SIGNED = {
    "+": "bvadd", "-": "bvsub", "*": "bvmul", "/": "bvsdiv", "%": "bvsrem",
    "&": "bvand", "|": "bvor", "^": "bvxor", "<<": "bvshl", ">>": "bvashr",
    "<": "bvslt", "<=": "bvsle", ">": "bvsgt", ">=": "bvsge",
}
_INT_OPS_UNSIGNED = {
    "+": "bvadd", "-": "bvsub", "*": "bvmul", "/": "bvudiv", "%": "bvurem",
    "&": "bvand", "|": "bvor", "^": "bvxor", "<<": "bvshl", ">>": "bvlshr",
    "<": "bvult", "<=": "bvule", ">": "bvugt", ">=": "bvuge",
}
_FP_OPS = {
    "+": "fp.add RNE", "-": "fp.sub RNE", "*": "fp.mul RNE", "/": "fp.div RNE",
    "<": "fp.lt", "<=": "fp.leq", ">": "fp.gt", ">=": "fp.geq",
}


class SmtError(CunitgenError):
    pass


def _sort_text(t) -> str:
    if isinstance(t, IntType):
        return f"(_ BitVec {t.width})"
    if isinstance(t, FloatType):
        return "(_ FloatingPoint 8 24)" if t.width == 32 else "(_ FloatingPoint 11 53)"
    if t is BOOL:
        return "Bool"
    raise SmtError(f"no SMT sort for {t}")


def _quote(name: str) -> str:
    if "|" in name or "\\" in name:
        raise SmtError(f"symbol name not escapable: {name!r}")
    return f"|{name}|"


def _bv_literal(value: int, width: int) -> str:
    return f"(_ bv{value & ((1 << width) - 1)} {width})"


def _fp_literal(value: float, t: FloatType) -> str:
    if t.width == 32:
        bits = struct.unpack(">I", struct.pack(">f", value))[0]
        sign, exp, mant = bits >> 31, (bits >> 23) & 0xFF, bits & 0x7FFFFF
        return f"(fp #b{sign:01b} #b{exp:08b} #b{mant:023b})"
    bits = struct.unpack(">Q", struct.pack(">d", value))[0]
    sign, exp, mant = bits >> 63, (bits >> 52) & 0x7FF, bits & 0xFFFFFFFFFFFFF
    return f"(fp #b{sign:01b} #b{exp:011b} #b{mant:052b})"


def _expr_text(e: SymExpr) -> str:
    if isinstance(e, Const):
        if e.ctype is BOOL:
            return "true" if e.value else "false"
        if isinstance(e.ctype, FloatType):
            return _fp_literal(float(e.value), e.ctype)
        assert isinstance(e.ctype, IntType)
        return _bv_literal(int(e.value), e.ctype.width)
    if isinstance(e, Sym):
        return _quote(e.name)
    if isinstance(e, Range):
        x = _expr_text(e.expr)
        assert isinstance(e.expr.ctype, IntType) or e.expr.ctype is BOOL
        t = e.expr.ctype if isinstance(e.expr.ctype, IntType) else UINT
        le = "bvsle" if t.signed else "bvule"
        lt = "bvslt" if t.signed else "bvult"
        lo = _bv_literal(wrap_int(e.lo, t), t.width)
        hi = _bv_literal(wrap_int(e.hi, t), t.width)
        return f"(and ({le} {lo} {x}) ({lt} {x} {hi}))"
    if isinstance(e, UnOp):
        x = _expr_text(e.operand)
        if e.op == "!":
            return f"(not {x})"
        if e.op == "-":
            if isinstance(e.ctype, FloatType):
                return f"(fp.neg {x})"
            return f"(bvneg {x})"
        if e.op == "~":
            return f"(bvnot {x})"
        raise SmtError(f"unary {e.op}")
    if isinstance(e, Cast):
        return _cast_text(e)
    if isinstance(e, Ite):
        return f"(ite {_expr_text(e.cond)} {_expr_text(e.then)} {_expr_text(e.other)})"
    if isinstance(e, BinOp):
        a, b = _expr_text(e.lhs), _expr_text(e.rhs)
        if e.op in ("&&", "||"):
            return f"({'and' if e.op == '&&' else 'or'} {a} {b})"
        if e.op == "==":
            if isinstance(e.lhs.ctype, FloatType):
                return f"(fp.eq {a} {b})"
            return f"(= {a} {b})"
        if e.op == "!=":
            if isinstance(e.lhs.ctype, FloatType):
                return f"(not (fp.eq {a} {b}))"
            return f"(distinct {a} {b})"
        if isinstance(e.lhs.ctype, FloatType) or isinstance(e.ctype, FloatType):
            if e.op not in _FP_OPS:
                raise SmtError(f"float operator {e.op}")
            return f"({_FP_OPS[e.op]} {a} {b})"
        ops = _INT_OPS_SIGNED if _signed_of(e) else _INT_OPS_UNSIGNED
        if e.op not in ops:
            raise SmtError(f"operator {e.op}")
        return f"({ops[e.op]} {a} {b})"
    raise SmtError(f"cannot export {type(e).__name__}")


def _signed_of(e: BinOp) -> bool:
    t = e.lhs.ctype
    if isinstance(t, IntType):
        return t.signed
    if isinstance(e.ctype, IntType):
        return e.ctype.signed
    return True


def _cast_text(e: Cast) -> str:
    src = e.operand.ctype
    dst = e.ctype
    x = _expr_text(e.operand)
    if src is BOOL and isinstance(dst, IntType):
        one = _bv_literal(1, dst.width)
        zero = _bv_literal(0, dst.width)
        return f"(ite {x} {one} {zero})"
    if isinstance(src, IntType) and isinstance(dst, IntType):
        if dst.width == src.width:
            return x
        if dst.width < src.width:
            return f"((_ extract {dst.width - 1} 0) {x})"
        ext = "sign_extend" if src.signed else "zero_extend"
        return f"((_ {ext} {dst.width - src.width}) {x})"
    if isinstance(src, IntType) and isinstance(dst, FloatType):
        eb, sb = (8, 24) if dst.width == 32 else (11, 53)
        conv = "to_fp" if src.signed else "to_fp_unsigned"
        return f"((_ {conv} {eb} {sb}) RNE {x})"
    if isinstance(src, FloatType) and isinstance(dst, FloatType):
        eb, sb = (8, 24) if dst.width == 32 else (11, 53)
        return f"((_ to_fp {eb} {sb}) RNE {x})"
    if isinstance(src, FloatType) and isinstance(dst, IntType):
        conv = "fp.to_sbv" if dst.signed else "fp.to_ubv"
        return f"((_ {conv} {dst.width}) RTZ {x})"
    raise SmtError(f"cast {src} -> {dst}")


def _split_conjunction(e: SymExpr) -> list[SymExpr]:
    """Top-level && members, retaining folded-true conjuncts."""
    if isinstance(e, BinOp) and e.op == "&&":
        return _split_conjunction(e.lhs) + _split_conjunction(e.rhs)
    return [e]


def _domain_text(fs: FreeSymbol, domain: list[int] | tuple[int, int],
                 offset: FreeSymbol | None = None) -> str:
    """The start domain of a symbol: a range, or its candidate values, each
    with the range it bounds offset to (``solver.paired_range``)."""
    assert isinstance(fs.ctype, IntType)
    x = _quote(fs.name)
    if isinstance(domain, tuple):
        le = "bvsle" if fs.ctype.signed else "bvule"
        lo, hi = (_bv_literal(v, fs.ctype.width) for v in domain)
        return f"(and ({le} {lo} {x}) ({le} {x} {hi}))"
    choices = [f"(= {x} {_bv_literal(c, fs.ctype.width)})" for c in domain]
    if offset is not None:
        choices = [f"(and {is_c} {_domain_text(offset, paired_range(fs, c))})"
                   for is_c, c in zip(choices, domain)]
    return f"(or {' '.join(choices)})"


def export_smtlib(constraint: Constraint) -> str:
    """Deterministic SMT-LIB2 text: one assertion per conjunct, then one per
    declared symbol whose start domain in the search is narrower than its
    sort (``solver.narrowed_domain``)."""
    asserts: list[SymExpr] = []
    for c in constraint.conjuncts:
        asserts.extend(_split_conjunction(c))
    has_int = False
    has_float = False
    decls: list[str] = []
    seen: dict[str, None] = {}  # declared names, in order
    for c in asserts:
        for s in free_symbols(c):
            if s.name in seen:
                continue
            seen[s.name] = None
            decls.append(f"(declare-fun {_quote(s.name)} () {_sort_text(s.ctype)})")
            if isinstance(s.ctype, FloatType):
                has_float = True
            else:
                has_int = True
    if has_float and has_int:
        logic = "QF_BVFP"
    elif has_float:
        logic = "QF_FP"
    else:
        logic = "QF_BV"
    lines = [f"(set-logic {logic})"]
    lines.extend(decls)
    for c in asserts:
        lines.append(f"(assert {_expr_text(c)})")
    for name in seen:
        fs = constraint.free.get(name)
        domain = narrowed_domain(fs) if fs is not None else None
        if domain is not None:
            offset = constraint.free.get(fs.paired_offset) \
                if fs.paired_offset in seen else None
            lines.append(f"(assert {_domain_text(fs, domain, offset)})")
    lines.append("(check-sat)")
    lines.append("(get-model)")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Parsing the emitted subset back


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
    """Rebuild a constraint from text this module emitted."""
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
            sym = Sym(name, ctype, _role_from_name(name))
            symbols[name] = sym
        elif head == "assert":
            conjuncts.append(_expr_from_sexp(sexp[1], symbols))
    c = Constraint(conjuncts)
    c.free = {
        name: FreeSymbol(name, sym.ctype, sym.role) for name, sym in symbols.items()
    }
    return c


def _role_from_name(name: str) -> Role:
    if name.endswith("@baseAddress"):
        return Role.PTR_BASE
    if name.endswith("@offset"):
        return Role.PTR_OFFSET
    if "@RETURN@" in name:
        return Role.STUB_RETURN
    if "@OUT" in name:
        return Role.STUB_OUTPUT
    if "@read@" in name:
        return Role.FRESH_READ
    return Role.INPUT


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


def parse_model_file(text: str, free: dict[str, FreeSymbol] | None = None
                     ) -> dict[str, int | float]:
    """Read the documented name = value model format.

    Each value is read by the sort of its symbol in free: a float symbol's
    as a float whatever its spelling ("f = 2" is 2.0), any other's as an
    integer where the text is one.
    """
    out: dict[str, int | float] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise SmtError(f"malformed model line: {raw!r}")
        name, _, value = line.partition("=")
        name = name.strip()
        fs = (free or {}).get(name)
        try:
            out[name] = _model_value(value.strip(), fs is not None
                                     and isinstance(fs.ctype, FloatType))
        except ValueError:
            raise SmtError(f"malformed model value: {raw!r}") from None
    return out


def _model_value(text: str, is_float: bool) -> int | float:
    if not is_float:
        try:
            return int(text, 0)
        except ValueError:
            pass
    try:
        return float(text)
    except ValueError:
        return float.fromhex(text)
