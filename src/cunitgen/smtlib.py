"""SMT-LIB2 emission for path constraints, and the model files that answer it.

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

The reader of this text, parse_smtlib(), is a test oracle in
``tests/oracles.py``: it rebuilds an equisatisfiable constraint, which is
what the round-trip tests check.

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
    BinOp,
    Cast,
    Const,
    Ite,
    Range,
    Sym,
    SymExpr,
    UnOp,
    free_symbols,
)
from .typesys import BOOL, FloatType, IntType, UINT, wrap_int

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
