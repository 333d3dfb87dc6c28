"""Typed symbolic expressions over program inputs, stub variables and constants.

This is the currency of the whole pipeline: memory items store these, branch
guards resolve to them, the solver decides conjunctions of them, and the
model verifier evaluates them.

A symbol (``Sym``) is a name and a C type, nothing more. What it stands
for, say a pointer input's base address or offset, is recorded by the
region table (``memory.RegionTable``), the one place that knows it.

Integer operations use two's-complement wraparound at the width of the
expression type. Float operations round to the expression type's width.
Both constant folding and evaluation take operator values from the scalar
table in typesys; only short-circuit logic, negation and conditionals are
evaluated here.

A pointer value is a ``Ptr`` node: an abstract base address expression and
an element-scaled offset expression; a pointer ``?:`` is one ``Ptr`` whose
base and offset are each an ``Ite``. Pointers end at symex: it splits every
pointer relation, truth test and store match into conjuncts over the base
and the offset (``constraints.pointer_compare``), so no conjunct that
reaches the solver, the model check or evaluation holds a ``Ptr``, and
``render``, ``free_symbols`` and ``evaluate`` have no case for one.

Every node is well-typed, because symex converts each operand to the C
type sema gave its expression before it builds a node: both operands of an
arithmetic or shift node have the node's type, both sides of a comparison
share one arithmetic type, and the arms of an ``Ite`` have its type. A
truth value (type ``BOOL``: a comparison, ``&&``, ``||``, ``!`` or a
``Range``) appears only under ``&&``, ``||`` and ``!`` and as an ``Ite``
condition; where C uses one as a value, symex makes it the ``int`` 1 or 0.
So the builders take an arithmetic node's type from their caller and infer
none, and the solver and the SMT-LIB export read each node's sort from it.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Union

from .frozen import Frozen
from .typesys import (
    BOOL,
    CType,
    FloatType,
    Undefined,
    binary,
    convert,
    unary,
)


class Const(Frozen):
    def __init__(self, value: int | float, ctype: CType):
        self.__dict__.update(value=value, ctype=ctype)

    def __str__(self) -> str:
        if self.ctype is BOOL:
            return "true" if self.value else "false"
        if isinstance(self.ctype, FloatType):
            return repr(float(self.value))
        return str(self.value)


class Sym(Frozen):
    def __init__(self, name: str, ctype: CType):
        self.__dict__.update(name=name, ctype=ctype)

    def __str__(self) -> str:
        return self.name


class BinOp(Frozen):
    def __init__(self, op: str, lhs: SymExpr, rhs: SymExpr, ctype: CType):
        self.__dict__.update(op=op, lhs=lhs, rhs=rhs, ctype=ctype)

    def __str__(self) -> str:
        return render(self)


class UnOp(Frozen):
    def __init__(self, op: str, operand: SymExpr, ctype: CType):
        self.__dict__.update(op=op, operand=operand, ctype=ctype)

    def __str__(self) -> str:
        return render(self)


class Cast(Frozen):
    def __init__(self, operand: SymExpr, ctype: CType):
        self.__dict__.update(operand=operand, ctype=ctype)

    def __str__(self) -> str:
        return render(self)


class Ite(Frozen):
    def __init__(self, cond: SymExpr, then: SymExpr, other: SymExpr, ctype: CType):
        self.__dict__.update(cond=cond, then=then, other=other, ctype=ctype)

    def __str__(self) -> str:
        return render(self)


class Range(Frozen):
    """Bounds fact lo <= expr < hi, printed in the chained form."""

    def __init__(self, expr: SymExpr, lo: int, hi: int):
        self.__dict__.update(expr=expr, lo=lo, hi=hi, ctype=BOOL)

    def __str__(self) -> str:
        return f"{self.lo} <= {render(self.expr)} < {self.hi}"


class Ptr(Frozen):
    """A pointer value: abstract base address plus element-scaled offset."""

    def __init__(self, base: SymExpr, offset: SymExpr, ctype: CType):
        # ctype: the PointerType of the value
        self.__dict__.update(base=base, offset=offset, ctype=ctype)


SymExpr = Union[Const, Sym, BinOp, UnOp, Cast, Ite, Range, Ptr]

TRUE = Const(1, BOOL)
FALSE = Const(0, BOOL)

_CMP_OPS = ("<", "<=", ">", ">=", "==", "!=")
# each comparison operator's negation
FLIP = {"<": ">=", "<=": ">", ">": "<=", ">=": "<", "==": "!=", "!=": "=="}


def is_true(e: SymExpr) -> bool:
    return isinstance(e, Const) and e.ctype is BOOL and bool(e.value)


def is_false(e: SymExpr) -> bool:
    return isinstance(e, Const) and e.ctype is BOOL and not e.value


def mk_bool(value: bool) -> Const:
    return TRUE if value else FALSE


def mk_binop(op: str, lhs: SymExpr, rhs: SymExpr, ctype: CType = BOOL) -> SymExpr:
    """Build a binary node, folding constants and boolean identities. An
    arithmetic node's ctype is its operands' type; a comparison or logical
    node is a truth value."""
    if op == "&&":
        if is_false(lhs) or is_false(rhs):
            return FALSE
        if is_true(lhs):
            return rhs
        if is_true(rhs):
            return lhs
    elif op == "||":
        if is_true(lhs) or is_true(rhs):
            return TRUE
        if is_false(lhs):
            return rhs
        if is_false(rhs):
            return lhs
    if isinstance(lhs, Const) and isinstance(rhs, Const):
        if op == "&&":
            return mk_bool(bool(lhs.value) and bool(rhs.value))
        if op == "||":
            return mk_bool(bool(lhs.value) or bool(rhs.value))
        try:
            value = binary(op, lhs.value, rhs.value, lhs.ctype, rhs.ctype, ctype)
        except Undefined:
            return BinOp(op, lhs, rhs, ctype)
        return mk_bool(value) if op in _CMP_OPS else Const(value, ctype)
    return BinOp(op, lhs, rhs, ctype)


def mk_unop(op: str, operand: SymExpr, ctype: CType) -> SymExpr:
    """Build a ``-`` or ``~`` node, folding a constant; ``negate`` is ``!``."""
    if isinstance(operand, Const):
        try:
            return Const(unary(op, operand.value, ctype), ctype)
        except Undefined:
            pass
    return UnOp(op, operand, ctype)


def mk_cast(operand: SymExpr, ctype: CType) -> SymExpr:
    if operand.ctype == ctype:
        return operand
    if isinstance(operand, Const):
        try:
            return Const(convert(operand.value, ctype), ctype)
        except Undefined:
            pass
    return Cast(operand, ctype)


def mk_ite(cond: SymExpr, then: SymExpr, other: SymExpr) -> SymExpr:
    """Build a ?: node of its arms' type."""
    if is_true(cond):
        return then
    if is_false(cond):
        return other
    return Ite(cond, then, other, then.ctype)


def mk_range(expr: SymExpr, lo: int, hi: int) -> SymExpr:
    if isinstance(expr, Const):
        return mk_bool(lo <= expr.value < hi)
    return Range(expr, lo, hi)


def conj(parts: list[SymExpr]) -> SymExpr:
    """Right-folded conjunction of the non-trivial parts."""
    out: SymExpr = TRUE
    for p in reversed(parts):
        out = mk_binop("&&", p, out)
    return out


def to_bool(e: SymExpr) -> SymExpr:
    """Coerce a scalar value to a guard: nonzero means true."""
    if e.ctype is BOOL:
        return e
    if isinstance(e, Ptr):
        return mk_binop("!=", e.base, Const(0, e.base.ctype))
    return mk_binop("!=", e, Const(0, e.ctype))


def negate(e: SymExpr) -> SymExpr:
    """Logical negation with comparison flipping and De Morgan push-down."""
    if isinstance(e, Const):
        return mk_bool(not e.value)
    if isinstance(e, UnOp) and e.op == "!":
        return to_bool(e.operand)
    if isinstance(e, BinOp):
        if e.op in FLIP:
            # no NaN in the value model, so flipping is valid for floats too
            return BinOp(FLIP[e.op], e.lhs, e.rhs, BOOL)
        if e.op == "&&":
            return mk_binop("||", negate(e.lhs), negate(e.rhs))
        if e.op == "||":
            return mk_binop("&&", negate(e.lhs), negate(e.rhs))
    if isinstance(e, Range):
        return UnOp("!", e, BOOL)
    return UnOp("!", to_bool(e), BOOL)


def free_symbols(e: SymExpr) -> Iterator[Sym]:
    """The symbol nodes under e, left to right, each node once: a subterm
    that several parents share, as in x + x, is walked once."""
    seen: set[int] = set()
    stack = [e]
    while stack:
        e = stack.pop()
        if id(e) in seen:
            continue
        seen.add(id(e))
        t = type(e)
        if t is Sym:
            yield e
        elif t is BinOp:
            stack += (e.rhs, e.lhs)
        elif t is UnOp or t is Cast:
            stack.append(e.operand)
        elif t is Ite:
            stack += (e.other, e.then, e.cond)
        elif t is Range:
            stack.append(e.expr)


# ---------------------------------------------------------------------------
# Rendering

_PREC = {
    "||": 1, "&&": 2, "|": 3, "^": 4, "&": 5,
    "==": 6, "!=": 6, "<": 7, "<=": 7, ">": 7, ">=": 7,
    "<<": 8, ">>": 8, "+": 9, "-": 9, "*": 10, "/": 10, "%": 10,
}
_UNARY_PREC = 11


def render(e: SymExpr, parent_prec: int = 0) -> str:
    if isinstance(e, (Const, Sym)):
        return str(e)
    if isinstance(e, Range):
        text = str(e)
        return f"({text})" if parent_prec > _PREC["<"] else text
    if isinstance(e, BinOp):
        if e.op == "&&":  # folded-true members stay structurally, not in text
            if is_true(e.rhs):
                return render(e.lhs, parent_prec)
            if is_true(e.lhs):
                return render(e.rhs, parent_prec)
        prec = _PREC[e.op]
        lhs = render(e.lhs, prec)
        # fully associative operators chain without parentheses
        rhs = render(e.rhs, prec if e.op in ("&&", "||") else prec + 1)
        text = f"{lhs} {e.op} {rhs}"
        return f"({text})" if prec < parent_prec else text
    if isinstance(e, UnOp):
        inner = render(e.operand, _UNARY_PREC)
        text = f"{e.op}{inner}"
        return f"({text})" if _UNARY_PREC < parent_prec else text
    if isinstance(e, Cast):
        return f"({e.ctype}){render(e.operand, _UNARY_PREC)}"
    if isinstance(e, Ite):
        text = f"{render(e.cond, 1)} ? {render(e.then, 1)} : {render(e.other, 1)}"
        return f"({text})" if parent_prec > 0 else text
    raise TypeError(f"cannot render {e!r}")


def render_conjunction(parts: list[SymExpr]) -> str:
    shown = [render(p, _PREC["&&"]) for p in parts if not is_true(p)]
    if not shown:
        return "true"
    return " && ".join(shown)


# ---------------------------------------------------------------------------
# Evaluation (the independent check on solver models)


Value = Union[int, float, bool]


class EvalError(Exception):
    pass


def evaluate(e: SymExpr, env: Mapping[str, Value]) -> Value:
    """Evaluate under a model. Independent of the solver's search machinery.
    A subterm that several parents share, as in x + x, is evaluated once."""
    return _evaluate(e, env, {})


def _evaluate(e: SymExpr, env: Mapping[str, Value], memo: dict[int, Value]) -> Value:
    """evaluate, with memo holding each compound node's value by the node's
    id. The nodes under e live as long as the call, so an id names one node;
    an EvalError ends the call, so none is cached."""
    t = type(e)
    if t is Sym:
        try:
            return env[e.name]
        except KeyError:
            raise EvalError(f"unassigned symbol {e.name}") from None
    if t is Const:
        return e.value
    key = id(e)
    v = memo.get(key)
    if v is not None:
        return v
    try:
        if t is BinOp:
            # && and || evaluate their right side only when it decides
            if e.op == "&&":
                v = 1 if _evaluate(e.lhs, env, memo) and _evaluate(e.rhs, env, memo) else 0
            elif e.op == "||":
                v = 1 if _evaluate(e.lhs, env, memo) or _evaluate(e.rhs, env, memo) else 0
            else:
                v = binary(e.op, _evaluate(e.lhs, env, memo), _evaluate(e.rhs, env, memo),
                           e.lhs.ctype, e.rhs.ctype, e.ctype)
        elif t is Cast:
            v = convert(_evaluate(e.operand, env, memo), e.ctype)
        elif t is UnOp:
            v = _evaluate(e.operand, env, memo)
            v = (0 if v else 1) if e.op == "!" else unary(e.op, v, e.ctype)
        elif t is Ite:
            v = _evaluate(e.then if _evaluate(e.cond, env, memo) else e.other, env, memo)
        elif t is Range:
            v = 1 if e.lo <= _evaluate(e.expr, env, memo) < e.hi else 0
        else:
            raise EvalError(f"cannot evaluate {e!r}")
    except Undefined as exc:
        raise EvalError(str(exc)) from exc
    memo[key] = v
    return v
