"""Expression-level tests: wraparound arithmetic, rendering, evaluation."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cunitgen.symexpr import (
    BinOp,
    Const,
    EvalError,
    Ptr,
    Range,
    Sym,
    evaluate,
    free_symbols,
    mk_binop,
    mk_cast,
    mk_range,
    mk_unop,
    negate,
    render,
    render_conjunction,
    to_bool,
)
from cunitgen.typesys import (
    BOOL,
    DOUBLE,
    FLOAT,
    INT,
    LONG,
    PointerType,
    SCHAR,
    SHORT,
    UCHAR,
    UINT,
    ULONG,
    USHORT,
    Undefined,
    binary,
    c_div,
    c_rem,
    promote,
    usual_arith,
    wrap_int,
)


class TestWrap:
    def test_wrap_int_signed(self):
        assert wrap_int(2**31, INT) == -(2**31)
        assert wrap_int(-(2**31) - 1, INT) == 2**31 - 1
        assert wrap_int(300, SCHAR) == 44
        assert wrap_int(-1, UCHAR) == 255

    def test_c_division_truncates_toward_zero(self):
        assert c_div(7, 2) == 3
        assert c_div(-7, 2) == -3
        assert c_div(7, -2) == -3
        assert c_rem(-7, 2) == -1
        assert c_rem(7, -2) == 1

    @given(st.integers(-(2**40), 2**40))
    def test_wrap_is_idempotent(self, v):
        assert wrap_int(wrap_int(v, INT), INT) == wrap_int(v, INT)


class TestEvaluate:
    def test_signed_overflow_wraps(self):
        x = Sym("x", INT)
        e = mk_binop("+", x, Const(1, INT), INT)
        assert evaluate(e, {"x": 2**31 - 1}) == -(2**31)

    def test_unsigned_compare(self):
        a = Sym("a", UINT)
        b = Sym("b", INT)
        e = mk_binop(">", a, b)  # b converts to unsigned
        assert evaluate(e, {"a": 1, "b": -1}) == 0

    def test_division_by_zero_raises(self):
        x = Sym("x", INT)
        e = mk_binop("/", Const(4, INT), x, INT)
        with pytest.raises(EvalError):
            evaluate(e, {"x": 0})

    def test_a_pointer_term_is_not_evaluated(self):
        # symex splits every pointer relation into base and offset terms
        p = Ptr(Sym("p@baseAddress", UINT), Sym("p@offset", UINT), PointerType(SCHAR))
        with pytest.raises(EvalError):
            evaluate(p, {"p@baseAddress": 5, "p@offset": 2})

    def test_range(self):
        x = Sym("x", UINT)
        r = mk_range(x, 0, 10)
        assert evaluate(r, {"x": 9}) == 1
        assert evaluate(r, {"x": 10}) == 0

    def test_float32_rounding(self):
        from cunitgen.typesys import FLOAT

        e = mk_binop("+", Const(0.1, FLOAT), Const(0.2, FLOAT), FLOAT)
        v = evaluate(e, {})
        import struct

        assert v == struct.unpack("<f", struct.pack("<f", v))[0]


class TestRender:
    def test_conjunction_chain_without_parens(self):
        a, b, c = (Sym(n, INT) for n in "abc")
        e = mk_binop("&&", mk_binop("<", a, b),
                     mk_binop("&&", mk_binop("==", b, c), mk_binop(">", c, a)))
        assert render(e) == "a < b && b == c && c > a"

    def test_true_conjunct_suppressed(self):
        from cunitgen.symexpr import BinOp, TRUE
        from cunitgen.typesys import BOOL

        a = Sym("a", INT)
        chain = BinOp("&&", mk_binop("<", a, Const(3, INT)), TRUE, BOOL)
        assert render(chain) == "a < 3"

    def test_range_chained_form(self):
        assert str(mk_range(Sym("p1@offset", UINT), 0, 10)) == "0 <= p1@offset < 10"

    def test_precedence_parens(self):
        a, b = Sym("a", INT), Sym("b", INT)
        e = mk_binop("*", mk_binop("+", a, b, INT), Const(2, INT), INT)
        assert render(e) == "(a + b) * 2"

    def test_render_conjunction_skips_true(self):
        from cunitgen.symexpr import TRUE

        a = Sym("a", INT)
        assert render_conjunction([TRUE, mk_binop("<", a, Const(1, INT))]) == "a < 1"
        assert render_conjunction([TRUE]) == "true"


class TestNegate:
    def test_comparison_flip(self):
        a, b = Sym("a", INT), Sym("b", INT)
        assert render(negate(mk_binop("<", a, b))) == "a >= b"
        assert render(negate(mk_binop("==", a, b))) == "a != b"

    def test_de_morgan(self):
        a, b = Sym("a", INT), Sym("b", INT)
        e = mk_binop("&&", to_bool(a), to_bool(b))
        assert render(negate(e)) == "a == 0 || b == 0"

    @given(st.integers(-100, 100), st.integers(-100, 100))
    def test_negation_is_complement(self, va, vb):
        a, b = Sym("a", INT), Sym("b", INT)
        for op in ("<", "<=", ">", ">=", "==", "!="):
            e = mk_binop(op, a, b)
            env = {"a": va, "b": vb}
            assert bool(evaluate(e, env)) != bool(evaluate(negate(e), env))


class TestCast:
    @given(st.integers(-(2**31), 2**31 - 1))
    def test_int_to_char_wraps(self, v):
        e = mk_cast(Sym("x", INT), SCHAR)
        assert evaluate(e, {"x": v}) == wrap_int(v, SCHAR)

    def test_widening_preserves(self):
        e = mk_cast(Sym("x", SCHAR), LONG)
        assert evaluate(e, {"x": -5}) == -5

    def test_const_folds(self):
        assert mk_cast(Const(300, INT), SCHAR) == Const(44, SCHAR)

    def test_float_overflow_rounds_to_infinity(self):
        # IEEE rounding of a value beyond FLT_MAX gives inf, and inf has
        # no integer value: the cast stays unfolded and does not evaluate
        f = mk_cast(Const(1e39, DOUBLE), FLOAT)
        assert f == Const(math.inf, FLOAT)
        assert mk_cast(Const(-1e39, DOUBLE), FLOAT) == Const(-math.inf, FLOAT)
        i = mk_cast(f, INT)
        assert not isinstance(i, Const)
        with pytest.raises(EvalError):
            evaluate(i, {})


class TestFreeSymbols:
    def test_collects_in_order(self):
        a, b = Sym("a", INT), Sym("b", INT)
        e = mk_binop("&&", mk_binop("<", a, b), mk_binop(">", b, Const(0, INT)))
        assert [s.name for s in free_symbols(e)] == ["a", "b", "b"]


_INT_TYPES = [SCHAR, UCHAR, SHORT, USHORT, INT, UINT, LONG, ULONG]
_CMP_OPS = ["<", "<=", ">", ">=", "==", "!="]


def _reference(op, x, y, ta, tb, t):
    """Plain Python integers, reduced to the C type by hand."""
    if op in _CMP_OPS:
        common = usual_arith(ta, tb)
        x, y = wrap_int(x, common), wrap_int(y, common)
        return int({"<": x < y, "<=": x <= y, ">": x > y, ">=": x >= y,
                    "==": x == y, "!=": x != y}[op])
    x = wrap_int(x, t)
    if op in ("<<", ">>"):
        return wrap_int(x << y if op == "<<" else x >> y, t)
    y = wrap_int(y, t)
    if op in ("/", "%"):  # the quotient truncates toward zero
        q = abs(x) // abs(y) * (-1 if (x < 0) != (y < 0) else 1)
        return wrap_int(q if op == "/" else x - q * y, t)
    return wrap_int({"+": x + y, "-": x - y, "*": x * y,
                     "&": x & y, "|": x | y, "^": x ^ y}[op], t)


@settings(max_examples=400)
@given(
    st.sampled_from(_INT_TYPES),
    st.integers(-(2**64), 2**64),
    st.sampled_from(_INT_TYPES),
    st.integers(-(2**64), 2**64) | st.integers(-3, 70),
    st.sampled_from(["+", "-", "*", "&", "|", "^", "<<", ">>", "/", "%", *_CMP_OPS]),
)
@example(INT, 1, ULONG, 2**32 + 1, "<<")
def test_binop_matches_reference_wraparound(ta, x, tb, y, op):
    """Evaluation agrees with direct two's-complement arithmetic, and constant
    folding gives the evaluated value exactly when evaluation is defined."""
    x, y = wrap_int(x, ta), wrap_int(y, tb)
    if op in _CMP_OPS:
        t = BOOL
    elif op in ("<<", ">>"):
        t = promote(ta)
    else:
        t = usual_arith(ta, tb)
    folded = mk_binop(op, Const(x, ta), Const(y, tb), t)
    e = mk_binop(op, Sym("x", ta), Sym("y", tb), t)
    try:
        got = evaluate(e, {"x": x, "y": y})
    except EvalError:
        assert isinstance(folded, BinOp), folded
        undefined = y == 0 if op in ("/", "%") else not 0 <= y < t.width
        assert op in ("/", "%", "<<", ">>") and undefined
        return
    assert isinstance(folded, Const) and folded.value == got
    assert got == _reference(op, x, y, ta, tb, t)


@settings(max_examples=600)
@given(
    st.sampled_from(_INT_TYPES),
    st.integers(-(2**70), 2**70),
    st.sampled_from(_INT_TYPES) | st.none(),
    st.integers(-(2**70), 2**70) | st.integers(-3, 70),
    st.sampled_from(["+", "-", "*", "&", "|", "^", "<<", ">>", "/", "%", *_CMP_OPS]),
)
@example(INT, 2**32 + 7, None, 7, "==")
@example(ULONG, -1, None, 2**64 - 1, "==")
@example(SCHAR, 200, None, -56, "==")
def test_binary_matches_usual_conversions(ta, x, tb, y, op):
    """binary, on operands outside their types' ranges and on operands of
    one type (tb None), gives what the usual arithmetic conversions give
    when each step is taken by hand, and is undefined exactly where C is."""
    tb = ta if tb is None else tb
    if op in _CMP_OPS:
        t = BOOL
    elif op in ("<<", ">>"):
        t = promote(ta)
    else:
        t = usual_arith(ta, tb)
    try:
        got = binary(op, x, y, ta, tb, t)
    except Undefined:
        if op in ("/", "%"):
            assert wrap_int(y, t) == 0
        else:
            assert op in ("<<", ">>") and not 0 <= y < t.width
        return
    assert got == _reference(op, x, y, ta, tb, t)
