"""C type model for the supported subset, and the table of C scalar semantics.

Integer widths follow a conventional LP64 target: char 8, short 16, int 32,
long 64. All arithmetic is fixed-width with two's-complement wraparound
(generated drivers are compiled with -fwrapv so the real machine agrees).

The value of every scalar operation is defined once, here: ``convert`` for
conversions, ``binary`` for ``+ - * / % << >> & | ^`` and the comparisons,
``unary`` for ``-`` and ``~``, with ``Undefined`` raised where C gives no
value. Constant folding, model evaluation (``symexpr``), concrete replay
(``replay``) and the solver's fold of decided operands all call them.
Short-circuit ``&&``/``||``, ``!``, conditionals and pointer values stay in
each interpreter, so the symbolic and the concrete interpreter remain
separate code; gcc-compiled drivers are the independent check on this table.
"""

from __future__ import annotations

import math
import operator
import struct

from .frozen import Frozen


class IntType(Frozen):
    def __init__(self, width: int, signed: bool, name: str):
        self.__dict__.update(width=width, signed=signed, name=name)

    @property
    def size(self) -> int:
        return self.width // 8

    def min_value(self) -> int:
        return -(1 << (self.width - 1)) if self.signed else 0

    def max_value(self) -> int:
        return (1 << (self.width - 1)) - 1 if self.signed else (1 << self.width) - 1

    def __str__(self) -> str:
        return self.name


class FloatType(Frozen):
    def __init__(self, width: int, name: str):
        self.__dict__.update(width=width, name=name)

    @property
    def size(self) -> int:
        return self.width // 8

    def __str__(self) -> str:
        return self.name


class VoidType(Frozen):
    def __str__(self) -> str:
        return "void"

    @property
    def size(self) -> int:
        return 0


class BoolType(Frozen):
    """Internal type of guards and resolved constraints; not a C type."""

    def __str__(self) -> str:
        return "_Bool"

    @property
    def size(self) -> int:
        return 1


class PointerType(Frozen):
    def __init__(self, pointee: CType, const_pointee: bool = False):
        self.__dict__.update(pointee=pointee, const_pointee=const_pointee)

    @property
    def size(self) -> int:
        return 8

    def __str__(self) -> str:
        c = "const " if self.const_pointee else ""
        return f"{c}{self.pointee} *"


class ArrayType(Frozen):
    def __init__(self, elem: CType, length: int):
        self.__dict__.update(elem=elem, length=length)

    @property
    def size(self) -> int:
        return self.elem.size * self.length

    def __str__(self) -> str:
        return f"{self.elem} [{self.length}]"


class StructField(Frozen):
    def __init__(self, name: str, ctype: CType, bit_width: int | None = None,
                 byte_offset: int = 0, bit_offset: int = 0):
        self.__dict__.update(
            name=name,
            ctype=ctype,
            bit_width=bit_width,
            # Filled in by layout():
            byte_offset=byte_offset,
            bit_offset=bit_offset)


class StructType(Frozen):
    def __init__(self, tag: str, fields: tuple[StructField, ...], is_union: bool = False,
                 total_size: int = 0):
        self.__dict__.update(tag=tag, fields=fields, is_union=is_union, total_size=total_size)

    @property
    def size(self) -> int:
        return self.total_size

    def field(self, name: str) -> StructField:
        for f in self.fields:
            if f.name == name:
                return f
        raise KeyError(name)

    def __str__(self) -> str:
        kw = "union" if self.is_union else "struct"
        return f"{kw} {self.tag}"


CType = IntType | FloatType | VoidType | BoolType | PointerType | ArrayType | StructType

# Canonical scalar types. Plain char is signed on this target.
SCHAR = IntType(8, True, "char")
UCHAR = IntType(8, False, "unsigned char")
SHORT = IntType(16, True, "short")
USHORT = IntType(16, False, "unsigned short")
INT = IntType(32, True, "int")
UINT = IntType(32, False, "unsigned int")
LONG = IntType(64, True, "long")
ULONG = IntType(64, False, "unsigned long")
FLOAT = FloatType(32, "float")
DOUBLE = FloatType(64, "double")
VOID = VoidType()
BOOL = BoolType()

PTRDIFF = INT  # pointer subtraction result on the desk-scale target


def is_integer(t: CType) -> bool:
    return isinstance(t, IntType)


def is_float(t: CType) -> bool:
    return isinstance(t, FloatType)


def is_arith(t: CType) -> bool:
    return isinstance(t, (IntType, FloatType))


def is_pointer(t: CType) -> bool:
    return isinstance(t, PointerType)


def is_scalar(t: CType) -> bool:
    return isinstance(t, (IntType, FloatType, PointerType, BoolType))


def wrap_int(value: int, t: IntType) -> int:
    """Reduce an unbounded integer to the two's-complement value of type t."""
    masked = value & ((1 << t.width) - 1)
    if t.signed and masked >= 1 << (t.width - 1):
        masked -= 1 << t.width
    return masked


def c_div(a: int, b: int) -> int:
    """C99 integer division: truncation toward zero."""
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def c_rem(a: int, b: int) -> int:
    """C99 remainder: sign follows the dividend."""
    return a - c_div(a, b) * b


def promote(t: IntType) -> IntType:
    """Integer promotion: anything narrower than int becomes int."""
    if t.width < INT.width:
        return INT
    return t


def usual_arith(a: CType, b: CType) -> CType:
    """Usual arithmetic conversions for two arithmetic operand types."""
    if isinstance(a, FloatType) or isinstance(b, FloatType):
        fa = a if isinstance(a, FloatType) else None
        fb = b if isinstance(b, FloatType) else None
        if fa and fb:
            return fa if fa.width >= fb.width else fb
        return fa or fb  # type: ignore[return-value]
    assert isinstance(a, IntType) and isinstance(b, IntType)
    a, b = promote(a), promote(b)
    if a == b:
        return a
    if a.signed == b.signed:
        return a if a.width > b.width else b
    signed, unsigned = (a, b) if a.signed else (b, a)
    if unsigned.width >= signed.width:
        return unsigned
    # signed type can represent the whole unsigned range
    return signed


class Undefined(ArithmeticError):
    """A scalar operation without a C value: division by zero, a shift out of
    ``[0, width)``, an infinite or NaN float converted to an integer type, or
    an operator the table does not define for the type."""


_F32 = struct.Struct("<f")

_COMPARE = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
            ">=": operator.ge, "==": operator.eq, "!=": operator.ne}
# wrapping commutes with these operators, so their result is wrapped once
_WRAPPING_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
                 "&": operator.and_, "|": operator.or_, "^": operator.xor}
_INT_OPS = {"/": c_div, "%": c_rem, "<<": operator.lshift, ">>": operator.rshift}
_FLOAT_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
              "/": operator.truediv}


def round_float(v: float, t: FloatType) -> float:
    """Round a double to the precision of t; beyond its range that is +-inf."""
    if t.width == 32:
        try:
            return _F32.unpack(_F32.pack(v))[0]
        except OverflowError:
            return math.copysign(math.inf, v)
    return v


def convert(v: int | float, dst: CType) -> int | float:
    """Convert an arithmetic value to dst; float to integer truncates toward zero."""
    if isinstance(dst, IntType):
        if isinstance(v, float) and not math.isfinite(v):
            raise Undefined(f"{v} converted to {dst}")
        return wrap_int(int(v), dst)
    if isinstance(dst, FloatType):
        return round_float(float(v), dst)
    if dst is BOOL:
        return 1 if v else 0
    return v


def binary(op: str, a: int | float, b: int | float,
           ta: CType, tb: CType, t: CType) -> int | float:
    """Value of ``a op b`` for operands of types ta and tb and result type t.

    Comparisons convert both sides to their usual-arithmetic common type and
    give 1 or 0. Integer operations convert both operands to t, except that a
    shift amount keeps its own value. Two steps skip conversions that change
    nothing: operands of one integer type that promotion keeps are already
    of their common type, so each is wrapped to it once; and since wrapping
    commutes with + - * & | ^, their result is wrapped once, not three
    times.
    """
    cmp = _COMPARE.get(op)
    if cmp is not None:
        if ta is tb and type(ta) is IntType and ta.width >= INT.width:
            return 1 if cmp(wrap_int(int(a), ta), wrap_int(int(b), ta)) else 0
        if is_arith(ta) and is_arith(tb):
            common = usual_arith(ta, tb)
            a, b = convert(a, common), convert(b, common)
        return 1 if cmp(a, b) else 0
    if isinstance(t, IntType):
        fn = _WRAPPING_OPS.get(op)
        if fn is not None:
            return wrap_int(fn(int(a), int(b)), t)
        fn = _INT_OPS.get(op)
        if fn is None:
            raise Undefined(f"operator {op}")
        a = wrap_int(int(a), t)
        if op == "<<" or op == ">>":
            b = int(b)
            if not 0 <= b < t.width:
                raise Undefined("shift out of range")
        else:
            b = wrap_int(int(b), t)
            if not b and (op == "/" or op == "%"):
                raise Undefined("division by zero")
        return wrap_int(fn(a, b), t)
    if isinstance(t, FloatType):
        fn = _FLOAT_OPS.get(op)
        if fn is None:
            raise Undefined(f"operator {op}")
        b = float(b)
        if not b and op == "/":
            raise Undefined("float division by zero")
        return round_float(fn(float(a), b), t)
    raise Undefined(f"operator {op} on {t}")


def unary(op: str, v: int | float, t: CType) -> int | float:
    """Value of unary ``-`` or ``~`` applied to v, in result type t."""
    if isinstance(t, IntType):
        if op == "-":
            return wrap_int(-int(v), t)
        if op == "~":
            return wrap_int(~int(v), t)
    elif isinstance(t, FloatType) and op == "-":
        return round_float(-float(v), t)
    raise Undefined(f"unary {op}")


def align_of(t: CType) -> int:
    if isinstance(t, ArrayType):
        return align_of(t.elem)
    if isinstance(t, StructType):
        return max((align_of(f.ctype) for f in t.fields), default=1)
    return max(1, min(t.size, 8))


def layout_struct(tag: str, raw_fields: list[StructField], is_union: bool) -> StructType:
    """Assign byte/bit offsets to struct or union members.

    Bit fields are packed into units of their declared type, least
    significant bits first; a field that would not fit starts a new unit.
    """
    placed: list[StructField] = []
    if is_union:
        size = 0
        for f in raw_fields:
            placed.append(StructField(f.name, f.ctype, f.bit_width, 0, 0))
            size = max(size, f.ctype.size)
        align = max((align_of(f.ctype) for f in raw_fields), default=1)
        size = _round_up(size, align)
        return StructType(tag, tuple(placed), True, size)

    offset = 0
    bit_cursor = -1  # bit position inside the current bit-field unit
    unit_offset = 0
    unit_width = 0
    for f in raw_fields:
        if f.bit_width is not None:
            assert isinstance(f.ctype, IntType)
            width = f.ctype.width
            if bit_cursor < 0 or unit_width != width or bit_cursor + f.bit_width > width:
                unit_offset = _round_up(offset, align_of(f.ctype))
                offset = unit_offset + f.ctype.size
                bit_cursor = 0
                unit_width = width
            placed.append(StructField(f.name, f.ctype, f.bit_width, unit_offset, bit_cursor))
            bit_cursor += f.bit_width
        else:
            bit_cursor = -1
            off = _round_up(offset, align_of(f.ctype))
            placed.append(StructField(f.name, f.ctype, None, off, 0))
            offset = off + f.ctype.size
    align = max((align_of(f.ctype) for f in raw_fields), default=1)
    return StructType(tag, tuple(placed), False, _round_up(offset, align))


def _round_up(n: int, align: int) -> int:
    return (n + align - 1) // align * align


#: Named types available to declarations, extended by typedef/struct parsing.
BUILTIN_TYPES: dict[str, CType] = {
    "void": VOID,
    "char": SCHAR,
    "signed char": SCHAR,
    "unsigned char": UCHAR,
    "short": SHORT,
    "short int": SHORT,
    "unsigned short": USHORT,
    "unsigned short int": USHORT,
    "int": INT,
    "signed": INT,
    "signed int": INT,
    "unsigned": UINT,
    "unsigned int": UINT,
    "long": LONG,
    "long int": LONG,
    "signed long": LONG,
    "unsigned long": ULONG,
    "unsigned long int": ULONG,
    "float": FLOAT,
    "double": DOUBLE,
}
