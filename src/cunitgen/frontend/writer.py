"""AST back to C text: expressions, declarators, types and annotations.

Used for CFG dumps, by the harness when it renders declarations and
annotation expressions into drivers, and by the stub writer. The statement
printer the parser round-trip test uses is a test oracle
(``tests/oracles.py``).
"""

from __future__ import annotations

from typing import Callable

from ..typesys import ArrayType, CType, PointerType, StructType
from .csyntax import (
    Annotation,
    AnnotationKind,
    Assign,
    Bin,
    Call,
    CastExpr,
    CharLit,
    Cond,
    Expr,
    FloatLit,
    Index,
    InitialRef,
    IntLit,
    Member,
    Name,
    ReturnRef,
    SizeofType,
    StrLit,
    TypeDecl,
    Un,
    Update,
)

_PREC = {
    "||": 1, "&&": 2, "|": 3, "^": 4, "&": 5,
    "==": 6, "!=": 6, "<": 7, "<=": 7, ">": 7, ">=": 7,
    "<<": 8, ">>": 8, "+": 9, "-": 9, "*": 10, "/": 10, "%": 10,
}
_UNARY = 11
_POSTFIX = 12


def decl_text(name: str, ctype: CType) -> str:
    """C declarator for a name of the given type."""
    if isinstance(ctype, ArrayType):
        return f"{type_text(ctype.elem)} {name}[{ctype.length}]"
    if isinstance(ctype, PointerType):
        const = "const " if ctype.const_pointee else ""
        return f"{const}{type_text(ctype.pointee)} *{name}"
    return f"{type_text(ctype)} {name}"


def type_text(ctype: CType) -> str:
    if isinstance(ctype, PointerType):
        const = "const " if ctype.const_pointee else ""
        return f"{const}{type_text(ctype.pointee)} *"
    if isinstance(ctype, StructType):
        kw = "union" if ctype.is_union else "struct"
        return f"{kw} {ctype.tag}"
    return str(ctype)


def expr_to_c(
    e: Expr,
    parent_prec: int = 0,
    initial: Callable[[str], str] | None = None,
    returnref: str = "__rtt_return",
) -> str:
    def rec(node: Expr, prec: int) -> str:
        return expr_to_c(node, prec, initial, returnref)

    if isinstance(e, Name):
        return e.name
    if isinstance(e, IntLit):
        return _int_lit_text(e.value, e.suffix)
    if isinstance(e, FloatLit):
        body = repr(e.value)
        if "e" not in body and "." not in body and "inf" not in body:
            body += ".0"
        return body + ("f" if e.is_single else "")
    if isinstance(e, CharLit):
        return _char_lit_text(e.value)
    if isinstance(e, StrLit):
        return '"' + e.value.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(e, ReturnRef):
        return returnref
    if isinstance(e, InitialRef):
        if initial:
            return initial(e.var.name)
        return f"__rtt_initial({e.var.name})"
    if isinstance(e, Bin):
        prec = _PREC[e.op]
        text = f"{rec(e.lhs, prec)} {e.op} {rec(e.rhs, prec + 1)}"
        return f"({text})" if prec < parent_prec else text
    if isinstance(e, Un):
        text = f"{e.op}{rec(e.operand, _UNARY)}"
        return f"({text})" if _UNARY < parent_prec else text
    if isinstance(e, Update):
        if e.is_prefix:
            return f"{e.op}{rec(e.operand, _UNARY)}"
        return f"{rec(e.operand, _POSTFIX)}{e.op}"
    if isinstance(e, Assign):
        text = f"{rec(e.target, _UNARY)} {e.op} {rec(e.value, 0)}"
        return f"({text})" if parent_prec > 0 else text
    if isinstance(e, Cond):
        text = f"{rec(e.cond, 3)} ? {rec(e.then, 1)} : {rec(e.other, 1)}"
        return f"({text})" if parent_prec > 0 else text
    if isinstance(e, Call):
        args = ", ".join(rec(a, 0) for a in e.args)
        return f"{e.name}({args})"
    if isinstance(e, Index):
        return f"{rec(e.base, _POSTFIX)}[{rec(e.index, 0)}]"
    if isinstance(e, Member):
        op = "->" if e.arrow else "."
        return f"{rec(e.base, _POSTFIX)}{op}{e.field_name}"
    if isinstance(e, CastExpr):
        text = f"({type_text(e.target)}){rec(e.operand, _UNARY)}"
        return f"({text})" if _UNARY < parent_prec else text
    if isinstance(e, SizeofType):
        if e.operand is not None:
            return f"sizeof({rec(e.operand, 0)})"
        return f"sizeof({type_text(e.target)})"
    raise TypeError(f"cannot print {e!r}")


def _int_lit_text(value: int, suffix: str = "") -> str:
    # INT_MIN cannot be written directly as a decimal literal
    if value == -2147483648 and "L" not in suffix.upper():
        return "(-2147483647 - 1)"
    if value == -9223372036854775808:
        return "(-9223372036854775807L - 1)"
    return f"{value}{suffix}"


def _char_lit_text(value: int) -> str:
    specials = {10: "\\n", 9: "\\t", 13: "\\r", 0: "\\0", 39: "\\'", 92: "\\\\"}
    if value in specials:
        return f"'{specials[value]}'"
    if 32 <= value < 127:
        return f"'{chr(value)}'"
    return str(value)


def annotation_to_c(ann: Annotation) -> str:
    k = ann.kind
    if k is AnnotationKind.AUX:
        return f"__rtt_aux({type_text(ann.aux_type)}, {ann.aux_name});"
    if k is AnnotationKind.MODIFIES:
        return f"__rtt_modifies({', '.join(n.name for n in ann.names)});"
    if k is AnnotationKind.TESTCASE:
        tags = ", ".join(f'"{t}"' for t in ann.tags)
        return (f"__rtt_testcase({expr_to_c(ann.exprs[0])}, "
                f"{expr_to_c(ann.exprs[1])}, {tags});")
    macro = {
        AnnotationKind.PRE: "__rtt_precondition",
        AnnotationKind.POST: "__rtt_postcondition",
        AnnotationKind.ASSIGN: "__rtt_assign",
        AnnotationKind.ASSERT: "__rtt_assert",
    }[k]
    return f"{macro}({expr_to_c(ann.exprs[0])});"


def typedecl_to_c(td: TypeDecl) -> list[str]:
    if isinstance(td.ctype, StructType) and td.name.startswith(("struct ", "union ")):
        st = td.ctype
        kw = "union" if st.is_union else "struct"
        lines = [f"{kw} {st.tag}", "{"]
        for f in st.fields:
            bits = f" : {f.bit_width}" if f.bit_width is not None else ""
            lines.append(f"    {decl_text(f.name, f.ctype)}{bits};")
        lines.append("};")
        return lines
    if td.name.startswith("enum "):
        consts = getattr(td, "enum_consts", [])
        body = ", ".join(f"{n} = {v}" for n, v in consts)
        tag = td.name[len("enum "):]
        return [f"enum {tag} {{ {body} }};"]
    return [f"typedef {decl_text(td.name, td.ctype)};"]
