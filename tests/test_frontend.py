"""Front-end tests: lexing, parsing, typing, annotation extraction."""

from enum import Enum

import pytest

from conftest import read_data, same_records
from oracles import unit_to_c

from cunitgen.errors import (
    AnnotationPlacementError,
    AnnotationScopeError,
    CunitgenError,
    ParseError,
    SemaError,
    UnsupportedConstruct,
)
from cunitgen.frontend import extract_annotations, parse_unit
from cunitgen.frontend.csyntax import (
    Annotation,
    AnnotationKind,
    Bin,
    FunctionDef,
    Name,
)
from cunitgen.typesys import (
    DOUBLE,
    INT,
    PointerType,
    SCHAR,
    UINT,
    ArrayType,
)


def global_var(unit, name: str):
    return next(g for g in unit.globals if g.name == name)


def count_annotations(fn: FunctionDef) -> dict:
    kinds = {}
    for stmt in fn.body.stmts:
        if isinstance(stmt, Annotation):
            kinds[stmt.kind] = kinds.get(stmt.kind, 0) + 1
    return kinds


class TestParseUnit:
    def test_alloc_listing(self):
        unit = parse_unit(read_data("alloc.c"), "alloc.c")
        assert len(unit.functions) == 1
        assert len(unit.globals) == 2
        fn = unit.function("alloc")
        kinds = count_annotations(fn)
        assert kinds[AnnotationKind.MODIFIES] == 1
        assert kinds[AnnotationKind.PRE] == 1
        assert kinds[AnnotationKind.POST] == 1
        assert kinds[AnnotationKind.TESTCASE] == 2
        assert sum(kinds.values()) == 5

    def test_empty_function(self):
        unit = parse_unit("void f(void){}")
        assert len(unit.functions) == 1
        fn = unit.function("f")
        assert fn.params == []
        assert fn.body.stmts == []

    def test_malloc_is_unsupported(self):
        with pytest.raises(UnsupportedConstruct) as exc:
            parse_unit("extern void *malloc(unsigned long n);"
                       "void f(int n){ int *p; p = malloc(n); }")
        assert "dynamic allocation" in str(exc.value)

    def test_syntax_error_reports_location(self):
        with pytest.raises(ParseError) as exc:
            parse_unit("int f(int a) { return a + ; }")
        assert exc.value.line == 1
        assert "expression" in exc.value.expected

    def test_macro_expansion(self):
        unit = parse_unit("#define N 4\nint arr[N];\nint f(void){ return arr[N - 1]; }")
        assert global_var(unit, "arr").ctype == ArrayType(INT, 4)

    def test_recursion_rejected(self):
        with pytest.raises(UnsupportedConstruct) as exc:
            parse_unit("int f(int n){ if (n) { return f(n - 1); } return 0; }")
        assert "recursion" in str(exc.value)

    def test_mutual_recursion_rejected(self):
        src = ("int g(int n);"
               "int f(int n){ return g(n); }"
               "int g(int n){ return f(n); }")
        with pytest.raises(UnsupportedConstruct):
            parse_unit(src)

    def test_function_pointer_rejected(self):
        with pytest.raises(UnsupportedConstruct):
            parse_unit("int apply(int (*fn)(int), int x){ return fn(x); }")

    def test_goto_rejected(self):
        with pytest.raises(UnsupportedConstruct):
            parse_unit("int f(void){ goto end; end: return 0; }")

    def test_types_resolved(self):
        unit = parse_unit(read_data("alloc.c"), "alloc.c")
        fn = unit.function("alloc")
        assert fn.return_type == PointerType(SCHAR)
        assert fn.params[0].ctype == INT
        ret = fn.body.stmts[-1]
        assert ret.value.ctype == PointerType(SCHAR)

    def test_tritype_double_params(self):
        unit = parse_unit(read_data("tritype_float.c"), "tritype_float.c")
        fn = unit.function("Tritype")
        assert all(p.ctype == DOUBLE for p in fn.params)

    def test_struct_bit_fields(self):
        unit = parse_unit(
            "struct flags { unsigned int a : 3; unsigned int b : 5; int wide; };"
            "struct flags fl;"
            "int f(void){ return fl.a + fl.wide; }"
        )
        st = global_var(unit, "fl").ctype
        a = st.field("a")
        b = st.field("b")
        assert (a.byte_offset, a.bit_offset) == (0, 0)
        assert (b.byte_offset, b.bit_offset) == (0, 3)
        assert st.field("wide").byte_offset == 4

    def test_enum_constants(self):
        unit = parse_unit("enum mode { OFF, ON = 5, AUTO };"
                          "int f(int m){ if (m == AUTO) { return ON; } return OFF; }")
        fn = unit.function("f")
        cond = fn.body.stmts[0].cond
        assert isinstance(cond.rhs, Name)
        assert cond.rhs.binding.kind == "enum"
        assert cond.rhs.binding.enum_value == 6

    def test_constant_expressions_follow_c_division(self):
        unit = parse_unit("enum q { QUO = -7 / 2, REM = -7 % 2, SH = 1 << 4 };"
                          "int f(int m){ if (m == QUO) { return REM; } return SH; }")
        stmt = unit.function("f").body.stmts
        assert stmt[0].cond.rhs.binding.enum_value == -3
        assert stmt[0].then.stmts[0].value.binding.enum_value == -1
        assert stmt[1].value.binding.enum_value == 16
        with pytest.raises(ParseError):
            parse_unit("int a[4 / 0]; int f(void){ return 0; }")

    def test_unsigned_comparison_types(self):
        unit = parse_unit("int f(unsigned int a, int b){ return a > b; }")
        cmp_expr = unit.function("f").body.stmts[0].value
        assert isinstance(cmp_expr, Bin)
        assert cmp_expr.lhs.ctype == UINT

    def test_undeclared_function(self):
        with pytest.raises(SemaError):
            parse_unit("int f(int x){ return mystery(x); }")

    @pytest.mark.parametrize("decl, statement, message", [
        ("double d = x;", "d %= 2;", "line 1: % needs integer operands"),
        ("float f = x;", "f &= 1;", "line 1: & needs integer operands"),
        ("", "x <<= 1.5;", "line 1: << needs integer operands"),
        ("int *p = &x;", "x += p;", "line 1: invalid operands to +="),
        ("int a[2];", "a++;", "line 1: assignment to an array"),
        ("int a[2];", "a += 1;", "line 1: assignment to an array"),
    ])
    def test_assignment_takes_its_operators_rule(self, decl, statement, message):
        """Each is an error in gcc: invalid operands to the binary operator,
        assignment to an array, or (since gcc 14) a pointer converted to an
        int without a cast."""
        with pytest.raises(SemaError) as info:
            parse_unit(f"int f(int x) {{ {decl} {statement} return x; }}")
        assert str(info.value) == message

    def test_char_escapes(self):
        unit = parse_unit("int f(void){ char c = '\\n'; return c; }")
        decl = unit.function("f").body.stmts[0]
        assert decl.init.value == 10

    @pytest.mark.parametrize("labels, message", [
        ("case 1: case 1:", "duplicate case value 1"),
        ("case ONE: case 2 - 1:", "duplicate case value 1"),
        ("case 1: case 4294967297:", "duplicate case value 1"),
        ("case ONE: case TWO: default: case 0: default:", "duplicate default label"),
    ])
    def test_duplicate_switch_label(self, labels, message):
        src = ("enum n { ONE = 1, TWO };"
               f"int f(int x) {{ switch (x) {{ {labels} return 1; }} return 0; }}")
        with pytest.raises(ParseError, match=message):
            parse_unit(src)

    def test_float_constant_takes_its_type(self):
        # 16777217 needs 25 significant bits: as a float it rounds to even
        unit = parse_unit("float f = 16777217.0f; double d = 16777217.0;")
        assert global_var(unit, "f").init.value == 16777216.0
        assert global_var(unit, "d").init.value == 16777217.0

    @pytest.mark.parametrize("text, kind", [("1e39f", "float"), ("1e309", "double")])
    def test_floating_constant_beyond_its_range(self, text, kind):
        with pytest.raises(ParseError, match=f"floating constant {text} is out of range "
                                             f"for {kind}"):
            parse_unit(f"int f(double x) {{ if (x == {text}) return 1; return 0; }}")

    def test_determinism(self):
        src = read_data("alloc.c")
        a = parse_unit(src, "alloc.c")
        b = parse_unit(src, "alloc.c")
        assert same_records(a, b)


class TestRoundTrip:
    SOURCES = [
        "alloc.c",
        "alloc_ptr.c",
        "comp_ptr.c",
        "tritype_int.c",
        "tritype_float.c",
        "fig3.c",
        "table1.c",
        "table2.c",
        "struct_input.c",
        "deref_param.c",
    ]

    @pytest.mark.parametrize("name", SOURCES)
    def test_print_reparse_identical(self, name):
        unit1 = parse_unit(read_data(name), name)
        text = unit_to_c(unit1)
        unit2 = parse_unit(text, name)
        assert _strip_lines(unit1) == _strip_lines(unit2)

    def test_second_print_is_fixpoint(self):
        unit1 = parse_unit(read_data("alloc.c"), "x.c")
        text1 = unit_to_c(unit1)
        text2 = unit_to_c(parse_unit(text1, "x.c"))
        assert text1 == text2


def _strip_lines(node, memo=None):
    """Structural fingerprint of an AST ignoring source positions."""
    if hasattr(node, "__dict__") and not isinstance(node, Enum):
        fields = {name: _strip_lines(value) for name, value in vars(node).items()
                  if name not in ("line", "col", "end_line", "binding")}
        return (type(node).__name__, tuple(sorted(fields.items(), key=lambda kv: kv[0])))
    if isinstance(node, list):
        return tuple(_strip_lines(x) for x in node)
    if isinstance(node, dict):
        return tuple(sorted((k, _strip_lines(v)) for k, v in node.items()))
    return node


class TestAnnotations:
    def test_alloc_requirement_tags(self):
        unit = parse_unit(read_data("alloc.c"), "alloc.c")
        fn = unit.function("alloc")
        anns = extract_annotations(fn)
        assert anns.testcases[0].tags == ["CTGEN_001"]
        assert anns.testcases[1].tags == ["CTGEN_002"]
        assert anns.modifies == ["allocp"]
        assert anns.initial_vars == ["allocp"]
        # contract annotations removed from the executable statement list
        assert not any(isinstance(s, Annotation) for s in fn.body.stmts)

    def test_no_annotations_gives_empty_set(self):
        unit = parse_unit(read_data("tritype_int.c"), "tritype_int.c")
        anns = extract_annotations(unit.function("Tritype"))
        assert anns.pres == []
        assert anns.posts == []
        assert anns.testcases == []
        assert anns.modifies is None

    def test_local_in_postcondition_rejected(self):
        src = (
            '#include "rtt_annotations.h"\n'
            "int f(int a){\n"
            "  __rtt_postcondition(b == 0);\n"
            "  int b = a;\n"
            "  return b;\n"
            "}\n"
        )
        unit = parse_unit(src)
        with pytest.raises(AnnotationScopeError):
            extract_annotations(unit.function("f"))

    def test_aux_variable_allowed_in_post(self):
        src = (
            '#include "rtt_annotations.h"\n'
            "int f(int a){\n"
            "  __rtt_aux(int, a_aux);\n"
            "  __rtt_postcondition(a_aux == 0);\n"
            "  int b = a;\n"
            "  __rtt_assign(a_aux = b);\n"
            "  return b;\n"
            "}\n"
        )
        unit = parse_unit(src)
        anns = extract_annotations(unit.function("f"))
        assert "a_aux" in anns.aux
        markers = [s for s in unit.function("f").body.stmts if isinstance(s, Annotation)]
        assert len(markers) == 1 and markers[0].kind is AnnotationKind.ASSIGN

    @pytest.mark.parametrize("payload", ["a_aux += b", "g = b"])
    def test_rtt_assign_is_plain_assignment_to_aux(self, payload):
        src = (
            '#include "rtt_annotations.h"\n'
            "int g;\n"
            "int f(int a){\n"
            "  __rtt_aux(int, a_aux);\n"
            "  int b = a;\n"
            "  if (a > 0) {\n"
            f"    __rtt_assign({payload});\n"
            "  }\n"
            "  return b;\n"
            "}\n"
        )
        unit = parse_unit(src)
        with pytest.raises(CunitgenError, match=r"\(line 7\)"):
            extract_annotations(unit.function("f"))

    def test_aux_never_assigned_outside_annotation(self):
        src = (
            '#include "rtt_annotations.h"\n'
            "int f(int a){\n"
            "  __rtt_aux(int, a_aux);\n"
            "  a_aux = a;\n"
            "  return a;\n"
            "}\n"
        )
        with pytest.raises(SemaError):
            parse_unit(src)

    def test_annotation_after_statement_rejected(self):
        src = (
            '#include "rtt_annotations.h"\n'
            "int f(int a){\n"
            "  int b = a;\n"
            "  __rtt_precondition(a > 0);\n"
            "  return b;\n"
            "}\n"
        )
        unit = parse_unit(src)
        with pytest.raises(AnnotationPlacementError):
            extract_annotations(unit.function("f"))

    def test_return_ref_in_pre_rejected(self):
        src = (
            '#include "rtt_annotations.h"\n'
            "int f(int a){\n"
            "  __rtt_precondition(__rtt_return > 0);\n"
            "  return a;\n"
            "}\n"
        )
        unit = parse_unit(src)
        with pytest.raises(AnnotationScopeError):
            extract_annotations(unit.function("f"))

    def test_annotation_lines_inside_function_span(self):
        unit = parse_unit(read_data("alloc.c"), "alloc.c")
        fn = unit.function("alloc")
        anns = extract_annotations(fn)
        for ann in anns.annotations:
            assert fn.line <= ann.line <= fn.end_line

    def test_multiple_tags_in_one_string(self):
        src = (
            '#include "rtt_annotations.h"\n'
            "int f(int a){\n"
            '  __rtt_testcase(a > 0, __rtt_return == a, "R1,R2");\n'
            "  return a;\n"
            "}\n"
        )
        unit = parse_unit(src)
        anns = extract_annotations(unit.function("f"))
        assert anns.testcases[0].tags == ["R1", "R2"]


class TestShadowing:
    def test_parameter_shadowing_global_rejected(self):
        with pytest.raises(SemaError):
            parse_unit("int g; int f(int g){ return g; }")

    def test_local_shadowing_global_gets_distinct_storage(self):
        unit = parse_unit("int g; int f(void){ int g = 1; return g; }")
        fn = unit.function("f")
        assert "g@1" in fn.locals_types
        ret = fn.body.stmts[-1]
        assert ret.value.binding.name == "g@1"

    def test_local_shadowing_param_gets_distinct_storage(self):
        unit = parse_unit("int f(int x){ { int x = 1; return x; } }")
        assert "x@1" in unit.function("f").locals_types


class TestPreprocessor:
    def test_pragma_unsupported(self):
        with pytest.raises(UnsupportedConstruct):
            parse_unit("#pragma once\nint f(void){ return 0; }")

    def test_ifdef_unsupported(self):
        with pytest.raises(UnsupportedConstruct):
            parse_unit("#ifdef X\n#endif\nint f(void){ return 0; }")

    def test_function_like_macro_unsupported(self):
        with pytest.raises(UnsupportedConstruct):
            parse_unit("#define SQ(x) ((x)*(x))\nint f(int a){ return SQ(a); }")

    def test_system_include_unsupported(self):
        with pytest.raises(UnsupportedConstruct):
            parse_unit("#include <stdio.h>\nint f(void){ return 0; }")

    def test_local_include(self, tmp_path):
        (tmp_path / "defs.h").write_text(
            "#define LIMIT 5\nstruct pt { int x; int y; };\n")
        src = ('#include "defs.h"\n'
               "struct pt origin;\n"
               "int f(int a){ if (a > LIMIT) { return origin.x; } return 0; }\n")
        main_path = tmp_path / "main.c"
        main_path.write_text(src)
        unit = parse_unit(src, str(main_path), str(tmp_path))
        fn = unit.function("f")
        cond = fn.body.stmts[0].cond
        assert cond.rhs.value == 5  # LIMIT expanded
        assert global_var(unit, "origin").ctype.tag == "pt"

    def test_compat_header_skipped_by_name(self):
        unit = parse_unit('#include "rtt_annotations.h"\nint f(void){ return 1; }')
        assert unit.function("f")

    def test_nested_object_macros(self):
        unit = parse_unit("#define A 2\n#define B (A + 1)\n"
                          "int f(void){ return B; }")
        # expansion happened before parsing; the body folds at lowering
        assert unit.function("f")


class TestInitialOnParam:
    def test_snapshot_of_parameter(self):
        src = ('#include "rtt_annotations.h"\n'
               "int f(int n){\n"
               "  __rtt_postcondition(__rtt_return == __rtt_initial(n) + 1);\n"
               "  n = n + 1;\n"
               "  return n;\n"
               "}\n")
        unit = parse_unit(src)
        anns = extract_annotations(unit.function("f"))
        assert anns.initial_vars == ["n"]
