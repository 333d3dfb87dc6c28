"""Symbolic interpreter and memory-model tests."""

import itertools

import pytest

from conftest import read_data

from cunitgen import constraints as con
from cunitgen.config import Config
from cunitgen.errors import StubPolicyError
from cunitgen.frontend import extract_annotations, parse_unit
from cunitgen.imr import enumerate_coverage_targets, lower
from cunitgen.solver import solve
from cunitgen.stct import CoverageState, Stct
from cunitgen.symex import Layout, interpret
from cunitgen.memory import MemoryItem, Place, base_eq_cond, offsets_overlap_cond
from cunitgen.symexpr import (
    FALSE,
    TRUE,
    Const,
    Ptr,
    Sym,
    is_true,
    mk_binop,
    render,
)
from cunitgen.typesys import DOUBLE, INT, LONG, SCHAR, SHORT, UCHAR, UINT, ULONG


def session(src: str, fn_name: str, config: Config | None = None,
            file_name: str = "<test>"):
    unit = parse_unit(src, file_name)
    fn = unit.function(fn_name)
    anns = extract_annotations(fn)
    cfg = lower(unit, fn)
    layout = Layout(unit, fn, cfg, anns, config or Config())
    coverage = CoverageState(enumerate_coverage_targets(cfg))
    tree = Stct(cfg, coverage, 256)
    return unit, fn, anns, cfg, layout, coverage, tree


def first_complete_state(src: str, fn_name: str, follow_true: bool = True):
    """Interpret the first complete trace (extending through true branches)."""
    _unit, _fn, anns, cfg, layout, coverage, tree = session(src, fn_name)
    trace = tree.select_trace(None)
    state = None
    for _ in range(64):
        assert trace is not None
        state = interpret(trace, cfg, anns, layout)
        if state.infeasible_branch is not None or trace.complete:
            break
        coverage.mark_pending(trace)
        trace = tree.select_trace(trace)
    return state, cfg, layout, anns


class TestMemory:
    def test_concrete_write_then_read(self):
        state, *_ = first_complete_state(
            "int a[4]; int f(void){ a[2] = 5; return a[2]; }", "f")
        assert state.return_value == Const(5, INT)

    def test_guard_folds_without_solver(self):
        state, *_ = first_complete_state(
            "int f(void){ int x = 1; if (x == 1) { return 2; } return 3; }", "f")
        assert state.complete
        assert all(is_true(b.guard) for b in state.branches)
        assert state.return_value == Const(2, INT)

    def test_uninitialized_global_is_input_symbol(self):
        state, *_ = first_complete_state("int g; int f(void){ return g; }", "f")
        assert isinstance(state.return_value, Sym)
        assert state.return_value.name == "g"

    def test_two_writes_one_open_item(self):
        """Both writes stay in the history; the newer one shadows the older."""
        state, _cfg, layout, _ = first_complete_state(
            "int f(void){ int y = 1; y = 2; return y; }", "f")
        y_region = layout.regions.region_of("y").base_id
        y_items = [i for i in state.items
                   if isinstance(i.base, Const) and i.base.value == y_region]
        assert len(y_items) == 2
        assert state.return_value == Const(2, INT)

    def test_struct_fields_disjoint(self):
        src = ("struct pair { int f; int g; };"
               "struct pair s;"
               "int f(void){ s.f = 1; return s.g; }")
        state, *_ = first_complete_state(src, "f")
        assert isinstance(state.return_value, Sym)
        assert state.return_value.name == "s.g"

    def test_pointer_alias_concrete(self):
        # *p aliases global g through a concrete address
        src = ('#include "rtt_annotations.h"\n'
               "int g; int h;\n"
               "int f(void){ __rtt_modifies(h); int *p = &g; *p = 7; return g; }")
        _unit, _fn, anns, cfg, layout, _coverage, tree = session(src, "f")
        trace = tree.select_trace(None)
        assert trace.complete
        state = interpret(trace, cfg, anns, layout)
        assert state.return_value == Const(7, INT)
        # the prohibited write through the dereference is caught
        from cunitgen.harness import build_test_case

        tc = build_test_case(0, trace, state, {}, cfg, layout, anns)
        assert tc.violations == [("g", [3])]

    def test_symbolic_index_case_split(self):
        """a[i]=5 then a[j]: case split agrees with a concrete array oracle."""
        src = "int a[4]; int r; int f(int i, int j){ a[i] = 5; r = a[j]; return r; }"
        state, cfg, layout, anns = first_complete_state(src, "f")
        ret = state.return_value
        assert isinstance(ret, Sym)  # fresh read symbol, constrained by cases
        base = con.conjoin(state)
        for iv, jv in itertools.product(range(4), repeat=2):
            c = con.Constraint(
                list(base.conjuncts) + [
                    mk_binop("==", Sym("i", INT), Const(iv, INT)),
                    mk_binop("==", Sym("j", INT), Const(jv, INT)),
                ])
            c.free = con.build_free_table(c.conjuncts, layout.regions)
            r = solve(c)
            assert r.status == "sat", (iv, jv)
            expected = 5 if iv == jv else r.model.values.get(f"a[{jv}]", 0)
            assert r.model.values[ret.name] == expected, (iv, jv)

    def test_write_through_pointer_then_read_of_global(self):
        """g = 1; *p = x; g: the read sees x exactly when p names g."""
        src = "int g; int h; int f(int *p, int x){ g = 1; h = 2; *p = x; h = 3; return g; }"
        state, cfg, layout, anns = first_complete_state(src, "f")
        ret = state.return_value
        assert isinstance(ret, Sym)  # the newest item, *p, may alias g
        base = con.conjoin(state)
        g_id = layout.regions.region_of("g").base_id
        own = layout.regions.pointer_inputs["p"].fresh_region.base_id
        p_base = Sym("p@baseAddress", UINT)
        for b, x in itertools.product((g_id, own), (9, -4)):
            c = con.Constraint(list(base.conjuncts) + [
                mk_binop("==", p_base, Const(b, UINT)),
                mk_binop("==", Sym("x", INT), Const(x, INT)),
            ])
            c.free = con.build_free_table(c.conjuncts, layout.regions)
            r = solve(c)
            assert r.status == "sat", (b, x)
            assert r.model.values[ret.name] == (x if b == g_id else 1), (b, x)

    def test_initial_snapshot_unaffected_by_writes(self):
        state, cfg, layout, anns = first_complete_state(
            read_data("alloc.c"), "alloc")
        snap = state.snapshots["allocp"]
        assert isinstance(snap, Ptr)
        assert isinstance(snap.base, Sym) and snap.base.name == "allocp@baseAddress"
        assert isinstance(snap.offset, Sym) and snap.offset.name == "allocp@offset"

    def test_interpret_deterministic(self):
        src = read_data("alloc.c")
        s1, *_ = first_complete_state(src, "alloc")
        s2, *_ = first_complete_state(src, "alloc")
        assert con.conjoin(s1).render() == con.conjoin(s2).render()
        assert len(s1.items) == len(s2.items)


class TestHistoryConditions:
    """Constant base and offset comparisons fold as mk_binop folds them."""

    TYPES = (SCHAR, UCHAR, SHORT, INT, UINT, LONG, ULONG, DOUBLE)
    VALUES = (0, 1, 7, -1, 255, 256, 300, 2**31 - 1, 2**31, 2**32 + 7, -2**63, 2.5)

    def test_constant_comparisons_match_mk_binop(self):
        for ta, tb in itertools.product(self.TYPES, repeat=2):
            for va, vb in itertools.product(self.VALUES, repeat=2):
                a, b = Const(va, ta), Const(vb, tb)
                want = mk_binop("==", a, b)
                assert base_eq_cond(a, b) == want, (a, b)
                item = MemoryItem(Const(1, UINT), a, 4, Const(0, INT))
                got = offsets_overlap_cond(item, Place(Const(1, UINT), b, 4, INT))
                assert got == want, (a, b)
                if want in (TRUE, FALSE):
                    assert got is want and base_eq_cond(a, b) is want


class TestDivisionAndShifts:
    def test_symbolic_divisor_side_condition(self):
        state, *_ = first_complete_state(
            "int f(int a, int b){ return a / b; }", "f")
        c = con.conjoin(state)
        assert "b != 0" in c.render()

    def test_concrete_zero_divisor_kills_path(self):
        state, _cfg, layout, _anns = first_complete_state(
            "int f(int a){ int z = 0; if (a > 0) { return a / z; } return 0; }", "f")
        # the division by a known zero makes the whole path unsatisfiable
        c = con.conjoin(state)
        assert solve(c).status == "unsat"


class TestStubInterception:
    def test_table2_stub_variables(self):
        state, *_ = first_complete_state(read_data("table2.c"), "test")
        calls = state.stub_calls
        assert [c.k for c in calls] == [0, 1]
        assert calls[0].ret.name == "func_ext@RETURN@0"
        assert calls[1].ret.name == "func_ext@RETURN@1"
        globals_written = {g for c in calls for g, _ in c.globals_written}
        assert "globalVar" in globals_written

    def test_void_callee_only_advances_counter(self):
        src = ("extern void tick(void);"
               "int f(void){ tick(); tick(); return 0; }")
        state, *_ = first_complete_state(src, "f")
        assert state.stub_counts == {"tick": 2}
        assert all(c.ret is None and not c.outs and not c.globals_written
                   for c in state.stub_calls)

    def test_pointer_out_param(self):
        src = ("extern void get(int *out);"
               "int f(void){ int v = 0; get(&v); if (v > 3) { return 1; } return 0; }")
        state, cfg, layout, anns = first_complete_state(src, "f")
        outs = [sym for c in state.stub_calls for _i, sym, _t in c.outs]
        assert [o.name for o in outs] == ["get@OUT0@0"]
        c = con.conjoin(state)
        r = solve(c)
        assert r.status == "sat"
        assert r.model.values["get@OUT0@0"] > 3

    def test_const_pointee_not_treated_as_output(self):
        src = ("extern int peek(const int *src);"
               "int f(int x){ return peek(&x); }")
        state, *_ = first_complete_state(src, "f")
        assert all(not c.outs for c in state.stub_calls)

    def test_do_not_stub_list(self):
        src = ("extern int func_ext(int a);"
               "int f(int x){ return func_ext(x); }")
        unit = parse_unit(src)
        fn = unit.function("f")
        anns = extract_annotations(fn)
        cfg = lower(unit, fn)
        config = Config(do_not_stub=["func_ext"])
        layout = Layout(unit, fn, cfg, anns, config)
        coverage = CoverageState(enumerate_coverage_targets(cfg))
        tree = Stct(cfg, coverage, 256)
        trace = tree.select_trace(None)
        with pytest.raises(StubPolicyError):
            interpret(trace, cfg, anns, layout)

    def test_annotated_prototype_constrains_stub(self):
        src = ('#include "rtt_annotations.h"\n'
               "int env_read(int which){ __rtt_postcondition(__rtt_return >= 0); }\n"
               "int f(int x){ if (env_read(x) > 10) { return 1; } return 0; }")
        state, cfg, layout, anns = first_complete_state(src, "f")
        c = con.conjoin(state)
        assert "env_read@RETURN@0 >= 0" in c.render()
