"""Pointer-comparison formula and constraint-assembly tests."""

import itertools
import os

import pytest

from conftest import DATA_DIR, UNION_POINTER, read_data
from oracles import ill_typed
from test_pipeline_extra import BRANCH_CHAIN
from test_procedures import SHAPES

import cunitgen.pipeline as pipeline
from cunitgen import constraints as con
from cunitgen.config import Config
from cunitgen.frontend import extract_annotations, parse_unit
from cunitgen.imr import lower
from cunitgen.memory import NULL_BASE
from cunitgen.solver import solve
from cunitgen.symexpr import (
    BinOp,
    Cast,
    Const,
    Ite,
    Ptr,
    Range,
    Sym,
    UnOp,
    evaluate,
    mk_binop,
    render_conjunction,
)
from cunitgen.typesys import BOOL, INT, LONG, SCHAR, UINT


def pinfo(base, offset, dim):
    return con.PtrInfo(base, offset, dim)


def sym_ptr(name: str, dim: int):
    return pinfo(Sym(f"{name}@baseAddress", UINT),
                 Sym(f"{name}@offset", UINT), dim)


class TestPointerCompare:
    def test_table1_exact_text(self):
        c = con.pointer_compare(sym_ptr("p1", 10), sym_ptr("p2", 10), "<")
        assert c.render() == (
            "p1@baseAddress == p2@baseAddress && p1@offset < p2@offset && "
            "0 <= p1@offset < 10 && 0 <= p2@offset < 10"
        )
        # the folded dimension conjunct is retained structurally
        assert len(c.conjuncts) == 5

    def test_reflexive_equality_satisfiable(self):
        p = sym_ptr("p", 4)
        c = con.pointer_compare(p, p, "==")
        c.free = con.build_free_table(c.conjuncts, _regions())
        assert solve(c).status == "sat"

    def test_distinct_declared_arrays_unsatisfiable(self):
        # two declared arrays have fixed, distinct base ids
        a = pinfo(Const(2147483648, UINT), Sym("x1", UINT), 4)
        b = pinfo(Const(2147483649, UINT), Sym("x2", UINT), 4)
        c = con.pointer_compare(a, b, "<")
        c.free = con.build_free_table(c.conjuncts, _regions())
        assert solve(c).status == "unsat"

    def test_unequal_dims_fold_false(self):
        # two known regions of different dimensions
        a = pinfo(Const(2147483648, UINT), Sym("x1", UINT), 4)
        b = pinfo(Const(2147483648, UINT), Sym("x2", UINT), 7)
        c = con.pointer_compare(a, b, "<")
        c.free = con.build_free_table(c.conjuncts, _regions())
        assert solve(c).status == "unsat"

    def test_symbolic_base_takes_the_target_dimension(self):
        # p's own fresh region has 10 elements, the scalar it is compared
        # with has 1; p == &g holds when p's base is g's
        g = pinfo(Const(2147483648, UINT), Const(0, UINT), 1)
        for omega in ("==", "<="):
            c = con.pointer_compare(sym_ptr("p", 10), g, omega)
            c.free = con.build_free_table(c.conjuncts, _regions())
            r = solve(c)
            assert r.status == "sat", omega
            assert r.model.values["p@baseAddress"] == 2147483648

    def test_inequality_across_regions_satisfiable(self):
        a = pinfo(Const(2147483648, UINT), Const(0, UINT), 4)
        b = pinfo(Const(2147483649, UINT), Const(0, UINT), 4)
        c = con.pointer_compare(a, b, "!=")
        c.free = con.build_free_table(c.conjuncts, _regions())
        assert solve(c).status == "sat"

    @pytest.mark.parametrize("omega", ["<", "<=", ">", ">=", "==", "!="])
    @pytest.mark.parametrize("dim1,dim2", [(1, 1), (2, 3), (4, 4), (3, 1)])
    def test_equisatisfiable_with_brute_force(self, omega, dim1, dim2):
        """Enumerate all base/offset assignments and compare verdicts."""
        p1 = sym_ptr("p1", dim1)
        p2 = sym_ptr("p2", dim2)
        c = con.pointer_compare(p1, p2, omega)
        c.free = {
            "p1@baseAddress": con.FreeSymbol(
                "p1@baseAddress", UINT,
                candidates=[101, 102, NULL_BASE],
                candidate_dims={101: dim1, 102: dim2, NULL_BASE: 0},
                paired_offset="p1@offset"),
            "p2@baseAddress": con.FreeSymbol(
                "p2@baseAddress", UINT,
                candidates=[102, 101, NULL_BASE],
                candidate_dims={101: dim1, 102: dim2, NULL_BASE: 0},
                paired_offset="p2@offset"),
            "p1@offset": con.FreeSymbol("p1@offset", UINT, dim=dim1),
            "p2@offset": con.FreeSymbol("p2@offset", UINT, dim=dim2),
        }
        brute_sat = False
        for b1, b2 in itertools.product([101, 102, NULL_BASE], repeat=2):
            off_range1 = [0] if b1 == NULL_BASE else range(4)
            off_range2 = [0] if b2 == NULL_BASE else range(4)
            for x1, x2 in itertools.product(off_range1, off_range2):
                env = {"p1@baseAddress": b1, "p2@baseAddress": b2,
                       "p1@offset": x1, "p2@offset": x2}
                if all(evaluate(cj, env) for cj in c.conjuncts):
                    brute_sat = True
                    break
            if brute_sat:
                break
        verdict = solve(c)
        assert verdict.status in ("sat", "unsat")
        assert (verdict.status == "sat") == brute_sat


class TestOnePastTheEnd:
    """A pointer formed by arithmetic or a constant may be compared one past
    the end of its array, offset dim, but not beyond."""

    ARR = Const(2147483648, UINT)  # a declared int arr[4]

    def _solve(self, p1, p2, omega):
        c = con.pointer_compare(p1, p2, omega)
        c.free = con.build_free_table(c.conjuncts, _regions())
        return solve(c)

    @pytest.mark.parametrize("omega", ["<", "<=", "==", "!="])
    def test_constant_offsets(self, omega):
        # p omega arr + 4 at p = arr + 3 and p = arr + 4
        expect = {"<": [True, False], "<=": [True, True],
                  "==": [False, True], "!=": [True, False]}[omega]
        end = pinfo(self.ARR, Const(4, UINT), 4)
        for k, want in zip((3, 4), expect):
            p = pinfo(self.ARR, Const(k, UINT), 4)
            assert (self._solve(p, end, omega).status == "sat") == want, (omega, k)
        # != is the negation of ==, so only the others refuse arr + 5
        start = pinfo(self.ARR, Const(0, UINT), 4)
        past = pinfo(self.ARR, Const(5, UINT), 4)
        refused = self._solve(start, past, omega).status == "unsat"
        assert refused == (omega != "!="), omega

    def test_compound_offset(self):
        i = Sym("i", UINT)
        p = pinfo(self.ARR, mk_binop("+", i, Const(1, UINT), UINT), 4)
        end = pinfo(self.ARR, Const(4, UINT), 4)
        r = self._solve(p, end, "==")
        assert r.status == "sat" and r.model.values["i"] == 3
        # arr + i + 1 == arr + 5 needs i + 1 == 5, past the end
        past = pinfo(self.ARR, Const(5, UINT), 4)
        assert self._solve(p, past, "==").status == "unsat"
        assert self._solve(p, past, "<").status == "unsat"

    def test_an_input_offset_keeps_its_domain(self):
        # an input pointer's offset symbol lies in [0, dim), as in Table 1
        p = pinfo(self.ARR, Sym("q@offset", UINT), 4)
        end = pinfo(self.ARR, Const(4, UINT), 4)
        assert self._solve(p, end, "==").status == "unsat"
        assert self._solve(p, end, "<").status == "sat"


_NODES = (Const, Sym, BinOp, UnOp, Cast, Ite, Range, Ptr)


def _terms(e):
    yield e
    for v in vars(e).values():
        if isinstance(v, _NODES):
            yield from _terms(v)


def walk_solver_calls(monkeypatch, tmp_path, check) -> int:
    """Generate each function of tests/data, of every SHAPES unit, of
    UNION_POINTER and of BRANCH_CHAIN, calling check(where, constraint) on
    each constraint that ``solve`` receives, where names the unit and the
    function. Returns the number of calls."""
    real_solve = pipeline.solve
    where = ""
    calls = 0

    def checking_solve(constraint, *args, **kwargs):
        nonlocal calls
        check(where, constraint)
        calls += 1
        return real_solve(constraint, *args, **kwargs)

    monkeypatch.setattr(pipeline, "solve", checking_solve)
    units = [(name, read_data(name)) for name in sorted(os.listdir(DATA_DIR))
             if name.endswith(".c")]
    units += [(name, text) for shape in SHAPES.values() for name, text, _ in shape]
    units.append(("union_pointer.c", UNION_POINTER))
    units.append(("chain.c", BRANCH_CHAIN))
    for name, text in units:
        unit = parse_unit(text, name)
        for fn in unit.functions:
            if fn.body is not None and not fn.annotation_only:
                where = f"{name}: {fn.name}"
                pipeline.generate_function(unit, fn, Config(out_dir=str(tmp_path)))
    return calls


def test_no_pointer_term_reaches_the_solver(monkeypatch, tmp_path):
    """Symex splits every pointer relation into base and offset terms."""
    def check(where, constraint):
        assert not any(isinstance(t, Ptr) for c in constraint.conjuncts
                       for t in _terms(c)), where

    assert walk_solver_calls(monkeypatch, tmp_path, check)


def test_every_conjunct_is_well_typed(monkeypatch, tmp_path):
    """Symex converts each operand to the type C gives it, so every node
    keeps the typing rule of symexpr."""
    def check(where, constraint):
        for c in constraint.conjuncts:
            assert ill_typed(c) == [], f"{where}: {c}"

    assert walk_solver_calls(monkeypatch, tmp_path, check)


class TestTypingRule:
    X, Y = Sym("x", INT), Sym("y", INT)
    LESS = BinOp("<", X, Y, BOOL)

    def test_a_truth_value_used_as_an_int_is_ill_typed(self):
        bad = BinOp("==", self.LESS, Const(1, INT), BOOL)
        assert ill_typed(bad) == [bad]
        as_int = Ite(self.LESS, Const(1, INT), Const(0, INT), INT)
        assert ill_typed(BinOp("==", as_int, Const(1, INT), BOOL)) == []

    def test_operands_and_arms_take_the_node_type(self):
        s = Sym("s", LONG)
        shift = BinOp("<<", self.X, s, INT)
        assert ill_typed(BinOp(">", shift, Const(5, INT), BOOL)) == [shift]
        arm = Cast(self.Y, SCHAR)
        ite = Ite(self.LESS, arm, Const(300, INT), INT)
        assert ill_typed(BinOp(">", ite, Const(5, INT), BOOL)) == [ite]
        mixed = BinOp("<", self.X, s, BOOL)
        assert ill_typed(mixed) == [mixed]

    def test_a_conjunct_is_a_truth_value(self):
        assert ill_typed(self.X) == [self.X]
        assert ill_typed(UnOp("!", self.X, BOOL))  # ! of an int


def _regions():
    from cunitgen.memory import RegionTable

    return RegionTable(10)


class TestConjoin:
    def _state(self, name: str, file_name: str, trace_edges: int = 1):
        from cunitgen.stct import CoverageState, Stct
        from cunitgen.symex import Layout, interpret
        from cunitgen.imr import enumerate_coverage_targets

        unit = parse_unit(read_data(file_name), file_name)
        fn = unit.function(name)
        anns = extract_annotations(fn)
        cfg = lower(unit, fn)
        layout = Layout(unit, fn, cfg, anns, Config())
        coverage = CoverageState(enumerate_coverage_targets(cfg))
        tree = Stct(cfg, coverage, 256)
        trace = tree.select_trace(None)
        states = []
        while trace is not None and len(states) < trace_edges:
            state = interpret(trace, cfg, anns, layout)
            states.append((trace, state))
            if state.infeasible_branch is not None:
                break
            coverage.mark_pending(trace)
            if trace.complete:
                break
            trace = tree.select_trace(trace)
        return states

    def test_monotonic_prefixes(self):
        states = self._state("test", "table2.c", trace_edges=3)
        rendered = [con.conjoin(s).render() for _t, s in states]
        for shorter, longer in zip(rendered, rendered[1:]):
            assert longer.startswith(shorter)

    def test_empty_trace_constraint_trivial(self):
        states = self._state("select_demo", "fig3.c", trace_edges=1)
        _trace, state = states[0]
        c = con.conjoin(state)
        assert solve(c).status == "sat"

    def test_bounds_present_for_every_offset(self):
        states = self._state("test", "table1.c", trace_edges=1)
        _trace, state = states[0]
        c = con.conjoin(state)
        from cunitgen.symexpr import Range, free_symbols, BinOp

        offsets = {s.name for cj in c.conjuncts for s in free_symbols(cj)
                   if c.free[s.name].dim is not None}

        def ranges(e):
            if isinstance(e, Range):
                yield e
            for attr in ("lhs", "rhs", "operand", "cond", "then", "other"):
                child = getattr(e, attr, None)
                if child is not None and hasattr(child, "ctype"):
                    yield from ranges(child)

        bounded = set()
        for cj in c.conjuncts:
            for r in ranges(cj):
                for s in free_symbols(r.expr):
                    bounded.add(s.name)
        assert offsets <= bounded

    def test_table2_constraint_text(self):
        states = self._state("test", "table2.c", trace_edges=3)
        _trace, state = states[-1]
        c = con.conjoin(state)
        assert c.render() == (
            "func_ext@RETURN@0 > p2 && func_ext@RETURN@1 == p1 && "
            "globalVar@func_ext@1 == p2"
        )
