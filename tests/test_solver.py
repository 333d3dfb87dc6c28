"""Built-in solver tests: verdicts, models, determinism, budgets."""

import hashlib
import itertools
import json
import math
import random
import time

import pytest
from bruteforce import grid_for, oracle_sat
from conftest import read_data
from hypothesis import given, settings
from hypothesis import strategies as st
from property_checks import make_constraint
from test_constraints import walk_solver_calls

import cunitgen.pipeline as pipeline
import cunitgen.solver as solver_mod
from cunitgen.config import Config
from cunitgen.constraints import Constraint, FreeSymbol
from cunitgen.frontend.parser import parse_unit
from cunitgen.solver import Model, solve, verify_model
from cunitgen.symexpr import (
    Const,
    Range,
    Role,
    Sym,
    free_symbols,
    mk_binop,
    mk_cast,
    mk_range,
)
from cunitgen.typesys import DOUBLE, FLOAT, INT, SCHAR, SHORT, UCHAR, UINT, round_float

INT_MAX = 2**31 - 1


def make(conjuncts, free=None):
    c = Constraint(list(conjuncts))
    if free is None:
        free = {}
        for cj in conjuncts:
            for s in free_symbols(cj):
                free.setdefault(s.name, FreeSymbol(s.name, s.ctype, s.role))
    c.free = free
    return c


def tritype_scalene():
    """Tritype's scalene path: i, j, k >= 0, triangle inequalities, distinct."""
    i, j, k = (Sym(n, INT) for n in "ijk")
    conj = [mk_binop(">=", v, Const(0, INT)) for v in (i, j, k)]
    for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
        conj.append(mk_binop(">", mk_binop("+", x, y, INT), z))
    conj += [mk_binop("!=", i, j), mk_binop("!=", i, k), mk_binop("!=", j, k)]
    return make(conj)


def ptr_free(name: str, candidates, dims, paired: str):
    return FreeSymbol(f"{name}@baseAddress", UINT, Role.PTR_BASE,
                      candidates=list(candidates),
                      candidate_dims=dict(dims), paired_offset=f"{name}@offset")


def off_free(name: str, dim: int):
    return FreeSymbol(f"{name}@offset", UINT, Role.PTR_OFFSET, dim=dim)


class TestVerdicts:
    def test_table1_shape_sat(self):
        a1 = Sym("p1@baseAddress", UINT, Role.PTR_BASE)
        a2 = Sym("p2@baseAddress", UINT, Role.PTR_BASE)
        x1 = Sym("p1@offset", UINT, Role.PTR_OFFSET)
        x2 = Sym("p2@offset", UINT, Role.PTR_OFFSET)
        c = make(
            [mk_binop("==", a1, a2), mk_binop("<", x1, x2),
             mk_range(x1, 0, 10), mk_range(x2, 0, 10)],
            {
                "p1@baseAddress": ptr_free("p1", [2147483648, 2147483649, 0],
                                           {2147483648: 10, 2147483649: 10, 0: 0}, "p1"),
                "p2@baseAddress": ptr_free("p2", [2147483649, 2147483648, 0],
                                           {2147483648: 10, 2147483649: 10, 0: 0}, "p2"),
                "p1@offset": off_free("p1", 10),
                "p2@offset": off_free("p2", 10),
            },
        )
        r = solve(c)
        assert r.status == "sat"
        m = r.model.values
        assert m["p1@baseAddress"] == m["p2@baseAddress"]
        assert 0 <= m["p1@offset"] < m["p2@offset"] < 10

    def test_contradiction_unsat(self):
        x = Sym("x", INT)
        r = solve(make([mk_binop(">", x, Const(0, INT)),
                        mk_binop("<", x, Const(0, INT))]))
        assert r.status == "unsat"

    def test_wraparound_sat(self):
        x = Sym("x", INT)
        xp = mk_binop("+", x, Const(1, INT), INT)
        r = solve(make([mk_binop(">", x, Const(0, INT)),
                        mk_binop("<", xp, Const(0, INT))]))
        assert r.status == "sat"
        assert r.model.values["x"] == 2**31 - 1

    def test_triangle_prefix_sat(self):
        i, j, k = (Sym(n, INT) for n in "ijk")
        conj = []
        for v in (i, j, k):
            conj.append(mk_binop(">=", v, Const(0, INT)))
        conj.append(mk_binop(">", mk_binop("+", i, j, INT), k))
        conj.append(mk_binop(">", mk_binop("+", j, k, INT), i))
        conj.append(mk_binop(">", mk_binop("+", k, i, INT), j))
        r = solve(make(conj))
        assert r.status == "sat"

    def test_difference_cycle_unsat(self):
        x, y = Sym("x", INT), Sym("y", INT)
        r = solve(make([mk_binop(">", x, y), mk_binop(">", y, x)]))
        assert r.status == "unsat"

    def test_empty_constraint_sat(self):
        r = solve(make([]))
        assert r.status == "sat"

    def test_table2_shape_sat(self):
        r0 = Sym("func_ext@RETURN@0", INT, Role.STUB_RETURN)
        r1 = Sym("func_ext@RETURN@1", INT, Role.STUB_RETURN)
        g1 = Sym("globalVar@func_ext@1", INT, Role.STUB_GLOBAL)
        p1, p2 = Sym("p1", INT), Sym("p2", INT)
        c = make([
            mk_binop(">", r0, p2),
            mk_binop("==", r1, p1),
            mk_binop("==", g1, p2),
        ])
        r = solve(c)
        assert r.status == "sat"
        assert verify_model(c, r.model)

    def test_disequality_chain(self):
        x = Sym("x", SCHAR)
        conj = [mk_binop(">=", x, Const(0, SCHAR)),
                mk_binop("<=", x, Const(1, SCHAR)),
                mk_binop("!=", x, Const(0, SCHAR)),
                mk_binop("!=", x, Const(1, SCHAR))]
        r = solve(make(conj))
        assert r.status == "unsat"

    def test_budget_gives_unknown(self):
        # nonlinear equation the search cannot finish in two nodes
        x, y = Sym("x", INT), Sym("y", INT)
        prod = mk_binop("*", x, y, INT)
        c = make([mk_binop("==", prod, Const(1 << 30, INT)),
                  mk_binop(">", x, Const(3, INT)),
                  mk_binop(">", y, Const(3, INT))])
        r = solve(c, max_nodes=2)
        assert r.status == "unknown"
        assert r.reason


class TestClockIndependence:
    def test_verdicts_ignore_the_clock(self, monkeypatch):
        """A clock that jumps an hour per reading changes no answer."""
        rng = random.Random(2718)
        work = [(tritype_scalene(), 10000)] + [
            (make_constraint(rng, (SCHAR, UCHAR, SHORT, INT)[i % 4],
                             n_syms=rng.randint(1, 3)), 250)
            for i in range(200)]

        def answers():
            out = []
            for c, max_nodes in work:
                r = solve(c, max_nodes=max_nodes)
                out.append((r.status, r.nodes, r.model.values if r.model else None))
            return out

        steady = answers()
        hours = itertools.count()
        monkeypatch.setattr(time, "monotonic", lambda: 3600.0 * next(hours))
        assert answers() == steady
        assert steady[0][0] == "sat"


class TestWrapWindows:
    """Linear constraints whose sums may wrap are decided, not bisected."""

    def test_tritype_scalene_sat(self):
        c = tritype_scalene()
        r = solve(c)
        assert r.status == "sat"
        assert verify_model(c, r.model)

    def test_wrap_only_chain_sat(self):
        # a + 17 <= b && b + 16 <= a holds only if one of the sums wraps;
        # the other conjuncts are the benchmark's chain_hard prefix
        v = {n: Sym(n, INT) for n in ("a", "b", "c", "d", "e", "f")}

        def le(x, k, y):
            return mk_binop("<=", mk_binop("+", v[x], Const(k, INT), INT), v[y])

        for conj in ([le("a", 17, "b"), le("b", 16, "a")],
                     [le("f", 3, "a"), le("a", 17, "b"), le("e", 19, "c"),
                      le("c", 10, "b"), le("f", 6, "b"), le("a", -2, "d"),
                      le("b", 16, "a"), le("c", 3, "d")]):
            c = make(conj)
            r = solve(c)
            assert r.status == "sat"
            m = r.model.values
            assert m["a"] > INT_MAX - 17 or m["b"] > INT_MAX - 16

    def test_forced_equality_refutes_disequality(self):
        x, y = Sym("x", INT), Sym("y", INT)
        one = Const(1, INT)
        x_ge_y = mk_binop(">", mk_binop("+", x, one, INT), y)
        y_ge_x = mk_binop(">", mk_binop("+", y, one, INT), x)
        r = solve(make([x_ge_y, y_ge_x, mk_binop("!=", x, y)]))
        assert r.status == "unsat"
        # one bound alone leaves x > y open
        r = solve(make([x_ge_y, mk_binop("!=", x, y)]))
        assert r.status == "sat"

    def test_near_limit_offsets_agree_with_enumeration(self):
        # x + c op y over signed char with c near the limits touches the
        # windows below, at and above the type range
        rng = random.Random(2718)
        x, y = Sym("x", SCHAR), Sym("y", SCHAR)
        offsets = [-128, -127, -126, -120, -1, 0, 1, 120, 126, 127]
        grids = grid_for(["x", "y"], SCHAR)
        decided = 0
        for _ in range(300):
            conj = []
            for _ in range(rng.randint(2, 4)):
                a, b = rng.sample([x, y], 2)
                side = mk_binop("+", a, Const(rng.choice(offsets), SCHAR), SCHAR)
                conj.append(mk_binop(rng.choice(["<", "<=", ">", ">=", "==", "!="]),
                                     side, b))
            c = make(conj)
            r = solve(c)
            if r.status == "unknown":
                continue
            decided += 1
            assert (r.status == "sat") == oracle_sat(c.conjuncts, grids), [str(e) for e in conj]
        assert decided == 300


class TestModels:
    def test_pointer_offset_respects_region_dim(self):
        a = Sym("p@baseAddress", UINT, Role.PTR_BASE)
        x = Sym("p@offset", UINT, Role.PTR_OFFSET)
        free = {
            "p@baseAddress": ptr_free("p", [7, 0], {7: 3, 0: 0}, "p"),
            "p@offset": off_free("p", 10),
        }
        c = make([mk_binop("==", a, Const(7, UINT)),
                  mk_binop(">=", x, Const(0, UINT))], free)
        r = solve(c)
        assert r.status == "sat"
        assert 0 <= r.model.values["p@offset"] < 3

    def test_null_base_forces_zero_offset(self):
        a = Sym("p@baseAddress", UINT, Role.PTR_BASE)
        free = {
            "p@baseAddress": ptr_free("p", [8, 0], {8: 4, 0: 0}, "p"),
            "p@offset": off_free("p", 4),
        }
        c = make([mk_binop("==", a, Const(0, UINT))], free)
        r = solve(c)
        assert r.status == "sat"
        assert r.model.values.get("p@offset", 0) == 0

    def test_unconstrained_defaults_are_deterministic(self):
        x, y = Sym("x", INT), Sym("y", INT)
        c = make([mk_binop("==", x, x), mk_binop("==", y, y)])
        r1, r2 = solve(c), solve(c)
        assert r1.model.values == r2.model.values


class TestFloats:
    def test_float_equalities_from_literals(self):
        f = Sym("f", DOUBLE)
        c = make([mk_binop("==", f, Const(2.5, DOUBLE))])
        r = solve(c)
        assert r.status == "sat"
        assert r.model.values["f"] == 2.5

    def test_float_ordering_with_seeds(self):
        f, g = Sym("f", DOUBLE), Sym("g", DOUBLE)
        c = make([mk_binop("<", f, g)])
        r = solve(c)
        assert r.status == "sat"
        assert r.model.values["f"] < r.model.values["g"]

    def test_unknown_when_seeds_fail(self):
        f = Sym("f", DOUBLE)
        # seeds contain 3.25 +- 1 but not 3.25 / 2
        double = mk_binop("+", f, f, DOUBLE)
        c = make([mk_binop("==", double, Const(3.25, DOUBLE))])
        r = solve(c)
        assert r.status in ("sat", "unknown")
        if r.status == "unknown":
            assert "seed" in r.reason

    def test_mixed_comparison_decided_once_its_symbols_are(self):
        # (double)n > f is evaluated as soon as n and f are decided, so each
        # n the search tries is refuted at once instead of after searching b
        n, f, b = Sym("n", INT), Sym("f", DOUBLE), Sym("b", INT)
        c = make([mk_binop(">", mk_cast(n, DOUBLE), f),
                  mk_binop(">", f, Const(2.5, DOUBLE)),
                  mk_binop("<", n, Const(7, INT)), mk_binop("!=", b, Const(0, INT))])
        r = solve(c)
        assert r.status == "sat" and r.nodes < 20
        assert r.model.values["n"] == 6 and r.model.values["f"] == 3.5

    def test_int_cast_does_not_narrow_the_seeds(self):
        # (int)f == 0 holds for f = -0.5, which integer bounds on f would drop
        f = Sym("f", DOUBLE)
        c = make([mk_binop("==", mk_cast(f, INT), Const(0, INT)),
                  mk_binop("<", f, Const(0.0, DOUBLE))])
        r = solve(c)
        assert r.status == "sat" and r.model.values["f"] == -0.5

    def test_float_symbol_takes_only_values_of_its_type(self):
        # 36.6 is no float, and 36.6f is below it: the answer is 37.6f, and
        # a hint of 36.6 or of an infinity is no answer
        t = Sym("t", FLOAT)
        c = make([mk_binop(">=", mk_cast(t, DOUBLE), Const(36.6, DOUBLE))])
        r = solve(c)
        assert r.status == "sat" and r.model.values["t"] == round_float(37.6, FLOAT)
        for v in (36.6, math.inf):
            assert solver_mod.hinted_model(c, Model({"t": v})) is None
        assert solver_mod.hinted_model(c, r.model) is not None

    def test_triangle_floats(self):
        i, j, k = (Sym(n, DOUBLE) for n in "ijk")
        conj = [mk_binop(">=", v, Const(0.0, DOUBLE)) for v in (i, j, k)]
        conj.append(mk_binop(">", mk_binop("+", i, j, DOUBLE), k))
        conj.append(mk_binop(">", mk_binop("+", j, k, DOUBLE), i))
        conj.append(mk_binop(">", mk_binop("+", k, i, DOUBLE), j))
        conj.append(mk_binop("==", i, j))
        r = solve(c := make(conj))
        assert r.status == "sat"
        assert verify_model(c, r.model)


SEEDS_OUT = ("unknown", None)
REASONS = {"sat": "", "unknown": "float seed set exhausted without a verified model"}

# Each float function's solver calls in order as (status, model), and the
# total search nodes of all calls, as the solver gave them when it reran the
# integer search once per float seed combination.
FLOAT_FUNCTIONS = {
    "fl2": ("""int fl2(double d)
{
    if (d > 0.1 && d < 0.2)
        return 1;
    return 0;
}
""", [("sat", {"d": 1.0}), SEEDS_OUT, ("sat", {"d": 1.0}), ("sat", {"d": 0.0})], 28),
    "fl": ("""int fl(float x)
{
    if (x * x > 2.0f && x < 1.5f)
        return 1;
    return 0;
}
""", [("sat", {"x": 2.0}), SEEDS_OUT, ("sat", {"x": 2.0}), ("sat", {"x": 0.0})], 32),
    "flu": ("""int flu(float x)
{
    if (x > 3.0f && x < 2.0f)
        return 1;
    return 0;
}
""", [("sat", {"x": 4.0}), SEEDS_OUT, ("sat", {"x": 4.0}), ("sat", {"x": 0.0})], 32),
    "feq": ("""int feq(float a, float b)
{
    if (a == b) {
        if (a > 0.5f)
            return 1;
        return 2;
    } else if (a < b) {
        return 3;
    }
    return 0;
}
""", [("sat", {"a": 0.0, "b": 0.0}), ("sat", {"a": 1.0, "b": 1.0}),
      ("sat", {"a": 0.0, "b": 1.0}), ("sat", {"a": 0.0, "b": 1.0}),
      ("sat", {"a": 0.0, "b": 0.0}), ("sat", {"a": 0.0, "b": -1.0})], 18),
    "fg": ("""double g;

int fg(double x)
{
    if (x == g) {
        if (g > 1.0)
            return 1;
        return 2;
    }
    return 0;
}
""", [("sat", {"g": 0.0, "x": 0.0}), ("sat", {"g": 2.0, "x": 2.0}),
      ("sat", {"g": 1.0, "x": 0.0}), ("sat", {"g": 0.0, "x": 0.0})], 20),
    "Tritype": (read_data("tritype_float.c"), [
        ("sat", {"i": -1.0}), ("sat", {"i": 0.0}), ("sat", {"i": 0.0, "j": -1.0}),
        ("sat", {"i": 0.0, "j": 0.0}), ("sat", {"i": 0.0, "j": 0.0, "k": -1.0}),
        ("sat", {"i": 0.0, "j": 0.0, "k": 0.0}), ("sat", {"i": 0.0, "j": 0.0, "k": 0.0}),
        ("sat", {"i": 0.0, "j": 1.0, "k": 0.0}), ("sat", {"i": 1.0, "j": 0.0, "k": 0.0}),
        ("sat", {"i": 0.0, "j": 1.0, "k": 0.0}), ("sat", {"i": 0.0, "j": 1.0, "k": 0.0}),
        *[("sat", {"i": 1.0, "j": 1.0, "k": 1.0})] * 5,
        ("sat", {"i": 1.0, "j": 0.5, "k": 1.0}), ("sat", {"i": 0.5, "j": 1.0, "k": 1.0}),
        SEEDS_OUT,
        ("sat", {"i": 0.5, "j": 1.0, "k": 1.0}),
        SEEDS_OUT,
        ("sat", {"i": 1.0, "j": 1.0, "k": 0.5}), ("sat", {"i": 1.0, "j": 1.0, "k": 0.5})], 680),
}


def _model_text(values):
    """Values by repr, so 1 != 1.0 and -0.0 != 0.0."""
    return None if values is None else {n: repr(v) for n, v in values.items()}


class TestFloatFunctionsPinned:
    """Every solver call of the float functions keeps its answer, and no
    function searches more nodes than when each seed combination had a
    search of its own."""

    @pytest.mark.parametrize("name", sorted(FLOAT_FUNCTIONS))
    def test_answers_unchanged(self, name, tmp_path, monkeypatch):
        source, expected, nodes_before = FLOAT_FUNCTIONS[name]
        calls = []
        original = pipeline.solve

        def solve_logged(*args, **kwargs):
            r = original(*args, **kwargs)
            calls.append(r)
            return r

        monkeypatch.setattr(pipeline, "solve", solve_logged)
        unit = parse_unit(source, f"{name}.c")
        config = Config(out_dir=str(tmp_path), quiet=True)
        assert pipeline.generate_function(unit, unit.function(name), config).status == "ok"
        answers = [(r.status, r.reason, _model_text(r.model and r.model.values))
                   for r in calls]
        assert answers == [(status, REASONS[status], _model_text(model))
                           for status, model in expected]
        assert sum(r.nodes for r in calls) <= nodes_before


CHAIN_K12 = """int chain_k12(int a0, int a1, int a2, int a3, int a4, int a5, int a6, int a7)
{
    int r = 0;
    if (a6 + 6 > a0) { r = r + 1; }
    if (a7 + -2 > a3) { r = r + 1; }
    if (a4 + 16 > a3) { r = r + 1; }
    if (a1 + 13 > a2) { r = r + 1; }
    if (a1 + -19 > a4) { r = r + 1; }
    if (a7 + -8 > a5) { r = r + 1; }
    if (a1 + 13 > a2) { r = r + 1; }
    if (a7 + -8 > a5) { r = r + 1; }
    if (a7 + -2 > a3) { r = r + 1; }
    if (a6 + 0 > a3) { r = r + 1; }
    if (a3 + 0 > a6) { r = r + 1; }
    if (a4 + 16 > a3) { r = r + 1; }
    return r;
}
"""

# Per unit: the number of solver calls of all its functions, a digest of
# every call's status, reason and model, and the search nodes the calls took
# when a search returned a model only at a leaf, as the solver gave them
# before it returned the box's corner as soon as it verified. The digests
# leave the node counts out; the nodes are an upper bound.
PINNED_UNITS = {
    "alloc.c": (2, "d9be32f03f0e86e642e873d06a96a3a60b896ab675ac2d4b025e6ed38b685bf1", 6),
    "alloc_mutated.c": (2, "d9be32f03f0e86e642e873d06a96a3a60b896ab675ac2d4b025e6ed38b685bf1", 6),
    "alloc_ptr.c": (6, "86df499e943c639149d28806d795525714d6437f44194209c1d1ce8c617a0c62", 17),
    "chain_k12": (26, "1c895a5b266f87d09d7e37702a34379223cd97f2144345b8b4be4cae859c3621", 78),
    "comp_ptr.c": (6, "c9f903b56ed5da6fb321b56a51072bf34961ef2699b7ab10297ba64f284fab6a", 16),
    "contradiction.c": (5, "d86c68122014ad14d0c8237e249d7ac54aea69ff7901b21700f2b97be3a3e957", 6),
    "deref_param.c": (6, "31c1ba98c1184f1d9fab3e90a9a6ada358a738cfb9ac24cb376fce25feccd14d", 48),
    "fig3.c": (6, "cd0b7698e20e57ac5ff8fcb794e9104775b909dcfdb1a2a15244387af3a47970", 8),
    "struct_input.c": (6, "fcb12aebb85ef43bbc3936c43a1196f545fe328969dfcddf7c954b1536e9e595", 17),
    "table1.c": (2, "fc19d870f047fc0be8aa267887366b6f657e75bfc1c65e3e4cee96a552e9013b", 7),
    "table2.c": (6, "88a13a9677b9fe958289834b8dbb3beb505336e51b3436e07a615dd155a382d4", 19),
    "tritype_int.c": (20, "d531fd192dbbedaf83fe5bd48b56853e2d57fba1675234fdb20c627dcde9e35d", 56),
}


def pipeline_answers(name, out_dir, monkeypatch, check=None):
    """Each pipeline solver call of the unit's functions, in order, as
    (status, reason, nodes, digest of the model's values). ``check`` is
    called with each call's positional arguments."""
    source = CHAIN_K12 if name == "chain_k12" else read_data(name)
    answers = []
    original = pipeline.solve

    def solve_logged(*args, **kwargs):
        r = original(*args, **kwargs)
        if check is not None:
            check(args)
        model = None if r.model is None else [[n, repr(v)] for n, v in r.model.values.items()]
        digest = hashlib.sha256(json.dumps(model).encode()).hexdigest()
        answers.append([r.status, r.reason, r.nodes, digest])
        return r

    monkeypatch.setattr(pipeline, "solve", solve_logged)
    unit = parse_unit(source, name)
    config = Config(out_dir=str(out_dir), quiet=True)
    for fn in unit.functions:
        if fn.body is not None and not fn.annotation_only:
            pipeline.generate_function(unit, fn, config)
    return answers


class TestIntegerFunctionsPinned:
    """Every pipeline solver call on the integer and pointer units keeps its
    status, reason and model, and no unit searches more nodes than when a
    search returned a model only at a leaf."""

    @pytest.mark.parametrize("name", sorted(PINNED_UNITS))
    def test_answers_unchanged(self, name, tmp_path, monkeypatch):
        answers = pipeline_answers(name, tmp_path, monkeypatch)
        calls, digest, nodes_before = PINNED_UNITS[name]
        kept = [[status, reason, model] for status, reason, _nodes, model in answers]
        assert len(answers) == calls
        assert hashlib.sha256(json.dumps(kept).encode()).hexdigest() == digest
        assert sum(a[2] for a in answers) <= nodes_before


class FullDescent(solver_mod._Solver):
    """The reference search: a model is accepted only at a leaf, so every
    answer is the first leaf of a full depth-first descent."""

    def _corner(self, env):
        return super()._corner(env) if self._pick(env) is None else None


def _search_answers(constraint, max_nodes):
    """The corner search's and the full descent's results on one constraint."""
    return (solver_mod._Solver(constraint, max_nodes).run(),
            FullDescent(constraint, max_nodes).run())


def _same_answer(corner, full):
    return (corner.status, corner.reason, corner.model and corner.model.values) \
        == (full.status, full.reason, full.model and full.model.values)


class TestCornerMatchesFullDescent:
    """Returning the box's corner once it verifies gives the answer and model
    of the full descent, in no more nodes."""

    def test_random_stream(self):
        rng = random.Random(190237)
        fewer = 0
        for i in range(300):
            c = make_constraint(rng, (SCHAR, UCHAR, SHORT, INT)[i % 4],
                                n_syms=rng.randint(1, 3))
            corner, full = _search_answers(c, 250)
            assert _same_answer(corner, full)
            assert corner.nodes <= full.nodes
            fewer += corner.nodes < full.nodes
        assert fewer

    def test_corner_offset_outside_its_region_is_not_returned(self):
        # the root's corner, base 7 and offset 2, verifies, but region 7
        # has one element: the descent prunes that offset once the base is
        # decided, and answers with base 8
        a = Sym("p@baseAddress", UINT, Role.PTR_BASE)
        x = Sym("p@offset", UINT, Role.PTR_OFFSET)
        free = {
            "p@baseAddress": ptr_free("p", [7, 8, 0], {7: 1, 8: 4, 0: 0}, "p"),
            "p@offset": off_free("p", 4),
        }
        c = make([mk_binop("!=", a, Const(0, UINT)),
                  mk_binop(">=", x, Const(2, UINT))], free)
        corner, full = _search_answers(c, 100)
        assert _same_answer(corner, full)
        assert corner.model.values == {"p@baseAddress": 8, "p@offset": 2}

    @pytest.mark.parametrize("name", sorted(PINNED_UNITS))
    def test_pipeline_calls(self, name, tmp_path, monkeypatch):
        searched = []

        def check(args):
            corner, full = _search_answers(args[0], args[1])
            assert _same_answer(corner, full)
            assert corner.nodes <= full.nodes
            searched.append(full.nodes)

        pipeline_answers(name, tmp_path, monkeypatch, check)
        assert searched


class TestDeterminism:
    def test_same_constraint_same_model(self):
        x1 = Sym("p1@offset", UINT, Role.PTR_OFFSET)
        x2 = Sym("p2@offset", UINT, Role.PTR_OFFSET)
        c1 = make([mk_binop("<", x1, x2), mk_range(x1, 0, 10), mk_range(x2, 0, 10)])
        a = solve(c1)
        b = solve(c1)
        assert a.status == b.status
        assert a.model.values == b.model.values


class TestHint:
    """A hint is the answer only if it lies in the search's domains and verifies."""

    def chain(self):
        x, y = Sym("x", INT), Sym("y", INT)
        return make([mk_binop(">", x, Const(5, INT)), mk_binop("<", y, x)])

    def test_verified_hint_needs_no_search(self):
        c = self.chain()
        r = solve(c, hint=Model({"z": 1, "y": 3, "x": 9}))
        assert r.status == "sat" and r.nodes == 0
        assert list(r.model.values) == list(c.free) == ["x", "y"]
        assert r.model.values == {"x": 9, "y": 3}

    def test_hint_that_fails_verification_is_searched(self):
        c = self.chain()
        r = solve(c, hint=Model({"x": 0, "y": -1}))
        assert r.status == "sat" and r.nodes > 0
        assert r.model.values["x"] > 5
        assert r.model.values == solve(c).model.values

    def test_hint_missing_a_symbol_is_searched(self):
        r = solve(self.chain(), hint=Model({"x": 9}))
        assert r.status == "sat" and r.nodes > 0

    def test_hint_outside_the_domains_is_searched(self):
        a = Sym("p@baseAddress", UINT, Role.PTR_BASE)
        x = Sym("p@offset", UINT, Role.PTR_OFFSET)
        free = {
            "p@baseAddress": ptr_free("p", [7, 0], {7: 3, 0: 0}, "p"),
            "p@offset": off_free("p", 4),
        }
        c = make([mk_binop("!=", a, Const(0, UINT)),
                  mk_binop("<", x, Const(100, UINT))], free)
        inside = {"p@baseAddress": 7, "p@offset": 2}
        assert solve(c, hint=Model(inside)).nodes == 0
        # each of these verifies, but no search could have produced it: a
        # base naming no candidate, an offset outside its start domain, and
        # one inside it but beyond region 7's three elements
        for wrong in ({"p@baseAddress": 5}, {"p@offset": 50}, {"p@offset": 3}):
            hint = Model({**inside, **wrong})
            assert verify_model(c, hint)
            r = solve(c, hint=hint)
            assert r.status == "sat" and r.nodes > 0
            assert r.model.values["p@baseAddress"] == 7
            assert r.model.values["p@offset"] < 4

    def test_known_part_is_not_checked_again(self, monkeypatch):
        c = self.chain()
        evaluated = []
        real = solver_mod.evaluate
        monkeypatch.setattr(solver_mod, "evaluate",
                            lambda e, env: evaluated.append(e) or real(e, env))
        head = make(c.conjuncts[:1])
        r = solve(c, hint=Model({"x": 9, "y": 3}), hint_holds=head)
        assert r.status == "sat" and r.nodes == 0
        assert r.model.values == {"x": 9, "y": 3}
        assert evaluated == [c.conjuncts[1]]

    def test_offset_added_later_is_held_to_its_base(self):
        # the base passed alone; its offset, mentioned only later, lies in
        # its own start domain but beyond the one element of region 8
        a = Sym("p@baseAddress", UINT, Role.PTR_BASE)
        x = Sym("p@offset", UINT, Role.PTR_OFFSET)
        free = {
            "p@baseAddress": ptr_free("p", [7, 8, 0], {7: 4, 8: 1, 0: 0}, "p"),
            "p@offset": off_free("p", 4),
        }
        head = make([mk_binop("!=", a, Const(0, UINT))],
                    {"p@baseAddress": free["p@baseAddress"]})
        c = make(head.conjuncts + [mk_binop("<", x, Const(100, UINT))], free)
        hint = Model({"p@baseAddress": 8, "p@offset": 2})
        assert solver_mod.hinted_model(head, hint) is not None
        assert solver_mod.hinted_model(c, hint) is None
        assert solver_mod.hinted_model(c, hint, holds=head) is None
        assert solve(c, hint=hint, hint_holds=head).nodes > 0

    def test_hint_value_outside_the_type_is_searched(self):
        x = Sym("x", SCHAR)
        c = make([mk_binop(">", x, Const(5, SCHAR))])
        assert solve(c, hint=Model({"x": 300})).nodes > 0
        assert solve(c, hint=Model({"x": 6.0})).nodes > 0


class TestPropagationCost:
    """Propagation revisits a conjunct only after one of its symbols moved."""

    def count_narrows(self, monkeypatch):
        visits = []
        original = solver_mod._Solver._narrow

        def narrow(self, e, want, env):
            visits.append((self.nodes, e))
            return original(self, e, want, env)

        monkeypatch.setattr(solver_mod._Solver, "_narrow", narrow)
        return visits

    def test_cycle_refuted_before_the_round_cap(self, monkeypatch):
        # each round moves one bound of x and y by one; the difference check
        # refutes the cycle once the rounds have not settled after three
        visits = self.count_narrows(monkeypatch)
        x, y = Sym("x", INT), Sym("y", INT)
        zero = Const(0, INT)
        cycle = [mk_binop(">", mk_binop("+", x, zero, INT), y),
                 mk_binop(">", mk_binop("+", y, zero, INT), x)]
        decoys = [mk_binop(">", Sym(f"z{i}", INT), Const(i, INT)) for i in range(10)]
        r = solve(make(cycle + decoys))
        assert r.status == "unsat" and r.nodes == 1
        assert len(visits) < 60  # 32 full rounds made about 380

    def test_doubling_shape_pushes_once_per_level(self, tmp_path, monkeypatch):
        # x = x + x sixteen times makes one node that every level reaches
        # twice; a descent below a node its bounds already hold made 393,216
        # pushes here
        calls = []
        original = solver_mod._Solver._push

        def push(self, e, lo, hi, env):
            calls.append(e)
            return original(self, e, lo, hi, env)

        monkeypatch.setattr(solver_mod._Solver, "_push", push)
        src = "int f(int x) { " + "x = x + x; " * 16 + \
            "if (x > 5) return 1; return 0; }"
        unit = parse_unit(src, "double.c")
        outcome = pipeline.generate_function(unit, unit.function("f"),
                                             Config(out_dir=str(tmp_path)))
        assert outcome.status == "ok" and len(outcome.test_cases) == 2
        assert 0 < len(calls) <= 100

    def test_child_renarrows_only_the_branched_watchers(self, monkeypatch):
        visits = self.count_narrows(monkeypatch)
        a, b, c, d = (Sym(n, INT) for n in "abcd")
        a_pos = mk_binop(">", a, Const(0, INT))
        a_small = mk_binop("<", a, Const(10, INT))
        b_above = mk_binop(">", b, a)
        c_not5 = mk_binop("!=", c, Const(5, INT))
        # no bound of c or d moves for it, and the corner, c = d = INT_MIN,
        # fails it, so the search goes on below the root and node 2
        d_not_c = mk_binop("!=", d, c)
        r = solve(make([a_pos, a_small, b_above, c_not5, d_not_c]))
        assert r.status == "sat"
        visited = {}
        for node, e in visits:
            visited.setdefault(node, []).append(e)
        # node 2 probes a = 1 (a has the smallest domain), node 3 b = 2
        assert r.model.values["a"] == 1 and r.model.values["b"] == 2
        assert visited[2] == [a_pos, a_small, b_above]
        assert visited[3] == [b_above]


class TestCarriedFixpoint:
    """A search whose root starts from an earlier search's fixpoint answers
    as the same search from the full domains."""

    def test_pipeline_calls_answer_as_from_the_full_domains(self, tmp_path, monkeypatch):
        real_solve = pipeline.solve
        where = ""
        searches = carried = 0

        def comparing_solve(constraint, max_nodes, **kwargs):
            nonlocal searches, carried
            result = real_solve(constraint, max_nodes, **kwargs)
            fixpoint = kwargs["fixpoint"]
            if result.nodes and fixpoint is not None:  # a search, not the hint
                searches += 1
                fresh = solve(constraint, max_nodes)
                assert _same_answer(result, fresh), where
                assert result.nodes == fresh.nodes, where
                carried += solver_mod._Solver(constraint, max_nodes, fixpoint).start is not None
            return result

        def note(place, _constraint):
            nonlocal where
            where = place

        monkeypatch.setattr(pipeline, "solve", comparing_solve)
        assert walk_solver_calls(monkeypatch, tmp_path, note)
        assert carried > searches // 3

    def test_fixpoint_of_other_conjuncts_is_ignored(self):
        x, f = Sym("x", INT), Sym("f", FLOAT)
        above = mk_binop(">", x, Const(5, INT))
        first = solve(make([above]))
        assert first.fixpoint is not None and first.fixpoint.env["x"].lo == 6
        # from x >= 6, x < 3 would be refuted
        below = make([mk_binop("<", x, Const(3, INT))])
        assert solver_mod._Solver(below, 10, first.fixpoint).start is None
        r = solve(below, fixpoint=first.fixpoint)
        assert r.status == "sat" and r.model.values == {"x": -2**31}
        # an equal node is not the one the fixpoint was computed for
        twin = make([mk_binop(">", x, Const(5, INT)), mk_binop("<", x, Const(9, INT))])
        assert solver_mod._Solver(twin, 10, first.fixpoint).start is None
        # nor does a constraint with a float start from it
        floating = make([above, mk_binop(">", f, Const(0.5, FLOAT))])
        assert solver_mod._Solver(floating, 10, first.fixpoint).start is None
        assert solve(floating).fixpoint is None
        extended = make([above, mk_binop("<", x, Const(9, INT))])
        assert solver_mod._Solver(extended, 10, first.fixpoint).start is first.fixpoint


class RuleFree(solver_mod._Solver):
    """The solver without the push rule: every push descends."""

    def _covers(self, e, lo, hi, env):
        return False


# well-typed integer terms of + and - and casts over 8- and 32-bit symbols
_TERM_TYPES = (SCHAR, UCHAR, INT, UINT)


def _int_terms(ctype, depth=3):
    tag = f"{ctype.width}{'s' if ctype.signed else 'u'}"
    leaf = st.one_of(
        st.sampled_from("uvw").map(lambda n: Sym(f"{n}{tag}", ctype)),
        st.integers(ctype.min_value(), ctype.max_value()).map(lambda v: Const(v, ctype)))
    if depth == 0:
        return leaf
    return st.one_of(
        leaf,
        st.tuples(st.sampled_from("+-"), _int_terms(ctype, depth - 1),
                  _int_terms(ctype, depth - 1)).map(
            lambda t: mk_binop(t[0], t[1], t[2], ctype)),
        st.sampled_from(_TERM_TYPES).flatmap(lambda other: _int_terms(other, depth - 1)).map(
            lambda e: mk_cast(e, ctype)))


class TestPushRule:
    """A push whose bounds hold the node's whole interval narrows nothing,
    so ``_push`` may return at once there."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_covering_push_changes_no_domain(self, data):
        ctype = data.draw(st.sampled_from(_TERM_TYPES))
        term = data.draw(_int_terms(ctype))
        free = {v.name: FreeSymbol(v.name, v.ctype, v.role) for v in free_symbols(term)}
        s = RuleFree(make([], free), 1)
        env = s._initial_env()
        for name in sorted(free):
            dom = env[name]
            lo = data.draw(st.integers(dom.lo, dom.hi))
            env[name] = solver_mod._IntDomain(lo, data.draw(st.integers(lo, dom.hi)), dom.ctype)
        iv = s._ival(term, env)
        assert iv is not None
        lo = data.draw(st.one_of(st.none(), st.integers(iv[0] - 300, iv[0])))
        hi = data.draw(st.one_of(st.none(), st.integers(iv[1], iv[1] + 300)))
        before = dict(env)
        assert s._push(term, lo, hi, env) is False
        assert env == before


class TestPinnedAnswers:
    def test_random_stream_answers_unchanged(self):
        """Status and model of the first 300 random constraints of the
        model-soundness stream, as the solver gave them before it returned
        the box's corner as soon as it verified, with no more nodes."""
        rng = random.Random(190237)
        answers = []
        nodes = 0
        for i in range(300):
            c = make_constraint(rng, (SCHAR, UCHAR, SHORT, INT)[i % 4],
                                n_syms=rng.randint(1, 3))
            r = solve(c, 250)
            nodes += r.nodes
            answers.append([r.status,
                            sorted(r.model.values.items()) if r.model else None])
        assert [a[0] for a in answers].count("sat") == 168
        assert [a[0] for a in answers].count("unsat") == 42
        assert nodes <= 25346
        assert answers[0] == ["sat", [("x", -128), ("y", -128), ("z", -128)]]
        digest = hashlib.sha256(json.dumps(answers).encode()).hexdigest()
        assert digest == "a623cc311892a9e9566ab3b7d420e247c238be7bb1b5c0ab21348f46dc754c28"
