"""Shared randomized property drivers, used by the property and acceptance suites."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from bruteforce import grid_for, oracle_sat

from cunitgen import constraints as con
from cunitgen.constraints import Constraint, FreeSymbol
from cunitgen.memory import NULL_BASE
from cunitgen.solver import solve, verify_model
from cunitgen.symexpr import (
    Const,
    Sym,
    SymExpr,
    evaluate,
    free_symbols,
    mk_binop,
    mk_cast,
    mk_unop,
)
from cunitgen.typesys import (
    DOUBLE,
    FLOAT,
    INT,
    FloatType,
    IntType,
    SCHAR,
    SHORT,
    UCHAR,
    UINT,
    round_float,
    wrap_int,
)

_ARITH = ["+", "-", "*", "&", "|", "^"]
_CMP = ["<", "<=", ">", ">=", "==", "!="]


def random_arith(rng: random.Random, syms: list[Sym], t: IntType, depth: int) -> SymExpr:
    if depth == 0 or rng.random() < 0.35:
        if rng.random() < 0.5 and syms:
            return rng.choice(syms)
        return Const(wrap_int(rng.randint(t.min_value(), t.max_value()), t), t)
    if rng.random() < 0.15:
        return mk_unop(rng.choice(["-", "~"]),
                       random_arith(rng, syms, t, depth - 1), t)
    op = rng.choice(_ARITH)
    return mk_binop(op, random_arith(rng, syms, t, depth - 1),
                    random_arith(rng, syms, t, depth - 1), t)


def random_bool(rng: random.Random, syms: list[Sym], t: IntType, depth: int) -> SymExpr:
    if depth == 0 or rng.random() < 0.6:
        return mk_binop(rng.choice(_CMP),
                        random_arith(rng, syms, t, 2),
                        random_arith(rng, syms, t, 2))
    op = rng.choice(["&&", "||"])
    return mk_binop(op, random_bool(rng, syms, t, depth - 1),
                    random_bool(rng, syms, t, depth - 1))


def make_constraint(rng: random.Random, t: IntType, n_syms: int) -> Constraint:
    syms = [Sym(name, t) for name in ("x", "y", "z")[:n_syms]]
    conjuncts = [random_bool(rng, syms, t, rng.randint(0, 2))
                 for _ in range(rng.randint(1, 3))]
    c = Constraint(conjuncts)
    c.free = {}
    for cj in conjuncts:
        for s in free_symbols(cj):
            c.free.setdefault(s.name, FreeSymbol(s.name, s.ctype))
    return c


@dataclass
class SoundnessStats:
    sats: int = 0
    unsats: int = 0
    unknowns: int = 0
    bad_models: int = 0

    @property
    def total(self) -> int:
        return self.sats + self.unsats + self.unknowns


def run_model_soundness(count: int, seed: int = 190237,
                        max_nodes: int = 250) -> SoundnessStats:
    """Solve `count` random constraints; re-verify every Sat model."""
    rng = random.Random(seed)
    stats = SoundnessStats()
    for i in range(count):
        t = (SCHAR, UCHAR, SHORT, INT)[i % 4]
        c = make_constraint(rng, t, n_syms=rng.randint(1, 3))
        result = solve(c, max_nodes)
        if result.status == "sat":
            stats.sats += 1
            env = dict(result.model.values)
            for cj in c.conjuncts:
                if not evaluate(cj, env):
                    stats.bad_models += 1
                    break
        elif result.status == "unsat":
            stats.unsats += 1
        else:
            stats.unknowns += 1
    return stats


@dataclass
class AgreementStats:
    checked: int = 0
    unknowns: int = 0
    disagreements: int = 0


def run_unsat_agreement(count: int, seed: int, t: IntType = SCHAR,
                        max_nodes: int = 3000) -> AgreementStats:
    """Compare every decided verdict against full-domain enumeration."""
    rng = random.Random(seed)
    stats = AgreementStats()
    for _ in range(count):
        c = make_constraint(rng, t, n_syms=rng.randint(1, 2))
        names = sorted({s.name for cj in c.conjuncts for s in free_symbols(cj)})
        if not names:
            continue
        grids = grid_for(names, t)
        truth = oracle_sat(c.conjuncts, grids)
        verdict = solve(c, max_nodes)
        if verdict.status == "unknown":
            stats.unknowns += 1
            continue
        stats.checked += 1
        if (verdict.status == "sat") != truth:
            stats.disagreements += 1
    return stats


def run_pointer_compare_bruteforce(max_dim: int = 4) -> int:
    """Every omega, every dim pair: solver verdict equals enumeration.

    Returns the number of instances checked; raises on any mismatch.
    """
    checked = 0
    for omega in ("<", "<=", ">", ">=", "==", "!="):
        for dim1 in range(1, max_dim + 1):
            for dim2 in range(1, max_dim + 1):
                p1 = con.PtrInfo(Sym("p1@baseAddress", UINT),
                                 Sym("p1@offset", UINT), dim1)
                p2 = con.PtrInfo(Sym("p2@baseAddress", UINT),
                                 Sym("p2@offset", UINT), dim2)
                c = con.pointer_compare(p1, p2, omega)
                c.free = {
                    "p1@baseAddress": FreeSymbol(
                        "p1@baseAddress", UINT,
                        candidates=[101, 102, NULL_BASE],
                        candidate_dims={101: dim1, 102: dim2, NULL_BASE: 0},
                        paired_offset="p1@offset"),
                    "p2@baseAddress": FreeSymbol(
                        "p2@baseAddress", UINT,
                        candidates=[102, 101, NULL_BASE],
                        candidate_dims={101: dim1, 102: dim2, NULL_BASE: 0},
                        paired_offset="p2@offset"),
                    "p1@offset": FreeSymbol("p1@offset", UINT,
                                            dim=dim1),
                    "p2@offset": FreeSymbol("p2@offset", UINT,
                                            dim=dim2),
                }
                brute = False
                for b1, b2 in itertools.product([101, 102, NULL_BASE], repeat=2):
                    offs1 = [0] if b1 == NULL_BASE else range(max_dim)
                    offs2 = [0] if b2 == NULL_BASE else range(max_dim)
                    for x1, x2 in itertools.product(offs1, offs2):
                        env = {"p1@baseAddress": b1, "p2@baseAddress": b2,
                               "p1@offset": x1, "p2@offset": x2}
                        if all(evaluate(cj, env) for cj in c.conjuncts):
                            brute = True
                            break
                    if brute:
                        break
                verdict = solve(c)
                assert verdict.status in ("sat", "unsat"), (omega, dim1, dim2)
                assert (verdict.status == "sat") == brute, (omega, dim1, dim2)
                checked += 1
    return checked


_FLOAT_ARITH = ["+", "-", "*"]
_FLOAT_LITERALS = (0.1, 0.5, 1.5, 2.0, 2.5, 3.0, 7.25, 100.0, 1e-3)


def random_float_arith(rng: random.Random, syms: list[Sym], n: Sym, t: FloatType,
                       depth: int) -> SymExpr:
    """A float expression of type t over syms, float literals and (t) n."""
    if depth == 0 or rng.random() < 0.4:
        r = rng.random()
        if r < 0.5:
            return mk_cast(rng.choice(syms), t)
        if r < 0.6:
            return mk_cast(n, t)
        v = rng.choice(_FLOAT_LITERALS) * rng.choice((1, -1))
        return Const(round_float(v, t), t)
    return mk_binop(rng.choice(_FLOAT_ARITH),
                    random_float_arith(rng, syms, n, t, depth - 1),
                    random_float_arith(rng, syms, n, t, depth - 1), t)


def make_float_constraint(rng: random.Random) -> Constraint:
    """A conjunction of 1-3 comparisons over 1-3 float/double symbols, float
    literals, + - * and one int symbol cast to float."""
    syms = [Sym(name, rng.choice((FLOAT, DOUBLE)))
            for name in ("f", "g", "h")[:rng.randint(1, 3)]]
    n = Sym("n", INT)
    n_conjuncts = rng.randint(1, 3)
    conjuncts: list[SymExpr] = []
    while len(conjuncts) < n_conjuncts:
        t = rng.choice((FLOAT, DOUBLE))
        cmp = mk_binop(rng.choice(_CMP), random_float_arith(rng, syms, n, t, 2),
                       random_float_arith(rng, syms, n, t, 2))
        if not isinstance(cmp, Const):  # a folded one would decide the answer
            conjuncts.append(cmp)
    c = Constraint(conjuncts)
    c.free = {}
    for cj in conjuncts:
        for s in free_symbols(cj):
            c.free.setdefault(s.name, FreeSymbol(s.name, s.ctype))
    return c


@dataclass
class FloatStreamStats:
    sats: int = 0
    unknowns: int = 0
    unsats: int = 0
    unsats_with_float: int = 0
    bad_models: int = 0
    unrepeatable: int = 0


def run_float_stream(count: int, seed: int, max_nodes: int = 300) -> FloatStreamStats:
    """Solve `count` random float constraints twice each: verify every Sat
    model, count unsat answers over a float symbol (the seeds are no proof)
    and answers that differ between the two solves."""
    rng = random.Random(seed)
    stats = FloatStreamStats()
    for _ in range(count):
        c = make_float_constraint(rng)
        first, second = solve(c, max_nodes), solve(c, max_nodes)
        answers = [(r.status, r.reason, r.nodes, r.model.values if r.model else None)
                   for r in (first, second)]
        if answers[0] != answers[1]:
            stats.unrepeatable += 1
        if first.status == "sat":
            stats.sats += 1
            if not verify_model(c, first.model):
                stats.bad_models += 1
        elif first.status == "unsat":
            stats.unsats += 1
            if any(isinstance(fs.ctype, FloatType) for fs in c.free.values()):
                stats.unsats_with_float += 1
        else:
            stats.unknowns += 1
    return stats
