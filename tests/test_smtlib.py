"""SMT-LIB2 export and re-import tests."""

import os

import pytest
from conftest import DATA_DIR, UNION_POINTER, data_path, exported_candidates
from oracles import parse_smtlib, smt_sort_errors
from test_procedures import SHAPES

from cunitgen.cli import main

from cunitgen.constraints import Constraint, FreeSymbol
from cunitgen.smtlib import export_smtlib, parse_model_file
from cunitgen.solver import Model, solve, verify_model
from cunitgen.symexpr import Const, Role, Sym, mk_binop, mk_cast, mk_range
from cunitgen.typesys import DOUBLE, FLOAT, INT, SCHAR, SHORT, UCHAR, UINT


def table1_constraint() -> Constraint:
    a1 = Sym("p1@baseAddress", UINT, Role.PTR_BASE)
    a2 = Sym("p2@baseAddress", UINT, Role.PTR_BASE)
    x1 = Sym("p1@offset", UINT, Role.PTR_OFFSET)
    x2 = Sym("p2@offset", UINT, Role.PTR_OFFSET)
    conj = [
        mk_binop("==", a1, a2),
        mk_binop("<", x1, x2),
        mk_range(x1, 0, 10),
        mk_range(x2, 0, 10),
        mk_binop("==", Const(10, UINT), Const(10, UINT)),  # folds to true
    ]
    c = Constraint(conj)
    from cunitgen.symexpr import free_symbols

    c.free = {}
    for cj in conj:
        for s in free_symbols(cj):
            c.free.setdefault(s.name, FreeSymbol(s.name, s.ctype, s.role))
    return c


class TestExport:
    def test_table1_symbols_and_assertions(self):
        text = export_smtlib(table1_constraint())
        assert text.count("declare-fun") == 4
        assert text.count("(assert") == 5
        assert "(check-sat)" in text
        assert "(get-model)" in text
        assert "|p1@baseAddress|" in text
        assert "(assert true)" in text  # the folded dimension conjunct

    def test_empty_constraint(self):
        text = export_smtlib(Constraint([]))
        assert "(check-sat)" in text
        assert text.count("(assert") == 0

    def test_deterministic(self):
        c = table1_constraint()
        assert export_smtlib(c) == export_smtlib(c)

    def test_signed_ops_chosen_by_type(self):
        x = Sym("x", INT)
        u = Sym("u", UINT)
        c = Constraint([mk_binop("<", x, Const(3, INT)),
                        mk_binop("<", u, Const(3, UINT))])
        text = export_smtlib(c)
        assert "bvslt" in text and "bvult" in text

    def test_float_literal_bits(self):
        f = Sym("f", DOUBLE)
        c = Constraint([mk_binop("==", f, Const(1.5, DOUBLE))])
        text = export_smtlib(c)
        assert "FloatingPoint 11 53" in text
        assert "(fp #b0 #b01111111111 #b1" in text

    def test_cast_emission(self):
        x = Sym("x", SCHAR)
        c = Constraint([mk_binop("==", mk_cast(x, INT), Const(-3, INT))])
        text = export_smtlib(c)
        assert "sign_extend" in text


class TestRoundTrip:
    CASES = [
        [mk_binop("<", Sym("x", INT), Const(5, INT)),
         mk_binop(">", Sym("x", INT), Const(-5, INT))],
        [mk_binop(">", Sym("x", INT), Const(0, INT)),
         mk_binop("<", Sym("x", INT), Const(0, INT))],  # unsat
        [mk_binop("==", mk_binop("+", Sym("a", UINT), Sym("b", UINT), UINT),
                  Const(7, UINT))],
        [mk_range(Sym("u", UINT), 2, 9)],
        [mk_binop("||", mk_binop("==", Sym("x", INT), Const(1, INT)),
                  mk_binop("==", Sym("x", INT), Const(2, INT))),
         mk_binop("!=", Sym("x", INT), Const(1, INT))],
        # one of each cast the writer emits as an indexed operator; reading
        # zero_extend as sign_extend would make the first unsat
        [mk_binop(">", mk_cast(Sym("c", UCHAR), INT), Const(200, INT))],
        [mk_binop("==", mk_cast(Sym("s", SCHAR), INT), Const(-3, INT))],
        [mk_binop("==", mk_cast(Sym("x", INT), UCHAR), Const(7, UCHAR))],
        [mk_binop(">", mk_cast(Sym("d", DOUBLE), FLOAT), Const(1.5, FLOAT))],
        [mk_binop(">", mk_cast(Sym("u", UINT), DOUBLE), Const(2.5, DOUBLE))],
        [mk_binop(">", mk_cast(Sym("x", INT), FLOAT), Const(2.5, FLOAT))],
        [mk_binop("==", mk_cast(Sym("d", DOUBLE), INT), Const(1, INT))],
        [mk_binop("==", mk_cast(Sym("d", DOUBLE), UINT), Const(1, UINT))],
        [mk_binop("<", mk_cast(Sym("f", FLOAT), SHORT), Const(0, SHORT))],
    ]

    @pytest.mark.parametrize("conjuncts", CASES)
    def test_reparse_equisatisfiable(self, conjuncts):
        original = Constraint(list(conjuncts))
        from cunitgen.symexpr import free_symbols

        original.free = {}
        for cj in conjuncts:
            for s in free_symbols(cj):
                original.free.setdefault(s.name, FreeSymbol(s.name, s.ctype, s.role))
        text = export_smtlib(original)
        reparsed = parse_smtlib(text)
        v1 = solve(original)
        v2 = solve(reparsed)
        assert v1.status == v2.status

    def test_table1_roundtrip(self):
        c = table1_constraint()
        c.free["p1@baseAddress"].candidates = [2147483648, 2147483649, 0]
        c.free["p2@baseAddress"].candidates = [2147483649, 2147483648, 0]
        # the candidate domains survive the text as assertions, so the
        # reparsed form, whose bases are plain integers, solves within them
        # and no longer admits a base that names no region
        reparsed = parse_smtlib(export_smtlib(c))
        result = solve(reparsed)
        assert result.status == "sat"
        assert result.model.values["p1@baseAddress"] % 2**32 in (2147483648, 2147483649, 0)
        outside = {"p1@baseAddress": -1294967296, "p2@baseAddress": -1294967296,
                   "p1@offset": 2, "p2@offset": 9}  # bases 3000000000 as int32
        assert not verify_model(reparsed, Model(outside))

    def test_table1_unit_exports_the_start_domains(self, tmp_path):
        # every exported constraint states each base's candidates and each
        # offset's range; the reparsed text solves with a candidate base
        assert main([data_path("table1.c"), "--solver", "smtlib-out",
                     "--out-dir", str(tmp_path), "-q"]) == 0
        names = sorted(p for p in os.listdir(tmp_path) if p.endswith(".smt2"))
        assert names
        for name in names:
            text = (tmp_path / name).read_text()
            lines = text.splitlines()
            candidates = {}
            for pointer in ("p1", "p2"):
                base = f"|{pointer}@baseAddress|"
                offset = f"|{pointer}@offset|"
                assert lines.count(f"(assert (and (bvule (_ bv0 32) {offset}) "
                                   f"(bvule {offset} (_ bv9 32))))") == 1
                choices = [ln for ln in lines if ln.startswith(f"(assert (or (and (= {base} ")]
                assert len(choices) == 1
                candidates[pointer] = exported_candidates(text)[f"{pointer}@baseAddress"]
                assert len(candidates[pointer]) == 3 and candidates[pointer][-1] == 0
                # each candidate comes with the offsets of the region it
                # names: a fresh array's [0, 9], null's 0
                pairs = [f"(and (= {base} (_ bv{c} 32)) (and (bvule (_ bv0 32) {offset}) "
                         f"(bvule {offset} (_ bv{hi} 32))))"
                         for c, hi in zip(candidates[pointer], (9, 9, 0))]
                assert choices[0] == f"(assert (or {' '.join(pairs)}))"
            result = solve(parse_smtlib(text))
            assert result.status == "sat"
            for pointer, ids in candidates.items():
                assert result.model.values[f"{pointer}@baseAddress"] % 2**32 in ids


class TestSorts:
    def test_every_export_is_well_sorted(self, tmp_path):
        """The export of every solver call over tests/data, every SHAPES
        unit and UNION_POINTER; a truth value used as an int, a ?: arm of
        another width and a shift amount of another width were not."""
        units = [data_path(name) for name in sorted(os.listdir(DATA_DIR))
                 if name.endswith(".c")]
        for name, text in [(name, text) for shape in SHAPES.values()
                           for name, text, _ in shape] + [("union.c", UNION_POINTER)]:
            (tmp_path / name).write_text(text)
            units.append(str(tmp_path / name))
        exports = 0
        for i, unit in enumerate(units):
            out = tmp_path / f"out{i}"
            assert main([unit, "--solver", "smtlib-out", "--out-dir", str(out), "-q"]) \
                in (0, 2), unit
            for name in sorted(os.listdir(out)):
                if name.endswith(".smt2"):
                    exports += 1
                    assert smt_sort_errors((out / name).read_text()) == [], \
                        f"{unit}: {name}"
        assert exports

    def test_sort_check_sees_ill_sorted_terms(self):
        decls = ("(declare-fun |x| () (_ BitVec 32))\n"
                 "(declare-fun |s| () (_ BitVec 64))\n")
        well = "(assert (bvsgt (bvshl ((_ sign_extend 32) |x|) |s|) (_ bv5 64)))\n"
        assert smt_sort_errors(decls + well) == []
        for bad in ("(assert (= (bvslt |x| |x|) (_ bv1 32)))",
                    "(assert (bvsgt (bvshl |s| |x|) (_ bv5 64)))",
                    "(assert (bvsgt (ite true ((_ extract 7 0) |x|) |x|) |x|))",
                    "(assert (ite |x| true false))",
                    "(assert (and (bvslt |x| |x|) |x|))",
                    "(assert (bvadd |x| |x|))"):
            assert smt_sort_errors(decls + bad) != [], bad


class TestModelFile:
    def test_key_value_format(self):
        text = (
            "# answer for test_1.smt2\n"
            "p1@offset = 0\n"
            "p2@offset = 7\n"
            "p1@baseAddress = 2147483648\n"
            "f = 0x1.8p+0\n"
        )
        values = parse_model_file(text)
        assert values["p2@offset"] == 7
        assert values["p1@baseAddress"] == 2147483648
        assert values["f"] == 1.5

    def test_malformed_line_rejected(self):
        from cunitgen.smtlib import SmtError

        with pytest.raises(SmtError):
            parse_model_file("this is not a model line")
