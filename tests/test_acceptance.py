"""Acceptance suite: one test per criterion, each printing PASS or FAIL.

Tolerances are pinned here exactly as stated; nothing is deferred to later
calibration. Runtime bounds are wall-clock on this machine.
"""

import functools
import json
import os
import re
import time

import pytest

from conftest import compile_c, data_path, read_data, run_exe
from oracles import parse_smtlib

from cunitgen.cli import main as cli_main, ship_compat_header
from cunitgen.config import Config
from cunitgen.frontend.parser import parse_unit
from cunitgen.pipeline import generate_function, write_outputs


def criterion(num: int, title: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] criterion {num} ({title}): FAIL")
                raise
            print(f"[acceptance] criterion {num} ({title}): PASS")
        return wrapper
    return decorate


def generate(tmp_path, data_name: str, fn_name: str, **cfg_kwargs):
    unit = parse_unit(read_data(data_name), data_name)
    fn = unit.function(fn_name)
    config = Config(out_dir=str(tmp_path), **cfg_kwargs)
    start = time.monotonic()
    outcome = generate_function(unit, fn, config)
    elapsed = time.monotonic() - start
    assert outcome.status == "ok", outcome.message
    write_outputs(outcome, unit, config)
    ship_compat_header(str(tmp_path))
    return outcome, elapsed


@criterion(1, "pointer comparison, Table 1")
def test_criterion_1_pointer_comparison(tmp_path):
    outcome, elapsed = generate(tmp_path, "table1.c", "test")
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    driver = (tmp_path / "test_driver.c").read_text()
    blocks = [b for b in driver.split("/* test case") if b.startswith(" 0:")
              or "path <p1 < p2>" in b.partition("\n")[0]]
    block = next(b for b in blocks if "path <p1 < p2>" in b.partition("\n")[0])
    assert "char p1__autogen_array[10]" in block
    # both pointers bound into the one shared auto-generated array
    assert "p1 = p1__autogen_array;" in block
    assert "p2 = p1__autogen_array;" in block
    offsets = {m.group(1): int(m.group(2)) for m in re.finditer(
        r"(p\d)__autogen_offset = (\d+)U;", block)}
    assert offsets["p1"] < offsets["p2"]
    exe = compile_c(str(tmp_path), [str(tmp_path / "test_driver.c"),
                                    data_path("table1.c")])
    code, stdout = run_exe(exe)
    assert code == 0, stdout
    # the REACH_ERROR check passing at runtime proves the compiled driver
    # actually executed the guarded ERROR statement
    assert re.search(r"PASS \[REACH_ERROR\] \(expected PASS\)", stdout), stdout


@criterion(2, "stub synthesis, Table 2")
def test_criterion_2_stub_synthesis(tmp_path):
    unit = parse_unit(read_data("table2.c"), "table2.c")
    fn = unit.function("test")
    config = Config(out_dir=str(tmp_path), verbose=True)
    start = time.monotonic()
    outcome = generate_function(unit, fn, config)
    elapsed = time.monotonic() - start
    assert outcome.status == "ok", outcome.message
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    write_outputs(outcome, unit, config)
    ship_compat_header(str(tmp_path))
    # the three-conjunct constraint shape from the paper's table
    pattern = re.compile(
        r"func_ext@RETURN@0 > p2 && "
        r"func_ext@RETURN@1 == p1 && "
        r"globalVar@func_ext@1 == p2".replace("@", r"@").replace("&&", r"&&")
        .replace("(", r"\(").replace(")", r"\)"))
    assert ("func_ext@RETURN@0 > p2 && func_ext@RETURN@1 == p1 && "
            "globalVar@func_ext@1 == p2") in outcome.message
    stub = (tmp_path / "func_ext_stub.c").read_text()
    assert "func_ext_STUB_retID++;" in stub
    assert "func_ext_STUB_retVal[func_ext_STUB_retID]" in stub
    exe = compile_c(str(tmp_path), [
        str(tmp_path / "test_driver.c"), str(tmp_path / "func_ext_stub.c"),
        data_path("table2.c")])
    code, stdout = run_exe(exe)
    assert code == 0, stdout
    assert re.search(r"PASS \[REACH_ERROR\] \(expected PASS\)", stdout), stdout


@criterion(3, "alloc_ptr coverage, Table 4")
def test_criterion_3_alloc_ptr(tmp_path):
    outcome, elapsed = generate(tmp_path, "alloc_ptr.c", "alloc_ptr")
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    assert outcome.report.node_percent == 100.0
    assert outcome.report.edge_percent == 100.0
    assert len(outcome.test_cases) <= 4


@criterion(4, "comp_ptr coverage, Table 4")
def test_criterion_4_comp_ptr(tmp_path):
    outcome, elapsed = generate(tmp_path, "comp_ptr.c", "comp_ptr")
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    assert outcome.report.node_percent == 100.0
    assert outcome.report.edge_percent == 100.0
    assert len(outcome.test_cases) <= 4


@criterion(5, "Tritype coverage and float export")
def test_criterion_5_tritype(tmp_path):
    outcome, elapsed = generate(tmp_path / "int", "tritype_int.c", "Tritype")
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    assert outcome.report.node_percent == 100.0
    assert outcome.report.edge_percent == 100.0
    assert len(outcome.test_cases) <= 12
    # the original float version exports well-formed SMT-LIB2 for every
    # selected trace that reached the solver
    fl_outcome, _ = generate(tmp_path / "fl", "tritype_float.c", "Tritype",
                             solver="smtlib-out")
    solver_calls = [rec for rec in fl_outcome.selection_log
                    if rec.verdict and "folded" not in rec.verdict
                    and rec.verdict != "abandoned"]
    assert fl_outcome.smt_files
    assert len(fl_outcome.smt_files) >= len(solver_calls) > 0
    for path in fl_outcome.smt_files:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        assert "(check-sat)" in text and "(get-model)" in text
        assert "FloatingPoint" in text
        parse_smtlib(text)  # parses back: structurally well-formed


@criterion(6, "annotated alloc and modifies violation")
def test_criterion_6_alloc_annotations(tmp_path):
    outcome, _ = generate(tmp_path, "alloc.c", "alloc")
    covered = {tag for tc in outcome.test_cases for tag in tc.tags}
    assert {"CTGEN_001", "CTGEN_002"} <= covered
    rows = (tmp_path / "alloc_trace.csv").read_text().splitlines()[1:]
    by_tag = {}
    for row in rows:
        tag, _fn, tc_id, _verdict = row.split(",")
        if tc_id:
            by_tag.setdefault(tag, set()).add(tc_id)
    assert len(by_tag.get("CTGEN_001", ())) >= 1
    assert len(by_tag.get("CTGEN_002", ())) >= 1
    # the mutated unit writes allocbuf[0] on line 21; the driver must carry
    # a failing assertion naming that line
    mut_out = tmp_path / "mutated"
    generate(mut_out, "alloc_mutated.c", "alloc")
    driver = (mut_out / "alloc_driver.c").read_text()
    assert "violated var allocbuf in line(s) 21" in driver
    assert "@rttAssert(FALSE)" in driver


@criterion(7, "selection-order walkthrough, Fig. 3")
def test_criterion_7_selection_order(tmp_path):
    outcome, _ = generate(tmp_path, "fig3.c", "select_demo")
    labels = [rec.labels for rec in outcome.selection_log]
    assert labels[0] == ["a"], labels
    assert labels[1] == ["a", "b"], labels
    complete_idx = next(i for i, rec in enumerate(outcome.selection_log)
                        if rec.complete)
    for i in range(2, complete_idx + 1):
        assert labels[i][:2] == ["a", "b"], labels
    assert labels[complete_idx + 1] == ["!a"], labels


@criterion(8, "property suite")
def test_criterion_8_properties(tmp_path):
    from property_checks import (
        run_model_soundness,
        run_pointer_compare_bruteforce,
        run_unsat_agreement,
    )

    # (a) every emitted test case replays its trace exactly, corpus-wide
    corpus = [("table1.c", "test"), ("table2.c", "test"),
              ("alloc.c", "alloc"), ("alloc_mutated.c", "alloc"),
              ("alloc_ptr.c", "alloc_ptr"), ("comp_ptr.c", "comp_ptr"),
              ("tritype_int.c", "Tritype"), ("fig3.c", "select_demo"),
              ("contradiction.c", "contradiction")]
    for i, (name, fn_name) in enumerate(corpus):
        outcome, _ = generate(tmp_path / f"c{i}", name, fn_name)
        assert outcome.divergences == [], (name, outcome.divergences)
        assert outcome.test_cases, name
    # (b) solver models always verify, over at least 10,000 constraints
    stats = run_model_soundness(10000)
    assert stats.total == 10000
    assert stats.bad_models == 0
    assert stats.sats > 5000
    # (c) unsat verdicts agree with brute-force enumeration on domains <= 2^8
    agree = run_unsat_agreement(700, seed=7)
    assert agree.disagreements == 0
    assert agree.checked > 500
    # (d) pointer_compare equisatisfiability for every omega, dims <= 4
    assert run_pointer_compare_bruteforce(max_dim=4) == 96


@criterion(9, "infeasibility honesty")
def test_criterion_9_infeasibility(tmp_path):
    outcome, _ = generate(tmp_path, "contradiction.c", "contradiction")
    report = json.loads((tmp_path / "contradiction_coverage.json").read_text())
    infeasible = [u for u in report["uncovered"] if "x < 0" in u["description"]]
    assert infeasible and infeasible[0]["verdict"] == "infeasible-proven"
    # no target vanishes from the totals
    assert report["edges_total"] == 4
    assert report["edges_covered"] == 3
    assert report["nodes_covered"] < report["nodes_total"]
    # the command line reports incomplete coverage honestly
    code = cli_main([data_path("contradiction.c"),
                     "--out-dir", str(tmp_path / "cli"), "-q"])
    assert code == 2
