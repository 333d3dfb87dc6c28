"""Driver emission, concrete replay, reports and the trace matrix."""

import json
import os

import pytest

from conftest import compile_c, data_path, read_data, run_exe

from cunitgen.cli import ship_compat_header
from cunitgen.config import Config
from cunitgen.errors import ReplayDivergence
from cunitgen.frontend.parser import parse_unit
from cunitgen.harness import write_atomically
from cunitgen.pipeline import generate_function, write_outputs


def generate_to(tmp_path, data_name: str, fn_name: str, **cfg_kwargs):
    unit = parse_unit(read_data(data_name), data_name)
    fn = unit.function(fn_name)
    config = Config(out_dir=str(tmp_path), **cfg_kwargs)
    outcome = generate_function(unit, fn, config)
    assert outcome.status == "ok", outcome.message
    write_outputs(outcome, unit, config)
    ship_compat_header(str(tmp_path))
    return outcome


class TestDrivers:
    def test_table1_driver_runs(self, tmp_path):
        generate_to(tmp_path, "table1.c", "test")
        exe = compile_c(str(tmp_path), [
            str(tmp_path / "test_driver.c"), data_path("table1.c")])
        code, _ = run_exe(exe)
        assert code == 0

    def test_table1_shared_autogen_array(self, tmp_path):
        generate_to(tmp_path, "table1.c", "test")
        text = (tmp_path / "test_driver.c").read_text()
        assert "char p1__autogen_array[10]" in text
        assert "p1 = p1__autogen_array;" in text
        assert "p2 = p1__autogen_array;" in text  # region identity
        assert "p1__autogen_offset" in text
        assert "p2__autogen_offset" in text

    def test_alloc_driver_obligations_pass(self, tmp_path):
        generate_to(tmp_path, "alloc.c", "alloc")
        exe = compile_c(str(tmp_path), [
            str(tmp_path / "alloc_driver.c"), data_path("alloc.c")])
        code, stdout = run_exe(exe)
        assert code == 0
        assert "FAIL" not in stdout
        assert "CTGEN_001" in stdout and "CTGEN_002" in stdout

    def test_mutated_alloc_flags_violation(self, tmp_path):
        generate_to(tmp_path, "alloc_mutated.c", "alloc")
        text = (tmp_path / "alloc_driver.c").read_text()
        assert "violated var allocbuf in line(s) 21" in text
        assert "@rttAssert(FALSE)" in text
        exe = compile_c(str(tmp_path), [
            str(tmp_path / "alloc_driver.c"), data_path("alloc_mutated.c")])
        code, stdout = run_exe(exe)
        assert code == 0  # the failure was predicted, so nothing unexpected
        assert "modifies allocbuf FAIL" in stdout

    def test_empty_function_gets_one_test_case(self, tmp_path):
        src_path = tmp_path / "empty.c"
        src_path.write_text("void f(void) { }\n")
        unit = parse_unit(src_path.read_text(), str(src_path))
        config = Config(out_dir=str(tmp_path))
        outcome = generate_function(unit, unit.function("f"), config)
        assert outcome.status == "ok"
        assert len(outcome.test_cases) == 1
        assert outcome.report.node_percent == 100.0

    def test_driver_without_test_cases_still_compiles(self, tmp_path):
        src_path = tmp_path / "never.c"
        src_path.write_text(
            '#include "rtt_annotations.h"\n'
            "int f(int x) { __rtt_precondition(x > 0 && x < 0); return x; }\n")
        unit = parse_unit(src_path.read_text(), str(src_path))
        config = Config(out_dir=str(tmp_path))
        outcome = generate_function(unit, unit.function("f"), config)
        write_outputs(outcome, unit, config)
        ship_compat_header(str(tmp_path))
        assert outcome.test_cases == []
        exe = compile_c(str(tmp_path), [
            str(tmp_path / "f_driver.c"), str(src_path)])
        code, stdout = run_exe(exe)
        assert code == 0
        assert "no feasible test cases" in stdout


class TestReplay:
    def test_replay_matches_trace_for_whole_corpus(self, tmp_path):
        # build_test_case rejects any divergence, so reaching 100% on the
        # corpus means every emitted case replayed its trace exactly
        for name, fn in [("alloc_ptr.c", "alloc_ptr"), ("comp_ptr.c", "comp_ptr"),
                         ("tritype_int.c", "Tritype"), ("fig3.c", "select_demo")]:
            outcome = generate_to(tmp_path, name, fn)
            assert outcome.divergences == []
            assert outcome.test_cases

    def test_corrupted_model_detected(self):
        from cunitgen import constraints as con
        from cunitgen.frontend import extract_annotations
        from cunitgen.harness import build_test_case
        from cunitgen.imr import enumerate_coverage_targets, lower
        from cunitgen.solver import solve
        from cunitgen.stct import CoverageState, Stct
        from cunitgen.symex import Layout, interpret

        unit = parse_unit(read_data("table1.c"), "table1.c")
        fn = unit.function("test")
        anns = extract_annotations(fn)
        cfg = lower(unit, fn)
        layout = Layout(unit, fn, cfg, anns, Config())
        coverage = CoverageState(enumerate_coverage_targets(cfg))
        tree = Stct(cfg, coverage, 256)
        trace = tree.select_trace(None)
        state = interpret(trace, cfg, anns, layout)
        coverage.mark_pending(trace)
        while not trace.complete:
            trace = tree.select_trace(trace)
            state = interpret(trace, cfg, anns, layout)
        constraint = con.conjoin(state)
        model = solve(constraint).model.values
        good = build_test_case(0, trace, state, model, cfg, layout, anns)
        assert good.trace_labels
        # out-of-bounds offset: replay must refuse the test case
        bad = dict(model)
        bad["p1@offset"] = 99
        with pytest.raises(ReplayDivergence):
            build_test_case(0, trace, state, bad, cfg, layout, anns)
        # wrong branch direction: offsets violate p1 < p2
        swapped = dict(model)
        swapped["p1@offset"], swapped["p2@offset"] = 5, 2
        with pytest.raises(ReplayDivergence):
            build_test_case(0, trace, state, swapped, cfg, layout, anns)


class TestReports:
    def test_alloc_ptr_full_coverage(self, tmp_path):
        outcome = generate_to(tmp_path, "alloc_ptr.c", "alloc_ptr")
        assert outcome.report.node_percent == 100.0
        assert outcome.report.edge_percent == 100.0
        assert len(outcome.test_cases) <= 4

    def test_infeasible_edge_reported_with_verdict(self, tmp_path):
        outcome = generate_to(tmp_path, "contradiction.c", "contradiction")
        report = json.loads((tmp_path / "contradiction_coverage.json").read_text())
        assert report["edges_covered"] < report["edges_total"]
        assert report["uncovered"][0]["verdict"] == "infeasible-proven"
        # nothing silently dropped: totals still count the impossible edge
        assert report["edges_total"] == 4

    def test_json_field_names(self, tmp_path):
        generate_to(tmp_path, "alloc.c", "alloc")
        report = json.loads((tmp_path / "alloc_coverage.json").read_text())
        for field in ("function", "nodes_total", "nodes_covered", "edges_total",
                      "edges_covered", "uncovered"):
            assert field in report

    def test_trace_matrix_schema(self, tmp_path):
        generate_to(tmp_path, "alloc.c", "alloc")
        lines = (tmp_path / "alloc_trace.csv").read_text().splitlines()
        assert lines[0] == "requirement,function,test_case_id,verdict"
        body = [ln.split(",") for ln in lines[1:]]
        tags = {row[0] for row in body}
        assert tags == {"CTGEN_001", "CTGEN_002"}
        for row in body:
            assert row[1] == "alloc"
            assert row[3] in ("PASS", "FAIL", "uncovered")

    def test_tag_appears_once_per_covering_case(self, tmp_path):
        generate_to(tmp_path, "alloc.c", "alloc")
        lines = (tmp_path / "alloc_trace.csv").read_text().splitlines()[1:]
        seen = set()
        for ln in lines:
            tag, _fn, tc_id, _v = ln.split(",")
            key = (tag, tc_id)
            assert key not in seen
            seen.add(key)


class TestAtomicWrites:
    def test_no_temp_files_left(self, tmp_path):
        target = tmp_path / "sub" / "file.txt"
        write_atomically(str(target), "hello\n")
        assert target.read_text() == "hello\n"
        leftovers = [p for p in os.listdir(tmp_path / "sub") if p.startswith(".ctg-")]
        assert leftovers == []

    def test_overwrite_is_complete(self, tmp_path):
        target = tmp_path / "file.txt"
        write_atomically(str(target), "one\n")
        write_atomically(str(target), "two\n")
        assert target.read_text() == "two\n"

    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=["umask022", "umask077"])
    def test_driver_gets_the_mode_of_a_plain_open(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            generate_to(tmp_path, "table1.c", "test")
            with open(tmp_path / "plain.txt", "w") as fh:
                fh.write("")
        finally:
            os.umask(old)
        driver_mode = (tmp_path / "test_driver.c").stat().st_mode & 0o777
        assert driver_mode == 0o666 & ~umask
        assert driver_mode == (tmp_path / "plain.txt").stat().st_mode & 0o777

    def test_failure_names_the_target(self, tmp_path):
        target = tmp_path / "taken"
        target.mkdir()
        with pytest.raises(IsADirectoryError) as info:
            write_atomically(str(target), "text\n")
        assert info.value.filename == str(target)
        assert os.listdir(tmp_path) == ["taken"]


class TestAggregateInputs:
    def test_struct_inputs_materialize_and_run(self, tmp_path):
        outcome = generate_to(tmp_path, "struct_input.c", "classify")
        assert outcome.report.edge_percent == 100.0
        driver = (tmp_path / "classify_driver.c").read_text()
        assert "struct flags" in driver
        assert "memset(&fl, 0, sizeof fl);" in driver
        assert "fl.mode = 3U;" in driver
        exe = compile_c(str(tmp_path), [
            str(tmp_path / "classify_driver.c"), data_path("struct_input.c")])
        code, _ = run_exe(exe)
        assert code == 0

    def test_pointer_contents_materialize_and_run(self, tmp_path):
        outcome = generate_to(tmp_path, "deref_param.c", "pick")
        assert outcome.report.edge_percent == 100.0
        driver = (tmp_path / "pick_driver.c").read_text()
        # some test case loads a cell of the auto-generated backing array
        assert "values__autogen_array[" in driver
        exe = compile_c(str(tmp_path), [
            str(tmp_path / "pick_driver.c"), data_path("deref_param.c")])
        code, _ = run_exe(exe)
        assert code == 0


class TestAuxAndAssert:
    def test_aux_obligation_precomputed(self, tmp_path):
        src_path = tmp_path / "auxfn.c"
        src_path.write_text(
            '#include "rtt_annotations.h"\n'
            "int f(int a){\n"
            "  __rtt_aux(int, seen);\n"
            "  __rtt_postcondition(seen == 1);\n"
            "  int b = 1;\n"
            "  __rtt_assign(seen = b);\n"
            "  __rtt_assert(b > 0);\n"
            "  if (a > 0) { return b; }\n"
            "  return 0;\n"
            "}\n")
        unit = parse_unit(src_path.read_text(), str(src_path))
        config = Config(out_dir=str(tmp_path))
        outcome = generate_function(unit, unit.function("f"), config)
        assert outcome.status == "ok", outcome.message
        write_outputs(outcome, unit, config)
        ship_compat_header(str(tmp_path))
        driver = (tmp_path / "f_driver.c").read_text()
        # the aux-based postcondition was decided during generation
        assert "computed during generation" in driver
        # the passing __rtt_assert leaves no trace in the procedure
        assert "assert line" not in driver
        exe = compile_c(str(tmp_path), [str(tmp_path / "f_driver.c"), str(src_path)])
        code, stdout = run_exe(exe)
        assert code == 0
        assert "post line" in stdout and "FAIL" not in stdout

    def test_failing_assert_recorded_with_line(self, tmp_path):
        src_path = tmp_path / "badassert.c"
        src_path.write_text(
            '#include "rtt_annotations.h"\n'
            "int f(int a){\n"
            "  if (a > 10) {\n"
            "    __rtt_assert(a < 5);\n"
            "    return 1;\n"
            "  }\n"
            "  return 0;\n"
            "}\n")
        unit = parse_unit(src_path.read_text(), str(src_path))
        config = Config(out_dir=str(tmp_path))
        outcome = generate_function(unit, unit.function("f"), config)
        write_outputs(outcome, unit, config)
        driver = (tmp_path / "f_driver.c").read_text()
        assert "__rtt_assert violated at line 4" in driver
