"""End-to-end coverage for constructs the core corpus does not exercise."""

import os

from conftest import DATA_DIR, read_data

import cunitgen.pipeline as pipeline
from cunitgen.config import Config
from cunitgen.frontend.parser import parse_unit
from cunitgen.pipeline import generate_function
from cunitgen.solver import solve


def run_src(src: str, fn_name: str, **cfg_kwargs):
    unit = parse_unit(src, "<extra>")
    fn = unit.function(fn_name)
    cfg_kwargs.setdefault("out_dir", "/tmp/ctg-extra")
    outcome = generate_function(unit, fn, Config(**cfg_kwargs))
    assert outcome.status == "ok", outcome.message
    return outcome


class TestConstructs:
    def test_do_while(self):
        src = ("int f(int n){ int i = 0; int s = 0;"
               " do { s = s + i; i = i + 1; } while (i < n);"
               " return s; }")
        outcome = run_src(src, "f", max_depth=64)
        assert outcome.report.edge_percent == 100.0

    def test_update_operators(self):
        src = ("int f(int n){ int s = 0;"
               " for (int i = 0; i < n; i++) { s += 2; }"
               " if (n-- > 4) { s = s - n; }"
               " return s; }")
        outcome = run_src(src, "f", max_depth=64)
        assert outcome.report.edge_percent == 100.0

    def test_switch_generation(self):
        src = ("int f(int x){ int r = 0;"
               " switch (x & 3) { case 0: r = 1; break;"
               " case 1: r = 2; break; default: r = 9; }"
               " return r; }")
        outcome = run_src(src, "f")
        assert outcome.report.edge_percent == 100.0

    def test_ternary_generation(self):
        outcome = run_src("int f(int a){ int m = a > 7 ? a : 7; return m; }", "f")
        assert outcome.report.edge_percent == 100.0

    def test_union_equal_width_reinterpret(self):
        src = ("union u { int i; unsigned int u; };"
               "union u shared;"
               "int f(int x){ shared.i = x;"
               " if (shared.u > 100U) { return 1; } return 0; }")
        outcome = run_src(src, "f")
        assert outcome.report.edge_percent == 100.0
        assert not any(tc.approximate for tc in outcome.test_cases)

    def test_struct_bit_field_branching(self):
        src = ("struct flags { unsigned int mode : 2; unsigned int hot : 1; };"
               "struct flags fl;"
               "int f(void){ if (fl.mode == 3) { return fl.hot; } return 9; }")
        outcome = run_src(src, "f")
        assert outcome.report.edge_percent == 100.0

    def test_inlined_callee_coverage(self):
        src = ("int clamp(int v){ if (v > 10) { return 10; } return v; }"
               "int f(int a){ return clamp(a) + clamp(a + 1); }")
        outcome = run_src(src, "f")
        assert outcome.report.edge_percent == 100.0

    def test_assert_undefined_for_some_inputs(self):
        # the condition divides by y; an input with y == 0 violates the
        # assert instead of failing replay
        src = ('#include "rtt_annotations.h"\n'
               "int f2(int x, int y) {\n"
               "  __rtt_assert(x / y > 0);\n"
               "  if (x > 0) return 1; return 0; }\n")
        outcome = run_src(src, "f2")
        assert outcome.report.edges_covered == outcome.report.edges_total == 2
        assert not outcome.divergences
        for tc in outcome.test_cases:
            assert [(o.kind, o.line) for o in tc.outcomes] == [("assert", 3)]

    def test_float_builtin_best_effort(self):
        outcome = run_src(read_data("tritype_float.c"), "Tritype")
        # best-effort float solving: whatever the seed set reaches is
        # covered; everything else is reported, never silently dropped
        report = outcome.report
        assert report.edges_covered + len(report.uncovered) == report.edges_total
        assert outcome.test_cases  # seeds cover at least some paths


class TestMultiFunctionUnits:
    def test_annotated_prototype_shared_across_functions(self):
        """Extraction is idempotent; both functions see the callee's contract."""
        src = (
            '#include "rtt_annotations.h"\n'
            "int gv;\n"
            "int env(int w){ __rtt_modifies(gv); __rtt_postcondition(__rtt_return > 0); }\n"
            "int first(int x){ if (env(x) > 5) { return 1; } return 0; }\n"
            "int second(int x){ if (env(x) > 7) { return 1; } return 0; }\n"
        )
        unit = parse_unit(src, "<multi>")
        for name in ("first", "second"):
            outcome = generate_function(unit, unit.function(name),
                                        Config(out_dir="/tmp/ctg-extra"))
            assert outcome.status == "ok", outcome.message
            assert outcome.report.edge_percent == 100.0, name
            policy = outcome.layout.stub_policies["env"]
            assert policy.permitted_globals == ["gv"], name
            assert policy.posts, name

    def test_two_uuts_one_unit(self):
        src = ("int add(int a, int b){ if (a > b) { return a; } return b; }"
               "int mul(int a){ if (a < 0) { return -a; } return a; }")
        unit = parse_unit(src, "<pair>")
        for name in ("add", "mul"):
            outcome = generate_function(unit, unit.function(name),
                                        Config(out_dir="/tmp/ctg-extra"))
            assert outcome.report.edge_percent == 100.0


class TestRequirementFollowUp:
    def test_tag_needing_dedicated_inputs(self):
        """A tag whose precondition random coverage models will miss."""
        src = ('#include "rtt_annotations.h"\n'
               "int f(int x){\n"
               '  __rtt_testcase(x == 7777, __rtt_return == 15554, "LUCKY");\n'
               "  return x * 2;\n"
               "}\n")
        outcome = run_src(src, "f")
        tagged = [tc for tc in outcome.test_cases if "LUCKY" in tc.tags]
        assert tagged, [tc.tags for tc in outcome.test_cases]
        assert {c.name: c.value for c in tagged[0].cells}["x"] == 7777

    def test_infeasible_tag_reported_uncovered(self):
        src = ('#include "rtt_annotations.h"\n'
               "int f(int x){\n"
               '  __rtt_testcase(x > 0 && x < 0, __rtt_return == 0, "NEVER");\n'
               "  return x;\n"
               "}\n")
        unit = parse_unit(src, "<never>")
        fn = unit.function("f")
        from cunitgen.harness import trace_matrix_csv

        outcome = generate_function(unit, fn, Config(out_dir="/tmp/ctg-extra"))
        assert outcome.status == "ok"
        assert not any("NEVER" in tc.tags for tc in outcome.test_cases)
        csv = trace_matrix_csv("f", outcome.anns, outcome.test_cases)
        assert "NEVER,f,,uncovered" in csv


class TestStress:
    def test_wide_decision_chain(self):
        parts = ["int stress(int a, int b, int c, int d){ int r = 0;"]
        for i, v in enumerate(("a", "b", "c", "d")):
            parts.append(f" if ({v} > {i * 3}) {{ r = r + {i + 1}; }}"
                         f" else {{ r = r - {i + 1}; }}")
        parts.append(" while (r > 6) { r = r - 2; }")
        parts.append(" return r; }")
        outcome = run_src("".join(parts), "stress", max_depth=64)
        assert outcome.report.edge_percent == 100.0
        assert len(outcome.test_cases) <= 9  # decisions + 1 at most
        assert outcome.elapsed_s < 5.0


class TestEarlyStops:
    """A stopped loop names its reason on every edge it left undecided."""

    def test_deadline_reported_as_time_budget(self):
        outcome = run_src(read_data("tritype_int.c"), "Tritype", budget_ms=0)
        assert outcome.report.uncovered
        assert {u["verdict"] for u in outcome.report.uncovered} == {"time-budget"}

    def test_iteration_bound_reported(self, monkeypatch):
        monkeypatch.setattr(pipeline, "_MAX_ITERATIONS", 3)
        outcome = run_src(read_data("tritype_int.c"), "Tritype")
        assert len(outcome.selection_log) == 3
        assert outcome.report.uncovered
        assert {u["verdict"] for u in outcome.report.uncovered} == {"iteration-bound"}


# if (a_x + c > a_y) chains with a c = 0 cycle (a4 > a0 and a0 > a4), whose
# second branch is unsat after the first one on every path through both
BRANCH_CHAIN = """\
int chain(int a0, int a1, int a2, int a3, int a4)
{
    int r = 0;
    if (a0 + 7 > a1) { r = r + 1; }
    if (a1 - 4 > a2) { r = r + 1; }
    if (a2 + 9 > a3) { r = r + 1; }
    if (a3 - 2 > a4) { r = r + 1; }
    if (a0 + 7 > a1) { r = r + 1; }
    if (a1 - 4 > a2) { r = r + 1; }
    if (a4 + 0 > a0) { r = r + 1; }
    if (a0 + 0 > a4) { r = r + 1; }
    if (a2 + 9 > a3) { r = r + 1; }
    return r;
}
"""


class TestFailingPrefixScan:
    """The scan for the smallest failing prefix answers as solving each
    prefix in turn does, and calls ``solve`` only where that would search."""

    def test_scan_matches_prefix_by_prefix(self, monkeypatch):
        scan = pipeline._Session._min_failing_index
        real_solve = pipeline.solve
        calls = []
        scans = []

        def recording_solve(constraint, *args, **kwargs):
            result = real_solve(constraint, *args, **kwargs)
            calls.append((len(constraint.conjuncts), result.status, result.nodes))
            return result

        def prefix_by_prefix(session, constraint):
            """The answer, and the calls that did not return the hint."""
            hint, searched = session.last_model, []
            total = constraint.branch_count()
            for k in range(total + 1):
                prefix = constraint.prefix(k)
                r = solve(prefix, session.config.budget_nodes, hint=hint)
                if r.status != "sat" or r.nodes:
                    searched.append((len(prefix.conjuncts), r.status, r.nodes))
                if r.model is not None and r.nodes:
                    hint = r.model
                if r.status != "sat":
                    return (k - 1, r.status), searched
            return (total - 1, "unsat"), searched

        def checked_scan(session, constraint):
            expected, searched = prefix_by_prefix(session, constraint)
            calls.clear()
            answer = scan(session, constraint)
            assert answer == expected
            assert calls == searched
            scans.append((answer, len(calls)))
            return answer

        monkeypatch.setattr(pipeline, "solve", recording_solve)
        monkeypatch.setattr(pipeline._Session, "_min_failing_index", checked_scan)
        units = [(name, read_data(name)) for name in sorted(os.listdir(DATA_DIR))
                 if name.endswith(".c")]
        for name, text in units + [("chain.c", BRANCH_CHAIN)]:
            unit = parse_unit(text, name)
            for fn in unit.functions:
                if fn.body is not None and not fn.annotation_only:
                    generate_function(unit, fn, Config(out_dir="/tmp/ctg-extra"))
        chain_scans = [s for s in scans if s[0] == (7, "unsat")]
        assert chain_scans
        # the chain's scans skip the 7 prefixes the last model satisfies
        assert all(n == 1 for _answer, n in chain_scans)
