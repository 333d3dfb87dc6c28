"""End-to-end coverage for constructs the core corpus does not exercise."""

import gc
import os
import weakref

from conftest import DATA_DIR, read_data

import cunitgen.pipeline as pipeline
from cunitgen.cli import main
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

    def test_case_labels_take_the_scrutinee_type(self):
        # case -1 on an unsigned is 4294967295, a value u takes; case 300 on
        # a char compares in int, where c never reaches it
        src = ("int f(unsigned u, char c){ switch (u) { case -1: return 1; }"
               " switch (c) { case 300: return 2; } return 0; }")
        outcome = run_src(src, "f")
        assert any("u == 4294967295" in tc.trace_labels for tc in outcome.test_cases)
        assert [(u["description"], u["verdict"]) for u in outcome.report.uncovered] \
            == [("n2 -> n7 [c == 300]", "infeasible-proven")]

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


def prefixed_hard_edge(j: int) -> str:
    """An infeasible edge, then j diamonds before x * y == 391, which no
    search of 1000 nodes decides, so that edge is tried once under each of
    the 2^j prefixes. The infeasible edge is proven only by a run that ends
    on its own."""
    params = "".join(f", int a{i}" for i in range(j))
    body = "".join(f" if (a{i} > 0) {{ r = r + 1; }}" for i in range(j))
    return (f"int h(int x, int y{params}) {{ int r = 0;"
            f" if (x > 5) {{ if (x < 3) {{ r = 1; }} }}{body}"
            f" if (x * y == 391) {{ r = 99; }} return r; }}")


def written_files(out_dir) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


class TestClock:
    """The clock decides no verdict: it only fails a function that is still
    generating at --budget-ms."""

    def test_artifacts_do_not_depend_on_the_clock(self, tmp_path, monkeypatch):
        # 1024 prefixes reach the hard edge and the pool holds 50 searches
        # of it, so the run stays short of the guard on the fast clock;
        # searching it under every prefix would take some ten times as long
        unit = parse_unit(prefixed_hard_edge(10), "h.c")
        fn = unit.function("h")
        real = pipeline.time.monotonic
        origin = real()
        for run, clock in (("normal", real), ("fast", lambda: origin + 10 * (real() - origin))):
            monkeypatch.setattr(pipeline.time, "monotonic", clock)
            config = Config(out_dir=str(tmp_path / run), budget_nodes=1000, quiet=True)
            session = pipeline._Session(unit, fn, config)
            outcome = session.run()
            assert outcome.status == "ok", outcome.message
            assert session.pool == 0
            assert "infeasible-proven" in {u["verdict"] for u in outcome.report.uncovered}
            os.makedirs(config.out_dir)
            pipeline.write_outputs(outcome, unit, config)
        assert written_files(tmp_path / "normal") == written_files(tmp_path / "fast")

    def test_budget_ms_guard_fails_only_its_function(self, tmp_path, capsys):
        text = read_data("tritype_int.c") + "void idle(void) { }\n"
        unit = parse_unit(text, "two.c")
        outcome = generate_function(unit, unit.function("Tritype"),
                                    Config(out_dir=str(tmp_path), budget_ms=0))
        assert outcome.status == "error"
        assert "--budget-ms" in outcome.message and "\n" not in outcome.message
        # the CLI still generates the function that finishes in no time
        source = tmp_path / "two.c"
        source.write_text(text)
        out_dir = tmp_path / "out"
        assert main([str(source), "--budget-ms", "0", "--out-dir", str(out_dir)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error [Tritype]: --budget-ms (0)")
        assert not [n for n in os.listdir(out_dir) if n.startswith("Tritype_")]
        assert os.path.exists(out_dir / "idle_driver.c")


class TestEarlyStops:
    """A stopped loop names its reason on every edge it left undecided."""

    def test_iteration_bound_reported(self, monkeypatch):
        monkeypatch.setattr(pipeline, "_MAX_ITERATIONS", 3)
        outcome = run_src(read_data("tritype_int.c"), "Tritype")
        assert len(outcome.selection_log) == 3
        assert outcome.report.uncovered
        assert {u["verdict"] for u in outcome.report.uncovered} == {"iteration-bound"}

    def test_undecided_trace_without_a_branch_is_not_selected_again(self):
        # once both edges are pruned as unknown, the C0 backstop proposes the
        # trace up to the decision, which has no conditional edge to prune;
        # the loop used to select it again until the deadline
        hard = "int f(int *p, int a, int b) { int v = p[a * b - 391]; if (v > 0) return 1; return 0; }"
        # the lower corner of the index bounds, x and p's offset at their
        # least, misses the array, so one node decides no trace of easy
        easy = "int f(int *p, int x) { if (p[x + 1] > 0) return 1; return 0; }"
        for src, budget in ((hard, 2000), (easy, 1)):
            outcome = run_src(src, "f", budget_nodes=budget)
            assert len(outcome.selection_log) <= 3
            assert not outcome.coverage.stopped
            assert [u["verdict"] for u in outcome.report.uncovered] == \
                ["budget-exhausted"] * 2

    def test_an_empty_pool_still_grants_the_root_node(self):
        # ten nodes factor no product, so the searches of 391 drain the pool
        # of 500; the trace of every false edge is still decided at its root
        params = ", ".join(f"int a{i}, int b{i}" for i in range(60))
        body = " ".join(f"if (a{i} * b{i} == 391) {{ r = r + 1; }}" for i in range(60))
        outcome = run_src(f"int f({params}) {{ int r = 0; {body} return r; }}", "f",
                          budget_nodes=10)
        assert len(outcome.test_cases) == 1
        assert (outcome.report.edges_covered, outcome.report.edges_total) == (60, 120)
        assert "unknown(search node budget (1) exhausted: node pool (500) empty)" in \
            {r.verdict for r in outcome.selection_log}

    PRE = ('#include "rtt_annotations.h"\n'
           "int f(int x, int y) { __rtt_precondition(%s); "
           "if (x < 0) { return 2; } return 0; }\n")

    def test_preconditions_log_their_verdict(self):
        # contradictory assumptions end generation after one selection
        outcome = run_src(self.PRE % "x > 1 && x < 0", "f")
        assert [(r.mode, r.verdict) for r in outcome.selection_log] == \
            [("fresh", "preconditions-unsat")]
        assert [u["verdict"] for u in outcome.report.uncovered] == ["unreachable"] * 2

    def test_undecided_preconditions_do_not_end_generation(self):
        # x < 0 against x > 1 is refuted, but five nodes do not decide the
        # assumptions alone: that branch is pruned as undecided, and the
        # feasible !(x < 0) is still tried
        outcome = run_src(self.PRE % "x * y == 391 && x > 1 && y > 1", "f",
                          budget_nodes=5)
        assert [(r.mode, r.verdict) for r in outcome.selection_log] == \
            [("fresh", "preconditions-unknown"),
             ("fresh", "unknown(search node budget (5) exhausted)")]
        assert [u["verdict"] for u in outcome.report.uncovered] == \
            ["budget-exhausted"] * 2


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


class TestAnalysisLifetime:
    """The solver's per-conjunct analysis goes with the carried root
    fixpoint, which the function's session keeps: both go with the
    function."""

    def test_conjunct_nodes_do_not_outlive_the_function(self, tmp_path, monkeypatch):
        real_solve = pipeline.solve
        refs = []
        domains = []
        analyses = []

        def watching_solve(constraint, *args, **kwargs):
            refs.append(weakref.ref(constraint.conjuncts[-1]))
            result = real_solve(constraint, *args, **kwargs)
            if result.fixpoint is not None:
                domains.extend(weakref.ref(d) for d in result.fixpoint.env.values())
                analyses.append(weakref.ref(result.fixpoint.analysis))
            return result

        monkeypatch.setattr(pipeline, "solve", watching_solve)
        unit = parse_unit(BRANCH_CHAIN, "chain.c")
        outcome = generate_function(unit, unit.functions[0], Config(out_dir=str(tmp_path)))
        assert outcome.status == "ok" and len(refs) > 10 and len(domains) > 10
        assert len(analyses) > 10
        gc.collect()
        assert [r for r in refs if r() is not None] == []
        assert [r for r in domains if r() is not None] == []
        assert [r for r in analyses if r() is not None] == []

    def test_same_unit_twice_same_artifacts(self, tmp_path):
        unit = parse_unit(BRANCH_CHAIN, "chain.c")
        texts = []
        for run in ("a", "b"):
            config = Config(out_dir=str(tmp_path / run))
            outcome = generate_function(unit, unit.functions[0], config)
            pipeline.write_outputs(outcome, unit, config)
            texts.append({name: (tmp_path / run / name).read_bytes()
                          for name in sorted(os.listdir(tmp_path / run))})
        assert len(texts[0]) == 4 and texts[0] == texts[1]
