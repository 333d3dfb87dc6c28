"""Symbolic test case tree: expansion, selection order, pruning."""

from conftest import read_data, same_records

from cunitgen.config import Config
from cunitgen.frontend.parser import parse_unit
from cunitgen.pipeline import generate_function


def run(src: str, fn_name: str, file_name: str = "<test>", **cfg_kwargs):
    unit = parse_unit(src, file_name)
    fn = unit.function(fn_name)
    outcome = generate_function(unit, fn, Config(out_dir="/tmp/ctg-stct", **cfg_kwargs))
    assert outcome.status == "ok", outcome.message
    return outcome


class TestSelectionOrder:
    def test_walkthrough_sequence(self):
        """The published expansion/selection example, step by step."""
        outcome = run(read_data("fig3.c"), "select_demo")
        labels = [rec.labels for rec in outcome.selection_log]
        assert labels[0] == ["a"]
        assert labels[1] == ["a", "b"]
        # the process continues on the same path until it completes
        complete_idx = next(i for i, rec in enumerate(outcome.selection_log)
                            if rec.complete)
        for i in range(2, complete_idx + 1):
            assert labels[i][:2] == ["a", "b"]
        # afterwards the prioritized fresh trace goes through !a
        assert labels[complete_idx + 1] == ["!a"]
        assert outcome.report.edge_percent == 100.0

    def test_initial_expansion_exposes_both_edges(self):
        outcome = run(read_data("fig3.c"), "select_demo")
        first = outcome.selection_log[0]
        assert first.mode == "fresh"
        assert not first.complete

    def test_diamond_priority_closest_first(self):
        """Of two uncovered edges at different distances, nearer one first."""
        src = ("int two(int a, int b){ int r = 0;"
               " if (a) { r = 1; } if (b) { r = r + 2; } return r; }")
        outcome = run(src, "two")
        fresh = [rec.labels for rec in outcome.selection_log if rec.mode == "fresh"]
        # after the first path, !a (distance of the first decision) is
        # targeted before !b (one decision deeper)
        assert fresh[1] == ["!a"]
        order = [rec.labels[-1] for rec in outcome.selection_log]
        assert order.index("!a") < order.index("!b")
        assert outcome.report.edge_percent == 100.0

    def test_all_covered_returns_none(self):
        outcome = run("int f(int a){ if (a) { return 1; } return 0; }", "f")
        assert outcome.report.edge_percent == 100.0
        # the log is finite and generation terminated by itself
        assert len(outcome.selection_log) < 10

    def test_loop_free_trace_budget(self):
        """Loop-free, all-feasible: solver-accepted completions <= decisions + 1."""
        src = ("int chain(int a, int b, int c){ int r = 0;"
               " if (a) { r = r + 1; }"
               " if (b) { r = r + 2; }"
               " if (c) { r = r + 4; }"
               " return r; }")
        outcome = run(src, "chain")
        assert outcome.report.edge_percent == 100.0
        assert len(outcome.test_cases) <= 3 + 1


class TestLoopUnwinding:
    def test_concrete_loop_exits_after_three_unwindings(self):
        src = ("int loop3(void){ int i = 0; int n = 0;"
               " while (i < 3) { i = i + 1; n = n + 1; } return n; }")
        outcome = run(src, "loop3", max_depth=50)
        assert outcome.report.edge_percent == 100.0
        assert len(outcome.test_cases) == 1
        tc = outcome.test_cases[0]
        # three iterations: the loop guard was taken true three times
        assert tc.trace_labels.count("i < 3") == 3
        assert tc.trace_labels.count("!(i < 3)") == 1
        # premature exits were pruned as infeasible along the way
        folded = [rec for rec in outcome.selection_log
                  if rec.verdict == "infeasible(folded)"]
        assert len(folded) >= 1

    def test_symbolic_loop_bound(self):
        src = ("int loopn(int n){ int i = 0; int s = 0;"
               " while (i < n) { s = s + 1; i = i + 1; } return s; }")
        outcome = run(src, "loopn", max_depth=50)
        assert outcome.report.edge_percent == 100.0

    def test_depth_bound_reported_not_fatal(self):
        src = ("int forever(int n){ int i = 0;"
               " while (i >= 0) { i = i + 1; } return i; }")
        outcome = run(src, "forever", max_depth=12)
        assert outcome.status == "ok"
        # the loop exit is unreachable within the bound; reported, not silent
        assert outcome.report.edge_percent < 100.0
        verdicts = {u["verdict"] for u in outcome.report.uncovered}
        assert verdicts <= {"depth-bound", "budget-exhausted", "infeasible-proven"}
        # a trace that can neither extend nor complete loses its leaf, so
        # selection runs out instead of re-proposing it until the iteration
        # bound; both edges lie beyond the bound, so neither is proven
        assert len(outcome.selection_log) < 100
        assert verdicts == {"depth-bound"}

    def test_depth_bound_never_proves_infeasible(self):
        """An edge reachable from a depth-bounded subtree is not proven."""
        src = ("int f(int n) { int i = 0; while (i < n) i = i + 1;"
               " if (i == 12) return 1; return 0; }")
        bounded = run(src, "f", max_depth=20)
        verdicts = {u["description"]: u["verdict"] for u in bounded.report.uncovered}
        assert verdicts == {"n4 -> n5 [i == 12]": "depth-bound"}
        # the edge is feasible: the default bound covers it with n = 12
        assert run(src, "f").report.edge_percent == 100.0


class TestPruning:
    def test_nested_contradiction_still_covers_alternative(self):
        src = ("int f(int x){ int r = 0;"
               " if (x > 0) { if (x < 0) { r = 1; } else { r = 2; } }"
               " return r; }")
        outcome = run(src, "f")
        # inner true branch is impossible under the outer true prefix
        uncovered = outcome.report.uncovered
        assert len(uncovered) == 1
        assert uncovered[0]["verdict"] == "infeasible-proven"
        assert "x < 0" in uncovered[0]["description"]
        # but the inner false branch was still covered
        assert any("!(x < 0)" in lbl for tc in outcome.test_cases
                   for lbl in tc.trace_labels)

    def test_infeasible_pair_never_reproposed(self):
        src = ("int f(int x){ int r = 0;"
               " if (x > 0) { if (x < 0) { r = 1; } } return r; }")
        outcome = run(src, "f")
        attempts = [rec for rec in outcome.selection_log
                    if rec.labels[-2:] == ["x > 0", "x < 0"]]
        assert len(attempts) <= 1

    def test_selection_deterministic(self):
        src = read_data("tritype_int.c")
        a = run(src, "Tritype")
        b = run(src, "Tritype")
        assert [r.labels for r in a.selection_log] == [r.labels for r in b.selection_log]
        assert same_records([tc.cells for tc in a.test_cases],
                            [tc.cells for tc in b.test_cases])


def nested_ifs(levels: int) -> str:
    opens = "".join(f" if (x > {i}) {{" for i in range(levels))
    return f"int deep(int x) {{ int r = 0;{opens} r = 1;{' }' * levels} return r; }}"


class TestDepthBound:
    def test_nested_ifs_past_the_bound_end_at_the_bound(self):
        """Levels no trace can reach within --max-depth cost no deadline."""
        outcome = run(nested_ifs(130), "deep", budget_ms=10000)
        verdicts = [u["verdict"] for u in outcome.report.uncovered]
        assert verdicts and set(verdicts) == {"depth-bound"}
        assert outcome.report.edges_covered + len(verdicts) == outcome.report.edges_total

    def test_every_tree_node_can_still_reach_the_exit(self):
        """No node is created from which the exit lies beyond the bound."""
        outcome = run(read_data("fig3.c"), "select_demo", max_depth=40,
                      dump_stct=True)
        lines = outcome.stct_dump.splitlines()
        assert lines[0] == "stct" and len(lines) > 40
        for line in lines[1:]:
            depth = (len(line) - len(line.lstrip())) // 2 - 1
            node_id = int(line.split()[0].split(",")[0].lstrip("(n"))
            assert depth + outcome.cfg.exit_distance(node_id) <= 40, line

    def test_loop_without_exit_grows_no_tree(self):
        """No trace can reach the exit, so the root gets no child at all."""
        outcome = run("int f(int x){ for (;;) { if (x > 3) x = x + 1; } return x; }",
                      "f", dump_stct=True)
        assert outcome.stct_dump == "stct\n  (n0,k0)\n"
        assert [u["verdict"] for u in outcome.report.uncovered] == ["depth-bound"] * 2
        assert not outcome.test_cases
