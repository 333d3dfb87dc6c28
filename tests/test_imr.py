"""CFG lowering tests: shapes, guards, coverage targets, dumps."""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DATA_DIR, read_data

import cunitgen.pipeline as pipeline
from cunitgen.config import Config
from cunitgen.frontend import extract_annotations, parse_unit
from cunitgen.imr import (
    Cfg,
    dump_cfg,
    enumerate_coverage_targets,
    guard_text,
    lower,
)
from cunitgen.stct import CoverageState, Stct


def build(src: str, fn_name: str) -> Cfg:
    unit = parse_unit(src)
    fn = unit.function(fn_name)
    extract_annotations(fn)
    return lower(unit, fn)


def build_file(name: str, fn_name: str) -> Cfg:
    unit = parse_unit(read_data(name), name)
    fn = unit.function(fn_name)
    extract_annotations(fn)
    return lower(unit, fn)


def decision_nodes(cfg: Cfg):
    return [n for n in cfg.nodes if n.is_decision and n.nid not in cfg.unreachable]


def in_edges(cfg: Cfg, nid: int):
    return [e for e in cfg.edges if e.dst == nid]


def decision_count(cfg: Cfg) -> int:
    return len(decision_nodes(cfg))


def guarded_edges(cfg: Cfg):
    return [e for e in cfg.edges if e.conditional and e.src not in cfg.unreachable]


class TestLowering:
    def test_single_if(self):
        cfg = build("int f(int a){ if (a) { return 1; } return 0; }", "f")
        decisions = decision_nodes(cfg)
        assert len(decisions) == 1
        outs = cfg.out_edges(decisions[0].nid)
        assert [e.polarity for e in outs] == [True, False]
        assert guard_text(cfg, outs[0]) == "a"
        assert guard_text(cfg, outs[1]) == "!a"

    def test_entry_exit_unique(self):
        cfg = build_file("alloc.c", "alloc")
        assert in_edges(cfg, cfg.entry) == []
        assert cfg.out_edges(cfg.exit) == []
        entries = [n for n in cfg.nodes if not in_edges(cfg, n.nid)
                   and n.nid not in cfg.unreachable]
        assert entries == [cfg.node(cfg.entry)]

    def test_short_circuit_and(self):
        cfg = build("int f(int p, int q){ if (p && q) { return 1; } return 0; }", "f")
        decisions = decision_nodes(cfg)
        assert len(decisions) == 2
        p_node = next(n for n in decisions if guard_text(cfg, cfg.out_edges(n.nid)[0]) == "p")
        q_node = next(n for n in decisions if n is not p_node)
        # q is reached only along the p-true edge
        true_edge = cfg.out_edges(p_node.nid)[0]
        assert true_edge.dst == q_node.nid
        false_edge = cfg.out_edges(p_node.nid)[1]
        assert false_edge.dst != q_node.nid

    def test_decision_out_degree_invariant(self):
        for name, fn in [("alloc.c", "alloc"), ("alloc_ptr.c", "alloc_ptr"),
                         ("tritype_int.c", "Tritype"), ("fig3.c", "select_demo")]:
            cfg = build_file(name, fn)
            total = sum(len(cfg.out_edges(n.nid)) for n in decision_nodes(cfg))
            assert total == 2 * len(decision_nodes(cfg))
            for n in decision_nodes(cfg):
                outs = cfg.out_edges(n.nid)
                assert [e.polarity for e in outs] == [True, False]
                assert guard_text(cfg, outs[1]) in (
                    f"!{guard_text(cfg, outs[0])}", f"!({guard_text(cfg, outs[0])})")

    def test_guards_are_literal_negations(self):
        cfg = build_file("comp_ptr.c", "comp_ptr")
        for n in decision_nodes(cfg):
            t, f = cfg.out_edges(n.nid)
            assert guard_text(cfg, f).lstrip("!").strip("()") == \
                guard_text(cfg, t).strip("()")

    def test_loop_normalization(self):
        cfg_for = build(
            "int f(int n){ int s = 0; for (int i = 0; i < n; i = i + 1) { s = s + i; } return s; }",
            "f")
        cfg_while = build(
            "int f(int n){ int s = 0; int i = 0; while (i < n) { s = s + i; i = i + 1; } return s; }",
            "f")
        assert decision_count(cfg_for) == decision_count(cfg_while) == 1
        # both loops have a back edge to the condition node
        for cfg in (cfg_for, cfg_while):
            cond = decision_nodes(cfg)[0]
            assert any(e.src != cfg.entry for e in in_edges(cfg, cond.nid))

    def test_ternary_is_a_decision(self):
        cfg = build("int f(int a){ int x = a > 0 ? 1 : 2; return x; }", "f")
        assert decision_count(cfg) == 1

    def test_switch_cascade(self):
        cfg = build(
            "int f(int x){ switch (x) { case 1: return 10; case 2: return 20;"
            " default: return 0; } }",
            "f")
        assert decision_count(cfg) == 2  # one equality test per non-default label

    def test_switch_fallthrough(self):
        cfg = build(
            "int f(int x){ int r = 0; switch (x) { case 1: r = r + 1;"
            " case 2: r = r + 2; break; default: r = 9; } return r; }",
            "f")
        assert decision_count(cfg) == 2

    def test_tritype_int_decision_count(self):
        cfg = build_file("tritype_int.c", "Tritype")
        assert decision_count(cfg) == 10
        assert len(guarded_edges(cfg)) == 20

    def test_alloc_ptr_branch_pairs(self):
        # golden count pinned from the first lowering of the Table 4 listing
        cfg = build_file("alloc_ptr.c", "alloc_ptr")
        assert decision_count(cfg) == 3
        assert len(guarded_edges(cfg)) == 6

    def test_defined_callee_inlined(self):
        src = (
            "int helper(int x){ if (x > 0) { return x; } return -x; }"
            "int f(int a){ return helper(a) + 1; }"
        )
        cfg = build(src, "f")
        assert decision_count(cfg) == 1  # helper's decision shows up in f

    def test_unreachable_code_flagged(self):
        cfg = build("int f(void){ return 1; int x = 2; return x; }", "f")
        assert cfg.unreachable


class TestCoverageTargets:
    def test_fig3_c1_includes_both_outer_edges(self):
        cfg = build_file("fig3.c", "select_demo")
        targets = enumerate_coverage_targets(cfg)
        edge_ids = {t.ident for t in targets if t.kind == "edge"}
        outer = min(decision_nodes(cfg), key=lambda n: n.nid)
        for e in cfg.out_edges(outer.nid):
            assert e.eid in edge_ids


class TestDump:
    def test_dump_is_deterministic(self):
        a = dump_cfg(build_file("alloc.c", "alloc"))
        b = dump_cfg(build_file("alloc.c", "alloc"))
        assert a == b

    def test_dump_mentions_guards(self):
        text = dump_cfg(build_file("fig3.c", "select_demo"))
        assert "[a]" in text and "[!a]" in text

    def test_dump_alloc_ptr_golden_shape(self):
        text = dump_cfg(build_file("alloc_ptr.c", "alloc_ptr"))
        assert text.count("decision") == 3
        assert "allocbufp == 0" in text
        assert "allocp == 0" in text


def data_cfgs() -> list[Cfg]:
    cfgs = []
    for name in sorted(os.listdir(DATA_DIR)):
        unit = parse_unit(read_data(name), name)
        for fn in unit.functions:
            if fn.body is not None and not fn.annotation_only:
                extract_annotations(fn)
                cfgs.append(lower(unit, fn))
    return cfgs


class TestDistances:
    """Cfg.distances against the plain definitions, on every data CFG."""

    @pytest.fixture(scope="class")
    def cfgs(self):
        cfgs = data_cfgs()
        assert len(cfgs) >= 12
        # a loop with no way out: the exit is out of reach from most nodes
        return cfgs + [build("int f(int x){ for (;;) { if (x) x = x + 1; } return x; }", "f")]

    def test_backward_reachability_is_the_predecessor_fixpoint(self, cfgs):
        for cfg in cfgs:
            start_sets = [{n.nid} for n in cfg.nodes]
            start_sets.append({e.src for e in cfg.edges if e.conditional})
            for starts in start_sets:
                fixpoint = set(starts)
                changed = True
                while changed:
                    changed = False
                    for e in cfg.edges:
                        if e.dst in fixpoint and e.src not in fixpoint:
                            fixpoint.add(e.src)
                            changed = True
                assert set(cfg.distances(starts, forward=False)) == fixpoint

    def test_exit_distance_is_a_forward_bfs_to_the_exit(self, cfgs):
        for cfg in cfgs:
            for n in cfg.nodes:
                dist, frontier, seen = 0, {n.nid}, {n.nid}
                while frontier and cfg.exit not in frontier:
                    frontier = {e.dst for m in frontier for e in cfg.out_edges(m)} - seen
                    seen |= frontier
                    dist += 1
                expected = dist if frontier else 1 << 30
                assert cfg.exit_distance(n.nid) == expected, (cfg.name, n.nid)


def chain(k: int) -> str:
    """k decisions in a row, each over two of four int inputs."""
    body = "\n".join(f"    if (a{i % 4} + {i - 20} > a{(i + 1) % 4}) {{ r = r + 1; }}"
                     for i in range(k))
    return (f"int chain(int a0, int a1, int a2, int a3)\n{{\n    int r = 0;\n"
            f"{body}\n    return r;\n}}\n")


class TestReachMasks:
    """The reach masks selection starts from, against the backward search
    they replace."""

    @pytest.fixture(scope="class")
    def cases(self):
        cfgs = data_cfgs() + [build(chain(20), "chain"),
                              build("int f(int x){ for (;;) { if (x) x = x + 1; } return x; }",
                                    "f")]
        return [(cfg, enumerate_coverage_targets(cfg)) for cfg in cfgs]

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_mask_meets_uncovered_bits_where_the_backward_search_reaches(self, cases, data):
        for cfg, targets in cases:
            final = data.draw(st.sets(st.sampled_from(targets)) if targets else st.just(set()))
            pending = data.draw(st.sets(st.sampled_from(targets)) if targets else st.just(set()))
            coverage = CoverageState(targets)
            coverage.uncovered = sum(1 << bit for bit, t in enumerate(coverage.ordered)
                                     if t not in final and t not in pending)
            masks = cfg.reach_masks([cfg.edges[t.ident].src if t.kind == "edge"
                                     else t.ident for t in coverage.ordered])
            # the root's live mask before the first selection is its node's
            assert Stct(cfg, coverage, 256).root.live == masks[cfg.entry], cfg.name
            anchors = {cfg.edges[t.ident].src if t.kind == "edge" else t.ident
                       for t in targets if t not in final and t not in pending}
            reached = {n.nid for n in cfg.nodes if masks[n.nid] & coverage.uncovered}
            assert reached == set(cfg.distances(anchors, forward=False)), cfg.name

    def test_generation_runs_no_backward_search_per_expansion(self, monkeypatch):
        """Cfg.distances runs while the CFG is built and while the report is
        written, as often for 40 decisions as for 8."""
        calls = []
        original = Cfg.distances

        def counting(cfg, *args, **kwargs):
            calls.append(cfg.name)
            return original(cfg, *args, **kwargs)

        monkeypatch.setattr(Cfg, "distances", counting)
        counts = []
        for k in (8, 40):
            unit = parse_unit(chain(k), "chain.c")
            calls.clear()
            outcome = pipeline.generate_function(
                unit, unit.function("chain"), Config(out_dir="/tmp/ctg-imr"))
            assert outcome.status == "ok" and len(outcome.selection_log) >= 2 * k
            counts.append(len(calls))
        assert counts == [4, 4]
