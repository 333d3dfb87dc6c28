"""Symbolic test case tree: lazy expansion and prioritized trace selection.

The tree stores bounded paths through the CFG. A node is the pair (CFG node
id, occurrence number k); (n, k) is unique in the tree even when n repeats
along cyclic paths. Expansion is incremental: children are added node by
node along unconditional chains and stops as soon as an uncovered edge with
a non-trivial guard shows up at the frontier, or when no expansion below a
node can reveal further uncovered edges.

Selection extends the trace currently under investigation when its frontier
still offers an uncovered non-trivial edge; otherwise it runs the trace to
the exit to finish a test case, and after that picks the globally closest
uncovered edge (shortest CFG distance from the start node, ties broken by
smaller node id, then true before false), finds a tree instance of it and
walks bottom-up to the root.

The depth bound is enforced once, when a node is created: a node at depth
d (the root has depth 0) gets no child c when d + 1 plus the CFG distance
from c to the exit exceeds the bound, because no trace through c could reach
the exit within it. Every tree node can therefore still complete within the
bound, and the CFG node of each node that was refused a child is recorded in
CoverageState.bound_nodes: edges reachable from there may lie beyond the
bound, so they are never reported infeasible-proven.

Pruning removes the subtree hanging off an infeasible branch for good; an
edge pruned under one prefix stays selectable under others. A trace that can
be neither extended nor completed loses its leaf the same way.
"""

from __future__ import annotations

from .imr import Cfg, CfgEdge, Target


class StctNode:
    def __init__(self, node_id: int, k: int, parent: StctNode | None,
                 in_edge: CfgEdge | None, depth: int, serial: int,
                 children: list[StctNode] | None = None, expanded: bool = False):
        self.node_id = node_id
        self.k = k
        self.parent = parent
        self.in_edge = in_edge
        self.depth = depth
        self.serial = serial
        self.children = [] if children is None else children
        self.expanded = expanded

    def __repr__(self) -> str:
        return f"StctNode(n{self.node_id},k{self.k})"


class Trace:
    def __init__(self, nodes: list[StctNode], edges: list[CfgEdge], complete: bool,
                 mode: str = "fresh", target_edge: CfgEdge | None = None):
        self.nodes = nodes
        self.edges = edges
        self.complete = complete
        self.mode = mode  # fresh, extend, complete
        self.target_edge = target_edge

    @property
    def leaf(self) -> StctNode:
        return self.nodes[-1]

    def conditional_positions(self) -> list[int]:
        return [i for i, e in enumerate(self.edges) if e.conditional]

    def guard_labels(self, cfg: Cfg) -> list[str]:
        texts = cfg.guard_texts
        return [texts[e.eid] for e in self.edges if e.conditional]


class CoverageState:
    def __init__(self, targets: set[Target], final_nodes: set[int] | None = None,
                 final_edges: set[int] | None = None,
                 pending_edges: set[int] | None = None,
                 pending_nodes: set[int] | None = None,
                 attempts: dict[int, list[str]] | None = None,
                 bound_nodes: set[int] | None = None,
                 unknown_nodes: set[int] | None = None, stopped: str = ""):
        self.targets = targets
        self.final_nodes = set() if final_nodes is None else final_nodes
        self.final_edges = set() if final_edges is None else final_edges
        self.pending_edges = set() if pending_edges is None else pending_edges
        self.pending_nodes = set() if pending_nodes is None else pending_nodes
        # per-edge verdicts of failed attempts: unsat / unknown
        self.attempts = {} if attempts is None else attempts
        # CFG nodes of tree nodes refused a child by the depth bound
        self.bound_nodes = set() if bound_nodes is None else bound_nodes
        # CFG destinations of edges pruned on an unknown verdict: nothing
        # behind them was decided
        self.unknown_nodes = set() if unknown_nodes is None else unknown_nodes
        # why generation stopped before exhausting the tree, if it did:
        # time-budget or iteration-bound
        self.stopped = stopped

    def edge_covered(self, eid: int) -> bool:
        return eid in self.final_edges or eid in self.pending_edges

    def mark_pending(self, trace: Trace) -> None:
        for sn in trace.nodes:
            self.pending_nodes.add(sn.node_id)
        for e in trace.edges:
            self.pending_edges.add(e.eid)

    def commit_pending(self) -> None:
        self.final_nodes |= self.pending_nodes
        self.final_edges |= self.pending_edges
        self.clear_pending()

    def clear_pending(self) -> None:
        self.pending_edges.clear()
        self.pending_nodes.clear()

    def record_attempt(self, edge: CfgEdge, verdict: str) -> None:
        self.attempts.setdefault(edge.eid, []).append(verdict)
        if verdict == "unknown":
            self.unknown_nodes.add(edge.dst)

    def complete_for(self, criterion: str) -> bool:
        for t in self.targets:
            if t.kind == "node" and t.ident not in self.final_nodes:
                return False
            if t.kind == "edge" and criterion == "c1" and t.ident not in self.final_edges:
                return False
        return True


class Stct:
    def __init__(self, cfg: Cfg, coverage: CoverageState, max_depth: int):
        self.cfg = cfg
        self.coverage = coverage
        self.max_depth = max_depth
        self._serial = 0
        self._k: dict[int, int] = {}
        self.root = self._make_node(cfg.entry, None, None)
        self.instances: dict[int, list[StctNode]] = {}  # cfg edge id -> children
        self.exhausted = False  # retiring a trace left the root without a child

    # -- construction ---------------------------------------------------------

    def _make_node(self, cfg_node: int, parent: StctNode | None,
                   in_edge: CfgEdge | None) -> StctNode:
        k = self._k.get(cfg_node, 0)
        self._k[cfg_node] = k + 1
        depth = 0 if parent is None else parent.depth + 1
        node = StctNode(cfg_node, k, parent, in_edge, depth, self._serial)
        self._serial += 1
        return node

    def ensure_children(self, node: StctNode) -> None:
        if node.expanded:
            return
        for edge in self.cfg.out_edges(node.node_id):
            if node.depth + 1 + self.cfg.exit_distance(edge.dst) > self.max_depth:
                self.coverage.bound_nodes.add(node.node_id)
                continue
            child = self._make_node(edge.dst, node, edge)
            node.children.append(child)
            self.instances.setdefault(edge.eid, []).append(child)
        node.expanded = True

    def expand(self, leaf: StctNode) -> int:
        """Incremental expansion below leaf; returns number of nodes added.

        Descends through unconditional and already-covered edges, stopping
        a branch at the first uncovered non-trivial edge and wherever no
        uncovered target is reachable any more.
        """
        before = self._serial
        worth = self._reachable_uncovered()
        work = [leaf]
        while work:
            node = work.pop(0)
            if node.node_id not in worth:
                continue
            self.ensure_children(node)
            for child in node.children:
                if child.expanded:
                    continue
                e = child.in_edge
                assert e is not None
                if e.conditional and not self.coverage.edge_covered(e.eid):
                    continue  # frontier target: stop this branch
                work.append(child)
        return self._serial - before

    def _reachable_uncovered(self) -> dict[int, int]:
        """CFG nodes from which an uncovered target is still reachable."""
        uncovered_srcs = set()
        for t in self.coverage.targets:
            if t.kind == "edge" and not self.coverage.edge_covered(t.ident):
                uncovered_srcs.add(self.cfg.edges[t.ident].src)
            elif t.kind == "node" and t.ident not in self.coverage.final_nodes \
                    and t.ident not in self.coverage.pending_nodes:
                uncovered_srcs.add(t.ident)
        return self.cfg.distances(uncovered_srcs, forward=False)

    # -- traces ----------------------------------------------------------------

    def trace_to(self, node: StctNode, mode: str,
                 target: CfgEdge | None) -> Trace:
        chain: list[StctNode] = []
        cur: StctNode | None = node
        while cur is not None:
            chain.append(cur)
            cur = cur.parent
        chain.reverse()
        edges = [sn.in_edge for sn in chain[1:]]
        trace = Trace(chain, edges, chain[-1].node_id == self.cfg.exit, mode, target)
        return self._slide(trace)

    def _slide(self, trace: Trace) -> Trace:
        """Extend through forced unconditional chains up to the next decision."""
        while True:
            leaf = trace.leaf
            if leaf.node_id == self.cfg.exit:
                trace.complete = True
                return trace
            outs = self.cfg.out_edges(leaf.node_id)
            if len(outs) != 1 or outs[0].conditional:
                return trace
            self.ensure_children(leaf)
            nxt = [c for c in leaf.children if c.in_edge is outs[0]]
            if not nxt:
                return trace
            trace.nodes.append(nxt[0])
            trace.edges.append(outs[0])

    # -- selection ---------------------------------------------------------------

    def select_trace(self, active: Trace | None) -> Trace | None:
        """Next trace to hand to the interpreter, or None when done.

        An active trace that can neither be extended nor completed (its
        continuations were pruned) can never become a test case, and is
        retired.
        """
        self.ensure_children(self.root)
        if active is not None and not active.complete:
            extended = self._extend(active)
            if extended is not None:
                return extended
            completed = self._complete(active)
            if completed is not None:
                return completed
            self.retire(active)
        return None if self.exhausted else self._fresh()

    def _edge_priority(self, edge: CfgEdge) -> tuple[int, int, int]:
        return (self.cfg.root_distance(edge), edge.src,
                0 if edge.polarity else 1)

    def _extend(self, active: Trace) -> Trace | None:
        leaf = active.leaf
        self.expand(leaf)
        best: tuple[tuple[int, int, int], int, StctNode] | None = None
        work = [leaf]
        while work:
            node = work.pop(0)
            for child in node.children:
                e = child.in_edge
                assert e is not None
                if e.conditional and not self.coverage.edge_covered(e.eid):
                    key = (self._edge_priority(e), child.serial, child)
                    if best is None or key[:2] < best[:2]:
                        best = key
                    continue
                work.append(child)
        if best is None:
            return None
        child = best[2]
        return self.trace_to(child, "extend", child.in_edge)

    def _complete(self, active: Trace) -> Trace | None:
        """Shortest continuation from the active leaf to the exit node."""
        frontier = [active.leaf]
        while frontier:
            nxt: list[StctNode] = []
            for node in frontier:
                self.ensure_children(node)
                for child in node.children:
                    if child.node_id == self.cfg.exit:
                        return self.trace_to(child, "complete", None)
                    nxt.append(child)
            frontier = nxt
        return None

    def _fresh(self) -> Trace | None:
        while True:
            ranked = sorted(
                (e for e in self.cfg.edges
                 if e.conditional and not self.coverage.edge_covered(e.eid)
                 and e.src not in self.cfg.unreachable),
                key=self._edge_priority,
            )
            for edge in ranked:
                options = self.instances.get(edge.eid, [])
                if options:
                    child = min(options, key=lambda n: (n.depth, n.serial))
                    return self.trace_to(child, "fresh", edge)
            if not self._forced_expansion_sweep():
                return self._fresh_for_nodes()

    def _fresh_for_nodes(self) -> Trace | None:
        """C0 backstop: reach an uncovered node through already-covered edges."""
        wanted = {t.ident for t in self.coverage.targets
                  if t.kind == "node" and t.ident not in self.coverage.final_nodes}
        if not wanted:
            return None
        best: StctNode | None = None
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.node_id in wanted:
                if best is None or node.serial < best.serial:
                    best = node
            stack.extend(reversed(node.children))
        if best is None:
            return None
        return self.trace_to(best, "fresh", best.in_edge)

    def _forced_expansion_sweep(self) -> int:
        grown = 0
        stack = [self.root]
        leaves: list[StctNode] = []
        while stack:
            node = stack.pop()
            if not node.expanded:
                leaves.append(node)
            stack.extend(reversed(node.children))
        for leaf in sorted(leaves, key=lambda n: n.serial):
            grown += self.expand(leaf)
        return grown

    # -- pruning -----------------------------------------------------------------

    def prune_infeasible(self, trace: Trace, failing_branch_index: int) -> CfgEdge:
        """Remove the subtree hanging off the failing branch of a trace."""
        pos = trace.conditional_positions()[failing_branch_index]
        self._cut(trace.nodes[pos + 1])
        return trace.edges[pos]

    def retire(self, trace: Trace) -> None:
        """Prune the trace's leaf, so that no later selection proposes the
        trace again, and each ancestor that this leaves without a child: no
        trace through it can reach the exit any more. When that reaches the
        root, nothing is left to select."""
        node = trace.leaf
        while node.parent is not None:
            parent = node.parent
            self._cut(node)
            if parent.children:
                return
            node = parent
        self.exhausted = True

    def _cut(self, node: StctNode) -> None:
        """Remove node and its subtree from its parent for good."""
        parent = node.parent
        assert parent is not None
        if node in parent.children:
            parent.children.remove(node)
        self._deregister(node)

    def _deregister(self, node: StctNode) -> None:
        e = node.in_edge
        if e is not None:
            lst = self.instances.get(e.eid, [])
            if node in lst:
                lst.remove(node)
        for child in node.children:
            self._deregister(child)

    # -- debugging -----------------------------------------------------------------

    def dump(self) -> str:
        lines: list[str] = ["stct"]

        texts = self.cfg.guard_texts

        def walk(node: StctNode, indent: int) -> None:
            label = f"(n{node.node_id},k{node.k})"
            if node.in_edge is not None and node.in_edge.conditional:
                label += f" <{texts[node.in_edge.eid]}>"
            lines.append("  " * indent + label)
            for child in node.children:
                walk(child, indent + 1)

        walk(self.root, 1)
        return "\n".join(lines) + "\n"
