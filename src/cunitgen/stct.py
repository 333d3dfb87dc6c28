"""Symbolic test case tree: lazy expansion and prioritized trace selection.

The tree stores bounded paths through the CFG. A node is the pair (CFG node
id, occurrence number k); (n, k) is unique in the tree even when n repeats
along cyclic paths. Expansion is incremental: children are added node by
node along unconditional chains and stops as soon as an uncovered edge with
a non-trivial guard shows up at the frontier, or when no expansion below a
node can reveal further uncovered edges. That last test reads a reach mask.
Coverage is one bit per target, held in CoverageState.uncovered (no test
case and no pending trace covers it) and CoverageState.unfinal (no test
case covers it), kept up as traces are marked, committed and cleared. Each
CFG node has a mask of the targets it reaches, computed once per function,
and expansion goes on below a node only while its mask meets uncovered.

Selection extends the trace currently under investigation when its frontier
still offers an uncovered non-trivial edge; otherwise it runs the trace to
the exit to finish a test case, and after that picks the globally closest
uncovered edge (shortest CFG distance from the start node, ties broken by
smaller node id, then true before false), finds a tree instance of it and
walks bottom-up to the root. An extension or completion is the active trace
followed by the new path from its leaf down: its upward walk stops at the
active leaf instead of the root.

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
    # deep functions grow trees of many thousand nodes
    __slots__ = ("node_id", "k", "parent", "in_edge", "depth", "serial", "children",
                 "expanded")

    def __init__(self, node_id: int, k: int, parent: StctNode | None,
                 in_edge: CfgEdge | None, depth: int, serial: int):
        self.node_id = node_id
        self.k = k
        self.parent = parent
        self.in_edge = in_edge
        self.depth = depth
        self.serial = serial
        self.children: list[StctNode] = []
        self.expanded = False

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

    def starts_with(self, nodes: list[StctNode]) -> bool:
        """Whether this trace begins with nodes, a root path of the same
        tree. Comparing the last of them compares them all: a tree node has
        one parent, so two root paths that hold the same node at one
        position hold the same nodes up to it. Checking whether a trace
        resumes a path state, or extends the trace marked pending last,
        costs one comparison, not one per node."""
        n = len(nodes)
        return len(self.nodes) >= n and self.nodes[n - 1] is nodes[-1]

    def conditional_positions(self) -> list[int]:
        return [i for i, e in enumerate(self.edges) if e.conditional]

    def guard_labels(self, cfg: Cfg) -> list[str]:
        texts = cfg.guard_texts
        return [texts[e.eid] for e in self.edges if e.conditional]


class CoverageState:
    """Coverage is one bit per target, in kind and id order (ordered):
    uncovered holds the bits of the targets that neither a test case nor a
    trace marked pending covers, unfinal those no test case covers.
    Selection meets uncovered with its reach masks; reports read unfinal."""

    def __init__(self, targets: set[Target]):
        self.ordered = sorted(targets, key=lambda t: (t.kind, t.ident))
        self.node_bit = {t.ident: 1 << bit for bit, t in enumerate(self.ordered)
                         if t.kind == "node"}
        self.edge_bit = {t.ident: 1 << bit for bit, t in enumerate(self.ordered)
                         if t.kind == "edge"}
        self.unfinal = self.uncovered = (1 << len(self.ordered)) - 1
        self._marked: Trace | None = None  # the trace marked pending last
        # per-edge verdicts of failed attempts: unsat / unknown
        self.attempts: dict[int, list[str]] = {}
        # CFG nodes of tree nodes refused a child by the depth bound
        self.bound_nodes: set[int] = set()
        # CFG destinations of edges pruned on an unknown verdict: nothing
        # behind them was decided
        self.unknown_nodes: set[int] = set()
        # why generation stopped before exhausting the tree, if it did:
        # time-budget or iteration-bound
        self.stopped = ""

    def mark_pending(self, trace: Trace) -> None:
        """Count the trace as covered until the marks are committed or
        cleared. A trace that extends the one marked last adds only what
        lies beyond it: the nodes and edges before are marked already."""
        last = self._marked
        new = len(last.nodes) if last is not None and trace.starts_with(last.nodes) else 0
        uncovered, node_bit, edge_bit = self.uncovered, self.node_bit, self.edge_bit
        for sn in trace.nodes[new:]:
            uncovered &= ~node_bit.get(sn.node_id, 0)
        for e in trace.edges[max(new - 1, 0):]:
            uncovered &= ~edge_bit.get(e.eid, 0)
        self.uncovered = uncovered
        self._marked = trace

    def commit_pending(self) -> None:
        self.unfinal = self.uncovered
        self._marked = None

    def clear_pending(self) -> None:
        self.uncovered = self.unfinal
        self._marked = None

    def record_attempt(self, edge: CfgEdge, verdict: str) -> None:
        self.attempts.setdefault(edge.eid, []).append(verdict)
        if verdict == "unknown":
            self.unknown_nodes.add(edge.dst)

    def complete_for(self, criterion: str) -> bool:
        """Whether test cases cover every target: node and edge targets for
        c1, node targets for c0, whose bits follow the edges'."""
        if criterion == "c1":
            return self.unfinal == 0
        return self.unfinal >> len(self.edge_bit) == 0


class Stct:
    def __init__(self, cfg: Cfg, coverage: CoverageState, max_depth: int):
        self.cfg = cfg
        self.coverage = coverage
        self.max_depth = max_depth
        self.root = StctNode(cfg.entry, 0, None, None, 0, 0)
        self._serial = 1  # the serial the next node gets
        self._k = [0] * len(cfg.nodes)  # by CFG node: occurrences made so far
        self._k[cfg.entry] = 1
        # by CFG edge id: the tree nodes entered through it
        self.instances: list[list[StctNode]] = [[] for _ in cfg.edges]
        self.exhausted = False  # retiring a trace left the root without a child
        # by CFG node: the bits (coverage.ordered) of the targets it reaches,
        # each anchored where it is reached: an edge's source, a node itself
        self._reach = cfg.reach_masks([cfg.edges[t.ident].src if t.kind == "edge"
                                       else t.ident for t in coverage.ordered])
        # by CFG node: its out edges, each with its destination, that
        # destination's distance to the exit, which the depth bound reads,
        # and the edge's instances
        self._outs = [[(e, e.dst, cfg.exit_distance(e.dst), self.instances[e.eid])
                       for e in cfg.out_edges(n.nid)] for n in cfg.nodes]
        # by CFG edge id: its selection priority, lowest first: the edge's
        # distance from the root, its source, the true edge before the false
        self._priority = [(cfg.root_distance(e), e.src, 0 if e.polarity else 1)
                          for e in cfg.edges]
        # by CFG edge id: its bit in coverage, 0 for an edge that is no
        # target; every conditional edge in the tree is one, since every
        # tree node descends from the entry
        self._bit = [coverage.edge_bit.get(e.eid, 0) for e in cfg.edges]

    # -- construction ---------------------------------------------------------

    def ensure_children(self, node: StctNode) -> None:
        if node.expanded:
            return
        node.expanded = True
        room = self.max_depth - node.depth - 1  # edges left below a child
        depth = node.depth + 1
        occurrences, serial, children = self._k, self._serial, node.children
        for edge, dst, to_exit, instances in self._outs[node.node_id]:
            if to_exit > room:
                self.coverage.bound_nodes.add(node.node_id)
                continue
            k = occurrences[dst]
            occurrences[dst] = k + 1
            child = StctNode(dst, k, node, edge, depth, serial)
            serial += 1
            children.append(child)
            instances.append(child)
        self._serial = serial

    def expand(self, leaf: StctNode) -> int:
        """Incremental expansion below leaf; returns number of nodes added.

        Descends through unconditional and already-covered edges, stopping
        a branch at the first uncovered non-trivial edge and wherever no
        uncovered target is reachable any more.
        """
        before = self._serial
        reach, uncovered, bit = self._reach, self.coverage.uncovered, self._bit
        work = [leaf]
        for node in work:  # appended to while it runs: a breadth-first queue
            if not reach[node.node_id] & uncovered:
                continue
            self.ensure_children(node)
            for child in node.children:
                if child.expanded:
                    continue
                e = child.in_edge
                assert e is not None
                if uncovered & bit[e.eid]:
                    continue  # frontier target: stop this branch
                work.append(child)
        return self._serial - before

    # -- traces ----------------------------------------------------------------

    def trace_to(self, node: StctNode, mode: str, target: CfgEdge | None,
                 above: Trace | None = None) -> Trace:
        """The trace from the root to node. Given above, a trace whose leaf
        is an ancestor of node, it is above's nodes followed by the path from
        that leaf down to node: trace nodes are a root path of this one
        tree, so the upward walk stops at above's leaf instead of the root."""
        stop = None if above is None else above.leaf
        path: list[StctNode] = []
        cur: StctNode | None = node
        while cur is not stop:
            assert cur is not None
            path.append(cur)
            cur = cur.parent
        path.reverse()
        if above is None:
            nodes, edges = path, [sn.in_edge for sn in path[1:]]
        else:
            nodes = above.nodes + path
            edges = above.edges + [sn.in_edge for sn in path]
        trace = Trace(nodes, edges, node.node_id == self.cfg.exit, mode, target)
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

    def _extend(self, active: Trace) -> Trace | None:
        leaf = active.leaf
        self.expand(leaf)
        uncovered, bit, priority = self.coverage.uncovered, self._bit, self._priority
        best: StctNode | None = None
        best_key: tuple[tuple[int, int, int], int] | None = None
        work = [leaf]
        for node in work:  # appended to while it runs: a breadth-first queue
            for child in node.children:
                e = child.in_edge
                assert e is not None
                if uncovered & bit[e.eid]:
                    key = (priority[e.eid], child.serial)
                    if best_key is None or key < best_key:
                        best, best_key = child, key
                    continue
                work.append(child)
        if best is None:
            return None
        return self.trace_to(best, "extend", best.in_edge, active)

    def _complete(self, active: Trace) -> Trace | None:
        """Shortest continuation from the active leaf to the exit node."""
        frontier = [active.leaf]
        while frontier:
            nxt: list[StctNode] = []
            for node in frontier:
                self.ensure_children(node)
                for child in node.children:
                    if child.node_id == self.cfg.exit:
                        return self.trace_to(child, "complete", None, active)
                    nxt.append(child)
            frontier = nxt
        return None

    def _fresh(self) -> Trace | None:
        uncovered, bit = self.coverage.uncovered, self._bit
        while True:
            ranked = sorted((e for e in self.cfg.edges if uncovered & bit[e.eid]),
                            key=lambda e: self._priority[e.eid])
            for edge in ranked:
                options = self.instances[edge.eid]
                if options:
                    child = min(options, key=lambda n: (n.depth, n.serial))
                    return self.trace_to(child, "fresh", edge)
            if not self._forced_expansion_sweep():
                return self._fresh_for_nodes()

    def _fresh_for_nodes(self) -> Trace | None:
        """C0 backstop: reach an uncovered node through already-covered edges."""
        unfinal = self.coverage.unfinal
        wanted = {nid for nid, bit in self.coverage.node_bit.items() if unfinal & bit}
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
            lst = self.instances[e.eid]
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
