"""Symbolic test case tree: lazy expansion and best-first trace selection.

The tree stores bounded paths through the CFG. A node is the pair (CFG node
id, occurrence number k); (n, k) is unique in the tree even when n repeats
along cyclic paths. A node gets its children only when a search takes it
off its heap or a trace slides through it along an unconditional chain.

Coverage is one bit per target, held in CoverageState.uncovered (no test
case and no pending trace covers it) and CoverageState.unfinal (no test
case covers it). The bits follow selection order, edges nearest the entry
first, so the best of a set of targets is its lowest bit. A tree node's
live mask holds the targets it may still reach: its CFG node's reach mask
until it has children, then its own bit and each child's in-edge bit and
live mask. The depth bound and pruning only shrink it, upward.

Selection is one best-first descent over the nodes whose live mask meets
the wanted bits, keyed by the lowest such bit, then deepest first (a
descent heads down instead of sweeping the levels near its start), then a
met target before a node still to expand, then insertion order. Extension
descends from the active trace's leaf, wants the uncovered edges and stops
at the first one met; failing that, completion runs the trace to the exit
along a shortest path, a heap keyed by depth plus the CFG distance to the
exit. A fresh trace descends from the root, wanting every target no test
case covers and passing through the targets it meets, so that it also
finds an uncovered node behind covered edges. An extension or completion
is the active trace followed by the new path from its leaf down. A search
that finds nothing has expanded every node whose live mask met its wanted
bits.

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

from heapq import heappop, heappush

from .imr import Cfg, CfgEdge, Target


class StctNode:
    # deep functions grow trees of many thousand nodes
    __slots__ = ("node_id", "k", "parent", "in_edge", "depth", "live", "children",
                 "expanded")

    def __init__(self, node_id: int, k: int, parent: StctNode | None,
                 in_edge: CfgEdge | None, depth: int, live: int):
        self.node_id = node_id
        self.k = k
        self.parent = parent
        self.in_edge = in_edge
        self.depth = depth
        self.live = live  # the bits of the targets it may still reach
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
    """Coverage is one bit per target, in the selection order of
    enumerate_coverage_targets (ordered), edges before nodes: uncovered
    holds the bits of the targets that neither a test case nor a trace
    marked pending covers, unfinal those no test case covers. Selection
    meets uncovered with the tree's live masks; reports read unfinal."""

    def __init__(self, targets: list[Target]):
        self.ordered = list(targets)
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
        # CFG nodes behind which nothing was decided: destinations of edges
        # pruned on an unknown verdict, the entry when the assumptions alone
        # were undecided
        self.unknown_nodes: set[int] = set()
        # why generation stopped before exhausting the tree, if it did:
        # iteration-bound
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
        # by CFG node: the bits of the targets it reaches, each anchored
        # where it is reached: an edge's source, a node itself
        reach = cfg.reach_masks([cfg.edges[t.ident].src if t.kind == "edge"
                                 else t.ident for t in coverage.ordered])
        self.root = StctNode(cfg.entry, 0, None, None, 0, reach[cfg.entry])
        self._k = [0] * len(cfg.nodes)  # by CFG node: occurrences made so far
        self._k[cfg.entry] = 1
        self.exhausted = False  # retiring a trace left the root without a child
        # by CFG edge id: its bit in coverage, 0 for an edge that is no
        # target; every conditional edge in the tree is one, since every
        # tree node descends from the entry
        self._bit = bit = [coverage.edge_bit.get(e.eid, 0) for e in cfg.edges]
        self._edge_bits = (1 << len(coverage.edge_bit)) - 1  # edges hold the low bits
        # by CFG node: its bit in coverage, 0 for a node that is no target
        self._node_bit = [coverage.node_bit.get(n.nid, 0) for n in cfg.nodes]
        # by CFG node: its distance to the exit, which the depth bound and
        # completion read
        self._to_exit = to_exit = [cfg.exit_distance(n.nid) for n in cfg.nodes]
        # by CFG node: its out edges, each with its bit, its destination,
        # that destination's distance to the exit and its reach mask
        self._outs = [[(e, bit[e.eid], e.dst, to_exit[e.dst], reach[e.dst])
                       for e in cfg.out_edges(n.nid)] for n in cfg.nodes]

    # -- construction ---------------------------------------------------------

    def ensure_children(self, node: StctNode) -> None:
        if node.expanded:
            return
        node.expanded = True
        room = self.max_depth - node.depth - 1  # edges left below a child
        depth = node.depth + 1
        occurrences, children = self._k, node.children
        live = self._node_bit[node.node_id]
        for edge, bit, dst, to_exit, reach in self._outs[node.node_id]:
            if to_exit > room:
                self.coverage.bound_nodes.add(node.node_id)
                continue
            k = occurrences[dst]
            occurrences[dst] = k + 1
            children.append(StctNode(dst, k, node, edge, depth, reach))
            live |= bit | reach
        if live != node.live:  # the bound refused a child
            node.live = live
            self._shrink(node.parent)

    def _shrink(self, node: StctNode | None) -> None:
        """Recompute the live masks from node upward while they shrink."""
        bit, node_bit = self._bit, self._node_bit
        while node is not None:
            live = node_bit[node.node_id]
            for child in node.children:
                live |= bit[child.in_edge.eid] | child.live
            if live == node.live:
                return
            node.live = live
            node = node.parent

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
        coverage = self.coverage
        if active is not None and not active.complete:
            node = self._search(active.leaf, coverage.uncovered & self._edge_bits, False)
            if node is not None:
                return self.trace_to(node, "extend", node.in_edge, active)
            node = self._complete(active.leaf)
            if node is not None:
                return self.trace_to(node, "complete", None, active)
            self.retire(active)
        if self.exhausted:
            return None
        # a fresh trace starts over: what a retired trace marked is wanted
        node = self._search(self.root, coverage.unfinal, True)
        return None if node is None else self.trace_to(node, "fresh", node.in_edge)

    def _search(self, start: StctNode, want: int, through: bool) -> StctNode | None:
        """The first node at or below start that meets a wanted target, by
        its in-edge or its own bit, in the order of the heap key (see the
        module docstring), or None. Only the nodes taken off the heap get
        children. With through, the descent goes on below a met target;
        without, a met target ends its branch."""
        bit, node_bit = self._bit, self._node_bit
        heap: list[tuple[int, int, int, int, StctNode]] = []
        hit = node_bit[start.node_id] & want
        if hit:
            heap.append((hit & -hit, -start.depth, 0, 0, start))
        live = start.live & want
        if live:
            heappush(heap, (live & -live, -start.depth, 1, 1, start))
        count = 2
        while heap:
            _, _, expand, _, node = heappop(heap)
            if not expand:
                return node
            self.ensure_children(node)
            for child in node.children:
                depth = -child.depth
                hit = (bit[child.in_edge.eid] | node_bit[child.node_id]) & want
                if hit:
                    heappush(heap, (hit & -hit, depth, 0, count, child))
                    count += 1
                    if not through:
                        continue
                live = child.live & want
                if live:
                    heappush(heap, (live & -live, depth, 1, count, child))
                    count += 1
        return None

    def _complete(self, start: StctNode) -> StctNode | None:
        """The exit node of a shortest continuation from start: a
        best-first descent keyed by depth plus the CFG distance to the
        exit, then deepest first, then insertion order."""
        exit_id, to_exit = self.cfg.exit, self._to_exit
        heap: list[tuple[int, int, int, StctNode]] = [(0, 0, 0, start)]
        count = 1
        while heap:
            node = heappop(heap)[3]
            if node.node_id == exit_id:
                return node
            self.ensure_children(node)
            for child in node.children:
                heappush(heap, (child.depth + to_exit[child.node_id], -child.depth,
                                count, child))
                count += 1
        return None

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
            self._shrink(parent)

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
