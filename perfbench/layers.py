"""Per-layer spans recorded from outside the program.

``Tracer.install()`` replaces each layer's entry points, at the names the
program looks them up by, with wrappers that record a span (name, start,
end, parent span, function, workload) and a few counts, then return exactly
what the wrapped function returned. ``uninstall()`` puts the originals back.
The program's source is never modified. Spans stay in memory until the
traced pass ends, and are written out then.

``SolveLog`` is the one wrapper every pass carries, traced or not: it
records each solver call's verdict, reason and node count, for the checks.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from dataclasses import dataclass

import cunitgen.constraints as constraints_mod
import cunitgen.frontend.annotations as annotations_mod
import cunitgen.frontend.parser as parser_mod
import cunitgen.pipeline as pipeline_mod
import cunitgen.solver as solver_mod
from cunitgen.stct import Stct

# Models of the last this-many sat answers are tried on each new solver call
# to size the opportunity of a counterexample cache.
REUSE_WINDOW = 8

_CHILD_ATTRS = ("lhs", "rhs", "operand", "cond", "then", "other", "expr",
                "base", "offset")


@dataclass
class Span:
    name: str
    layer: str | None  # None: the benchmark's own work, in no layer
    start: float
    end: float
    parent: int
    function: str
    workload: str


def expr_nodes(conjuncts) -> int:
    """Distinct expression nodes under the conjuncts (shared subterms once)."""
    seen: set[int] = set()
    stack = list(conjuncts)
    while stack:
        e = stack.pop()
        if id(e) in seen:
            continue
        seen.add(id(e))
        for attr in _CHILD_ATTRS:
            child = getattr(e, attr, None)
            if child is not None and hasattr(child, "ctype"):
                stack.append(child)
    return len(seen)


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.function = ""
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._recent: list = []
        self._saved: list[tuple[object, str, object]] = []

    def set_function(self, name: str) -> None:
        self.function = name
        self._recent = []

    # -- spans ------------------------------------------------------------------

    def _call(self, name: str, layer: str | None, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        span = Span(name, layer, time.perf_counter(), 0.0, parent,
                    self.function, self.workload)
        self.spans.append(span)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, owner, attr: str, name: str, layer: str, after=None,
              method: bool = False) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        tracer = self

        def wrapper(*args, **kwargs):
            result = tracer._call(name, layer, original, args, kwargs)
            if after is not None:
                after(args[1:] if method else args, result)
            return result

        setattr(owner, attr, wrapper)

    # -- counters taken at the layer boundaries ------------------------------------

    def _after_parse(self, args, _unit) -> None:
        self.counts["frontend.bytes"] += len(args[0].encode("utf-8"))

    def _after_lower(self, _args, cfg) -> None:
        self.counts["imr.cfg_nodes"] += len(cfg.nodes)
        self.counts["imr.cfg_edges"] += len(cfg.edges)

    def _after_interpret(self, args, _state) -> None:
        self.counts["symex.trace_edges"] += len(args[0].edges)

    def _after_conjoin(self, _args, constraint) -> None:
        self.counts["constraints.expr_nodes"] += expr_nodes(constraint.conjuncts)

    def _after_solve(self, args, result) -> None:
        self.counts["solver.calls"] += 1
        self.counts[f"solver.{result.status}"] += 1
        if result.status == "unknown" and "node budget" in result.reason:
            self.counts["solver.unknown_nodes"] += 1
        self.counts["solver.nodes"] += result.nodes
        parent = self.spans[self._stack[-1]] if self._stack else None
        if parent is not None and parent.layer == "prefix":
            self.counts["prefix.solve_calls"] += 1
        # counterexample-cache opportunity: does a recent model already fit?
        constraint = args[0]
        hit = self._call("reuse_check", None, self._reuse_hit, (constraint,), {})
        self.counts["solver.model_reuse_hits"] += hit
        if result.status == "sat" and result.model is not None:
            self._recent = (self._recent + [result.model])[-REUSE_WINDOW:]

    def _reuse_hit(self, constraint) -> int:
        return int(any(self._verify(constraint, m) for m in self._recent))

    def _after_accept(self, _args, _tc) -> None:
        self.counts["accept.accepted"] += 1

    # -- installation ----------------------------------------------------------------

    def install(self) -> None:
        self._verify = solver_mod.verify_model
        w = self._wrap
        w(parser_mod, "parse_unit", "parse_unit", "frontend", self._after_parse)
        w(pipeline_mod, "extract_annotations", "extract_annotations", "frontend")
        w(annotations_mod, "extract_annotations", "extract_annotations", "frontend")
        w(pipeline_mod, "lower", "lower", "imr", self._after_lower)
        w(pipeline_mod, "enumerate_coverage_targets", "enumerate_coverage_targets", "imr")
        w(Stct, "select_trace", "Stct.select_trace", "stct", method=True)
        w(Stct, "prune_infeasible", "Stct.prune_infeasible", "stct", method=True)
        w(pipeline_mod, "interpret", "interpret", "symex", self._after_interpret)
        w(constraints_mod, "conjoin", "conjoin", "constraints", self._after_conjoin)
        w(pipeline_mod, "solve", "solve", "solver", self._after_solve)
        w(solver_mod, "verify_model", "verify_model", "solver")
        w(pipeline_mod._Session, "_min_failing_index", "_Session._min_failing_index",
          "prefix", method=True)
        w(pipeline_mod, "build_test_case", "build_test_case", "accept", self._after_accept)
        w(pipeline_mod, "write_outputs", "write_outputs", "emit")
        w(pipeline_mod, "build_report", "build_report", "emit")
        w(pipeline_mod, "build_stub_specs", "build_stub_specs", "emit")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- results -------------------------------------------------------------------------

    def layer_times(self) -> tuple[Counter[str], Counter[str]]:
        """Per layer: number of spans and summed self time in seconds."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        calls: Counter[str] = Counter()
        self_s: Counter[str] = Counter()
        for span, covered in zip(self.spans, child_time):
            if span.layer is None:
                continue
            calls[span.layer] += 1
            self_s[span.layer] += span.end - span.start - covered
        return calls, self_s

    def probe_s(self) -> float:
        """Time spent in the model-reuse probe, which is no part of the pass."""
        return sum(s.end - s.start for s in self.spans if s.name == "reuse_check")

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.__dict__) + "\n")


class SolveLog:
    """Each solver call's (verdict, reason, node count), per function.

    Wraps ``solve`` where the pipeline looks it up; one Python call per
    solve is all it adds to a pass.
    """

    def __init__(self):
        self.function = ""
        self.calls: dict[str, list[tuple[str, str, int]]] = {}
        self._original = None

    def install(self) -> None:
        original = self._original = pipeline_mod.solve
        log = self

        def solve(*args, **kwargs):
            result = original(*args, **kwargs)
            log.calls.setdefault(log.function, []).append(
                (result.status, result.reason, result.nodes))
            return result

        pipeline_mod.solve = solve

    def uninstall(self) -> None:
        pipeline_mod.solve = self._original
