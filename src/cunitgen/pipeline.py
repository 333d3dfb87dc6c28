"""End-to-end generation: the select / interpret / solve / accept loop.

Per function: select a trace containing an uncovered target, interpret it
symbolically, conjoin the path constraint, hand it to the solver; a
satisfiable complete trace becomes a test case (after the model survives
concrete replay), a satisfiable prefix stays active and is extended next
round, an unsatisfiable branch is pruned from the tree and remembered, an
unknown verdict is pruned too but reported separately, and so is what lies
behind it. Generation ends when no selectable trace remains or the coverage
criterion is met, or early at the per-function deadline or the iteration
bound, whose name then becomes the verdict of the edges left undecided.

Each iteration reuses what the last ones established. The active trace's
interpretation leaves a checkpoint, and a trace extending or completing it
resumes from there (``symex.interpret`` decides whether the checkpoint still
applies). Every solver call, including the prefix re-solves after an unsat
answer and the requirement follow-up, is first offered the model of the
last search as a hint, which ``solve`` returns only if it verifies. The
prefix scan after an unsat answer checks each branch segment once under
that model and calls ``solve`` only at the first prefix it does not solve.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

from . import constraints as con
from .config import Config
from .errors import CunitgenError, ReplayDivergence, StubPolicyError, UnsupportedOperation
from .frontend.annotations import AnnotationSet, extract_annotations
from .frontend.csyntax import FunctionDef, SourceUnit
from .harness import (
    CoverageReport,
    TestCase,
    build_report,
    build_stub_specs,
    build_test_case,
    emit_driver,
    report_json,
    report_text,
    trace_matrix_csv,
    write_atomically,
)
from .imr import Cfg, dump_cfg, enumerate_coverage_targets, lower
from .smtlib import export_smtlib, parse_model_file
from .solver import Model, SolveResult, model_fits, solve, verify_model
from .stct import CoverageState, Stct, Trace
from .stubs import StubSpec, emit_stub
from .symex import Checkpoint, Layout, PathState, interpret

_MAX_ITERATIONS = 20000
_MAX_DIVERGENCES = 3


@dataclass
class SelectionRecord:
    mode: str
    labels: list[str]
    complete: bool
    verdict: str = ""


@dataclass
class FunctionOutcome:
    name: str
    status: str = "ok"  # ok, error
    message: str = ""
    cfg: Cfg | None = None
    anns: AnnotationSet | None = None
    layout: Layout | None = None
    coverage: CoverageState | None = None
    test_cases: list[TestCase] = field(default_factory=list)
    stub_specs: list[StubSpec] = field(default_factory=list)
    report: CoverageReport | None = None
    selection_log: list[SelectionRecord] = field(default_factory=list)
    divergences: list[str] = field(default_factory=list)
    smt_files: list[str] = field(default_factory=list)
    elapsed_s: float = 0.0
    criterion_complete: bool = False
    stct_dump: str = ""


class _SmtExporter:
    """smtlib-out mode: write each constraint, look for an answered model."""

    def __init__(self, config: Config, fn_name: str, regions):
        self.config = config
        self.fn_name = fn_name
        self.regions = regions
        self.counter = 0
        self.files: list[str] = []

    def consult(self, constraint: con.Constraint) -> Model | None:
        self.counter += 1
        base = os.path.join(self.config.out_dir,
                            f"{self.fn_name}_{self.counter}.smt2")
        write_atomically(base, export_smtlib(constraint))
        self.files.append(base)
        model_path = base[:-5] + ".model"
        deadline = time.monotonic() + self.config.smtlib_wait_ms / 1000.0
        while True:
            if os.path.exists(model_path):
                with open(model_path, "r", encoding="utf-8") as fh:
                    values = parse_model_file(fh.read())
                model = Model(values)
                if _external_model_ok(constraint, model, self.regions,
                                      self.config.ptr_array_size):
                    return model
                return None
            if time.monotonic() >= deadline:
                return None
            time.sleep(0.05)


def _external_model_ok(constraint: con.Constraint, model: Model, regions,
                       default_dim: int) -> bool:
    """Sanity for models produced outside the built-in solver.

    Pointer bases must be null (offset 0), a type-compatible known region
    with an in-range offset, or an unknown id, which later materializes as
    a fresh auto-generated array of the configured size.
    """
    for name, fs in constraint.free.items():
        if name not in model.values:
            return False
        if fs.role.value != "pointer-base":
            continue
        base = int(model.values[name])
        ptr_name = name.removesuffix("@baseAddress")
        off = int(model.values.get(fs.paired_offset or "", 0)) \
            if fs.paired_offset else 0
        if base == 0:
            if off != 0:
                return False
            continue
        region = regions.by_id.get(base)
        if region is None:
            if not 0 <= off < default_dim:
                return False
            continue
        ps = regions.pointer_inputs.get(ptr_name)
        pointee = ps.pointee if ps is not None else None
        if pointee is not None and region.elem_type != pointee:
            return False
        if not region.is_input or not 0 <= off < max(region.dim, 1):
            return False
    return verify_model(constraint, model)


@dataclass
class _Session:
    unit: SourceUnit
    fn: FunctionDef
    config: Config
    log: list[str] = field(default_factory=list)
    accepted_traces: list[Trace] = field(default_factory=list)
    deadline: float = 0.0  # time.monotonic() value at which generation stops
    # the model of the last solver search, tried before each new search
    last_model: Model | None = None

    def say(self, text: str) -> None:
        if self.config.verbose:
            self.log.append(text)

    def _out_of_time(self) -> bool:
        return time.monotonic() >= self.deadline

    def run(self) -> FunctionOutcome:
        start = time.monotonic()
        self.deadline = start + self.config.budget_ms / 1000.0
        out = FunctionOutcome(self.fn.name)
        try:
            anns = extract_annotations(self.fn)
            cfg = lower(self.unit, self.fn)
            targets = enumerate_coverage_targets(cfg, "c1")
            coverage = CoverageState(targets)
            layout = Layout(self.unit, self.fn, cfg, anns, self.config)
            out.cfg, out.anns, out.layout, out.coverage = cfg, anns, layout, coverage
            self._generate(out)
            self._missing_tag_pass(out)
            report_targets = enumerate_coverage_targets(cfg, self.config.coverage)
            out.criterion_complete = CoverageState(
                report_targets, coverage.final_nodes, coverage.final_edges
            ).complete_for(self.config.coverage)
            out.report = build_report(cfg, coverage, out.test_cases,
                                      self.config.coverage)
            out.stub_specs = build_stub_specs(out.test_cases, layout)
        except CunitgenError as exc:
            out.status = "error"
            out.message = str(exc)
        except RecursionError:
            # expressions are walked recursively; a long enough chain of
            # dependent assignments builds one too deep to walk
            out.status = "error"
            out.message = "symbolic expressions nested too deeply to analyze"
        out.elapsed_s = time.monotonic() - start
        return out

    # -- the analyser loop --------------------------------------------------

    def _generate(self, out: FunctionOutcome) -> None:
        cfg, anns, layout, coverage = out.cfg, out.anns, out.layout, out.coverage
        assert cfg and anns is not None and layout and coverage is not None
        tree = Stct(cfg, coverage, self.config.max_depth)
        exporter = _SmtExporter(self.config, self.fn.name, layout.regions) \
            if self.config.solver == "smtlib-out" else None
        if not coverage.targets:
            # nothing to cover (an empty body) still yields one test case
            trace = tree.trace_to(tree.root, "fresh", None)
            state = interpret(trace, cfg, anns, layout)
            if trace.complete and state.infeasible_branch is None:
                result = self._solve(con.conjoin(state), exporter)
                if result.status == "sat" and result.model is not None:
                    self._accept(out, trace, state, result.model)
            if exporter is not None:
                out.smt_files = exporter.files
            return
        verbose = self.config.verbose
        active: Trace | None = None
        checkpoint: Checkpoint | None = None  # the active trace's saved state
        for iteration in range(_MAX_ITERATIONS):
            if coverage.complete_for(self.config.coverage):
                break
            if self._out_of_time():
                coverage.stopped = "time-budget"
                break
            trace = tree.select_trace(active)
            if trace is None:
                break
            if trace.mode == "fresh" and active is not None:
                coverage.clear_pending()
                active = None
            if active is None:
                checkpoint = None
            record = SelectionRecord(trace.mode, trace.guard_labels(cfg),
                                     trace.complete)
            out.selection_log.append(record)
            try:
                state = interpret(trace, cfg, anns, layout, resume=checkpoint)
            except (UnsupportedOperation, StubPolicyError) as exc:
                record.verdict = "abandoned"
                self.say(f"trace abandoned: {exc}")
                active = self._give_up_on(trace, coverage, tree, active, "unknown")
                continue
            if state.infeasible_branch is not None:
                edge = tree.prune_infeasible(trace, state.infeasible_branch)
                coverage.record_attempt(edge, "unsat")
                record.verdict = "infeasible(folded)"
                if verbose:
                    self.say(_iteration_line(iteration, trace, state, None))
                continue
            constraint = con.conjoin(state)
            if verbose:
                self.say(f"constraint[{self.fn.name}]: {constraint.render()}")
            result = self._solve(constraint, exporter)
            if verbose:
                self.say(_iteration_line(iteration, trace, state, result))
            model = result.model
            if result.status == "sat":
                record.verdict = "sat"
                assert model is not None
                coverage.mark_pending(trace)
                if trace.complete:
                    if not self._accept(out, trace, state, model):
                        coverage.clear_pending()
                        active = None
                        if len(out.divergences) >= _MAX_DIVERGENCES:
                            raise ReplayDivergence(
                                "; ".join(out.divergences[-_MAX_DIVERGENCES:]))
                        continue
                    coverage.commit_pending()
                    active = None
                else:
                    active = trace
                    checkpoint = state.checkpoint
            elif result.status == "unsat":
                failing, verdict = self._min_failing_index(constraint)
                if failing < 0:
                    record.verdict = "preconditions-unsat"
                    break
                edge = tree.prune_infeasible(trace, failing)
                coverage.record_attempt(edge, verdict)
                record.verdict = verdict
            else:
                record.verdict = f"unknown({result.reason})"
                active = self._give_up_on(trace, coverage, tree, active, "unknown")
        else:
            coverage.stopped = "iteration-bound"
        if exporter is not None:
            out.smt_files = exporter.files
        if self.config.dump_stct:
            out.stct_dump = tree.dump()

    def _solve(self, constraint: con.Constraint,
               exporter: _SmtExporter | None) -> SolveResult:
        if exporter is not None:
            external = exporter.consult(constraint)
            if external is not None:
                return SolveResult("sat", external, "external model")
        return self._search(constraint)

    def _search(self, constraint: con.Constraint) -> SolveResult:
        """Solve, trying the last search's model first.

        A sat answer with 0 nodes is that model, verified; any other answer
        came from a search, and its model becomes the next hint.
        """
        result = solve(constraint, self.config.budget_nodes, hint=self.last_model)
        if result.model is not None and result.nodes:
            self.last_model = result.model
        return result

    def _accept(self, out: FunctionOutcome, trace: Trace, state: PathState,
                model: Model) -> bool:
        try:
            tc = build_test_case(
                len(out.test_cases), trace, state, model.values,
                out.cfg, out.layout, out.anns)
        except ReplayDivergence as exc:
            out.divergences.append(f"{type(exc).__name__}: {exc}")
            self.say(f"test case dropped: {exc}")
            return False
        out.test_cases.append(tc)
        self.accepted_traces.append(trace)
        return True

    def _give_up_on(self, trace: Trace, coverage: CoverageState, tree: Stct,
                    active: Trace | None, verdict: str) -> Trace | None:
        positions = trace.conditional_positions()
        if not positions:
            return None
        # prune the branch this trace was selected for; prefix-local only
        index = len(positions) - 1
        if trace.target_edge is not None:
            for i, pos in enumerate(positions):
                if trace.edges[pos] is trace.target_edge:
                    index = i
        edge = tree.prune_infeasible(trace, index)
        coverage.record_attempt(edge, verdict)
        if trace.mode in ("extend", "complete"):
            return active
        return None

    def _min_failing_index(self, constraint: con.Constraint) -> tuple[int, str]:
        """Smallest branch whose prefix fails, with the failing verdict.

        Index -1 means the assumptions alone are unsatisfiable. The answer
        is that of solving each prefix in turn (assumptions, then one more
        branch each time) with the last search's model as the hint. While
        that model satisfies the prefixes, ``solve`` would return it
        unsearched, so each new branch segment is instead checked once
        under it with ``model_fits``. ``solve`` runs only at the first
        prefix the model does not satisfy, and a sat answer's model, which
        satisfies that prefix, is the one checked from there on.
        """
        free = constraint.free
        model = self.last_model
        done = 0  # the conjuncts the model satisfies
        checked: set[str] = set()  # symbols whose values passed the domain rule
        total = constraint.branch_count()
        for k in range(total + 1):
            end = constraint.prefix_end(k)
            segment = constraint.conjuncts[done:end]
            new = {name: fs for name, fs in con.restrict_free(free, segment).items()
                   if name not in checked}
            if model is not None and model_fits(model, new, segment):
                done = end
                checked.update(new)
                continue
            prefix = constraint.prefix(k)
            result = self._search(prefix)
            if result.status != "sat":
                return k - 1, result.status
            model, done, checked = result.model, end, set(prefix.free)
        return total - 1, "unsat"

    # -- requirement follow-up -------------------------------------------------

    def _missing_tag_pass(self, out: FunctionOutcome) -> None:
        """Cover requirement tags that no accepted test case satisfied yet.

        Re-solves each accepted complete trace with the missing test case's
        precondition assumed; a model whose replay makes that precondition
        hold yields one extra tagged test case.
        """
        anns = out.anns
        assert anns is not None
        covered = {t for tc in out.test_cases for t in tc.tags}
        missing = [i for i, tc in enumerate(anns.testcases)
                   if any(tag not in covered for tag in tc.tags)]
        for tc_index in missing:
            for trace in self.accepted_traces:
                if self._out_of_time():
                    return
                try:
                    state = interpret(trace, out.cfg, anns, out.layout,
                                      active_testcase=tc_index)
                except (UnsupportedOperation, StubPolicyError):
                    continue
                if state.infeasible_branch is not None:
                    continue
                result = self._search(con.conjoin(state))
                if result.status != "sat" or result.model is None:
                    continue
                try:
                    tc = build_test_case(
                        len(out.test_cases), trace, state, result.model.values,
                        out.cfg, out.layout, anns)
                except ReplayDivergence:
                    continue
                if any(tag in tc.tags for tag in anns.testcases[tc_index].tags):
                    out.test_cases.append(tc)
                    break


def _iteration_line(iteration: int, trace: Trace, state: PathState,
                    result: SolveResult | None) -> str:
    """The -v line of one interpreted trace: where interpretation started
    and where the verdict came from (None: a branch folded to false)."""
    if state.resumed_at:
        where = f"resumed at trace node {state.resumed_at} of {len(trace.nodes)}"
    else:
        where = f"interpreted from the entry ({len(trace.nodes)} nodes)"
    if result is None:
        verdict = f"infeasible (branch {state.infeasible_branch} folded to false)"
    elif result.status == "sat" and not result.nodes and not result.reason:
        verdict = "sat (the last model reused)"
    else:
        verdict = f"{result.status} ({result.nodes} search nodes" \
            + (f", {result.reason})" if result.reason else ")")
    return f"iteration {iteration} [{trace.mode}]: {where}; {verdict}"


def generate_function(unit: SourceUnit, fn: FunctionDef, config: Config
                      ) -> FunctionOutcome:
    session = _Session(unit, fn, config)
    outcome = session.run()
    outcome_logs = session.log
    if outcome_logs and config.verbose:
        outcome.message = (outcome.message + "\n" if outcome.message else "") \
            + "\n".join(outcome_logs)
    return outcome


def write_outputs(outcome: FunctionOutcome, unit: SourceUnit, config: Config) -> None:
    if outcome.status != "ok" or outcome.cfg is None:
        return
    name = outcome.name
    out_dir = config.out_dir
    driver = emit_driver(outcome.layout.fn, unit.globals, outcome.test_cases,
                         outcome.stub_specs, outcome.layout, outcome.anns,
                         unit.typedecls)
    write_atomically(os.path.join(out_dir, f"{name}_driver.c"), driver)
    for spec in outcome.stub_specs:
        write_atomically(os.path.join(out_dir, f"{spec.callee}_stub.c"),
                         emit_stub(spec))
    write_atomically(os.path.join(out_dir, f"{name}_coverage.txt"),
                     report_text(outcome.report, outcome.test_cases))
    write_atomically(os.path.join(out_dir, f"{name}_coverage.json"),
                     report_json(outcome.report))
    write_atomically(os.path.join(out_dir, f"{name}_trace.csv"),
                     trace_matrix_csv(name, outcome.anns, outcome.test_cases))
    if config.dump_cfg:
        write_atomically(os.path.join(out_dir, f"{name}_cfg.txt"),
                         dump_cfg(outcome.cfg))
    if config.dump_stct and outcome.stct_dump:
        write_atomically(os.path.join(out_dir, f"{name}_stct.txt"),
                         outcome.stct_dump)
