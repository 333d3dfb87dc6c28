"""End-to-end generation: the select / interpret / solve / accept loop.

Per function: select a trace containing an uncovered target, interpret it
symbolically, conjoin the path constraint, hand it to the solver; a
satisfiable complete trace becomes a test case (after the model survives
concrete replay), a satisfiable prefix stays active and is extended next
round, an unsatisfiable branch is pruned from the tree and remembered, an
unknown verdict is pruned too but reported separately, and so is what lies
behind it. So is a branch whose constraint fails with the assumptions
alone undecided; only unsatisfiable assumptions end generation. Generation
ends when no selectable trace remains or the coverage criterion is met, or
early at the iteration bound, whose name then becomes the verdict of the
edges left undecided. Each search draws its nodes from the function's pool
(``_POOL_CALLS`` per-call budgets), so counts alone decide verdicts; the
clock is only a guard, and a function it stops at ``--budget-ms`` fails.
Once the pool is empty each search still gets its root node, where
propagation and the corner decide what they can; a search that needs more
ends undecided.

Each iteration reuses what the last ones established. The state the active
trace's interpretation returned is the checkpoint: a trace extending or
completing it resumes from a fork of that state, which is never changed
(``symex.interpret`` decides whether it still applies), and its constraint
starts from the checkpoint's head (its constraint up to the tail), so it
shares the head's conjunct nodes. Every solver call, including the prefix
re-solves after an unsat answer and the requirement follow-up, is offered
the model of the last search as a hint, the last constraint ``solve``
answered with that model, and the root fixpoint of the last search that
propagated one; the solver's shared-prefix rule decides what of them
applies. The prefix scan after an unsat answer checks each branch segment
once under that model and calls ``solve`` only at the first prefix it does
not solve.

In smtlib-out mode each constraint the loop solves is first exported, and
an external answer to it is admitted by the same hint rule
(``solver.hinted_model``); an answer it rejects is searched instead. A
replay divergence on a trace that symex modelled only approximately prunes
the branch the trace was selected for as undecided; any other counts
toward the cap of divergences that ends the function in an error.
"""

from __future__ import annotations

import os
import time

from . import constraints as con
from .config import Config
from .errors import CunitgenError, ReplayDivergence, UnsupportedOperation
from .frontend.annotations import AnnotationSet, extract_annotations
from .frontend.csyntax import FunctionDef, SourceUnit
from .frontend.preprocessor import read_source
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
from .solver import (
    Fixpoint,
    Model,
    SolveResult,
    hinted_model,
    model_fits,
    solve,
    unchecked_symbols,
)
from .stct import CoverageState, Stct, Trace
from .stubs import StubSpec
from .symex import Layout, PathState, interpret

_MAX_ITERATIONS = 20000
_POOL_CALLS = 50  # a function's search nodes, in per-call budgets
_MAX_DIVERGENCES = 3


class SelectionRecord:
    def __init__(self, mode: str, labels: list[str], complete: bool):
        self.mode = mode
        self.labels = labels
        self.complete = complete
        self.verdict = ""


class FunctionOutcome:
    def __init__(self, name: str):
        self.name = name
        self.status = "ok"  # ok, error
        self.message = ""
        self.cfg: Cfg | None = None
        self.anns: AnnotationSet | None = None
        self.layout: Layout | None = None
        self.coverage: CoverageState | None = None
        self.test_cases: list[TestCase] = []
        self.stub_specs: list[StubSpec] = []
        self.report: CoverageReport | None = None
        self.selection_log: list[SelectionRecord] = []
        self.divergences: list[str] = []
        self.smt_files: list[str] = []
        self.elapsed_s = 0.0
        self.criterion_complete = False
        self.stct_dump = ""


class _SmtExporter:
    """smtlib-out mode: write each constraint; an answer file is a hint."""

    def __init__(self, out_dir: str, fn_name: str, files: list[str]):
        self.prefix = os.path.join(out_dir, fn_name)
        self.files = files  # the paths written so far

    def consult(self, constraint: con.Constraint) -> Model | None:
        """The answer in <fn>_<n>.model, if there is one and it solves the
        constraint within the domains the built-in search starts from."""
        from .smtlib import export_smtlib, parse_model_file

        path = f"{self.prefix}_{len(self.files) + 1}.smt2"
        write_atomically(path, export_smtlib(constraint))
        self.files.append(path)
        model_path = path[:-5] + ".model"
        if not os.path.exists(model_path):
            return None
        values = parse_model_file(read_source(model_path), constraint.free)
        return hinted_model(constraint, Model(values))


class _Session:
    def __init__(self, unit: SourceUnit, fn: FunctionDef, config: Config):
        self.unit = unit
        self.fn = fn
        self.config = config
        self.log: list[str] = []
        self.accepted_traces: list[Trace] = []
        self.deadline = 0.0  # time.monotonic() value at which the guard fires
        self.pool = _POOL_CALLS * config.budget_nodes  # search nodes left
        # the model of the last solver search, tried before each new search,
        # and the last constraint solve answered with it, which it solves
        self.last_model: Model | None = None
        self.solved: con.Constraint | None = None
        # the root fixpoint of the last search that propagated one, where a
        # search of a constraint beginning with its conjuncts starts
        self.fixpoint: Fixpoint | None = None

    def say(self, text: str) -> None:
        if self.config.verbose:
            self.log.append(text)

    def _check_clock(self) -> None:
        if time.monotonic() >= self.deadline:
            raise CunitgenError(f"--budget-ms ({self.config.budget_ms}) "
                                "reached before generation finished")

    def run(self) -> FunctionOutcome:
        start = time.monotonic()
        self.deadline = start + self.config.budget_ms / 1000.0
        out = FunctionOutcome(self.fn.name)
        try:
            anns = extract_annotations(self.fn)
            cfg = lower(self.unit, self.fn)
            coverage = CoverageState(enumerate_coverage_targets(cfg))
            layout = Layout(self.unit, self.fn, cfg, anns, self.config)
            out.cfg, out.anns, out.layout, out.coverage = cfg, anns, layout, coverage
            self._generate(out)
            self._missing_tag_pass(out)
            out.criterion_complete = coverage.complete_for(self.config.coverage)
            out.report = build_report(cfg, coverage, out.test_cases, self.config.coverage)
            out.stub_specs = build_stub_specs(out.test_cases, layout)
        except CunitgenError as exc:
            out.status = "error"
            out.message = str(exc)
        except RecursionError:
            # expressions are walked recursively; a long enough chain of
            # dependent assignments builds one too deep to walk
            out.status = "error"
            out.message = "symbolic expressions nested too deeply to analyze"
        except OSError as exc:
            # smtlib-out writes and reads files while it generates
            out.status = "error"
            out.message = f"{exc.filename}: {exc.strerror}"
        out.elapsed_s = time.monotonic() - start
        return out

    # -- the analyser loop --------------------------------------------------

    def _generate(self, out: FunctionOutcome) -> None:
        cfg, anns, layout, coverage = out.cfg, out.anns, out.layout, out.coverage
        assert cfg and anns is not None and layout and coverage is not None
        tree = Stct(cfg, coverage, self.config.max_depth)
        exporter = _SmtExporter(self.config.out_dir, self.fn.name, out.smt_files) \
            if self.config.solver == "smtlib-out" else None
        if not coverage.ordered:
            # nothing to cover (an empty body) still yields one test case
            trace = tree.trace_to(tree.root, "fresh", None)
            state = interpret(trace, cfg, anns, layout)
            if trace.complete and state.infeasible_branch is None:
                result = self._solve(con.conjoin(state), exporter)
                if result.status == "sat" and result.model is not None:
                    self._accept(out, trace, state, result.model)
            return
        verbose = self.config.verbose
        active: Trace | None = None
        checkpoint: PathState | None = None  # the active trace's state
        for iteration in range(_MAX_ITERATIONS):
            if coverage.complete_for(self.config.coverage):
                break
            self._check_clock()
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
            except UnsupportedOperation as exc:
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
                        if state.flags.approximate and trace.conditional_positions():
                            # symex did not model this trace exactly, so the
                            # model may not drive it: no soundness bug, and
                            # the branch it was selected for stays undecided
                            out.divergences.pop()
                            self._give_up_on(trace, coverage, tree, None, "unknown")
                        elif len(out.divergences) >= _MAX_DIVERGENCES:
                            raise ReplayDivergence(
                                "; ".join(out.divergences[-_MAX_DIVERGENCES:]))
                        continue
                    coverage.commit_pending()
                    active = None
                else:
                    active = trace
                    checkpoint = state
            elif result.status == "unsat":
                failing, verdict = self._min_failing_index(constraint)
                if failing >= 0:
                    edge = tree.prune_infeasible(trace, failing)
                    coverage.record_attempt(edge, verdict)
                    record.verdict = verdict
                elif verdict == "unsat":
                    record.verdict = "preconditions-unsat"
                    break
                else:  # the assumptions alone are undecided, so is the trace
                    record.verdict = "preconditions-unknown"
                    coverage.unknown_nodes.add(cfg.entry)
                    active = self._give_up_on(trace, coverage, tree, active, "unknown")
            else:
                record.verdict = f"unknown({result.reason})"
                active = self._give_up_on(trace, coverage, tree, active, "unknown")
        else:
            coverage.stopped = "iteration-bound"
        if self.config.dump_stct:
            out.stct_dump = tree.dump()

    def _solve(self, constraint: con.Constraint, exporter: _SmtExporter | None) -> SolveResult:
        if exporter is not None:
            external = exporter.consult(constraint)
            if external is not None:
                return SolveResult("sat", external, "external model")
        return self._search(constraint)

    def _search(self, constraint: con.Constraint) -> SolveResult:
        """Solve, trying the last search's model first.

        A sat answer with 0 nodes is that model, verified; any other answer
        came from a search, and its model becomes the next hint, as its root
        fixpoint becomes the next search's start. Either way a sat answer's
        constraint is the one the hint is known to solve from then on.
        An empty pool still grants the root node, so propagation and the
        corner decide what they can; a search that needs more is unknown
        for the empty pool.
        """
        empty = self.pool == 0
        result = solve(constraint, min(self.config.budget_nodes, max(self.pool, 1)),
                       hint=self.last_model, hint_holds=self.solved, fixpoint=self.fixpoint)
        self.pool = max(self.pool - result.nodes, 0)
        if result.fixpoint is not None:
            self.fixpoint = result.fixpoint
        if empty and result.nodes > 1:  # the root did not decide it
            result.reason += f": node pool ({_POOL_CALLS * self.config.budget_nodes}) empty"
        if result.model is not None:
            self.solved = constraint
            if result.nodes:
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
            # no branch to blame: the trace itself goes, or it would be
            # selected again
            tree.retire(trace)
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

        Index -1 means the assumptions alone fail: unsatisfiable ones end
        generation, and undecided ones leave the trace undecided. The answer
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
        checked: dict[str, con.FreeSymbol] = {}  # entries whose values passed the domain rule
        total = constraint.branch_count()
        for k in range(total + 1):
            end = constraint.prefix_end(k)
            segment = constraint.conjuncts[done:end]
            new = unchecked_symbols(con.restrict_free(free, segment), free, checked)
            if model is not None and model_fits(model, new, segment):
                done = end
                checked.update(new)
                continue
            prefix = constraint.prefix(k)
            result = self._search(prefix)
            if result.status != "sat":
                return k - 1, result.status
            model, done, checked = result.model, end, dict(prefix.free)
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
                self._check_clock()
                try:
                    state = interpret(trace, out.cfg, anns, out.layout,
                                      active_testcase=tc_index)
                except UnsupportedOperation:
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
