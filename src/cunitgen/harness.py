"""Test-case materialization, C driver emission and reporting.

A solver model becomes a TestCase: the input cells ``replay.input_cells``
maps it to, a stub schedule, and what concrete replay from those cells
found: the outcome of every contract check, with the condition it
evaluated, and the global writes that break __rtt_modifies. The driver is
rendered from these alone. It is plain C: per test case it declares the
auto-generated arrays some input pointer points into, each named after its
region (two pointers whose bases agree share one), loads the stub
schedule, assigns the input cells, snapshots __rtt_initial values, calls
the unit under test and checks every applicable contract, printing one
PASS/FAIL line each. Its exit status is the number of outcomes that
differed from the generation-time prediction.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from dataclasses import dataclass

from .errors import ReplayDivergence
from .frontend.annotations import AnnotationSet
from .frontend.csyntax import FunctionDef
from .frontend.writer import decl_text, expr_to_c, type_text
from .imr import Cfg, guard_text
from .memory import NULL_BASE, Region, RegionTable
from .replay import (
    CheckOutcome,
    CPtr,
    InputCell,
    ReplayError,
    ReplayResult,
    StubCallValues,
    concrete_replay,
    input_cells,
)
from .stct import CoverageState, Trace
from .stubs import StubSpec, c_literal, control_names
from .symex import Layout, PathState
from .typesys import (
    ArrayType,
    PointerType,
    StructType,
    VoidType,
)


@dataclass
class TestCase:
    tc_id: int
    function: str
    cells: list[InputCell]  # the memory replay started from
    schedule: dict[str, list[StubCallValues]]
    outcomes: list[CheckOutcome]
    covered_edges: list[int]
    tags: list[str]
    violations: list[tuple[str, list[int]]]  # (variable, lines)
    trace_labels: list[str]
    approximate: bool = False


@dataclass
class CoverageReport:
    function: str
    nodes_total: int
    nodes_covered: int
    edges_total: int
    edges_covered: int
    uncovered: list[dict]
    test_case_count: int

    @property
    def node_percent(self) -> float:
        return 100.0 * self.nodes_covered / self.nodes_total if self.nodes_total else 100.0

    @property
    def edge_percent(self) -> float:
        return 100.0 * self.edges_covered / self.edges_total if self.edges_total else 100.0


def build_test_case(tc_id: int, trace: Trace, state: PathState, model: dict,
                    cfg: Cfg, layout: Layout, anns: AnnotationSet) -> TestCase:
    """Turn a verified model into a concrete test case via replay."""
    cells = input_cells(layout.regions, model)
    schedule = _stub_schedule(state, model)
    try:
        result = concrete_replay(cfg, layout, anns, cells, schedule)
    except ReplayError as exc:
        raise ReplayDivergence(f"replay impossible under this model: {exc}") from exc
    expected = [e.eid for e in trace.edges]
    if result.edges != expected:
        raise ReplayDivergence(
            f"replayed edges {result.edges} differ from trace {expected}")
    tags: list[str] = []
    for i in result.applicable_testcases:
        for t in anns.testcases[i].tags:
            if t not in tags:
                tags.append(t)
    return TestCase(
        tc_id=tc_id,
        function=layout.fn.name,
        cells=cells,
        schedule=schedule,
        outcomes=result.outcomes,
        covered_edges=expected,
        tags=tags,
        violations=_modifies_violations(result, anns),
        trace_labels=trace.guard_labels(cfg),
        approximate=state.flags.approximate,
    )


def _stub_schedule(state: PathState, model: dict) -> dict[str, list[StubCallValues]]:
    out: dict[str, list[StubCallValues]] = {}
    for event in state.stub_calls:
        calls = out.setdefault(event.callee, [])
        while len(calls) <= event.k:
            calls.append(StubCallValues())
        call = calls[event.k]
        if event.ret is not None:
            call.ret = model.get(event.ret.name, 0)
        for i, sym, _target in event.outs:
            call.outs[i] = model.get(sym.name, 0)
        for gname, sym in event.globals_written:
            if sym.name in model:
                call.globals_set[gname] = model[sym.name]
    return out


def _modifies_violations(result: ReplayResult, anns: AnnotationSet
                         ) -> list[tuple[str, list[int]]]:
    """(global, lines) for each global written that __rtt_modifies omits."""
    if anns.modifies is None:
        return []
    return [(name, sorted(lines))
            for name, lines in sorted(result.global_writes.items())
            if name not in anns.modifies]


def build_stub_specs(test_cases: list[TestCase], layout: Layout) -> list[StubSpec]:
    specs: dict[str, StubSpec] = {}
    for tc in test_cases:
        for callee, calls in tc.schedule.items():
            policy = layout.stub_policies[callee]
            spec = specs.setdefault(callee, StubSpec(callee, policy.signature))
            spec.schedule[tc.tc_id] = calls
            for call in calls:
                for g in call.globals_set:
                    region = layout.regions.by_name.get(g)
                    if region is not None:
                        spec.globals_types[g] = region.elem_type
    return [specs[name] for name in sorted(specs)]


# ---------------------------------------------------------------------------
# Driver emission


def emit_driver(fn: FunctionDef, unit_globals, test_cases: list[TestCase],
                stub_specs: list[StubSpec], layout: Layout,
                anns: AnnotationSet, typedecls=()) -> str:
    w = _Writer()
    w.line(f"/* auto-generated test driver for {fn.name} */")
    w.line("#include <stdio.h>")
    w.line("#include <string.h>")
    w.line("")
    aggregates = [td for td in typedecls
                  if isinstance(td.ctype, StructType)
                  and td.name.startswith(("struct ", "union "))]
    if aggregates:
        from .frontend.writer import typedecl_to_c

        for td in aggregates:
            for line in typedecl_to_c(td):
                w.line(line)
        w.line("")
    w.line("/* unit under test */")
    params = ", ".join(decl_text(p.name, p.ctype).strip() for p in fn.params) or "void"
    ret_text = type_text(fn.return_type)
    sep = "" if ret_text.endswith("*") else " "
    w.line(f"extern {ret_text}{sep}{fn.name}({params});")
    for g in unit_globals:
        w.line(f"extern {decl_text(g.name, g.ctype).strip()};")
    if stub_specs:
        w.line("")
        w.line("/* stub controls */")
        for spec in stub_specs:
            tc_var, id_var, ret_var = control_names(spec.callee)
            w.line(f"extern unsigned int {tc_var};")
            w.line(f"extern unsigned int {id_var};")
            if not isinstance(spec.signature.return_type, VoidType):
                w.line(f"extern {type_text(spec.signature.return_type)} "
                       f"{ret_var}[{max(spec.max_calls, 1)}];")
    w.line("")
    w.line("static int ctg_checks;")
    w.line("static int ctg_failures;")
    w.line("static int ctg_unexpected;")
    w.line("")
    w.line("static void ctg_check(int tc, const char *label, const char *tags,")
    w.line("                      int cond, int expect_pass)")
    w.line("{")
    w.line("    ctg_checks++;")
    w.line("    if (!cond) ctg_failures++;")
    w.line("    if ((cond != 0) != expect_pass) ctg_unexpected++;")
    w.line('    printf("[TC %d] %s %s [%s] (expected %s)\\n", tc, label,')
    w.line('           cond ? "PASS" : "FAIL", tags, expect_pass ? "PASS" : "FAIL");')
    w.line("}")
    w.line("")
    w.line("int main(void)")
    w.line("{")
    w.indent += 1
    w.line("(void)ctg_check;")
    if not test_cases:
        w.line('printf("no feasible test cases were generated\\n");')
    for tc in test_cases:
        _emit_test_case(w, fn, tc, layout, anns, unit_globals)
    w.line('printf("%d checks, %d failures, %d unexpected\\n",')
    w.line("       ctg_checks, ctg_failures, ctg_unexpected);")
    w.line("return ctg_unexpected;")
    w.indent -= 1
    w.line("}")
    return w.text()


class _Writer:
    def __init__(self) -> None:
        self.lines: list[str] = []
        self.indent = 0

    def line(self, text: str = "") -> None:
        self.lines.append("    " * self.indent + text if text else "")

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _emit_test_case(w: _Writer, fn: FunctionDef, tc: TestCase, layout: Layout,
                    anns: AnnotationSet, unit_globals) -> None:
    regions = layout.regions
    arrays = _declared_arrays(tc.cells, regions)
    cells = [c for c in tc.cells
             if c.region.kind != "autogen" or c.region.base_id in arrays]
    pointer_vars = [c for c in cells if _is_variable(c) and isinstance(c.value, CPtr)]
    scalars = {c.name: c.value for c in cells if _is_variable(c)}
    w.line(f"/* test case {tc.tc_id}: path <{', '.join(tc.trace_labels)}> */")
    w.line("{")
    w.indent += 1
    ret_is_void = isinstance(fn.return_type, VoidType)
    if not ret_is_void:
        w.line(f"{decl_text('__ctg_ret', fn.return_type)};")
    for p in fn.params:
        w.line(f"{decl_text(p.name, p.ctype)};")
    for region in arrays.values():
        w.line(f"{decl_text(_array_name(region), ArrayType(region.elem_type, region.dim))}"
               " = {0};")
    for c in pointer_vars:
        if c.value.base in arrays:
            w.line(f"unsigned int {c.name}__autogen_offset;")
    needed = _needed_initials(tc, anns)
    initial_decls = []
    for name in anns.initial_vars:
        if name not in needed:
            continue
        region = regions.by_name[name]
        ctype = region.elem_type if region.dim == 1 else PointerType(region.elem_type)
        initial_decls.append((name, ctype))
        w.line(f"{decl_text(f'{name}__initial', ctype)};")
    w.line("")
    # stub schedule
    for callee in sorted(tc.schedule):
        calls = tc.schedule[callee]
        sig = layout.stub_policies[callee].signature
        tc_var, id_var, ret_var = control_names(callee)
        w.line(f"/***** STUB {callee} *****/")
        w.line(f"{tc_var} = {tc.tc_id};")
        w.line(f"{id_var} = 0;")
        if not isinstance(sig.return_type, VoidType):
            w.line("/* set values for return */")
            for k, call in enumerate(calls):
                w.line(f"{ret_var}[{k}] = {c_literal(call.ret, sig.return_type)};")
        w.line(f"/***** end STUB {callee} *****/")
    # global inputs: deterministic reset, then model values
    for g in unit_globals:
        region = regions.by_name.get(g.name)
        if region is None:
            continue
        if isinstance(g.ctype, ArrayType):
            w.line(f"memset({g.name}, 0, sizeof {g.name});")
        elif isinstance(g.ctype, PointerType):
            continue  # bound below with the other pointers
        elif isinstance(g.ctype, StructType):
            w.line(f"memset(&{g.name}, 0, sizeof {g.name});")
        else:
            w.line(f"{g.name} = {c_literal(scalars.get(g.name, 0), g.ctype)};")
    for p in fn.params:
        if isinstance(p.ctype, StructType):
            w.line(f"memset(&{p.name}, 0, sizeof {p.name});")
    # array cells in the order they were read, then struct members by name
    for c in cells:
        if not isinstance(c.value, CPtr) and not _is_variable(c) \
                and not isinstance(c.region.elem_type, StructType):
            w.line(f"{_cell_lvalue(c)} = {c_literal(c.value, c.ctype)};")
    members = [c for c in cells if not isinstance(c.value, CPtr)
               and isinstance(c.region.elem_type, StructType)]
    for c in sorted(members, key=_cell_lvalue):
        w.line(f"{_cell_lvalue(c)} = {c_literal(c.value, c.ctype)};")
    # scalar parameters
    for p in fn.params:
        if isinstance(p.ctype, (PointerType, StructType)):
            continue
        w.line(f"{p.name} = {c_literal(scalars.get(p.name, 0), p.ctype)};")
    # pointer variables, Table-1 style, then pointers stored in arrays and structs
    for c in pointer_vars:
        if c.value.base in arrays:
            w.line(f"{c.name} = {_array_name(arrays[c.value.base])};")
            w.line(f"{c.name}__autogen_offset = {c.value.offset}U;")
            w.line(f"{c.name} += {c.name}__autogen_offset;")
        else:
            w.line(f"{c.name} = {_pointer_text(c.value, regions)};")
    for c in cells:
        if isinstance(c.value, CPtr) and not _is_variable(c):
            w.line(f"{_cell_lvalue(c)} = {_pointer_text(c.value, regions)};")
    for name, _ctype in initial_decls:
        w.line(f"{name}__initial = {name};")
    w.line("")
    args = ", ".join(p.name for p in fn.params)
    w.line(f"/* @rttCall({fn.name}({args})) */")
    if ret_is_void:
        w.line(f"{fn.name}({args});")
    else:
        w.line(f"__ctg_ret = {fn.name}({args});")
        w.line("(void)__ctg_ret;")
    _emit_checks(w, tc, anns)
    w.indent -= 1
    w.line("}")
    w.line("")


def _declared_arrays(cells: list[InputCell], regions: RegionTable) -> dict[int, Region]:
    """Auto-generated regions that an assigned input pointer points into.

    A cell of an auto-generated region is assigned only when its region is
    declared, so this grows until no assigned pointer adds a region.
    """
    arrays: dict[int, Region] = {}
    grew = True
    while grew:
        grew = False
        for c in cells:
            assigned = c.region.kind != "autogen" or c.region.base_id in arrays
            if not assigned or not isinstance(c.value, CPtr) or c.value.base in arrays:
                continue
            target = regions.by_id.get(c.value.base)  # None: null
            if target is not None and target.kind == "autogen":
                arrays[target.base_id] = target
                grew = True
    return arrays


def _is_variable(cell: InputCell) -> bool:
    """A global or parameter itself, not a cell of an array or a struct."""
    return cell.region.kind in ("global", "param") and not cell.region.is_array \
        and cell.name == cell.region.name


def _array_name(region: Region) -> str:
    """The C name of a region: its own, or <region>_array if auto-generated."""
    if region.kind != "autogen":
        return region.name
    return re.sub(r"[^0-9A-Za-z_]", "_", f"{region.name}_array")


def _cell_lvalue(cell: InputCell) -> str:
    """x, a[2], s.f or p__autogen_array[0].f: the cell name on its region's C name."""
    suffix = cell.name[len(cell.region.name):]
    if cell.region.is_array and not suffix.startswith("["):
        suffix = "[0]" + suffix  # the symbol names the one element by its array
    return _array_name(cell.region) + suffix


def _pointer_text(ptr: CPtr, regions: RegionTable) -> str:
    if ptr.base == NULL_BASE:
        return "0"
    region = regions.by_id[ptr.base]
    target = _array_name(region) if region.is_array else f"&{region.name}"
    return f"{target} + {ptr.offset}" if ptr.offset else target


def _emit_checks(w: _Writer, tc: TestCase, anns: AnnotationSet) -> None:
    aux_note_emitted = False
    for outcome in tc.outcomes:
        expect = 1 if outcome.passed else 0
        tags = ",".join(outcome.tags)
        if outcome.kind == "assert":
            if outcome.passed:
                continue  # only violations are recorded in the procedure
            w.line(f"/* __rtt_assert violated at line {outcome.line} */")
            w.line(f'ctg_check({tc.tc_id}, "assert line {outcome.line}", '
                   f'"{tags}", 0, 0);')
            continue
        if not _mentions_aux(outcome.expr, anns):
            kind = "postcondition" if outcome.kind == "post" else outcome.kind
            cond = expr_to_c(outcome.expr, initial=lambda v: f"{v}__initial",
                             returnref="__ctg_ret")
            w.line(f"/* @rttAssert({cond}) */")
            w.line(f'ctg_check({tc.tc_id}, "{kind} line {outcome.line}", "{tags}", '
                   f"({cond}), {expect});")
            continue
        # checks over auxiliary variables were decided during generation
        label = f"{outcome.kind} line {outcome.line}"
        if not aux_note_emitted:
            w.line("/* outcomes below were computed during generation "
                   "(auxiliary variables) */")
            aux_note_emitted = True
        w.line(f'ctg_check({tc.tc_id}, "{label}", "{tags}", {expect}, {expect});')
    for var, lines in tc.violations:
        line_list = ", ".join(str(line) for line in lines)
        w.line(f"/* violated var {var} in line(s) {line_list} */")
        w.line(f'/* @rttAssert(FALSE) */')
        w.line(f'ctg_check({tc.tc_id}, "modifies {var}", "", 0, 0);')


def _mentions_aux(expr, anns: AnnotationSet) -> bool:
    from .frontend.annotations import walk_expr
    from .frontend.csyntax import Name

    for node in walk_expr(expr):
        if isinstance(node, Name) and node.name in anns.aux:
            return True
    return False


def _needed_initials(tc: TestCase, anns: AnnotationSet) -> set[str]:
    """Entry snapshots referenced by the checks this test case will emit."""
    from .frontend.annotations import walk_expr
    from .frontend.csyntax import InitialRef

    return {node.var.name for outcome in tc.outcomes
            if outcome.kind != "assert" and not _mentions_aux(outcome.expr, anns)
            for node in walk_expr(outcome.expr) if isinstance(node, InitialRef)}


# ---------------------------------------------------------------------------
# Reports


def build_report(cfg: Cfg, coverage: CoverageState, test_cases: list[TestCase],
                 criterion: str) -> CoverageReport:
    node_targets = sorted(t.ident for t in coverage.targets if t.kind == "node")
    edge_targets = sorted(t.ident for t in coverage.targets if t.kind == "edge")
    nodes_covered = sum(1 for n in node_targets if n in coverage.final_nodes)
    edges_covered = sum(1 for e in edge_targets if e in coverage.final_edges)
    # an untried prefix may reach these nodes through a depth-bounded subtree
    truncated = cfg.distances(coverage.bound_nodes)
    # ... or through a subtree pruned on an unknown verdict
    undecided = cfg.distances(coverage.unknown_nodes)
    uncovered: list[dict] = []
    for eid in edge_targets:
        if eid in coverage.final_edges:
            continue
        edge = cfg.edges[eid]
        attempts = coverage.attempts.get(eid, [])
        if attempts and all(a == "unsat" for a in attempts) and not coverage.stopped \
                and edge.src not in truncated and edge.src not in undecided:
            verdict = "infeasible-proven"
        elif "unknown" in attempts or edge.src in undecided:
            verdict = "budget-exhausted"
        else:
            verdict = coverage.stopped or "depth-bound"
        uncovered.append({
            "kind": "edge",
            "id": eid,
            "description": f"n{edge.src} -> n{edge.dst} [{guard_text(cfg, edge)}]",
            "line": edge.line,
            "verdict": verdict,
        })
    return CoverageReport(
        function=cfg.name,
        nodes_total=len(node_targets),
        nodes_covered=nodes_covered,
        edges_total=len(edge_targets),
        edges_covered=edges_covered,
        uncovered=uncovered,
        test_case_count=len(test_cases),
    )


def report_json(report: CoverageReport) -> str:
    return json.dumps({
        "function": report.function,
        "nodes_total": report.nodes_total,
        "nodes_covered": report.nodes_covered,
        "edges_total": report.edges_total,
        "edges_covered": report.edges_covered,
        "node_coverage_percent": round(report.node_percent, 2),
        "edge_coverage_percent": round(report.edge_percent, 2),
        "test_cases": report.test_case_count,
        "uncovered": report.uncovered,
    }, indent=2) + "\n"


def report_text(report: CoverageReport, test_cases: list[TestCase]) -> str:
    lines = [
        f"function {report.function}",
        f"  test cases:      {report.test_case_count}",
        f"  node coverage:   {report.nodes_covered}/{report.nodes_total}"
        f" ({report.node_percent:.1f}%)",
        f"  branch coverage: {report.edges_covered}/{report.edges_total}"
        f" ({report.edge_percent:.1f}%)",
    ]
    if report.uncovered:
        lines.append("  uncovered edges:")
        for entry in report.uncovered:
            lines.append(f"    {entry['description']}: {entry['verdict']}")
    for tc in test_cases:
        tag_text = f" tags={','.join(tc.tags)}" if tc.tags else ""
        approx = " (approximate)" if tc.approximate else ""
        lines.append(f"  TC {tc.tc_id}: <{', '.join(tc.trace_labels)}>"
                     f"{tag_text}{approx}")
    return "\n".join(lines) + "\n"


def trace_matrix_csv(fn_name: str, anns: AnnotationSet,
                     test_cases: list[TestCase]) -> str:
    """requirement,function,test_case_id,verdict - one row per covering case."""
    rows = ["requirement,function,test_case_id,verdict"]
    for tag in anns.requirement_tags:
        covering = [tc for tc in test_cases if tag in tc.tags]
        if not covering:
            rows.append(f"{tag},{fn_name},,uncovered")
            continue
        for tc in covering:
            verdict = "PASS"
            for outcome in tc.outcomes:
                if outcome.kind == "testcase" and tag in outcome.tags \
                        and not outcome.passed:
                    verdict = "FAIL"
            rows.append(f"{tag},{fn_name},{tc.tc_id},{verdict}")
    return "\n".join(rows) + "\n"


def write_atomically(path: str, content: str) -> None:
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ctg-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
