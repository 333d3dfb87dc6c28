"""Test-case materialization, C driver emission and reporting.

A solver model becomes a TestCase: concrete parameter and global values,
pointer bindings into declared or auto-generated regions (two pointers
whose model bases agree share one region), a stub schedule, and what
concrete replay of the model found: the outcome of every contract check and
the global writes that break __rtt_modifies. The driver is plain C:
per test case it declares the auto-generated arrays, loads the stub
schedule, assigns inputs, snapshots __rtt_initial values, calls the unit
under test and checks every applicable contract, printing one PASS/FAIL
line each. Its exit status is the number of outcomes that differed from
the generation-time prediction.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass

from .errors import ReplayDivergence
from .frontend.annotations import AnnotationSet
from .frontend.csyntax import FunctionDef
from .frontend.writer import decl_text, expr_to_c, type_text
from .imr import Cfg, guard_text
from .memory import NULL_BASE, Region
from .replay import (
    CheckOutcome,
    ReplayError,
    ReplayResult,
    StubCallValues,
    concrete_replay,
)
from .stct import CoverageState, Trace
from .stubs import StubSpec, c_literal, control_names
from .symex import Layout, PathState
from .typesys import (
    INT,
    ArrayType,
    CType,
    PointerType,
    StructType,
    VoidType,
)


@dataclass
class PointerBinding:
    pointer: str  # variable (or cell) being initialized
    region_name: str  # target array name, or &variable, in C
    region_kind: str  # declared, autogen, null
    size: int
    elem_type: CType | None
    offset: int


@dataclass
class TestCase:
    tc_id: int
    function: str
    inputs: dict[str, int | float]  # scalar parameters and globals
    cell_inputs: list[tuple[str, int, int | float]]  # (array name, index, value)
    member_inputs: list[tuple[str, int | float, CType]]  # (x.field, value, type)
    bindings: list[PointerBinding]
    autogen_regions: list[tuple[str, int, CType]]  # (name, size, elem type)
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
    regions = layout.regions
    bindings, autogen = _pointer_bindings(model, layout)
    schedule = _stub_schedule(state, model)
    try:
        result = concrete_replay(cfg, layout, anns, model, schedule)
    except ReplayError as exc:
        raise ReplayDivergence(f"replay impossible under this model: {exc}") from exc
    expected = [e.eid for e in trace.edges]
    if result.edges != expected:
        raise ReplayDivergence(
            f"replayed edges {result.edges} differ from trace {expected}")
    inputs: dict[str, int | float] = {}
    cells: list[tuple[str, int, int | float]] = []
    members: list[tuple[str, int | float, CType]] = []
    for key, sym in regions.cell_syms.items():
        if sym.name not in model or isinstance(sym.ctype, PointerType):
            continue
        base_id, byte_off = key[0], key[1]
        region = regions.by_id[base_id]
        if not region.is_input:
            continue
        if isinstance(region.elem_type, StructType):
            # the symbol is named after the region: <region>[i].field
            c_name = _region_c_name(region, bindings) + sym.name[len(region.name):]
            members.append((c_name, model[sym.name], sym.ctype))
        elif region.kind in ("global", "param") and region.dim == 1:
            inputs[sym.name] = model[sym.name]
        else:
            index = byte_off // max(region.elem_size, 1)
            cells.append((_region_c_name(region, bindings), index, model[sym.name]))
    violations = _modifies_violations(result, anns)
    tags: list[str] = []
    for i in result.applicable_testcases:
        for t in anns.testcases[i].tags:
            if t not in tags:
                tags.append(t)
    return TestCase(
        tc_id=tc_id,
        function=layout.fn.name,
        inputs=inputs,
        cell_inputs=cells,
        member_inputs=sorted(members),
        bindings=bindings,
        autogen_regions=autogen,
        schedule=schedule,
        outcomes=result.outcomes,
        covered_edges=expected,
        tags=tags,
        violations=violations,
        trace_labels=trace.guard_labels(cfg),
        approximate=state.flags.approximate,
    )


def _pointer_bindings(model: dict, layout: Layout
                      ) -> tuple[list[PointerBinding], list[tuple[str, int, CType]]]:
    regions = layout.regions
    bindings: list[PointerBinding] = []
    autogen_names: dict[int, tuple[str, int, CType]] = {}
    for name, ps in regions.pointer_inputs.items():
        var_region = regions.by_name.get(name)
        if var_region is None or var_region.kind == "autogen":
            continue  # cell-level pointers are handled through their arrays
        base = int(model.get(ps.base.name, ps.fresh_region.base_id))
        offset = int(model.get(ps.offset.name, 0))
        if base == NULL_BASE:
            bindings.append(PointerBinding(name, "0", "null", 0, None, 0))
            continue
        region = regions.by_id.get(base)
        if region is None or region.kind == "autogen":
            if base not in autogen_names:
                if region is not None:
                    size, elem = region.dim, region.elem_type
                else:
                    size, elem = regions.ptr_array_size, ps.pointee
                autogen_names[base] = (f"{name}__autogen_array", size, elem)
            arr_name, size, elem = autogen_names[base]
            bindings.append(PointerBinding(name, arr_name, "autogen", size, elem, offset))
        else:
            target = region.name if region.is_array else f"&{region.name}"
            bindings.append(PointerBinding(
                name, target, "declared", region.dim, region.elem_type, offset))
    return bindings, list(autogen_names.values())


def _region_c_name(region: Region, bindings: list[PointerBinding]) -> str:
    if region.kind != "autogen":
        return region.name
    for b in bindings:
        if b.region_kind == "autogen" and region.name == f"{b.pointer}__autogen":
            return b.region_name
    return f"{region.name}_array"


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
    w.line(f"/* test case {tc.tc_id}: path <{', '.join(tc.trace_labels)}> */")
    w.line("{")
    w.indent += 1
    ret_is_void = isinstance(fn.return_type, VoidType)
    if not ret_is_void:
        w.line(f"{decl_text('__ctg_ret', fn.return_type)};")
    for p in fn.params:
        w.line(f"{decl_text(p.name, p.ctype)};")
    for name, size, elem in tc.autogen_regions:
        w.line(f"{decl_text(name, ArrayType(elem, size))} = {{0}};")
    for b in tc.bindings:
        if b.region_kind == "autogen":
            w.line(f"unsigned int {b.pointer}__autogen_offset;")
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
            value = tc.inputs.get(g.name, 0)
            w.line(f"{g.name} = {c_literal(value, g.ctype)};")
    for p in fn.params:
        if isinstance(p.ctype, StructType):
            w.line(f"memset(&{p.name}, 0, sizeof {p.name});")
    for arr_name, index, value in tc.cell_inputs:
        region = _region_by_c_name(layout, tc, arr_name)
        elem = region.elem_type if region is not None else INT
        w.line(f"{arr_name}[{index}] = {c_literal(value, elem)};")
    for member, value, ctype in tc.member_inputs:
        w.line(f"{member} = {c_literal(value, ctype)};")
    # scalar parameters
    for p in fn.params:
        if isinstance(p.ctype, (PointerType, StructType)):
            continue
        value = tc.inputs.get(p.name, 0)
        w.line(f"{p.name} = {c_literal(value, p.ctype)};")
    # pointer bindings, Table-1 style
    for b in tc.bindings:
        if b.region_kind == "null":
            w.line(f"{b.pointer} = 0;")
        elif b.region_kind == "autogen":
            w.line(f"{b.pointer} = {b.region_name};")
            w.line(f"{b.pointer}__autogen_offset = {b.offset}U;")
            w.line(f"{b.pointer} += {b.pointer}__autogen_offset;")
        else:
            suffix = f" + {b.offset}" if b.offset else ""
            w.line(f"{b.pointer} = {b.region_name}{suffix};")
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


def _region_by_c_name(layout: Layout, tc: TestCase, c_name: str) -> Region | None:
    if c_name in layout.regions.by_name:
        return layout.regions.by_name[c_name]
    for b in tc.bindings:
        if b.region_name == c_name and b.region_kind == "autogen":
            return layout.regions.by_name.get(f"{b.pointer}__autogen")
    return None


def _emit_checks(w: _Writer, tc: TestCase, anns: AnnotationSet) -> None:
    aux_note_emitted = False

    def render(expr) -> str:
        return expr_to_c(
            expr,
            initial=lambda v: f"{v}__initial",
            returnref="__ctg_ret",
        )

    for outcome in tc.outcomes:
        expect = 1 if outcome.passed else 0
        tags = ",".join(outcome.tags)
        if outcome.kind == "post":
            source = next(
                (p for p, line in anns.posts if line == outcome.line), None)
            label = f"postcondition line {outcome.line}"
            if source is not None and not _mentions_aux(source, anns):
                w.line(f"/* @rttAssert({render(source)}) */")
                w.line(f'ctg_check({tc.tc_id}, "{label}", "{tags}", '
                       f"({render(source)}), {expect});")
                continue
        if outcome.kind == "testcase" and outcome.tc_index is not None:
            source = anns.testcases[outcome.tc_index].post
            label = f"testcase line {outcome.line}"
            if not _mentions_aux(source, anns):
                w.line(f"/* @rttAssert({render(source)}) */")
                w.line(f'ctg_check({tc.tc_id}, "{label}", "{tags}", '
                       f"({render(source)}), {expect});")
                continue
        if outcome.kind == "assert":
            if outcome.passed:
                continue  # only violations are recorded in the procedure
            w.line(f"/* __rtt_assert violated at line {outcome.line} */")
            w.line(f'ctg_check({tc.tc_id}, "assert line {outcome.line}", '
                   f'"{tags}", 0, 0);')
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

    needed: set[str] = set()
    for outcome in tc.outcomes:
        source = None
        if outcome.kind == "post":
            source = next((p for p, line in anns.posts if line == outcome.line), None)
        elif outcome.kind == "testcase" and outcome.tc_index is not None:
            source = anns.testcases[outcome.tc_index].post
        if source is None or _mentions_aux(source, anns):
            continue
        for node in walk_expr(source):
            if isinstance(node, InitialRef):
                needed.add(node.var.name)
    return needed


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
