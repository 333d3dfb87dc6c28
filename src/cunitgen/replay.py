"""Concrete replay of a CFG from a test case's input cells and stub schedule.

This is the oracle side of the pipeline. ``input_cells`` is the one place
a solver model becomes test inputs: the value of every input cell
(variable, array element, struct member, cell of an auto-generated array),
a pointer's as a (region id, offset) pair. Replay starts from exactly these
cells, and the harness renders the driver from them. Replay interprets
instructions with plain concrete values (two's-complement ints, floats,
(region, offset) pointers), follows whichever edge each decision evaluates
to, and reports the executed edge sequence, the outcome of every contract
check with the condition it evaluated (the postconditions, the applicable
test cases' postconditions and each __rtt_assert reached) and the lines
that wrote each global, which the harness holds against __rtt_modifies.
Replay is the only judge of these checks. The harness compares the edge
sequence against the symbolic trace; any mismatch is a soundness bug and
the test case is rejected.

The implementation deliberately avoids the symbolic expression machinery.
It shares only the table of C scalar semantics in typesys (conversions,
binary and unary operator values, and the Undefined cases, which become
ReplayError here). Short-circuit ``&&``/``||``, ``!``, conditionals, memory
and (region, offset) pointer arithmetic are this interpreter's own code;
gcc-compiled drivers check the shared table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .frontend.annotations import AnnotationSet
from .frontend.csyntax import (
    Assign,
    Bin,
    CastExpr,
    CharLit,
    Cond,
    Expr,
    FloatLit,
    Index,
    InitialRef,
    IntLit,
    Member,
    Name,
    ReturnRef,
    SizeofType,
    StrLit,
    Un,
)
from .frontend.csyntax import AnnotationKind
from .imr import Cfg, IAssign, ICall, IMarker, IReturn
from .memory import NULL_BASE, Region, RegionTable
from .symex import Layout
from .typesys import (
    PTRDIFF,
    ArrayType,
    CType,
    FloatType,
    PointerType,
    StructType,
    Undefined,
    VoidType,
    binary,
    convert,
    unary,
    wrap_int,
)


class ReplayError(Exception):
    """The model drove the concrete interpreter somewhere impossible."""


@dataclass(frozen=True)
class CPtr:
    base: int  # region id; 0 is null
    offset: int  # elements


Value = int | float | CPtr


@dataclass(frozen=True)
class InputCell:
    """One input location a test case sets before the call, with its value."""

    name: str  # the cell symbol's name: x, a[2], s.f, p__autogen[0].next
    region: Region
    byte_off: int
    bit: tuple[int, int] | None
    ctype: CType
    value: Value


def input_cells(regions: RegionTable, model: dict[str, int | float]) -> list[InputCell]:
    """The memory a test case starts from under model.

    Pointer variables come first, in the order their inputs were made, then
    every other cell read during interpretation, in the order of first read.
    A scalar cell the model leaves out starts at zero and is not listed. A
    pointer cell always is, at the model's offset or 0. Base 0 is null; a
    base the model leaves out is the pointer's own fresh region, and one
    that names no region is the fresh region of the first pointer with it.
    """
    stand_ins: dict[int, Region] = {}  # base naming no region -> its region

    def pointer(name: str) -> CPtr:
        ps = regions.pointer_inputs[name]
        base = int(model.get(ps.base.name, ps.fresh_region.base_id))
        if base == NULL_BASE:
            return CPtr(0, 0)
        region = regions.by_id.get(base) or stand_ins.setdefault(base, ps.fresh_region)
        return CPtr(region.base_id, int(model.get(ps.offset.name, 0)))

    cells: list[InputCell] = []
    for name in regions.pointer_inputs:
        region = regions.by_name.get(name)
        if region is not None:
            cells.append(InputCell(name, region, 0, None, region.elem_type,
                                   pointer(name)))
    listed = {cell.name for cell in cells}
    for (base_id, byte_off, b0, b1), sym in regions.cell_syms.items():
        if sym.name in listed:
            continue
        if isinstance(sym.ctype, PointerType):
            value: Value = pointer(sym.name)
        elif sym.name in model:
            value = model[sym.name]
        else:
            continue
        bit = None if (b0, b1) == (-1, -1) else (b0, b1)
        cells.append(InputCell(sym.name, regions.by_id[base_id], byte_off, bit,
                               sym.ctype, value))
    return cells


@dataclass
class CheckOutcome:
    kind: str  # post, assert, testcase
    passed: bool
    tags: list[str]
    line: int
    expr: Expr  # the condition replay evaluated


@dataclass
class ReplayResult:
    edges: list[int]
    returned: Value | None
    outcomes: list[CheckOutcome]
    applicable_testcases: list[int]
    # global name -> lines of the unit (not of a stub) that wrote it
    global_writes: dict[str, set[int]]


@dataclass
class StubCallValues:
    """What one call of a stub returns and writes."""

    ret: Value | None = None
    outs: dict[int, Value] = field(default_factory=dict)
    globals_set: dict[str, Value] = field(default_factory=dict)


class _Memory:
    """Concrete cells per region, keyed by byte offset and bit-field slot."""

    def __init__(self, layout: Layout):
        self.layout = layout
        self.cells: dict[tuple[int, int, tuple[int, int] | None], Value] = {}

    def read(self, base: int, byte_off: int, bit: tuple[int, int] | None,
             ctype: CType) -> Value:
        key = (base, byte_off, bit)
        if key in self.cells:
            return self.cells[key]
        if isinstance(ctype, PointerType):
            return CPtr(0, 0)
        return 0.0 if isinstance(ctype, FloatType) else 0

    def write(self, base: int, byte_off: int, bit: tuple[int, int] | None,
              ctype: CType, value: Value) -> None:
        self.cells[(base, byte_off, bit)] = _store_convert(value, ctype, bit)


def _store_convert(value: Value, ctype: CType, bit: tuple[int, int] | None) -> Value:
    if isinstance(ctype, PointerType):
        if isinstance(value, CPtr):
            return value
        if value == 0:
            return CPtr(0, 0)
        raise ReplayError("integer stored into a pointer slot")
    if isinstance(value, CPtr):
        raise ReplayError(f"pointer stored into a {ctype} slot")
    try:
        v = convert(value, ctype)
    except Undefined as exc:
        raise ReplayError(str(exc)) from exc
    if bit is not None:
        _, width = bit
        mask = (1 << width) - 1
        v &= mask
        if ctype.signed and v & (1 << (width - 1)):
            v -= 1 << width
    return v


class _Replayer:
    def __init__(self, cfg: Cfg, layout: Layout, anns: AnnotationSet,
                 cells: list[InputCell],
                 schedule: dict[str, list[StubCallValues]],
                 max_steps: int = 200000):
        self.cfg = cfg
        self.layout = layout
        self.anns = anns
        self.schedule = schedule
        self.mem = _Memory(layout)
        self.stub_cursor: dict[str, int] = {}
        self.returned: Value | None = None
        self.outcomes: list[CheckOutcome] = []
        self.snapshots: dict[str, Value] = {}
        self.global_writes: dict[str, set[int]] = {}
        self.max_steps = max_steps
        for cell in cells:
            self.mem.write(cell.region.base_id, cell.byte_off, cell.bit,
                           cell.ctype, cell.value)

    # -- main loop ----------------------------------------------------------------

    def run(self) -> ReplayResult:
        self._take_snapshots()
        applicable = [
            i for i, tc in enumerate(self.anns.testcases)
            if _truthy(self.eval(tc.pre))
        ]
        edges: list[int] = []
        nid = self.cfg.entry
        while nid != self.cfg.exit:
            if len(edges) >= self.max_steps:
                raise ReplayError("replay step limit exceeded")
            node = self.cfg.node(nid)
            for instr in node.instrs:
                self._exec(instr)
            outs = self.cfg.out_edges(nid)
            if not outs:
                raise ReplayError(f"node n{nid} has no successors")
            if node.is_decision:
                taken = _truthy(self.eval(node.cond))
                edge = outs[0] if taken else outs[1]
            else:
                edge = outs[0]
            edges.append(edge.eid)
            nid = edge.dst
        self._check_exit_contracts(applicable)
        return ReplayResult(edges, self.returned, self.outcomes, applicable,
                            self.global_writes)

    def _take_snapshots(self) -> None:
        for name in self.anns.initial_vars:
            self.snapshots[name] = self._read_var(name)

    def _read_var(self, name: str) -> Value:
        region = self.layout.regions.by_name[name]
        if region.dim != 1:
            return CPtr(region.base_id, 0)
        return self.mem.read(region.base_id, 0, None, region.elem_type)

    # -- instructions ---------------------------------------------------------------

    def _exec(self, instr) -> None:
        if isinstance(instr, IAssign):
            value = self.eval(instr.value)
            self._log_write(self._store(instr.place, value), instr.line)
            return
        if isinstance(instr, ICall):
            self._stub_call(instr)
            return
        if isinstance(instr, IReturn):
            if instr.value is not None:
                value = self.eval(instr.value)
                self.returned = _store_convert(
                    value, self.layout.fn.return_type, None) \
                    if not isinstance(self.layout.fn.return_type, VoidType) else value
            return
        if isinstance(instr, IMarker):
            if instr.kind is AnnotationKind.ASSIGN:
                payload = instr.payload.exprs[0]
                assert isinstance(payload, Assign)  # to an auxiliary variable
                self._store(payload.target, self.eval(payload.value))
            elif instr.kind is AnnotationKind.ASSERT:
                # the program never evaluates the condition, so one that is
                # undefined here (x / y with y == 0) is violated, not a
                # replay failure
                cond = instr.payload.exprs[0]
                try:
                    ok = _truthy(self.eval(cond))
                except ReplayError:
                    ok = False
                self.outcomes.append(
                    CheckOutcome("assert", ok, [], instr.line, cond))
            return
        raise ReplayError(f"instruction {type(instr).__name__}")

    def _log_write(self, base: int, line: int) -> None:
        region = self.layout.regions.by_id[base]
        if region.kind == "global":
            self.global_writes.setdefault(region.name, set()).add(line)

    def _stub_call(self, instr: ICall) -> None:
        callee = instr.callee
        k = self.stub_cursor.get(callee, 0)
        self.stub_cursor[callee] = k + 1
        entries = self.schedule.get(callee, [])
        entry = entries[k] if k < len(entries) else StubCallValues()
        sig = self.layout.stub_policies[callee].signature
        for i, (param, arg) in enumerate(zip(sig.params, instr.args)):
            if not isinstance(param.ctype, PointerType) or param.ctype.const_pointee:
                continue
            if isinstance(param.ctype.pointee, (StructType, VoidType)):
                continue
            target = self.eval(arg)
            if isinstance(target, CPtr) and target.base != 0:
                region, off = self._element(target, 0)
                self.mem.write(region.base_id, off * region.elem_size, None,
                               param.ctype.pointee, entry.outs.get(i, 0))
        for gname, value in entry.globals_set.items():
            region = self.layout.regions.by_name.get(gname)
            if region is not None and region.dim == 1:
                self.mem.write(region.base_id, 0, None, region.elem_type, value)
        if instr.result is not None:
            ret = entry.ret if entry.ret is not None else 0
            self._store(instr.result, ret)

    def _check_exit_contracts(self, applicable: list[int]) -> None:
        for post, line in self.anns.posts:
            self.outcomes.append(CheckOutcome(
                "post", _truthy(self.eval(post)), [], line, post))
        for i in applicable:
            tc = self.anns.testcases[i]
            self.outcomes.append(CheckOutcome(
                "testcase", _truthy(self.eval(tc.post)), list(tc.tags),
                tc.line, tc.post))

    # -- expression evaluation ----------------------------------------------------

    def eval(self, e: Expr) -> Value:
        if isinstance(e, IntLit):
            return e.value
        if isinstance(e, CharLit):
            return e.value
        if isinstance(e, FloatLit):
            return e.value
        if isinstance(e, StrLit):
            raise ReplayError("string literal")
        if isinstance(e, SizeofType):
            return e.target.size
        if isinstance(e, Name):
            return self._load_name(e)
        if isinstance(e, ReturnRef):
            if self.returned is None:
                raise ReplayError("__rtt_return before return")
            return self.returned
        if isinstance(e, InitialRef):
            return self.snapshots[e.var.name]
        if isinstance(e, Bin):
            return self._bin(e)
        if isinstance(e, Un):
            return self._un(e)
        if isinstance(e, Index):
            base = self.eval(e.base)
            idx = int(self.eval(e.index))  # type: ignore[arg-type]
            return self._load_ptr(base, idx, e.ctype)
        if isinstance(e, Member):
            return self._load_member(e)
        if isinstance(e, CastExpr):
            return self._cast(self.eval(e.operand), e.operand.ctype, e.target)
        if isinstance(e, Cond):
            return self.eval(e.then if _truthy(self.eval(e.cond)) else e.other)
        raise ReplayError(f"expression {type(e).__name__}")

    def _load_name(self, e: Name) -> Value:
        if e.binding is not None and e.binding.kind == "enum":
            return e.binding.enum_value
        region = self.layout.regions.by_name.get(e.name)
        if region is None:
            raise ReplayError(f"no storage for {e.name}")
        if region.dim != 1 or isinstance(e.ctype, ArrayType):
            return CPtr(region.base_id, 0)
        return self.mem.read(region.base_id, 0, None, region.elem_type)

    def _element(self, ptr: Value, idx: int) -> tuple[Region, int]:
        """The region ptr + idx points into and the element offset there."""
        if not isinstance(ptr, CPtr):
            raise ReplayError("dereference of a non-pointer")
        if ptr.base == 0:
            raise ReplayError("null dereference")
        region = self.layout.regions.by_id.get(ptr.base)
        if region is None:
            raise ReplayError(f"dereference into unknown region {ptr.base}")
        off = ptr.offset + idx
        if not 0 <= off < region.dim:
            raise ReplayError(
                f"out-of-bounds access: offset {off} in {region.name} (dim {region.dim})")
        return region, off

    def _load_ptr(self, base: Value, idx: int, ctype: CType) -> Value:
        region, off = self._element(base, idx)
        elem = ctype if ctype is not None else region.elem_type
        return self.mem.read(region.base_id, off * region.elem_size, None, elem)

    def _member_slot(self, e: Member) -> tuple[int, int, tuple[int, int] | None, CType]:
        base = e.base
        if e.arrow:
            region, off = self._element(self.eval(base), 0)
        elif isinstance(base, Name):
            region, off = self.layout.regions.by_name[base.name], 0
        elif isinstance(base, Index):
            region, off = self._element(
                self.eval(base.base), int(self.eval(base.index)))  # type: ignore[arg-type]
        elif isinstance(base, Un) and base.op == "*":
            region, off = self._element(self.eval(base.operand), 0)
        else:
            raise ReplayError("unsupported struct access")
        st = base.ctype.pointee if e.arrow and isinstance(base.ctype, PointerType) \
            else base.ctype
        if not isinstance(st, StructType):
            st = region.elem_type
        if not isinstance(st, StructType):
            raise ReplayError("member access on a non-struct")
        f = st.field(e.field_name)
        bit = (f.bit_offset, f.bit_width) if f.bit_width is not None else None
        return region.base_id, off * region.elem_size + f.byte_offset, bit, f.ctype

    def _load_member(self, e: Member) -> Value:
        base_id, off, bit, ctype = self._member_slot(e)
        return self.mem.read(base_id, off, bit, ctype)

    def _store(self, place: Expr, value: Value) -> int:
        """Store value at place; returns the id of the region written."""
        if isinstance(place, Name):
            region = self.layout.regions.by_name.get(place.name)
            if region is None:
                raise ReplayError(f"no storage for {place.name}")
            self.mem.write(region.base_id, 0, None, region.elem_type, value)
            return region.base_id
        if isinstance(place, Index):
            region, off = self._element(
                self.eval(place.base), int(self.eval(place.index)))  # type: ignore[arg-type]
        elif isinstance(place, Un) and place.op == "*":
            region, off = self._element(self.eval(place.operand), 0)
        elif isinstance(place, Member):
            base_id, off, bit, ctype = self._member_slot(place)
            self.mem.write(base_id, off, bit, ctype, value)
            return base_id
        else:
            raise ReplayError(f"store target {type(place).__name__}")
        self.mem.write(region.base_id, off * region.elem_size, None,
                       place.ctype or region.elem_type, value)
        return region.base_id

    def _bin(self, e: Bin) -> Value:
        if e.op == "&&":
            return 1 if _truthy(self.eval(e.lhs)) and _truthy(self.eval(e.rhs)) else 0
        if e.op == "||":
            return 1 if _truthy(self.eval(e.lhs)) or _truthy(self.eval(e.rhs)) else 0
        a = self.eval(e.lhs)
        b = self.eval(e.rhs)
        if isinstance(a, CPtr) or isinstance(b, CPtr):
            return self._ptr_bin(e.op, a, b)
        try:
            return binary(e.op, a, b, e.lhs.ctype, e.rhs.ctype, e.ctype)
        except Undefined as exc:
            raise ReplayError(str(exc)) from exc

    def _ptr_bin(self, op: str, a: Value, b: Value) -> Value:
        if op in ("==", "!="):
            pa = a if isinstance(a, CPtr) else CPtr(0, 0) if a == 0 else None
            pb = b if isinstance(b, CPtr) else CPtr(0, 0) if b == 0 else None
            if pa is None or pb is None:
                raise ReplayError("pointer compared with integer")
            same = (pa.base == pb.base and pa.offset == pb.offset) or \
                (pa.base == 0 and pb.base == 0)
            return (1 if same else 0) if op == "==" else (0 if same else 1)
        if op in ("<", "<=", ">", ">="):
            if not (isinstance(a, CPtr) and isinstance(b, CPtr)):
                raise ReplayError("ordered pointer comparison with integer")
            if a.base != b.base:
                raise ReplayError("ordered comparison across regions")
            res = {"<": a.offset < b.offset, "<=": a.offset <= b.offset,
                   ">": a.offset > b.offset, ">=": a.offset >= b.offset}[op]
            return 1 if res else 0
        if op == "-" and isinstance(a, CPtr) and isinstance(b, CPtr):
            if a.base != b.base:
                raise ReplayError("pointer subtraction across regions")
            return wrap_int(a.offset - b.offset, PTRDIFF)
        if op in ("+", "-") and isinstance(a, CPtr):
            step = int(b)  # type: ignore[arg-type]
            return CPtr(a.base, a.offset + step if op == "+" else a.offset - step)
        if op == "+" and isinstance(b, CPtr):
            return CPtr(b.base, b.offset + int(a))  # type: ignore[arg-type]
        raise ReplayError(f"pointer operator {op}")

    def _un(self, e: Un) -> Value:
        if e.op == "*":
            return self._load_ptr(self.eval(e.operand), 0, e.ctype)
        if e.op == "&":
            return self._address_of(e.operand)
        v = self.eval(e.operand)
        if e.op == "!":
            return 0 if _truthy(v) else 1
        if isinstance(v, CPtr):
            raise ReplayError(f"unary {e.op} on a pointer")
        try:
            return unary(e.op, v, e.ctype)
        except Undefined as exc:
            raise ReplayError(str(exc)) from exc

    def _address_of(self, e: Expr) -> CPtr:
        if isinstance(e, Name):
            region = self.layout.regions.by_name[e.name]
            return CPtr(region.base_id, 0)
        if isinstance(e, Index):
            base = self.eval(e.base)
            if not isinstance(base, CPtr):
                raise ReplayError("& of non-place")
            return CPtr(base.base, base.offset + int(self.eval(e.index)))  # type: ignore[arg-type]
        if isinstance(e, Un) and e.op == "*":
            v = self.eval(e.operand)
            if not isinstance(v, CPtr):
                raise ReplayError("& of non-place")
            return v
        raise ReplayError("& of unsupported place")

    def _cast(self, v: Value, src: CType, dst: CType) -> Value:
        if isinstance(v, CPtr):
            if isinstance(dst, PointerType):
                return v
            raise ReplayError("pointer cast to non-pointer")
        if isinstance(dst, PointerType):
            if v == 0:
                return CPtr(0, 0)
            raise ReplayError("integer cast to pointer")
        return _store_convert(v, dst, None)


def _truthy(v: Value) -> bool:
    if isinstance(v, CPtr):
        return v.base != 0
    return bool(v)


def concrete_replay(cfg: Cfg, layout: Layout, anns: AnnotationSet,
                    cells: list[InputCell],
                    schedule: dict[str, list[StubCallValues]]) -> ReplayResult:
    """Run the CFG concretely from cells; raises ReplayError on impossible inputs."""
    return _Replayer(cfg, layout, anns, cells, schedule).run()
