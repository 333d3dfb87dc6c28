"""Symbolic interpretation of traces over the memory-item model.

interpret() walks one trace: assignments append memory items, decisions
append resolved guards to the path constraint, and external calls become
stub variables. It computes only what the path constraint needs: the
preconditions (and an active test case's precondition) are assumed over the
entry snapshot table that __rtt_initial reads, and a callee's postconditions
constrain its stub variables. __rtt_assign runs as an assignment to its
auxiliary variable, so its value's side conditions hold on the path as they
do for replay; __rtt_assert is skipped and postconditions are not evaluated:
concrete replay alone decides what a test case does with its contracts.

Reads and writes implement the aliasing-aware history semantics described
in memory.py; all side conditions produced while evaluating an expression
(dereference bounds, divisor != 0, shift ranges, pointer-subtraction base
equality) attach to the next branch entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import constraints as con
from .config import Config
from .errors import UnsupportedOperation
from .frontend.annotations import AnnotationKind, AnnotationSet
from .frontend.csyntax import (
    Assign,
    Bin,
    Call,
    CastExpr,
    CharLit,
    Cond,
    Expr,
    FloatLit,
    FunctionDef,
    Index,
    InitialRef,
    IntLit,
    Member,
    Name,
    ReturnRef,
    SizeofType,
    SourceUnit,
    StrLit,
    Un,
)
from .imr import Cfg, CfgEdge, IAssign, ICall, IMarker, IReturn
from .memory import (
    ApproxFlags,
    MemoryItem,
    NULL_BASE,
    Place,
    Region,
    RegionTable,
    base_eq_cond,
    byte_offset,
    offsets_overlap_cond,
    reinterpret,
)
from .stct import StctNode, Trace
from .symexpr import (
    BinOp,
    Const,
    FALSE,
    Ptr,
    Role,
    Sym,
    SymExpr,
    TRUE,
    is_false,
    is_true,
    mk_binop,
    mk_cast,
    mk_ite,
    mk_range,
    mk_unop,
    negate,
    to_bool,
)
from .typesys import (
    BOOL,
    INT,
    UINT,
    ArrayType,
    CType,
    FloatType,
    IntType,
    PointerType,
    StructType,
    VoidType,
    usual_arith,
)

_ORDERING = ("<", "<=", ">", ">=")
_CMP = _ORDERING + ("==", "!=")
# History items a read may alias before it gives up on a case split and
# returns an untied fresh symbol (marked approximate).
_MAX_ALIAS_CANDIDATES = 8


@dataclass
class StubPolicy:
    signature: FunctionDef
    permitted_globals: list[str]
    posts: list[Expr]


@dataclass
class Layout:
    """Per-function address space, input symbols and stub policies."""

    unit: SourceUnit
    fn: FunctionDef
    cfg: Cfg
    anns: AnnotationSet
    config: Config
    regions: RegionTable = field(init=False)
    stub_policies: dict[str, StubPolicy] = field(init=False)

    def __post_init__(self) -> None:
        self.regions = RegionTable(self.config.ptr_array_size)
        for g in self.unit.globals:
            self.regions.new_region(g.name, g.ctype, "global", True)
            if isinstance(g.ctype, PointerType):
                self.regions.pointer_input(g.name, g.ctype)
        for p in self.fn.params:
            self.regions.new_region(p.name, p.ctype, "param", True)
            if isinstance(p.ctype, PointerType):
                self.regions.pointer_input(p.name, p.ctype)
        for name, ctype in self.fn.locals_types.items():
            self.regions.new_region(name, ctype, "local", False)
        for name, ctype in self.cfg.inline_locals.items():
            self.regions.new_region(name, ctype, "local", False)
        for name, ctype in self.cfg.temps.items():
            self.regions.new_region(name, ctype, "temp", False)
        for name, ctype in self.anns.aux.items():
            self.regions.new_region(name, ctype, "aux", False)
        self.stub_policies = self._stub_policies()

    def _stub_policies(self) -> dict[str, StubPolicy]:
        out: dict[str, StubPolicy] = {}
        uut_modifies = list(self.anns.modifies or [])
        for fn in self.unit.functions:
            defined = fn.body is not None and not fn.annotation_only
            if defined or fn.name == self.fn.name:
                continue
            permitted: list[str] = []
            posts: list[Expr] = []
            if fn.annotation_only and fn.body is not None:
                from .frontend.annotations import extract_annotations

                callee_anns = extract_annotations(fn)
                if callee_anns.modifies is not None:
                    permitted.extend(callee_anns.modifies)
                posts = [p for p, _ in callee_anns.posts]
            for g in self.config.stub_globals.get(fn.name, []):
                if g not in permitted:
                    permitted.append(g)
            # globals the unit itself declares writable are fair game for
            # its stubs; this is what makes the annotated examples work
            # without extra configuration
            for g in uut_modifies:
                if g not in permitted:
                    permitted.append(g)
            out[fn.name] = StubPolicy(fn, permitted, posts)
        return out


@dataclass
class BranchEntry:
    edge: CfgEdge
    guard: SymExpr
    sides: list[SymExpr]
    folded: bool | None  # True: constant-true guard, no solver needed


@dataclass
class StubCallEvent:
    callee: str
    k: int
    ret: Sym | None
    outs: list[tuple[int, Sym, SymExpr]]  # (arg index, symbol, target pointer)
    globals_written: list[tuple[str, Sym]]
    line: int


@dataclass
class Checkpoint:
    """The path state reached after the last node of a trace.

    An interpretation of a trace whose nodes begin with these node objects
    may resume from a fork of the state instead of from the entry, as long
    as the region table has not grown since the interpretation that built
    the state began: reads look up pointer base candidates as they run.
    """

    nodes: list[StctNode]
    state: PathState
    generation: int  # RegionTable.generation when that interpretation began

    def resumes(self, trace: Trace, regions: RegionTable) -> bool:
        return (regions.generation == self.generation
                and len(trace.nodes) >= len(self.nodes)
                and all(a is b for a, b in zip(self.nodes, trace.nodes)))


@dataclass
class PathState:
    layout: Layout
    step: int = 0
    items: list[MemoryItem] = field(default_factory=list)
    assumptions: list[SymExpr] = field(default_factory=list)
    branches: list[BranchEntry] = field(default_factory=list)
    tail_sides: list[SymExpr] = field(default_factory=list)
    stub_counts: dict[str, int] = field(default_factory=dict)
    stub_calls: list[StubCallEvent] = field(default_factory=list)
    snapshots: dict[str, SymExpr] = field(default_factory=dict)
    return_value: SymExpr | None = None
    infeasible_branch: int | None = None
    flags: ApproxFlags = field(default_factory=ApproxFlags)
    complete: bool = False
    _pending: list[SymExpr] = field(default_factory=list)
    # saved after the last node of an incomplete trace, for its extensions
    checkpoint: Checkpoint | None = None
    # trace nodes taken over from a checkpoint (0: interpreted from the entry)
    resumed_at: int = 0

    def fork(self) -> PathState:
        """A copy that later steps on either side leave intact.

        Branch entries, events and expressions are never changed once
        recorded, so the lists holding them are copied and they are shared;
        memory items are copied because a write closes them.
        """
        return PathState(
            self.layout, self.step, [item.copy() for item in self.items],
            list(self.assumptions), list(self.branches), list(self.tail_sides),
            dict(self.stub_counts), list(self.stub_calls), dict(self.snapshots),
            self.return_value, self.infeasible_branch, self.flags.fork(),
            self.complete, list(self._pending))

    def add_side(self, cond: SymExpr) -> None:
        if not is_true(cond):
            self._pending.append(cond)

    def take_pending(self) -> list[SymExpr]:
        out = self._pending
        self._pending = []
        return out


class _Interp:
    """Evaluation engine bound to one PathState."""

    def __init__(self, state: PathState):
        self.state = state
        self.layout = state.layout
        self.regions = state.layout.regions
        self.config = state.layout.config
        self.overrides: dict[str, SymExpr] = {}
        self.return_override: SymExpr | None = None

    # ---- places -----------------------------------------------------------

    def resolve_place(self, e: Expr) -> Place:
        if isinstance(e, Name):
            region = self.regions.region_of(e.name)
            if isinstance(region.elem_type, StructType) and region.dim == 1:
                raise UnsupportedOperation(
                    f"whole-aggregate access to {e.name} (line {e.line})")
            if region.dim != 1:
                raise UnsupportedOperation(
                    f"whole-array access to {e.name} (line {e.line})")
            return Place(Const(region.base_id, UINT), Const(0, UINT),
                         region.elem_size, region.elem_type,
                         hint=e.name, elem_offset=Const(0, UINT))
        if isinstance(e, Index):
            base_v = self.eval(e.base)
            idx = self.as_uint(self.eval(e.index))
            return self._deref_place(base_v, idx, e.line, hint=_hint(e))
        if isinstance(e, Un) and e.op == "*":
            base_v = self.eval(e.operand)
            return self._deref_place(base_v, Const(0, UINT), e.line, hint=_hint(e))
        if isinstance(e, Member):
            return self._member_place(e)
        raise UnsupportedOperation(f"lvalue {type(e).__name__} (line {getattr(e, 'line', 0)})")

    def _deref_place(self, base_v: SymExpr, idx: SymExpr, line: int, hint: str) -> Place:
        if not isinstance(base_v, Ptr):
            raise UnsupportedOperation(f"dereference of a non-pointer value (line {line})")
        elem_t = base_v.ctype.pointee if isinstance(base_v.ctype, PointerType) else INT
        elem_off = mk_binop("+", base_v.offset, idx, UINT) \
            if not _is_zero(idx) else base_v.offset
        # out-of-bounds access is not an error: the bound becomes part of
        # the path constraint
        self.state.add_side(
            mk_range(elem_off, 0, self.regions.dim_for_base(base_v.base)))
        byte_off = byte_offset(elem_off, elem_t.size)
        return Place(base_v.base, byte_off, elem_t.size, elem_t,
                     hint=hint, elem_offset=elem_off)

    def _member_place(self, e: Member) -> Place:
        if e.arrow:
            whole = self._deref_place(self.eval(e.base), Const(0, UINT), e.line, "")
        elif isinstance(e.base, Name):
            region = self.regions.region_of(e.base.name)
            whole = Place(Const(region.base_id, UINT), Const(0, UINT),
                          region.elem_size, region.elem_type)
        elif isinstance(e.base, (Index, Un)):
            whole = self.resolve_place(e.base)  # a[i].f, (*p).f
        else:
            raise UnsupportedOperation(f"struct base {type(e.base).__name__}")
        st = whole.elem_type
        if not isinstance(st, StructType):
            raise UnsupportedOperation(f"member access on {st} (line {e.line})")
        f = st.field(e.field_name)
        bit = (f.bit_offset, f.bit_width) if f.bit_width is not None else None
        off = mk_binop("+", whole.offset, Const(f.byte_offset, UINT), UINT) \
            if f.byte_offset else whole.offset
        return Place(whole.base, off, f.ctype.size, f.ctype, bit=bit, hint=_hint(e),
                     member_offset=f.byte_offset)

    # ---- reads ------------------------------------------------------------

    def read(self, place: Place) -> SymExpr:
        candidates: list[tuple[SymExpr, SymExpr | None]] = []  # (condition, value)
        ps = self.regions.pointer_of_base(place.base)
        targets = set(self.regions.base_candidates(ps)) if ps is not None else None
        for item in reversed(self.state.items):
            if targets is not None and isinstance(item.base, Const) \
                    and int(item.base.value) not in targets:
                continue  # a region the read pointer cannot name
            writer = self.regions.pointer_of_base(item.base)
            if writer is not None and isinstance(place.base, Const) \
                    and int(place.base.value) not in self.regions.base_candidates(writer):
                continue  # written through a pointer that cannot name this region
            b = base_eq_cond(item.base, place.base)
            if is_false(b):
                continue
            o = offsets_overlap_cond(item, place)
            if o is not None and is_false(o):
                continue
            if o is None:
                cond: SymExpr = b  # partial overlap: imprecise value
                value: SymExpr | None = None
            else:
                cond = mk_binop("&&", b, o)
                value = item.value
            if is_true(cond) and value is not None and not candidates:
                return reinterpret(value, place.elem_type, self.state.flags)
            candidates.append((cond, value))
            if is_true(cond):
                break  # older items are fully shadowed
        terminated = bool(candidates) and is_true(candidates[-1][0]) \
            and candidates[-1][1] is not None
        if not candidates:
            return self._base_content(place)
        if len(candidates) > _MAX_ALIAS_CANDIDATES:
            self.state.flags.mark(
                f"alias case split over {len(candidates)} items at {place.hint}")
            return self._fresh_read(place)
        fresh = self._fresh_read(place)
        remaining: SymExpr = TRUE
        for cond, value in candidates:
            if value is None:
                self.state.flags.mark(f"partial overlap at {place.hint}")
                value = self.state.flags.fresh(place.elem_type)
            hit = mk_binop("&&", remaining, cond)
            adapted = reinterpret(value, place.elem_type, self.state.flags)
            self.state.add_side(
                mk_binop("||", negate(hit), _value_eq(fresh, adapted)))
            remaining = mk_binop("&&", remaining, negate(cond))
        if not terminated:
            self._constrain_base_content(fresh, place, remaining)
        return fresh

    def _fresh_read(self, place: Place) -> SymExpr:
        name = f"{place.hint or 'mem'}@read@{self.state.step}"
        if isinstance(place.elem_type, PointerType):
            ps = self.regions.pointer_input(name, place.elem_type, from_memory=True)
            return Ptr(ps.base, ps.offset, place.elem_type)
        return Sym(name, place.elem_type, Role.FRESH_READ)

    def _base_content(self, place: Place) -> SymExpr:
        """Value of an untouched location: a test input or an uninitialized slot."""
        if isinstance(place.base, Const):
            region = self.regions.by_id.get(int(place.base.value))
            if region is None:
                raise UnsupportedOperation("access to an unknown region")
            if isinstance(place.offset, Const):
                if region.is_input:
                    return self._input_cell(region, int(place.offset.value), place)
                return self._fresh_read(place)
            fresh = self._fresh_read(place)
            self._constrain_base_content(fresh, place, TRUE)
            return fresh
        # dereference through a pointer whose base is still symbolic
        fresh = self._fresh_read(place)
        self._constrain_base_content(fresh, place, TRUE)
        return fresh

    def _input_cell(self, region: Region, byte_off: int, place: Place) -> SymExpr:
        if isinstance(place.elem_type, PointerType):
            sym = self.regions.cell_symbol(region, byte_off, place.bit)
            ps = self.regions.pointer_input(sym.name, place.elem_type)
            return Ptr(ps.base, ps.offset, place.elem_type)
        sym = self.regions.cell_symbol(region, byte_off, place.bit)
        return reinterpret(sym, place.elem_type, self.state.flags)

    def _constrain_base_content(self, fresh: SymExpr, place: Place,
                                remaining: SymExpr) -> None:
        """Tie a fresh read to the input cells it may land on."""
        if is_false(remaining):
            return
        if isinstance(place.base, Const):
            region = self.regions.by_id.get(int(place.base.value))
            if region is None or not region.is_input:
                return
            pairs = [(place.base, region)]
        else:
            ps = self.regions.pointer_of_base(place.base)
            if ps is None:
                self.state.flags.mark(f"unresolvable base for {place.hint}")
                return
            pairs = []
            for rid in self.regions.base_candidates(ps):
                if rid == NULL_BASE:
                    continue
                region = self.regions.by_id[rid]
                if region.is_input:
                    pairs.append((Const(rid, UINT), region))
        conds = 0
        for base_c, region in pairs:
            elem_size = max(region.elem_size, 1)
            for i in range(region.dim):
                if conds >= 64:
                    self.state.flags.mark(f"cell split overflow at {place.hint}")
                    return
                cell_off = i * elem_size + place.member_offset
                cond = mk_binop("&&", remaining, mk_binop(
                    "&&",
                    base_eq_cond(place.base, base_c),
                    mk_binop("==", place.offset, Const(cell_off, UINT)),
                ))
                if is_false(cond):
                    continue
                cell = self._input_cell(
                    region, cell_off,
                    Place(base_c, Const(cell_off, UINT), place.length,
                          place.elem_type, place.bit, place.hint))
                self.state.add_side(
                    mk_binop("||", negate(cond), _value_eq(fresh, cell)))
                conds += 1

    # ---- writes -----------------------------------------------------------

    def write(self, place: Place, value: SymExpr, line: int) -> None:
        value = self.value_as(value, place.elem_type, line)
        if place.bit is not None and isinstance(place.elem_type, IntType):
            # bit fields store only their low bits; reads widen back
            narrow = IntType(place.bit[1], place.elem_type.signed,
                             f"{place.elem_type.name}:{place.bit[1]}")
            value = self.value_as(value, narrow, line)
        if isinstance(place.base, Const) and isinstance(place.offset, Const):
            for item in self.state.items:
                if not item.open:
                    continue
                if not (isinstance(item.base, Const)
                        and item.base.value == place.base.value):
                    continue
                if isinstance(item.offset, Const) and item.bit == place.bit:
                    a, b = int(item.offset.value), int(place.offset.value)
                    if not (a + item.length <= b or b + place.length <= a):
                        item.valid_to = self.state.step
        self.state.items.append(MemoryItem(
            place.base, place.offset, place.length, value,
            self.state.step, None, place.bit, line))

    # ---- expression evaluation ---------------------------------------------

    def eval(self, e: Expr) -> SymExpr:
        if isinstance(e, IntLit):
            return Const(e.value, e.ctype or INT)
        if isinstance(e, CharLit):
            return Const(e.value, INT)
        if isinstance(e, FloatLit):
            return Const(e.value, e.ctype or _float_default(e))
        if isinstance(e, StrLit):
            raise UnsupportedOperation(f"string literal (line {e.line})")
        if isinstance(e, SizeofType):
            return Const(e.target.size, UINT)
        if isinstance(e, Name):
            return self._eval_name(e)
        if isinstance(e, ReturnRef):
            if self.return_override is not None:
                return self.return_override
            if self.state.return_value is None:
                raise UnsupportedOperation("__rtt_return before any return")
            return self.state.return_value
        if isinstance(e, InitialRef):
            name = e.var.name
            if name not in self.state.snapshots:
                raise UnsupportedOperation(f"missing entry snapshot for {name}")
            return self.state.snapshots[name]
        if isinstance(e, Bin):
            return self._eval_bin(e)
        if isinstance(e, Un):
            return self._eval_un(e)
        if isinstance(e, Index):
            return self.read(self.resolve_place(e))
        if isinstance(e, Member):
            return self.read(self.resolve_place(e))
        if isinstance(e, CastExpr):
            return self._eval_cast(e)
        if isinstance(e, Cond):
            cond = to_bool(self.eval(e.cond))
            return mk_ite(cond, self.eval(e.then), self.eval(e.other), e.ctype)
        if isinstance(e, Call):
            raise UnsupportedOperation(
                f"function call inside an annotation expression (line {e.line})")
        if isinstance(e, Assign):
            raise UnsupportedOperation(
                f"assignment inside an annotation expression (line {e.line})")
        raise UnsupportedOperation(f"expression {type(e).__name__}")

    def _eval_name(self, e: Name) -> SymExpr:
        if e.name in self.overrides:
            return self.overrides[e.name]
        if e.binding is not None and e.binding.kind == "enum":
            return Const(e.binding.enum_value, INT)
        region = self.regions.by_name.get(e.name)
        if region is None:
            raise UnsupportedOperation(f"no storage for {e.name}")
        if region.dim != 1 or isinstance(e.ctype, ArrayType):
            # array designator decays to a pointer to its first element
            return Ptr(Const(region.base_id, UINT), Const(0, UINT),
                       PointerType(region.elem_type))
        return self.read(self.resolve_place(e))

    def _eval_bin(self, e: Bin) -> SymExpr:
        if e.op in ("&&", "||"):
            lhs = to_bool(self.eval(e.lhs))
            rhs = to_bool(self.eval(e.rhs))
            return mk_binop(e.op, lhs, rhs)
        lhs = self.eval(e.lhs)
        rhs = self.eval(e.rhs)
        if e.op in _CMP:
            return self._compare(e.op, lhs, rhs, e.line)
        if isinstance(lhs, Ptr) or isinstance(rhs, Ptr):
            return self._ptr_arith(e.op, lhs, rhs, e.line)
        common = e.ctype if e.ctype is not None and not isinstance(e.ctype, BOOL.__class__) \
            else usual_arith(lhs.ctype, rhs.ctype)
        if e.op in ("/", "%"):
            rhs_v = self.value_as(rhs, common, e.line)
            if isinstance(rhs_v, Const) and rhs_v.value == 0:
                self.state.add_side(FALSE)  # division by zero: path dies
            elif not isinstance(rhs_v, Const):
                self.state.add_side(
                    mk_binop("!=", rhs_v, Const(0, common)))
            return mk_binop(e.op, self.value_as(lhs, common, e.line), rhs_v, common)
        if e.op in ("<<", ">>"):
            assert isinstance(common, IntType)
            amt = self.value_as(rhs, INT, e.line)
            if isinstance(amt, Const):
                if not 0 <= int(amt.value) < common.width:
                    self.state.add_side(FALSE)
            else:
                self.state.add_side(mk_range(amt, 0, common.width))
            return mk_binop(e.op, self.value_as(lhs, common, e.line), amt, common)
        return mk_binop(e.op, self.value_as(lhs, common, e.line),
                        self.value_as(rhs, common, e.line), common)

    def _compare(self, op: str, lhs: SymExpr, rhs: SymExpr, line: int) -> SymExpr:
        lp, rp = isinstance(lhs, Ptr), isinstance(rhs, Ptr)
        if lp or rp:
            if lp and rp:
                p1 = con.ptr_info(lhs, self.regions)
                p2 = con.ptr_info(rhs, self.regions)
                return _raw_conj(con.pointer_compare(p1, p2, op).conjuncts)
            ptr, other, flipped = (lhs, rhs, False) if lp else (rhs, lhs, True)
            if isinstance(other, Const) and other.value == 0:
                o = op if not flipped else _swap_cmp(op)
                return con.pointer_null_compare(
                    con.ptr_info(ptr, self.regions), o)
            raise UnsupportedOperation(
                f"pointer compared against a non-pointer (line {line})")
        common = usual_arith(lhs.ctype, rhs.ctype) \
            if _arith_pair(lhs.ctype, rhs.ctype) else None
        if common is not None:
            lhs = self.value_as(lhs, common, line)
            rhs = self.value_as(rhs, common, line)
        return mk_binop(op, lhs, rhs, BOOL)

    def _ptr_arith(self, op: str, lhs: SymExpr, rhs: SymExpr, line: int) -> SymExpr:
        if op == "-" and isinstance(lhs, Ptr) and isinstance(rhs, Ptr):
            if lhs.ctype != rhs.ctype:
                raise UnsupportedOperation(f"mixed pointer subtraction (line {line})")
            self.state.add_side(base_eq_cond(lhs.base, rhs.base))
            diff = mk_binop("-", lhs.offset, rhs.offset, UINT)
            return mk_cast(diff, INT)
        if op in ("+", "-") and isinstance(lhs, Ptr) and not isinstance(rhs, Ptr):
            step = self.as_uint(rhs)
            new_off = mk_binop(op, lhs.offset, step, UINT)
            return Ptr(lhs.base, new_off, lhs.ctype)
        if op == "+" and isinstance(rhs, Ptr):
            step = self.as_uint(lhs)
            return Ptr(rhs.base, mk_binop("+", rhs.offset, step, UINT), rhs.ctype)
        raise UnsupportedOperation(f"pointer operator {op} (line {line})")

    def _eval_un(self, e: Un) -> SymExpr:
        if e.op == "&":
            place = self.resolve_place(e.operand)
            if place.elem_offset is None or place.bit is not None:
                raise UnsupportedOperation(f"cannot take this address (line {e.line})")
            return Ptr(place.base, place.elem_offset, PointerType(place.elem_type))
        if e.op == "*":
            return self.read(self.resolve_place(e))
        v = self.eval(e.operand)
        if e.op == "!":
            return negate(to_bool(v))
        if isinstance(v, Ptr):
            raise UnsupportedOperation(f"unary {e.op} on a pointer (line {e.line})")
        return mk_unop(e.op, self.value_as(v, e.ctype, e.line) if e.ctype else v, e.ctype)

    def _eval_cast(self, e: CastExpr) -> SymExpr:
        v = self.eval(e.operand)
        t = e.target
        if isinstance(v, Ptr):
            if isinstance(t, PointerType):
                if t.pointee == v.ctype.pointee or isinstance(t.pointee, VoidType) \
                        or t.pointee.size == v.ctype.pointee.size:
                    return Ptr(v.base, v.offset, t)
                raise UnsupportedOperation(
                    f"pointer cast changing element size (line {e.line})")
            raise UnsupportedOperation(f"cast of pointer to {t} (line {e.line})")
        if isinstance(t, PointerType):
            if isinstance(v, Const) and v.value == 0:
                return Ptr(Const(NULL_BASE, UINT), Const(0, UINT), t)
            raise UnsupportedOperation(f"integer-to-pointer cast (line {e.line})")
        return self.value_as(v, t, e.line)

    # ---- conversions ---------------------------------------------------------

    def value_as(self, v: SymExpr, want: CType | None, line: int = 0) -> SymExpr:
        if want is None or v.ctype == want:
            return v
        if isinstance(want, PointerType):
            if isinstance(v, Ptr):
                return Ptr(v.base, v.offset, want) if v.ctype != want else v
            if isinstance(v, Const) and v.value == 0:
                return Ptr(Const(NULL_BASE, UINT), Const(0, UINT), want)
            if v.ctype is BOOL:
                raise UnsupportedOperation(f"boolean used as pointer (line {line})")
            raise UnsupportedOperation(f"integer used as pointer (line {line})")
        if isinstance(v, Ptr):
            raise UnsupportedOperation(f"pointer converted to {want} (line {line})")
        if v.ctype is BOOL and isinstance(want, (IntType, FloatType)):
            return mk_ite(v, Const(1, want), Const(0, want), want)
        out = mk_cast(v, want)
        if isinstance(v, Const) and not isinstance(out, Const):
            self.state.add_side(FALSE)  # undefined conversion: path dies
        return out

    def as_uint(self, v: SymExpr) -> SymExpr:
        return self.value_as(v, UINT)


def _value_eq(a: SymExpr, b: SymExpr) -> SymExpr:
    if isinstance(a, Ptr) and isinstance(b, Ptr):
        return mk_binop("&&",
                        mk_binop("==", a.base, b.base),
                        mk_binop("==", a.offset, b.offset))
    if isinstance(a, Ptr) or isinstance(b, Ptr):
        p = a if isinstance(a, Ptr) else b
        o = b if isinstance(a, Ptr) else a
        return mk_binop("&&",
                        mk_binop("==", p.base, Const(NULL_BASE, UINT)),
                        mk_binop("==", o, Const(0, o.ctype)))
    common = usual_arith(a.ctype, b.ctype) if _arith_pair(a.ctype, b.ctype) else None
    if common is not None:
        return mk_binop("==", mk_cast(a, common), mk_cast(b, common))
    return mk_binop("==", a, b)


def _raw_conj(parts: list[SymExpr]) -> SymExpr:
    """Right-associated conjunction that keeps folded-true members."""
    if not parts:
        return TRUE
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = BinOp("&&", p, out, BOOL)
    return out


def _swap_cmp(op: str) -> str:
    return {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "==", "!=": "!="}[op]


def _arith_pair(a: CType, b: CType) -> bool:
    return isinstance(a, (IntType, FloatType)) and isinstance(b, (IntType, FloatType))


def _is_zero(e: SymExpr) -> bool:
    return isinstance(e, Const) and e.value == 0


def _float_default(e: FloatLit):
    from .typesys import DOUBLE, FLOAT

    return FLOAT if e.is_single else DOUBLE


def _hint(e: Expr) -> str:
    from .frontend.writer import expr_to_c

    try:
        return expr_to_c(e)
    except TypeError:
        return "mem"


# ---------------------------------------------------------------------------
# Trace interpretation


def interpret(trace: Trace, cfg: Cfg, anns: AnnotationSet, layout: Layout,
              active_testcase: int | None = None,
              resume: Checkpoint | None = None) -> PathState:
    """Symbolically execute one trace and return the resulting path state.

    With a ``resume`` checkpoint that applies to the trace, execution goes on
    from a fork of its state at the first edge the checkpoint's trace did not
    have; the result is the one an interpretation from the entry gives. An
    incomplete trace's state carries a checkpoint for its own extensions.
    """
    if resume is not None and resume.resumes(trace, layout.regions):
        state = resume.state.fork()
        state.resumed_at = first = len(resume.nodes)
        generation = resume.generation
        interp = _Interp(state)
    else:
        generation = layout.regions.generation
        state = PathState(layout)
        interp = _Interp(state)
        _take_snapshots(state, interp, anns)
        _assume_preconditions(state, interp, anns, active_testcase)
        first = 0
    for pos in range(first, len(trace.nodes)):
        if pos:
            edge = trace.edges[pos - 1]
            if edge.conditional:
                _take_branch(state, interp, cfg, edge)
                if state.infeasible_branch is not None:
                    return state
        for instr in cfg.node(trace.nodes[pos].node_id).instrs:
            state.step += 1
            _exec_instr(state, interp, instr)
    if not trace.complete:
        state.checkpoint = Checkpoint(list(trace.nodes), state.fork(), generation)
    state.tail_sides.extend(state.take_pending())
    state.complete = trace.complete
    return state


_AST_FLIP = {"<": ">=", "<=": ">", ">": "<=", ">=": "<", "==": "!=", "!=": "=="}


def _polarized_guard(interp: _Interp, cond: Expr, polarity: bool) -> SymExpr:
    """Evaluate a decision condition under the edge's polarity.

    The negated side of a comparison flips the operator before pointer
    expansion: the false branch of p1 < p2 is the same-region comparison
    p1 >= p2, not the disjunctive negation of the in-bounds formula.
    """
    if not polarity and isinstance(cond, Bin) and cond.op in _AST_FLIP:
        flipped = Bin(_AST_FLIP[cond.op], cond.lhs, cond.rhs, cond.line)
        flipped.ctype = cond.ctype
        return to_bool(interp.eval(flipped))
    value = interp.eval(cond)
    guard = to_bool(value)
    if not polarity:
        guard = negate(guard)
    return guard


def _take_snapshots(state: PathState, interp: _Interp, anns: AnnotationSet) -> None:
    for name in anns.initial_vars:
        expr = Name(name)
        region = state.layout.regions.by_name.get(name)
        if region is None:
            raise UnsupportedOperation(f"__rtt_initial of unknown variable {name}")
        expr.ctype = region.elem_type if region.dim == 1 else \
            ArrayType(region.elem_type, region.dim)
        state.snapshots[name] = interp.eval(expr)
    state._pending = []  # entry reads carry no feasibility conditions


def _assume_preconditions(state: PathState, interp: _Interp, anns: AnnotationSet,
                          active_testcase: int | None) -> None:
    for pre in anns.pres:
        expr = to_bool(interp.eval(pre))
        state.assumptions.extend(state.take_pending())
        state.assumptions.append(expr)
    if active_testcase is not None:
        expr = to_bool(interp.eval(anns.testcases[active_testcase].pre))
        state.assumptions.extend(state.take_pending())
        state.assumptions.append(expr)
    state.assumptions = [a for a in state.assumptions if not is_true(a)]


def _exec_instr(state: PathState, interp: _Interp, instr) -> None:
    if isinstance(instr, IAssign):
        value = interp.eval(instr.value)
        place = interp.resolve_place(instr.place)
        interp.write(place, value, instr.line)
        return
    if isinstance(instr, ICall):
        from .stubs import intercept_call

        intercept_call(state, interp, instr)
        return
    if isinstance(instr, IReturn):
        if instr.value is not None:
            value = interp.eval(instr.value)
            state.return_value = interp.value_as(
                value, state.layout.fn.return_type, instr.line)
        return
    if isinstance(instr, IMarker):
        if instr.kind is AnnotationKind.ASSIGN:
            assign = instr.payload.exprs[0]
            value = interp.eval(assign.value)
            interp.write(interp.resolve_place(assign.target), value, instr.line)
        return
    raise UnsupportedOperation(f"instruction {type(instr).__name__}")


def _take_branch(state: PathState, interp: _Interp, cfg: Cfg, edge: CfgEdge) -> None:
    cond = cfg.node(edge.src).cond
    assert cond is not None and edge.polarity is not None
    guard = _polarized_guard(interp, cond, edge.polarity)
    sides = state.take_pending()
    folded: bool | None = None
    if is_true(guard):
        folded = True
    elif is_false(guard):
        folded = False
    state.branches.append(BranchEntry(edge, guard, sides, folded))
    if folded is False or any(is_false(s) for s in sides):
        state.infeasible_branch = len(state.branches) - 1

