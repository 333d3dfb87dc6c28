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
equality) attach to the next branch entry, or form the constraint's tail
where the trace ends.

Each operand is converted here, once, to the type C gives it in its
expression, read from the types sema recorded: a comparison or logical
result used as a value becomes the int 1 or 0, the arms of a ?: take its
type, and a shift amount is promoted and range-checked in its own type
before it takes the result's. So every node built here keeps the typing
rule that ``symexpr`` states.

A path state is only appended to: a write adds a memory item and changes
no earlier one. So the state interpret returns for an incomplete trace is
the checkpoint of its extensions: each one resumes from a fork, which
copies the lists and shares what they hold, and the checkpoint itself is
never changed.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterator

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
    FLIP,
    Ite,
    Ptr,
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
    bit_field_type,
    promote,
    usual_arith,
)

_ORDERING = ("<", "<=", ">", ">=")
_CMP = _ORDERING + ("==", "!=")
# History items a read may alias before it gives up on a case split and
# returns an untied fresh symbol (marked approximate).
_MAX_ALIAS_CANDIDATES = 8


class StubPolicy:
    def __init__(self, signature: FunctionDef, permitted_globals: list[str],
                 posts: list[Expr]):
        self.signature = signature
        self.permitted_globals = permitted_globals
        self.posts = posts


class Layout:
    """Per-function address space, input symbols and stub policies."""

    def __init__(self, unit: SourceUnit, fn: FunctionDef, cfg: Cfg, anns: AnnotationSet,
                 config: Config):
        self.unit = unit
        self.fn = fn
        self.cfg = cfg
        self.anns = anns
        self.config = config
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
        # each variable's place, built at its first access: a name keeps its
        # region, and a place is never changed once built
        self.name_places: dict[str, Place] = {}

    def _stub_policies(self) -> dict[str, StubPolicy]:
        """A policy for each function the unit declares and may be stubbed:
        not one it defines (a forward prototype yields to the definition)
        nor one on the do-not-stub list."""
        declared: dict[str, FunctionDef] = {}
        for fn in self.unit.functions:
            if fn.body is not None or fn.name not in declared:
                declared[fn.name] = fn
        out: dict[str, StubPolicy] = {}
        uut_modifies = list(self.anns.modifies or [])
        for fn in declared.values():
            defined = fn.body is not None and not fn.annotation_only
            if defined or fn.name in self.config.do_not_stub:
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


class BranchEntry:
    def __init__(self, guard: SymExpr, sides: list[SymExpr]):
        self.guard = guard
        self.sides = sides


class StubCallEvent:
    def __init__(self, callee: str, k: int, ret: Sym | None,
                 outs: list[tuple[int, Sym, SymExpr]],
                 globals_written: list[tuple[str, Sym]], line: int):
        self.callee = callee
        self.k = k
        self.ret = ret
        self.outs = outs  # (arg index, symbol, target pointer)
        self.globals_written = globals_written
        self.line = line


class PathState:
    """The path state reached after the last node of a trace.

    What a state records is never changed: memory items, branches and
    events are only appended. The state interpret returns for an incomplete
    trace is the checkpoint its extensions resume from: each resumes from a
    fork of it, and it stays as it was.
    """

    def __init__(self, layout: Layout, step: int = 0,
                 items: list[MemoryItem] | None = None,
                 base_items: dict[int, tuple[int, ...]] | None = None,
                 symbolic_items: list[int] | None = None,
                 assumptions: list[SymExpr] | None = None,
                 branches: list[BranchEntry] | None = None,
                 stub_counts: dict[str, int] | None = None,
                 stub_calls: list[StubCallEvent] | None = None,
                 snapshots: dict[str, SymExpr] | None = None,
                 return_value: SymExpr | None = None, infeasible_branch: int | None = None,
                 flags: ApproxFlags | None = None, complete: bool = False,
                 pending: list[SymExpr] | None = None):
        self.layout = layout
        self.step = step
        self.items = [] if items is None else items
        # positions in items: per constant base id, and of the symbolic bases;
        # a base's positions are a tuple, so a fork shares them uncopied
        self.base_items = {} if base_items is None else base_items
        self.symbolic_items = [] if symbolic_items is None else symbolic_items
        self.assumptions = [] if assumptions is None else assumptions
        self.branches = [] if branches is None else branches
        self.stub_counts = {} if stub_counts is None else stub_counts
        self.stub_calls = [] if stub_calls is None else stub_calls
        self.snapshots = {} if snapshots is None else snapshots
        self.return_value = return_value
        self.infeasible_branch = infeasible_branch
        self.flags = ApproxFlags() if flags is None else flags
        self.complete = complete
        # side conditions no branch has taken yet: the next branch's, or the
        # constraint's tail where the trace ends
        self.pending = [] if pending is None else pending
        # recorded when interpret returns: the trace's nodes and the region
        # table's generation when the interpretation from the entry began
        self.nodes: list[StctNode] = []
        self.generation: int | None = None
        # the constraint without the tail, recorded by conjoin for an
        # incomplete trace: an extension's constraint begins with it
        self.head: con.Constraint | None = None
        # trace nodes taken over from the state this one was forked from (0:
        # interpreted from the entry), and that state's head
        self.resumed_at = 0
        self.resumed_from_head: con.Constraint | None = None

    def resumes(self, trace: Trace) -> bool:
        """Whether an interpretation of trace may go on from a fork of this
        state: the trace begins with this state's node objects, and the
        region table has not grown since the interpretation that built the
        state began (reads look up pointer base candidates as they run).

        Only the last of this state's nodes is compared (Trace.starts_with):
        the nodes of a trace are the path from the root of one tree down to
        its leaf, and a tree node has one parent, so two traces that hold
        the same node at one position hold the same nodes up to it.
        """
        return (self.layout.regions.generation == self.generation
                and trace.starts_with(self.nodes))

    def resumed_head(self) -> con.Constraint | None:
        """The head of the state this one was forked from, while the region
        table is as it was when that head was built: its free-table entries
        (base candidates) are then still the ones conjoin builds."""
        if self.generation != self.layout.regions.generation:
            return None
        return self.resumed_from_head

    def fork(self) -> PathState:
        """A copy that later steps on either side leave intact.

        Nothing recorded in a path state is ever changed: memory items,
        branch entries, events and expressions are shared, and only the
        lists and maps that hold them are copied. The copy has not reached
        the end of a trace: it has no nodes, generation or head yet.
        """
        return PathState(
            self.layout, self.step, list(self.items),
            dict(self.base_items),
            list(self.symbolic_items), list(self.assumptions), list(self.branches),
            dict(self.stub_counts), list(self.stub_calls), dict(self.snapshots),
            self.return_value, self.infeasible_branch, self.flags.fork(),
            self.complete, list(self.pending))

    def add_item(self, item: MemoryItem) -> None:
        """Append a memory item to the history and index its position."""
        if isinstance(item.base, Const):
            base = int(item.base.value)
            self.base_items[base] = self.base_items.get(base, ()) + (len(self.items),)
        else:
            self.symbolic_items.append(len(self.items))
        self.items.append(item)

    def history_at(self, base_id: int) -> Iterator[MemoryItem]:
        """Newest first, the items a place with constant base base_id may
        alias: those with that base and those with a symbolic base. Every
        other item has a different constant base, which never aliases it."""
        own = reversed(self.base_items.get(base_id, ()))
        positions = heapq.merge(own, reversed(self.symbolic_items), reverse=True) \
            if self.symbolic_items else own
        items = self.items
        return (items[pos] for pos in positions)

    def add_side(self, cond: SymExpr) -> None:
        if not is_true(cond):
            self.pending.append(cond)

    def take_pending(self) -> list[SymExpr]:
        out = self.pending
        self.pending = []
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
            place = self.layout.name_places.get(e.name)
            if place is None:
                place = self.layout.name_places[e.name] = self._name_place(e)
            return place
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

    def _name_place(self, e: Name) -> Place:
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

    def _deref_place(self, base_v: SymExpr, idx: SymExpr, line: int, hint: str) -> Place:
        if not isinstance(base_v, Ptr):
            raise UnsupportedOperation(f"dereference of a non-pointer value (line {line})")
        if isinstance(base_v.base, Ite):
            raise UnsupportedOperation(f"dereference of a pointer ?: (line {line})")
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
        history = self.state.history_at(int(place.base.value)) \
            if isinstance(place.base, Const) else reversed(self.state.items)
        for item in history:
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
                return self._adapt(value, place)
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
            adapted = self._adapt(value, place)
            self.state.add_side(
                mk_binop("||", negate(hit), _value_eq(fresh, adapted)))
            remaining = mk_binop("&&", remaining, negate(cond))
        if not terminated:
            self._constrain_base_content(fresh, place, remaining)
        return fresh

    def _adapt(self, value: SymExpr, place: Place) -> SymExpr:
        """A stored value as the read's type (``reinterpret``); where that
        is a fresh symbol of a pointer type, the read is a fresh pointer."""
        out = reinterpret(value, place.elem_type, self.state.flags)
        if isinstance(place.elem_type, PointerType) and not isinstance(out, Ptr):
            return self._fresh_read(place)
        return out

    def _fresh_read(self, place: Place) -> SymExpr:
        name = f"{place.hint or 'mem'}@read@{self.state.step}"
        if isinstance(place.elem_type, PointerType):
            ps = self.regions.pointer_input(name, place.elem_type, from_memory=True)
            return Ptr(ps.base, ps.offset, place.elem_type)
        return Sym(name, place.elem_type)

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
            value = self.value_as(
                value, bit_field_type(place.elem_type, place.bit[1]), line)
        self.state.add_item(MemoryItem(
            place.base, place.offset, place.length, value, place.bit))

    # ---- expression evaluation ---------------------------------------------

    def eval(self, e: Expr) -> SymExpr:
        if isinstance(e, (IntLit, CharLit, FloatLit)):
            return Const(e.value, e.ctype)
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
            then, other = self.eval(e.then), self.eval(e.other)
            if isinstance(e.ctype, PointerType):
                return self._choose_ptr(cond, then, other, e)
            # both arms take the type of the ?: (C11 6.5.15p5)
            return mk_ite(cond, self.value_as(then, e.ctype, e.line),
                          self.value_as(other, e.ctype, e.line))
        if isinstance(e, Call):
            raise UnsupportedOperation(
                f"function call inside an annotation expression (line {e.line})")
        if isinstance(e, Assign):
            raise UnsupportedOperation(
                f"assignment inside an annotation expression (line {e.line})")
        raise UnsupportedOperation(f"expression {type(e).__name__}")

    def _choose_ptr(self, cond: SymExpr, then: SymExpr, other: SymExpr, e: Cond) -> Ptr:
        """A pointer ?: is one pointer whose base and offset are chosen apart,
        so its relations split into base and offset terms like any other's.
        Its offsets must count one element size."""
        arms = []
        for v in (then, other):
            if isinstance(v, Ptr) and v.ctype.pointee.size != e.ctype.pointee.size:
                raise UnsupportedOperation(
                    f"?: over pointers of different element sizes (line {e.line})")
            arms.append(self.value_as(v, e.ctype, e.line))
        a, b = arms
        return Ptr(mk_ite(cond, a.base, b.base), mk_ite(cond, a.offset, b.offset), e.ctype)

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
        """Each operand is converted to the type C gives it in e, from the
        types sema recorded, so the node is well-typed (see symexpr)."""
        if e.op in ("&&", "||"):
            return mk_binop(e.op, to_bool(self.eval(e.lhs)), to_bool(self.eval(e.rhs)))
        lhs = self.eval(e.lhs)
        rhs = self.eval(e.rhs)
        if e.op in _CMP:
            return self._compare(e, lhs, rhs)
        if isinstance(lhs, Ptr) or isinstance(rhs, Ptr):
            return self._ptr_arith(e.op, lhs, rhs, e.line)
        t = e.ctype
        if e.op in ("<<", ">>"):
            # the amount is promoted and checked in its own type, and only
            # then converted to the result's (C11 6.5.7p3)
            rhs = self.value_as(rhs, promote(e.rhs.ctype), e.line)
            self.state.add_side(mk_range(rhs, 0, t.width))
        elif e.op in ("/", "%"):
            rhs = self.value_as(rhs, t, e.line)
            # undefined behaviour ends the path; a constant operand folds
            # the side condition to FALSE or to TRUE, which add_side drops
            self.state.add_side(mk_binop("!=", rhs, Const(0, t)))
        return mk_binop(e.op, self.value_as(lhs, t, e.line),
                        self.value_as(rhs, t, e.line), t)

    def _compare(self, e: Bin, lhs: SymExpr, rhs: SymExpr) -> SymExpr:
        op, line = e.op, e.line
        lp, rp = isinstance(lhs, Ptr), isinstance(rhs, Ptr)
        if lp or rp:
            if lp and rp:
                p1 = con.ptr_info(lhs, self.regions)
                p2 = con.ptr_info(rhs, self.regions)
                return _raw_conj(con.pointer_compare(p1, p2, op).conjuncts)
            ptr, other, flipped = (lhs, rhs, False) if lp else (rhs, lhs, True)
            if isinstance(other, Const) and other.value == 0:
                o = op if not flipped else _swap_cmp(op)
                return con.pointer_null_compare(ptr.base, o)
            raise UnsupportedOperation(
                f"pointer compared against a non-pointer (line {line})")
        # both sides in their usual arithmetic type (C11 6.5.8p3, 6.5.9p4)
        t = usual_arith(e.lhs.ctype, e.rhs.ctype)
        return mk_binop(op, self.value_as(lhs, t, line), self.value_as(rhs, t, line))

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
        return mk_unop(e.op, self.value_as(v, e.ctype, e.line), e.ctype)

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

    def value_as(self, v: SymExpr, want: CType, line: int = 0) -> SymExpr:
        if v.ctype == want:
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
            # a truth value used as a value is the int 1 or 0 (C11 6.5.8p6)
            return mk_ite(v, Const(1, want), Const(0, want))
        out = mk_cast(v, want)
        if isinstance(v, Const) and not isinstance(out, Const):
            self.state.add_side(FALSE)  # undefined conversion: path dies
        return out

    def as_uint(self, v: SymExpr) -> SymExpr:
        return self.value_as(v, UINT)


def _value_eq(a: SymExpr, b: SymExpr) -> SymExpr:
    """a == b for two values of one type, such as a read and what it reads."""
    if isinstance(a, Ptr):
        return mk_binop("&&",
                        mk_binop("==", a.base, b.base),
                        mk_binop("==", a.offset, b.offset))
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


def _is_zero(e: SymExpr) -> bool:
    return isinstance(e, Const) and e.value == 0


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
              resume: PathState | None = None) -> PathState:
    """Symbolically execute one trace and return the resulting path state.

    When the state ``resume`` resumes the trace (``PathState.resumes``),
    execution goes on from a fork of it at the first edge its trace did not
    have, and ``resume`` stays as it was; the result is the one an
    interpretation from the entry gives. The state returned for an
    incomplete trace is the one its extensions resume from.
    """
    if resume is not None and resume.resumes(trace):
        state = resume.fork()
        state.resumed_at = first = len(resume.nodes)
        state.resumed_from_head = resume.head
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
    state.nodes, state.generation = list(trace.nodes), generation
    state.complete = trace.complete
    return state


def _polarized_guard(interp: _Interp, cond: Expr, polarity: bool) -> SymExpr:
    """Evaluate a decision condition under the edge's polarity.

    The negated side of a comparison flips the operator before pointer
    expansion: the false branch of p1 < p2 is the same-region comparison
    p1 >= p2, not the disjunctive negation of the in-bounds formula.
    """
    if not polarity and isinstance(cond, Bin) and cond.op in FLIP:
        flipped = Bin(FLIP[cond.op], cond.lhs, cond.rhs, cond.line)
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
    state.pending = []  # entry reads carry no feasibility conditions


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
    state.branches.append(BranchEntry(guard, sides))
    if is_false(guard) or any(is_false(s) for s in sides):
        state.infeasible_branch = len(state.branches) - 1

