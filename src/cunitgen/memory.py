"""History-based symbolic memory: regions, memory items, reads and writes.

Every named storage location (global, parameter, local, temporary,
auxiliary variable) is a region with an abstract base address. A write
appends a memory item (base, offset, length, value) and changes no earlier
one; a read walks the history newest-first and stops at the first item that
covers it exactly, which shadows every older one, so the history needs no
validity intervals. When the accessed location is decidable
the read returns the stored value directly; otherwise it returns a fresh
read symbol constrained by a case split over the candidate items. A write
through a pointer whose base is symbolic simply records the symbolic base,
which makes later reads split on the aliasing condition - that one item
stands for the write against every candidate region.

Offsets are element-scaled in pointer values and byte-scaled inside memory
items; structs and unions are addressed by byte (and bit, for bit fields)
offsets from their region base.
"""

from __future__ import annotations

from .errors import UnsupportedOperation
from .frozen import Frozen
from .symexpr import (
    FALSE,
    TRUE,
    Const,
    Ite,
    Role,
    Sym,
    SymExpr,
    mk_binop,
    mk_cast,
)
from .typesys import (
    INT,
    UINT,
    ArrayType,
    CType,
    IntType,
    PointerType,
    StructType,
    is_pointer,
)

NULL_BASE = 0
BASE_COUNTER_START = 2147483648


class Region:
    def __init__(self, base_id: int, name: str, elem_type: CType, dim: int, kind: str,
                 is_input: bool, is_array: bool):
        self.base_id = base_id
        self.name = name
        self.elem_type = elem_type
        self.dim = dim
        self.kind = kind  # global, param, local, temp, aux, autogen
        self.is_input = is_input
        self.is_array = is_array  # declared as an array, not as a single object

    @property
    def elem_size(self) -> int:
        return self.elem_type.size


class PointerSyms:
    """Free symbols describing a pointer test input."""

    def __init__(self, name: str, base: Sym, offset: Sym, fresh_region: Region,
                 pointee: CType, from_memory: bool = False):
        self.name = name
        self.base = base
        self.offset = offset
        self.fresh_region = fresh_region
        self.pointee = pointee
        self.from_memory = from_memory  # read back, so it may name a local


class MemoryItem(Frozen):
    """One write, never changed once recorded: path states share it."""

    def __init__(self, base: SymExpr, offset: SymExpr, length: int, value: SymExpr,
                 bit: tuple[int, int] | None = None):
        self.__dict__.update(
            base=base,  # Const(region id) or a pointer-base symbol
            offset=offset,  # bytes
            length=length,  # bytes
            value=value,
            bit=bit)  # (bit offset, bit length) for bit fields


class Place:
    """A resolved lvalue: where a read or write lands."""

    def __init__(self, base: SymExpr, offset: SymExpr, length: int, elem_type: CType,
                 bit: tuple[int, int] | None = None, hint: str = "",
                 elem_offset: SymExpr | None = None, member_offset: int = 0):
        self.base = base
        self.offset = offset  # bytes
        self.length = length
        self.elem_type = elem_type
        self.bit = bit
        self.hint = hint  # naming hint for fresh read symbols
        # element-scaled view for pointer formation (&x)
        self.elem_offset = elem_offset
        self.member_offset = member_offset  # a struct member's byte offset in its element


class RegionTable:
    """Abstract address space for one generation session."""

    def __init__(self, ptr_array_size: int):
        self.ptr_array_size = ptr_array_size
        self._counter = BASE_COUNTER_START
        self.by_name: dict[str, Region] = {}
        self.by_id: dict[int, Region] = {}
        self.pointer_inputs: dict[str, PointerSyms] = {}
        self.cell_syms: dict[tuple[int, int, int, int], Sym] = {}
        self.declared_order: list[Region] = []
        # goes up with every region added, pointer inputs' fresh regions
        # included; reads consult base_candidates as they run, so a path
        # state built at one value describes the table at that value only
        self.generation = 0

    def new_region(self, name: str, decl: CType, kind: str, is_input: bool) -> Region:
        if isinstance(decl, ArrayType):
            elem, dim = decl.elem, decl.length
        else:
            elem, dim = decl, 1
        region = Region(self._counter, name, elem, dim, kind, is_input,
                        isinstance(decl, ArrayType))
        self._counter += 1
        self.by_name[name] = region
        self.by_id[region.base_id] = region
        self.declared_order.append(region)
        self.generation += 1
        return region

    def region_of(self, name: str) -> Region:
        return self.by_name[name]

    def pointer_input(self, name: str, ptr_type: PointerType,
                      from_memory: bool = False) -> PointerSyms:
        """Base/offset symbols plus a fresh backing region for a pointer input."""
        if name in self.pointer_inputs:
            return self.pointer_inputs[name]
        base = Sym(f"{name}@baseAddress", UINT, Role.PTR_BASE)
        offset = Sym(f"{name}@offset", UINT, Role.PTR_OFFSET)
        fresh = self.new_region(f"{name}__autogen",
                                ArrayType(ptr_type.pointee, self.ptr_array_size),
                                "autogen", True)
        ps = PointerSyms(name, base, offset, fresh, ptr_type.pointee, from_memory)
        self.pointer_inputs[name] = ps
        return ps

    def base_candidates(self, ps: PointerSyms) -> list[int]:
        """Values a pointer-input base may take, in deterministic order.

        The pointer's own fresh region comes first, then other inputs' fresh
        regions of the same element type, then type-matching declared
        regions, then null. An equality chain therefore lands on the first
        fresh id, which is how shared auto-generated arrays come about.
        Locals and by-value parameters do not exist before the call, so only
        a pointer read back from memory may name one of them.
        """
        own = ps.fresh_region.base_id
        same_type_fresh = [
            other.fresh_region.base_id
            for other in self.pointer_inputs.values()
            if other.pointee == ps.pointee and other.name != ps.name
        ]
        kinds = ("global", "param", "local") if ps.from_memory else ("global",)
        declared = [
            r.base_id for r in self.declared_order
            if r.kind in kinds and r.elem_type == ps.pointee
        ]
        out = [own]
        for rid in same_type_fresh + declared:
            if rid not in out:
                out.append(rid)
        out.append(NULL_BASE)
        return out

    def pointer_of_base(self, base: SymExpr) -> PointerSyms | None:
        """The pointer input whose base-address symbol base is, if any."""
        if isinstance(base, Sym):
            return self.pointer_inputs.get(base.name.removesuffix("@baseAddress"))
        return None

    def dim_for_base(self, base: SymExpr) -> int:
        if isinstance(base, Const):
            region = self.by_id.get(int(base.value))
            if region is not None:
                return region.dim
            return self.ptr_array_size
        if isinstance(base, Ite):
            # a pointer ?: has the dim its arms past null agree on
            dims = {self.dim_for_base(arm) for arm in (base.then, base.other)
                    if not (isinstance(arm, Const) and arm.value == NULL_BASE)}
            if len(dims) > 1:
                raise UnsupportedOperation("?: over arrays of different sizes")
            return dims.pop() if dims else self.ptr_array_size
        ps = self.pointer_of_base(base)
        if ps is not None:
            return ps.fresh_region.dim
        return self.ptr_array_size

    def cell_symbol(self, region: Region, byte_off: int,
                    bit: tuple[int, int] | None = None) -> Sym:
        """Input symbol for one cell of an input region."""
        key = (region.base_id, byte_off, *(bit or (-1, -1)))
        if key in self.cell_syms:
            return self.cell_syms[key]
        st = region.elem_type
        if isinstance(st, StructType):
            name = f"{region.name}@{byte_off}"
            ctype: CType = INT
            for f in st.fields:
                f_bit = (f.bit_offset, f.bit_width) if f.bit_width is not None else None
                if f.byte_offset == byte_off % max(st.size, 1) and f_bit == bit:
                    name = f"{region.name}.{f.name}"
                    ctype = f.ctype
                    if f.bit_width is not None and isinstance(f.ctype, IntType):
                        # the storable value set is the field's bit range
                        ctype = IntType(f.bit_width, f.ctype.signed,
                                        f"{f.ctype.name}:{f.bit_width}")
                    break
            elem_index = byte_off // max(st.size, 1)
            if region.dim > 1:
                name = f"{region.name}[{elem_index}].{name.split('.')[-1]}"
        else:
            elem_index = byte_off // max(region.elem_size, 1)
            name = region.name if region.dim == 1 else f"{region.name}[{elem_index}]"
            ctype = region.elem_type
        sym = Sym(name, ctype, Role.INPUT)
        self.cell_syms[key] = sym
        return sym


def base_eq_cond(a: SymExpr, b: SymExpr) -> SymExpr:
    """Base-address equality, folded when both sides are concrete."""
    if isinstance(a, Const) and isinstance(b, Const):
        return _const_eq(a, b)
    if isinstance(a, Sym) and isinstance(b, Sym) and a.name == b.name:
        return TRUE
    return mk_binop("==", a, b)


def _const_eq(a: Const, b: Const) -> SymExpr:
    """a == b folded as mk_binop folds it, compared directly where it can be.

    Equal integers of one type are equal in any common type; unequal ones
    stay unequal when both lie in their type's range.
    """
    t = a.ctype
    if isinstance(t, IntType) and t == b.ctype:
        if a.value == b.value:
            return TRUE
        lo, hi = t.min_value(), t.max_value()
        if lo <= a.value <= hi and lo <= b.value <= hi:
            return FALSE
    return mk_binop("==", a, b)


def byte_offset(elem_off: SymExpr, size: int) -> SymExpr:
    """The byte offset of an element-scaled offset into elements of size bytes."""
    if size == 1:
        return elem_off
    return mk_binop("*", elem_off, Const(size, UINT), UINT)


def offsets_overlap_cond(item: MemoryItem, place: Place) -> SymExpr | None:
    """Condition under which the item covers the read exactly.

    Returns a folded constant when decidable. None means the shapes overlap
    only partially, which the caller treats as an imprecise hit.
    """
    consts = isinstance(item.offset, Const) and isinstance(place.offset, Const)
    if item.bit == place.bit and item.length == place.length:
        if consts:
            return _const_eq(item.offset, place.offset)
        return mk_binop("==", item.offset, place.offset)
    if consts and _disjoint(int(item.offset.value), item.length,
                            int(place.offset.value), place.length):
        return FALSE
    return None


def _disjoint(off_a: int, len_a: int, off_b: int, len_b: int) -> bool:
    return off_a + len_a <= off_b or off_b + len_b <= off_a


def reinterpret(value: SymExpr, want: CType, state_flags: "ApproxFlags") -> SymExpr:
    """Adapt a stored value to the reading type.

    Same type passes through; equal-width integers are reinterpreted by a
    cast (two's-complement semantics make that exact); anything else is a
    documented imprecision and yields a fresh unconstrained symbol.
    """
    have = value.ctype
    if have == want:
        return value
    if isinstance(have, IntType) and isinstance(want, IntType):
        return mk_cast(value, want)
    if is_pointer(have) and is_pointer(want):
        return value
    state_flags.mark(f"reinterpret {have} as {want}")
    return state_flags.fresh(want)


class ApproxFlags:
    """Collects imprecision markers and mints fresh unconstrained symbols."""

    def __init__(self) -> None:
        self.notes: list[str] = []
        self._count = 0

    @property
    def approximate(self) -> bool:
        return bool(self.notes)

    def mark(self, note: str) -> None:
        self.notes.append(note)

    def fresh(self, ctype: CType) -> Sym:
        self._count += 1
        return Sym(f"__approx@{self._count}", ctype, Role.FRESH_READ)

    def fork(self) -> "ApproxFlags":
        out = ApproxFlags()
        out.notes = list(self.notes)
        out._count = self._count
        return out
