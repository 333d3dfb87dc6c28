"""Path-constraint assembly: pointer comparison expansion and conjunction.

A pointer is a pair (base address, element offset). A comparison p1 w p2
over pointers becomes the constraint

    A1 == A2 && x1 w x2 && 0 <= x1 < dim(p1) && 0 <= x2 < dim(p2)
    && dim(p1) == dim(p2)

for ordering operators. The range conjunct of each side is where that
pointer may point when compared (``_comparable``): an input offset symbol
keeps its search domain [0, dim), the paper's Table 1 text; an offset
formed by arithmetic or a constant may also be dim, one past the end, as C
allows (C11 6.5.6p8, 6.5.8p5). A dereference still requires offset < dim
(``symex``). These conjuncts are all that is left of a pointer here: no
conjunct holds a ``Ptr`` node.

Equality is the same-region same-offset case or the null/null case;
inequality is the negation of the equality body, which keeps cross-region
pointers distinguishable. Comparisons against a literal null compare the
base id with the reserved null id. The trailing dimension conjunct compares two known dimensions only when both bases are constants,
and folds to a boolean constant. A symbolic base's dimension is that of its
own fresh region, not of the region it may resolve to, and A1 == A2 already
implies equal dimensions, so with a symbolic base the conjunct is true.
Folded-true conjuncts are retained structurally (the SMT-LIB export emits
them) but suppressed when rendering text.
"""

from __future__ import annotations

from .memory import NULL_BASE, RegionTable
from .symexpr import (
    Const,
    Ptr,
    Role,
    Sym,
    SymExpr,
    TRUE,
    conj,
    free_symbols,
    is_true,
    mk_binop,
    mk_range,
    negate,
    render_conjunction,
)
from .typesys import UINT, CType

_ORDERING = ("<", "<=", ">", ">=")
_ALL_OMEGA = _ORDERING + ("==", "!=")


class FreeSymbol:
    def __init__(self, name: str, ctype: CType, role: Role, dim: int | None = None,
                 candidates: list[int] | None = None,
                 candidate_dims: dict[int, int] | None = None,
                 paired_offset: str | None = None):
        self.name = name
        self.ctype = ctype
        self.role = role
        # pointer-offset symbols: the default input domain [0, dim)
        self.dim = dim
        # pointer-base symbols: allowed region ids and their dimensions
        self.candidates = [] if candidates is None else candidates
        self.candidate_dims = {} if candidate_dims is None else candidate_dims
        self.paired_offset = paired_offset


class Constraint:
    """Ordered conjunction plus the free-symbol table the solver needs.

    ``head`` is a constraint whose conjuncts this one's begin with (conjoin
    passes the head it extends), and ``analysis`` the solver's analysis of
    the conjuncts: with both, the solver analyses only the conjuncts the
    head lacks (``solver.analyse``). Neither changes an answer.
    """

    def __init__(self, conjuncts: list[SymExpr] | None = None,
                 free: dict[str, FreeSymbol] | None = None,
                 segments: list[tuple[str, int, int]] | None = None,
                 head: "Constraint | None" = None):
        self.conjuncts = [] if conjuncts is None else conjuncts
        self.free = {} if free is None else free
        # (kind, branch index, first conjunct position); kind is assume/branch/tail
        self.segments = [] if segments is None else segments
        self.head = head
        self.analysis = None

    def render(self) -> str:
        return render_conjunction(self.conjuncts)

    def prefix(self, branch_count: int) -> "Constraint":
        """The sub-constraint covering assumptions and the first n branches."""
        cut = self.prefix_end(branch_count)
        conjuncts = self.conjuncts[:cut]
        return Constraint(conjuncts, restrict_free(self.free, conjuncts),
                          [s for s in self.segments if s[2] < cut])

    def prefix_end(self, branch_count: int) -> int:
        """How many conjuncts ``prefix(branch_count)`` keeps."""
        cut = len(self.conjuncts)
        for kind, idx, pos in self.segments:
            if kind == "branch" and idx >= branch_count:
                cut = min(cut, pos)
            if kind == "tail":
                cut = min(cut, pos)
        return cut

    def branch_count(self) -> int:
        return sum(1 for kind, _, _ in self.segments if kind == "branch")


def restrict_free(free: dict[str, FreeSymbol], conjuncts: list[SymExpr]
                  ) -> dict[str, FreeSymbol]:
    """The entries of free that the conjuncts mention, with paired offsets."""
    names: list[str] = []
    for c in conjuncts:
        for s in free_symbols(c):
            if s.name not in names:
                names.append(s.name)
    out: dict[str, FreeSymbol] = {}
    for n in names:
        if n in free:
            out[n] = free[n]
    # keep paired offsets/bases together so domains stay linked
    for n in list(out.values()):
        if n.paired_offset and n.paired_offset in free:
            out.setdefault(n.paired_offset, free[n.paired_offset])
    return out


class PtrInfo:
    def __init__(self, base: SymExpr, offset: SymExpr, dim: int):
        self.base = base
        self.offset = offset
        self.dim = dim


def ptr_info(p: Ptr, table: RegionTable) -> PtrInfo:
    return PtrInfo(p.base, p.offset, table.dim_for_base(p.base))


def pointer_compare(p1: PtrInfo, p2: PtrInfo, omega: str) -> Constraint:
    """The published pointer-comparison constraint for two region pointers."""
    if omega not in _ALL_OMEGA:
        raise ValueError(f"not a comparison operator: {omega}")
    if omega in _ORDERING:
        conjuncts = [
            mk_binop("==", p1.base, p2.base),
            mk_binop(omega, p1.offset, p2.offset),
            _comparable(p1),
            _comparable(p2),
            _same_dims(p1, p2),
        ]
        return Constraint(conjuncts)
    eq_body = _pointer_eq_expr(p1, p2)
    if omega == "==":
        return Constraint([eq_body])
    return Constraint([negate(eq_body)])


def _pointer_eq_expr(p1: PtrInfo, p2: PtrInfo) -> SymExpr:
    null_case = mk_binop(
        "&&",
        mk_binop("==", p1.base, Const(NULL_BASE, UINT)),
        mk_binop("==", p2.base, Const(NULL_BASE, UINT)),
    )
    same = conj([
        mk_binop("==", p1.base, p2.base),
        mk_binop("==", p1.offset, p2.offset),
        _comparable(p1),
        _comparable(p2),
        _same_dims(p1, p2),
    ])
    return mk_binop("||", null_case, same)


def _comparable(p: PtrInfo) -> SymExpr:
    """Where p may point when compared: 0 <= x < dim for an input offset
    symbol, its search domain; 0 <= x <= dim for an offset formed by
    arithmetic or a constant, which may point one past the end."""
    if isinstance(p.offset, Sym):
        return mk_range(p.offset, 0, p.dim)
    return mk_range(p.offset, 0, p.dim + 1)


def _same_dims(p1: PtrInfo, p2: PtrInfo) -> SymExpr:
    """dim(p1) == dim(p2), folded; true when a base is symbolic."""
    if isinstance(p1.base, Const) and isinstance(p2.base, Const):
        return mk_binop("==", Const(p1.dim, UINT), Const(p2.dim, UINT))
    return TRUE


def pointer_null_compare(base: SymExpr, omega: str) -> SymExpr:
    """A pointer with this base compared with null: the dim plays no part."""
    if omega in ("==", "!="):
        return mk_binop(omega, base, Const(NULL_BASE, UINT))
    raise ValueError(f"ordered comparison against null: {omega}")


def build_free_table(conjuncts: list[SymExpr], table: RegionTable,
                     out: dict[str, FreeSymbol] | None = None) -> dict[str, FreeSymbol]:
    """Free-symbol metadata (roles, domains, base candidates) in first-use
    order; given out, the table of earlier conjuncts, it is extended."""
    out = {} if out is None else out
    for c in conjuncts:
        for s in free_symbols(c):
            if s.name in out:
                continue
            fs = FreeSymbol(s.name, s.ctype, s.role)
            if s.role is Role.PTR_BASE:
                name = s.name.removesuffix("@baseAddress")
                ps = table.pointer_inputs.get(name)
                if ps is not None:
                    fs.candidates = table.base_candidates(ps)
                    fs.candidate_dims = {
                        rid: (table.by_id[rid].dim if rid in table.by_id else 0)
                        for rid in fs.candidates
                    }
                    fs.paired_offset = ps.offset.name
            elif s.role is Role.PTR_OFFSET:
                name = s.name.removesuffix("@offset")
                ps = table.pointer_inputs.get(name)
                fs.dim = ps.fresh_region.dim if ps is not None else None
            out[s.name] = fs
    return out


def conjoin(state) -> Constraint:
    """Ordered conjunction of assumptions, branch guards and side conditions.

    Contract checks (postconditions, test-case postconditions, asserts and
    modifies) are no part of it: concrete replay of the model decides them.

    The tail is the side conditions no branch has taken (``PathState.pending``),
    read and left in place. A resumed state's constraint starts from the head
    of the state it was forked from, the constraint of the branches that one
    had (``PathState.resumed_head``), and adds only the later branches and
    the tail. The head of an incomplete trace's state is recorded on it here,
    for its extensions. Each constraint built here names the head it begins
    with, so the solver analyses each conjunct once along the chain.
    """
    table = state.layout.regions
    head = state.resumed_head()
    if head is None:
        conjuncts = list(state.assumptions)
        segments: list[tuple[str, int, int]] = [("assume", -1, 0)]
        free = build_free_table(conjuncts, table)
    else:
        conjuncts, free = list(head.conjuncts), dict(head.free)
        segments = list(head.segments)
    for i in range(len(segments) - 1, len(state.branches)):
        branch = state.branches[i]
        start = len(conjuncts)
        segments.append(("branch", i, start))
        conjuncts.extend(branch.sides)
        if not is_true(branch.guard):
            conjuncts.append(branch.guard)
        build_free_table(conjuncts[start:], table, free)
    if not state.complete:
        state.head = head = Constraint(list(conjuncts), dict(free), list(segments), head)
    segments.append(("tail", -1, len(conjuncts)))
    conjuncts.extend(state.pending)
    build_free_table(state.pending, table, free)
    return Constraint(conjuncts, free, segments, head)
