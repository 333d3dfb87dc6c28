"""Built-in constraint solver.

The pipeline is: (1) constant-fold and flatten the conjunction; (2) interval
propagation over integer and offset symbols, in rounds over the conjuncts up
to a fixpoint or 32 rounds, then a difference-constraint cycle check. Each
symbol has a watch list, the conjuncts that mention it; every domain write
marks its watchers dirty, and a round visits only dirty conjuncts, since a
clean one would narrow nothing. A search node starts from its parent's
leftover dirty set plus the branched symbol's watchers, and the cycle check
re-linearizes only the comparisons whose symbols moved. The check also runs
once when the rounds have not settled after 3, so a cycle such as
x > y && y > x is refuted before it creeps to the cap; (3) base-address
and float symbols keep finite candidate domains, and each == or != between
two of them, or between one and a constant, intersects or trims them inside
the same fixpoint; (4) search that, at each node after propagation,
returns the box's lower corner if it is a model, and otherwise picks the
symbol with the smallest residual domain, probes the boundary values, then
splits at the midpoint and backtracks on propagation failure; a candidate
domain branches on each candidate in turn; (5) a float symbol's candidates
are a fixed seed set (0, +-1, +-0.5, and each float literal of the
constraint with its neighbours at +-1, each rounded to the symbol's type,
without repeats or values beyond its range), and a comparison over floats is
decided by the expression evaluator once every symbol under it is decided.

The corner rule of step (4) keeps every answer of a search that accepts a
model only at a leaf. The corner is each integer domain's lower bound and
each candidate list's first entry. Propagation never prunes a value of a
model inside the box, and each split tries a domain's first value first, so
when the corner verifies and holds each pointer offset in its base's
region, the depth-first descent would reach that same corner as its first
leaf. Sat models are therefore the same, found in fewer nodes; an unsat
answer visits the same nodes; an unknown can only become sat.

Sat answers are only reported after the model passes the independent
expression evaluator; the search is never trusted. Unsat is only reported
when the search space was covered exhaustively; a spent node budget yields
Unknown with the reason attached, and so does a search that covers the
float seeds without a model, since the seeds are not every float. Nothing
here reads a clock, so a verdict depends only on the constraint and the
node budget.

Interval arithmetic here is wraparound-aware. The unwrapped (raw) values
of a sum or difference fall into wrap windows: window w holds the raw
values that wrap to raw - w * 2**width, and window 0 is the type range.
A forward step whose raw interval straddles a window boundary widens to the
full type range. Backward narrowing intersects the wanted result range,
shifted into each window the raw interval touches, with that window, and
narrows each operand to the hull of what the surviving windows allow; no
surviving window is a conflict. The difference-constraint check accepts a
side inside a single window with the shift folded into its constant. All
of it is exact per window, so no feasible value is ever pruned.

The push rule: a bound pushed into a compound node whose interval already
lies inside it returns at once (``_Solver._covers``). The descent it skips
would write no domain and raise no conflict: with one wrap window the hull
of a sum or difference is its raw interval, so each operand's bounds hold
the operand's interval, and with a straddle the bound holds the whole type,
so every window keeps all of its values. A value used twice, as in
x = x + x, is then descended once per push, not once per path to it.

Three caches make a search node cost what it narrows and a call cost what
its constraint adds; none changes an answer.

- The interval memo (``_Solver.memo``) keeps each compound node's forward
  interval, keyed by the node's id, so that narrowing a comparison, pushing
  a bound into its sides and linearizing them read one evaluation. Its rule:
  an entry is valid until the next domain write. ``_set``, the only way a
  domain is written, empties it, and so does each search node on entry. The
  interval of a node is a function of the node and the domains alone, so a
  memoized interval is the one recomputing it would give.
- The conjunct analysis (``analyse``) splits each conjunct at its && into
  pieces and records each piece's symbol names (the watch lists), the float
  comparisons under it and its float literals. It is kept on the
  ``Constraint`` and reused along the chain of heads that ``conjoin``
  records, so each conjunct of one function's constraints is analysed once:
  an extension of a trace analyses only the conjuncts its head lacks. Each
  fact depends on one piece alone, and the literals keep their order of
  first occurrence, so the float seeds and every watch list are those of a
  walk over the whole constraint. Nothing is kept at module level, and the
  analysis goes with the constraints when the function's generation ends.
- The carried fixpoint (``Fixpoint``) is a search's root after propagation:
  its domains, its ``lin`` cache and its leftover dirty pieces, with the
  conjunct list they were computed for. ``solve`` returns it with the
  answer, and a later search starts its root from it when two conditions
  hold: the constraint's conjuncts begin with the fixpoint's, the very
  nodes, and no float symbol is involved, since the float seeds depend on
  the literals of the whole constraint. Only the pieces past the fixpoint
  start dirty, and a symbol new to the constraint starts from its initial
  domain. Propagation removes only values that no model has, and the
  earlier conjuncts are among the new ones, so the start prunes no model.
  A round-capped propagation need not reach one unique fixpoint, so the
  test suite checks every pipeline call of its units against a search
  from the full domains: the same answer, model and node count. The
  caller keeps the fixpoint (the pipeline's session, one per function),
  never this module.
"""

from __future__ import annotations

import math
from collections.abc import Container

from .constraints import Constraint, FreeSymbol, restrict_free
from .symexpr import (
    BinOp,
    Cast,
    Const,
    EvalError,
    FLIP,
    Ite,
    Range,
    Role,
    Sym,
    SymExpr,
    UnOp,
    evaluate,
    is_false,
    is_true,
)
from .typesys import FloatType, IntType, Undefined, binary, round_float

_CMP = ("<", "<=", ">", ">=", "==", "!=")
# the memo's mark for a node not evaluated yet (None is an interval: unknown)
_UNSET = object()


class Model:
    def __init__(self, values: dict[str, int | float] | None = None):
        self.values = {} if values is None else values


class Fixpoint:
    """A search's root after propagation: the domains (``env``), the pieces
    still to be narrowed (``dirty``, leftovers of the round cap) and the
    linearized comparisons (``lin``), computed for ``conjuncts``. A later
    search of a constraint that begins with those conjuncts starts its root
    here (see the module docstring)."""

    def __init__(self, conjuncts: list[SymExpr],
                 env: dict[str, _IntDomain | _SetDomain],
                 dirty: list[bool], lin: list[tuple | None]):
        self.conjuncts = conjuncts
        self.env = env
        self.dirty = dirty
        self.lin = lin


class SolveResult:
    def __init__(self, status: str, model: Model | None = None, reason: str = "",
                 nodes: int = 0, fixpoint: Fixpoint | None = None):
        self.status = status  # sat, unsat, unknown
        self.model = model
        self.reason = reason
        self.nodes = nodes
        # the root's fixpoint, for a later search (None: no search, a
        # conflict at the root, or a float involved)
        self.fixpoint = fixpoint


class _OutOfNodes(Exception):
    pass


class _Conflict(Exception):
    pass


class _IntDomain:
    def __init__(self, lo: int, hi: int, ctype: IntType):
        self.lo = lo
        self.hi = hi
        self.ctype = ctype

    def singleton(self) -> bool:
        return self.lo == self.hi

    def value(self) -> int:
        return self.lo

    def contains(self, v: int) -> bool:
        return self.lo <= v <= self.hi


class _SetDomain:
    def __init__(self, values: list[int] | list[float]):
        self.values = values  # ordered candidates

    def singleton(self) -> bool:
        return len(self.values) == 1

    def value(self) -> int | float:
        return self.values[0]

    def contains(self, v: int) -> bool:
        return v in self.values


def _initial_domain(fs: FreeSymbol) -> _IntDomain | _SetDomain | None:
    """Where the search starts for a symbol; None for a float."""
    if isinstance(fs.ctype, FloatType):
        return None
    if fs.role is Role.PTR_BASE and fs.candidates:
        return _SetDomain(list(fs.candidates))
    if fs.role is Role.PTR_OFFSET and fs.dim is not None:
        return _IntDomain(0, fs.dim - 1, fs.ctype)
    return _IntDomain(fs.ctype.min_value(), fs.ctype.max_value(), fs.ctype)


class _Solver:
    def __init__(self, constraint: Constraint, max_nodes: int,
                 start: Fixpoint | None = None):
        self.constraint = constraint
        self.max_nodes = max_nodes
        self.nodes = 0
        self.order: list[str] = list(constraint.free.keys())
        self.int_syms: dict[str, FreeSymbol] = {}
        self.base_syms: dict[str, FreeSymbol] = {}
        self.float_syms: dict[str, FreeSymbol] = {}
        for name, fs in constraint.free.items():
            if isinstance(fs.ctype, FloatType):
                self.float_syms[name] = fs
            elif fs.role is Role.PTR_BASE and fs.candidates:
                self.base_syms[name] = fs
            else:
                self.int_syms[name] = fs
        # the symbols whose domain is a candidate list (_narrow_set_cmp)
        self.set_syms = {**self.base_syms, **self.float_syms}
        a = analyse(constraint)
        self.conjuncts = a.pieces
        self.watchers = a.watchers
        self.comparisons = a.comparisons
        self.float_cmps = a.float_cmps
        # float type -> the candidates of its symbols
        self.seeds = {fs.ctype: _float_seeds(a.literals, fs.ctype)
                      for fs in self.float_syms.values()}
        # the node being propagated: which conjuncts may narrow (dirty), and
        # each comparison's cached difference edge (None: recompute)
        self.dirty: list[bool] = []
        self.lin: list[tuple | None] = []
        # id(compound node) -> its interval under the current domains
        self.memo: dict[int, tuple[int, int] | None] = {}
        # where the root starts, if the carried fixpoint applies: no float
        # is involved, and the conjuncts begin with the fixpoint's
        self.start = start if start is not None and not self.float_syms \
            and _begins_with(constraint.conjuncts, start.conjuncts) else None
        self.fixpoint: Fixpoint | None = None  # this search's root, once propagated

    # -- entry ----------------------------------------------------------------

    def run(self) -> SolveResult:
        for c in self.conjuncts:
            if is_false(c):
                return SolveResult("unsat", nodes=self.nodes)
        try:
            model = self._search(self._initial_env())
        except _OutOfNodes as exc:
            return SolveResult("unknown", reason=str(exc), nodes=self.nodes,
                               fixpoint=self.fixpoint)
        if model is not None:
            return SolveResult("sat", model, nodes=self.nodes, fixpoint=self.fixpoint)
        if self.float_syms:  # the seeds are not every float: no proof
            return SolveResult("unknown", nodes=self.nodes,
                               reason="float seed set exhausted without a verified model")
        return SolveResult("unsat", nodes=self.nodes, fixpoint=self.fixpoint)

    # -- domains ----------------------------------------------------------------

    def _initial_env(self) -> dict[str, _IntDomain | _SetDomain]:
        """The root's domains: the carried fixpoint's, with only the pieces
        past it still to be narrowed, and each other symbol's initial
        domain; without a fixpoint every piece is still to be narrowed."""
        start = self.start
        if start is None:
            carried = {}
            self.dirty = [True] * len(self.conjuncts)
            self.lin = [None] * len(self.conjuncts)
        else:
            carried = start.env
            fresh = len(self.conjuncts) - len(start.dirty)
            self.dirty = start.dirty + [True] * fresh
            self.lin = start.lin + [None] * fresh
        env: dict[str, _IntDomain | _SetDomain] = {}
        for syms in (self.base_syms, self.int_syms):
            for name, fs in syms.items():
                dom = carried.get(name)
                env[name] = _initial_domain(fs) if dom is None else dom
        for name, fs in self.float_syms.items():
            env[name] = _SetDomain(self.seeds[fs.ctype])  # narrowing copies, never edits
        return env

    # -- search ------------------------------------------------------------------

    def _tick(self) -> None:
        self.nodes += 1
        if self.nodes > self.max_nodes:
            raise _OutOfNodes(f"search node budget ({self.max_nodes}) exhausted")

    def _search(self, env: dict[str, _IntDomain | _SetDomain]) -> Model | None:
        """One search node: propagate, then branch on the smallest domain.

        ``self.dirty`` and ``self.lin`` hold this node's propagation state
        on entry; each child starts from a copy of what propagation left,
        with the branched symbol written through ``_set``.
        """
        self._tick()
        self.memo.clear()  # the memo held another node's domains
        dirty, lin = self.dirty, self.lin
        try:
            self._propagate(env)
        except _Conflict:
            return None
        if self.nodes == 1 and not self.float_syms:
            # nothing changes env, dirty or lin from here on: each child
            # works on copies
            self.fixpoint = Fixpoint(self.constraint.conjuncts, env, dirty, lin)
        model = self._corner(env)
        if model is not None:
            return model
        name = self._pick(env)
        if name is None:
            return None  # a leaf is its own corner, which failed
        for branch in _split(env[name]):
            self.dirty, self.lin = list(dirty), list(lin)
            child = dict(env)
            self._set(child, name, branch)
            model = self._search(child)
            if model is not None:
                return model
        return None

    def _pick(self, env: dict[str, _IntDomain | _SetDomain]) -> str | None:
        """The first symbol with the smallest domain that is no singleton."""
        best_size = 0
        best_name: str | None = None
        for name in self.order:
            dom = env[name]
            size = dom.hi - dom.lo + 1 if type(dom) is _IntDomain else len(dom.values)
            if size != 1 and (best_name is None or size < best_size):
                best_size = size
                best_name = name
        return best_name

    def _corner(self, env: dict[str, _IntDomain | _SetDomain]) -> Model | None:
        """The box's lower corner, if it is a model the descent would reach
        (the corner rule, see the module docstring): it verifies, and holds
        each offset in its base's region (``_in_region``), which
        ``_pair_offsets`` makes true at a leaf. ``verify_model`` evaluates
        the newest conjuncts first, where a failing corner usually fails."""
        values = {name: env[name].value() for name in self.order}
        for fs in self.base_syms.values():
            if not _in_region(fs, values):
                return None
        model = Model(values)
        return model if verify_model(self.constraint, model) else None

    # -- propagation ----------------------------------------------------------------

    def _set(self, env: dict[str, _IntDomain | _SetDomain], name: str,
             dom: _IntDomain | _SetDomain) -> None:
        """Every domain write: store it, mark the symbol's watchers and
        forget the intervals computed under the old domain."""
        env[name] = dom
        self.memo.clear()
        dirty, lin = self.dirty, self.lin
        for i in self.watchers.get(name, ()):
            dirty[i] = True
            lin[i] = None

    def _propagate(self, env: dict[str, _IntDomain | _SetDomain]) -> None:
        """Narrow in rounds over the conjuncts, skipping clean ones.

        A conjunct is clean when none of its symbols was written since its
        last visit, which changed nothing; visiting it again would change
        nothing either, so the rounds narrow exactly as full rounds do. A
        loop still unsettled after 3 rounds runs the difference check once,
        which refutes a cycle such as x > y && y > x before it creeps to
        the round cap.
        """
        dirty = self.dirty
        for rounds in range(1, 33):  # fixpoint cap; each pass only narrows
            changed = False
            for i, c in enumerate(self.conjuncts):
                if dirty[i]:
                    dirty[i] = False
                    changed |= self._narrow(c, True, env)
            if self.base_syms:
                self._pair_offsets(env)
            if not changed:
                break
            if rounds == 3:
                self._difference_cycles(env)
        self._difference_cycles(env)

    def _difference_cycles(self, env) -> None:
        """Detect contradictory chains like x > y && y > x.

        Conjuncts whose sides linearize to at most one wide variable plus a
        constant become edges x >= y + c; a cycle with positive weight sum
        is unsatisfiable. Disequalities x != y + c conflict when the closure
        forces x - y = c. Only sides that stay inside one wrap window
        linearize, which keeps the check sound under two's-complement
        semantics. A comparison's linearized sides are cached in
        ``self.lin`` until one of its symbols is written.
        """
        edges: list[tuple[str, str, int]] = []  # x >= y + c as (y, x, c)
        neqs: list[tuple[str, str, int]] = []  # x != y + c as (y, x, c)
        lin = self.lin
        for i in self.comparisons:
            sides = lin[i]
            c = self.conjuncts[i]
            if sides is None:
                left = self._linearize(c.lhs, env)
                right = self._linearize(c.rhs, env) if left is not None else None
                sides = lin[i] = () if right is None else left + right
            if not sides:
                continue
            xl, cl, xr, cr = sides
            if xl is None or xr is None or xl == xr:
                continue
            if c.op in (">", ">="):
                edges.append((xr, xl, cr - cl + (1 if c.op == ">" else 0)))
            elif c.op in ("<", "<="):
                edges.append((xl, xr, cl - cr + (1 if c.op == "<" else 0)))
            elif c.op == "==":
                edges.append((xr, xl, cr - cl))
                edges.append((xl, xr, cl - cr))
            else:
                neqs.append((xr, xl, cr - cl))
        if not edges:
            return
        nodes = sorted({n for e in edges for n in e[:2]})
        index = {n: i for i, n in enumerate(nodes)}
        n = len(nodes)
        neg_inf = None
        dist = [[neg_inf] * n for _ in range(n)]
        for y, x, c in edges:
            i, j = index[y], index[x]
            if dist[i][j] is None or c > dist[i][j]:
                dist[i][j] = c
        for k in range(n):
            for i in range(n):
                dik = dist[i][k]
                if dik is None:
                    continue
                row_k = dist[k]
                row_i = dist[i]
                for j in range(n):
                    dkj = row_k[j]
                    if dkj is None:
                        continue
                    cand = dik + dkj
                    if row_i[j] is None or cand > row_i[j]:
                        row_i[j] = cand
        for i in range(n):
            if dist[i][i] is not None and dist[i][i] > 0:
                raise _Conflict
        for y, x, c in neqs:
            i, j = index.get(y), index.get(x)
            if i is None or j is None:
                continue
            # x - y lies in [dist[i][j], -dist[j][i]]; a point at c is forced
            if dist[i][j] == c and dist[j][i] == -c:
                raise _Conflict

    def _linearize(self, e: SymExpr, env) -> tuple[str | None, int] | None:
        """Express e as one non-singleton variable plus a constant, or None.

        Singleton-domain symbols fold into the constant. A sum or difference
        whose raw interval lies inside one wrap window w is exact with
        -w * 2**width folded into the constant; one that straddles a window
        boundary is rejected.
        """
        iv = self._ival(e, env)
        if iv is not None and iv[0] == iv[1]:
            return (None, iv[0])
        t = type(e)
        if t is Sym:
            return (e.name, 0)
        ct = e.ctype
        if type(ct) is not IntType:
            return None
        if t is Cast:
            inner = self._ival(e.operand, env)
            if inner is not None and ct.min_value() <= inner[0] \
                    and inner[1] <= ct.max_value():
                return self._linearize(e.operand, env)
            return None
        if t is BinOp and (e.op == "+" or e.op == "-"):
            a = self._ival(e.lhs, env)
            b = self._ival(e.rhs, env)
            if a is None or b is None:
                return None
            raw_lo, raw_hi = (a[0] + b[0], a[1] + b[1]) if e.op == "+" \
                else (a[0] - b[1], a[1] - b[0])
            w = ct.width
            t_min = -(1 << (w - 1)) if ct.signed else 0
            first = (raw_lo - t_min) >> w
            if first != (raw_hi - t_min) >> w:
                return None
            left = self._linearize(e.lhs, env)
            right = self._linearize(e.rhs, env)
            if left is None or right is None:
                return None
            (xl, cl), (xr, cr) = left, right
            shift = first << w
            if e.op == "+":
                if xl is not None and xr is not None:
                    return None
                return (xl or xr, cl + cr - shift)
            if xr is not None:
                return None
            return (xl, cl - cr - shift)
        return None

    def _pair_offsets(self, env: dict[str, _IntDomain | _SetDomain]) -> None:
        """A decided base narrows its offset to the region's true bounds."""
        for name, fs in self.base_syms.items():
            dom = env.get(name)
            if not isinstance(dom, _SetDomain) or not dom.singleton():
                continue
            if not fs.paired_offset or fs.paired_offset not in env:
                continue
            plo, phi = paired_range(fs, dom.values[0])
            off = env[fs.paired_offset]
            assert isinstance(off, _IntDomain)
            lo, hi = max(off.lo, plo), min(off.hi, phi)
            if lo > hi:
                raise _Conflict
            if (lo, hi) != (off.lo, off.hi):
                self._set(env, fs.paired_offset, _IntDomain(lo, hi, off.ctype))

    # forward interval evaluation; returns (lo, hi) or None for unknown

    def _ival(self, e: SymExpr, env) -> tuple[int, int] | None:
        t = type(e)
        if t is Sym:
            dom = env.get(e.name)
            if type(dom) is _IntDomain:
                return (dom.lo, dom.hi)
            if dom is not None and e.name not in self.float_syms:
                # a base's ids; a float's seeds bound no integer view of it
                return (min(dom.values), max(dom.values))
            return None
        if t is Const:
            v = e.value
            if type(v) is float:
                return None
            return (int(v), int(v))
        memo = self.memo
        key = id(e)
        iv = memo.get(key, _UNSET)
        if iv is _UNSET:
            iv = memo[key] = self._forward(e, t, env)
        return iv

    def _forward(self, e: SymExpr, t: type, env) -> tuple[int, int] | None:
        """The interval of a compound node of type t, from its children's.

        An integer result's raw interval [lo, hi] is reduced to its type at
        the end: exact when it lies inside one wrap window (shifted by the
        window), the type range when it straddles a boundary or is unknown
        (lo None).
        """
        if t is BinOp:
            op = e.op
            ct = e.ctype
            if type(ct) is not IntType:
                return None
            a = self._ival(e.lhs, env)
            b2 = self._ival(e.rhs, env)
            lo = hi = None
            if a is not None and b2 is not None:
                if op == "+":
                    lo, hi = a[0] + b2[0], a[1] + b2[1]
                elif op == "-":
                    lo, hi = a[0] - b2[1], a[1] - b2[0]
                elif op == "*":
                    corners = (a[0] * b2[0], a[0] * b2[1], a[1] * b2[0], a[1] * b2[1])
                    lo, hi = min(corners), max(corners)
                elif a[0] == a[1] and b2[0] == b2[1]:
                    # exact fold for fully decided operands; the interval
                    # rule above is already exact for +, - and *
                    try:
                        v = binary(op, a[0], b2[0], e.lhs.ctype, e.rhs.ctype, ct)
                        return (v, v)
                    except Undefined:
                        # undefined here (for example division by zero); the
                        # final concrete verification rejects such assignments
                        pass
        elif t is Cast:
            ct = e.ctype
            if type(ct) is not IntType:
                return None
            inner = self._ival(e.operand, env)
            lo, hi = (None, None) if inner is None else inner
        elif t is UnOp:
            ct = e.ctype
            if type(ct) is not IntType:
                return None
            lo = hi = None
            if e.op == "-":
                inner = self._ival(e.operand, env)
                if inner is not None:
                    lo, hi = -inner[1], -inner[0]
        elif t is Ite:
            b = self._bval(e.cond, env)
            if b is True:
                return self._ival(e.then, env)
            if b is False:
                return self._ival(e.other, env)
            a = self._ival(e.then, env)
            c = self._ival(e.other, env)
            if a is None or c is None:
                return None
            return (min(a[0], c[0]), max(a[1], c[1]))
        else:
            return None
        w = ct.width
        t_min = -(1 << (w - 1)) if ct.signed else 0
        if lo is not None:
            first = (lo - t_min) >> w
            if first == (hi - t_min) >> w:
                shift = first << w
                return (lo - shift, hi - shift)
        return (t_min, t_min + (1 << w) - 1)

    # tri-state boolean evaluation

    def _bval(self, e: SymExpr, env) -> bool | None:
        t = type(e)
        if t is BinOp:
            op = e.op
            if op == "&&":
                a = self._bval(e.lhs, env)
                b = self._bval(e.rhs, env)
                if a is False or b is False:
                    return False
                if a is True and b is True:
                    return True
                return None
            if op == "||":
                a = self._bval(e.lhs, env)
                b = self._bval(e.rhs, env)
                if a is True or b is True:
                    return True
                if a is False and b is False:
                    return False
                return None
            if op in _CMP:
                names = self.float_cmps.get(id(e))
                if names is not None:
                    return _float_cmp(e, names, env)
                a = self._ival(e.lhs, env)
                b = self._ival(e.rhs, env)
                if a is None or b is None:
                    return None
                return _interval_cmp(op, a, b)
            return None
        if t is Const:
            return bool(e.value)
        if t is Range:
            iv = self._ival(e.expr, env)
            if iv is None:
                return None
            if e.lo <= iv[0] and iv[1] < e.hi:
                return True
            if iv[1] < e.lo or iv[0] >= e.hi:
                return False
            return None
        if t is UnOp:
            if e.op != "!":
                return None
            b = self._bval(e.operand, env)
            return None if b is None else not b
        return None

    # backward narrowing; returns True when some domain changed

    def _narrow(self, e: SymExpr, want: bool, env) -> bool:
        t = type(e)
        if t is BinOp and e.op in _CMP:
            return self._narrow_cmp(e, want, env)
        b = self._bval(e, env)
        if b is not None:
            if b != want:
                raise _Conflict
            return False
        if t is BinOp:
            op = e.op
            if op == "&&" and want:
                changed = self._narrow(e.lhs, True, env)
                changed |= self._narrow(e.rhs, True, env)
                return changed
            if op == "||" and not want:
                changed = self._narrow(e.lhs, False, env)
                changed |= self._narrow(e.rhs, False, env)
                return changed
            if op == "&&":  # not want
                if self._bval(e.lhs, env) is True:
                    return self._narrow(e.rhs, False, env)
                if self._bval(e.rhs, env) is True:
                    return self._narrow(e.lhs, False, env)
                return False
            if op == "||":  # want
                if self._bval(e.lhs, env) is False:
                    return self._narrow(e.rhs, True, env)
                if self._bval(e.rhs, env) is False:
                    return self._narrow(e.lhs, True, env)
            return False
        if t is UnOp and e.op == "!":
            return self._narrow(e.operand, not want, env)
        if t is Range and want:
            return self._push(e.expr, e.lo, e.hi - 1, env)
        return False

    def _narrow_cmp(self, e: BinOp, want: bool, env) -> bool:
        names = self.float_cmps.get(id(e))
        if names is None:
            a = self._ival(e.lhs, env)
            b = self._ival(e.rhs, env)
            decided = None if a is None or b is None else _interval_cmp(e.op, a, b)
        else:
            a = b = None  # no interval for a float
            decided = _float_cmp(e, names, env)
        if decided is not None:
            if decided != want:
                raise _Conflict
            return False
        op = e.op if want else FLIP[e.op]
        # candidate lists get their own rule; it changes no domain when it
        # returns False, so a and b stay current
        if self.set_syms and self._narrow_set_cmp(e, op, env):
            return True
        if a is None or b is None:
            return False
        if op == "<":
            changed = self._push(e.lhs, None, b[1] - 1, env)
            changed |= self._push(e.rhs, a[0] + 1, None, env)
        elif op == "<=":
            changed = self._push(e.lhs, None, b[1], env)
            changed |= self._push(e.rhs, a[0], None, env)
        elif op == ">":
            changed = self._push(e.lhs, b[0] + 1, None, env)
            changed |= self._push(e.rhs, None, a[1] - 1, env)
        elif op == ">=":
            changed = self._push(e.lhs, b[0], None, env)
            changed |= self._push(e.rhs, None, a[1], env)
        elif op == "==":
            lo, hi = max(a[0], b[0]), min(a[1], b[1])
            if lo > hi:
                raise _Conflict
            changed = self._push(e.lhs, lo, hi, env)
            changed |= self._push(e.rhs, lo, hi, env)
        else:  # !=
            changed = self._bump_neq(e.lhs, b, env)
            changed |= self._bump_neq(e.rhs, a, env)
        return changed

    def _narrow_set_cmp(self, e: BinOp, op: str, env) -> bool:
        """== or != between two candidate-list symbols (pointer bases or
        floats), or between one and a constant: drop the candidates that
        cannot hold it."""
        lhs_set = isinstance(e.lhs, Sym) and e.lhs.name in self.set_syms
        rhs_set = isinstance(e.rhs, Sym) and e.rhs.name in self.set_syms
        if not lhs_set and not rhs_set:
            return False
        if op not in ("==", "!="):
            return False
        changed = False
        if lhs_set and rhs_set:
            da, db = env[e.lhs.name], env[e.rhs.name]
            assert isinstance(da, _SetDomain) and isinstance(db, _SetDomain)
            if op == "==":
                shared = [v for v in da.values if v in db.values]
                if not shared:
                    raise _Conflict
                if len(shared) != len(da.values):
                    self._set(env, e.lhs.name, _SetDomain(list(shared)))
                    changed = True
                if len(shared) != len(db.values):
                    self._set(env, e.rhs.name, _SetDomain(list(shared)))
                    changed = True
            else:
                if da.singleton() and db.singleton() and da.values == db.values:
                    raise _Conflict
                if da.singleton():
                    nv = [v for v in db.values if v != da.values[0]]
                    if not nv:
                        raise _Conflict
                    if len(nv) != len(db.values):
                        self._set(env, e.rhs.name, _SetDomain(nv))
                        changed = True
                if db.singleton():
                    nv = [v for v in da.values if v != db.values[0]]
                    if not nv:
                        raise _Conflict
                    if len(nv) != len(da.values):
                        self._set(env, e.lhs.name, _SetDomain(nv))
                        changed = True
            return changed
        sym, other = (e.lhs, e.rhs) if lhs_set else (e.rhs, e.lhs)
        if not isinstance(other, Const):
            return False
        dom = env[sym.name]
        assert isinstance(dom, _SetDomain)
        val = other.value
        if op == "==":
            nv = [v for v in dom.values if v == val]
        else:
            nv = [v for v in dom.values if v != val]
        if not nv:
            raise _Conflict
        if len(nv) != len(dom.values):
            self._set(env, sym.name, _SetDomain(nv))
            return True
        return changed

    def _bump_neq(self, e: SymExpr, other: tuple[int, int], env) -> bool:
        if other[0] != other[1]:
            return False
        v = other[0]
        if isinstance(e, Sym) and isinstance(env.get(e.name), _IntDomain):
            dom = env[e.name]
            if dom.lo == v == dom.hi:
                raise _Conflict
            if dom.lo == v:
                self._set(env, e.name, _IntDomain(v + 1, dom.hi, dom.ctype))
                return True
            if dom.hi == v:
                self._set(env, e.name, _IntDomain(dom.lo, v - 1, dom.ctype))
                return True
        return False

    def _covers(self, e: SymExpr, lo: int | None, hi: int | None, env) -> bool:
        """The push rule: whether [lo, hi] holds the whole interval of the
        compound node e, so that pushing it into e narrows nothing."""
        iv = self._ival(e, env)
        return iv is not None and (lo is None or lo <= iv[0]) \
            and (hi is None or iv[1] <= hi)

    def _push(self, e: SymExpr, lo: int | None, hi: int | None, env) -> bool:
        """Intersect the value set of e with [lo, hi], descending where exact.

        A compound node that ``_covers`` returns at once (the push rule,
        see the module docstring)."""
        t = type(e)
        if t is Sym:
            dom = env.get(e.name)
            if type(dom) is _IntDomain:
                nlo = dom.lo if lo is None else max(dom.lo, lo)
                nhi = dom.hi if hi is None else min(dom.hi, hi)
                if nlo > nhi:
                    raise _Conflict
                if nlo != dom.lo or nhi != dom.hi:
                    self._set(env, e.name, _IntDomain(nlo, nhi, dom.ctype))
                    return True
            elif dom is not None:
                nv = [v for v in dom.values
                      if (lo is None or v >= lo) and (hi is None or v <= hi)]
                if not nv:
                    raise _Conflict
                if len(nv) != len(dom.values):
                    self._set(env, e.name, _SetDomain(nv))
                    return True
            return False
        if t is Const:
            v = int(e.value)
            if (lo is not None and v < lo) or (hi is not None and v > hi):
                raise _Conflict
            return False
        if self._covers(e, lo, hi, env):
            return False
        if t is BinOp:
            op = e.op
            ct = e.ctype
            if (op != "+" and op != "-") or type(ct) is not IntType:
                return False
            a = self._ival(e.lhs, env)
            b = self._ival(e.rhs, env)
            if a is None or b is None:
                return False
            if op == "+":
                hull = _unwrap(a[0] + b[0], a[1] + b[1], lo, hi, ct)
                if hull is None:
                    return False
                r_lo, r_hi = hull
                changed = self._push(e.lhs, r_lo - b[1], r_hi - b[0], env)
                changed |= self._push(e.rhs, r_lo - a[1], r_hi - a[0], env)
            else:
                hull = _unwrap(a[0] - b[1], a[1] - b[0], lo, hi, ct)
                if hull is None:
                    return False
                r_lo, r_hi = hull
                changed = self._push(e.lhs, r_lo + b[0], r_hi + b[1], env)
                changed |= self._push(e.rhs, a[0] - r_hi, a[1] - r_lo, env)
            return changed
        if t is Cast:
            ct = e.ctype
            if type(ct) is not IntType:
                return False
            inner = self._ival(e.operand, env)
            if inner is None:
                return False
            if ct.min_value() <= inner[0] and inner[1] <= ct.max_value():
                return self._push(e.operand, lo, hi, env)
            return False
        if t is UnOp and e.op == "-" and type(e.ctype) is IntType:
            inner = self._ival(e.operand, env)
            if inner is None:
                return False
            if -inner[1] < e.ctype.min_value() or -inner[0] > e.ctype.max_value():
                return False
            return self._push(
                e.operand,
                None if hi is None else -hi,
                None if lo is None else -lo, env)
        return False


def _split(dom: _IntDomain | _SetDomain):
    """A domain's children in search order: each candidate of a set; the
    bounds of an interval, then the two halves of what lies between."""
    if isinstance(dom, _SetDomain):
        for v in dom.values:
            yield _SetDomain([v])
        return
    lo, hi, ct = dom.lo, dom.hi, dom.ctype
    yield _IntDomain(lo, lo, ct)
    yield _IntDomain(hi, hi, ct)
    if hi - lo >= 2:
        mid = lo + (hi - lo) // 2
        if lo + 1 <= mid:
            yield _IntDomain(lo + 1, mid, ct)
        if mid + 1 <= hi - 1:
            yield _IntDomain(mid + 1, hi - 1, ct)


def _unwrap(raw_lo: int, raw_hi: int, lo: int | None, hi: int | None,
            t: IntType) -> tuple[int, int] | None:
    """Hull of the raw values in [raw_lo, raw_hi] that wrap into [lo, hi].

    Each window the raw interval touches is intersected with the target
    shifted into it, so the hull is exact per window. Raises _Conflict when
    no window keeps a value; returns None (no narrowing) when the raw
    interval spans more than three windows.
    """
    width = t.width
    t_min = -(1 << (width - 1)) if t.signed else 0
    t_max = t_min + (1 << width) - 1
    first, last = (raw_lo - t_min) >> width, (raw_hi - t_min) >> width
    if last - first > 2:
        return None
    lo = t_min if lo is None else max(lo, t_min)
    hi = t_max if hi is None else min(hi, t_max)
    if first == last:  # the common case: one window
        shift = first << width
        w_lo, w_hi = max(raw_lo, lo + shift), min(raw_hi, hi + shift)
        if w_lo > w_hi:
            raise _Conflict
        return (w_lo, w_hi)
    hull: tuple[int, int] | None = None
    for w in range(first, last + 1):
        shift = w << width
        w_lo, w_hi = max(raw_lo, lo + shift), min(raw_hi, hi + shift)
        if w_lo <= w_hi:
            hull = (w_lo if hull is None else hull[0], w_hi)
    if hull is None:
        raise _Conflict
    return hull


def _interval_cmp(op: str, a: tuple[int, int], b: tuple[int, int]) -> bool | None:
    if op == "<":
        if a[1] < b[0]:
            return True
        if a[0] >= b[1]:
            return False
    elif op == "<=":
        if a[1] <= b[0]:
            return True
        if a[0] > b[1]:
            return False
    elif op == ">":
        if a[0] > b[1]:
            return True
        if a[1] <= b[0]:
            return False
    elif op == ">=":
        if a[0] >= b[1]:
            return True
        if a[1] < b[0]:
            return False
    elif op == "==":
        if a[0] == a[1] == b[0] == b[1]:
            return True
        if a[1] < b[0] or b[1] < a[0]:
            return False
    elif op == "!=":
        if a[1] < b[0] or b[1] < a[0]:
            return True
        if a[0] == a[1] == b[0] == b[1]:
            return False
    return None


_NO_NAMES: frozenset[str] = frozenset()

# the subexpressions of each node type
_CHILDREN = {
    BinOp: ("lhs", "rhs"), UnOp: ("operand",), Cast: ("operand",),
    Ite: ("cond", "then", "other"), Range: ("expr",),
}


class _Analysis:
    """What the search reads of the first ``count`` conjuncts of a constraint.

    ``pieces`` are the conjuncts with each && split into its sides and each
    true dropped; ``watchers`` maps a symbol name to the positions of the
    pieces that mention it (the watch lists), and ``comparisons`` lists the
    positions of the comparison pieces; ``float_cmps`` maps the id of each
    comparison node that involves a float to the names of its symbols, and
    ``literals`` holds the value of each float constant, in walk order.
    Node identity is a stable key: the analysis is kept on the constraint,
    whose conjuncts hold every node it names.
    """

    def __init__(self, count: int, pieces: list[SymExpr],
                 watchers: dict[str, tuple[int, ...]], comparisons: list[int],
                 float_cmps: dict[int, tuple[str, ...]], literals: list[float]):
        self.count = count
        self.pieces = pieces
        self.watchers = watchers
        self.comparisons = comparisons
        self.float_cmps = float_cmps
        self.literals = literals


def analyse(constraint: Constraint) -> _Analysis:
    """The analysis of the constraint's conjuncts, kept on it.

    A constraint whose ``head`` begins it extends the head's analysis, made
    the same way, by the conjuncts after the head's; each conjunct is then
    walked once along a chain of heads. Once a constraint is analysed its
    analysis stands for its head, so the link is dropped. Every fact is a
    function of one piece alone, and the literals keep their order, so the
    result is the one a walk over all the conjuncts gives.
    """
    chain = []
    c = constraint
    while c is not None and c.analysis is None:
        chain.append(c)
        c = c.head
    done = None if c is None else c.analysis
    for c in reversed(chain):
        done = c.analysis = _extended(done, c.conjuncts)
        c.head = None
    return done


def _extended(base: _Analysis | None, conjuncts: list[SymExpr]) -> _Analysis:
    """base (None: nothing) extended by the conjuncts after its count."""
    if base is not None and base.count == len(conjuncts):
        return base  # nothing added, as when a trace ends with no tail
    if base is None:
        count, pieces, watchers, comparisons, float_cmps, literals = 0, [], {}, [], {}, []
    else:
        count = base.count
        pieces, comparisons = list(base.pieces), list(base.comparisons)
        watchers, float_cmps = dict(base.watchers), dict(base.float_cmps)
        literals = list(base.literals)
    seen: dict[int, tuple[bool, frozenset[str]]] = {}
    added: dict[str, list[int]] = {}
    for c in conjuncts[count:]:
        stack = [c]
        while stack:
            e = stack.pop()
            if type(e) is BinOp and e.op == "&&":
                stack.append(e.rhs)
                stack.append(e.lhs)
                continue
            if is_true(e):
                continue
            i = len(pieces)
            pieces.append(e)
            if type(e) is BinOp and e.op in _CMP:
                comparisons.append(i)
            for name in _scan(e, seen, float_cmps, literals)[1]:
                added.setdefault(name, []).append(i)
    for name, positions in added.items():
        watchers[name] = watchers.get(name, ()) + tuple(positions)
    return _Analysis(len(conjuncts), pieces, watchers, comparisons, float_cmps, literals)


def _scan(e: SymExpr, seen: dict[int, tuple[bool, frozenset[str]]],
          float_cmps: dict[int, tuple[str, ...]], literals: list[float]
          ) -> tuple[bool, frozenset[str]]:
    """Whether e involves a float, and the names of its symbols.

    Records each float comparison under e in float_cmps and appends each
    float constant's value to literals; shared subtrees (seen) are walked
    once."""
    key = id(e)
    hit = seen.get(key)
    if hit is not None:
        return hit
    has_float = type(e.ctype) is FloatType
    t = type(e)
    if t is Sym:
        names = frozenset((e.name,))
    else:
        names = _NO_NAMES
        for attr in _CHILDREN.get(t, ()):
            child_float, child_names = _scan(getattr(e, attr), seen, float_cmps, literals)
            has_float |= child_float
            if not names:
                names = child_names
            elif child_names and child_names is not names:
                names = names | child_names
        if has_float:
            if t is BinOp and e.op in _CMP:
                float_cmps[key] = tuple(names)
            elif t is Const:
                literals.append(float(e.value))
    seen[key] = hit = (has_float, names)
    return hit


def _begins_with(conjuncts: list[SymExpr], head: list[SymExpr]) -> bool:
    """Whether conjuncts begins with the very nodes of head."""
    return len(head) <= len(conjuncts) and all(a is b for a, b in zip(head, conjuncts))


def _float_cmp(e: BinOp, names: tuple[str, ...], env) -> bool | None:
    """A float comparison's value once each of its symbols is decided."""
    values = {}
    for n in names:
        dom = env.get(n)
        if dom is None or not dom.singleton():
            return None
        values[n] = dom.value()
    try:
        return bool(evaluate(e, values))
    except EvalError:
        return None


def _float_seeds(literals: list[float], t: FloatType) -> list[float]:
    """The candidates of a float symbol of type t: 0, +-1, +-0.5, then each
    literal and its neighbours at +-1, rounded to t, without repeats or
    values beyond t's range."""
    candidates = [0.0, 1.0, -1.0, 0.5, -0.5]
    for lit in literals:
        candidates += (lit, lit + 1.0, lit - 1.0)
    seeds: list[float] = []
    for v in candidates:
        v = round_float(v, t)
        if math.isfinite(v) and v not in seeds:
            seeds.append(v)
    return seeds


def verify_model(constraint: Constraint, model: Model) -> bool:
    """Independent check: every conjunct evaluates true under the model."""
    return model_fits(model, {}, constraint.conjuncts)


def _in_start_domain(fs: FreeSymbol, v: int | float | None) -> bool:
    """Whether v lies in the domain the search starts from for fs."""
    if v is None:
        return False
    dom = _initial_domain(fs)
    if dom is None:  # a float of fs's type
        return isinstance(v, float) and math.isfinite(v) and round_float(v, fs.ctype) == v
    return isinstance(v, int) and dom.contains(v)


def narrowed_domain(fs: FreeSymbol) -> list[int] | tuple[int, int] | None:
    """The domain the search starts from for fs where it is narrower than
    fs's sort: a pointer base's candidate ids, or an offset's inclusive
    (lo, hi) range. None where the sort is the domain."""
    dom = _initial_domain(fs)
    if isinstance(dom, _SetDomain):
        return list(dom.values)
    t = fs.ctype  # a float's domain is None
    if isinstance(t, IntType) and (dom.lo, dom.hi) != (t.min_value(), t.max_value()):
        return dom.lo, dom.hi
    return None


def paired_range(fs: FreeSymbol, base: int) -> tuple[int, int]:
    """The inclusive range of fs's paired offset once fs is base: [0, dim)
    of the region base names, 0 for null (see ``_pair_offsets``)."""
    return 0, max(fs.candidate_dims.get(base, 0) - 1, 0)


def _in_region(fs: FreeSymbol, values: dict[str, int | float]) -> bool:
    """Whether the pointer base fs's paired offset, where values has it,
    lies in the region that values gives fs (``paired_range``)."""
    if fs.paired_offset not in values:
        return True
    lo, hi = paired_range(fs, values[fs.name])
    return lo <= values[fs.paired_offset] <= hi


def model_fits(model: Model, free: dict[str, FreeSymbol],
               conjuncts: list[SymExpr]) -> bool:
    """The hint rule: each symbol of free has a value in the domain the
    search starts from, each offset lies in its base's region
    (``_in_region``), and each conjunct evaluates true under the model. The
    newest conjuncts are evaluated first: a model found for an earlier
    constraint usually fails the ones added since."""
    values = model.values
    for name, fs in free.items():
        if not _in_start_domain(fs, values.get(name)):
            return False
        if fs.role is Role.PTR_BASE and fs.candidates and not _in_region(fs, values):
            return False
    try:
        for c in reversed(conjuncts):
            if not evaluate(c, values):
                return False
    except EvalError:
        return False
    return True


def unchecked_symbols(free: dict[str, FreeSymbol], conjuncts: list[SymExpr],
                      checked: Container[str]) -> dict[str, FreeSymbol]:
    """What the hint rule still checks for conjuncts added to a constraint
    whose symbols in checked a model already passed: the entries of free the
    conjuncts mention (with paired offsets) that checked lacks, and each base
    whose paired offset is among them, so that the offset is held to the
    base's region."""
    new = {name: fs for name, fs in restrict_free(free, conjuncts).items()
           if name not in checked}
    for name, fs in free.items():
        if fs.paired_offset in new and name not in new:
            new[name] = fs
    return new


def hinted_model(constraint: Constraint, hint: Model,
                 holds: Constraint | None = None) -> Model | None:
    """The hint's values for the constraint's free symbols, if they solve it.

    This is the one rule that admits a model no search found: an earlier
    answer's, or an external solver's. ``holds`` is a constraint the hint
    is known to solve and that this one begins with: its conjuncts and its
    free-table entries. Only the later conjuncts and the symbols they add
    are checked then, with the same answer."""
    free = constraint.free
    model = Model({name: hint.values[name] for name in free if name in hint.values})
    if holds is None:
        fits = model_fits(model, free, constraint.conjuncts)
    else:
        rest = constraint.conjuncts[len(holds.conjuncts):]
        fits = model_fits(model, unchecked_symbols(free, rest, holds.free), rest)
    return model if fits else None


def solve(constraint: Constraint, max_nodes: int = 10000,
          hint: Model | None = None, hint_holds: Constraint | None = None,
          fixpoint: Fixpoint | None = None) -> SolveResult:
    """Decide a constraint within max_nodes search nodes.

    The answer depends on the constraint, the node budget and the hint
    alone, never on the clock. Sat models always verify under evaluation.
    A hint, such as an earlier answer's model, is tried before any search:
    its values for the constraint's free symbols are the answer, with 0
    nodes, when ``model_fits`` accepts them: each lies in the domain the
    search starts from and every conjunct evaluates true. ``hint_holds``
    names a leading part of the constraint the hint is known to solve,
    which that check then skips (``hinted_model``). Otherwise
    ``_Solver._corner`` produces the model, and it returns one only after
    ``verify_model`` accepts it. Propagation pays per change (see the
    module docstring), with the same domains, node counts and models as
    full rounds. ``fixpoint``, an earlier result's, is where the root
    starts when the constraint begins with its conjuncts and involves no
    float; the result carries this search's root fixpoint in turn.
    """
    if hint is not None:
        model = hinted_model(constraint, hint, hint_holds)
        if model is not None:
            return SolveResult("sat", model)
    return _Solver(constraint, max_nodes, fixpoint).run()
