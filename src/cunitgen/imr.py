"""Lowering from the typed AST to per-function control-flow graphs.

The graphs are in 3-address form: every assignment right-hand side has at
most one operator, compiler temporaries carry the reserved __t prefix, and
every decision becomes a dedicated node with exactly two guarded edges
labelled with literal negations of each other.

Short-circuit && and || become nested decision nodes. for loops normalize
to init; while(cond){body; step}. A ternary is a decision. switch becomes a
cascade of equality decisions over the scrutinee with fall-through bodies.
Calls to functions defined in the same unit are inlined at the call site
(recursion is rejected by the front end, so this terminates); calls to
undefined or annotation-only functions stay as call instructions for the
stub machinery.
"""

from __future__ import annotations

from .errors import UnsupportedConstruct
from .frontend.csyntax import (
    Annotation,
    AnnotationKind,
    Assign,
    Bin,
    Block,
    Break,
    Call,
    CastExpr,
    CharLit,
    Cond,
    Continue,
    DeclStmt,
    DoWhile,
    EmptyStmt,
    Expr,
    ExprStmt,
    FloatLit,
    For,
    FunctionDef,
    If,
    Index,
    IntLit,
    Member,
    Name,
    Return,
    SizeofType,
    SourceUnit,
    Stmt,
    Switch,
    Un,
    Update,
    While,
    is_passive,
)
from .frontend.sema import binary_type
from .frontend.writer import expr_to_c
from .frozen import Frozen
from .typesys import (
    INT,
    UINT,
    CType,
    IntType,
    VoidType,
    promote,
)

TEMP_PREFIX = "__t"


class IAssign:
    def __init__(self, place: Expr, value: Expr, line: int):
        self.place = place
        self.value = value
        self.line = line


class ICall:
    def __init__(self, callee: str, args: list[Expr], result: Name | None, line: int):
        self.callee = callee
        self.args = args
        self.result = result
        self.line = line


class IReturn:
    def __init__(self, value: Expr | None, line: int):
        self.value = value
        self.line = line


class IMarker:
    def __init__(self, kind: AnnotationKind, payload: Annotation, line: int):
        self.kind = kind  # ASSERT or ASSIGN
        self.payload = payload
        self.line = line


Instr = IAssign | ICall | IReturn | IMarker


class CfgNode:
    def __init__(self, nid: int, line: int = 0):
        self.nid = nid
        self.instrs: list[Instr] = []
        self.cond: Expr | None = None
        self.line = line

    @property
    def is_decision(self) -> bool:
        return self.cond is not None

    @property
    def executable(self) -> bool:
        return any(isinstance(i, (IAssign, ICall, IReturn)) for i in self.instrs)


class CfgEdge:
    def __init__(self, eid: int, src: int, dst: int, polarity: bool | None, line: int = 0):
        self.eid = eid
        self.src = src
        self.dst = dst
        self.polarity = polarity  # None: unconditional
        # selection reads this on every tree edge it walks
        self.conditional = polarity is not None
        self.line = line


class Cfg:
    def __init__(self, name: str, fn: FunctionDef, nodes: list[CfgNode],
                 edges: list[CfgEdge], entry: int, exit: int, temps: dict[str, CType],
                 inline_locals: dict[str, CType]):
        self.name = name
        self.fn = fn
        self.nodes = nodes
        self.edges = edges
        self.entry = entry
        self.exit = exit
        self.temps = temps
        self.inline_locals = inline_locals
        self.unreachable: set[int] = set()

    def node(self, nid: int) -> CfgNode:
        return self.nodes[nid]

    def out_edges(self, nid: int) -> list[CfgEdge]:
        return self._out[nid]

    def finalize(self) -> None:
        self._out: list[list[CfgEdge]] = [[] for _ in self.nodes]
        self._in: list[list[CfgEdge]] = [[] for _ in self.nodes]
        for e in self.edges:
            self._out[e.src].append(e)
            self._in[e.dst].append(e)
        for lst in self._out:
            lst.sort(key=lambda e: (e.polarity is not True, e.eid))
        self._distance = self.distances({self.entry})
        self.unreachable = {n.nid for n in self.nodes} - self._distance.keys()
        self._exit_distance = self.distances({self.exit}, forward=False)
        # each edge's guard as C text, by edge id: traces, reports and dumps
        # label edges with it on every selection
        self.guard_texts = [_render_guard(self, e) for e in self.edges]

    def distances(self, starts: set[int], forward: bool = True,
                  avoid: set[int] = frozenset()) -> dict[int, int]:
        """Fewest edges from the nearest of starts to every node it reaches
        without crossing an edge whose id is in avoid.

        Against the edges (forward=False), the distances are to the starts
        from every node that reaches one of them. The keys are exactly the
        nodes reached, so the result doubles as the reachable set.
        """
        dist = dict.fromkeys(starts, 0)
        frontier = list(starts)
        while frontier:
            nxt: list[int] = []
            for nid in frontier:
                for e in (self._out[nid] if forward else self._in[nid]):
                    other = e.dst if forward else e.src
                    if other not in dist and e.eid not in avoid:
                        dist[other] = dist[nid] + 1
                        nxt.append(other)
            frontier = nxt
        return dist

    def reach_masks(self, anchors: list[int]) -> list[int]:
        """Per node, a mask of the anchors it reaches: bit i is set when
        anchors[i] is the node itself or a node it has a path to.

        One fixpoint over the predecessor edges: a node's mask takes in its
        successors' masks until no mask grows. A node's mask meets a set of
        bits exactly when the node is a key of ``distances`` from those
        bits' anchors against the edges.
        """
        masks = [0] * len(self.nodes)
        for bit, nid in enumerate(anchors):
            masks[nid] |= 1 << bit
        work = [nid for nid, mask in enumerate(masks) if mask]
        while work:
            nid = work.pop()
            mask = masks[nid]
            for e in self._in[nid]:
                if masks[e.src] | mask != masks[e.src]:
                    masks[e.src] |= mask
                    work.append(e.src)
        return masks

    def root_distance(self, edge: CfgEdge) -> int:
        return self._distance.get(edge.src, 1 << 30)

    def exit_distance(self, nid: int) -> int:
        """Fewest edges from nid to the exit; huge when the exit is out of reach."""
        return self._exit_distance.get(nid, 1 << 30)


class Target(Frozen):
    def __init__(self, kind: str, ident: int):
        self.__dict__.update(kind=kind, ident=ident)  # kind: "node" or "edge"


def enumerate_coverage_targets(cfg: Cfg) -> list[Target]:
    """The C1 targets in selection order: every guarded decision edge from
    a reachable node, nearest the entry first, then by source, the true
    edge before the false; then every reachable executable node. C0 asks
    for the node targets alone (CoverageState.complete_for)."""
    edges = sorted((e for e in cfg.edges if e.conditional and e.src not in cfg.unreachable),
                   key=lambda e: (cfg.root_distance(e), e.src, e.polarity is not True, e.eid))
    return [Target("edge", e.eid) for e in edges] \
        + [Target("node", n.nid) for n in cfg.nodes
           if n.executable and n.nid not in cfg.unreachable]


class _Lowerer:
    def __init__(self, unit: SourceUnit, fn: FunctionDef):
        self.unit = unit
        self.fn = fn
        self.nodes: list[CfgNode] = []
        self.edges: list[CfgEdge] = []
        self.temps: dict[str, CType] = {}
        self.inline_locals: dict[str, CType] = {}
        self.temp_count = 0
        self.inline_count = 0
        self.entry = self.new_node(fn.line)
        self.exit = self.new_node(fn.end_line)
        # inline frames: (name prefix, return place, join node)
        self.frames: list[tuple[str, Name | None, int]] = []

    # -- graph plumbing ------------------------------------------------------

    def new_node(self, line: int) -> int:
        nid = len(self.nodes)
        self.nodes.append(CfgNode(nid, line=line))
        return nid

    def add_edge(self, src: int, dst: int, polarity: bool | None, line: int = 0) -> None:
        self.edges.append(CfgEdge(len(self.edges), src, dst, polarity, line))

    def fresh_temp(self, ctype: CType) -> Name:
        name = f"{TEMP_PREFIX}{self.temp_count}"
        self.temp_count += 1
        self.temps[name] = ctype
        n = Name(name)
        n.ctype = ctype
        return n

    def emit(self, nid: int, instr: Instr) -> None:
        node = self.nodes[nid]
        assert node.cond is None, "instructions after a decision"
        node.instrs.append(instr)

    # -- entry point -----------------------------------------------------------

    def lower(self) -> Cfg:
        assert self.fn.body is not None
        cur = self.lower_stmts(self.fn.body.stmts, self.entry, None, None)
        if cur is not None:
            last = self.fn.end_line
            if not isinstance(self.fn.return_type, VoidType):
                self.emit(cur, IReturn(None, last))
            self.add_edge(cur, self.exit, None, last)
        cfg = Cfg(self.fn.name, self.fn, self.nodes, self.edges, self.entry,
                  self.exit, self.temps, self.inline_locals)
        cfg.finalize()
        return cfg

    # -- statements -------------------------------------------------------------
    # Each lowering method takes the current node and returns the node where
    # control continues, or None when the flow left (return/break/continue).

    def lower_stmts(self, stmts: list[Stmt], cur: int | None,
                    brk: int | None, cont: int | None) -> int | None:
        for s in stmts:
            if cur is None:
                if is_passive(s):
                    continue
                cur = self.new_node(getattr(s, "line", 0))  # unreachable code
            cur = self.lower_stmt(s, cur, brk, cont)
        return cur

    def lower_stmt(self, s: Stmt, cur: int, brk: int | None,
                   cont: int | None) -> int | None:
        if isinstance(s, DeclStmt):
            if s.init is not None:
                place = Name(self._local_name(s.name), s.line)
                place.ctype = s.ctype
                value, cur = self.rvalue(s.init, cur)
                self.emit(cur, IAssign(place, value, s.line))
            elif self.frames:
                self.inline_locals.setdefault(self._local_name(s.name), s.ctype)
            return cur
        if isinstance(s, ExprStmt):
            _, cur = self.lower_expr(s.expr, cur, want_value=False)
            return cur
        if isinstance(s, If):
            then_n = self.new_node(s.then.line)
            join = self.new_node(s.line)
            if s.orelse is not None:
                else_n = self.new_node(s.orelse.line)
            else:
                else_n = join
            self.lower_cond(s.cond, then_n, else_n, cur)
            end_then = self.lower_stmts(s.then.stmts, then_n, brk, cont)
            if end_then is not None:
                self.add_edge(end_then, join, None)
            if s.orelse is not None:
                end_else = self.lower_stmts(s.orelse.stmts, else_n, brk, cont)
                if end_else is not None:
                    self.add_edge(end_else, join, None)
            return join
        if isinstance(s, While):
            header = self.new_node(s.line)
            body = self.new_node(s.body.line)
            join = self.new_node(s.line)
            self.add_edge(cur, header, None)
            self.lower_cond(s.cond, body, join, header)
            end = self.lower_stmts(s.body.stmts, body, join, header)
            if end is not None:
                self.add_edge(end, header, None)
            return join
        if isinstance(s, DoWhile):
            body = self.new_node(s.body.line)
            join = self.new_node(s.line)
            self.add_edge(cur, body, None)
            end = self.lower_stmts(s.body.stmts, body, join, body)
            if end is not None:
                self.lower_cond(s.cond, body, join, end)
            return join
        if isinstance(s, For):
            if s.init is not None:
                cur = self.lower_stmt(s.init, cur, None, None)
                assert cur is not None
            header = self.new_node(s.line)
            body = self.new_node(s.body.line)
            join = self.new_node(s.line)
            step_node = self.new_node(s.line)
            self.add_edge(cur, header, None)
            if s.cond is not None:
                self.lower_cond(s.cond, body, join, header)
            else:
                self.add_edge(header, body, None)
            end = self.lower_stmts(s.body.stmts, body, join, step_node)
            if end is not None:
                self.add_edge(end, step_node, None)
            if s.step is not None:
                _, step_end = self.lower_expr(s.step, step_node, want_value=False)
            else:
                step_end = step_node
            self.add_edge(step_end, header, None)
            return join
        if isinstance(s, Switch):
            return self._lower_switch(s, cur, cont)
        if isinstance(s, Break):
            if brk is None:
                raise UnsupportedConstruct("break outside loop or switch", s.line)
            self.add_edge(cur, brk, None)
            return None
        if isinstance(s, Continue):
            if cont is None:
                raise UnsupportedConstruct("continue outside loop", s.line)
            self.add_edge(cur, cont, None)
            return None
        if isinstance(s, Return):
            return self._lower_return(s, cur)
        if isinstance(s, Block):
            return self.lower_stmts(s.stmts, cur, brk, cont)
        if isinstance(s, Annotation):
            if self.frames:
                return cur  # an inlined callee's annotations are ignored
            self.emit(cur, IMarker(s.kind, s, s.line))
            return cur
        if isinstance(s, EmptyStmt):
            return cur
        raise UnsupportedConstruct(f"statement {type(s).__name__}", getattr(s, "line", 0))

    def _lower_return(self, s: Return, cur: int) -> None:
        if self.frames:
            prefix, place, join = self.frames[-1]
            if s.value is not None and place is not None:
                value, cur = self.rvalue(s.value, cur)
                self.emit(cur, IAssign(place, value, s.line))
            self.add_edge(cur, join, None)
            return None
        if s.value is not None:
            atom, cur = self.atom(s.value, cur)
            self.emit(cur, IReturn(atom, s.line))
        else:
            self.emit(cur, IReturn(None, s.line))
        self.add_edge(cur, self.exit, None, s.line)
        return None

    def _lower_switch(self, s: Switch, cur: int, cont: int | None) -> int:
        scrutinee, cur = self.atom(s.scrutinee, cur)
        join = self.new_node(s.line)
        body_entries: list[int] = [self.new_node(c.line) for c in s.cases]
        # fall-through chain
        ends: list[int | None] = []
        for i, case in enumerate(s.cases):
            end = self.lower_stmts(case.body, body_entries[i], join, cont)
            ends.append(end)
        for i, end in enumerate(ends):
            if end is not None:
                nxt = body_entries[i + 1] if i + 1 < len(body_entries) else join
                self.add_edge(end, nxt, None)
        # decision cascade in label order; default is the final fallback
        default_target = join
        for case, entry in zip(s.cases, body_entries):
            if case.value is None:
                default_target = entry
        chain = cur
        for case, entry in zip(s.cases, body_entries):
            if case.value is None:
                continue
            nxt = self.new_node(case.line)
            cmp_expr = Bin("==", scrutinee,
                           _typed_int(case.value, promote(scrutinee.ctype)), case.line)
            cmp_expr.ctype = INT
            self.lower_cond_atom(cmp_expr, entry, nxt, chain, case.line)
            chain = nxt
        self.add_edge(chain, default_target, None)
        return join

    # -- conditions ---------------------------------------------------------------

    def lower_cond(self, e: Expr, true_dst: int, false_dst: int, cur: int) -> None:
        if isinstance(e, Bin) and e.op == "&&":
            mid = self.new_node(e.rhs.line)
            self.lower_cond(e.lhs, mid, false_dst, cur)
            self.lower_cond(e.rhs, true_dst, false_dst, mid)
            return
        if isinstance(e, Bin) and e.op == "||":
            mid = self.new_node(e.rhs.line)
            self.lower_cond(e.lhs, true_dst, mid, cur)
            self.lower_cond(e.rhs, true_dst, false_dst, mid)
            return
        if isinstance(e, Un) and e.op == "!":
            self.lower_cond(e.operand, false_dst, true_dst, cur)
            return
        cond, cur = self._cond_atom(e, cur)
        self.lower_cond_atom(cond, true_dst, false_dst, cur, e.line)

    def _cond_atom(self, e: Expr, cur: int) -> tuple[Expr, int]:
        """Lower a branch condition to a one-operator expression over atoms."""
        if isinstance(e, Bin) and e.op in ("==", "!=", "<", "<=", ">", ">="):
            lhs, cur = self.atom(e.lhs, cur)
            rhs, cur = self.atom(e.rhs, cur)
            out = Bin(e.op, lhs, rhs, e.line)
            out.ctype = INT
            return out, cur
        return self.atom(e, cur)

    def lower_cond_atom(self, cond: Expr, true_dst: int, false_dst: int,
                        cur: int, line: int) -> None:
        node = self.nodes[cur]
        if node.cond is None and not node.instrs and cur not in (self.entry, self.exit) \
                and not any(e.src == cur for e in self.edges):
            decision = cur
        else:
            decision = self.new_node(line)
            self.add_edge(cur, decision, None)
        self.nodes[decision].cond = cond
        self.nodes[decision].line = line
        self.add_edge(decision, true_dst, True, line)
        self.add_edge(decision, false_dst, False, line)

    # -- expressions -----------------------------------------------------------------

    def lower_expr(self, e: Expr, cur: int, want_value: bool = True
                   ) -> tuple[Expr | None, int]:
        if isinstance(e, Assign):
            return self._lower_assign(e, cur, want_value)
        if isinstance(e, Update):
            return self._lower_update(e, cur, want_value)
        if isinstance(e, Call):
            return self._lower_call(e, cur, want_value)
        if not want_value:
            if isinstance(e, CastExpr) and isinstance(e.target, VoidType):
                # (void)e: no temporary of type void, only e's side effects
                return self.lower_expr(e.operand, cur, want_value=False)
            # value dropped: still evaluate for side effects
            _, cur = self.atom(e, cur)
            return None, cur
        return self.atom(e, cur)

    def atom(self, e: Expr, cur: int) -> tuple[Expr, int]:
        """Reduce an expression to an atom, emitting 3-address instructions."""
        if isinstance(e, (IntLit, FloatLit, CharLit)):
            return e, cur
        if isinstance(e, SizeofType):
            lit = IntLit(e.target.size, e.line, "U")
            lit.ctype = UINT
            return lit, cur
        if isinstance(e, Name):
            if e.binding is not None and e.binding.kind == "enum":
                lit = IntLit(e.binding.enum_value, e.line)
                lit.ctype = INT
                return lit, cur
            return self._renamed(e), cur
        if isinstance(e, (Assign, Update, Call)):
            value, cur = self.lower_expr(e, cur, want_value=True)
            assert value is not None
            return value, cur
        if isinstance(e, Bin) and e.op in ("&&", "||"):
            return self._bool_value(e, cur)
        if isinstance(e, Cond):
            return self._ternary_value(e, cur)
        if isinstance(e, Member):
            formed = self.place(e, cur)
        else:
            formed = self._operation(e, cur)
        if formed is None:
            raise UnsupportedConstruct(f"expression {type(e).__name__}",
                                       getattr(e, "line", 0))
        return self._into_temp(*formed, e.line)

    def _operation(self, e: Expr, cur: int) -> tuple[Expr, int] | None:
        """e as one operator over atoms, or None if e is no such form."""
        if isinstance(e, Bin) and e.op not in ("&&", "||"):
            lhs, cur = self.atom(e.lhs, cur)
            rhs, cur = self.atom(e.rhs, cur)
            out: Expr = Bin(e.op, lhs, rhs, e.line)
        elif isinstance(e, Un) and e.op == "&":
            place, cur = self.place(e.operand, cur)
            out = Un("&", place, e.line)
        elif isinstance(e, Un) and e.op in ("-", "~", "!", "*"):
            operand, cur = self.atom(e.operand, cur)
            out = Un(e.op, operand, e.line)
        elif isinstance(e, Index):
            base, cur = self.atom(e.base, cur)
            index, cur = self.atom(e.index, cur)
            out = Index(base, index, e.line)
        elif isinstance(e, CastExpr):
            operand, cur = self.atom(e.operand, cur)
            out = CastExpr(e.target, operand, e.line)
        else:
            return None
        out.ctype = e.target if isinstance(e, CastExpr) else e.ctype
        return out, cur

    def place(self, e: Expr, cur: int) -> tuple[Expr, int]:
        """Lower an lvalue to a store/load place with atomic sub-expressions."""
        if isinstance(e, Name):
            return self._renamed(e), cur
        if isinstance(e, Index) or isinstance(e, Un) and e.op == "*":
            formed = self._operation(e, cur)
            assert formed is not None
            return formed
        if isinstance(e, Member):
            if isinstance(e.base, Name) and not e.arrow:
                base: Expr = self._renamed(e.base)
            elif e.arrow:
                base, cur = self.atom(e.base, cur)
            else:
                base, cur = self.place(e.base, cur)
            out = Member(base, e.field_name, e.arrow, e.line)
            out.ctype = e.ctype
            return out, cur
        raise UnsupportedConstruct(f"lvalue {type(e).__name__}", getattr(e, "line", 0))

    def _local_name(self, name: str) -> str:
        if self.frames:
            return f"{self.frames[-1][0]}.{name}"
        return name

    def _renamed(self, e: Name) -> Name:
        if self.frames and e.binding is not None and e.binding.kind in ("local", "param"):
            prefix = self.frames[-1][0]
            out = Name(f"{prefix}.{e.binding.name}", e.line)
            out.ctype = e.ctype
            out.binding = e.binding
            return out
        out = Name(e.binding.name if e.binding is not None else e.name, e.line)
        out.ctype = e.ctype
        out.binding = e.binding
        return out

    def _into_temp(self, rhs: Expr, cur: int, line: int) -> tuple[Expr, int]:
        temp = self.fresh_temp(rhs.ctype)
        self.emit(cur, IAssign(temp, rhs, line))
        return temp, cur

    def _lower_assign(self, e: Assign, cur: int, want_value: bool
                      ) -> tuple[Expr | None, int]:
        place, cur = self.place(e.target, cur)
        if e.op == "=":
            value, cur = self.rvalue(e.value, cur)
        else:
            op = e.op[:-1]
            loaded, cur = self._into_temp(_clone_load(place), cur, e.line)
            rhs_atom, cur = self.atom(e.value, cur)
            combined = Bin(op, loaded, rhs_atom, e.line)
            combined.ctype = binary_type(op, loaded, rhs_atom, e.line)
            value, cur = self._into_temp(combined, cur, e.line)
        self.emit(cur, IAssign(place, value, e.line))
        return (value if want_value else None), cur

    def rvalue(self, e: Expr, cur: int) -> tuple[Expr, int]:
        """One-operator right-hand side (deeper trees spill through temps)."""
        return self._operation(e, cur) or self.atom(e, cur)

    def _lower_update(self, e: Update, cur: int, want_value: bool
                      ) -> tuple[Expr | None, int]:
        place, cur = self.place(e.operand, cur)
        old, cur = self._into_temp(_clone_load(place), cur, e.line)
        one = IntLit(1, e.line)
        one.ctype = INT
        op = "+" if e.op == "++" else "-"
        stepped = Bin(op, old, one, e.line)
        stepped.ctype = binary_type(op, old, one, e.line)
        new, cur = self._into_temp(stepped, cur, e.line)
        self.emit(cur, IAssign(place, new, e.line))
        if not want_value:
            return None, cur
        return (new if e.is_prefix else old), cur

    def _lower_call(self, e: Call, cur: int, want_value: bool
                    ) -> tuple[Expr | None, int]:
        args: list[Expr] = []
        for a in e.args:
            atom, cur = self.atom(a, cur)
            args.append(atom)
        callee = self._defined_function(e.name)
        if callee is not None:
            return self._inline_call(callee, args, e, cur, want_value)
        result: Name | None = None
        if not isinstance(e.ctype, VoidType):
            result = self.fresh_temp(e.ctype)
        self.emit(cur, ICall(e.name, args, result, e.line))
        if want_value and result is None:
            raise UnsupportedConstruct("void call used as a value", e.line)
        return (result if want_value else None), cur

    def _defined_function(self, name: str) -> FunctionDef | None:
        for f in self.unit.functions:
            if f.name == name and f.body is not None and not f.annotation_only:
                return f
        return None

    def _inline_call(self, callee: FunctionDef, args: list[Expr], e: Call,
                     cur: int, want_value: bool) -> tuple[Expr | None, int]:
        self.inline_count += 1
        prefix = f"{callee.name}@{self.inline_count}"
        result: Name | None = None
        if not isinstance(callee.return_type, VoidType):
            result = self.fresh_temp(callee.return_type)
        join = self.new_node(e.line)
        for p, arg in zip(callee.params, args):
            pname = Name(f"{prefix}.{p.name}", e.line)
            pname.ctype = p.ctype
            self.inline_locals[pname.name] = p.ctype
            self.emit(cur, IAssign(pname, arg, e.line))
        for lname, ltype in callee.locals_types.items():
            self.inline_locals[f"{prefix}.{lname}"] = ltype
        self.frames.append((prefix, result, join))
        end = self.lower_stmts(callee.body.stmts, cur, None, None)
        self.frames.pop()
        if end is not None:
            self.add_edge(end, join, None)
        if want_value and result is None:
            raise UnsupportedConstruct("void call used as a value", e.line)
        return (result if want_value else None), join

    def _bool_value(self, e: Bin, cur: int) -> tuple[Expr, int]:
        temp = self.fresh_temp(INT)
        true_n = self.new_node(e.line)
        false_n = self.new_node(e.line)
        join = self.new_node(e.line)
        self.lower_cond(e, true_n, false_n, cur)
        for node, const in ((true_n, 1), (false_n, 0)):
            lit = IntLit(const, e.line)
            lit.ctype = INT
            self.emit(node, IAssign(temp, lit, e.line))
            self.add_edge(node, join, None)
        return temp, join

    def _ternary_value(self, e: Cond, cur: int) -> tuple[Expr, int]:
        temp = self.fresh_temp(e.ctype)
        true_n = self.new_node(e.line)
        false_n = self.new_node(e.line)
        join = self.new_node(e.line)
        self.lower_cond(e.cond, true_n, false_n, cur)
        then_v, end_t = self.rvalue(e.then, true_n)
        self.emit(end_t, IAssign(temp, then_v, e.line))
        self.add_edge(end_t, join, None)
        else_v, end_f = self.rvalue(e.other, false_n)
        self.emit(end_f, IAssign(temp, else_v, e.line))
        self.add_edge(end_f, join, None)
        return temp, join


def _typed_int(value: int, ctype: CType | None) -> IntLit:
    lit = IntLit(value)
    lit.ctype = ctype if isinstance(ctype, IntType) else INT
    return lit


def _clone_load(place: Expr) -> Expr:
    # a fresh node so the load and the later store do not share AST identity
    if isinstance(place, Name):
        out: Expr = Name(place.name, place.line)
        out.binding = place.binding
    elif isinstance(place, Index):
        out = Index(place.base, place.index, place.line)
    elif isinstance(place, Un):
        out = Un(place.op, place.operand, place.line)
    elif isinstance(place, Member):
        out = Member(place.base, place.field_name, place.arrow, place.line)
    else:
        raise TypeError(f"not a place: {place!r}")
    out.ctype = place.ctype
    return out


def lower(unit: SourceUnit, fn: FunctionDef) -> Cfg:
    """Lower one parsed, annotation-extracted function to its CFG."""
    return _Lowerer(unit, fn).lower()


def guard_text(cfg: Cfg, edge: CfgEdge) -> str:
    """The edge's guard as C text ("true" when unconditional)."""
    return cfg.guard_texts[edge.eid]


def _render_guard(cfg: Cfg, edge: CfgEdge) -> str:
    if edge.polarity is None:
        return "true"
    cond = cfg.node(edge.src).cond
    assert cond is not None
    text = expr_to_c(cond)
    if edge.polarity:
        return text
    if isinstance(cond, Name):
        return f"!{text}"
    return f"!({text})"


def dump_cfg(cfg: Cfg) -> str:
    """Deterministic textual CFG for golden-file tests."""
    lines = [f"cfg {cfg.name} entry=n{cfg.entry} exit=n{cfg.exit}"]
    for node in cfg.nodes:
        flags = []
        if node.nid == cfg.entry:
            flags.append("entry")
        if node.nid == cfg.exit:
            flags.append("exit")
        if node.nid in cfg.unreachable:
            flags.append("unreachable")
        suffix = f" ({', '.join(flags)})" if flags else ""
        if node.is_decision:
            lines.append(f"n{node.nid} decision line {node.line}: "
                         f"{expr_to_c(node.cond)}{suffix}")
        else:
            lines.append(f"n{node.nid} line {node.line}{suffix}")
        for instr in node.instrs:
            lines.append(f"  {instr_text(instr)}")
        for e in cfg.out_edges(node.nid):
            lines.append(f"  -> n{e.dst} [{guard_text(cfg, e)}]")
    return "\n".join(lines) + "\n"


def instr_text(instr: Instr) -> str:
    if isinstance(instr, IAssign):
        return f"{expr_to_c(instr.place)} = {expr_to_c(instr.value)}"
    if isinstance(instr, ICall):
        args = ", ".join(expr_to_c(a) for a in instr.args)
        prefix = f"{expr_to_c(instr.result)} = " if instr.result is not None else ""
        return f"{prefix}call {instr.callee}({args})"
    if isinstance(instr, IReturn):
        if instr.value is None:
            return "return"
        return f"return {expr_to_c(instr.value)}"
    if isinstance(instr, IMarker):
        from .frontend.writer import annotation_to_c

        return f"marker {annotation_to_c(instr.payload)}"
    raise TypeError(f"unknown instruction {instr!r}")
