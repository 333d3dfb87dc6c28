"""Name resolution and static typing for parsed units.

Every expression node gets its ctype filled in; Name nodes get a Binding.
Locals shadowing an outer name are given a unique resolved name so the rest
of the pipeline can key memory regions by name alone.
"""

from __future__ import annotations

from ..errors import ParseError, SemaError, UnsupportedConstruct
from ..typesys import (
    DOUBLE,
    FLOAT,
    INT,
    LONG,
    PTRDIFF,
    UINT,
    ULONG,
    ArrayType,
    CType,
    IntType,
    PointerType,
    StructType,
    VoidType,
    is_arith,
    is_integer,
    is_pointer,
    is_scalar,
    promote,
    usual_arith,
    wrap_int,
)
from .csyntax import (
    Annotation,
    AnnotationKind,
    Assign,
    Bin,
    Binding,
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
    InitialRef,
    IntLit,
    Member,
    Name,
    Return,
    ReturnRef,
    SizeofType,
    SourceUnit,
    Stmt,
    StrLit,
    Switch,
    Un,
    Update,
    While,
)
from .parser import TypeEnv


class _Scope:
    def __init__(self, parent: _Scope | None = None):
        self.parent = parent
        self.names: dict[str, Binding] = {}

    def lookup(self, name: str) -> Binding | None:
        scope: _Scope | None = self
        while scope is not None:
            if name in scope.names:
                return scope.names[name]
            scope = scope.parent
        return None

    def define(self, name: str, binding: Binding) -> None:
        if name in self.names:
            raise SemaError(f"duplicate declaration of {name}", binding.line)
        self.names[name] = binding


class _FunctionSema:
    def __init__(self, unit_sema: "_UnitSema", fn: FunctionDef):
        self.unit = unit_sema
        self.fn = fn
        self.scope = _Scope(unit_sema.global_scope)
        self.aux: dict[str, Binding] = {}
        self.local_counter: dict[str, int] = {}
        self.later_locals: dict[str, CType] = {}
        self.in_annotation = False

    def run(self) -> None:
        fn = self.fn
        for p in fn.params:
            if isinstance(p.ctype, VoidType):
                raise SemaError(f"void parameter in {fn.name}", p.line)
            if self.unit.global_scope.lookup(p.name) is not None:
                raise SemaError(
                    f"parameter {p.name} of {fn.name} shadows a global", p.line)
            self.scope.define(p.name, Binding("param", p.name, p.ctype, p.line))
        if fn.body is not None:
            self._collect_later_locals(fn.body)
            self._stmt_list(fn.body.stmts, self.scope)
            fn.end_line = _max_line(fn.body, fn.line)

    def _collect_later_locals(self, block: Block) -> None:
        def walk(stmts: list[Stmt]) -> None:
            for s in stmts:
                if isinstance(s, DeclStmt):
                    self.later_locals.setdefault(s.name, s.ctype)
                elif isinstance(s, Block):
                    walk(s.stmts)
                elif isinstance(s, If):
                    walk(s.then.stmts)
                    if s.orelse:
                        walk(s.orelse.stmts)
                elif isinstance(s, (While, DoWhile)):
                    walk(s.body.stmts)
                elif isinstance(s, For):
                    if s.init:
                        walk([s.init])
                    walk(s.body.stmts)
                elif isinstance(s, Switch):
                    for case in s.cases:
                        walk(case.body)
        walk(block.stmts)

    # -- statements ---------------------------------------------------------

    def _stmt_list(self, stmts: list[Stmt], scope: _Scope) -> None:
        for s in stmts:
            self._stmt(s, scope)

    def _stmt(self, s: Stmt, scope: _Scope) -> None:
        if isinstance(s, DeclStmt):
            self._decl(s, scope)
        elif isinstance(s, ExprStmt):
            self._expr(s.expr, scope)
        elif isinstance(s, If):
            self._cond_expr(s.cond, scope)
            self._stmt(s.then, scope)
            if s.orelse:
                self._stmt(s.orelse, scope)
        elif isinstance(s, While):
            self._cond_expr(s.cond, scope)
            self._stmt(s.body, scope)
        elif isinstance(s, DoWhile):
            self._stmt(s.body, scope)
            self._cond_expr(s.cond, scope)
        elif isinstance(s, For):
            inner = _Scope(scope)
            if s.init:
                self._stmt(s.init, inner)
            if s.cond:
                self._cond_expr(s.cond, inner)
            if s.step:
                self._expr(s.step, inner)
            self._stmt(s.body, inner)
        elif isinstance(s, Switch):
            t = self._expr(s.scrutinee, scope)
            if not is_integer(t):
                raise SemaError("switch scrutinee must be an integer", s.line)
            _convert_labels(s, promote(t))
            for case in s.cases:
                self._stmt_list(case.body, _Scope(scope))
        elif isinstance(s, Return):
            want = self.fn.return_type
            if s.value is None:
                if not isinstance(want, VoidType):
                    raise SemaError(f"{self.fn.name} must return a value", s.line)
            else:
                if isinstance(want, VoidType):
                    raise SemaError(f"{self.fn.name} returns void", s.line)
                got = self._expr(s.value, scope)
                _check_convertible(got, want, s.line)
        elif isinstance(s, Block):
            self._stmt_list(s.stmts, _Scope(scope))
        elif isinstance(s, Annotation):
            self._annotation(s, scope)
        elif isinstance(s, (Break, Continue, EmptyStmt)):
            pass
        else:
            raise SemaError(f"unhandled statement {type(s).__name__}", getattr(s, "line", 0))

    def _decl(self, s: DeclStmt, scope: _Scope) -> None:
        if isinstance(s.ctype, VoidType):
            raise SemaError(f"void variable {s.name}", s.line)
        count = self.local_counter.get(s.name, 0)
        if count == 0 and (self.unit.global_scope.lookup(s.name) is not None
                           or any(p.name == s.name for p in self.fn.params)):
            count = 1  # keep the storage name distinct from the outer one
        self.local_counter[s.name] = count + 1
        resolved = s.name if count == 0 else f"{s.name}@{count}"
        scope.define(s.name, Binding("local", resolved, s.ctype, s.line))
        self.fn.locals_types[resolved] = s.ctype
        s.name = resolved
        if s.init is not None:
            got = self._expr(s.init, scope)
            _check_convertible(got, s.ctype, s.line)

    def _annotation(self, ann: Annotation, scope: _Scope) -> None:
        if ann.kind is AnnotationKind.AUX:
            if ann.aux_name in self.aux:
                raise SemaError(f"duplicate auxiliary variable {ann.aux_name}", ann.line)
            binding = Binding("aux", ann.aux_name, ann.aux_type, ann.line)
            self.aux[ann.aux_name] = binding
            self.fn.aux_types[ann.aux_name] = ann.aux_type
            return
        if ann.kind is AnnotationKind.MODIFIES:
            for name in ann.names:
                b = self.unit.global_scope.lookup(name.name)
                if b is None or b.kind != "global":
                    raise SemaError(
                        f"__rtt_modifies target {name.name} is not a global", ann.line)
                name.binding = b
                name.ctype = b.ctype
            return
        self.in_annotation = True
        try:
            for e in ann.exprs:
                self._expr(e, scope)
        finally:
            self.in_annotation = False

    def _cond_expr(self, e: Expr, scope: _Scope) -> None:
        t = self._expr(e, scope)
        if not (is_scalar(t) or isinstance(t, ArrayType)):
            raise SemaError("condition must be scalar", e.line)

    # -- expressions ----------------------------------------------------------

    def _expr(self, e: Expr, scope: _Scope) -> CType:
        t = self._expr_inner(e, scope)
        e.ctype = t
        return t

    def _expr_inner(self, e: Expr, scope: _Scope) -> CType:
        if isinstance(e, IntLit):
            return _int_literal_type(e)
        if isinstance(e, FloatLit):
            return FLOAT if e.is_single else DOUBLE
        if isinstance(e, CharLit):
            return INT
        if isinstance(e, StrLit):
            raise UnsupportedConstruct("string literal in expression", e.line)
        if isinstance(e, Name):
            return self._name(e, scope)
        if isinstance(e, ReturnRef):
            if not self.in_annotation:
                raise SemaError("__rtt_return outside annotation", e.line)
            if isinstance(self.fn.return_type, VoidType):
                raise SemaError("__rtt_return in a void function", e.line)
            return self.fn.return_type
        if isinstance(e, InitialRef):
            if not self.in_annotation:
                raise SemaError("__rtt_initial outside annotation", e.line)
            t = self._name(e.var, scope)
            e.var.ctype = t
            return _decay(t)
        if isinstance(e, SizeofType):
            if e.target is None:
                assert e.operand is not None
                t = self._expr(e.operand, scope)
                e.target = t
            return UINT
        if isinstance(e, CastExpr):
            self._expr(e.operand, scope)
            return e.target
        if isinstance(e, Un):
            return self._unary(e, scope)
        if isinstance(e, Update):
            t = self._expr(e.operand, scope)
            _require_assignable(e.operand, t)
            one = IntLit(1, e.line)
            one.ctype = INT
            binary_type("+" if e.op == "++" else "-", e.operand, one, e.line)
            return t
        if isinstance(e, Bin):
            self._expr(e.lhs, scope)
            self._expr(e.rhs, scope)
            return binary_type(e.op, e.lhs, e.rhs, e.line)
        if isinstance(e, Cond):
            self._cond_expr(e.cond, scope)
            a = _decay(self._expr(e.then, scope))
            b = _decay(self._expr(e.other, scope))
            if is_arith(a) and is_arith(b):
                return usual_arith(a, b)
            if is_pointer(a) and (is_pointer(b) or _is_null_const(e.other)):
                return a
            if is_pointer(b) and _is_null_const(e.then):
                return b
            raise SemaError("incompatible branches of ?:", e.line)
        if isinstance(e, Assign):
            target_t = self._expr(e.target, scope)
            _require_assignable(e.target, target_t)
            self._check_aux_flow(e)
            value_t = self._expr(e.value, scope)
            if e.op == "=":
                _check_convertible(value_t, target_t, e.line)
            elif is_pointer(binary_type(e.op[:-1], e.target, e.value, e.line)) \
                    != is_pointer(target_t):
                # a result the target cannot hold: int += pointer, pointer -= pointer
                raise SemaError(f"invalid operands to {e.op}", e.line)
            return target_t
        if isinstance(e, Index):
            base_t = _decay(self._expr(e.base, scope))
            idx_t = _decay(self._expr(e.index, scope))
            if not is_pointer(base_t):
                raise SemaError("subscripted value is not an array or pointer", e.line)
            if not is_integer(idx_t):
                raise SemaError("array index must be an integer", e.line)
            return base_t.pointee
        if isinstance(e, Member):
            base_t = self._expr(e.base, scope)
            if e.arrow:
                base_t = _decay(base_t)
                if not (is_pointer(base_t) and isinstance(base_t.pointee, StructType)):
                    raise SemaError("-> on a non-pointer-to-struct", e.line)
                st = base_t.pointee
            else:
                if not isinstance(base_t, StructType):
                    raise SemaError(". on a non-struct", e.line)
                st = base_t
            try:
                f = st.field(e.field_name)
            except KeyError:
                raise SemaError(f"no member {e.field_name} in {st}", e.line) from None
            return f.ctype
        if isinstance(e, Call):
            return self._call(e, scope)
        raise SemaError(f"unhandled expression {type(e).__name__}", getattr(e, "line", 0))

    def _name(self, e: Name, scope: _Scope) -> CType:
        if self.in_annotation and e.name in self.aux:
            e.binding = self.aux[e.name]
            return e.binding.ctype
        if not self.in_annotation and e.name in self.aux:
            raise SemaError(
                f"auxiliary variable {e.name} used outside annotations", e.line)
        b = scope.lookup(e.name)
        if b is None and e.name in self.unit.env.enum_consts:
            b = Binding("enum", e.name, INT, e.line, self.unit.env.enum_consts[e.name])
        if b is None and self.in_annotation and e.name in self.later_locals:
            # a local declared further down; extract_annotations turns this
            # into an AnnotationScopeError for pre/post/testcase payloads
            b = Binding("local", e.name, self.later_locals[e.name], e.line)
        if b is None:
            raise SemaError(f"undeclared identifier {e.name}", e.line)
        e.binding = b
        return b.ctype

    def _check_aux_flow(self, e: Assign) -> None:
        # Auxiliary variables never flow into ordinary program state.
        if self.in_annotation:
            return
        target = e.target
        if isinstance(target, Name) and target.name in self.aux:
            raise SemaError(
                f"auxiliary variable {target.name} assigned outside __rtt_assign", e.line)

    def _unary(self, e: Un, scope: _Scope) -> CType:
        t = self._expr(e.operand, scope)
        if e.op == "*":
            t = _decay(t)
            if not is_pointer(t):
                raise SemaError("dereference of a non-pointer", e.line)
            if isinstance(t.pointee, VoidType):
                raise SemaError("dereference of void *", e.line)
            return t.pointee
        if e.op == "&":
            _require_lvalue(e.operand)
            return PointerType(t if not isinstance(t, ArrayType) else t.elem)
        if e.op == "!":
            if not (is_scalar(_decay(t)) or isinstance(t, ArrayType)):
                raise SemaError("! needs a scalar", e.line)
            return INT
        if e.op in ("-", "~"):
            t = _decay(t)
            if e.op == "~" and not is_integer(t):
                raise SemaError("~ needs an integer", e.line)
            if not is_arith(t):
                raise SemaError(f"{e.op} needs an arithmetic operand", e.line)
            return promote(t) if is_integer(t) else t
        raise SemaError(f"unhandled unary {e.op}", e.line)

    def _call(self, e: Call, scope: _Scope) -> CType:
        sig = self.unit.functions.get(e.name)
        if sig is None:
            raise SemaError(f"call to undeclared function {e.name}", e.line)
        if len(e.args) != len(sig.params):
            raise SemaError(
                f"{e.name} expects {len(sig.params)} arguments, got {len(e.args)}", e.line)
        for arg, p in zip(e.args, sig.params):
            got = self._expr(arg, scope)
            _check_convertible(got, p.ctype, arg.line)
        self.unit.calls.setdefault(self.fn.name, set()).add(e.name)
        return sig.return_type


class _UnitSema:
    def __init__(self, unit: SourceUnit, env: TypeEnv):
        self.unit = unit
        self.env = env
        self.global_scope = _Scope()
        self.functions: dict[str, FunctionDef] = {}
        self.calls = unit.calls

    def run(self) -> None:
        for fn in self.unit.functions:
            existing = self.functions.get(fn.name)
            if existing is None:
                self.functions[fn.name] = fn
                continue
            if existing.body is not None and fn.body is not None:
                raise SemaError(f"redefinition of {fn.name}", fn.line)
            if fn.body is not None:
                self.functions[fn.name] = fn
        for g in self.unit.globals:
            self.global_scope.define(
                g.name, Binding("global", g.name, g.ctype, g.line))
            if g.init is not None:
                if isinstance(g.ctype, ArrayType):
                    raise SemaError(f"scalar initializer for array {g.name}", g.line)
                checker = _FunctionSema(self, FunctionDef("<init>", INT, [], None))
                got = checker._expr(g.init, self.global_scope)
                _check_convertible(got, g.ctype, g.line)
        for fn in self.unit.functions:
            if fn.body is not None:
                _FunctionSema(self, fn).run()
        self._check_recursion()

    def _check_recursion(self) -> None:
        defined = {f.name for f in self.unit.functions
                   if f.body is not None and not f.annotation_only}
        state: dict[str, int] = {}

        def visit(name: str, chain: list[str]) -> None:
            state[name] = 1
            for callee in sorted(self.calls.get(name, ())):
                if callee not in defined:
                    continue
                if state.get(callee) == 1:
                    cycle = " -> ".join(chain + [name, callee])
                    raise UnsupportedConstruct(f"recursion ({cycle})")
                if callee not in state:
                    visit(callee, chain + [name])
            state[name] = 2

        for name in sorted(defined):
            if name not in state:
                visit(name, [])


def binary_type(op: str, lhs: Expr, rhs: Expr, line: int) -> CType:
    """The type of lhs op rhs, whose operands are typed, or a SemaError when
    C gives op no meaning for them. Compound assignment, ++ and -- are
    checked by the same rule, and imr types the operations it lowers them
    to with it."""
    lt, rt = _decay(lhs.ctype), _decay(rhs.ctype)
    if op in ("&&", "||"):
        for side, t in ((lhs, lt), (rhs, rt)):
            if not is_scalar(t):
                raise SemaError(f"operand of {op} must be scalar", side.line)
        return INT
    if op in ("==", "!=", "<", "<=", ">", ">="):
        if is_pointer(lt) or is_pointer(rt):
            ok = (is_pointer(lt) and is_pointer(rt)) or \
                (is_pointer(lt) and _is_null_const(rhs)) or \
                (is_pointer(rt) and _is_null_const(lhs))
            if not ok:
                raise SemaError("invalid pointer comparison", line)
            return INT
        if not (is_arith(lt) and is_arith(rt)):
            raise SemaError(f"invalid operands to {op}", line)
        return INT
    if op in ("+", "-"):
        if is_pointer(lt) and is_integer(rt):
            return lt
        if op == "+" and is_integer(lt) and is_pointer(rt):
            return rt
        if op == "-" and is_pointer(lt) and is_pointer(rt):
            return PTRDIFF
    if op in ("%", "&", "|", "^", "<<", ">>"):
        if not (is_integer(lt) and is_integer(rt)):
            raise SemaError(f"{op} needs integer operands", line)
        if op in ("<<", ">>"):
            return promote(lt)
        return usual_arith(lt, rt)
    if not (is_arith(lt) and is_arith(rt)):
        raise SemaError(f"invalid operands to {op}", line)
    return usual_arith(lt, rt)


def _int_literal_type(e: IntLit) -> IntType:
    suffix = e.suffix.upper()
    if "U" in suffix and "L" in suffix:
        return ULONG
    if "L" in suffix:
        return LONG
    if "U" in suffix:
        return UINT
    if e.value > INT.max_value():
        return LONG if e.value <= LONG.max_value() else ULONG
    return INT


def _decay(t: CType) -> CType:
    if isinstance(t, ArrayType):
        return PointerType(t.elem)
    return t


def _is_null_const(e: Expr) -> bool:
    return isinstance(e, IntLit) and e.value == 0


def _require_lvalue(e: Expr) -> None:
    if isinstance(e, (Name, Index, Member)):
        return
    if isinstance(e, Un) and e.op == "*":
        return
    raise SemaError("lvalue required", getattr(e, "line", 0))


def _require_assignable(e: Expr, t: CType) -> None:
    _require_lvalue(e)
    if isinstance(t, ArrayType):
        raise SemaError("assignment to an array", e.line)


def _check_convertible(got: CType, want: CType, line: int) -> None:
    got = _decay(got)
    want_d = _decay(want)
    if is_arith(got) and is_arith(want_d):
        return
    if is_pointer(want_d) and is_pointer(got):
        return
    if is_pointer(want_d) and is_integer(got):
        return  # includes the null constant; other cases fail at runtime modeling
    if isinstance(want_d, StructType) and got == want_d:
        return
    raise SemaError(f"cannot convert {got} to {want_d}", line)


def _convert_labels(s: Switch, t: IntType) -> None:
    """Convert each case label to t, the promoted type of the controlling
    expression (C11 6.8.4.2p5), and reject a value two labels share there:
    on an int, case 1 and case 4294967297 are one label."""
    seen: set[int] = set()
    for case in s.cases:
        if case.value is None:
            continue
        case.value = wrap_int(case.value, t)
        if case.value in seen:
            raise ParseError(f"duplicate case value {case.value}", case.line)
        seen.add(case.value)


def _max_line(node: object, best: int) -> int:
    line = getattr(node, "line", 0)
    best = max(best, line if isinstance(line, int) else 0)
    if isinstance(node, Block):
        for s in node.stmts:
            best = _max_line(s, best)
    elif isinstance(node, If):
        best = _max_line(node.then, best)
        if node.orelse:
            best = _max_line(node.orelse, best)
    elif isinstance(node, (While, DoWhile, For)):
        best = _max_line(node.body, best)
    elif isinstance(node, Switch):
        for case in node.cases:
            for s in case.body:
                best = _max_line(s, best)
    return best


def analyze(unit: SourceUnit, env: TypeEnv) -> None:
    """Resolve and type the whole unit in place."""
    sema = _UnitSema(unit, env)
    sema.run()
