"""Extraction and validation of __rtt_* annotations from a parsed function.

Contract annotations (pre/post/testcase/aux/modifies) live at the top of the
function body and are removed from the executable statement list; assign and
assert annotations stay behind as markers at their original positions. An
__rtt_assign must be a plain assignment to an auxiliary variable.
"""

from __future__ import annotations

from ..errors import AnnotationPlacementError, AnnotationScopeError, CunitgenError
from ..typesys import CType
from .csyntax import (
    Annotation,
    AnnotationKind,
    Assign,
    Block,
    DoWhile,
    Expr,
    For,
    FunctionDef,
    If,
    InitialRef,
    Name,
    ReturnRef,
    Stmt,
    Switch,
    While,
    is_passive,
)

_HEADER_KINDS = (
    AnnotationKind.PRE,
    AnnotationKind.POST,
    AnnotationKind.TESTCASE,
    AnnotationKind.AUX,
    AnnotationKind.MODIFIES,
)


class TestCaseAnn:
    def __init__(self, pre: Expr, post: Expr, tags: list[str], line: int):
        self.pre = pre
        self.post = post
        self.tags = tags
        self.line = line


class AnnotationSet:
    def __init__(self):
        self.pres: list[Expr] = []
        self.posts: list[tuple[Expr, int]] = []
        self.testcases: list[TestCaseAnn] = []
        self.aux: dict[str, CType] = {}
        self.modifies: list[str] | None = None  # None: no restriction was declared
        self.initial_vars: list[str] = []
        self.annotations: list[Annotation] = []  # source order

    @property
    def requirement_tags(self) -> list[str]:
        seen: list[str] = []
        for tc in self.testcases:
            for tag in tc.tags:
                if tag not in seen:
                    seen.append(tag)
        return seen


def extract_annotations(fn: FunctionDef) -> AnnotationSet:
    """Pull the annotation set out of fn, mutating its body in place.

    Idempotent: extraction strips the contract statements from the body, so
    the first result is cached on the function and returned thereafter.
    """
    assert fn.body is not None, "extract_annotations needs a definition"
    if isinstance(fn.extracted, AnnotationSet):
        return fn.extracted
    out = AnnotationSet()
    kept: list[Stmt] = []
    executable_seen = False
    for stmt in fn.body.stmts:
        if isinstance(stmt, Annotation):
            out.annotations.append(stmt)
            if stmt.kind in _HEADER_KINDS:
                if executable_seen:
                    raise AnnotationPlacementError(
                        f"{stmt.kind.value} annotation after the first executable "
                        f"statement (line {stmt.line})"
                    )
                _collect_header(out, stmt)
                continue
            kept.append(stmt)  # assign/assert markers stay put
            _scan_initials(out, stmt.exprs)
            continue
        if not is_passive(stmt):
            executable_seen = True
        _reject_nested_headers(stmt, out)
        kept.append(stmt)
    for ann in out.annotations:
        if ann.kind is AnnotationKind.ASSIGN and not _assigns_aux(ann, out):
            raise CunitgenError(
                "__rtt_assign takes a plain assignment AUX = EXPR to an "
                f"auxiliary variable (line {ann.line})")
    fn.body.stmts = kept
    _check_scopes(out)
    fn.extracted = out
    return out


def _assigns_aux(ann: Annotation, out: AnnotationSet) -> bool:
    # __rtt_assign is ghost code, which a C compiler drops, so it may write
    # nothing but an auxiliary variable.
    payload = ann.exprs[0] if ann.exprs else None
    return isinstance(payload, Assign) and payload.op == "=" \
        and isinstance(payload.target, Name) and payload.target.name in out.aux


def _collect_header(out: AnnotationSet, ann: Annotation) -> None:
    if ann.kind is AnnotationKind.PRE:
        out.pres.append(ann.exprs[0])
        _scan_initials(out, ann.exprs)
    elif ann.kind is AnnotationKind.POST:
        out.posts.append((ann.exprs[0], ann.line))
        _scan_initials(out, ann.exprs)
    elif ann.kind is AnnotationKind.TESTCASE:
        out.testcases.append(TestCaseAnn(ann.exprs[0], ann.exprs[1], list(ann.tags), ann.line))
        _scan_initials(out, ann.exprs)
    elif ann.kind is AnnotationKind.AUX:
        out.aux[ann.aux_name] = ann.aux_type  # type: ignore[assignment]
    elif ann.kind is AnnotationKind.MODIFIES:
        if out.modifies is None:
            out.modifies = []
        out.modifies.extend(n.name for n in ann.names)


def _reject_nested_headers(stmt: Stmt, out: AnnotationSet) -> None:
    def walk(stmts: list[Stmt]) -> None:
        for s in stmts:
            if isinstance(s, Annotation):
                if s.kind in _HEADER_KINDS:
                    raise AnnotationPlacementError(
                        f"{s.kind.value} annotation inside nested statement "
                        f"(line {s.line})"
                    )
                out.annotations.append(s)
                _scan_initials(out, s.exprs)
            elif isinstance(s, Block):
                walk(s.stmts)
            elif isinstance(s, If):
                walk(s.then.stmts)
                if s.orelse:
                    walk(s.orelse.stmts)
            elif isinstance(s, (While, DoWhile)):
                walk(s.body.stmts)
            elif isinstance(s, For):
                walk(s.body.stmts)
            elif isinstance(s, Switch):
                for case in s.cases:
                    walk(case.body)
    walk([stmt])


def _scan_initials(out: AnnotationSet, exprs: list[Expr]) -> None:
    for e in exprs:
        for node in walk_expr(e):
            if isinstance(node, InitialRef) and node.var.name not in out.initial_vars:
                out.initial_vars.append(node.var.name)


def _check_scopes(out: AnnotationSet) -> None:
    def check(expr: Expr, where: str, allow_return: bool) -> None:
        for node in walk_expr(expr):
            if isinstance(node, Name) and node.binding is not None:
                if node.binding.kind == "local":
                    raise AnnotationScopeError(
                        f"{where} references local {node.name}; only globals, "
                        f"parameters and auxiliary variables are allowed"
                    )
            if isinstance(node, ReturnRef) and not allow_return:
                raise AnnotationScopeError(f"__rtt_return inside {where}")
            if isinstance(node, InitialRef) and node.var.binding is not None \
                    and node.var.binding.kind not in ("global", "param"):
                raise AnnotationScopeError(
                    f"__rtt_initial target {node.var.name} must be a global or parameter"
                )

    for pre in out.pres:
        check(pre, "precondition", allow_return=False)
    for post, _line in out.posts:
        check(post, "postcondition", allow_return=True)
    for tc in out.testcases:
        check(tc.pre, "test case precondition", allow_return=False)
        check(tc.post, "test case postcondition", allow_return=True)


def walk_expr(e: Expr):
    """Yield e and every sub-expression, depth first."""
    yield e
    for attr in ("lhs", "rhs", "operand", "target", "value", "cond", "then",
                 "other", "base", "index", "var"):
        child = getattr(e, attr, None)
        # CastExpr.target / SizeofType.target hold a CType, which has no line
        if child is not None and not isinstance(child, (str, int, float)) \
                and hasattr(child, "line"):
            yield from walk_expr(child)
    for arg in getattr(e, "args", ()) or ():
        yield from walk_expr(arg)
