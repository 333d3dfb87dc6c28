"""Recursive-descent parser for the annotated C subset.

parse_unit() is the public entry point: preprocess, lex, parse, then run
the sema pass so every expression node carries its static type.
"""

from __future__ import annotations

import math

from ..errors import CunitgenError, ParseError, UnsupportedConstruct
from ..typesys import (
    BUILTIN_TYPES,
    FLOAT,
    INT,
    LONG,
    ArrayType,
    CType,
    IntType,
    PointerType,
    StructField,
    StructType,
    Undefined,
    binary,
    layout_struct,
    round_float,
    unary,
)
from .csyntax import (
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
    InitialRef,
    IntLit,
    Member,
    Name,
    Param,
    Return,
    ReturnRef,
    SizeofType,
    SourceUnit,
    Stmt,
    StrLit,
    Switch,
    SwitchCase,
    TypeDecl,
    Un,
    Update,
    VarDecl,
    While,
)
from .lexer import Token
from .preprocessor import preprocess_and_lex

_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="}

_DYNAMIC_MEMORY = {"malloc", "calloc", "realloc", "free"}


class TypeEnv:
    def __init__(self):
        self.typedefs: dict[str, CType] = {}
        self.tags: dict[tuple[str, str], StructType] = {}
        self.enum_consts: dict[str, int] = {}


class _Parser:
    def __init__(self, tokens: list[Token], file_name: str):
        self.toks = tokens
        self.pos = 0
        self.file_name = file_name
        self.env = TypeEnv()
        self.typedecls: list[TypeDecl] = []

    # -- token plumbing ----------------------------------------------------

    @property
    def cur(self) -> Token:
        return self.toks[self.pos]

    def peek(self) -> Token:
        idx = min(self.pos + 1, len(self.toks) - 1)
        return self.toks[idx]

    def advance(self) -> Token:
        tok = self.cur
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def accept(self, text: str) -> bool:
        if self.cur.text == text and self.cur.kind in ("punct", "keyword"):
            self.advance()
            return True
        return False

    def expect(self, text: str) -> Token:
        if self.cur.text == text and self.cur.kind in ("punct", "keyword"):
            return self.advance()
        raise self.error(f"got {self.cur.text!r}", self.cur, (text,))

    def expect_ident(self) -> Token:
        if self.cur.kind != "ident":
            raise self.error(f"got {self.cur.text!r}", self.cur, ("identifier",))
        return self.advance()

    @staticmethod
    def error(message: str, tok: Token, expected: tuple[str, ...] = ()) -> ParseError:
        """A ParseError at tok, naming the header tok came from."""
        return ParseError(message, tok.line, tok.col, expected, tok.file)

    # -- types --------------------------------------------------------------

    def at_type_start(self) -> bool:
        t = self.cur
        if t.kind == "keyword" and t.text in (
            "void", "char", "short", "int", "long", "float", "double",
            "signed", "unsigned", "struct", "union", "enum", "const",
        ):
            return True
        return t.kind == "ident" and t.text in self.env.typedefs

    def parse_type_specifier(self) -> CType:
        """Base type: builtin combination, struct/union/enum, or typedef name."""
        self._const_seen = self.accept("const")
        t = self.cur
        if t.kind == "keyword" and t.text in ("struct", "union"):
            return self._parse_struct_or_union()
        if t.kind == "keyword" and t.text == "enum":
            return self._parse_enum()
        if t.kind == "ident" and t.text in self.env.typedefs:
            self.advance()
            return self.env.typedefs[t.text]
        words: list[str] = []
        while self.cur.kind == "keyword" and self.cur.text in (
            "void", "char", "short", "int", "long", "float", "double",
            "signed", "unsigned",
        ):
            words.append(self.advance().text)
        if not words:
            raise self.error(f"got {t.text!r}", t, ("type name",))
        key = " ".join(words)
        if key in BUILTIN_TYPES:
            base = BUILTIN_TYPES[key]
        else:
            normalized = " ".join(sorted(words, key=lambda w: (w != "unsigned", w != "signed")))
            if normalized in BUILTIN_TYPES:
                base = BUILTIN_TYPES[normalized]
            else:
                raise self.error(f"unknown type {' '.join(words)!r}", t)
        if self.accept("const"):
            self._const_seen = True
        return base

    def parse_pointer_suffix(self, base: CType) -> CType:
        first_level = True
        while self.accept("*"):
            # const before the base type qualifies the pointee
            const_pointee = first_level and getattr(self, "_const_seen", False)
            if self.cur.text == "const":
                self.advance()  # a const pointer itself; not tracked further
            if isinstance(base, PointerType):
                raise UnsupportedConstruct("pointer to pointer", self.cur.line)
            base = PointerType(base, const_pointee)
            first_level = False
        return base

    def _parse_struct_or_union(self) -> StructType:
        kw = self.advance().text
        is_union = kw == "union"
        tag_tok = self.cur
        tag = ""
        if tag_tok.kind == "ident":
            tag = self.advance().text
        key = (kw, tag)
        if self.cur.text != "{":
            if tag and key in self.env.tags:
                return self.env.tags[key]
            raise self.error(f"unknown {kw} {tag!r}", tag_tok)
        self.expect("{")
        raw_fields: list[StructField] = []
        while not self.accept("}"):
            base = self.parse_type_specifier()
            while True:
                ftype = self.parse_pointer_suffix(base)
                fname = self.expect_ident().text
                bit_width: int | None = None
                if self.accept(":"):
                    bit_width = self._const_int_expr()
                    if not isinstance(ftype, IntType) or not 0 < bit_width <= ftype.width:
                        raise UnsupportedConstruct("ill-sized bit field", self.cur.line)
                if self.cur.text == "[":
                    raise UnsupportedConstruct("array member in aggregate", self.cur.line)
                if isinstance(ftype, (StructType, ArrayType)):
                    raise UnsupportedConstruct("nested aggregate member", self.cur.line)
                raw_fields.append(StructField(fname, ftype, bit_width))
                if not self.accept(","):
                    break
            self.expect(";")
        if not tag:
            tag = f"__anon{len(self.env.tags)}"
        st = layout_struct(tag, raw_fields, is_union)
        self.env.tags[(kw, tag)] = st
        self.typedecls.append(TypeDecl(f"{kw} {tag}", st, tag_tok.line))
        return st

    def _parse_enum(self) -> CType:
        self.advance()
        tag = ""
        if self.cur.kind == "ident":
            tag = self.advance().text
        if self.cur.text != "{":
            return INT
        self.expect("{")
        value = 0
        consts: list[tuple[str, int]] = []
        while not self.accept("}"):
            name = self.expect_ident().text
            if self.accept("="):
                value = self._const_int_expr()
            self.env.enum_consts[name] = value
            consts.append((name, value))
            value += 1
            if not self.accept(","):
                self.expect("}")
                break
        self.typedecls.append(
            TypeDecl(f"enum {tag or '__anon'}", INT, self.cur.line, consts))
        return INT

    def _const_int_expr(self) -> int:
        file = self.cur.file
        return eval_const_int(self.parse_conditional(), self.env, file)

    # -- top level -----------------------------------------------------------

    def parse_unit(self) -> SourceUnit:
        functions: list[FunctionDef] = []
        globals_: list[VarDecl] = []
        while self.cur.kind != "eof":
            if self.accept("typedef"):
                base = self.parse_type_specifier()
                ctype = self.parse_pointer_suffix(base)
                name = self.expect_ident().text
                if self.cur.text == "[":
                    self.expect("[")
                    size = self._const_int_expr()
                    self.expect("]")
                    ctype = ArrayType(ctype, size)
                self.expect(";")
                self.env.typedefs[name] = ctype
                self.typedecls.append(TypeDecl(name, ctype, self.cur.line))
                continue
            if self.cur.text == "goto":
                raise UnsupportedConstruct("goto", self.cur.line)
            is_extern = False
            while self.cur.text in ("extern", "static"):
                is_extern = self.advance().text == "extern"
            if not self.at_type_start():
                raise self.error(f"got {self.cur.text!r}", self.cur, ("declaration",))
            base = self.parse_type_specifier()
            if self.accept(";"):
                continue  # bare struct/union/enum definition
            while True:
                ctype = self.parse_pointer_suffix(base)
                name_tok = self.expect_ident()
                if self.cur.text == "(":
                    functions.append(self._parse_function_rest(ctype, name_tok))
                    break
                globals_.append(self._parse_global_rest(ctype, name_tok, is_extern))
                if self.accept(","):
                    continue
                self.expect(";")
                break
        return SourceUnit(self.file_name, functions, globals_, self.typedecls)

    def _parse_global_rest(self, ctype: CType, name_tok: Token, is_extern: bool) -> VarDecl:
        if self.accept("["):
            size = self._const_int_expr()
            self.expect("]")
            if self.cur.text == "[":
                raise UnsupportedConstruct("multi-dimensional array", self.cur.line)
            ctype = ArrayType(ctype, size)
        init: Expr | None = None
        if self.accept("="):
            if self.cur.text == "{":
                raise UnsupportedConstruct("aggregate initializer", self.cur.line)
            init = self.parse_assignment()
        return VarDecl(name_tok.text, ctype, init, name_tok.line, is_extern)

    def _parse_function_rest(self, ret: CType, name_tok: Token) -> FunctionDef:
        self.expect("(")
        params: list[Param] = []
        if self.cur.text == "void" and self.peek().text == ")":
            self.advance()
        elif self.cur.text != ")":
            while True:
                if self.cur.text == "...":
                    raise UnsupportedConstruct("variadic function", self.cur.line)
                base = self.parse_type_specifier()
                ptype = self.parse_pointer_suffix(base)
                pname = ""
                pline = self.cur.line
                if self.cur.kind == "ident":
                    ptok = self.advance()
                    pname = ptok.text
                    pline = ptok.line
                if self.cur.text == "[":
                    self.expect("[")
                    if self.cur.text != "]":
                        self._const_int_expr()
                    self.expect("]")
                    ptype = PointerType(ptype)  # array parameter decays
                if self.cur.text == "(":
                    raise UnsupportedConstruct("function pointer parameter", self.cur.line)
                params.append(Param(pname, ptype, pline))
                if not self.accept(","):
                    break
        self.expect(")")
        if self.accept(";"):
            return FunctionDef(name_tok.text, ret, params, None, name_tok.line)
        for p in params:
            if not p.name:
                raise self.error("parameter name required in definition", name_tok)
        body = self.parse_block()
        fn = FunctionDef(name_tok.text, ret, params, body, name_tok.line)
        fn.annotation_only = bool(body.stmts) and all(
            isinstance(s, Annotation) for s in body.stmts
        )
        return fn

    # -- statements -----------------------------------------------------------

    def parse_block(self) -> Block:
        start = self.expect("{")
        stmts: list[Stmt] = []
        while not self.accept("}"):
            stmts.append(self.parse_statement())
        return Block(stmts, start.line)

    def parse_statement(self) -> Stmt:
        tok = self.cur
        if tok.kind == "annkw":
            return self._parse_annotation()
        if tok.text == "{":
            return self.parse_block()
        if tok.text == ";":
            self.advance()
            return EmptyStmt(tok.line)
        if tok.text == "if":
            return self._parse_if()
        if tok.text == "while":
            self.advance()
            self.expect("(")
            cond = self.parse_expression()
            self.expect(")")
            return While(cond, self._stmt_as_block(), tok.line)
        if tok.text == "do":
            self.advance()
            body = self._stmt_as_block()
            self.expect("while")
            self.expect("(")
            cond = self.parse_expression()
            self.expect(")")
            self.expect(";")
            return DoWhile(body, cond, tok.line)
        if tok.text == "for":
            return self._parse_for()
        if tok.text == "switch":
            return self._parse_switch()
        if tok.text == "break":
            self.advance()
            self.expect(";")
            return Break(tok.line)
        if tok.text == "continue":
            self.advance()
            self.expect(";")
            return Continue(tok.line)
        if tok.text == "return":
            self.advance()
            value = None if self.cur.text == ";" else self.parse_expression()
            self.expect(";")
            return Return(value, tok.line)
        if tok.text == "goto":
            raise UnsupportedConstruct("goto", tok.line)
        if tok.text in ("case", "default"):
            raise self.error("case label outside switch", tok)
        if self.at_type_start():
            return self._parse_local_decl()
        expr = self.parse_expression()
        self.expect(";")
        return ExprStmt(expr, tok.line)

    def _stmt_as_block(self) -> Block:
        stmt = self.parse_statement()
        if isinstance(stmt, Block):
            return stmt
        return Block([stmt], stmt.line)

    def _parse_if(self) -> If:
        tok = self.expect("if")
        self.expect("(")
        cond = self.parse_expression()
        self.expect(")")
        then = self._stmt_as_block()
        orelse = None
        if self.accept("else"):
            orelse = self._stmt_as_block()
        return If(cond, then, orelse, tok.line)

    def _parse_for(self) -> For:
        tok = self.expect("for")
        self.expect("(")
        init: Stmt | None = None
        if self.cur.text != ";":
            if self.at_type_start():
                init = self._parse_local_decl()
            else:
                expr = self.parse_expression()
                self.expect(";")
                init = ExprStmt(expr, tok.line)
        else:
            self.advance()
        cond = None if self.cur.text == ";" else self.parse_expression()
        self.expect(";")
        step = None if self.cur.text == ")" else self.parse_expression()
        self.expect(")")
        return For(init, cond, step, self._stmt_as_block(), tok.line)

    def _parse_switch(self) -> Switch:
        tok = self.expect("switch")
        self.expect("(")
        scrutinee = self.parse_expression()
        self.expect(")")
        self.expect("{")
        cases: list[SwitchCase] = []
        while not self.accept("}"):
            if self.cur.kind == "keyword" and self.cur.text in ("case", "default"):
                # case values are checked once converted (sema._convert_labels)
                value = self._const_int_expr() if self.advance().text == "case" else None
                if value is None and any(c.value is None for c in cases):
                    raise self.error("duplicate default label", self.cur)
                self.expect(":")
                cases.append(SwitchCase(value, [], self.cur.line))
            else:
                if not cases:
                    raise self.error("statement before first case label", self.cur)
                cases[-1].body.append(self.parse_statement())
        return Switch(scrutinee, cases, tok.line)

    def _parse_local_decl(self) -> Stmt:
        base = self.parse_type_specifier()
        decls: list[DeclStmt] = []
        while True:
            ctype = self.parse_pointer_suffix(base)
            name_tok = self.expect_ident()
            if self.accept("["):
                size = self._const_int_expr()
                self.expect("]")
                if self.cur.text == "[":
                    raise UnsupportedConstruct("multi-dimensional array", self.cur.line)
                ctype = ArrayType(ctype, size)
            init = None
            if self.accept("="):
                if self.cur.text == "{":
                    raise UnsupportedConstruct("aggregate initializer", self.cur.line)
                init = self.parse_assignment()
            decls.append(DeclStmt(name_tok.text, ctype, init, name_tok.line))
            if not self.accept(","):
                break
        self.expect(";")
        if len(decls) == 1:
            return decls[0]
        return Block(list(decls), decls[0].line)

    # -- annotations ----------------------------------------------------------

    def _parse_annotation(self) -> Annotation:
        tok = self.advance()
        kind_map = {
            "__rtt_precondition": AnnotationKind.PRE,
            "__rtt_postcondition": AnnotationKind.POST,
            "__rtt_testcase": AnnotationKind.TESTCASE,
            "__rtt_aux": AnnotationKind.AUX,
            "__rtt_assign": AnnotationKind.ASSIGN,
            "__rtt_assert": AnnotationKind.ASSERT,
            "__rtt_modifies": AnnotationKind.MODIFIES,
        }
        if tok.text not in kind_map:
            raise self.error(f"{tok.text} is only valid inside annotation expressions", tok)
        kind = kind_map[tok.text]
        self.expect("(")
        ann = Annotation(kind, line=tok.line)
        if kind is AnnotationKind.AUX:
            base = self.parse_type_specifier()
            ann.aux_type = self.parse_pointer_suffix(base)
            self.expect(",")
            ann.aux_name = self.expect_ident().text
        elif kind is AnnotationKind.MODIFIES:
            while True:
                name_tok = self.expect_ident()
                ann.names.append(Name(name_tok.text, name_tok.line))
                if not self.accept(","):
                    break
        elif kind is AnnotationKind.TESTCASE:
            ann.exprs.append(self.parse_assignment())
            self.expect(",")
            ann.exprs.append(self.parse_assignment())
            self.expect(",")
            while True:
                if self.cur.kind != "string":
                    raise self.error("requirement tag string expected", self.cur)
                raw = self.advance()
                ann.tags.extend(t.strip() for t in str(raw.value).split(",") if t.strip())
                if not self.accept(","):
                    break
        else:
            ann.exprs.append(self.parse_assignment())
        self.expect(")")
        self.expect(";")
        return ann

    # -- expressions ------------------------------------------------------------

    def parse_expression(self) -> Expr:
        expr = self.parse_assignment()
        if self.cur.text == ",":
            raise UnsupportedConstruct("comma expression", self.cur.line)
        return expr

    def parse_assignment(self) -> Expr:
        lhs = self.parse_conditional()
        if self.cur.kind == "punct" and self.cur.text in _ASSIGN_OPS:
            op = self.advance().text
            rhs = self.parse_assignment()
            return Assign(op, lhs, rhs, lhs.line)
        return lhs

    def parse_conditional(self) -> Expr:
        cond = self.parse_binary(0)
        if self.accept("?"):
            then = self.parse_assignment()
            self.expect(":")
            other = self.parse_conditional()
            return Cond(cond, then, other, cond.line)
        return cond

    _LEVELS = [
        ("||",), ("&&",), ("|",), ("^",), ("&",),
        ("==", "!="), ("<", "<=", ">", ">="), ("<<", ">>"),
        ("+", "-"), ("*", "/", "%"),
    ]

    def parse_binary(self, level: int) -> Expr:
        if level >= len(self._LEVELS):
            return self.parse_unary()
        ops = self._LEVELS[level]
        lhs = self.parse_binary(level + 1)
        while self.cur.kind == "punct" and self.cur.text in ops:
            op = self.advance().text
            rhs = self.parse_binary(level + 1)
            lhs = Bin(op, lhs, rhs, lhs.line)
        return lhs

    def parse_unary(self) -> Expr:
        tok = self.cur
        if tok.kind == "punct" and tok.text in ("-", "+", "~", "!", "&", "*"):
            self.advance()
            operand = self.parse_unary()
            if tok.text == "+":
                return operand
            return Un(tok.text, operand, tok.line)
        if tok.kind == "punct" and tok.text in ("++", "--"):
            self.advance()
            return Update(tok.text, self.parse_unary(), True, tok.line)
        if tok.text == "sizeof":
            self.advance()
            self.expect("(")
            if self.at_type_start():
                base = self.parse_type_specifier()
                target = self.parse_pointer_suffix(base)
                self.expect(")")
                return SizeofType(target, tok.line)
            inner = self.parse_expression()
            self.expect(")")
            return SizeofType(None, tok.line, operand=inner)
        if tok.text == "(" and self._is_cast_ahead():
            self.advance()
            base = self.parse_type_specifier()
            target = self.parse_pointer_suffix(base)
            self.expect(")")
            return CastExpr(target, self.parse_unary(), tok.line)
        return self.parse_postfix()

    def _is_cast_ahead(self) -> bool:
        nxt = self.peek()
        if nxt.kind == "keyword" and nxt.text in (
            "void", "char", "short", "int", "long", "float", "double",
            "signed", "unsigned", "struct", "union", "enum", "const",
        ):
            return True
        return nxt.kind == "ident" and nxt.text in self.env.typedefs

    def parse_postfix(self) -> Expr:
        expr = self.parse_primary()
        while True:
            tok = self.cur
            if self.accept("["):
                index = self.parse_expression()
                self.expect("]")
                expr = Index(expr, index, tok.line)
            elif self.accept("."):
                expr = Member(expr, self.expect_ident().text, False, tok.line)
            elif self.accept("->"):
                expr = Member(expr, self.expect_ident().text, True, tok.line)
            elif tok.text == "(" and isinstance(expr, Name):
                self.advance()
                args: list[Expr] = []
                if self.cur.text != ")":
                    while True:
                        args.append(self.parse_assignment())
                        if not self.accept(","):
                            break
                self.expect(")")
                if expr.name in _DYNAMIC_MEMORY:
                    raise UnsupportedConstruct("dynamic allocation", tok.line)
                expr = Call(expr.name, args, tok.line)
            elif tok.text == "(":
                raise UnsupportedConstruct("call through expression", tok.line)
            elif tok.kind == "punct" and tok.text in ("++", "--"):
                self.advance()
                expr = Update(tok.text, expr, False, tok.line)
            else:
                return expr

    def parse_primary(self) -> Expr:
        tok = self.cur
        if tok.kind == "int":
            self.advance()
            value, suffix = tok.value  # type: ignore[misc]
            return IntLit(value, tok.line, suffix)
        if tok.kind == "float":
            self.advance()
            value, single = tok.value  # type: ignore[misc]
            if single:
                value = round_float(value, FLOAT)
            if not math.isfinite(value):  # C11 6.4.4p2
                raise self.error(f"floating constant {tok.text} is out of range "
                                 f"for {'float' if single else 'double'}", tok)
            return FloatLit(value, tok.line, single)
        if tok.kind == "char":
            self.advance()
            return CharLit(int(tok.value), tok.line)  # type: ignore[arg-type]
        if tok.kind == "string":
            self.advance()
            return StrLit(str(tok.value), tok.line)
        if tok.kind == "annkw" and tok.text == "__rtt_return":
            self.advance()
            return ReturnRef(tok.line)
        if tok.kind == "annkw" and tok.text == "__rtt_initial":
            self.advance()
            self.expect("(")
            var = self.expect_ident()
            self.expect(")")
            return InitialRef(Name(var.text, var.line), tok.line)
        if tok.kind == "annkw":
            raise self.error(f"{tok.text} is not valid here", tok)
        if tok.kind == "ident":
            self.advance()
            return Name(tok.text, tok.line)
        if tok.text == "(":
            self.advance()
            expr = self.parse_expression()
            self.expect(")")
            return expr
        raise self.error(f"got {tok.text!r}", tok, ("expression",))


def eval_const_int(expr: Expr, env: TypeEnv, file: str = "") -> int:
    """Constant folding for array sizes, case labels and enum initializers;
    file names the header the expression came from in errors."""
    if isinstance(expr, IntLit):
        return expr.value
    if isinstance(expr, CharLit):
        return expr.value
    if isinstance(expr, Name):
        if expr.name in env.enum_consts:
            return env.enum_consts[expr.name]
        raise ParseError(f"{expr.name} is not a constant", expr.line, file=file)
    try:  # operator values come from typesys, computed in long
        if isinstance(expr, Un):
            v = eval_const_int(expr.operand, env, file)
            return int(not v) if expr.op == "!" else unary(expr.op, v, LONG)
        if isinstance(expr, Bin):
            a = eval_const_int(expr.lhs, env, file)
            b = eval_const_int(expr.rhs, env, file)
            if expr.op == "&&":
                return int(bool(a) and bool(b))
            if expr.op == "||":
                return int(bool(a) or bool(b))
            return binary(expr.op, a, b, LONG, LONG, LONG)
    except Undefined as exc:
        raise ParseError(f"constant expression: {exc}", expr.line, file=file) from exc
    if isinstance(expr, SizeofType) and expr.target is not None:
        return expr.target.size
    raise ParseError("constant expression required", getattr(expr, "line", 0), file=file)


def parse_unit(text: str, file_name: str = "<input>",
               include_dir: str | None = None) -> SourceUnit:
    """Front-end entry point: text in, fully typed SourceUnit out."""
    from .sema import analyze

    try:
        tokens = preprocess_and_lex(text, file_name, include_dir)
        parser = _Parser(tokens, file_name)
        unit = parser.parse_unit()
        analyze(unit, parser.env)
    except RecursionError:
        # parser and sema recurse once per nesting level
        raise CunitgenError(
            "statements or expressions nested too deeply to parse") from None
    return unit
