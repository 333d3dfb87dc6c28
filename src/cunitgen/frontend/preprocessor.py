"""Minimal preprocessor: object-like #define and project-local #include.

Anything else that starts with '#' is reported as an unsupported construct.
The compatibility header rtt_annotations.h is recognized by name and
skipped, because the contract annotations are first-class syntax here; the
shipped header only matters when an ordinary C compiler builds the same
sources.
"""

from __future__ import annotations

import os

from ..errors import CunitgenError, ParseError, UnsupportedConstruct
from .lexer import Token, lex

COMPAT_HEADER = "rtt_annotations.h"


class MacroTable:
    def __init__(self):
        self.macros: dict[str, list[Token]] = {}
        self.including: list[str] = []  # the headers being read, outermost first


def read_source(path: str) -> str:
    """The text of a C file or of an answer file; one that is not UTF-8 is
    a CunitgenError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise CunitgenError(f"not UTF-8: byte 0x{exc.object[exc.start]:02x} at offset "
                            f"{exc.start} of {path}") from None


def strip_comments(text: str) -> str:
    """Blank out comments, preserving newlines so line numbers survive."""
    out: list[str] = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == '"' or c == "'":
            quote = c
            out.append(c)
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\" and i + 1 < n:
                    out.append(text[i:i + 2])
                    i += 2
                    continue
                out.append(text[i])
                i += 1
            if i < n:
                out.append(quote)
                i += 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text.startswith("/*", i):
            j = text.find("*/", i + 2)
            if j < 0:
                raise ParseError("unterminated comment", text.count("\n", 0, i) + 1)
            out.append("\n" * text.count("\n", i, j + 2))
            i = j + 2
            continue
        out.append(c)
        i += 1
    return "".join(out)


def preprocess(text: str, file_name: str = "<input>", include_dir: str | None = None,
               table: MacroTable | None = None) -> list[Token]:
    """Expand directives and macros; return the token stream without EOF."""
    if table is None:
        table = MacroTable()
    if include_dir is None:
        include_dir = os.path.dirname(os.path.abspath(file_name)) if os.path.sep in file_name else "."
    text = strip_comments(text)
    header = file_name if table.including else ""  # the file its tokens name
    tokens: list[Token] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        stripped = raw.strip()
        if stripped.startswith("#"):
            _directive(stripped, lineno, include_dir, table, tokens)
            continue
        if stripped:
            toks = lex(raw, first_line=lineno)[:-1]
            if header:
                toks = [Token(t.kind, t.text, t.value, t.line, t.col, header) for t in toks]
            tokens.extend(toks)
    return _expand(tokens, table)


def preprocess_and_lex(text: str, file_name: str = "<input>",
                       include_dir: str | None = None) -> list[Token]:
    tokens = preprocess(text, file_name, include_dir)
    line, file = (tokens[-1].line, tokens[-1].file) if tokens else (1, "")
    return tokens + [Token("eof", "", None, line, 1, file)]


def _directive(line: str, lineno: int, include_dir: str, table: MacroTable,
               out: list[Token]) -> None:
    body = line[1:].strip()
    if body.startswith("define"):
        rest = body[len("define"):].strip()
        toks = lex(rest, first_line=lineno)[:-1]
        if not toks or toks[0].kind not in ("ident", "keyword"):
            raise ParseError("malformed #define", lineno)
        name = toks[0].text
        if len(toks) > 1 and toks[1].text == "(" and toks[1].col == toks[0].col + len(name):
            raise UnsupportedConstruct("function-like macro", lineno)
        table.macros[name] = toks[1:]
        return
    if body.startswith("include"):
        rest = body[len("include"):].strip()
        if rest.startswith("<"):
            raise UnsupportedConstruct(f"system include {rest}", lineno)
        if not (rest.startswith('"') and rest.endswith('"')):
            raise ParseError("malformed #include", lineno)
        name = rest[1:-1]
        if os.path.basename(name) == COMPAT_HEADER:
            return
        path = os.path.join(include_dir, name)
        if not os.path.exists(path):
            raise ParseError(f"include file not found: {name}", lineno)
        real = os.path.realpath(path)
        if real in table.including:
            cycle = table.including[table.including.index(real):] + [real]
            raise ParseError("#include cycle: "
                             + " -> ".join(os.path.basename(p) for p in cycle), lineno)
        text = read_source(path)
        table.including.append(real)
        try:
            out.extend(preprocess(text, path, os.path.dirname(path), table))
        except (ParseError, UnsupportedConstruct) as exc:
            # the line is the header's; the innermost header names it, and
            # the plain error passes the includers' handlers unchanged
            raise CunitgenError(f"{path}: {exc}") from None
        table.including.pop()
        return
    word = body.split()[0] if body else ""
    raise UnsupportedConstruct(f"preprocessor directive #{word}", lineno)


def _expand(tokens: list[Token], table: MacroTable) -> list[Token]:
    out: list[Token] = []
    for tok in tokens:
        _expand_one(tok, table, out, frozenset())
    return out


def _expand_one(tok: Token, table: MacroTable, out: list[Token], active: frozenset[str]) -> None:
    if tok.kind == "ident" and tok.text in table.macros and tok.text not in active:
        inner = active | {tok.text}
        for rep in table.macros[tok.text]:
            relined = Token(rep.kind, rep.text, rep.value, tok.line, tok.col, tok.file)
            _expand_one(relined, table, out, inner)
        return
    out.append(tok)
