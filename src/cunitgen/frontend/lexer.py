"""Hand-rolled lexer for the C subset.

Produces a flat token list; the preprocessor (see preprocessor.py) runs
first on raw text and feeds expanded text per line into here.
"""

from __future__ import annotations

from ..errors import ParseError
from ..frozen import Frozen

KEYWORDS = {
    "void", "char", "short", "int", "long", "float", "double", "signed",
    "unsigned", "struct", "union", "enum", "typedef", "if", "else", "while",
    "for", "do", "switch", "case", "default", "break", "continue", "return",
    "sizeof", "const", "volatile", "static", "extern", "goto",
}

ANNOTATION_KEYWORDS = {
    "__rtt_precondition", "__rtt_postcondition", "__rtt_testcase",
    "__rtt_aux", "__rtt_assign", "__rtt_assert", "__rtt_modifies",
    "__rtt_return", "__rtt_initial",
}

PUNCT = [
    "<<=", ">>=", "...",
    "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "+", "-", "*", "/", "%", "<", ">", "=", "!", "&", "|", "^", "~",
    "(", ")", "[", "]", "{", "}", ";", ",", ".", "?", ":",
]

_SIMPLE_ESCAPES = {
    "n": 10, "t": 9, "r": 13, "0": 0, "\\": 92, "'": 39, '"': 34,
    "a": 7, "b": 8, "f": 12, "v": 11,
}


class Token(Frozen):
    def __init__(self, kind: str, text: str, value: object = None, line: int = 0,
                 col: int = 0, file: str = ""):
        self.__dict__.update(
            kind=kind,  # ident, keyword, annkw, int, float, char, string, punct, eof
            text=text,
            value=value,
            line=line,
            col=col,
            file=file)  # the header the token came from; "" for the main file

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r}, line={self.line})"


def lex(text: str, first_line: int = 1) -> list[Token]:
    tokens: list[Token] = []
    i = 0
    line = first_line
    col = 1
    n = len(text)

    def error(msg: str) -> ParseError:
        return ParseError(msg, line, col)

    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r\f\v":
            i += 1
            col += 1
            continue
        if text.startswith("//", i):
            j = text.find("\n", i)
            i = n if j < 0 else j
            continue
        if text.startswith("/*", i):
            j = text.find("*/", i + 2)
            if j < 0:
                raise error("unterminated comment")
            line += text.count("\n", i, j)
            i = j + 2
            col = 1
            continue
        start_col = col
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            if word in ANNOTATION_KEYWORDS:
                kind = "annkw"
            elif word in KEYWORDS:
                kind = "keyword"
            else:
                kind = "ident"
            tokens.append(Token(kind, word, None, line, start_col))
            col += j - i
            i = j
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            tok, j = _lex_number(text, i, line, start_col)
            tokens.append(tok)
            col += j - i
            i = j
            continue
        if c == "'":
            val, j = _lex_char(text, i, line, start_col)
            tokens.append(Token("char", text[i:j], val, line, start_col))
            col += j - i
            i = j
            continue
        if c == '"':
            val, j = _lex_string(text, i, line, start_col)
            tokens.append(Token("string", text[i:j], val, line, start_col))
            col += j - i
            i = j
            continue
        for p in PUNCT:
            if text.startswith(p, i):
                tokens.append(Token("punct", p, None, line, start_col))
                i += len(p)
                col += len(p)
                break
        else:
            raise error(f"unexpected character {c!r}")
    tokens.append(Token("eof", "", None, line, col))
    return tokens


def _lex_number(text: str, i: int, line: int, col: int) -> tuple[Token, int]:
    n = len(text)
    j = i
    is_float = False
    if text.startswith(("0x", "0X"), i):
        j = i + 2
        while j < n and text[j] in "0123456789abcdefABCDEF":
            j += 1
        body = text[i:j]
        value = int(body, 16)
    else:
        while j < n and text[j].isdigit():
            j += 1
        if j < n and text[j] == ".":
            is_float = True
            j += 1
            while j < n and text[j].isdigit():
                j += 1
        if j < n and text[j] in "eE":
            k = j + 1
            if k < n and text[k] in "+-":
                k += 1
            if k < n and text[k].isdigit():
                is_float = True
                j = k
                while j < n and text[j].isdigit():
                    j += 1
        body = text[i:j]
        if is_float:
            value = float(body)
        elif body.startswith("0") and len(body) > 1:
            value = int(body, 8)
        else:
            value = int(body)
    suffix = ""
    while j < n and text[j] in "uUlLfF":
        suffix += text[j].upper()
        j += 1
    if "F" in suffix and not is_float:
        raise ParseError(f"bad numeric suffix on {body}", line, col)
    if is_float:
        return Token("float", text[i:j], (float(value), "F" in suffix), line, col), j
    return Token("int", text[i:j], (int(value), suffix), line, col), j


def _read_escape(text: str, j: int, line: int, col: int) -> tuple[int, int]:
    c = text[j]
    if c != "\\":
        return ord(c), j + 1
    e = text[j + 1]
    if e in _SIMPLE_ESCAPES:
        return _SIMPLE_ESCAPES[e], j + 2
    if e == "x":
        k = j + 2
        while k < len(text) and text[k] in "0123456789abcdefABCDEF":
            k += 1
        return int(text[j + 2:k], 16) & 0xFF, k
    raise ParseError(f"unsupported escape \\{e}", line, col)


def _lex_char(text: str, i: int, line: int, col: int) -> tuple[int, int]:
    j = i + 1
    if j >= len(text):
        raise ParseError("unterminated character constant", line, col)
    val, j = _read_escape(text, j, line, col)
    if j >= len(text) or text[j] != "'":
        raise ParseError("unterminated character constant", line, col)
    return val, j + 1


def _lex_string(text: str, i: int, line: int, col: int) -> tuple[str, int]:
    j = i + 1
    out: list[str] = []
    while j < len(text):
        if text[j] == '"':
            return "".join(out), j + 1
        if text[j] == "\n":
            break
        val, j = _read_escape(text, j, line, col)
        out.append(chr(val))
    raise ParseError("unterminated string literal", line, col)
