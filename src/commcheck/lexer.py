"""Tokenizer shared by the protocol and program parsers.

`tokenize` scans the text in one pass of one regular expression. A
token keeps its start offset and the text's line-start offsets, which
are found once per call; its `pos` is computed on read, by bisection
over the line starts. So the lexer builds no `Pos`, and the parsers
pay for one only where they store or report a position.
"""

from __future__ import annotations

import re
from bisect import bisect_right

from .exprs import Pos


class ParseError(Exception):
    """Positioned syntax error, optionally carrying the expected tokens."""

    def __init__(self, pos: Pos, message: str, expected: tuple[str, ...] = ()):
        detail = message
        if expected:
            detail += " (expected " + " or ".join(expected) + ")"
        super().__init__(f"{pos}: {detail}")
        self.pos = pos
        self.expected = expected
        self.bare_message = message


class Token:
    """One lexeme: `kind` is "ident", "int", "punct" or "eof"."""

    __slots__ = ("kind", "text", "offset", "line_starts")

    def __init__(self, kind: str, text: str, offset: int, line_starts: list[int]):
        self.kind = kind
        self.text = text
        self.offset = offset
        self.line_starts = line_starts  # shared by every token of one text

    @property
    def pos(self) -> Pos:
        return _pos(self.line_starts, self.offset)

    def __repr__(self) -> str:
        return f"Token({self.kind!r}, {self.text!r}, {self.pos})"


def _pos(line_starts: list[int], offset: int) -> Pos:
    line = bisect_right(line_starts, offset)
    return Pos(line, offset - line_starts[line - 1] + 1)


# Multi-character operators must come before their single-char prefixes;
# `bad` catches any character the other groups cannot start with. Under
# re.ASCII only ASCII digits make an integer and only ASCII whitespace
# separates tokens, so a Unicode digit or space is a foreign character.
_TOKEN = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<comment>//[^\n]*)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<int>\d+)"
    r"|(?P<punct>==|!=|<=|>=|&&|\|\||[(){}\[\],.:|<>!=+\-*/%])"
    r"|(?P<bad>.)",
    re.S | re.A,
)


def tokenize(text: str) -> list[Token]:
    """Split `text` into tokens, ending with a single eof token.

    Raises ParseError on any character outside the language's alphabet.
    """
    line_starts = [0]
    i = text.find("\n")
    while i >= 0:
        line_starts.append(i + 1)
        i = text.find("\n", i + 1)
    toks: list[Token] = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind in ("ws", "comment"):
            continue
        if kind == "bad":
            raise ParseError(_pos(line_starts, m.start()), f"unexpected character {m.group()!r}")
        toks.append(Token(kind, m.group(), m.start(), line_starts))
    toks.append(Token("eof", "", len(text), line_starts))
    return toks
