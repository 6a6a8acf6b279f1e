"""Tokenizer shared by the protocol and program parsers.

`tokenize` scans the text with one `findall` of one regular expression
into (skipped text, token) pairs; the last token is the empty text at
the end, the eof token. Summing the pieces' lengths gives every token's
start offset; a sum that falls short of the text's length ends at the
first character outside the alphabet.

The result is a read-only sequence over flat lists: the token texts,
their offsets and the text's line starts, found once per call. The
parsers read the lists and treat a token as its index. A `Token` is
built only when the sequence is indexed or iterated, and a `Pos` only
when a position is read, by bisection over the line starts. A token's
kind follows from its text, as identifiers, integers, punctuation and
the eof text "" never coincide.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections.abc import Sequence
from itertools import accumulate, chain

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


class Tokens(Sequence):
    """The tokens of one text, as parallel lists of texts and offsets; a
    token's kind follows from its text."""

    __slots__ = ("texts", "offsets", "line_starts")

    def __init__(self, texts: list[str], offsets: list[int], line_starts: list[int]):
        self.texts = texts
        self.offsets = offsets
        self.line_starts = line_starts

    def __len__(self) -> int:
        return len(self.texts)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(*i.indices(len(self.texts)))]
        text = self.texts[i]
        kind = "ident" if text.isidentifier() else "int" if text.isdigit() else "punct"
        return Token(kind if text else "eof", text, self.offsets[i], self.line_starts)

    def pos(self, i: int) -> Pos:
        """The position of token `i`."""
        return _pos(self.line_starts, self.offsets[i])


# A match is the skipped whitespace and comments, then a token, where
# multi-character operators come before their single-character prefixes
# and the empty text at the end is the eof token. Where no token follows
# the skip, the ungrouped `.+` takes the rest of the text: its length is
# missing from the pairs, whose sum then ends at the foreign character.
# Under re.ASCII only ASCII digits make an integer and only ASCII
# whitespace separates tokens, so a Unicode digit or space is a foreign
# character.
_TOKEN = re.compile(
    r"(\s*(?://[^\n]*\s*)*)"
    r"(?:([A-Za-z_]\w*|\d+|==|!=|<=|>=|&&|\|\||[(){}\[\],.:|<>!=+\-*/%]|\Z)|.+)",
    re.A | re.S,
)


def tokenize(text: str) -> Tokens:
    """Split `text` into tokens, ending with a single eof token.

    Raises ParseError on any character outside the language's alphabet.
    """
    # Line starts are the running sums of the lines' lengths, newline included.
    line_lengths = map((1).__add__, map(len, text.split("\n")[:-1]))
    line_starts = list(accumulate(line_lengths, initial=0))
    pairs = _TOKEN.findall(text)
    if len(pairs) > 1 and not pairs[-2][1]:
        del pairs[-1]  # the empty match after a match that ends the text
    ends = list(accumulate(map(len, chain.from_iterable(pairs))))
    at = ends[-1]
    if at != len(text):
        raise ParseError(_pos(line_starts, at), f"unexpected character {text[at]!r}")
    return Tokens([tok for _, tok in pairs], ends[::2], line_starts)
