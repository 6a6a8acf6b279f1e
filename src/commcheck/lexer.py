"""Tokenizer shared by the protocol and program parsers.

`tokenize` scans the text with one `re.split` of one regular expression,
whose single group captures a token or a `//` comment. The parts
alternate skipped text and tokens; one running sum of their lengths
gives every token's start offset, and the last part ends at the eof
token, the empty text at the end. Comments are then dropped. Skipped
text may hold ASCII whitespace only: its first other character is the
first character outside the alphabet.

The result is a read-only sequence over flat sequences: the token texts,
their offsets and the text's line starts, found once per call. The
offsets are one `array('q')` of machine integers, taken from every
other running sum as it is made, so no list of boxed ints is built. The
parsers read them by index and treat a token as its index. A `Token` is
built only when the sequence is indexed or iterated, and a `Pos` only
when a position is read, by bisection over the line starts (`pos_at`).
A token's kind follows from its text, as identifiers, integers,
punctuation and the eof text "" never coincide.
"""

from __future__ import annotations

import re
from array import array
from bisect import bisect_right
from collections.abc import Sequence
from itertools import accumulate, compress, islice

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
        return pos_at(self.line_starts, self.offset)

    def __repr__(self) -> str:
        return f"Token({self.kind!r}, {self.text!r}, {self.pos})"


def pos_at(line_starts: list[int], offset: int) -> Pos:
    """The position of `offset` in a text whose lines start at `line_starts`."""
    line = bisect_right(line_starts, offset)
    return Pos(line, offset - line_starts[line - 1] + 1)


class Tokens(Sequence):
    """The tokens of one text, as a list of texts and a parallel array of
    offsets; a token's kind follows from its text."""

    __slots__ = ("texts", "offsets", "line_starts")

    def __init__(self, texts: list[str], offsets: array, line_starts: list[int]):
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


# The one group captures a token or a comment; the text between two
# matches is skipped. Multi-character operators come before their
# single-character prefixes, and a comment before '/'. Under re.ASCII
# only ASCII letters and digits make a token, so a Unicode digit or
# space falls in the skipped text, where it is a foreign character.
_TOKEN = re.compile(
    r"([A-Za-z_]\w*|\d+|//[^\n]*|==|!=|<=|>=|&&|\|\||[(){}\[\],.:|<>!=+\-*/%])", re.A
)
_SPACE = " \t\n\r\f\v"


def tokenize(text: str) -> Tokens:
    """Split `text` into tokens, ending with a single eof token.

    Raises ParseError on any character outside the language's alphabet.
    """
    # Line starts are the running sums of the lines' lengths, newline included.
    line_lengths = map((1).__add__, map(len, text.split("\n")[:-1]))
    line_starts = list(accumulate(line_lengths, initial=0))
    # Parts alternate skipped text and tokens, [gap, token, ..., gap]; the
    # running sums of their lengths end gap k at the offset of token k,
    # and the last gap at the end of the text, the eof token's offset.
    parts = _TOKEN.split(text)
    offsets = array("q", islice(accumulate(map(len, parts)), 0, None, 2))
    gaps = parts[::2]
    if "".join(gaps).strip(_SPACE):
        k = next(k for k, gap in enumerate(gaps) if gap.strip(_SPACE))
        at = offsets[k] - len(gaps[k].lstrip(_SPACE))
        raise ParseError(pos_at(line_starts, at), f"unexpected character {text[at]!r}")
    texts = parts[1::2]
    texts.append("")
    if "//" in text:  # drop the comments
        keep = [t[:2] != "//" for t in texts]
        texts = list(compress(texts, keep))
        offsets = array("q", compress(offsets, keep))
    return Tokens(texts, offsets, line_starts)
