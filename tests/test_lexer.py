"""The tokenizer against a naive reference scanner.

The reference reads one character at a time with `str` methods and
finds a position by counting newlines before the offset, so it shares
neither the tokenizer's regular expression nor its line-start table.
"""

from __future__ import annotations

import random
import string

import pytest

import commcheck.lexer
from commcheck.exprs import Pos
from commcheck.lexer import ParseError, tokenize

_PUNCT2 = ("==", "!=", "<=", ">=", "&&", "||")
_PUNCT1 = frozenset("(){}[],.:|<>!=+-*/%")
_IDENT_START = frozenset(string.ascii_letters + "_")
_IDENT = _IDENT_START | frozenset(string.digits)
_DIGIT = frozenset(string.digits)
_SPACE = frozenset(" \t\n\r\f\v")


def reference_pos(text: str, offset: int) -> tuple[int, int]:
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def reference_scan(text: str):
    """`(kind, text, offset)` of each token, ending with eof, and the
    offset of the first foreign character, or None."""
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch, j = text[i], i + 1
        if ch in _SPACE:
            while j < n and text[j] in _SPACE:
                j += 1
        elif text.startswith("//", i):
            j = text.find("\n", i)
            j = n if j < 0 else j
        elif ch in _IDENT_START:
            while j < n and text[j] in _IDENT:
                j += 1
            toks.append(("ident", text[i:j], i))
        elif ch in _DIGIT:
            while j < n and text[j] in _DIGIT:
                j += 1
            toks.append(("int", text[i:j], i))
        elif text[i:i + 2] in _PUNCT2:
            j = i + 2
            toks.append(("punct", text[i:j], i))
        elif ch in _PUNCT1:
            toks.append(("punct", ch, i))
        else:
            return toks, i
        i = j
    toks.append(("eof", "", n))
    return toks, None


def assert_matches_reference(text: str) -> None:
    want, bad = reference_scan(text)
    if bad is not None:
        with pytest.raises(ParseError) as err:
            tokenize(text)
        got = (err.value.bare_message, err.value.pos.line, err.value.pos.col)
        assert got == (f"unexpected character {text[bad]!r}", *reference_pos(text, bad)), text
        return
    got = [(t.kind, t.text, t.pos.line, t.pos.col) for t in tokenize(text)]
    assert got == [(kind, lexeme, *reference_pos(text, at)) for kind, lexeme, at in want], text
    assert got[-1][2:] == reference_pos(text, len(text))


_ALPHABET = (
    string.ascii_letters + string.digits + "_(){}[],.:|<>!=+-*/%&" + "  \t\n\n\n" + "//"
)
# Rare characters: whitespace other than space, tab and newline, a
# Unicode digit, and characters outside the alphabet.
_RARE = "\r\xe9\u0663@#\x0b\xa0"


@pytest.mark.parametrize(
    "text",
    [
        "",
        "   \n\t\n",
        "nprocs 2.\nend  \n\n  ",
        "a\r\nb\r\n",
        "a\tb",
        "x é",
        "send(1,MPI_INT,٣).end",
        "a @ b",
        "end // trailing comment, no newline",
        "end\n//",
        "//",
        "a//b\n c",
        "&& || == != <= >= & | = < > !",
        "\n\n@",
        "a",
        "\n",
        "a\n\nb\n",
        "x\r\ny\n",
    ],
)
def test_tokenizer_matches_the_reference_on_edge_cases(text):
    assert_matches_reference(text)


@pytest.mark.parametrize(
    "text",
    [
        "// c \xe9\n@",
        "x // a b\n@",
        "1 //\n//x / y\n&",
        "end // 2 // 3 \u0663\n \t#",
        "a /\n/ b\n//",
        " " * 100_000 + "@",
        "a" + " \t\n" * 30_000 + "&",
        "// c\n" * 10_000 + "\xe9",
    ],
    ids=range(8),
)
def test_tokenizer_finds_a_foreign_character_after_skipped_text(text):
    # No token is read inside a comment, and long runs of skipped text
    # before the foreign character are scanned once.
    assert_matches_reference(text)


def test_tokenizer_matches_the_reference_on_random_strings():
    rng = random.Random(7)
    for _ in range(3000):
        size = rng.randrange(0, 60)
        text = "".join(
            rng.choice(_RARE) if rng.random() < 0.01 else rng.choice(_ALPHABET)
            for _ in range(size)
        )
        assert_matches_reference(text)


def test_tokenize_builds_no_position_until_one_is_read(monkeypatch):
    built = []

    def counting_pos(line, col):
        built.append((line, col))
        return Pos(line, col)

    monkeypatch.setattr(commcheck.lexer, "Pos", counting_pos)
    text = "nprocs 2.\n" + "".join(
        f"message({k % 2},{1 - k % 2},MPI_INT,{k}). // step {k}\n" for k in range(10_000)
    ) + "end\n"
    toks = tokenize(text)
    assert built == []
    want, _ = reference_scan(text)
    picks = (0, 1, 17, len(toks) // 2, len(toks) - 2, len(toks) - 1)
    got = [(toks[k].text, toks[k].pos.line, toks[k].pos.col) for k in picks]
    assert got == [(want[k][1], *reference_pos(text, want[k][2])) for k in picks]
    assert len(built) == 2 * len(picks)


def test_tokenize_result_reads_as_a_sequence_of_tokens():
    text = "nprocs 2. // two ranks\nmessage(0,1,MPI_INT,4).\nend\n"
    toks = tokenize(text)
    want, _ = reference_scan(text)
    assert len(toks) == len(want) == 16
    assert toks[-1].kind == "eof" and toks[-1].text == ""
    assert (toks[-1].pos.line, toks[-1].pos.col) == (4, 1)
    # Slices are lists of tokens, so two of them concatenate.
    joined = toks[:3] + toks[4:]
    assert isinstance(joined, list) and len(joined) == len(toks) - 1
    assert [t.text for t in joined] == [w[1] for w in want[:3] + want[4:]]
    assert [t.text for t in toks[::-4]] == [w[1] for w in want[::-4]]
    # Iteration yields what indexing does.
    by_index = [(toks[k].kind, toks[k].text, toks[k].offset) for k in range(len(toks))]
    assert [(t.kind, t.text, t.offset) for t in toks] == by_index == want
    assert [(t.kind, t.text, t.offset) for t in toks[-2:]] == want[-2:]
    with pytest.raises(IndexError):
        toks[len(toks)]
    with pytest.raises(TypeError):
        toks[0] = toks[1]
