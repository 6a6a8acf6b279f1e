"""The front end's trees and syntax errors, pinned on seeded mutants.

Each source below is parsed as written, and then as forty seeded
single-token mutants: one token dropped, duplicated, swapped with the
next one, or replaced by a token from `_POOL`. The allreduce of the
chain-style sources, the one production with a reduce op, is also
mutated at every token in each of five ways. Every outcome is one
line of `front_end_golden.txt`: the `syntax error:` text the CLI would
print, or `ok` and a digest of the tree with every stored position.
Tokens are found here with a regular expression of the test's own, so
the mutants do not depend on the tokenizer under test.

To rewrite the golden list after a deliberate change of the front end:

    PYTHONPATH=src python tests/test_front_end_golden.py > tests/front_end_golden.txt

A change that only renames tree classes or fields moves every digest
but none of the outcomes. Before rewriting the list for one, check that
the regenerated lines partition the inputs as the old list does: the
same lines, every `syntax error:` line byte-identical, and the `ok`
digests mapped one-to-one. The check exits non-zero otherwise:

    PYTHONPATH=src python tests/test_front_end_golden.py --same-partition OLD
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import random
import re
import sys
from pathlib import Path

from commcheck.lexer import ParseError
from commcheck.parser import parse_local_term, parse_protocol
from commcheck.program import parse_program

_HERE = Path(__file__).parent

_GOLDEN = _HERE / "front_end_golden.txt"
_BUNDLED = _HERE.parent / "src" / "commcheck" / "bundled"
_MUTANTS_PER_SOURCE = 40

_TOKEN = re.compile(r"//[^\n]*|[A-Za-z_]\w*|\d+|==|!=|<=|>=|&&|\|\||\S")

# Replacement tokens: punctuation the hot productions expect, keys in
# and out of place, labels valid on one side only, a keyword, an
# integer out of range, and a character outside the alphabet.
_POOL = (
    "=", ",", "(", ")", ".", "{", "}", "-", "+", "7", "x", "me",
    "peer", "root", "buf", "len", "op", "end", "loop", "message", "send",
    "MPI_INT", "MPI_BYTE", "MPI_SUM", "MAX", "AVG",
    "99999999999999999999", "@",
)


def _chain_sources() -> tuple[str, str]:
    """A chain-style protocol of eight messages among three ranks, with
    a bcast and an allreduce, and the program that performs it."""
    rng = random.Random(20131210)
    messages = []
    for _ in range(8):
        src, dst = rng.sample(range(3), 2)
        messages.append((src, dst, rng.choice(("MPI_INT", "MPI_FLOAT")), rng.randint(0, 8)))
    text = ["nprocs 3."]
    text += [f"message({s},{d},{t},{n})." for s, d, t, n in messages]
    text += ["bcast(0,MPI_INT,2).", "allreduce(MPI_INT,1,MPI_SUM).", "end"]
    buf = {"MPI_INT": "bi", "MPI_FLOAT": "bf"}
    prog = ["buffer bi int[64]", "buffer bf float[64]", "init"]
    for rank in range(3):
        prog.append(f"rankif (me == {rank}) {{")
        for s, d, t, n in messages:
            if rank == s:
                prog.append(f"  send peer={d} buf={buf[t]} len={n}")
            elif rank == d:
                prog.append(f"  recv peer={s} buf={buf[t]} len={n}")
        prog.append("}")
    prog += ["bcast root=0 buf=bi len=2", "allreduce buf=bi len=1 op=SUM", "finalize"]
    return "\n".join(text) + "\n", "\n".join(prog) + "\n"


def _pairs_program() -> str:
    """A pairs-style program: four ranks in two disjoint pairs, inside
    two sequential collective loops."""
    prog = ["buffer bi int[64]", "buffer bf float[64]", "init"]
    for loop in range(2):
        prog.append("collloop {")
        for src, dst in ((0, 1), (3, 2)) if loop == 0 else ((1, 0), (2, 3)):
            prog += [
                f"  rankif (me == {src}) {{",
                f"    send peer={dst} buf=bi len={loop + 1}",
                "  }",
                f"  rankif (me == {dst}) {{",
                f"    recv peer={src} buf=bi len={loop + 1}",
                "  }",
            ]
        prog.append("}")
    prog.append("finalize")
    return "\n".join(prog) + "\n"


def _sources() -> list[tuple[str, str, object]]:
    chain_cty, chain_mmp = _chain_sources()
    return [
        ("fdiff.cty", (_BUNDLED / "fdiff.cty").read_text(), parse_protocol),
        ("fdiff.mmp", (_BUNDLED / "fdiff.mmp").read_text(), parse_program),
        ("fdiff_rank0.clt", (_BUNDLED / "fdiff_rank0.clt").read_text(), parse_local_term),
        ("chain.cty", chain_cty, parse_protocol),
        ("chain.mmp", chain_mmp, parse_program),
        ("pairs.mmp", _pairs_program(), parse_program),
    ]


def _shape(node, out: list[str]) -> None:
    """The tree as a flat list of class names, stored positions and
    leaf values."""
    if isinstance(node, tuple) and not dataclasses.is_dataclass(node):
        out.append(f"({len(node)}")
        for item in node:
            _shape(item, out)
        return
    if dataclasses.is_dataclass(node) and not isinstance(node, type):
        out.append(type(node).__name__)
        pos = getattr(node, "pos", None)
        if pos is not None:
            out.append(f"@{pos}")
        for f in dataclasses.fields(node):
            if f.name != "pos":
                _shape(getattr(node, f.name), out)
        return
    out.append(repr(node))


def _outcome(parse, text: str) -> str:
    try:
        tree = parse(text)
    except ParseError as err:
        return f"syntax error: {err}"
    out: list[str] = []
    _shape(tree, out)
    return "ok " + hashlib.sha256("\n".join(out).encode()).hexdigest()[:16]


def _mutant(text: str, spans: list[tuple[int, int]], op: str, k: int, new: str = "") -> str:
    s, e = spans[k]
    tok = text[s:e]
    if op == "drop":
        return text[:s] + text[e:]
    if op == "dup":
        return text[:e] + " " + tok + text[e:]
    if op == "swap":
        s2, e2 = spans[k + 1]
        return text[:s] + text[s2:e2] + text[e:s2] + tok + text[e2:]
    return text[:s] + new + text[e:]


def _mutants(name: str, text: str):
    """(description, mutated text) of the seeded mutants of `text`, then
    of every mutant of its allreduce, if it has one."""
    spans = [m.span() for m in _TOKEN.finditer(text) if not m.group().startswith("//")]
    rng = random.Random(name)
    for _ in range(_MUTANTS_PER_SOURCE):
        op = rng.choice(("drop", "dup", "swap", "replace"))
        k = rng.randrange(len(spans) - (op == "swap"))
        new = rng.choice(_POOL) if op == "replace" else ""
        yield f"{op} {k} {new}".rstrip(), _mutant(text, spans, op, k, new)
    if not name.startswith("chain"):
        return
    first = next(k for k, (s, e) in enumerate(spans) if text[s:e] == "allreduce")
    last = next(k for k in range(first, len(spans)) if text[slice(*spans[k])] in ("SUM", "MPI_SUM"))
    for k in range(first, last + 1):
        for op, new in (("drop", ""), ("dup", ""), ("swap", ""), ("replace", "x"), ("replace", "AVG")):
            yield f"{op} {k} {new}".rstrip(), _mutant(text, spans, op, k, new)


def golden_lines() -> list[str]:
    lines = []
    for name, text, parse in _sources():
        lines.append(f"{name} as written -> {_outcome(parse, text)}")
        for what, mutant in _mutants(name, text):
            lines.append(f"{name} {what} -> {_outcome(parse, mutant)}")
    return lines


def same_partition(old: list[str], new: list[str]) -> list[str]:
    """Why `new` is not `old` with its `ok` digests renamed one-to-one:
    one line per problem, none when it is."""
    if len(new) != len(old):
        return [f"{len(new)} lines, not {len(old)}"]
    problems = []
    forward: dict[str, str] = {}
    backward: dict[str, str] = {}
    for n, (was, now) in enumerate(zip(old, new), 1):
        was_input, _, was_outcome = was.partition(" -> ")
        now_input, _, now_outcome = now.partition(" -> ")
        if was_input != now_input or not (was_outcome[:3] == now_outcome[:3] == "ok "):
            if now != was:
                problems.append(f"line {n}: {now!r}, not {was!r}")
        elif forward.setdefault(was_outcome, now_outcome) != now_outcome or (
            backward.setdefault(now_outcome, was_outcome) != was_outcome
        ):
            problems.append(f"line {n}: {was_outcome} and {now_outcome} map to more than one digest")
    return problems


def test_same_partition_accepts_a_renaming_only():
    old = ["a -> ok 1", "b -> ok 1", "c -> ok 2", "d -> syntax error: 1:1: x"]
    assert same_partition(old, old) == []
    assert same_partition(old, ["a -> ok 9", "b -> ok 9", "c -> ok 8", old[3]]) == []
    for new in (
        old[:3],  # a line lost
        ["a -> ok 9", "b -> ok 8", "c -> ok 8", old[3]],  # a digest split
        ["a -> ok 9", "b -> ok 9", "c -> ok 9", old[3]],  # two digests merged
        ["a -> ok 9", "b -> ok 9", "c -> ok 8", "d -> syntax error: 1:2: x"],
        ["a -> ok 9", "b -> ok 9", "c -> ok 8", "d -> ok 7"],  # an error became a tree
        ["a -> ok 9", "b -> ok 9", "e -> ok 8", old[3]],  # another input
    ):
        assert same_partition(old, new), new


def test_front_end_outcomes_match_the_golden_list():
    want = _GOLDEN.read_text().splitlines()
    got = golden_lines()
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w


def test_sources_as_written_parse():
    written = [line for line in _GOLDEN.read_text().splitlines() if " as written -> " in line]
    assert len(written) == 6 and all(" as written -> ok " in line for line in written)


def test_mutants_reach_every_early_exit_of_the_hot_productions():
    text = _GOLDEN.read_text()
    for detail in (
        "(expected '=')",  # a key without its '='
        "(expected 'peer')",  # a communication statement's keys out of order
        "(expected 'root')",
        "(expected 'buf')",
        "(expected 'len')",
        "(expected 'op')",
        "(expected an identifier)",  # a buffer that is not an identifier
        "(expected ',')",
        "(expected ')')",
        "(expected '(')",
        "(expected 'MPI_INT' or 'MPI_FLOAT')",  # a bad dtype label
        "(expected 'MPI_MAX' or 'MPI_MIN' or 'MPI_SUM')",  # a bad op label
        "reduce op must be MAX, MIN, or SUM",
        "(expected an integer literal or a variable or '(')",
        "(expected '.')",
        "(expected 'end' or 'loop' or 'choice' or",  # a bad atom name
        "(expected '}')",
        "(expected a statement)",
        "unknown statement",
        "out of range",
        "unexpected character '@'",
    ):
        assert detail in text, detail


def main() -> int:
    ap = argparse.ArgumentParser(description="Print the front end's golden lines.")
    ap.add_argument(
        "--same-partition",
        metavar="OLD",
        type=Path,
        help="check the lines against the golden list OLD instead of printing them",
    )
    args = ap.parse_args()
    lines = golden_lines()
    if args.same_partition is None:
        print("\n".join(lines))
        return 0
    problems = same_partition(args.same_partition.read_text().splitlines(), lines)
    for problem in problems:
        print(problem, file=sys.stderr)
    ok = [line for line in lines if " -> ok " in line]
    digests = {line.rpartition(" ")[2] for line in ok}
    verdict = "differs from" if problems else "has the same partition as"
    print(
        f"{len(lines)} lines, {len(ok)} ok with {len(digests)} distinct digests:"
        f" {verdict} {args.same_partition}"
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
