"""Every stage at scale: spines far longer than the interpreter's
recursion limit, and the deepest loop nesting the parser accepts.

A stage that recurses along the spine raises RecursionError here, and
one that rehashes deep terms blows the time budget, which is generous.
"""

from __future__ import annotations

import random
import time

import pytest

from commcheck.cli import EXIT_OK, main
from commcheck.exprs import Lit
from commcheck.lexer import ParseError
from commcheck.parser import parse_protocol
from commcheck.printer import format_term
from commcheck.sim import AllDone, simulate
from commcheck.terms import (
    DataKind,
    End,
    Prefix,
    Receive,
    Send,
    atoms_of,
    concat,
    ground_term,
    is_ground,
    spine,
)

BUDGET_S = 120


def chain_files(tmp_path, length: int):
    """A straight line of `length` messages among three ranks, with a
    program that complies with it: one block of statements per rank."""
    rng = random.Random(length)
    messages = []
    for _ in range(length):
        src, dst = rng.sample(range(3), 2)
        messages.append((src, dst, rng.choice(["MPI_INT", "MPI_FLOAT"]), rng.randint(0, 8)))
    protocol = ["nprocs 3."]
    protocol += [f"message({s},{d},{t},{n})." for s, d, t, n in messages]
    protocol.append("end")
    buffers = {"MPI_INT": "bi", "MPI_FLOAT": "bf"}
    program = ["buffer bi int[8]", "buffer bf float[8]", "init"]
    for rank in range(3):
        program.append(f"rankif (me == {rank}) {{")
        for s, d, t, n in messages:
            if s == rank:
                program.append(f"  send peer={d} buf={buffers[t]} len={n}")
            elif d == rank:
                program.append(f"  recv peer={s} buf={buffers[t]} len={n}")
        program.append("}")
    program.append("finalize")
    cty, mmp = tmp_path / "chain.cty", tmp_path / "chain.mmp"
    cty.write_text("\n".join(protocol) + "\n")
    mmp.write_text("\n".join(program) + "\n")
    return cty, mmp


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_every_subcommand_on_a_ten_thousand_message_chain(tmp_path, capsys):
    start = time.perf_counter()
    cty, mmp = chain_files(tmp_path, 10_000)
    views = tmp_path / "views"
    for argv in (["validate", cty], ["project", cty, "--out", views], ["verify", mmp, cty]):
        code, _, err = run(capsys, *argv)
        assert (argv[0], code, err) == (argv[0], EXIT_OK, "")
    clts = [views / f"rank{r}.clt" for r in range(3)]
    for files in ([cty], clts):
        code, out, err = run(capsys, "simulate", *files)
        assert (code, out, err) == (EXIT_OK, "verdict: all-done (10001 states explored)\n", "")
    assert time.perf_counter() - start < BUDGET_S


def test_library_walks_on_hundred_thousand_message_views():
    start = time.perf_counter()
    n = 100_000
    send = Send(Lit(1), DataKind.INT, Lit(2))
    receive = Receive(Lit(0), DataKind.INT, Lit(2))
    sender, receiver = End(), End()
    for _ in range(n):
        sender, receiver = Prefix(send, sender), Prefix(receive, receiver)

    ground = (is_ground(sender), hash(ground_term(sender, {})) == hash(sender))
    assert ground == (True, True)
    joined = spine(concat(sender, receiver))
    seam = (joined[n - 1].atom, joined[n].atom)
    assert (len(joined), seam) == (2 * n, (send, receive))
    count = sum(1 for _ in atoms_of(receiver))
    assert count == n
    text = format_term(sender)
    assert (text.count("\n"), text.endswith("\nend")) == (n, True)
    verdict = simulate([sender, receiver], [])
    assert verdict == AllDone(n + 1)
    assert time.perf_counter() - start < BUDGET_S


def test_equal_hundred_thousand_message_views_built_apart_compare_equal():
    n = 100_000
    atoms = [Send(Lit(1), DataKind.INT, Lit(k)) for k in range(5)]
    views = []
    for _ in range(2):
        view = End()
        for i in range(n):
            view = Prefix(atoms[i % 5], view)
        views.append(view)
    first, second = views
    different = Prefix(Receive(Lit(1), DataKind.INT, Lit(0)), second.cont)
    assert (first is second, first == second, first != second) == (False, True, False)
    assert (first == different, first == second.cont) == (False, False)


def test_repr_of_a_hundred_thousand_message_view():
    n = 100_000
    view = End()
    for _ in range(n):
        view = Prefix(Send(Lit(1), DataKind.INT, Lit(2)), view)
    text = repr(view)
    assert text.count("Prefix(atom=Atom(kind='send', ") == n
    assert text.endswith("cont=End()" + ")" * n)


def test_simulate_a_choice_between_two_equal_long_branches(tmp_path, capsys):
    # The two branches are equal, distinct terms, and the search numbers
    # each residue by comparing them.
    branch = "".join(f"message(0,1,MPI_INT,{i % 5})." for i in range(3000)) + "end"
    cty = tmp_path / "choice.cty"
    cty.write_text(f"nprocs 2.\nchoice({branch},{branch}).end\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "simulate", cty)
    assert (code, out, err) == (EXIT_OK, "verdict: all-done (3002 states explored)\n", "")
    assert time.perf_counter() - start < BUDGET_S


def nested_loops(depth: int) -> str:
    return "nprocs 2.\n" + "loop(" * depth + "message(0,1,MPI_INT,1).end" + ").end" * depth


def test_simulate_the_deepest_nesting_the_parser_accepts(tmp_path, capsys):
    with pytest.raises(ParseError, match="nesting too deep"):
        parse_protocol(nested_loops(199))
    cty = tmp_path / "nested.cty"
    cty.write_text(nested_loops(198) + "\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "simulate", cty, "--max-loop-iters", "1")
    assert (code, out, err) == (EXIT_OK, "verdict: all-done (398 states explored)\n", "")
    assert time.perf_counter() - start < BUDGET_S


def test_simulate_four_hundred_ranks_in_disjoint_pairs(tmp_path, capsys):
    # Two sequential loops, each with one message within every pair. The
    # CLI's search takes one p2p step per state, so the states grow
    # linearly in the ranks: the pair messages of a body, entered at most
    # twice per loop, with the decisions between.
    ranks = 400
    body = "".join(f"message({r},{r + 1},MPI_INT,1)." for r in range(0, ranks, 2))
    cty = tmp_path / "pairs.cty"
    cty.write_text(f"nprocs {ranks}.\n" + f"loop({body}end).\n" * 2 + "end\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "simulate", cty)
    assert (code, out, err) == (EXIT_OK, "verdict: all-done (807 states explored)\n", "")
    assert time.perf_counter() - start < BUDGET_S
