"""Projection of global protocols onto per-rank local views.

The oracle here is deliberately a second, flat implementation: both the
global term and each projected local term are lowered to token streams
(atom signatures plus loop/choice brackets) and compared, so a bug in the
tree-shaped projection cannot hide behind an identically tree-shaped check.
"""

from __future__ import annotations

import random

import pytest

from commcheck.exprs import ExprError, Lit, eval_expr
from commcheck.parser import parse_local_term, parse_protocol
from commcheck.printer import format_term
from commcheck.projection import project, project_all
from commcheck.terms import (
    Choice,
    DataKind,
    End,
    Loop,
    Prefix,
    Receive,
    ReduceOp,
    Send,
    ground_term,
    is_ground,
)

from conftest import bundled_text
from proto_gen import random_protocol

BRACKETS = {"loop", "pool", "choice", "orelse", "eciohc"}


def global_tokens(t, rank, env):
    """Expected local token stream for `rank`, computed without projection."""
    out = []
    while not isinstance(t, End):
        if isinstance(t, Prefix):
            a = t.atom
            if a.kind == "message":
                src, dst = (eval_expr(x, env) for x in a.who)
                n = eval_expr(a.length, env)
                if rank == src:
                    out.append(("send", dst, a.dtype, n))
                elif rank == dst:
                    out.append(("receive", src, a.dtype, n))
            elif a.kind in ("scatter", "gather", "bcast"):
                (root,) = a.who
                out.append((a.kind, eval_expr(root, env), a.dtype, eval_expr(a.length, env)))
            else:
                assert a.kind == "allreduce" and a.who == ()
                out.append(("allreduce", a.dtype, eval_expr(a.length, env), a.op))
            t = t.cont
        elif isinstance(t, Loop):
            out.append(("loop",))
            out.extend(global_tokens(t.body, rank, env))
            out.append(("pool",))
            t = t.cont
        else:
            out.append(("choice",))
            out.extend(global_tokens(t.true_branch, rank, env))
            out.append(("orelse",))
            out.extend(global_tokens(t.false_branch, rank, env))
            out.append(("eciohc",))
            t = t.cont
    return out


def local_tokens(t):
    """Token stream of an already-projected (ground) local term."""
    out = []
    while not isinstance(t, End):
        if isinstance(t, Prefix):
            a = t.atom
            if a.kind == "allreduce":
                out.append(("allreduce", a.dtype, a.length.value, a.op))
            else:
                (who,) = a.who
                out.append((a.kind, who.value, a.dtype, a.length.value))
            t = t.cont
        elif isinstance(t, Loop):
            out.append(("loop",))
            out.extend(local_tokens(t.body))
            out.append(("pool",))
            t = t.cont
        else:
            out.append(("choice",))
            out.extend(local_tokens(t.true_branch))
            out.append(("orelse",))
            out.extend(local_tokens(t.false_branch))
            out.append(("eciohc",))
            t = t.cont
    return out


def test_ring_projection_matches_goldens(fdiff_protocol_text):
    proto = parse_protocol(fdiff_protocol_text)
    views = project_all(proto, {"size": 9})
    assert len(views) == 3
    for rank in range(3):
        golden = parse_local_term(bundled_text(f"fdiff_rank{rank}.clt"))
        # goldens keep size/3 symbolic; ground them the same way
        assert views[rank] == ground_term(golden, {"size": 9})


def test_projection_results_are_ground(fdiff_protocol_text):
    proto = parse_protocol(fdiff_protocol_text)
    for view in project_all(proto, {"size": 300}):
        assert is_ground(view)


def test_elision_of_unrelated_messages():
    proto = parse_protocol("nprocs 3.\nmessage(0,1,MPI_INT,4).end")
    assert project(proto, {}, 2) == End()
    assert project(proto, {}, 0) == Prefix(Send(Lit(1), DataKind.INT, Lit(4)), End())
    assert project(proto, {}, 1) == Prefix(Receive(Lit(0), DataKind.INT, Lit(4)), End())


def test_long_chain_projects_and_prints():
    # Far deeper than the interpreter stack: projection walks the
    # continuation spine iteratively, as the parser and printer do.
    rng = random.Random(10_000)
    lines = ["nprocs 3."]
    expected = {rank: [] for rank in range(3)}
    for _ in range(10_000):
        src, dst = rng.sample(range(3), 2)
        length = rng.randint(0, 9)
        lines.append(f"message({src},{dst},MPI_INT,{length}).")
        expected[src].append(f"send({dst},MPI_INT,{length}).")
        expected[dst].append(f"receive({src},MPI_INT,{length}).")
    lines.append("end")
    views = project_all(parse_protocol("\n".join(lines)), {})
    for rank in range(3):
        assert format_term(views[rank]).splitlines() == expected[rank] + ["end"]


def chain_text(n, seed):
    rng = random.Random(seed)
    lines = ["nprocs 3."]
    for _ in range(n):
        src, dst = rng.sample(range(3), 2)
        lines.append(f"message({src},{dst},MPI_INT,{rng.randint(0, 9)}).")
    return "\n".join(lines + ["end"])


def test_project_all_evaluates_each_message_once(monkeypatch):
    # One walk for every rank: a message's source, destination and
    # length are evaluated once, not once per rank.
    import commcheck.projection

    calls = []

    def counting(e, env):
        calls.append(e)
        return eval_expr(e, env)

    proto = parse_protocol(chain_text(1_000, 3))
    monkeypatch.setattr(commcheck.projection, "eval_expr", counting)
    project_all(proto, {})
    assert len(calls) == 3_000


def test_views_share_the_protocols_literals():
    # A literal peer, root or length is the protocol's own `Lit`, not a
    # new one with the same value, under one walk and per rank alike.
    proto = parse_protocol("nprocs 2.\nmessage(0,1,MPI_INT,5).bcast(1,MPI_INT,3).end")
    msg, bcast = proto.body.atom, proto.body.cont.atom
    views = project_all(proto, {})
    for view0, view1 in ((views[0], views[1]), (project(proto, {}, 0), project(proto, {}, 1))):
        send, receive = view0.atom, view1.atom
        assert send.who[0] is msg.who[1]
        assert send.length is msg.length
        assert receive.who[0] is msg.who[0]
        assert receive.length is msg.length
        for view in (view0, view1):
            assert view.cont.atom.who[0] is bcast.who[0]
            assert view.cont.atom.length is bcast.length


@pytest.mark.parametrize(
    "body, views",
    [
        # A message to its own source is a send only.
        ("message(1,1,MPI_INT,2).end", ["end", "send(1,MPI_INT,2).\nend", "end"]),
        # Endpoints outside [0, nprocs) get no atom, and no other rank
        # takes theirs.
        (
            "message(-1,2,MPI_INT,2).message(0,5,MPI_INT,1).end",
            ["send(5,MPI_INT,1).\nend", "end", "receive(-1,MPI_INT,2).\nend"],
        ),
        # A negative length is kept as it is.
        (
            "message(0,1,MPI_INT,0-1).end",
            ["send(1,MPI_INT,-1).\nend", "receive(0,MPI_INT,-1).\nend", "end"],
        ),
    ],
)
def test_projection_of_protocols_that_are_not_well_formed(body, views):
    proto = parse_protocol("nprocs 3.\n" + body)
    assert [format_term(v) for v in project_all(proto, {})] == views
    assert [format_term(project(proto, {}, rank)) for rank in range(3)] == views


def test_a_length_is_evaluated_only_where_a_kept_rank_takes_part():
    # Not well-formed: the length divides by zero. The ranks of the
    # message need it, so they raise; rank 2 never evaluates it and gets
    # its view. A walk that evaluated every length would raise for it too.
    proto = parse_protocol("nprocs 3.\nmessage(0,1,MPI_INT,1/0).end")
    assert project(proto, {}, 2) == End()
    for rank in (0, 1):
        with pytest.raises(ExprError, match="^division by zero in "):
            project(proto, {}, rank)
    with pytest.raises(ExprError, match="^division by zero in "):
        project_all(proto, {})


def test_collectives_survive_at_every_rank():
    proto = parse_protocol("nprocs 4.\nbcast(2,MPI_FLOAT,8).allreduce(MPI_INT,1,MPI_SUM).end")
    for view in project_all(proto, {}):
        assert local_tokens(view) == [
            ("bcast", 2, DataKind.FLOAT, 8),
            ("allreduce", DataKind.INT, 1, ReduceOp.SUM),
        ]


def test_loop_and_choice_structure_preserved_even_when_empty_for_a_rank():
    proto = parse_protocol(
        "nprocs 3.\nloop(message(0,1,MPI_INT,1).end).choice(message(1,0,MPI_INT,1).end,end).end"
    )
    # rank 2 exchanges nothing, yet must still track the decisions
    assert project(proto, {}, 2) == Loop(End(), Choice(End(), End(), End()))


def test_parameter_expressions_are_evaluated():
    proto = parse_protocol("Pi n: nat.\nnprocs 2.\nmessage(n-2,n-1,MPI_INT,n*3).end")
    view = project(proto, {"n": 2}, 0)
    assert view == Prefix(Send(Lit(1), DataKind.INT, Lit(6)), End())


def test_rank_bounds_checked():
    proto = parse_protocol("nprocs 2.\nend")
    with pytest.raises(ValueError):
        project(proto, {}, 2)
    with pytest.raises(ValueError):
        project(proto, {}, -1)


def test_projection_result_indexing(fdiff_protocol_text):
    proto = parse_protocol(fdiff_protocol_text)
    views = project_all(proto, {"size": 9})
    assert views[0] == list(views.by_rank)[0]
    assert [local_tokens(v) for v in views.by_rank] == [
        local_tokens(views[r]) for r in range(3)
    ]


def test_token_oracle_on_ring(fdiff_protocol_text):
    proto = parse_protocol(fdiff_protocol_text)
    env = {"size": 9}
    for rank in range(proto.num_procs):
        assert local_tokens(project(proto, env, rank)) == global_tokens(proto.body, rank, env)


def test_token_oracle_on_random_protocols():
    rng = random.Random(424242)
    for _ in range(250):
        proto, env = random_protocol(rng)
        views = project_all(proto, env)
        for rank in range(proto.num_procs):
            assert local_tokens(views[rank]) == global_tokens(proto.body, rank, env), (
                proto,
                env,
                rank,
            )
            assert project(proto, env, rank) == views[rank]


def test_message_conservation_on_random_protocols():
    # every send from src to dst pairs with one receive at dst from src,
    # in order, with identical dtype and count
    rng = random.Random(77)
    for _ in range(120):
        proto, env = random_protocol(rng)
        views = project_all(proto, env)
        streams = [local_tokens(views[r]) for r in range(proto.num_procs)]
        for src in range(proto.num_procs):
            for dst in range(proto.num_procs):
                sends = [t for t in streams[src] if t[0] == "send" and t[1] == dst]
                recvs = [t for t in streams[dst] if t[0] == "receive" and t[1] == src]
                assert len(sends) == len(recvs)
                for s, r in zip(sends, recvs):
                    assert s[2:] == r[2:]


def test_skeletons_agree_across_ranks_on_random_protocols():
    rng = random.Random(31337)
    for _ in range(120):
        proto, env = random_protocol(rng)
        views = project_all(proto, env)
        skels = [
            [t for t in local_tokens(views[r]) if t[0] in BRACKETS]
            for r in range(proto.num_procs)
        ]
        assert all(s == skels[0] for s in skels)
