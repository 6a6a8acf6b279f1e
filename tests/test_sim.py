"""Ensemble simulation: interleavings, verdicts, witnesses."""

from __future__ import annotations

import random

import pytest

from commcheck import sim
from commcheck.parser import parse_local_term, parse_protocol
from commcheck.projection import project_all
from commcheck.sim import (
    AllDone,
    Deadlock,
    DecisionStep,
    P2PStep,
    StateSpaceExceeded,
    TapeExhausted,
    explore_all_tapes,
    format_trail,
    loop_tape,
    parse_trail,
    replay,
    simulate,
    trace_to_term,
)
from commcheck.terms import Comm, DataKind, End, ReduceOp, concat

from proto_gen import random_protocol


def lt(text):
    return parse_local_term(text)


def ensemble(*texts):
    return [lt(t) for t in texts]


# -- basic verdicts ------------------------------------------------------------


def test_empty_protocol_is_done():
    verdict = simulate(ensemble("end", "end"), [])
    assert isinstance(verdict, AllDone)
    assert verdict.states_explored >= 1


def test_matched_pair_completes():
    verdict = simulate(ensemble("send(1,MPI_INT,4).end", "receive(0,MPI_INT,4).end"), [])
    assert isinstance(verdict, AllDone)


def test_mutual_send_deadlocks():
    verdict = simulate(ensemble("send(1,MPI_INT,1).end", "send(0,MPI_INT,1).end"), [])
    assert isinstance(verdict, Deadlock)
    assert verdict.trail == ()  # stuck immediately
    assert all(b.startswith("blocked sending") for b in verdict.blocked)


def test_mutual_receive_deadlocks():
    verdict = simulate(ensemble("receive(1,MPI_INT,1).end", "receive(0,MPI_INT,1).end"), [])
    assert isinstance(verdict, Deadlock)
    assert all(b.startswith("blocked receiving") for b in verdict.blocked)


def test_dtype_mismatch_blocks():
    verdict = simulate(ensemble("send(1,MPI_INT,1).end", "receive(0,MPI_FLOAT,1).end"), [])
    assert isinstance(verdict, Deadlock)


def test_count_mismatch_blocks():
    verdict = simulate(ensemble("send(1,MPI_INT,2).end", "receive(0,MPI_INT,1).end"), [])
    assert isinstance(verdict, Deadlock)


def test_peer_mismatch_blocks():
    verdict = simulate(
        ensemble("send(1,MPI_INT,1).end", "receive(2,MPI_INT,1).end", "end"), []
    )
    assert isinstance(verdict, Deadlock)
    assert verdict.blocked[2] == "done"


def test_self_send_never_fires():
    verdict = simulate(ensemble("send(0,MPI_INT,1).end", "end"), [])
    assert isinstance(verdict, Deadlock)


def test_send_to_out_of_range_rank_never_fires():
    # Rank 1 waits for exactly what rank 0 sends, but rank 0 names a
    # peer outside the two ranks: -1 would index the last rank if only
    # the upper bound were checked, 2 is one past it.
    for peer in (-1, 2, 7):
        views = ensemble(f"send({peer},MPI_INT,1).end", "receive(0,MPI_INT,1).end")
        blocked = (
            f"blocked sending to rank {peer} (MPI_INT, len 1)",
            "blocked receiving from rank 0 (MPI_INT, len 1)",
        )
        for verdict in (simulate(views, []), explore_all_tapes(views, 2)):
            assert isinstance(verdict, Deadlock)
            assert verdict.blocked == blocked
            assert verdict.trail == ()


def test_one_sided_completion_is_a_deadlock_not_done():
    verdict = simulate(ensemble("end", "send(0,MPI_INT,1).end"), [])
    assert isinstance(verdict, Deadlock)
    assert verdict.blocked[0] == "done"
    assert verdict.blocked[1].startswith("blocked sending")


def test_collective_fires_when_all_heads_equal():
    texts = ["scatter(0,MPI_FLOAT,3).end"] * 3
    verdict = simulate(ensemble(*texts), [])
    assert isinstance(verdict, AllDone)


def test_collective_with_differing_root_blocks():
    verdict = simulate(
        ensemble("scatter(0,MPI_FLOAT,3).end", "scatter(1,MPI_FLOAT,3).end"), []
    )
    assert isinstance(verdict, Deadlock)
    assert all(b.startswith("blocked in scatter") for b in verdict.blocked)


def test_collective_with_differing_op_blocks():
    verdict = simulate(
        ensemble("allreduce(MPI_INT,1,MPI_MAX).end", "allreduce(MPI_INT,1,MPI_MIN).end"), []
    )
    assert isinstance(verdict, Deadlock)


def test_collective_vs_p2p_blocks():
    verdict = simulate(
        ensemble("allreduce(MPI_INT,1,MPI_SUM).end", "send(0,MPI_INT,1).end"), []
    )
    assert isinstance(verdict, Deadlock)


def test_empty_ensemble_rejected():
    with pytest.raises(ValueError):
        simulate([], [])
    with pytest.raises(ValueError):
        explore_all_tapes([], 2)


def test_non_ground_types_rejected():
    with pytest.raises(ValueError):
        simulate(ensemble("send(1,MPI_INT,n).end", "receive(0,MPI_INT,n).end"), [])


def test_a_non_ground_atom_is_read_only_when_the_search_reaches_it():
    # behind a deadlock the search stops at, it is never read
    behind = ensemble("send(1,MPI_INT,1).send(1,MPI_INT,n).end", "send(0,MPI_INT,1).end")
    verdict = explore_all_tapes(behind, 2)
    assert isinstance(verdict, Deadlock)
    assert verdict.blocked == (
        "blocked sending to rank 1 (MPI_INT, len 1)",
        "blocked sending to rank 0 (MPI_INT, len 1)",
    )
    # reached after a step and a loop entry, it raises as it always has
    reached = ensemble(
        "send(1,MPI_INT,1).loop(send(1,MPI_INT,n).end).end",
        "receive(0,MPI_INT,1).loop(receive(0,MPI_INT,n).end).end",
    )
    message = "local atom is not ground; project or ground_term it first"
    with pytest.raises(ValueError, match=message):
        explore_all_tapes(reached, 2)
    with pytest.raises(ValueError, match=message):
        simulate(reached, loop_tape(1))
    assert isinstance(simulate(reached, loop_tape(0)), AllDone)


# -- decisions and tapes ---------------------------------------------------------


def test_loop_runs_tape_many_times():
    texts = [
        "loop(send(1,MPI_INT,1).end).end",
        "loop(receive(0,MPI_INT,1).end).end",
    ]
    for k in (0, 1, 2, 5):
        verdict = simulate(ensemble(*texts), loop_tape(k))
        assert isinstance(verdict, AllDone), k


def test_choice_takes_the_tape_branch():
    texts = [
        "choice(send(1,MPI_INT,1).end,end).end",
        "choice(receive(0,MPI_INT,1).end,end).end",
    ]
    assert isinstance(simulate(ensemble(*texts), [True]), AllDone)
    assert isinstance(simulate(ensemble(*texts), [False]), AllDone)


def test_deadlock_inside_chosen_branch_only():
    texts = [
        "choice(send(1,MPI_INT,1).end,end).end",
        "choice(send(0,MPI_INT,1).end,end).end",
    ]
    assert isinstance(simulate(ensemble(*texts), [True]), Deadlock)
    assert isinstance(simulate(ensemble(*texts), [False]), AllDone)


def test_tape_exhaustion_raises():
    texts = ["loop(end).end", "loop(end).end"]
    with pytest.raises(TapeExhausted):
        simulate(ensemble(*texts), [])
    with pytest.raises(TapeExhausted):
        simulate(ensemble(*texts), [True])  # needs the closing False too


def test_unused_tape_entries_are_fine():
    verdict = simulate(ensemble("end", "end"), [True, False, True])
    assert isinstance(verdict, AllDone)


def test_decision_needs_every_rank_at_the_node():
    # rank 0 sits at a loop while rank 1 still wants to receive: the
    # decision cannot fire, and nothing else can either
    texts = ["loop(end).end", "receive(0,MPI_INT,1).loop(end).end"]
    verdict = simulate(ensemble(*texts), [False])
    assert isinstance(verdict, Deadlock)
    assert verdict.blocked[0] == "awaiting a collective loop decision"
    assert verdict.blocked[1].startswith("blocked receiving")


def test_mixed_decision_kinds_do_not_fire():
    texts = ["loop(end).end", "choice(end,end).end"]
    verdict = simulate(ensemble(*texts), [False])
    assert isinstance(verdict, Deadlock)


def test_empty_loop_body_is_fine():
    verdict = simulate(ensemble("loop(end).end", "loop(end).end"), loop_tape(3))
    assert isinstance(verdict, AllDone)


def test_consumed_counts_stay_in_lockstep():
    # a tape long enough for the two nested decisions in either order
    texts = [
        "loop(send(1,MPI_INT,1).end).choice(end,end).end",
        "loop(receive(0,MPI_INT,1).end).choice(end,end).end",
    ]
    verdict = simulate(ensemble(*texts), loop_tape(2, True))
    assert isinstance(verdict, AllDone)


# -- bounded all-tape exploration -------------------------------------------------


def test_explore_all_tapes_on_ring(fdiff_protocol_text):
    proto = parse_protocol(fdiff_protocol_text)
    views = list(project_all(proto, {"size": 9}))
    verdict = explore_all_tapes(views, 2)
    assert isinstance(verdict, AllDone)
    assert verdict.states_explored == 21


def test_explore_all_tapes_finds_branch_deadlock():
    texts = [
        "choice(send(1,MPI_INT,1).end,end).end",
        "choice(send(0,MPI_INT,1).end,end).end",
    ]
    # the bound caps loop entries only, so 0 still searches both branches
    for bound in (0, 2):
        verdict = explore_all_tapes(ensemble(*texts), bound)
        assert isinstance(verdict, Deadlock)
        assert verdict.trail == (DecisionStep("choice", True),)


def test_explore_all_tapes_bounds_loop_unfolding():
    # an infinite protocol explores finitely thanks to the entry cap
    texts = ["loop(allreduce(MPI_INT,1,MPI_SUM).end).end"] * 2
    verdict = explore_all_tapes(ensemble(*texts), 3)
    assert isinstance(verdict, AllDone)


def test_each_head_and_each_unfolding_is_built_once_per_search(monkeypatch):
    # 16 ranks in 8 disjoint pairs, one message per pair in one loop
    proto = parse_protocol(
        "nprocs 16. loop("
        + "".join(f"message({r},{r + 1},MPI_INT,1)." for r in range(0, 16, 2))
        + "end).end"
    )
    views = list(project_all(proto, {}))
    calls = {"comm_of": 0, "concat": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(sim, name, counted(name, getattr(sim, name)))
    assert explore_all_tapes(views, 2) == AllDone(514)
    # one prefix and one loop residue per rank
    assert calls["comm_of"] <= 16 and calls["concat"] <= 16, calls


def test_each_send_step_is_built_once_per_sender_and_residue(monkeypatch):
    # 8 disjoint pairs in one loop: 514 states, one send residue per sender
    proto = parse_protocol(
        "nprocs 16. loop("
        + "".join(f"message({r},{r + 1},MPI_INT,1)." for r in range(0, 16, 2))
        + "end).end"
    )
    views = list(project_all(proto, {}))
    built = []

    def counting_step(*args):
        built.append(args)
        return P2PStep(*args)

    monkeypatch.setattr(sim, "P2PStep", counting_step)
    assert explore_all_tapes(views, 2) == AllDone(514)
    assert sorted(built) == [(r, r + 1, DataKind.INT, 1) for r in range(0, 16, 2)]


def test_explore_all_tapes_rejects_a_negative_loop_bound():
    with pytest.raises(ValueError):
        explore_all_tapes(ensemble("loop(end).end", "loop(end).end"), -1)


def test_state_limit_yields_exceeded_not_a_lie():
    texts = [
        "send(1,MPI_INT,1).receive(1,MPI_INT,1).end",
        "receive(0,MPI_INT,1).send(0,MPI_INT,1).end",
    ]
    verdict = simulate(ensemble(*texts), [], state_limit=2)
    assert isinstance(verdict, StateSpaceExceeded)
    assert verdict.limit == 2
    assert verdict.states_explored == 2


def test_a_state_limit_equal_to_the_state_count_suffices(fdiff_protocol_text):
    views = list(project_all(parse_protocol(fdiff_protocol_text), {"size": 9}))
    assert explore_all_tapes(views, 2, state_limit=20) == StateSpaceExceeded(20, 20)
    assert explore_all_tapes(views, 2, state_limit=21) == AllDone(21)


@pytest.mark.parametrize("limit", [0, -1])
def test_a_state_limit_below_one_is_rejected(limit):
    views = ensemble("send(1,MPI_INT,1).end", "receive(0,MPI_INT,1).end")
    with pytest.raises(ValueError):
        simulate(views, [], state_limit=limit)
    with pytest.raises(ValueError):
        explore_all_tapes(views, 2, state_limit=limit)


def test_verdicts_are_three_distinct_types():
    assert not issubclass(StateSpaceExceeded, AllDone)
    assert not issubclass(StateSpaceExceeded, Deadlock)
    assert not issubclass(Deadlock, AllDone)


# -- deadlock witnesses ------------------------------------------------------------


def test_witness_replays_to_the_blocked_state():
    texts = [
        "scatter(0,MPI_FLOAT,3).send(1,MPI_FLOAT,1).end",
        "scatter(0,MPI_FLOAT,3).send(0,MPI_FLOAT,1).end",
    ]
    verdict = simulate(ensemble(*texts), [])
    assert isinstance(verdict, Deadlock)
    assert verdict.trail == (Comm("scatter", 0, DataKind.FLOAT, 3, None),)
    state = replay(ensemble(*texts), verdict.trail)
    assert state == verdict.state


def test_replay_rejects_foreign_trails():
    texts = ["send(1,MPI_INT,1).end", "receive(0,MPI_INT,1).end"]
    with pytest.raises(ValueError):
        replay(ensemble(*texts), (P2PStep(1, 0, DataKind.INT, 1),))


def test_trail_format_round_trip():
    trail = (
        Comm("scatter", 0, DataKind.FLOAT, 3, None),
        DecisionStep("loop", True),
        P2PStep(2, 1, DataKind.FLOAT, 1),
        Comm("allreduce", None, DataKind.FLOAT, 1, ReduceOp.MAX),
        DecisionStep("loop", False),
        DecisionStep("choice", False),
    )
    text = format_trail(trail)
    assert parse_trail(text) == trail
    # comments and blank lines are tolerated
    assert parse_trail("# witness\n\n" + text) == trail


def test_parse_trail_rejects_junk():
    with pytest.raises(ValueError):
        parse_trail("warp 9")
    with pytest.raises(ValueError):
        parse_trail("p2p src=0 dst=zebra dtype=MPI_INT len=1")


@pytest.mark.parametrize(
    "line",
    [
        "decision loop entr",
        "decision lop enter",
        "coll frob root=0 dtype=MPI_INT len=1",
        "coll allreduce dtype=MPI_INT len=1",
        "coll bcast dtype=MPI_INT len=1",
        "p2p src=0 dst=1 dtype=MPI_INT len=1 len=2",
        "p2p src=0 dst=1 dtype=MPI_INT len=1 color=red",
        "decision loop enter now",
        "coll allreduce root=0 dtype=MPI_INT len=1 op=MPI_SUM",
        "coll bcast root=0 dtype=MPI_INT len=1 op=MPI_SUM",
        "p2p src=0 dst=1 dtype=MPI_INT len=\u0661",
        "p2p src=0 dst=1 dtype=MPI_INT len=1_0",
        "p2p src=+0 dst=1 dtype=MPI_INT len=1",
    ],
)
def test_parse_trail_rejects_a_line_format_trail_never_writes(line):
    # Read leniently, each would be a step that replays another schedule, or none.
    with pytest.raises(ValueError, match="malformed witness line"):
        parse_trail(line)


def test_witness_from_flat_ring_names_every_rank_blocked(
    fdiff_protocol_text, fdiff_flat_program_text
):
    from commcheck.checker import erase_to_trace
    from commcheck.program import parse_program

    prog = parse_program(fdiff_flat_program_text)
    env = {"size": 9, "np": 3}
    traces = [erase_to_trace(prog, r, env, loop_tape(1, True)) for r in range(3)]
    locals_ = [trace_to_term(t) for t in traces]
    verdict = simulate(locals_, loop_tape(1, True))
    assert isinstance(verdict, Deadlock)
    # everyone is stuck sending left: a classic unbuffered ring cycle
    assert all(b.startswith("blocked sending") for b in verdict.blocked)
    # the witness prefix is everything that still worked: just the scatter
    assert verdict.trail == (Comm("scatter", 0, DataKind.FLOAT, 3, None),)
    assert replay(locals_, verdict.trail) == verdict.state


# -- exploration-order and reduction soundness --------------------------------------


def test_loop_bound_keeps_the_verdict_kind_and_every_witness_replays():
    # Each ensemble runs as generated and with a send cycle planted
    # after every rank's view.
    rng = random.Random(505)
    for _ in range(200):
        proto, env = random_protocol(rng)
        views = list(project_all(proto, env))
        n = len(views)
        planted = [concat(v, lt(f"send({(r + 1) % n},MPI_INT,1).end")) for r, v in enumerate(views)]
        for ens in (views, planted):
            verdicts = [explore_all_tapes(ens, bound) for bound in (1, 2, 4)]
            assert len({type(v) for v in verdicts}) == 1, (proto, env)
            counts = [v.states_explored for v in verdicts if isinstance(v, AllDone)]
            assert counts == sorted(counts), (proto, env)
            for v in verdicts:
                if isinstance(v, Deadlock):
                    assert replay(ens, v.trail) == v.state, (proto, env)


def test_por_gives_the_same_verdict_kind():
    rng = random.Random(606)
    for _ in range(60):
        proto, env = random_protocol(rng)
        views = list(project_all(proto, env))
        a = explore_all_tapes(views, 2)
        b = explore_all_tapes(views, 2, por=True)
        assert type(a) is type(b), (proto, env)
        if isinstance(a, AllDone):
            assert b.states_explored <= a.states_explored


def test_por_still_finds_planted_deadlocks():
    texts = [
        "send(1,MPI_INT,1).receive(2,MPI_INT,1).end",
        "receive(0,MPI_INT,1).send(2,MPI_INT,1).end",
        "send(1,MPI_INT,1).send(0,MPI_INT,1).end",
    ]
    plain = simulate(ensemble(*texts), [])
    reduced = simulate(ensemble(*texts), [], por=True)
    assert isinstance(plain, Deadlock) and isinstance(reduced, Deadlock)


# -- traces as local types ------------------------------------------------------------


def test_trace_to_term_round_trip():
    actions = [
        Comm("send", 1, DataKind.INT, 1),
        Comm("receive", 1, DataKind.INT, 2),
    ]
    term = trace_to_term(actions)
    assert term == lt("send(1,MPI_INT,1).receive(1,MPI_INT,2).end")


def test_trace_to_term_empty():
    assert trace_to_term([]) == End()
