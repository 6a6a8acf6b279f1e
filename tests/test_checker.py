"""Compliance checking of programs against protocols, and trace erasure."""

from __future__ import annotations

import pytest

from commcheck.checker import IllFormedProtocol, check_compliance, erase_to_trace
from commcheck.parser import parse_protocol
from commcheck.program import parse_program
from commcheck.sim import AllDone, TapeExhausted, loop_tape, simulate, trace_to_term
from commcheck.terms import Comm, DataKind, ReduceOp
from commcheck.wf import check_wf


def one_code(report):
    assert not report.compliant
    diags = report.all_diagnostics()
    assert len(diags) == 1, [d.code for d in diags]
    return diags[0]


# -- compliance on the ring example -------------------------------------------


def test_ring_program_complies(fdiff_protocol_text, fdiff_program_text):
    proto = parse_protocol(fdiff_protocol_text)
    prog = parse_program(fdiff_program_text)
    for size in (3, 9, 300):
        report = check_compliance(prog, proto, {"size": size})
        assert report.compliant, report.render_lines()
        assert len(report.ranks) == 3


def test_flat_variant_fails_only_where_order_diverges(fdiff_protocol_text, fdiff_flat_program_text):
    # the flat variant performs the same multiset of sends and receives,
    # but without the even/odd split only rank 1 still matches its local
    # order: it leads with a send where the protocol expects a receive
    proto = parse_protocol(fdiff_protocol_text)
    prog = parse_program(fdiff_flat_program_text)
    report = check_compliance(prog, proto, {"size": 9})
    assert not report.compliant
    assert not report.ranks[0]
    assert not report.ranks[2]
    assert [d.code for d in report.ranks[1]] == ["head-mismatch:kind"]


def test_wf_violation_is_a_precondition_error(fdiff_protocol_text, fdiff_program_text):
    proto = parse_protocol(fdiff_protocol_text)
    prog = parse_program(fdiff_program_text)
    with pytest.raises(ValueError) as err:
        check_compliance(prog, proto, {"size": 7})
    # The error carries the report the CLI prints, under the same message.
    assert isinstance(err.value, IllFormedProtocol)
    assert err.value.report == check_wf(proto, {"size": 7})
    assert str(err.value) == (
        "protocol is not well-formed under the given instantiation: <protocol>:5:4:"
        " [refinement-violated] value 7 does not satisfy the kind of 'size' (at param size)"
    )


def test_missing_program_parameter(fdiff_protocol_text):
    proto = parse_protocol(fdiff_protocol_text)
    prog = parse_program("param size\nparam extra\ninit\nfinalize\n")
    report = check_compliance(prog, proto, {"size": 9})
    diags = report.all_diagnostics()
    assert {d.code for d in diags} == {"unbound-parameter"}
    assert all("extra" in d.message for d in diags)


# -- small focused programs ----------------------------------------------------


SMALL_PROTO = "nprocs 2.\nmessage(0,1,MPI_INT,4).end"


def small(prog_text, proto_text=SMALL_PROTO, inst=None):
    return check_compliance(parse_program(prog_text), parse_protocol(proto_text), inst or {})


def test_matching_send_recv_pair():
    report = small(
        "buffer b int[4]\ninit\n"
        "rankif (me == 0) { send peer=1 buf=b len=4 } else { recv peer=0 buf=b len=4 }\n"
        "finalize\n"
    )
    assert report.compliant


def test_unknown_buffer():
    report = small("init\nrankif (me == 0) { send peer=1 buf=ghost len=4 }\nrankif (me == 1) { recv peer=0 buf=ghost len=4 }\nfinalize\n")
    # both ranks trip over the same missing name
    assert [d.code for d in report.all_diagnostics()] == ["unknown-buffer"] * 2
    assert all("ghost" in d.message for d in report.all_diagnostics())


def test_negative_capacity():
    report = small("param n\nbuffer b int[n]\ninit\nrankif (me == 0) { send peer=1 buf=b len=4 } else { recv peer=0 buf=b len=4 }\nfinalize\n", inst={"n": -1})
    assert {d.code for d in report.all_diagnostics()} == {"negative-capacity"}


def test_buffer_too_small():
    report = small(
        "buffer b int[2]\ninit\n"
        "rankif (me == 0) { send peer=1 buf=b len=4 } else { recv peer=0 buf=b len=4 }\n"
        "finalize\n"
    )
    assert {d.code for d in report.all_diagnostics()} == {"buffer-obligation"}


def test_trailing_communication_past_end():
    d = one_code(small(
        "buffer b int[4]\ninit\n"
        "rankif (me == 0) { send peer=1 buf=b len=4 send peer=1 buf=b len=4 }\n"
        "rankif (me == 1) { recv peer=0 buf=b len=4 }\n"
        "finalize\n"
    ))
    assert d.code == "not-a-prefix"
    assert d.rank == 0


def test_missing_communication_caught_at_finalize():
    report = small("buffer b int[4]\ninit\nrankif (me == 1) { recv peer=0 buf=b len=4 }\nfinalize\n")
    d = one_code(report)
    assert d.code == "residual-not-end"
    assert d.rank == 0
    assert d.pos is not None  # points at the finalize statement


def test_eval_error_in_guard_or_expression():
    d = one_code(small("buffer b int[4]\ninit\nrankif (me == 0) { send peer=1/0 buf=b len=4 } else { recv peer=0 buf=b len=4 }\nfinalize\n"))
    assert d.code == "eval-error"
    assert d.rank == 0


def test_walk_stops_at_first_defect_per_rank():
    # rank 0 has two defects in sequence; only the first is reported
    report = small(
        "buffer b int[4]\ninit\n"
        "rankif (me == 0) { send peer=1 buf=b len=3 send peer=1 buf=b len=2 }\n"
        "rankif (me == 1) { recv peer=0 buf=b len=4 }\n"
        "finalize\n"
    )
    rank0 = report.ranks[0]
    assert [d.code for d in rank0] == ["head-mismatch:len"]


def test_expected_loop_and_choice():
    proto = "nprocs 2.\nloop(message(0,1,MPI_INT,1).end).end"
    report = small("buffer b int[1]\ninit\nrankif (me == 0) { send peer=1 buf=b len=1 } else { recv peer=0 buf=b len=1 }\nfinalize\n", proto)
    assert {d.code for d in report.all_diagnostics()} == {"at-collective-boundary:loop"}

    report = small("init\ncollchoice { } else { }\nfinalize\n", proto)
    assert {d.code for d in report.all_diagnostics()} == {"expected-choice"}

    report = small("init\ncollloop { }\nfinalize\n", "nprocs 2.\nchoice(end,end).end")
    assert {d.code for d in report.all_diagnostics()} == {"expected-loop"}


def test_loop_body_must_consume_exactly_the_protocol_body():
    proto = "nprocs 2.\nloop(message(0,1,MPI_INT,1).end).end"
    report = small(
        "buffer b int[1]\ninit\ncollloop { rankif (me == 0) { } else { } }\nfinalize\n",
        proto,
    )
    # empty loop body leaves the message un-consumed
    assert {d.code for d in report.all_diagnostics()} == {"residual-not-end"}


def test_choice_checks_both_branches():
    proto = "nprocs 2.\nchoice(message(0,1,MPI_INT,1).end,end).end"
    # else-branch wrongly communicates
    report = small(
        "buffer b int[1]\ninit\n"
        "collchoice { rankif (me == 0) { send peer=1 buf=b len=1 } else { recv peer=0 buf=b len=1 } }\n"
        "else { rankif (me == 0) { send peer=1 buf=b len=1 } else { recv peer=0 buf=b len=1 } }\n"
        "finalize\n",
        proto,
    )
    assert {d.code for d in report.all_diagnostics()} == {"not-a-prefix"}


def test_collective_structure_divergence():
    proto = "nprocs 2.\nloop(end).end"
    report = small(
        "init\n"
        "rankif (me == 0) { collloop { } } else { collloop { } }\n"
        "finalize\n",
        proto,
    )
    # each rank walks a different CollLoop statement; both are locally fine,
    # but the ensemble-level decision sequences must be the same statements
    assert not report.compliant
    codes = [d.code for d in report.all_diagnostics()]
    assert codes == ["collective-structure-divergence"]
    assert not report.ranks[0]  # the reference rank stays clean


def test_same_statement_sequence_is_not_divergence():
    proto = "nprocs 2.\nloop(end).end"
    report = small("init\ncollloop { }\nfinalize\n", proto)
    assert report.compliant


def test_report_render_lines(fdiff_protocol_text):
    proto = parse_protocol(fdiff_protocol_text)
    prog = parse_program("param size\ninit\nfinalize\n")
    report = check_compliance(prog, proto, {"size": 9})
    lines = report.render_lines("prog.mmp")
    assert len(lines) == 3
    assert all(line.startswith("prog.mmp:") and "[residual-not-end]" in line for line in lines)


# -- where each diagnostic points -----------------------------------------------

# `rankif` inside `collloop` inside `collchoice`, then one top-level
# message before `finalize`. Line numbers are those of NESTED_PROGRAM.
NESTED_PROTOCOL = """nprocs 2.
choice(
  loop(message(0,1,MPI_INT,1).end).
  end,
  message(1,0,MPI_INT,1).end).
message(0,1,MPI_INT,1).
end
"""
NESTED_PROGRAM = """buffer b int[1]
init
collchoice {
  collloop {
    rankif (me == 0) {
      send peer=1 buf=b len=1
    } else {
      recv peer=0 buf=b len=1
    }
  }
} else {
  rankif (me == 1) { send peer=0 buf=b len=1 } else { recv peer=1 buf=b len=1 }
}
rankif (me == 0) { send peer=1 buf=b len=1 } else { recv peer=0 buf=b len=1 }
finalize
"""
LOOP_SEND = "send peer=1 buf=b len=1\n    }"
FALSE_BRANCH = "  rankif (me == 1) { send peer=0 buf=b len=1 } else { recv peer=1 buf=b len=1 }"
P2P = "rankif (me == 0) { send peer=1 buf=b len=1 } else { recv peer=0 buf=b len=1 }"
# From the buffer's declaration to rank 0's send in the loop.
DECL_TO_SEND = "int[1]\ninit\ncollchoice {\n  collloop {\n    rankif (me == 0) {\n      send peer=1"


@pytest.mark.parametrize(
    "old, new, lines",
    [
        pytest.param("rankif (me == 0) {", "rankif (me / 0 == 0) {", [
            "prog.mmp:5:5: rank 0: [eval-error] division by zero in 0/0",
            "prog.mmp:5:5: rank 1: [eval-error] division by zero in 1/0",
        ], id="eval-error-in-guard"),
        pytest.param(LOOP_SEND, "send peer=1/0 buf=b len=1\n    }", [
            "prog.mmp:6:7: rank 0: [eval-error] division by zero in 1/0",
        ], id="eval-error-in-body"),
        pytest.param(LOOP_SEND, "send peer=1 buf=c len=1\n    }", [
            "prog.mmp:6:7: rank 0: [unknown-buffer] no buffer named 'c'",
        ], id="unknown-buffer"),
        pytest.param("int[1]", "int[0-1]", [
            "prog.mmp:1:1: rank 0: [negative-capacity] buffer 'b' has capacity -1",
            "prog.mmp:1:1: rank 1: [negative-capacity] buffer 'b' has capacity -1",
        ], id="negative-capacity"),
        pytest.param(FALSE_BRANCH, "  collloop { }", [
            "prog.mmp:12:3: rank 0: [expected-loop] program enters a collective loop but"
            " the protocol is at receive(1,MPI_INT,1)",
            "prog.mmp:12:3: rank 1: [expected-loop] program enters a collective loop but"
            " the protocol is at send(0,MPI_INT,1)",
        ], id="expected-loop"),
        pytest.param(FALSE_BRANCH, "  collchoice { } else { }", [
            "prog.mmp:12:3: rank 0: [expected-choice] program enters a collective choice but"
            " the protocol is at receive(1,MPI_INT,1)",
            "prog.mmp:12:3: rank 1: [expected-choice] program enters a collective choice but"
            " the protocol is at send(0,MPI_INT,1)",
        ], id="expected-choice"),
        pytest.param(LOOP_SEND, "compute\n    }", [
            "prog.mmp:4:3: rank 0: [residual-not-end] collective loop body leaves the protocol"
            " at send(1,MPI_INT,1), not end",
        ], id="residual-not-end-loop"),
        pytest.param(FALSE_BRANCH, "  compute", [
            "prog.mmp:3:1: rank 0: [residual-not-end] collective choice false branch leaves"
            " the protocol at receive(1,MPI_INT,1), not end",
            "prog.mmp:3:1: rank 1: [residual-not-end] collective choice false branch leaves"
            " the protocol at send(0,MPI_INT,1), not end",
        ], id="residual-not-end-choice"),
        pytest.param(P2P + "\nfinalize", "finalize", [
            "prog.mmp:14:1: rank 0: [residual-not-end] obligations remain at finalize: the"
            " residual local type is send(1,MPI_INT,1), not end",
            "prog.mmp:14:1: rank 1: [residual-not-end] obligations remain at finalize: the"
            " residual local type is receive(0,MPI_INT,1), not end",
        ], id="residual-not-end-finalize"),
        pytest.param(NESTED_PROGRAM[NESTED_PROGRAM.index("init"):], "init\nfinalize\n", [
            "prog.mmp:3:1: rank 0: [residual-not-end] obligations remain at finalize: the"
            " residual local type is a collective choice, not end",
            "prog.mmp:3:1: rank 1: [residual-not-end] obligations remain at finalize: the"
            " residual local type is a collective choice, not end",
        ], id="residual-not-end-finalize-at-choice"),
        pytest.param(LOOP_SEND, "send peer=1 buf=b len=2\n    }", [
            "prog.mmp:6:7: rank 0: [head-mismatch:len] action send(1,MPI_INT,2) does not"
            " match the expected send(1,MPI_INT,1) (differs in len)",
        ], id="head-mismatch"),
        pytest.param("int[1]", "int[0]", [
            "prog.mmp:6:7: rank 0: [buffer-obligation] buffer capacity 0 is smaller than the"
            " transferred count 1",
            "prog.mmp:8:7: rank 1: [buffer-obligation] buffer capacity 0 is smaller than the"
            " transferred count 1",
        ], id="buffer-obligation"),
        pytest.param(DECL_TO_SEND, DECL_TO_SEND.replace("[1]", "[0]").replace("peer=1", "peer=0"), [
            "prog.mmp:6:7: rank 0: [head-mismatch:peer] action send(0,MPI_INT,1) does not"
            " match the expected send(1,MPI_INT,1) (differs in peer)",
            "prog.mmp:8:7: rank 1: [buffer-obligation] buffer capacity 0 is smaller than the"
            " transferred count 1",
        ], id="head-mismatch-before-buffer-obligation"),
        pytest.param("int[1]", "int[2 - 1]", [], id="capacity-equal-to-count"),
        pytest.param("int[1]", "int[100]", [], id="capacity-above-count"),
        pytest.param(LOOP_SEND, "send peer=0 buf=b len=1\n    }", [
            "prog.mmp:6:7: rank 0: [head-mismatch:peer] action send(0,MPI_INT,1) does not"
            " match the expected send(1,MPI_INT,1) (differs in peer)",
        ], id="head-mismatch-peer"),
        pytest.param("int[1]", "float[1]", [
            "prog.mmp:6:7: rank 0: [head-mismatch:dtype] action send(1,MPI_FLOAT,1) does not"
            " match the expected send(1,MPI_INT,1) (differs in dtype)",
            "prog.mmp:8:7: rank 1: [head-mismatch:dtype] action receive(0,MPI_FLOAT,1) does not"
            " match the expected receive(0,MPI_INT,1) (differs in dtype)",
        ], id="head-mismatch-dtype"),
        pytest.param(LOOP_SEND, "send peer=1 buf=b len=1\n      send peer=1 buf=b len=1\n    }", [
            "prog.mmp:7:7: rank 0: [not-a-prefix] expected the protocol to continue (program"
            " performs send(1,MPI_INT,1)), but the local type is end",
        ], id="not-a-prefix"),
        pytest.param("init\n", "init\n" + P2P + "\n", [
            "prog.mmp:3:20: rank 0: [at-collective-boundary:choice] the local type is at a"
            " collective choice, but the program performs send(1,MPI_INT,1) without entering one",
            "prog.mmp:3:53: rank 1: [at-collective-boundary:choice] the local type is at a"
            " collective choice, but the program performs receive(0,MPI_INT,1) without"
            " entering one",
        ], id="at-collective-boundary-choice"),
        pytest.param("collchoice {\n", "collchoice {\n  " + P2P + "\n", [
            "prog.mmp:4:22: rank 0: [at-collective-boundary:loop] the local type is at a"
            " collective loop, but the program performs send(1,MPI_INT,1) without entering one",
            "prog.mmp:4:55: rank 1: [at-collective-boundary:loop] the local type is at a"
            " collective loop, but the program performs receive(0,MPI_INT,1) without"
            " entering one",
        ], id="at-collective-boundary-loop"),
    ],
)
def test_each_diagnostic_points_at_its_statement(old, new, lines):
    assert old in NESTED_PROGRAM
    text = NESTED_PROGRAM.replace(old, new, 1)
    report = check_compliance(parse_program(text), parse_protocol(NESTED_PROTOCOL), {})
    assert report.render_lines("prog.mmp") == lines


def test_the_nested_program_complies():
    report = check_compliance(parse_program(NESTED_PROGRAM), parse_protocol(NESTED_PROTOCOL), {})
    assert report.compliant


# -- collective blocks are scopes ----------------------------------------------

# Each collective loop iteration and each collective choice branch runs on
# copies of the rank's names and buffers, in the checker and in erasure
# alike, so what one declares reaches neither the next iteration, nor the
# other branch, nor the statements after the block. Each program below
# passed the checker while one of its erased runs failed when the blocks
# shared the rank's names.

LET_IN_A_LOOP = (
    "nprocs 2.\nloop(message(0,1,MPI_INT,1).end).end",
    "buffer b int[10]\ninit\nlet n = 0\ncollloop {\n  let n = n + 1\n"
    "  rankif (me == 0) { send peer=1 buf=b len=n } else { recv peer=0 buf=b len=1 }\n"
    "}\nfinalize\n",
)
LET_IN_A_BRANCH = (
    "nprocs 2.\nchoice(end, end).message(0,1,MPI_INT,2).end",
    "buffer b int[10]\ninit\nlet n = 1\ncollchoice { let n = 2 } else { compute }\n"
    "rankif (me == 0) { send peer=1 buf=b len=n } else { recv peer=0 buf=b len=2 }\n"
    "finalize\n",
)
BUFFER_IN_A_BRANCH = (
    "nprocs 2.\nchoice(end, message(0,1,MPI_INT,2).end).end",
    "buffer b int[10]\ninit\ncollchoice {\n  buffer c int[4]\n} else {\n"
    "  rankif (me == 0) { send peer=1 buf=c len=2 } else { recv peer=0 buf=c len=2 }\n"
    "}\nfinalize\n",
)


def erased_runs(prog, tapes):
    """Per tape, the verdict of the erased two-rank traces, or the error
    that stopped their erasure."""
    outcomes = []
    for tape in tapes:
        try:
            views = [trace_to_term(erase_to_trace(prog, r, {"np": 2}, tape)) for r in range(2)]
        except ValueError as err:
            outcomes.append(str(err))
        else:
            outcomes.append(type(simulate(views, ())).__name__)
    return outcomes


@pytest.mark.parametrize(
    "case, tapes, lines, runs",
    [
        (LET_IN_A_LOOP, [loop_tape(k) for k in (1, 2, 3)], [], ["AllDone"] * 3),
        (
            LET_IN_A_BRANCH,
            [(True,), (False,)],
            [
                "<program>:5:20: rank 0: [head-mismatch:len] action send(1,MPI_INT,1) does"
                " not match the expected send(1,MPI_INT,2) (differs in len)"
            ],
            ["Deadlock", "Deadlock"],
        ),
        (
            BUFFER_IN_A_BRANCH,
            [(True,), (False,)],
            [
                "<program>:6:22: rank 0: [unknown-buffer] no buffer named 'c'",
                "<program>:6:55: rank 1: [unknown-buffer] no buffer named 'c'",
            ],
            ["AllDone", "no buffer named 'c'"],
        ),
    ],
    ids=["let-in-a-loop", "let-in-a-branch", "buffer-in-a-branch"],
)
def test_a_collective_block_is_a_scope(case, tapes, lines, runs):
    proto_text, prog_text = case
    prog = parse_program(prog_text)
    report = check_compliance(prog, parse_protocol(proto_text), {})
    assert report.render_lines() == lines
    assert erased_runs(prog, tapes) == runs
    # the checker's verdict agrees with every erased run
    assert report.compliant == all(run == "AllDone" for run in runs)


# -- erasure -------------------------------------------------------------------


def test_erasure_of_ring_rank0(fdiff_program_text):
    prog = parse_program(fdiff_program_text)
    env = {"size": 9, "np": 3}
    tape = loop_tape(1, True)
    actions = erase_to_trace(prog, 0, env, tape)
    assert actions == [
        Comm("scatter", 0, DataKind.FLOAT, 3),
        Comm("send", 2, DataKind.FLOAT, 1),
        Comm("receive", 1, DataKind.FLOAT, 1),
        Comm("receive", 2, DataKind.FLOAT, 1),
        Comm("send", 1, DataKind.FLOAT, 1),
        Comm("allreduce", None, DataKind.FLOAT, 1, ReduceOp.MAX),
        Comm("gather", 0, DataKind.FLOAT, 3),
    ]


def test_erasure_zero_iterations(fdiff_program_text):
    prog = parse_program(fdiff_program_text)
    env = {"size": 9, "np": 3}
    actions = erase_to_trace(prog, 1, env, (False, True))
    assert [a.kind for a in actions] == ["scatter", "gather"]
    actions = erase_to_trace(prog, 1, env, (False, False))
    assert [a.kind for a in actions] == ["scatter"]


def test_erasure_loop_iterations_scale(fdiff_program_text):
    prog = parse_program(fdiff_program_text)
    env = {"size": 9, "np": 3}
    for k in (0, 1, 2, 5):
        actions = erase_to_trace(prog, 2, env, loop_tape(k, False))
        sends = [a for a in actions if a.kind == "send"]
        assert len(sends) == 2 * k


def test_erasure_is_protocol_independent():
    # a program that matches no protocol still erases to its action list
    prog = parse_program(
        "buffer b int[1]\ninit\nsend peer=0 buf=b len=1\nfinalize\n"
    )
    actions = erase_to_trace(prog, 0, {"np": 1}, ())
    assert actions == [Comm("send", 0, DataKind.INT, 1)]


def test_erasure_of_an_unknown_buffer():
    prog = parse_program("init\nsend peer=1 buf=nope len=1\nfinalize\n")
    with pytest.raises(ValueError, match="^no buffer named 'nope'$"):
        erase_to_trace(prog, 0, {"np": 2}, ())


def test_erasure_minimal_program():
    prog = parse_program("init\nfinalize\n")
    assert erase_to_trace(prog, 0, {"np": 2}, ()) == []


def test_erasure_consumes_the_tape_in_lockstep(fdiff_program_text):
    # two loop entries, the exit, then the choice: True, True, False, True
    prog = parse_program(fdiff_program_text)
    env = {"size": 9, "np": 3}
    tape = loop_tape(2, True)
    assert erase_to_trace(prog, 0, env, tape[:4]) == erase_to_trace(prog, 0, env, tape + (False,))
    with pytest.raises(TapeExhausted, match="decision 4 requested but the tape has 3 entries"):
        erase_to_trace(prog, 0, env, tape[:3])


def test_one_tape_serves_every_rank(fdiff_flat_program_text):
    prog = parse_program(fdiff_flat_program_text)
    env = {"size": 9, "np": 3}
    tape = loop_tape(1, True)
    shared = [erase_to_trace(prog, r, env, tape) for r in range(3)]
    assert shared == [erase_to_trace(prog, r, env, loop_tape(1, True)) for r in range(3)]


def test_erasure_tape_exhaustion(fdiff_program_text):
    prog = parse_program(fdiff_program_text)
    with pytest.raises(TapeExhausted):
        erase_to_trace(prog, 0, {"size": 9, "np": 3}, (True,))
