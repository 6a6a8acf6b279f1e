"""Well-formedness checking of instantiated protocols."""

from __future__ import annotations

import random

import pytest

from commcheck.parser import parse_protocol
from commcheck.wf import MAX_PROCS, check_wf

from proto_gen import random_protocol


def codes(report):
    return [d.code for d in report.diagnostics]


def test_ring_protocol_is_well_formed(fdiff_protocol_text):
    proto = parse_protocol(fdiff_protocol_text)
    for size in (0, 3, 9, 300, 3 * 10**6):
        report = check_wf(proto, {"size": size})
        assert report.ok, report.render_lines()


def test_refinement_violation_reported(fdiff_protocol_text):
    proto = parse_protocol(fdiff_protocol_text)
    report = check_wf(proto, {"size": 7})
    assert codes(report) == ["refinement-violated"]
    assert "size" in report.diagnostics[0].message
    # diagnostic points at the binder, not the body
    assert report.diagnostics[0].pos == proto.params[0].pos


def test_negative_value_fails_nat_layer(fdiff_protocol_text):
    proto = parse_protocol(fdiff_protocol_text)
    report = check_wf(proto, {"size": -3})
    # binder check fails, and the walk still runs with the bad value bound,
    # so the negative scatter/gather lengths are reported too
    assert codes(report)[0] == "refinement-violated"
    assert set(codes(report)[1:]) == {"negative-length"}


@pytest.mark.parametrize("size", [2**63, -(2**63) - 1, 10**20])
def test_value_outside_the_64_bit_range_is_reported_once(fdiff_protocol_text, size):
    proto = parse_protocol(fdiff_protocol_text)
    report = check_wf(proto, {"size": size})
    # like a missing value, it would fail at every use, so the body is not walked
    assert [(d.code, d.path) for d in report.diagnostics] == [("eval-error", "param size")]


def test_predicate_overflow_of_a_ranged_value_still_walks_the_body():
    proto = parse_protocol("Pi n: {x:int|x*x>0}.\nnprocs 2.\nmessage(0,1,MPI_INT,n-n-1).end")
    report = check_wf(proto, {"n": 2**62})
    assert codes(report) == ["eval-error", "negative-length"]


def test_missing_and_unknown_parameters(fdiff_protocol_text):
    proto = parse_protocol(fdiff_protocol_text)
    assert codes(check_wf(proto, {})) == ["missing-parameter"]
    report = check_wf(proto, {"size": 9, "stray": 1, "also": 2})
    assert codes(report) == ["unknown-parameter", "unknown-parameter"]
    # one diagnostic per stray name, in sorted order
    assert "also" in report.diagnostics[0].message
    assert "stray" in report.diagnostics[1].message


def test_rank_out_of_range():
    proto = parse_protocol("nprocs 2.\nmessage(0,2,MPI_INT,1).end")
    report = check_wf(proto, {})
    assert codes(report) == ["rank-out-of-range"]

    proto = parse_protocol("Pi r: nat.\nnprocs 2.\nscatter(r,MPI_INT,1).end")
    assert codes(check_wf(proto, {"r": 5})) == ["rank-out-of-range"]
    assert check_wf(proto, {"r": 1}).ok


def test_self_message_rejected():
    proto = parse_protocol("nprocs 3.\nmessage(1,1,MPI_INT,1).end")
    assert codes(check_wf(proto, {})) == ["self-message"]


def test_negative_length_rejected():
    proto = parse_protocol("Pi n: int.\nnprocs 2.\nmessage(0,1,MPI_INT,n).end")
    assert codes(check_wf(proto, {"n": -1})) == ["negative-length"]
    assert check_wf(proto, {"n": 0}).ok


def test_length_eval_errors_become_diagnostics():
    proto = parse_protocol("Pi n: int.\nnprocs 2.\nmessage(0,1,MPI_INT,n/0).end")
    report = check_wf(proto, {"n": 4})
    assert codes(report) == ["eval-error"]

    proto = parse_protocol("nprocs 2.\nmessage(0,1,MPI_INT,missing).end")
    assert codes(check_wf(proto, {})) == ["eval-error"]


def test_process_count_bounds():
    assert check_wf(parse_protocol("nprocs 2.\nend"), {}).ok
    report = check_wf(parse_protocol("nprocs 1.\nend"), {})
    assert codes(report) == ["procs-out-of-range"]
    report = check_wf(parse_protocol(f"nprocs {MAX_PROCS}.\nend"), {})
    assert codes(report) == ["procs-out-of-range"]
    assert check_wf(parse_protocol(f"nprocs {MAX_PROCS - 1}.\nend"), {}).ok


@pytest.mark.parametrize("kind", ["int", "nat", "{x:int|x>0}"])
@pytest.mark.parametrize("value", [True, 1.5])
def test_non_integer_binder_value(kind, value):
    # A bool is an int in Python, but neither it nor a float is a value of
    # an integer kind: projected, it would print as no `.clt` literal.
    proto = parse_protocol(f"Pi n: {kind}.\nnprocs 2.\nmessage(0,1,MPI_INT,n).end")
    report = check_wf(proto, {"n": value})
    assert report.render_lines() == [
        f"<protocol>:1:4: [refinement-violated] value {value} does not satisfy the kind of 'n'"
        " (at param n)"
    ]


@pytest.mark.parametrize("kind", ["float", "int[3]", "{x:float|x>0}"])
def test_a_parameter_of_a_non_integer_kind(kind):
    proto = parse_protocol(f"Pi x: {kind}.\nnprocs 2.\nend")
    assert check_wf(proto, {"x": 1}).render_lines() == [
        "<protocol>:1:4: [kind-not-integer] parameter 'x' must have an integer-valued kind"
        " (at param x)"
    ]


def test_a_rank_expression_eval_error():
    proto = parse_protocol("nprocs 2.\nmessage(1/0,1,MPI_INT,1).end")
    assert check_wf(proto, {}).render_lines() == [
        "<protocol>:2:1: [eval-error] source rank: division by zero in 1/0 (at body[0])"
    ]
    proto = parse_protocol("nprocs 2.\nscatter(r,MPI_INT,1).end")
    assert check_wf(proto, {}).render_lines() == [
        "<protocol>:2:1: [eval-error] root rank: unbound variable 'r' (at body[0])"
    ]


def test_all_problems_collected_not_just_first():
    proto = parse_protocol(
        "nprocs 2.\nmessage(0,0,MPI_INT,1).message(0,5,MPI_INT,1).message(1,0,MPI_INT,0-2).end"
    )
    report = check_wf(proto, {})
    assert sorted(codes(report)) == ["negative-length", "rank-out-of-range", "self-message"]


def test_diagnostics_inside_loops_and_choices_carry_paths():
    proto = parse_protocol(
        "nprocs 2.\nloop(choice(message(0,3,MPI_INT,1).end,end).end).end"
    )
    report = check_wf(proto, {})
    assert codes(report) == ["rank-out-of-range"]
    diag = report.diagnostics[0]
    assert "loop" in diag.path and "true" in diag.path


def test_render_lines_are_stable():
    proto = parse_protocol("nprocs 2.\nmessage(0,2,MPI_INT,1).end")
    report = check_wf(proto, {})
    lines = report.render_lines("ring.cty")
    assert lines == ["ring.cty:2:1: [rank-out-of-range] destination rank 2 outside [0, 2) (at body[0])"]


def test_generated_protocols_are_well_formed():
    rng = random.Random(7)
    for _ in range(200):
        proto, env = random_protocol(rng)
        report = check_wf(proto, env)
        assert report.ok, (report.render_lines(), env)
