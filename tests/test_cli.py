"""End-to-end CLI behavior: exit codes, output formats, file round trips."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import commcheck
from commcheck.cli import EXIT_FAIL, EXIT_OK, EXIT_USAGE, build_arg_parser, main
from commcheck.parser import parse_local_term
from commcheck.sim import parse_trail
from commcheck.terms import ground_term
from commcheck.wf import check_wf

from conftest import bundled_text


@pytest.fixture
def ring(tmp_path):
    cty = tmp_path / "ring.cty"
    cty.write_text(bundled_text("fdiff.cty"))
    mmp = tmp_path / "ring.mmp"
    mmp.write_text(bundled_text("fdiff.mmp"))
    flat = tmp_path / "flat.mmp"
    flat.write_text(bundled_text("fdiff_flat.mmp"))
    return tmp_path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- validate -------------------------------------------------------------------


def test_validate_ok(ring, capsys):
    code, out, err = run(capsys, "validate", str(ring / "ring.cty"), "--param", "size=9")
    assert code == EXIT_OK
    assert "well-formed for 3 processes" in out
    assert err == ""


def test_validate_refinement_failure(ring, capsys):
    code, out, err = run(
        capsys, "validate", str(ring / "ring.cty"), "--param", "size=7", "--report"
    )
    assert code == EXIT_FAIL
    assert "refinement-violated" in err
    lines = [line for line in out.splitlines() if line]
    assert lines == ["-:5.4:refinement-violated:value 7 does not satisfy the kind of 'size'"]


def test_validate_missing_param_is_usage(ring, capsys):
    code, _, err = run(capsys, "validate", str(ring / "ring.cty"))
    assert code == EXIT_USAGE
    assert "size" in err


def test_validate_syntax_error(tmp_path, capsys):
    bad = tmp_path / "bad.cty"
    bad.write_text("nprocs 2.\nmessage(0,1).end\n")
    code, _, err = run(capsys, "validate", str(bad))
    assert code == EXIT_FAIL
    assert "syntax error" in err


def test_unreadable_file_is_usage(tmp_path, capsys):
    code, _, err = run(capsys, "validate", str(tmp_path / "absent.cty"))
    assert code == EXIT_USAGE
    assert "cannot read" in err


def test_bad_param_syntax_is_usage(ring, capsys):
    code, _, err = run(capsys, "validate", str(ring / "ring.cty"), "--param", "size")
    assert code == EXIT_USAGE
    code, _, err = run(capsys, "validate", str(ring / "ring.cty"), "--param", "size=big")
    assert code == EXIT_USAGE


@pytest.mark.parametrize("value", ["\u0669", "0x9", "9_0", " 9", "+-9", "9.0", ""])
def test_param_value_must_be_ascii_decimal_digits(ring, capsys, value):
    code, out, err = run(capsys, "validate", str(ring / "ring.cty"), "--param", f"size={value}")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"error: parameter 'size' needs an integer value, got '{value}'\n"


def test_param_value_reads_as_an_integer_literal(ring, capsys):
    # A leading zero is a decimal digit, as in the protocol's literals.
    code, out, _ = run(capsys, "validate", str(ring / "ring.cty"), "--param", "size=09")
    assert (code, out) == (EXIT_OK, f"{ring / 'ring.cty'}: well-formed for 3 processes\n")
    code, out, _ = run(capsys, "validate", str(ring / "ring.cty"), "--param", "size=+9")
    assert code == EXIT_OK
    # A negative value is an integer; the refinement on `size` refuses it.
    code, out, err = run(capsys, "validate", str(ring / "ring.cty"), "--param", "size=-3", "--report")
    assert code == EXIT_FAIL
    assert out.splitlines()[0] == "-:5.4:refinement-violated:value -3 does not satisfy the kind of 'size'"


@pytest.mark.parametrize("kind", ["int", "nat", "{x:int|x>0}"])
@pytest.mark.parametrize("command", ["validate", "simulate"])
@pytest.mark.parametrize(
    "value",
    ["99999999999999999999", "9223372036854775808", "-9223372036854775809"]
    + [pytest.param("9" * 640, id="640-digits")],
)
def test_a_param_outside_the_64_bit_range_is_an_eval_error(tmp_path, capsys, kind, command, value):
    cty = tmp_path / "k.cty"
    cty.write_text(f"Pi n: {kind}.\nnprocs 2.\nend\n")
    code, out, err = run(capsys, command, str(cty), "--param", f"n={value}")
    assert (code, out) == (EXIT_FAIL, "")
    assert err == (
        f"{cty}:1:4: [eval-error] value {value} exceeds the signed 64-bit range (at param n)\n"
    )


@pytest.mark.parametrize("kind", ["int", "{x:int|x>0}"])
@pytest.mark.parametrize("value", ["9223372036854775807", "1"])
def test_a_param_at_the_64_bit_bound_is_accepted(tmp_path, capsys, kind, value):
    cty = tmp_path / "k.cty"
    cty.write_text(f"Pi n: {kind}.\nnprocs 2.\nend\n")
    code, out, _ = run(capsys, "validate", str(cty), "--param", f"n={value}")
    assert (code, out) == (EXIT_OK, f"{cty}: well-formed for 2 processes\n")


@pytest.mark.parametrize("value, code", [("09", EXIT_OK), ("0x9", EXIT_USAGE), ("9_0", EXIT_USAGE)])
def test_manifest_value_must_be_ascii_decimal_digits(ring, tmp_path, capsys, value, code):
    manifest = tmp_path / "params.txt"
    manifest.write_text(f"size = {value} \n")
    got, _, err = run(capsys, "validate", str(ring / "ring.cty"), "--manifest", str(manifest))
    assert got == code
    if code == EXIT_USAGE:
        assert err == f"error: parameter 'size' needs an integer value, got '{value}'\n"


def test_manifest_params(ring, tmp_path, capsys):
    manifest = tmp_path / "params.txt"
    manifest.write_text("# instance\nsize = 9\n\n")
    code, out, _ = run(capsys, "validate", str(ring / "ring.cty"), "--manifest", str(manifest))
    assert code == EXIT_OK
    assert "well-formed" in out


def test_a_manifest_line_without_equals_is_usage(ring, tmp_path, capsys):
    manifest = tmp_path / "params.txt"
    manifest.write_text("# instance\n\nsize 9\n")
    assert run(capsys, "validate", str(ring / "ring.cty"), "--manifest", str(manifest)) == (
        EXIT_USAGE, "", f"error: {manifest}:3: expected name=value\n"
    )


def test_param_flag_overrides_manifest(ring, tmp_path, capsys):
    manifest = tmp_path / "params.txt"
    manifest.write_text("size = 7\n")
    code, _, _ = run(
        capsys, "validate", str(ring / "ring.cty"),
        "--manifest", str(manifest), "--param", "size=9",
    )
    assert code == EXIT_OK


def test_no_subcommand_is_usage(capsys):
    assert main([]) == EXIT_USAGE
    capsys.readouterr()


# -- project --------------------------------------------------------------------


def test_project_writes_per_rank_views(ring, tmp_path, capsys):
    out_dir = tmp_path / "views"
    code, out, _ = run(
        capsys, "project", str(ring / "ring.cty"),
        "--param", "size=9", "--out", str(out_dir),
    )
    assert code == EXIT_OK
    paths = out.splitlines()
    assert [p.split("/")[-1] for p in paths] == ["rank0.clt", "rank1.clt", "rank2.clt"]
    # written views parse back to the bundled goldens, grounded
    for rank in range(3):
        written = parse_local_term((out_dir / f"rank{rank}.clt").read_text())
        golden = ground_term(
            parse_local_term(bundled_text(f"fdiff_rank{rank}.clt")), {"size": 9}
        )
        assert written == golden


def test_project_refuses_ill_formed(ring, tmp_path, capsys):
    code, _, err = run(
        capsys, "project", str(ring / "ring.cty"),
        "--param", "size=7", "--out", str(tmp_path / "x"),
    )
    assert code == EXIT_FAIL
    assert "refinement-violated" in err


def test_project_into_a_path_under_a_regular_file_is_usage(ring, tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, out, err = run(
        capsys, "project", str(ring / "ring.cty"),
        "--param", "size=9", "--out", str(blocker / "views"),
    )
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith(f"error: cannot create {blocker / 'views'}: ")
    assert err.count("\n") == 1


# -- verify ---------------------------------------------------------------------


def test_verify_compliant(ring, capsys):
    code, out, err = run(
        capsys, "verify", str(ring / "ring.mmp"), str(ring / "ring.cty"),
        "--param", "size=9",
    )
    assert code == EXIT_OK
    assert "compliant" in out and "3 ranks" in out
    assert err == ""


def test_verify_noncompliant_reports_rank_and_position(ring, capsys):
    code, out, err = run(
        capsys, "verify", str(ring / "flat.mmp"), str(ring / "ring.cty"),
        "--param", "size=9", "--report",
    )
    assert code == EXIT_FAIL
    assert "rank 1" in err
    lines = out.splitlines()
    assert len(lines) == 1
    rank, pos, rest = lines[0].split(":", 2)
    assert rank == "1"
    assert rest.startswith("head-mismatch:kind:")
    line_no = int(pos.split(".")[0])
    flat_lines = bundled_text("fdiff_flat.mmp").splitlines()
    assert "send peer=left" in flat_lines[line_no - 1]


def test_verify_missing_program_param_is_usage(ring, capsys):
    code, _, err = run(capsys, "verify", str(ring / "ring.mmp"), str(ring / "ring.cty"))
    assert code == EXIT_USAGE


def test_verify_a_program_param_the_protocol_lacks_is_usage(ring, tmp_path, capsys):
    mmp = tmp_path / "extra.mmp"
    mmp.write_text("param size\nparam halo\ninit\nfinalize\n")
    assert run(capsys, "verify", str(mmp), str(ring / "ring.cty"), "--param", "size=9") == (
        EXIT_USAGE, "", "error: missing value(s) for program parameter(s): halo\n"
    )


def test_verify_program_syntax_error(ring, tmp_path, capsys):
    bad = tmp_path / "bad.mmp"
    bad.write_text("finalize\n")
    code, _, err = run(
        capsys, "verify", str(bad), str(ring / "ring.cty"), "--param", "size=9"
    )
    assert code == EXIT_FAIL
    assert "syntax error" in err


@pytest.mark.parametrize("size", ["9", "7"])
def test_verify_checks_well_formedness_once(ring, capsys, monkeypatch, size):
    calls = []

    def counting(*args):
        calls.append(args)
        return check_wf(*args)

    for module in ("commcheck.cli", "commcheck.checker"):
        monkeypatch.setattr(f"{module}.check_wf", counting)
    run(capsys, "verify", str(ring / "ring.mmp"), str(ring / "ring.cty"), "--param", f"size={size}")
    assert len(calls) == 1


def test_a_positionless_protocol_diagnostic(tmp_path, capsys):
    cty = tmp_path / "p1.cty"
    cty.write_text("nprocs 1.\nend")
    message = "process count must lie strictly between 1 and 32768, got 1"
    assert run(capsys, "validate", str(cty), "--report") == (
        EXIT_FAIL,
        f"-:0.0:procs-out-of-range:{message}\n",
        f"{cty}: [procs-out-of-range] {message} (at nprocs)\n",
    )


def test_a_positionless_program_diagnostic(tmp_path, capsys):
    cty = tmp_path / "loop.cty"
    cty.write_text("nprocs 2.\nloop(end).end")
    mmp = tmp_path / "prog.mmp"
    mmp.write_text("init\nrankif (me == 0) { collloop { } } else { collloop { } }\nfinalize\n")
    message = "rank 1 enters a different sequence of collective constructs than lower ranks"
    assert run(capsys, "verify", str(mmp), str(cty), "--report") == (
        EXIT_FAIL,
        f"1:0.0:collective-structure-divergence:{message}\n",
        f"{mmp}: rank 1: [collective-structure-divergence] {message}\n",
    )


@pytest.mark.parametrize("report", [[], ["--report"]])
def test_verify_reports_an_ill_formed_protocol_as_validate_does(ring, capsys, report):
    cty = str(ring / "ring.cty")
    want = run(capsys, "validate", cty, "--param", "size=7", *report)
    assert want[0] == EXIT_FAIL and "refinement-violated" in want[2]
    got = run(capsys, "verify", str(ring / "ring.mmp"), cty, "--param", "size=7", *report)
    assert got == want


# -- simulate -------------------------------------------------------------------


def test_simulate_protocol_all_done(ring, capsys):
    code, out, _ = run(
        capsys, "simulate", str(ring / "ring.cty"), "--param", "size=9"
    )
    assert code == EXIT_OK
    assert out.startswith("verdict: all-done (21 states explored)")


def test_simulate_local_views(tmp_path, capsys):
    (tmp_path / "a.clt").write_text("send(1,MPI_INT,1).end\n")
    (tmp_path / "b.clt").write_text("receive(0,MPI_INT,1).end\n")
    code, out, _ = run(capsys, "simulate", str(tmp_path / "a.clt"), str(tmp_path / "b.clt"))
    assert code == EXIT_OK
    assert "all-done" in out


def test_simulate_deadlock_with_witness_file(tmp_path, capsys):
    (tmp_path / "a.clt").write_text("scatter(0,MPI_INT,2).send(1,MPI_INT,1).end\n")
    (tmp_path / "b.clt").write_text("scatter(0,MPI_INT,2).send(0,MPI_INT,1).end\n")
    witness = tmp_path / "witness.txt"
    code, out, _ = run(
        capsys, "simulate", str(tmp_path / "a.clt"), str(tmp_path / "b.clt"),
        "--witness", str(witness),
    )
    assert code == EXIT_FAIL
    assert "verdict: deadlock" in out
    assert "rank 0: blocked sending to rank 1" in out
    assert "rank 1: blocked sending to rank 0" in out
    assert "witness prefix:" in out
    trail = parse_trail(witness.read_text())
    assert len(trail) == 1  # the scatter that still fired


def test_simulate_symbolic_view_with_param(tmp_path, capsys):
    (tmp_path / "a.clt").write_text("send(1,MPI_INT,n).end\n")
    (tmp_path / "b.clt").write_text("receive(0,MPI_INT,n).end\n")
    code, out, _ = run(
        capsys, "simulate", str(tmp_path / "a.clt"), str(tmp_path / "b.clt"),
        "--param", "n=3",
    )
    assert code == EXIT_OK
    # and without the binding it is a usage error, not a crash
    code, _, err = run(capsys, "simulate", str(tmp_path / "a.clt"), str(tmp_path / "b.clt"))
    assert code == EXIT_USAGE
    assert "cannot ground" in err


def test_simulate_rejects_a_negative_loop_bound(tmp_path, capsys):
    (tmp_path / "a.clt").write_text("loop(send(1,MPI_INT,1).end).end\n")
    (tmp_path / "b.clt").write_text("loop(send(0,MPI_INT,1).end).end\n")
    views = [str(tmp_path / "a.clt"), str(tmp_path / "b.clt")]
    code, out, err = run(capsys, "simulate", *views, "--max-loop-iters", "-1")
    assert code == EXIT_USAGE
    assert out == ""
    assert err.splitlines()[-1].endswith("--max-loop-iters: N must be >= 0, got -1")
    # the deadlock inside the loop body is found once the loop may run
    code, out, _ = run(capsys, "simulate", *views, "--max-loop-iters", "1")
    assert code == EXIT_FAIL
    assert "verdict: deadlock" in out


def test_simulate_searches_both_choice_branches_at_loop_bound_zero(tmp_path, capsys):
    (tmp_path / "a.clt").write_text("choice(send(1,MPI_INT,1).end,end).end\n")
    (tmp_path / "b.clt").write_text("choice(send(0,MPI_INT,1).end,end).end\n")
    views = [str(tmp_path / "a.clt"), str(tmp_path / "b.clt")]
    code, out, _ = run(capsys, "simulate", *views, "--max-loop-iters", "0")
    assert code == EXIT_FAIL
    assert "verdict: deadlock" in out
    assert "  decision choice enter" in out.splitlines()


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--state-limit", "0", "N must be >= 1, got 0"),
        ("--state-limit", "-1", "N must be >= 1, got -1"),
        ("--max-loop-iters", "-1", "N must be >= 0, got -1"),
    ]
    + [
        # an N is read as a --param VALUE is
        (flag, value, f"invalid int value: {value!r}")
        for flag in ("--state-limit", "--max-loop-iters")
        for value in ("1_0", " 2", "\u0663", "0x9", "many")
    ]
    + [
        pytest.param(
            flag, "9" * digits, f"N must have at most 640 digits, got {digits}",
            id=f"{flag}-{digits}-digits",
        )
        for flag in ("--state-limit", "--max-loop-iters")
        for digits in (641, 5000)
    ],
)
def test_simulate_rejects_a_bad_integer_flag(tmp_path, capsys, flag, value, message):
    (tmp_path / "a.clt").write_text("send(1,MPI_INT,1).end\n")
    (tmp_path / "b.clt").write_text("receive(0,MPI_INT,1).end\n")
    views = [str(tmp_path / "a.clt"), str(tmp_path / "b.clt")]
    code, out, err = run(capsys, "simulate", *views, flag, value)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.splitlines()[-1].endswith(f"{flag}: {message}")


def test_simulate_state_limit(ring, capsys):
    code, out, _ = run(
        capsys, "simulate", str(ring / "ring.cty"),
        "--param", "size=9", "--state-limit", "5",
    )
    assert code == EXIT_FAIL
    assert out == "verdict: state-space-exceeded (limit 5, 5 states explored)\n"


@pytest.mark.parametrize(
    "limit, code, line",
    [
        ("20", EXIT_FAIL, "verdict: state-space-exceeded (limit 20, 20 states explored)"),
        ("21", EXIT_OK, "verdict: all-done (21 states explored)"),
    ],
)
def test_simulate_state_limit_boundary(ring, capsys, limit, code, line):
    # the ring has 21 states: a budget of 21 completes, one of 20 runs out
    result = run(
        capsys, "simulate", str(ring / "ring.cty"), "--param", "size=9", "--state-limit", limit
    )
    assert result == (code, line + "\n", "")


def test_simulate_ill_formed_protocol(ring, capsys):
    code, _, err = run(capsys, "simulate", str(ring / "ring.cty"), "--param", "size=7")
    assert code == EXIT_FAIL
    assert "refinement-violated" in err


def test_simulate_reduces_disjoint_pairs(tmp_path, capsys):
    # 20 disjoint pairs, each free to go first: unreduced, the search
    # visits one state per subset of finished pairs, 2**20 of them;
    # reduced, it visits one state per step
    cty = tmp_path / "pairs.cty"
    messages = "".join(f"message({2 * i},{2 * i + 1},MPI_INT,1)." for i in range(20))
    cty.write_text(f"nprocs 40.\n{messages}end\n")
    result = run(capsys, "simulate", str(cty), "--state-limit", "10000")
    assert result == (EXIT_OK, "verdict: all-done (21 states explored)\n", "")


# -- syntax errors and internal errors ----------------------------------------

_ATOMS = "(expected 'end' or 'loop' or 'choice' or "
_NOT_EXPR = "(expected an integer literal or a variable or '(')"
_NOT_DTYPE = "(expected 'MPI_INT' or 'MPI_FLOAT')"


def _program(statement: str) -> str:
    return f"buffer b int[1]\ninit\n{statement}\nfinalize\n"


@pytest.mark.parametrize(
    "name, text, message",
    [
        ("send.clt", "send(1,MPI_INT).end", "1:15: unexpected ')' (expected ',')"),
        ("receive.clt", "receive(0,MPI_INTX,1).end", f"1:11: unexpected 'MPI_INTX' {_NOT_DTYPE}"),
        ("scatter.clt", "scatter(0 MPI_INT,1).end", "1:11: unexpected 'MPI_INT' (expected ',')"),
        ("gather.clt", "gather(0,MPI_INT,).end", f"1:18: unexpected ')' {_NOT_EXPR}"),
        ("bcast.clt", "bcast(0,MPI_INTX,1).end", f"1:9: unexpected 'MPI_INTX' {_NOT_DTYPE}"),
        (
            "allreduce.clt",
            "allreduce(MPI_INT,1,MPI_ADD).end",
            "1:21: unexpected 'MPI_ADD' (expected 'MPI_MAX' or 'MPI_MIN' or 'MPI_SUM')",
        ),
        ("allreduce_short.clt", "allreduce(MPI_INT,1).end", "1:20: unexpected ')' (expected ',')"),
        ("unclosed.clt", "send(1,MPI_INT,1.end", "1:17: unexpected '.' (expected ')')"),
        (
            "message.clt",
            "message(0,1,MPI_INT,1).end",
            f"1:1: unexpected 'message' {_ATOMS}'send' or 'receive' or 'scatter' or 'gather'"
            " or 'bcast' or 'allreduce')",
        ),
        ("message.cty", "nprocs 2.\nmessage(0,1).end\n", "2:12: unexpected ')' (expected ',')"),
        (
            "message_dtype.cty",
            "nprocs 2.\nmessage(0,1,MPI_DOUBLE,1).end\n",
            f"2:13: unexpected 'MPI_DOUBLE' {_NOT_DTYPE}",
        ),
        (
            "send.cty",
            "nprocs 2.\nsend(1,MPI_INT,1).end\n",
            f"2:1: unexpected 'send' {_ATOMS}'message' or 'scatter' or 'gather' or 'bcast'"
            " or 'allreduce')",
        ),
        (
            "scatter.cty",
            "nprocs 2.\nscatter(end,MPI_INT,1).end\n",
            f"2:9: unexpected 'end' {_NOT_EXPR}",
        ),
        (
            "allreduce.cty",
            "nprocs 2.\nallreduce(MPI_FLOAT,,MPI_MAX).end\n",
            f"2:21: unexpected ',' {_NOT_EXPR}",
        ),
        (
            "gather.cty",
            "nprocs 2.\nbcast(0,MPI_INT,1).gather(0,MPI_FLOAT,2,3).end\n",
            "2:40: unexpected ',' (expected ')')",
        ),
        (
            "send.mmp",
            _program("send root=0 buf=b len=1"),
            "3:6: unexpected 'root' (expected 'peer')",
        ),
        (
            "recv.mmp",
            _program("recv root=0 buf=b len=1"),
            "3:6: unexpected 'root' (expected 'peer')",
        ),
        ("recv_eq.mmp", _program("recv peer 1 buf=b len=1"), "3:11: unexpected '1' (expected '=')"),
        (
            "scatter.mmp",
            _program("scatter peer=0 buf=b len=1"),
            "3:9: unexpected 'peer' (expected 'root')",
        ),
        ("gather.mmp", _program("gather root=0 len=1"), "3:15: unexpected 'len' (expected 'buf')"),
        (
            "bcast.mmp",
            _program("bcast root=0 buf=b"),
            "4:1: unexpected 'finalize' (expected 'len')",
        ),
        (
            "send_buf.mmp",
            _program("send peer=1 buf=1 len=1"),
            "3:17: unexpected '1' (expected an identifier)",
        ),
        (
            "allreduce.mmp",
            _program("allreduce buf=b len=1"),
            "4:1: unexpected 'finalize' (expected 'op')",
        ),
        (
            "allreduce_op.mmp",
            _program("allreduce buf=b len=1 op=ADD"),
            "3:26: reduce op must be MAX, MIN, or SUM",
        ),
        (
            "allreduce_root.mmp",
            _program("allreduce root=0 buf=b len=1 op=SUM"),
            "3:11: unexpected 'root' (expected 'buf')",
        ),
    ],
)
def test_syntax_error_line_for_every_atom_and_statement_kind(ring, capsys, name, text, message):
    path = ring / name
    path.write_text(text)
    argv = {
        ".clt": ["simulate", str(path)],
        ".cty": ["validate", str(path)],
        ".mmp": ["verify", str(path), str(ring / "ring.cty"), "--param", "size=9"],
    }[path.suffix]
    assert run(capsys, *argv) == (EXIT_FAIL, "", f"{path}: syntax error: {message}\n")


_MALFORMED = Path(__file__).parent / "malformed"


@pytest.mark.parametrize(
    "name, message",
    [
        ("at_line_start.cty", "2:1: unexpected character '@'"),
        ("at_line_start.clt", "2:1: unexpected character '`'"),
        ("at_line_start.mmp", "3:1: unexpected character '^'"),
        ("after_tab.cty", "2:2: unexpected character '#'"),
        ("after_tab.clt", "3:3: unexpected character '\"'"),
        ("after_tab.mmp", "3:26: unexpected character ';'"),
        ("after_comment.cty", "2:1: unexpected character '$'"),
        ("after_comment.clt", "3:1: unexpected character \"'\""),
        ("after_comment.mmp", "4:1: unexpected character '#'"),
        ("last_line_no_newline.cty", "2:5: unexpected character '~'"),
        ("last_line_no_newline.clt", "3:1: unexpected character '\\\\'"),
        ("last_line_no_newline.mmp", "3:10: unexpected character '@'"),
        ("crlf_lines.cty", "3:5: unexpected character '?'"),
        ("accented_ident.cty", "1:10: unexpected character 'é'"),
        ("after_unicode_digit.cty", "1:8: unexpected character '٣'"),
        ("nbsp_between_tokens.cty", "2:24: unexpected character '\\xa0'"),
        ("line_separator_between_tokens.mmp", "3:18: unexpected character '\\u2028'"),
        ("empty.cty", "1:1: unexpected end of input (expected 'nprocs')"),
        ("only_comment.cty", "1:25: unexpected end of input (expected 'nprocs')"),
        ("cut_in_atom.cty", f"2:21: unexpected end of input {_NOT_EXPR}"),
        (
            "trailing_comment_cut.cty",
            f"2:36: unexpected end of input {_ATOMS}'message' or 'scatter' or 'gather'"
            " or 'bcast' or 'allreduce')",
        ),
        (
            "cut_in_loop.clt",
            f"2:1: unexpected end of input {_ATOMS}'send' or 'receive' or 'scatter'"
            " or 'gather' or 'bcast' or 'allreduce')",
        ),
        ("cut_after_init.mmp", "3:1: program must contain 'finalize'"),
        ("no_init.mmp", "2:1: program must contain 'init'"),
        ("int_out_of_range.cty", "2:21: integer literal 99999999999999999999 out of range"),
        ("nprocs_out_of_range.cty", "1:8: integer literal 9223372036854775808 out of range"),
        ("int_out_of_range.clt", "1:16: integer literal 18446744073709551616 out of range"),
        ("int_out_of_range.mmp", "3:23: integer literal 99999999999999999999 out of range"),
        ("deep_loops.cty", "2:1001: nesting too deep"),
        ("deep_parens.clt", "1:215: nesting too deep"),
        ("deep_blocks.mmp", "203:10: nesting too deep"),
        ("reserved_param.cty", "1:4: 'loop' is reserved"),
        ("reserved_keyword.mmp", "1:8: 'send' is reserved"),
        ("reserved_predefined.mmp", "1:7: 'me' is predefined and cannot be declared"),
    ]
    + [
        # past the 4,300 digits `int` converts by default
        pytest.param(name, f"{at}: integer literal {'9' * 5000} out of range", id=name)
        for name, at in (
            ("int_5000_digits.cty", "2:21"),
            ("int_5000_digits.clt", "1:16"),
            ("int_5000_digits.mmp", "3:23"),
        )
    ],
)
def test_syntax_error_line_for_each_malformed_file(ring, capsys, name, message):
    text = (_MALFORMED / name).read_text()
    test_syntax_error_line_for_every_atom_and_statement_kind(ring, capsys, name, text, message)


@pytest.mark.parametrize("sign", ["", "+", "-"])
@pytest.mark.parametrize("digits", [641, 5000])
def test_a_param_of_too_many_digits_is_a_usage_error(ring, capsys, sign, digits):
    value = sign + "9" * digits
    for argv in (["--param", f"size={value}"], ["--manifest", str(ring / "params.txt")]):
        (ring / "params.txt").write_text(f"size = {value}\n")
        code, out, err = run(capsys, "validate", str(ring / "ring.cty"), *argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"error: parameter 'size' has {digits} digits, past the 64-bit range\n"


def test_leading_zeros_are_not_digits_of_an_integer_flag(ring, capsys):
    zeros = "0" * 5000
    code, out, _ = run(
        capsys, "simulate", str(ring / "ring.cty"), "--param", f"size={zeros}9",
        "--state-limit", f"{zeros}5", "--max-loop-iters", f"{zeros}1",
    )
    assert (code, out) == (EXIT_FAIL, "verdict: state-space-exceeded (limit 5, 5 states explored)\n")


def test_an_internal_error_exits_2_with_one_line(ring, capsys, monkeypatch):
    def overflow(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr("commcheck.cli.explore_all_tapes", overflow)
    code, out, err = run(capsys, "simulate", str(ring / "ring.cty"), "--param", "size=9")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: internal error: RecursionError: maximum recursion depth exceeded\n"


def _run_module(*argv: str) -> subprocess.CompletedProcess:
    """`python -m commcheck ARGV` in a child importing this package."""
    src = str(Path(commcheck.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "commcheck", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_python_dash_m_runs_the_cli_and_exits_with_its_code(ring):
    cty = ring / "ring.cty"
    proc = _run_module("validate", str(cty), "--param", "size=9")
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        EXIT_OK, f"{cty}: well-formed for 3 processes\n", ""
    )
    proc = _run_module()
    assert (proc.returncode, proc.stdout) == (EXIT_USAGE, "")
    assert proc.stderr.startswith("usage: commcheck")


# -- one parser per process ------------------------------------------------------

# Counts the argparse parsers built in a fresh interpreter: after the
# import, then after each of 20 calls of `main`.
_COUNT_PARSERS = """
import argparse, io, sys
from contextlib import redirect_stderr, redirect_stdout

built = 0
base_init = argparse.ArgumentParser.__init__

def counting_init(self, *args, **kwargs):
    global built
    built += 1
    base_init(self, *args, **kwargs)

argparse.ArgumentParser.__init__ = counting_init
import commcheck.cli
counts = [built]
cty, absent = sys.argv[1:]
calls = [
    ["validate", cty, "--param", "size=9"],
    ["simulate", cty, "--param", "size=9", "--report"],
    ["verify", "--help"],
    ["bogus"],
    ["validate", absent],
]
for k in range(20):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        commcheck.cli.main(calls[k % len(calls)])
    counts.append(built)
print(counts)
"""


@pytest.fixture(scope="module")
def parsers_built(tmp_path_factory) -> list[int]:
    # The child imports the same package as this process, installed or not.
    src = str(Path(commcheck.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    cty = tmp_path_factory.mktemp("count") / "ring.cty"
    cty.write_text(bundled_text("fdiff.cty"))
    proc = subprocess.run(
        [sys.executable, "-c", _COUNT_PARSERS, str(cty), str(cty.parent / "absent.cty")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_importing_the_cli_builds_no_parser(parsers_built):
    assert parsers_built[0] == 0


def test_twenty_calls_build_the_parser_tree_once(parsers_built):
    # the root parser and one per subcommand, all on the first call
    assert parsers_built[1:] == [5] * 20


def test_no_option_carries_over_to_the_next_call(ring, capsys):
    cty = str(ring / "ring.cty")
    assert run(capsys, "validate", cty, "--param", "size=9", "--param", "a=1") == (
        EXIT_FAIL, "", f"{cty}: [unknown-parameter] 'a' is not a protocol parameter (at params)\n"
    )
    assert run(capsys, "validate", cty, "--param", "size=9") == (
        EXIT_OK, f"{cty}: well-formed for 3 processes\n", ""
    )
    assert run(capsys, "validate", cty) == (
        EXIT_USAGE,
        "",
        "error: missing value(s) for protocol parameter(s): size (use --param name=value)\n",
    )
    code, out, _ = run(capsys, "validate", cty, "--param", "size=7", "--report")
    assert (code, out) == (
        EXIT_FAIL, "-:5.4:refinement-violated:value 7 does not satisfy the kind of 'size'\n"
    )
    code, out, _ = run(capsys, "validate", cty, "--param", "size=7")
    assert (code, out) == (EXIT_FAIL, "")


@pytest.mark.parametrize(
    "bad",
    [
        ["simulate", "{cty}", "--param", "size=9", "--max-loop-iters", "-1"],
        ["bogus", "{cty}"],
        ["validate", "{absent}", "--param", "size=9", "--report"],
        ["verify", "{cty}"],
    ],
)
def test_a_usage_error_leaves_the_next_call_unchanged(ring, capsys, bad):
    cty = str(ring / "ring.cty")
    good = ("verify", str(ring / "ring.mmp"), cty, "--param", "size=9")
    want = (EXIT_OK, f"{ring / 'ring.mmp'}: compliant with {cty} on all 3 ranks\n", "")
    assert run(capsys, *good) == want
    argv = [arg.format(cty=cty, absent=ring / "absent.cty") for arg in bad]
    assert run(capsys, *argv)[0] == EXIT_USAGE
    assert run(capsys, *good) == want


_HELP_AND_USAGE_ERRORS = [
    ["--help"],
    ["validate", "--help"],
    ["project", "--help"],
    ["verify", "--help"],
    ["simulate", "--help"],
    [],
    ["bogus"],
    ["validate"],
    ["verify", "a.mmp"],
    ["simulate", "a.cty", "--max-loop-iters", "-1"],
    ["simulate", "a.cty", "--state-limit", "many"],
    ["project", "a.cty", "--unknown"],
]


def _fresh_parse(capsys, argv):
    """`main`'s result and output, from a freshly built parser."""
    with pytest.raises(SystemExit) as err:
        build_arg_parser().parse_args(argv)
    captured = capsys.readouterr()
    return EXIT_OK if err.value.code in (0, None) else EXIT_USAGE, captured.out, captured.err


def test_the_shared_parser_formats_help_and_usage_errors_like_a_fresh_one(capsys, monkeypatch):
    main(["--help"])  # the shared parser exists before the width changes
    capsys.readouterr()
    seen = {}
    for columns in ("40", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        for argv in _HELP_AND_USAGE_ERRORS:
            seen[columns, *argv] = run(capsys, *argv)
            assert seen[columns, *argv] == _fresh_parse(capsys, argv), (columns, argv)
    # each width shows in the text, so both comparisons mean something
    for argv in _HELP_AND_USAGE_ERRORS[:5]:
        assert seen["40", *argv] != seen["200", *argv], argv


# -- module entry point -----------------------------------------------------------


def test_python_dash_m_entry(ring):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import commcheck

    # The child imports the same package as this process, installed or not.
    src = str(Path(commcheck.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "commcheck", "validate", str(ring / "ring.cty"),
         "--param", "size=9"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == EXIT_OK
    assert "well-formed" in proc.stdout
