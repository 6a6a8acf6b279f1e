"""End-to-end CLI behavior: exit codes, output formats, file round trips."""

from __future__ import annotations

import pytest

from commcheck.cli import EXIT_FAIL, EXIT_OK, EXIT_USAGE, main
from commcheck.parser import parse_local_term
from commcheck.sim import parse_trail
from commcheck.terms import ground_term

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


def test_manifest_params(ring, tmp_path, capsys):
    manifest = tmp_path / "params.txt"
    manifest.write_text("# instance\nsize = 9\n\n")
    code, out, _ = run(capsys, "validate", str(ring / "ring.cty"), "--manifest", str(manifest))
    assert code == EXIT_OK
    assert "well-formed" in out


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


def test_verify_program_syntax_error(ring, tmp_path, capsys):
    bad = tmp_path / "bad.mmp"
    bad.write_text("finalize\n")
    code, _, err = run(
        capsys, "verify", str(bad), str(ring / "ring.cty"), "--param", "size=9"
    )
    assert code == EXIT_FAIL
    assert "syntax error" in err


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


@pytest.mark.parametrize("limit", ["0", "-1"])
def test_simulate_rejects_a_state_limit_below_one(tmp_path, capsys, limit):
    (tmp_path / "a.clt").write_text("send(1,MPI_INT,1).end\n")
    (tmp_path / "b.clt").write_text("receive(0,MPI_INT,1).end\n")
    views = [str(tmp_path / "a.clt"), str(tmp_path / "b.clt")]
    code, out, err = run(capsys, "simulate", *views, "--state-limit", limit)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.splitlines()[-1].endswith(f"--state-limit: N must be >= 1, got {limit}")


def test_simulate_state_limit(ring, capsys):
    code, out, _ = run(
        capsys, "simulate", str(ring / "ring.cty"),
        "--param", "size=9", "--state-limit", "5",
    )
    assert code == EXIT_FAIL
    assert out.startswith("verdict: state-space-exceeded (limit 5,")


def test_simulate_ill_formed_protocol(ring, capsys):
    code, _, err = run(capsys, "simulate", str(ring / "ring.cty"), "--param", "size=7")
    assert code == EXIT_FAIL
    assert "refinement-violated" in err


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
