"""The benchmark's own tests: every check accepts the program's right
answers and rejects wrong ones.

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import random
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402
from commcheck.lexer import tokenize  # noqa: E402
from commcheck.printer import format_term  # noqa: E402
from commcheck.sim import AllDone, explore_all_tapes, replay  # noqa: E402

API = spans.load_api()


def run_ops(ops, api=API) -> None:
    for op in ops:
        op.check(op.call(api))


def op_named(ops, stage: str):
    return next(op for op in ops if op.label.endswith("." + stage))


def test_every_workload_passes_its_checks_on_small_inputs(tmp_path):
    rng = random.Random(5)
    instances = [gen.chain(rng, 12), gen.pairs(rng, 4, 2), *(gen.corpus(rng, i) for i in range(8))]
    for ins in instances:
        stages = ("lex",) + workloads.STAGES if ins.mutant else workloads.STAGES
        run_ops(workloads.pipeline(ins, tmp_path, stages=stages))
    run_ops(workloads.build("fdiff-cli", 5, tmp_path / "fdiff")[:7])


def test_chain_has_one_schedule_and_pairs_grow_as_powers_of_two(tmp_path):
    ins = gen.chain(random.Random(3), 40)
    ops = workloads.pipeline(ins, tmp_path, stages=("parse", "project", "search"))
    run_ops(ops[:2])
    verdict = ops[2].call(API)
    assert verdict == AllDone(41)
    ins = gen.pairs(random.Random(3), 8, 1)
    ops = workloads.pipeline(ins, tmp_path, stages=("parse", "project", "search"))
    run_ops(ops[:2])
    # loop decision, 2^4 interleavings per iteration, two iterations.
    assert ops[2].call(API).states_explored > 2 * 2**4


def test_view_check_rejects_a_missing_or_changed_atom():
    want = [["send(1,MPI_INT,3)", "receive(1,MPI_FLOAT,0)"]]
    checks.check_views(want, ["send(1,MPI_INT,3).\nreceive(1, MPI_FLOAT, 0).\nend"])
    with pytest.raises(CheckFailed):
        checks.check_views(want, ["send(1,MPI_INT,3).\nend"])
    with pytest.raises(CheckFailed):
        checks.check_views(want, ["send(2,MPI_INT,3).\nreceive(1,MPI_FLOAT,0).\nend"])
    with pytest.raises(CheckFailed):
        checks.check_views(want + want, ["send(1,MPI_INT,3).\nreceive(1,MPI_FLOAT,0).\nend"])


def test_golden_check_rejects_a_wrong_length():
    golden = "// rank 0\nscatter(0,MPI_FLOAT,size/3).\nend\n"
    checks.check_golden_view(golden, "scatter(0,MPI_FLOAT,3).\nend\n", 9)
    with pytest.raises(CheckFailed):
        checks.check_golden_view(golden, "scatter(0,MPI_FLOAT,9).\nend\n", 9)


def test_report_check_rejects_wrong_code_rank_line_or_extra_lines():
    line = "1:20.3:head-mismatch:kind:action send(0,MPI_FLOAT,1) does not match"
    checks.check_report(line + "\n", 1, 20, "head-mismatch:kind")
    for rank, at, code in ((1, 20, "head-mismatch:peer"), (2, 20, "head-mismatch:kind"), (1, 21, "head-mismatch:kind")):
        with pytest.raises(CheckFailed):
            checks.check_report(line, rank, at, code)
    with pytest.raises(CheckFailed):
        checks.check_report(line + "\n" + line.replace("1:", "0:", 1), 1, 20, "head-mismatch:kind")
    with pytest.raises(CheckFailed):
        checks.check_report("", 1, 20, "head-mismatch:kind")


def test_verdict_checks_reject_the_wrong_kind():
    checks.check_verdict(AllDone(3), "AllDone")
    with pytest.raises(CheckFailed):
        checks.check_verdict(AllDone(3), "Deadlock")
    checks.check_cli_verdict("verdict: deadlock\n", "deadlock")
    with pytest.raises(CheckFailed):
        checks.check_cli_verdict("verdict: all-done (3 states explored)\n", "deadlock")


def test_token_check_rejects_a_lost_token():
    text = "nprocs 2. // two ranks\nmessage(0,1,MPI_INT,4).\nend\n"
    tokens = tokenize(text)
    checks.check_tokens(text, tokens)
    with pytest.raises(CheckFailed):
        checks.check_tokens(text, tokens[:3] + tokens[4:])


def test_cycle_check_rejects_a_witness_that_stops_short(tmp_path):
    ins = gen.chain(random.Random(9), 10)
    ops = workloads.pipeline(ins, tmp_path, stages=("parse", "project", "deadlock", "replay"))
    run_ops(ops)
    planted = [API.parser_parse_local_term(p.read_text()) for p in sorted((tmp_path / ins.name).glob("planted*.clt"))]
    trail = explore_all_tapes(planted, 2).trail
    heads = [format_term(t) for t in replay(planted, trail).residues]
    checks.check_send_cycle(heads)
    short = [format_term(t) for t in replay(planted, trail[:-1]).residues]
    with pytest.raises(CheckFailed):
        checks.check_send_cycle(short)
    with pytest.raises(CheckFailed):
        checks.check_send_cycle(["send(1,MPI_INT,1).\nend", "end"])


def test_pipeline_checks_reject_wrong_answers(tmp_path):
    """Swap one layer for a wrong one and the stage that calls it fails its check."""
    rng = random.Random(11)
    corpus = gen.corpus(rng, 3)
    chain = gen.chain(rng, 12)
    other = gen.corpus(rng, 4)

    def wrong(**overrides):
        return SimpleNamespace(**{**vars(API), **overrides})

    cases = [
        (corpus, "parse", wrong(parser_parse_protocol=lambda text: other.protocol)),
        (chain, "project", wrong(printer_format_term=lambda t: "end")),
        (chain, "verify", wrong(program_parse_program=lambda text: API.program_parse_program(chain.mutant))),
        (chain, "search", wrong(sim_simulate=lambda views, tape: explore_all_tapes(views[:1] * 3, 2))),
        (chain, "mutant", wrong(cli_main=lambda args: 0)),
    ]
    for n, (ins, stage, api) in enumerate(cases):
        ops = workloads.pipeline(ins, tmp_path / str(n), search="tape" if ins is chain else "all-tapes")
        before = ops[: ops.index(op_named(ops, stage))]
        run_ops(before)
        op = op_named(ops, stage)
        with pytest.raises(CheckFailed):
            op.check(op.call(api))


def test_tracer_splits_time_into_layers_and_restores_the_package():
    import commcheck.cli
    import commcheck.checker

    tracer = spans.Tracer(API)
    original = commcheck.checker.project
    with tracer.active(memory=False) as api:
        assert commcheck.checker.project is not original
        text = (Path(commcheck.__file__).parent / "bundled" / "fdiff.cty").read_text()
        report = api.checker_check_compliance(
            api.program_parse_program((Path(commcheck.__file__).parent / "bundled" / "fdiff.mmp").read_text()),
            api.parser_parse_protocol(text),
            {"size": 9},
        )
        tracer.end_op()
    assert report.compliant
    assert commcheck.checker.project is original
    names = {s.name for s in tracer.spans}
    assert {"checker.check_compliance", "projection.project", "lexer.tokenize", "wf.check_wf"} <= names
    busy = tracer.busy_seconds()
    total = sum(s.end - s.start for s in tracer.spans if s.parent == -1)
    assert sum(busy.values()) == pytest.approx(total)
    assert tracer.counts["checker.ranks"] == 3
    assert tracer.counts["projection.local_atoms"] > 0
