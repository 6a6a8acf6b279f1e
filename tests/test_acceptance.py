"""Acceptance gate: seven end-to-end criteria over the ring example and
randomized corpora, each with a pinned runtime budget. One pass/fail line
per criterion is printed in the terminal summary."""

from __future__ import annotations

import random
import time

import pytest

from commcheck.checker import check_compliance, erase_to_trace
from commcheck.exprs import Lit
from commcheck.parser import parse_local_term, parse_protocol
from commcheck.printer import format_protocol
from commcheck.program import parse_program
from commcheck.projection import project_all
from commcheck.sim import AllDone, Deadlock, explore_all_tapes, loop_tape, simulate, trace_to_term
from commcheck.terms import Choice, DataKind, End, Loop, Prefix, Scatter, comm_of, ground_term
from commcheck.typestate import (
    NotAPrefix,
    StepError,
    choice_branches,
    first,
    loop_body,
    next_type,
    step,
)

from conftest import bundled_text
from proto_gen import random_action, random_local_term, random_protocol


class timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


def line_of(text: str, needle: str) -> int:
    for lineno, line in enumerate(text.splitlines(), start=1):
        if needle in line:
            return lineno
    raise AssertionError(f"{needle!r} not found")


def test_criterion_1_golden_projection(acceptance, fdiff_protocol_text):
    with acceptance(1, "golden projection"):
        with timer() as t:
            proto = parse_protocol(fdiff_protocol_text)
            views = project_all(proto, {"size": 9})
            for rank in (0, 1):
                golden = ground_term(
                    parse_local_term(bundled_text(f"fdiff_rank{rank}.clt")), {"size": 9}
                )
                assert views[rank] == golden
            # parameterized lengths are evaluated, not kept symbolic
            head = views[0].atom
            assert head == Scatter(Lit(0), DataKind.FLOAT, Lit(3))
        assert t.elapsed < 1.0


def test_criterion_2_running_example_verification(
    acceptance, fdiff_protocol_text, fdiff_program_text
):
    with acceptance(2, "running-example verification"):
        proto = parse_protocol(fdiff_protocol_text)
        prog = parse_program(fdiff_program_text)
        for size in (3, 9, 300):
            with timer() as t:
                report = check_compliance(prog, proto, {"size": size})
                assert report.compliant, (size, report.render_lines())
            assert t.elapsed < 1.0, size


def test_criterion_3_deadlock_mutation_oracle(
    acceptance, fdiff_program_text, fdiff_flat_program_text
):
    with acceptance(3, "deadlock mutation oracle"):
        with timer() as t:
            env = {"size": 9, "np": 3}
            flat = parse_program(fdiff_flat_program_text)
            traces = [
                trace_to_term(erase_to_trace(flat, r, env, loop_tape(1, True)))
                for r in range(3)
            ]
            verdict = simulate(traces, [])
            assert isinstance(verdict, Deadlock)

            good = parse_program(fdiff_program_text)
            for iters in (0, 1, 2):
                for gather_at_end in (True, False):
                    traces = [
                        trace_to_term(
                            erase_to_trace(good, r, env, loop_tape(iters, gather_at_end))
                        )
                        for r in range(3)
                    ]
                    verdict = simulate(traces, [])
                    assert isinstance(verdict, AllDone), (iters, gather_at_end, verdict)
        assert t.elapsed < 10.0


def test_criterion_4_checker_soundness_sampling(acceptance):
    with acceptance(4, "checker soundness sampling"):
        with timer() as t:
            rng = random.Random(20260815)
            verdicts = []
            for i in range(200):
                proto, env = random_protocol(rng, max_procs=4, max_depth=3, max_atoms=12)
                verdict = explore_all_tapes(list(project_all(proto, env)), 2)
                verdicts.append(verdict)
                assert isinstance(verdict, AllDone), (i, proto, env, verdict)
            assert all(isinstance(v, AllDone) for v in verdicts)
        assert t.elapsed < 60.0


def test_criterion_5_algebra_laws(acceptance):
    with acceptance(5, "algebra laws"):
        rng = random.Random(555)
        checked = 0
        while checked < 1000:
            t = random_local_term(rng)
            checked += 1

            # accessors are defined exactly on their constructors
            for accessor, ctor in (
                (first, Prefix),
                (loop_body, Loop),
                (choice_branches, Choice),
            ):
                if isinstance(t, ctor):
                    accessor(t)
                else:
                    with pytest.raises(NotAPrefix):
                        accessor(t)
            if isinstance(t, (Prefix, Loop, Choice)):
                next_type(t)
            else:
                with pytest.raises(NotAPrefix):
                    next_type(t)

            if isinstance(t, Prefix):
                # success exactly on the matching action, result == next
                good = comm_of(t.atom)
                assert step(t, good) == next_type(t)
                probe = random_action(rng)
                if probe == good:
                    assert step(t, probe) == next_type(t)
                else:
                    with pytest.raises(StepError):
                        step(t, probe)
            else:
                # no action can step a non-prefix
                with pytest.raises(StepError):
                    step(t, random_action(rng))


MUTATIONS = [
    (
        "peer rank",
        "head-mismatch:peer",
        lambda text: text.replace(
            "send peer=left buf=local len=1", "send peer=right buf=local len=1", 1
        ),
        "send peer=right buf=local len=1",
    ),
    (
        "datatype",
        "head-mismatch:dtype",
        lambda text: text.replace(
            "buffer gerr float[1]", "buffer gerr float[1]\nbuffer iwork int[size]", 1
        ).replace("gather root=0 buf=work len=lsize", "gather root=0 buf=iwork len=lsize", 1),
        "gather root=0 buf=iwork len=lsize",
    ),
    (
        "length",
        "head-mismatch:len",
        lambda text: text.replace(
            "recv peer=right buf=local len=1", "recv peer=right buf=local len=2", 1
        ),
        "recv peer=right buf=local len=2",
    ),
    (
        "missing coll_loop",
        "at-collective-boundary:loop",
        lambda text: text.replace("collloop {\n", "", 1).replace(
            "\n}\ncollchoice", "\ncollchoice", 1
        ),
        "send peer=left buf=local len=1",
    ),
    (
        "missing finalize-residual",
        "residual-not-end",
        lambda text: text.replace(
            "collchoice {\n  gather root=0 buf=work len=lsize\n} else {\n  compute\n}\n",
            "",
            1,
        ),
        "finalize",
    ),
]


def test_criterion_6_negative_diagnostic_precision(
    acceptance, fdiff_protocol_text, fdiff_program_text
):
    with acceptance(6, "negative-diagnostic precision"):
        proto = parse_protocol(fdiff_protocol_text)
        for label, want_code, surgery, at_stmt in MUTATIONS:
            mutated = surgery(fdiff_program_text)
            assert mutated != fdiff_program_text, label
            prog = parse_program(mutated)
            report = check_compliance(prog, proto, {"size": 9})
            assert not report.compliant, label
            want_line = line_of(mutated, at_stmt)
            hits = [
                d
                for d in report.all_diagnostics()
                if d.code == want_code and d.pos and d.pos.line == want_line
            ]
            assert hits, (
                label,
                want_code,
                want_line,
                [(d.code, d.pos) for d in report.all_diagnostics()],
            )


def test_criterion_7_parser_round_trip(acceptance, fdiff_protocol_text):
    with acceptance(7, "parser round-trip"):
        with timer() as t:
            ring = parse_protocol(fdiff_protocol_text)
            assert parse_protocol(format_protocol(ring)) == ring
            rng = random.Random(777)
            for _ in range(200):
                proto, _ = random_protocol(rng)
                assert parse_protocol(format_protocol(proto)) == proto
        assert t.elapsed < 5.0
