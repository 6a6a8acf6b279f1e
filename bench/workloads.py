"""The four workloads as lists of operations.

An operation is one call a user makes and waits for: a CLI command, or
one pipeline stage through the library. `call` is timed and receives the
namespace of program functions to call, plain or traced (`spans.py`). `check` is not
timed: it checks the output and may leave files or terms for a later
operation of the same instance. Operations of one instance run in order,
each after the previous one has returned.
"""

from __future__ import annotations

import io
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import commcheck
from commcheck.checker import erase_to_trace
from commcheck.printer import format_term
from commcheck.program import parse_program
from commcheck.sim import loop_tape, trace_to_term

import checks
import gen
from checks import require

FDIFF_SIZES = 16
MAX_LOOP_ITERS = 2  # the CLI's default


@dataclass
class Op:
    label: str
    call: Callable
    check: Callable[[object], None]


def build(name: str, seed: int, work: Path) -> list[Op]:
    """Generate the workload's inputs from `seed`, write its files under
    `work`, and return one pass of its operations."""
    rng = random.Random(seed)
    if name == "fdiff-cli":
        return _fdiff_cli(rng, work)
    if name == "chain":
        instances = [gen.chain(rng, n) for n in gen.CHAIN_LADDER]
        # The planted deadlock runs on the shortest rung only: on the longer
        # ones it would double the search time the ladder already measures.
        ops = pipeline(instances[0], work, search="tape", stages=("lex",) + STAGES)
        for ins in instances[1:]:
            ops += pipeline(ins, work, search="tape", stages=("lex",) + STAGES[:-2])
        long = gen.chain(random.Random(gen.CHAIN_LONG_SEED), gen.CHAIN_LONG)
        return ops + pipeline(long, work, stages=("parse", "project"))
    if name == "pairs":
        instances = [gen.pairs(rng, p, k) for p, k in gen.PAIRS_GRID]
        return [op for ins in instances for op in pipeline(ins, work)]
    if name == "corpus":
        instances = [gen.corpus(rng, i) for i in range(gen.CORPUS_SIZE)]
        return [op for ins in instances for op in pipeline(ins, work)]
    raise ValueError(f"unknown workload {name!r}")


def cli(api, args: list) -> tuple[int, str, str]:
    """`commcheck ARGS` in this process, with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = api.cli_main([str(a) for a in args])
    return code, out.getvalue(), err.getvalue()


def _replay_witness(api, view_paths: list[Path], witness: Path):
    """Replay a witness file against the `.clt` views it was found on."""
    views = [api.parser_parse_local_term(p.read_text()) for p in view_paths]
    trail = api.sim_parse_trail(witness.read_text())
    return api.sim_replay(views, trail)


def _check_cycle(state) -> None:
    checks.check_send_cycle([format_term(t) for t in state.residues])


def _check_deadlock(result) -> None:
    code, out, err = result
    checks.check_exit(code, 1, "simulate", err)
    checks.check_cli_verdict(out, "deadlock")


# ---------------------------------------------------------------------------
# fdiff-cli: the bundled ring through the command line
# ---------------------------------------------------------------------------


def _fdiff_cli(rng: random.Random, work: Path) -> list[Op]:
    bundled = Path(commcheck.__file__).parent / "bundled"
    cty, good, flat = bundled / "fdiff.cty", bundled / "fdiff.mmp", bundled / "fdiff_flat.mmp"
    flat_text = flat.read_text()
    flat_program = parse_program(flat_text)
    first_flat_send = checks.line_of(flat_text, "send peer=left")
    goldens = [(bundled / f"fdiff_rank{r}.clt").read_text() for r in range(3)]
    sizes = sorted(3 * s for s in rng.sample(range(1, 1001), FDIFF_SIZES))

    def for_size(size: int) -> list[Op]:
        here = work / f"fdiff{size}"
        views, flat_dir = here / "views", here / "flat"
        flat_dir.mkdir(parents=True)
        flat_views = []
        for rank in range(3):
            # One loop iteration, then the gather branch.
            actions = erase_to_trace(flat_program, rank, {"size": size, "np": 3}, loop_tape(1, True))
            path = flat_dir / f"rank{rank}.clt"
            path.write_text(format_term(trace_to_term(actions)) + "\n")
            flat_views.append(path)
        witness = here / "witness.txt"
        param = ["--param", f"size={size}"]

        def exits(want: int, what: str):
            return lambda r: checks.check_exit(r[0], want, what, r[2])

        def check_project(result) -> None:
            checks.check_exit(result[0], 0, "project", result[2])
            for rank, golden in enumerate(goldens):
                checks.check_golden_view(golden, (views / f"rank{rank}.clt").read_text(), size)

        def check_simulate(result) -> None:
            checks.check_exit(result[0], 0, "simulate", result[2])
            checks.check_cli_verdict(result[1], "all-done")

        def check_flat_verify(result) -> None:
            checks.check_exit(result[0], 1, "verify fdiff_flat.mmp", result[2])
            checks.check_report(result[1], 1, first_flat_send, "head-mismatch:kind")

        def check_flat_simulate(result) -> None:
            _check_deadlock(result)
            blocked = [line for line in result[1].splitlines() if line.startswith("  rank ")]
            require(
                len(blocked) == 3 and all("blocked sending" in line for line in blocked),
                f"expected all three ranks blocked sending, got {blocked}",
            )

        label = f"fdiff{size}"
        return [
            Op(f"{label}.validate", lambda api: cli(api, ["validate", cty, *param]), exits(0, "validate")),
            Op(f"{label}.project", lambda api: cli(api, ["project", cty, *param, "--out", views]), check_project),
            Op(f"{label}.verify", lambda api: cli(api, ["verify", good, cty, *param]), exits(0, "verify")),
            Op(f"{label}.simulate", lambda api: cli(api, ["simulate", cty, *param]), check_simulate),
            Op(
                f"{label}.verify-flat",
                lambda api: cli(api, ["verify", flat, cty, *param, "--report"]),
                check_flat_verify,
            ),
            Op(
                f"{label}.simulate-flat",
                lambda api: cli(api, ["simulate", *flat_views, "--witness", witness]),
                check_flat_simulate,
            ),
            Op(f"{label}.replay-flat", lambda api: _replay_witness(api, flat_views, witness), _check_cycle),
        ]

    return [op for size in sizes for op in for_size(size)]


# ---------------------------------------------------------------------------
# chain, pairs, corpus: generated protocols through the library
# ---------------------------------------------------------------------------

STAGES = ("print", "parse", "wf", "project", "verify", "mutant", "search", "deadlock", "replay")


def pipeline(ins: gen.Instance, work: Path, search: str = "all-tapes", stages=STAGES) -> list[Op]:
    """The operations of `stages` that apply to `ins`, in that order.

    `print` applies when the instance comes as terms, and `mutant` when
    it has a mutant program. `search` picks the search entry point:
    every decision tape (`all-tapes`), or the empty tape (`tape`), which
    suffices when the protocol has no decisions.
    """
    here = work / ins.name
    here.mkdir(parents=True)
    state: dict = {"text": ins.text}
    planted = [here / f"planted{r}.clt" for r in range(ins.num_procs)]
    witness = here / "witness.txt"
    cty = here / "protocol.cty"
    mutant = here / "mutant.mmp"
    if ins.text:
        cty.write_text(ins.text)
    if ins.mutant:
        mutant.write_text(ins.mutant)

    def print_check(text: str) -> None:
        state["text"] = text

    def parse_check(protocol) -> None:
        require(protocol.num_procs == ins.num_procs, f"parsed {protocol.num_procs} ranks")
        if ins.protocol is not None:
            require(protocol == ins.protocol, "print then parse does not give the protocol back")
        state["protocol"] = protocol

    def wf_check(report) -> None:
        require(report.ok, "; ".join(report.render_lines())[:300])

    def project(api):
        views = list(api.projection_project_all(state["protocol"], ins.inst))
        return views, [api.printer_format_term(v) for v in views]

    def project_check(result) -> None:
        views, texts = result
        checks.check_views(ins.views, texts)
        state["views"] = views
        # The planted views: each rank's view, then a send to the next
        # rank that nobody receives.
        n = ins.num_procs
        for rank, text in enumerate(texts):
            body, end = text.rsplit("end", 1)
            require(not end.strip(), f"rank {rank} view does not end with end")
            planted[rank].write_text(f"{body}send({(rank + 1) % n},MPI_INT,1).\nend\n")

    def verify(api):
        return api.checker_check_compliance(api.program_parse_program(ins.program), state["protocol"], ins.inst)

    def verify_check(report) -> None:
        require(report.compliant, "; ".join(report.render_lines())[:300])

    def mutant_check(result) -> None:
        checks.check_exit(result[0], 1, "verify mutant", result[2])
        checks.check_report(result[1], ins.mutant_rank, ins.mutant_line, "head-mismatch:peer")

    def run_search(api):
        if search == "tape":
            return api.sim_simulate(state["views"], [])
        return api.sim_explore_all_tapes(state["views"], MAX_LOOP_ITERS)

    calls = {
        "print": (lambda api: api.printer_format_protocol(ins.protocol), print_check),
        "lex": (lambda api: api.lexer_tokenize(state["text"]), lambda t: checks.check_tokens(state["text"], t)),
        "parse": (lambda api: api.parser_parse_protocol(state["text"]), parse_check),
        "wf": (lambda api: api.wf_check_wf(state["protocol"], ins.inst), wf_check),
        "project": (project, project_check),
        "verify": (verify, verify_check),
        "mutant": (lambda api: cli(api, ["verify", mutant, cty, "--report"]), mutant_check),
        "search": (run_search, lambda v: checks.check_verdict(v, "AllDone")),
        "deadlock": (lambda api: cli(api, ["simulate", *planted, "--witness", witness]), _check_deadlock),
        "replay": (lambda api: _replay_witness(api, planted, witness), _check_cycle),
    }
    wanted = [
        s
        for s in stages
        if (s != "print" or ins.protocol is not None) and (s != "mutant" or ins.mutant)
    ]
    return [Op(f"{ins.name}.{s}", *calls[s]) for s in wanted]
