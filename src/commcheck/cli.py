"""Command-line interface.

Subcommands map onto the pipeline stages: `validate` (parse a protocol
and check well-formedness under an instantiation), `project` (write
per-rank local views), `verify` (check a program against a protocol),
and `simulate` (exhaustive deadlock search over local views).

Exit codes: 0 on success, 1 when verification or simulation finds a
defect (including a syntax error and an exceeded state budget, which is
reported as its own verdict), 2 on usage or I/O errors such as an
unreadable file or a missing parameter value, and on internal errors,
which print one `error: internal error: ...` line instead of a traceback.

Human-readable diagnostics go to stderr. With --report, one
machine-readable line per diagnostic goes to stdout in the form
`rank:line.col:code:message` (rank `-` for whole-protocol findings).

The argument parser is built once per process, on the first call of
`main`, and reused by every later call; importing this module builds
none.
"""

from __future__ import annotations

import argparse
import re
import sys
from functools import cache, partial
from pathlib import Path

from .checker import IllFormedProtocol, check_compliance
from .exprs import Env, ExprError
from .lexer import ParseError
from .parser import parse_local_term, parse_protocol
from .printer import format_term
from .program import parse_program
from .projection import project_all
from .sim import (
    AllDone,
    Deadlock,
    DEFAULT_STATE_LIMIT,
    SimVerdict,
    StateSpaceExceeded,
    explore_all_tapes,
    format_trail,
)
from .terms import Protocol, ground_term
from .wf import Diagnostic, check_wf

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


class _UsageError(Exception):
    pass


class _Failed(Exception):
    """The input has a defect, already reported on stderr."""


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as err:
        raise _UsageError(f"cannot read {path}: {err}") from None


def _parse_params(pairs: list[str], manifest: str | None) -> Env:
    inst: Env = {}
    if manifest:
        for lineno, raw in enumerate(_read_text(manifest).splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise _UsageError(f"{manifest}:{lineno}: expected name=value")
            name, value = line.split("=", 1)
            inst[name.strip()] = _int_value(name.strip(), value.strip())
    for pair in pairs:
        if "=" not in pair:
            raise _UsageError(f"--param expects name=value, got '{pair}'")
        name, value = pair.split("=", 1)
        inst[name] = _int_value(name, value)
    return inst


# An integer on the command line, a parameter value or a flag's N:
# ASCII decimal digits with an optional sign, read as the protocol's
# integer literals are (`09` is 9). `0x9`, `9_0`, Unicode digits and
# surrounding spaces are refused, and so are more than 640 digits after
# the leading zeros (the groups): no interpreter limits `int` and `str`
# to fewer, and 20 digits are past the signed 64-bit range already.
_INT_VALUE = re.compile(r"([+-]?)0*([0-9]+)")
_MAX_DIGITS = 640


def _int_value(name: str, value: str) -> int:
    m = _INT_VALUE.fullmatch(value)
    if m is None:
        raise _UsageError(f"parameter '{name}' needs an integer value, got '{value}'")
    if len(m[2]) > _MAX_DIGITS:
        raise _UsageError(f"parameter '{name}' has {len(m[2])} digits, past the 64-bit range")
    return int(m[1] + m[2])


def _parse(path: str, parse):
    """`parse` applied to the text of `path`; a syntax error is a defect."""
    try:
        return parse(_read_text(path))
    except ParseError as err:
        print(f"{path}: syntax error: {err}", file=sys.stderr)
        raise _Failed from None


def _require_params(protocol: Protocol, inst: Env) -> None:
    missing = [b.name for b in protocol.params if b.name not in inst]
    if missing:
        raise _UsageError(
            "missing value(s) for protocol parameter(s): "
            + ", ".join(missing)
            + " (use --param name=value)"
        )


def _emit(diags: list[Diagnostic], filename: str, report: bool) -> None:
    """Report each diagnostic on stderr, and with --report on stdout too;
    any is a defect."""
    for d in diags:
        print(d.render(filename), file=sys.stderr)
        if report:
            print(d.report_line())
    if diags:
        raise _Failed


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_validate(args) -> int:
    protocol = _parse(args.protocol, parse_protocol)
    inst = _parse_params(args.param, args.manifest)
    _require_params(protocol, inst)
    _emit(check_wf(protocol, inst).diagnostics, args.protocol, args.report)
    print(f"{args.protocol}: well-formed for {protocol.num_procs} processes")
    return EXIT_OK


def _cmd_project(args) -> int:
    protocol = _parse(args.protocol, parse_protocol)
    inst = _parse_params(args.param, args.manifest)
    _require_params(protocol, inst)
    _emit(check_wf(protocol, inst).diagnostics, args.protocol, args.report)
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise _UsageError(f"cannot create {out_dir}: {err}") from None
    views = project_all(protocol, inst)
    for rank in range(len(views)):
        path = out_dir / f"rank{rank}.clt"
        path.write_text(format_term(views[rank]) + "\n")
        print(path)
    return EXIT_OK


def _cmd_verify(args) -> int:
    protocol = _parse(args.protocol, parse_protocol)
    prog = _parse(args.program, parse_program)
    inst = _parse_params(args.param, args.manifest)
    _require_params(protocol, inst)
    missing = [name for name in prog.params if name not in inst]
    if missing:
        raise _UsageError(
            "missing value(s) for program parameter(s): " + ", ".join(missing)
        )
    try:
        result = check_compliance(prog, protocol, inst)
    except IllFormedProtocol as err:
        _emit(err.report.diagnostics, args.protocol, args.report)  # raises _Failed
    _emit(result.all_diagnostics(), args.program, args.report)
    print(f"{args.program}: compliant with {args.protocol} on all"
          f" {protocol.num_procs} ranks")
    return EXIT_OK


def _print_verdict(verdict: SimVerdict, witness_path: str | None) -> int:
    match verdict:
        case AllDone(states):
            print(f"verdict: all-done ({states} states explored)")
            return EXIT_OK
        case Deadlock(blocked, trail, _):
            print("verdict: deadlock")
            for rank, description in enumerate(blocked):
                print(f"  rank {rank}: {description}")
            text = format_trail(trail)
            if text:
                print("witness prefix:")
                for line in text.splitlines():
                    print(f"  {line}")
            if witness_path:
                Path(witness_path).write_text(text + ("\n" if text else ""))
                print(f"witness written to {witness_path}")
            return EXIT_FAIL
        case StateSpaceExceeded(limit, states):
            print(f"verdict: state-space-exceeded (limit {limit}, {states} states explored)")
            return EXIT_FAIL
    raise TypeError(f"not a verdict: {verdict!r}")


def _cmd_simulate(args) -> int:
    inst = _parse_params(args.param, args.manifest)
    paths = list(args.files)
    if len(paths) == 1 and paths[0].endswith(".cty"):
        protocol = _parse(paths[0], parse_protocol)
        _require_params(protocol, inst)
        _emit(check_wf(protocol, inst).diagnostics, paths[0], args.report)
        views = list(project_all(protocol, inst).by_rank)
    else:
        views = []
        for path in paths:
            term = _parse(path, parse_local_term)
            try:
                term = ground_term(term, inst)
            except ExprError as err:
                raise _UsageError(f"{path}: cannot ground local type: {err}") from None
            views.append(term)
    verdict = explore_all_tapes(
        views, args.max_loop_iters, state_limit=args.state_limit, por=True
    )
    return _print_verdict(verdict, args.witness)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="bind a protocol or program parameter (repeatable)",
    )
    sub.add_argument(
        "--manifest",
        metavar="FILE",
        help="file of name=value parameter bindings, one per line",
    )
    sub.add_argument(
        "--report",
        action="store_true",
        help="also print machine-readable rank:line.col:code:message lines",
    )


def _int_at_least(low: int, text: str) -> int:
    m = _INT_VALUE.fullmatch(text)
    if m is None:
        # the message argparse gives for `type=int`
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if len(m[2]) > _MAX_DIGITS:
        raise argparse.ArgumentTypeError(f"N must have at most {_MAX_DIGITS} digits, got {len(m[2])}")
    value = int(m[1] + m[2])
    if value < low:
        raise argparse.ArgumentTypeError(f"N must be >= {low}, got {value}")
    return value


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="commcheck",
        description="Protocol checking, projection, and deadlock search"
        " for SPMD message-passing programs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="parse a protocol and check well-formedness")
    p_validate.add_argument("protocol", help="protocol file (.cty)")
    _add_common(p_validate)

    p_project = sub.add_parser("project", help="write per-rank local views")
    p_project.add_argument("protocol", help="protocol file (.cty)")
    p_project.add_argument("--out", default=".", metavar="DIR", help="output directory")
    _add_common(p_project)

    p_verify = sub.add_parser("verify", help="check a program against a protocol")
    p_verify.add_argument("program", help="program file (.mmp)")
    p_verify.add_argument("protocol", help="protocol file (.cty)")
    _add_common(p_verify)

    p_sim = sub.add_parser(
        "simulate",
        help="exhaustive deadlock search over a protocol or local views",
    )
    p_sim.add_argument(
        "files",
        nargs="+",
        help="one protocol file (.cty), or one local view file (.clt) per rank",
    )
    p_sim.add_argument(
        "--max-loop-iters",
        type=partial(_int_at_least, 0),
        default=2,
        metavar="N",
        help="enter each loop at most N >= 0 consecutive times (default 2);"
        " with 0 no loop is entered, so deadlocks inside loop bodies are not searched."
        " Both branches of every choice are searched at any N",
    )
    p_sim.add_argument(
        "--state-limit",
        type=partial(_int_at_least, 1),
        default=DEFAULT_STATE_LIMIT,
        metavar="N",
        help=f"state budget N >= 1 before giving up (default {DEFAULT_STATE_LIMIT})",
    )
    p_sim.add_argument("--witness", metavar="FILE", help="write a deadlock witness trail here")
    _add_common(p_sim)

    return parser


# One parser serves every call of `main`: parsing writes into a fresh
# Namespace, the append action copies `--param`'s default list before
# appending, and help and usage read the terminal width when formatted.
_shared_parser = cache(build_arg_parser)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as err:
        # argparse exits 2 on bad usage; normalize other exits too.
        return EXIT_USAGE if err.code not in (0, None) else EXIT_OK
    handlers = {
        "validate": _cmd_validate,
        "project": _cmd_project,
        "verify": _cmd_verify,
        "simulate": _cmd_simulate,
    }
    try:
        return handlers[args.command](args)
    except _Failed:
        return EXIT_FAIL
    except (_UsageError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as err:
        # Exit 1 means a defect was found; a fault of the program must
        # not read as one.
        print(f"error: internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
