"""Correctness checks on the program's outputs.

Each check compares an output against the hand-written goldens, against
what a generator placed, or against a property the method must have. A
failed check raises `CheckFailed`. The checks read outputs in their
documented text forms (`.clt` views, `--report` lines, verdict lines),
not through the program's internal data structures.
"""

from __future__ import annotations

import re

_ATOM = re.compile(r"\b(send|receive|scatter|gather|bcast|allreduce)\(([^()]*)\)")
_COMMENT = re.compile(r"//[^\n]*")
_SEND_HEAD = re.compile(r"\s*send\((\d+),")


class CheckFailed(Exception):
    """An output of the program is wrong."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def squeeze(text: str) -> str:
    """`text` without comments and whitespace."""
    return re.sub(r"\s+", "", _COMMENT.sub("", text))


def view_atoms(text: str) -> list[str]:
    """The communication atoms of a `.clt` text, in text order."""
    return [f"{name}({''.join(args.split())})" for name, args in _ATOM.findall(text)]


def check_tokens(text: str, tokens) -> None:
    """A lexer must lose nothing but whitespace and comments."""
    require(tokens and tokens[-1].kind == "eof", "token list does not end with eof")
    joined = "".join(t.text for t in tokens)
    require(joined == squeeze(text), "tokens do not spell out the input text")


def check_views(expected: list[list[str]], texts: list[str]) -> None:
    """Each rank's view holds exactly the atoms the generator placed."""
    require(len(texts) == len(expected), f"{len(texts)} views for {len(expected)} ranks")
    for rank, (want, text) in enumerate(zip(expected, texts)):
        got = view_atoms(text)
        if got != want:
            at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
            raise CheckFailed(
                f"rank {rank} view differs at atom {at}: got {got[at:at + 1]},"
                f" expected {want[at:at + 1]} ({len(got)} vs {len(want)} atoms)"
            )


def check_golden_view(golden: str, written: str, size: int) -> None:
    """A projected view equals the hand-written view grounded at `size`."""
    grounded = squeeze(golden).replace("size/3", str(size // 3))
    require(grounded == squeeze(written), f"view at size={size} differs from the golden view")


def check_exit(code: int, want: int, what: str, err: str = "") -> None:
    require(code == want, f"{what}: exit code {code}, expected {want}. {err.strip()[:200]}")


def check_report(out: str, rank: int, line: int, code: str) -> None:
    """`--report` output is exactly one diagnostic: `code` on `rank` at `line`."""
    reports = [r for r in out.splitlines() if re.match(r"^(\d+|-):\d+\.\d+:", r)]
    require(len(reports) == 1, f"expected one diagnostic, got {reports[:3]}")
    report = reports[0]
    code_and_message = report.split(":", 2)[2]
    require(
        report.startswith(f"{rank}:{line}.") and code_and_message.startswith(code + ":"),
        f"diagnostic {report!r}, expected {code} on rank {rank} at line {line}",
    )


def check_verdict(verdict, kind: str) -> None:
    require(type(verdict).__name__ == kind, f"verdict {verdict!r}, expected {kind}")


def check_cli_verdict(out: str, verdict: str) -> None:
    require(f"verdict: {verdict}" in out, f"expected verdict {verdict}, got {out[:200]!r}")


def check_send_cycle(heads: list[str]) -> None:
    """At a replayed deadlock every rank's head is a send whose target's
    head is also a send, so the ranks wait on each other in a cycle.

    `heads` holds each rank's residue rendered as `.clt` text.
    """
    targets = []
    for rank, text in enumerate(heads):
        m = _SEND_HEAD.match(text)
        require(m is not None, f"rank {rank} is not blocked in a send: {text[:60]!r}")
        targets.append(int(m.group(1)))
    for rank, target in enumerate(targets):
        require(0 <= target < len(heads), f"rank {rank} sends to missing rank {target}")


def line_of(text: str, needle: str) -> int:
    for lineno, line in enumerate(text.splitlines(), start=1):
        if needle in line:
            return lineno
    raise CheckFailed(f"{needle!r} not found")
