"""Well-formedness of a protocol under a concrete parameter instantiation.

Checks are reported as positioned diagnostics, never exceptions, and the
walk keeps going after a failure so one run surfaces every problem. A
protocol that passes is safe to project: every rank expression lands in
[0, num_procs), message endpoints are distinct, lengths are nonnegative,
and every parameter satisfies its declared kind.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass, field

from .exprs import (
    INT64_MAX,
    INT64_MIN,
    Env,
    ExprError,
    KindMismatch,
    Pos,
    check_refinement,
    eval_expr,
)
from .terms import COLLECTIVES, Loop, Prefix, Protocol, TypeTerm, spine

# Ensemble size must stay strictly inside these bounds.
MIN_PROCS = 1
MAX_PROCS = 32768


@dataclass(frozen=True, slots=True)
class Diagnostic:
    """One finding of `check_wf` or of the checker: a protocol finding
    names the `path` of the term it concerns, a program finding the
    `rank` whose walk found it."""

    code: str
    message: str
    pos: Pos | None = None
    _: KW_ONLY
    rank: int | None = None
    path: str | None = None

    def render(self, filename: str) -> str:
        """`file[:line:col]: [rank r: ][code] message[ (at path)]`."""
        loc = f"{filename}:{self.pos}" if self.pos else filename
        who = "" if self.rank is None else f"rank {self.rank}: "
        at = "" if self.path is None else f" (at {self.path})"
        return f"{loc}: {who}[{self.code}] {self.message}{at}"

    def report_line(self) -> str:
        """`rank:line.col:code:message`, with `-` for no rank and `0.0`
        for no position."""
        who = "-" if self.rank is None else self.rank
        pos = f"{self.pos.line}.{self.pos.col}" if self.pos else "0.0"
        return f"{who}:{pos}:{self.code}:{self.message}"


@dataclass
class WfReport:
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.diagnostics

    def render_lines(self, filename: str = "<protocol>") -> list[str]:
        return [d.render(filename) for d in self.diagnostics]


def check_wf(protocol: Protocol, inst: Env) -> WfReport:
    """Check `protocol` instantiated with the parameter values `inst`.

    The instantiation must bind exactly the declared parameters; missing
    and unknown names are themselves diagnostics.
    """
    report = WfReport()
    declared = {b.name for b in protocol.params}
    for name in sorted(set(inst) - declared):
        report.diagnostics.append(
            Diagnostic(
                "unknown-parameter", f"'{name}' is not a protocol parameter", path="params"
            )
        )

    env: Env = {}
    unusable = False  # some parameter is missing or outside the 64-bit range
    for binder in protocol.params:
        name = binder.name
        found: tuple[str, str] | None = None  # the parameter's one (code, message)
        if name not in inst:
            unusable = True
            found = ("missing-parameter", f"no value given for parameter '{name}'")
        else:
            value = inst[name]
            try:
                if not check_refinement(binder.kind, value, env):
                    found = (
                        "refinement-violated",
                        f"value {value} does not satisfy the kind of '{name}'",
                    )
            except KindMismatch:
                found = ("kind-not-integer", f"parameter '{name}' must have an integer-valued kind")
            except ExprError as err:
                found = ("eval-error", str(err))
                # The error may come from the refinement's predicate instead.
                unusable = unusable or not INT64_MIN <= value <= INT64_MAX
            # Bind even a bad value so later parameters still get checked.
            env[name] = value
        if found:
            report.diagnostics.append(Diagnostic(*found, binder.pos, path=f"param {name}"))

    if not (MIN_PROCS < protocol.num_procs < MAX_PROCS):
        report.diagnostics.append(
            Diagnostic(
                "procs-out-of-range",
                f"process count must lie strictly between {MIN_PROCS} and {MAX_PROCS},"
                f" got {protocol.num_procs}",
                path="nprocs",
            )
        )

    # With a parameter missing or out of range every use of it would fail
    # identically, so the body walk would only repeat the root cause back
    # as noise.
    if not unusable:
        _walk(protocol.body, "body", env, protocol.num_procs, report)
    return report


def _walk(t: TypeTerm, base: str, env: Env, num_procs: int, report: WfReport) -> None:
    for index, node in enumerate(spine(t)):
        if isinstance(node, Prefix):
            _check_atom(node.atom, base, index, env, num_procs, report)
        elif isinstance(node, Loop):
            _walk(node.body, f"{base}[{index}].loop", env, num_procs, report)
        else:
            _walk(node.true_branch, f"{base}[{index}].true", env, num_procs, report)
            _walk(node.false_branch, f"{base}[{index}].false", env, num_procs, report)


def _check_atom(atom, base: str, index: int, env: Env, num_procs: int, report: WfReport) -> None:
    """Check the atom at `base[index]`. Most atoms pass, so its problems
    are collected as (code, message) pairs and its path is written only
    when there are some."""
    found: list[tuple[str, str]] = []
    if atom.kind == "message":
        src, dst = atom.who
        s = _rank_of(src, "source rank", env, num_procs, found)
        d = _rank_of(dst, "destination rank", env, num_procs, found)
        if s is not None and s == d:
            found.append(("self-message", f"source and destination are both rank {s}"))
    elif atom.kind in COLLECTIVES:
        for root in atom.who:
            _rank_of(root, "root rank", env, num_procs, found)
    else:
        raise TypeError(f"not a global atom: {atom!r}")
    try:
        length = eval_expr(atom.length, env)
    except ExprError as err:
        found.append(("eval-error", f"length: {err}"))
    else:
        if length < 0:
            found.append(("negative-length", f"length {length} is negative"))
    if found:
        path = f"{base}[{index}]"
        report.diagnostics.extend(Diagnostic(code, msg, atom.pos, path=path) for code, msg in found)


def _rank_of(e, role: str, env: Env, num_procs: int, found: list) -> int | None:
    """The rank `e` names, or None after adding its problem to `found`."""
    try:
        v = eval_expr(e, env)
    except ExprError as err:
        found.append(("eval-error", f"{role}: {err}"))
        return None
    if not (0 <= v < num_procs):
        found.append(("rank-out-of-range", f"{role} {v} outside [0, {num_procs})"))
        return None
    return v
