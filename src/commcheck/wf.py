"""Well-formedness of a protocol under a concrete parameter instantiation.

Checks are reported as positioned diagnostics, never exceptions, and the
walk keeps going after a failure so one run surfaces every problem. A
protocol that passes is safe to project: every rank expression lands in
[0, num_procs), message endpoints are distinct, lengths are nonnegative,
and every parameter satisfies its declared kind.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .exprs import (
    Env,
    ExprError,
    KindMismatch,
    Pos,
    check_refinement,
    eval_expr,
)
from .terms import (
    Allreduce,
    Bcast,
    Gather,
    Loop,
    Message,
    Prefix,
    Protocol,
    Scatter,
    TypeTerm,
    spine,
)

# Ensemble size must stay strictly inside these bounds.
MIN_PROCS = 1
MAX_PROCS = 32768


@dataclass(frozen=True)
class WfDiagnostic:
    path: str
    code: str
    message: str
    pos: Pos | None = None

    def render(self, filename: str = "<protocol>") -> str:
        loc = f"{filename}:{self.pos}" if self.pos else filename
        return f"{loc}: [{self.code}] {self.message} (at {self.path})"


@dataclass
class WfReport:
    diagnostics: list[WfDiagnostic] = field(default_factory=list)

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
            WfDiagnostic("params", "unknown-parameter", f"'{name}' is not a protocol parameter")
        )

    env: Env = {}
    missing = False
    for binder in protocol.params:
        if binder.name not in inst:
            missing = True
            report.diagnostics.append(
                WfDiagnostic(
                    f"param {binder.name}",
                    "missing-parameter",
                    f"no value given for parameter '{binder.name}'",
                    binder.pos,
                )
            )
            continue
        value = inst[binder.name]
        try:
            if not check_refinement(binder.kind, value, env):
                report.diagnostics.append(
                    WfDiagnostic(
                        f"param {binder.name}",
                        "refinement-violated",
                        f"value {value} does not satisfy the kind of '{binder.name}'",
                        binder.pos,
                    )
                )
        except KindMismatch:
            report.diagnostics.append(
                WfDiagnostic(
                    f"param {binder.name}",
                    "kind-not-integer",
                    f"parameter '{binder.name}' must have an integer-valued kind",
                    binder.pos,
                )
            )
        except ExprError as err:
            report.diagnostics.append(
                WfDiagnostic(f"param {binder.name}", "eval-error", str(err), binder.pos)
            )
        # Bind even a bad value so later parameters still get checked.
        env[binder.name] = value

    if not (MIN_PROCS < protocol.num_procs < MAX_PROCS):
        report.diagnostics.append(
            WfDiagnostic(
                "nprocs",
                "procs-out-of-range",
                f"process count must lie strictly between {MIN_PROCS} and {MAX_PROCS},"
                f" got {protocol.num_procs}",
            )
        )

    # With a parameter missing every use of it would fail identically, so
    # the body walk would only repeat the root cause back as noise.
    if not missing:
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
    if isinstance(atom, Message):
        s = _rank_of(atom.src, "source rank", env, num_procs, found)
        d = _rank_of(atom.dst, "destination rank", env, num_procs, found)
        if s is not None and s == d:
            found.append(("self-message", f"source and destination are both rank {s}"))
    elif isinstance(atom, (Scatter, Gather, Bcast)):
        _rank_of(atom.root, "root rank", env, num_procs, found)
    elif not isinstance(atom, Allreduce):
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
        report.diagnostics.extend(WfDiagnostic(path, code, msg, atom.pos) for code, msg in found)


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
