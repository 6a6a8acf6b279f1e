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
    Choice,
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
        match node:
            case Prefix(atom, _):
                _check_atom(atom, f"{base}[{index}]", env, num_procs, report)
            case Loop(body, _):
                _walk(body, f"{base}[{index}].loop", env, num_procs, report)
            case Choice(tb, fb, _):
                _walk(tb, f"{base}[{index}].true", env, num_procs, report)
                _walk(fb, f"{base}[{index}].false", env, num_procs, report)


def _check_atom(atom, path: str, env: Env, num_procs: int, report: WfReport) -> None:
    def bad(code: str, message: str) -> None:
        report.diagnostics.append(WfDiagnostic(path, code, message, atom.pos))

    def rank_of(e, role: str) -> int | None:
        try:
            v = eval_expr(e, env)
        except ExprError as err:
            bad("eval-error", f"{role}: {err}")
            return None
        if not (0 <= v < num_procs):
            bad("rank-out-of-range", f"{role} {v} outside [0, {num_procs})")
            return None
        return v

    def length_of(e) -> None:
        try:
            v = eval_expr(e, env)
        except ExprError as err:
            bad("eval-error", f"length: {err}")
            return
        if v < 0:
            bad("negative-length", f"length {v} is negative")

    match atom:
        case Message(src, dst, _, length):
            s = rank_of(src, "source rank")
            d = rank_of(dst, "destination rank")
            if s is not None and d is not None and s == d:
                bad("self-message", f"source and destination are both rank {s}")
            length_of(length)
        case Scatter(root, _, length) | Gather(root, _, length) | Bcast(root, _, length):
            rank_of(root, "root rank")
            length_of(length)
        case Allreduce(_, length, _):
            length_of(length)
        case _:
            raise TypeError(f"not a global atom: {atom!r}")
