"""Compliance checking of a program against a protocol, and trace erasure.

Checking walks the program once per rank with `me` bound to that rank,
evaluating every guard and expression concretely, and steps the rank's
projected local type through each communication statement, read as the
`Comm` it performs (its length evaluated first). The walk for
a rank stops at its first defect; defects are reported as positioned
diagnostics, never exceptions. Erasure walks the same way but instead
of checking it records the sequence of communication actions a rank
performs under a given run of collective decisions, whether or not the
program is compliant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .exprs import Env, ExprError, Pos, eval_expr, eval_pred
from .program import (
    BufferDecl,
    CollChoice,
    CollLoop,
    CommRank,
    CommSize,
    CommStmt,
    Compute,
    Finalize,
    Init,
    Let,
    Program,
    RankIf,
    Stmt,
)
from .projection import project
from .sim import _tape_entry
from .terms import Choice, Comm, DataKind, End, Loop, Protocol
from .typestate import (
    Action,
    BufferFacts,
    FinalizeAction,
    ResidualNotEnd,
    StepError,
    check_finalized,
    describe_node,
    step,
)
from .wf import WfReport, check_wf


@dataclass(frozen=True)
class CheckDiagnostic:
    rank: int
    code: str
    message: str
    pos: Pos | None = None

    def render(self, filename: str = "<program>") -> str:
        loc = f"{filename}:{self.pos}" if self.pos else filename
        return f"{loc}: rank {self.rank}: [{self.code}] {self.message}"


@dataclass
class RankReport:
    rank: int
    diagnostics: list[CheckDiagnostic] = field(default_factory=list)

    @property
    def compliant(self) -> bool:
        return not self.diagnostics


@dataclass
class CheckReport:
    ranks: list[RankReport]

    @property
    def compliant(self) -> bool:
        return all(r.compliant for r in self.ranks)

    def all_diagnostics(self) -> list[CheckDiagnostic]:
        return [d for r in self.ranks for d in r.diagnostics]

    def render_lines(self, filename: str = "<program>") -> list[str]:
        return [d.render(filename) for d in self.all_diagnostics()]


class _RankStop(Exception):
    """Internal: abandon the current rank after its first diagnostic."""


@dataclass
class _RankState:
    rank: int
    env: Env
    buffers: dict[str, BufferFacts]
    diagnostics: list[CheckDiagnostic]
    decisions: list[tuple[str, int]]  # collective construct arrivals, in order

    def fail(self, code: str, message: str, pos: Pos | None) -> None:
        self.diagnostics.append(CheckDiagnostic(self.rank, code, message, pos))
        raise _RankStop


class IllFormedProtocol(ValueError):
    """The protocol is not well-formed under the instantiation; `report`
    holds the well-formedness diagnostics."""

    def __init__(self, report: WfReport):
        super().__init__(
            "protocol is not well-formed under the given instantiation: "
            + "; ".join(report.render_lines())
        )
        self.report = report


def check_compliance(prog: Program, protocol: Protocol, inst: Env) -> CheckReport:
    """Check `prog` against `protocol` for every rank of the ensemble.

    `inst` supplies values both for the protocol's parameters and for
    the program's `param` names (shared namespace, matched by name).
    The protocol must be well-formed under its slice of `inst`; an
    IllFormedProtocol, a ValueError, signals a violated precondition,
    not a program defect.
    """
    binder_inst = {b.name: inst[b.name] for b in protocol.params if b.name in inst}
    wf = check_wf(protocol, binder_inst)
    if not wf.ok:
        raise IllFormedProtocol(wf)

    reports: list[RankReport] = []
    traces: list[tuple[tuple[str, int], ...]] = []
    missing = [name for name in prog.params if name not in inst]
    for rank in range(protocol.num_procs):
        env = {"me": rank, "np": protocol.num_procs}
        state = _RankState(rank, env, {}, [], [])
        if missing:
            state.diagnostics.append(
                CheckDiagnostic(
                    rank,
                    "unbound-parameter",
                    "no value given for program parameter(s) " + ", ".join(missing),
                )
            )
        else:
            env.update((name, inst[name]) for name in prog.params)
            local = project(protocol, inst, rank)
            try:
                # The walk ends at the finalize statement, which checks
                # the residual.
                _walk(prog.body, local, state)
            except _RankStop:
                pass
        reports.append(RankReport(rank, state.diagnostics))
        traces.append(tuple(state.decisions))

    # Ranks must agree on which collective constructs they enter and in
    # which order; projection preserves loop/choice structure at every
    # rank, so disagreement among otherwise-compliant ranks means the
    # program steered ranks into different collective constructs.
    reference: tuple[tuple[str, int], ...] | None = None
    for report, trace in zip(reports, traces):
        if not report.compliant:
            continue
        if reference is None:
            reference = trace
        elif trace != reference:
            report.diagnostics.append(
                CheckDiagnostic(
                    report.rank,
                    "collective-structure-divergence",
                    f"rank {report.rank} enters a different sequence of collective"
                    " constructs than lower ranks",
                )
            )
    return CheckReport(reports)


def _walk(stmts: tuple[Stmt, ...], t, state: _RankState):
    for stmt in stmts:
        t = _walk_stmt(stmt, t, state)
    return t


def _eval(e, state: _RankState, pos: Pos | None) -> int:
    try:
        return eval_expr(e, state.env)
    except ExprError as err:
        state.fail("eval-error", str(err), pos)
        raise AssertionError  # unreachable


def _stmt_comm(stmt: CommStmt, elem: DataKind, env: Env) -> Comm:
    """The communication `stmt` performs on a buffer of `elem` elements,
    its length evaluated under `env` first, then its peer or root."""
    count = eval_expr(stmt.length, env)
    who = None if stmt.who is None else eval_expr(stmt.who, env)
    return Comm(stmt.kind, who, elem, count, stmt.op)


def _walk_stmt(stmt: Stmt, t, state: _RankState):
    if isinstance(stmt, CommStmt):
        buf = state.buffers.get(stmt.buf)
        if buf is None:
            state.fail("unknown-buffer", f"no buffer named '{stmt.buf}'", stmt.pos)
        try:
            action = _stmt_comm(stmt, buf.elem, state.env)
        except ExprError as err:
            state.fail("eval-error", str(err), stmt.pos)
        try:
            return step(t, action, buf)
        except StepError as err:
            state.fail(err.code, str(err), stmt.pos)
    if isinstance(stmt, RankIf):
        try:
            taken = eval_pred(stmt.guard, state.env)
        except ExprError as err:
            state.fail("eval-error", str(err), stmt.pos)
        return _walk(stmt.then_body if taken else stmt.else_body, t, state)
    if isinstance(stmt, Let):
        state.env[stmt.name] = _eval(stmt.value, state, stmt.pos)
        return t
    if isinstance(stmt, BufferDecl):
        size = _eval(stmt.capacity, state, stmt.pos)
        if size < 0:
            state.fail(
                "negative-capacity", f"buffer '{stmt.name}' has capacity {size}", stmt.pos
            )
        state.buffers[stmt.name] = BufferFacts(stmt.elem, size)
        return t
    if isinstance(stmt, (Init, CommSize, CommRank, Compute)):
        return t
    if isinstance(stmt, CollLoop):
        state.decisions.append(("loop", id(stmt)))
        if not isinstance(t, Loop):
            state.fail(
                "expected-loop",
                f"program enters a collective loop but the protocol is at"
                f" {describe_node(t)}",
                stmt.pos,
            )
        residual = _walk(stmt.body, t.body, state)
        if not isinstance(residual, End):
            state.fail(
                "residual-not-end",
                f"collective loop body leaves the protocol at"
                f" {describe_node(residual)}, not end",
                stmt.pos,
            )
        return t.cont
    if isinstance(stmt, CollChoice):
        state.decisions.append(("choice", id(stmt)))
        if not isinstance(t, Choice):
            state.fail(
                "expected-choice",
                f"program enters a collective choice but the protocol is at"
                f" {describe_node(t)}",
                stmt.pos,
            )
        for branch_body, branch_type, name in (
            (stmt.then_body, t.true_branch, "true"),
            (stmt.else_body, t.false_branch, "false"),
        ):
            residual = _walk(branch_body, branch_type, state)
            if not isinstance(residual, End):
                state.fail(
                    "residual-not-end",
                    f"collective choice {name} branch leaves the protocol at"
                    f" {describe_node(residual)}, not end",
                    stmt.pos,
                )
        return t.cont
    if isinstance(stmt, Finalize):
        try:
            check_finalized(t)
        except ResidualNotEnd as err:
            state.fail(err.code, str(err), stmt.pos)
        return t
    raise TypeError(f"not a statement: {stmt!r}")


# ---------------------------------------------------------------------------
# erasure
# ---------------------------------------------------------------------------


def erase_to_trace(prog: Program, rank: int, env: Env, tape: Sequence[bool]) -> list[Action]:
    """The communication actions `rank` performs, in order.

    `env` must bind the program's parameters and `np`; `me` is bound to
    `rank` here. `tape` supplies one boolean per collective-loop
    arrival (continue or exit) and per collective choice, read by index
    from its start, so one tape serves every rank. Erasure does not
    consult any protocol, so it also applies to non-compliant programs;
    expression errors and tape exhaustion raise.
    """
    scope: Env = {**env, "me": rank}
    buffers: dict[str, DataKind] = {}
    out: list[Action] = []
    _erase(prog.body, scope, buffers, tape, 0, out)
    return out


def _erase(stmts, scope: Env, buffers, tape: Sequence[bool], taken: int, out: list[Action]) -> int:
    """Append the actions of `stmts` to `out`, starting at decision
    `taken` of `tape`; the number of decisions taken after them."""
    for stmt in stmts:
        if isinstance(stmt, CommStmt):
            out.append(_stmt_comm(stmt, buffers[stmt.buf], scope))
        elif isinstance(stmt, RankIf):
            body = stmt.then_body if eval_pred(stmt.guard, scope) else stmt.else_body
            taken = _erase(body, scope, buffers, tape, taken, out)
        elif isinstance(stmt, Let):
            scope[stmt.name] = eval_expr(stmt.value, scope)
        elif isinstance(stmt, BufferDecl):
            buffers[stmt.name] = stmt.elem
        elif isinstance(stmt, (Init, CommSize, CommRank, Compute)):
            pass
        elif isinstance(stmt, CollLoop):
            while _tape_entry(tape, taken):
                taken = _erase(stmt.body, scope, buffers, tape, taken + 1, out)
            taken += 1
        elif isinstance(stmt, CollChoice):
            body = stmt.then_body if _tape_entry(tape, taken) else stmt.else_body
            taken = _erase(body, scope, buffers, tape, taken + 1, out)
        elif isinstance(stmt, Finalize):
            out.append(FinalizeAction())
        else:
            raise TypeError(f"not a statement: {stmt!r}")
    return taken
