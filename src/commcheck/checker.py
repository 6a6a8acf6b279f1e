"""Compliance checking of a program against a protocol, and trace erasure.

Checking walks the program once per rank with `me` bound to that rank,
evaluating every guard and expression concretely, and steps the rank's
projected local type through each communication statement, read as the
`Comm` it performs (its length evaluated first). The walk for a rank
stops at its first defect: the statement that finds it raises one
internal exception, and `_walk` gives an expression or stepping error
the position of the innermost statement it arose in. Each rank's walk
catches it once, so a defect reaches the caller as a positioned
diagnostic, never as an exception. Erasure walks the same way but
instead of checking it records the communications a rank performs
under a given run of collective decisions, whether or not the program
is compliant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .exprs import Env, ExprError, eval_expr, eval_pred
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
from .typestate import BufferFacts, StepError, check_finalized, describe_node, step
from .wf import Diagnostic, WfReport, check_wf


@dataclass
class CheckReport:
    """The diagnostics of each rank, in rank order: the defect that
    stopped its walk, a divergence from lower ranks, or none."""

    ranks: list[list[Diagnostic]]

    @property
    def compliant(self) -> bool:
        return not any(self.ranks)

    def all_diagnostics(self) -> list[Diagnostic]:
        return [d for diags in self.ranks for d in diags]

    def render_lines(self, filename: str = "<program>") -> list[str]:
        return [d.render(filename) for d in self.all_diagnostics()]


class _Defect(Exception):
    """Internal: the defect that stops a rank's walk. Its args are the
    diagnostic's code, message and position."""


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

    reports: list[list[Diagnostic]] = []
    traces: list[tuple[tuple[str, int], ...]] = []
    missing = [name for name in prog.params if name not in inst]
    for rank in range(protocol.num_procs):
        env = {"me": rank, "np": protocol.num_procs}
        diagnostics: list[Diagnostic] = []
        decisions: list[tuple[str, int]] = []  # collective construct arrivals, in order
        if missing:
            diagnostics.append(
                Diagnostic(
                    "unbound-parameter",
                    "no value given for program parameter(s) " + ", ".join(missing),
                    rank=rank,
                )
            )
        else:
            env.update((name, inst[name]) for name in prog.params)
            local = project(protocol, inst, rank)
            try:
                # The walk ends at the finalize statement, which checks
                # the residual.
                _walk(prog.body, local, env, {}, decisions)
            except _Defect as defect:
                diagnostics.append(Diagnostic(*defect.args, rank=rank))
        reports.append(diagnostics)
        traces.append(tuple(decisions))

    # Ranks must agree on which collective constructs they enter and in
    # which order; projection preserves loop/choice structure at every
    # rank, so disagreement among otherwise-compliant ranks means the
    # program steered ranks into different collective constructs.
    reference: tuple[tuple[str, int], ...] | None = None
    for rank, (diagnostics, trace) in enumerate(zip(reports, traces)):
        if diagnostics:
            continue
        if reference is None:
            reference = trace
        elif trace != reference:
            diagnostics.append(
                Diagnostic(
                    "collective-structure-divergence",
                    f"rank {rank} enters a different sequence of collective"
                    " constructs than lower ranks",
                    rank=rank,
                )
            )
    return CheckReport(reports)


def _walk(stmts: tuple[Stmt, ...], t, env: Env, buffers: dict[str, BufferFacts], decisions: list):
    """The residue after `stmts`. An expression or stepping error becomes
    the defect of the statement it arose in; a nested walk has already
    turned one of its own statements' errors into a `_Defect`."""
    for stmt in stmts:
        try:
            t = _walk_stmt(stmt, t, env, buffers, decisions)
        except ExprError as err:
            raise _Defect("eval-error", str(err), stmt.pos) from None
        except StepError as err:
            raise _Defect(err.code, str(err), stmt.pos) from None
    return t


def _stmt_comm(stmt: CommStmt, elem: DataKind, env: Env) -> Comm:
    """The communication `stmt` performs on a buffer of `elem` elements,
    its length evaluated under `env` first, then its peer or root."""
    count = eval_expr(stmt.length, env)
    who = None if stmt.who is None else eval_expr(stmt.who, env)
    return Comm(stmt.kind, who, elem, count, stmt.op)


def _walk_stmt(stmt: Stmt, t, env: Env, buffers: dict[str, BufferFacts], decisions: list):
    if isinstance(stmt, CommStmt):
        buf = buffers.get(stmt.buf)
        if buf is None:
            raise _Defect("unknown-buffer", f"no buffer named '{stmt.buf}'", stmt.pos)
        return step(t, _stmt_comm(stmt, buf.elem, env), buf)
    if isinstance(stmt, RankIf):
        body = stmt.then_body if eval_pred(stmt.guard, env) else stmt.else_body
        return _walk(body, t, env, buffers, decisions)
    if isinstance(stmt, Let):
        env[stmt.name] = eval_expr(stmt.value, env)
        return t
    if isinstance(stmt, BufferDecl):
        size = eval_expr(stmt.capacity, env)
        if size < 0:
            raise _Defect(
                "negative-capacity", f"buffer '{stmt.name}' has capacity {size}", stmt.pos
            )
        buffers[stmt.name] = BufferFacts(stmt.elem, size)
        return t
    if isinstance(stmt, (Init, CommSize, CommRank, Compute)):
        return t
    if isinstance(stmt, CollLoop):
        decisions.append(("loop", id(stmt)))
        if not isinstance(t, Loop):
            raise _Defect(
                "expected-loop",
                f"program enters a collective loop but the protocol is at"
                f" {describe_node(t)}",
                stmt.pos,
            )
        residual = _walk(stmt.body, t.body, env, buffers, decisions)
        if not isinstance(residual, End):
            raise _Defect(
                "residual-not-end",
                f"collective loop body leaves the protocol at"
                f" {describe_node(residual)}, not end",
                stmt.pos,
            )
        return t.cont
    if isinstance(stmt, CollChoice):
        decisions.append(("choice", id(stmt)))
        if not isinstance(t, Choice):
            raise _Defect(
                "expected-choice",
                f"program enters a collective choice but the protocol is at"
                f" {describe_node(t)}",
                stmt.pos,
            )
        for branch_body, branch_type, name in (
            (stmt.then_body, t.true_branch, "true"),
            (stmt.else_body, t.false_branch, "false"),
        ):
            residual = _walk(branch_body, branch_type, env, buffers, decisions)
            if not isinstance(residual, End):
                raise _Defect(
                    "residual-not-end",
                    f"collective choice {name} branch leaves the protocol at"
                    f" {describe_node(residual)}, not end",
                    stmt.pos,
                )
        return t.cont
    if isinstance(stmt, Finalize):
        check_finalized(t)
        return t
    raise TypeError(f"not a statement: {stmt!r}")


# ---------------------------------------------------------------------------
# erasure
# ---------------------------------------------------------------------------


def erase_to_trace(prog: Program, rank: int, env: Env, tape: Sequence[bool]) -> list[Comm]:
    """The communications `rank` performs, in order; an erased trace
    holds nothing else, since `finalize` communicates nothing.

    `env` must bind the program's parameters and `np`; `me` is bound to
    `rank` here. `tape` supplies one boolean per collective-loop
    arrival (continue or exit) and per collective choice, read by index
    from its start, so one tape serves every rank. Erasure does not
    consult any protocol, so it also applies to non-compliant programs;
    expression errors, tape exhaustion and an unknown buffer (a
    ValueError) raise.
    """
    scope: Env = {**env, "me": rank}
    buffers: dict[str, DataKind] = {}
    out: list[Comm] = []
    _erase(prog.body, scope, buffers, tape, 0, out)
    return out


def _erase(stmts, scope: Env, buffers, tape: Sequence[bool], taken: int, out: list[Comm]) -> int:
    """Append the communications of `stmts` to `out`, starting at decision
    `taken` of `tape`; the number of decisions taken after them."""
    for stmt in stmts:
        if isinstance(stmt, CommStmt):
            if stmt.buf not in buffers:
                raise ValueError(f"no buffer named '{stmt.buf}'")
            out.append(_stmt_comm(stmt, buffers[stmt.buf], scope))
        elif isinstance(stmt, RankIf):
            body = stmt.then_body if eval_pred(stmt.guard, scope) else stmt.else_body
            taken = _erase(body, scope, buffers, tape, taken, out)
        elif isinstance(stmt, Let):
            scope[stmt.name] = eval_expr(stmt.value, scope)
        elif isinstance(stmt, BufferDecl):
            buffers[stmt.name] = stmt.elem
        elif isinstance(stmt, (Init, CommSize, CommRank, Compute, Finalize)):
            pass
        elif isinstance(stmt, CollLoop):
            while _tape_entry(tape, taken):
                taken = _erase(stmt.body, scope, buffers, tape, taken + 1, out)
            taken += 1
        elif isinstance(stmt, CollChoice):
            body = stmt.then_body if _tape_entry(tape, taken) else stmt.else_body
            taken = _erase(body, scope, buffers, tape, taken + 1, out)
        else:
            raise TypeError(f"not a statement: {stmt!r}")
    return taken
