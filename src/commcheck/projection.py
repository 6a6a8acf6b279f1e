"""Projection of a global protocol onto the local view of one rank.

A message becomes a send at its source, a receive at its destination,
and disappears everywhere else. Collectives, loops, and choices involve
every rank and are kept verbatim in each local view. Expressions are
evaluated against the instantiation on the way through, so local views
come out ground: every peer, root, and length is a literal.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exprs import Env, Lit, eval_expr
from .terms import (
    Choice,
    LocalType,
    Loop,
    Message,
    Prefix,
    Protocol,
    Receive,
    Send,
    TypeTerm,
    ground_atom,
    rebuild,
    spine,
)


@dataclass(frozen=True)
class ProjectionResult:
    """Local views of one protocol instantiation, indexed by rank."""

    by_rank: tuple[LocalType, ...]

    def __len__(self) -> int:
        return len(self.by_rank)

    def __getitem__(self, rank: int) -> LocalType:
        return self.by_rank[rank]


def project(protocol: Protocol, inst: Env, rank: int) -> LocalType:
    """Project `protocol` under `inst` onto `rank`.

    The protocol is expected to be well-formed under `inst` (see
    `check_wf`); expression errors surface as ExprError otherwise.
    """
    if not 0 <= rank < protocol.num_procs:
        raise ValueError(f"rank {rank} outside [0, {protocol.num_procs})")
    env = {b.name: inst[b.name] for b in protocol.params if b.name in inst}
    return _project(protocol.body, env, rank)


def project_all(protocol: Protocol, inst: Env) -> ProjectionResult:
    """Project every rank of the ensemble."""
    return ProjectionResult(
        tuple(project(protocol, inst, rank) for rank in range(protocol.num_procs))
    )


def _project(t: TypeTerm, env: Env, rank: int) -> TypeTerm:
    kept = []
    for node in spine(t):
        match node:
            case Prefix(Message(src, dst, dtype, length) as msg, _):
                source = eval_expr(src, env)
                destination = eval_expr(dst, env)
                count = Lit(eval_expr(length, env))
                if source == rank:
                    kept.append((Prefix, Send(Lit(destination), dtype, count, pos=msg.pos)))
                elif destination == rank:
                    kept.append((Prefix, Receive(Lit(source), dtype, count, pos=msg.pos)))
            case Prefix(atom, _):
                kept.append((Prefix, ground_atom(atom, env)))
            case Loop(body, _):
                kept.append((Loop, _project(body, env, rank)))
            case Choice(tb, fb, _):
                kept.append((Choice, _project(tb, env, rank), _project(fb, env, rank)))
    return rebuild(kept)
