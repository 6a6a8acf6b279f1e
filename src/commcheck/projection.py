"""Projection of a global protocol onto the local view of one rank.

A message becomes a send at its source, a receive at its destination,
and disappears everywhere else. Collectives, loops, and choices involve
every rank and are kept verbatim in each local view. Expressions are
evaluated against the instantiation on the way through, so local views
come out ground: every peer, root, and length is a literal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .exprs import Env, Lit, eval_expr
from .terms import (
    Choice,
    End,
    LocalType,
    Loop,
    Message,
    Prefix,
    Protocol,
    Receive,
    Send,
    TypeTerm,
    ground_atom,
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
    # Walk the continuation spine iteratively, keeping one constructor per
    # kept node, then rebuild from the end: every node constructor takes
    # its continuation last. Only loop bodies and choice branches recurse.
    kept = []
    while not isinstance(t, End):
        match t:
            case Prefix(Message(src, dst, dtype, length) as msg, cont):
                source = eval_expr(src, env)
                destination = eval_expr(dst, env)
                count = Lit(eval_expr(length, env))
                if source == rank:
                    kept.append(partial(Prefix, Send(Lit(destination), dtype, count, pos=msg.pos)))
                elif destination == rank:
                    kept.append(partial(Prefix, Receive(Lit(source), dtype, count, pos=msg.pos)))
            case Prefix(atom, cont):
                kept.append(partial(Prefix, ground_atom(atom, env)))
            case Loop(body, cont):
                kept.append(partial(Loop, _project(body, env, rank)))
            case Choice(tb, fb, cont):
                kept.append(partial(Choice, _project(tb, env, rank), _project(fb, env, rank)))
            case _:
                raise TypeError(f"not a type term: {t!r}")
        t = cont
    for node in reversed(kept):
        t = node(t)
    return t
