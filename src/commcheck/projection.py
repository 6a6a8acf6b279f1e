"""Projection of a global protocol onto the local views of its ranks.

A message becomes a send at its source, a receive at its destination,
and disappears everywhere else. Collectives, loops, and choices involve
every rank and are kept verbatim in each local view. Expressions are
evaluated against the instantiation on the way through, so local views
come out ground: every peer, root, and length is a literal.

One walk of the protocol builds the views of all requested ranks at
once, a list of spine heads per rank: each message's endpoints are
evaluated once, its length once if a requested rank takes part, and
each collective is grounded once and shared by every view. A view
builds no literal the protocol already has: a literal peer, root or
length is the protocol's own `Lit` object (frozen, so safe to share),
still evaluated for its range check. An endpoint
outside [0, num_procs), possible only in a protocol that is not
well-formed, adds an atom to no view, and a message from a rank to
itself is a send only.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exprs import Env, Lit, eval_expr
from .terms import (
    Atom,
    Choice,
    LocalType,
    Loop,
    Prefix,
    Protocol,
    TypeTerm,
    ground_atom,
    rebuild,
    spine,
)


@dataclass(frozen=True, slots=True)
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
    `check_wf`); otherwise an expression whose value the walk needs may
    raise ExprError.
    """
    if not 0 <= rank < protocol.num_procs:
        raise ValueError(f"rank {rank} outside [0, {protocol.num_procs})")
    return _project(protocol.body, _binders(protocol, inst), rank, rank + 1)[0]


def project_all(protocol: Protocol, inst: Env) -> ProjectionResult:
    """Project every rank of the ensemble, in one walk of the protocol."""
    views = _project(protocol.body, _binders(protocol, inst), 0, protocol.num_procs)
    return ProjectionResult(tuple(views))


def _binders(protocol: Protocol, inst: Env) -> Env:
    return {b.name: inst[b.name] for b in protocol.params if b.name in inst}


def _project(t: TypeTerm, env: Env, lo: int, hi: int) -> list[TypeTerm]:
    """The views of `t` at ranks `lo` to `hi - 1`, in rank order."""
    kept = [[] for _ in range(lo, hi)]
    for node in spine(t):
        if isinstance(node, Prefix):
            atom = node.atom
            if atom.kind == "message":
                (src, dst), length = atom.who, atom.length
                source = eval_expr(src, env)
                destination = eval_expr(dst, env)
                sends = lo <= source < hi
                receives = destination != source and lo <= destination < hi
                if sends or receives:
                    value = eval_expr(length, env)
                    count = length if type(length) is Lit else Lit(value)
                if sends:
                    peer = dst if type(dst) is Lit else Lit(destination)
                    send = Atom("send", (peer,), atom.dtype, count, None, atom.pos)
                    kept[source - lo].append((Prefix, send))
                if receives:
                    peer = src if type(src) is Lit else Lit(source)
                    receive = Atom("receive", (peer,), atom.dtype, count, None, atom.pos)
                    kept[destination - lo].append((Prefix, receive))
            else:
                head = (Prefix, ground_atom(atom, env))
                for heads in kept:
                    heads.append(head)
        elif isinstance(node, Loop):
            for heads, view in zip(kept, _project(node.body, env, lo, hi)):
                heads.append((Loop, view))
        else:
            branches = zip(
                _project(node.true_branch, env, lo, hi), _project(node.false_branch, env, lo, hi)
            )
            for heads, (tv, fv) in zip(kept, branches):
                heads.append((Choice, tv, fv))
    return [rebuild(heads) for heads in kept]
