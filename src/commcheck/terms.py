"""Syntax trees for global protocols and their per-rank local views.

Global and local types share the same term constructors (prefix, loop,
choice, end); they differ only in which atoms may appear at a prefix.
A global type speaks of messages between two ranks, a local type of
sends and receives as seen by one rank. Collective atoms occur on both
sides unchanged. Nodes are frozen dataclasses, so equality and hashing
are structural; source positions never take part in comparisons.
A ground local atom denotes a `Comm`, the one record of a concrete
communication; `comm_of` and `atom_of` convert between the two.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Union

from .exprs import Env, Expr, ExprError, Kind, Lit, Pos, eval_expr


class DataKind(enum.Enum):
    INT = "MPI_INT"
    FLOAT = "MPI_FLOAT"


class ReduceOp(enum.Enum):
    MAX = "MPI_MAX"
    MIN = "MPI_MIN"
    SUM = "MPI_SUM"


# ---------------------------------------------------------------------------
# atoms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Message:
    """Point-to-point transfer, global view: src sends, dst receives."""

    src: Expr
    dst: Expr
    dtype: DataKind
    length: Expr
    pos: Pos | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Send:
    peer: Expr
    dtype: DataKind
    length: Expr
    pos: Pos | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Receive:
    peer: Expr
    dtype: DataKind
    length: Expr
    pos: Pos | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Scatter:
    root: Expr
    dtype: DataKind
    length: Expr
    pos: Pos | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Gather:
    root: Expr
    dtype: DataKind
    length: Expr
    pos: Pos | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Bcast:
    root: Expr
    dtype: DataKind
    length: Expr
    pos: Pos | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Allreduce:
    dtype: DataKind
    length: Expr
    op: ReduceOp
    pos: Pos | None = field(default=None, compare=False, repr=False)


CollectiveAtom = Union[Scatter, Gather, Bcast, Allreduce]
GlobalAtom = Union[Message, Scatter, Gather, Bcast, Allreduce]
LocalAtom = Union[Send, Receive, Scatter, Gather, Bcast, Allreduce]
Atom = Union[Message, Send, Receive, Scatter, Gather, Bcast, Allreduce]


class Comm(NamedTuple):
    """One ground communication, as one rank performs it.

    The same record is the head of a ground local view, the action of a
    program statement, and a collective step of the simulation. `peer`
    is the other rank of a send or receive, the root of a scatter,
    gather or bcast, and None for an allreduce; `op` is set only for an
    allreduce. A named tuple rather than a frozen dataclass, because the
    search builds and compares one per rank head at every state.
    """

    kind: str  # send | receive | scatter | gather | bcast | allreduce
    peer: int | None
    dtype: DataKind
    count: int
    op: ReduceOp | None = None


# The local atoms whose first field is the peer or root, by Comm kind.
_LOCAL_ATOMS = {
    "send": Send,
    "receive": Receive,
    "scatter": Scatter,
    "gather": Gather,
    "bcast": Bcast,
}
_KIND_OF = {cls: kind for kind, cls in _LOCAL_ATOMS.items()}


def comm_of(a: LocalAtom) -> Comm:
    """The communication a ground local atom performs.

    Raises ValueError when a peer, root or length is not yet a value:
    project the protocol or `ground_term` the local type first.
    """
    try:
        match a:
            case Allreduce(dtype, length, op):
                return Comm("allreduce", None, dtype, eval_expr(length, {}), op)
            case (
                Send(who, dtype, length)
                | Receive(who, dtype, length)
                | Scatter(who, dtype, length)
                | Gather(who, dtype, length)
                | Bcast(who, dtype, length)
            ):
                return Comm(_KIND_OF[type(a)], eval_expr(who, {}), dtype, eval_expr(length, {}))
    except ExprError:
        raise ValueError("local atom is not ground; project or ground_term it first") from None
    raise TypeError(f"not a local atom: {a!r}")


def atom_of(c: Comm) -> LocalAtom:
    """The ground local atom performing `c`; inverse of `comm_of`."""
    if c.kind == "allreduce":
        return Allreduce(c.dtype, Lit(c.count), c.op)
    return _LOCAL_ATOMS[c.kind](Lit(c.peer), c.dtype, Lit(c.count))


# ---------------------------------------------------------------------------
# type terms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class End:
    pass


@dataclass(frozen=True)
class Prefix:
    atom: Atom
    cont: TypeTerm


@dataclass(frozen=True)
class Loop:
    """Collectively decided repetition of `body`, then `cont`.

    Every rank takes the same decision at each arrival, so a loop node
    is a synchronization point of the whole ensemble.
    """

    body: TypeTerm
    cont: TypeTerm


@dataclass(frozen=True)
class Choice:
    """Collectively decided branch, then `cont` either way."""

    true_branch: TypeTerm
    false_branch: TypeTerm
    cont: TypeTerm


TypeTerm = Union[End, Prefix, Loop, Choice]

# Aliases to make signatures say which side of projection they live on.
GlobalType = TypeTerm
LocalType = TypeTerm


@dataclass(frozen=True)
class ParamBinder:
    """Top-level protocol parameter with its (possibly refined) kind."""

    name: str
    kind: Kind
    pos: Pos | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Protocol:
    params: tuple[ParamBinder, ...]
    num_procs: int
    body: GlobalType


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def atoms_of(t: TypeTerm) -> Iterator[Atom]:
    """All atoms of `t` in traversal order: spine first at each node,
    loop bodies before their continuation, choice branches true-then-false."""
    match t:
        case End():
            return
        case Prefix(atom, cont):
            yield atom
            yield from atoms_of(cont)
        case Loop(body, cont):
            yield from atoms_of(body)
            yield from atoms_of(cont)
        case Choice(tb, fb, cont):
            yield from atoms_of(tb)
            yield from atoms_of(fb)
            yield from atoms_of(cont)
        case _:
            raise TypeError(f"not a type term: {t!r}")


def concat(t: TypeTerm, rest: TypeTerm) -> TypeTerm:
    """Graft `rest` onto the continuation spine of `t`.

    Loop bodies and choice branches are left untouched; only the final
    `end` of the spine is replaced. Used to unfold loops and commit
    choice branches during simulation.
    """
    match t:
        case End():
            return rest
        case Prefix(atom, cont):
            return Prefix(atom, concat(cont, rest))
        case Loop(body, cont):
            return Loop(body, concat(cont, rest))
        case Choice(tb, fb, cont):
            return Choice(tb, fb, concat(cont, rest))
    raise TypeError(f"not a type term: {t!r}")


def ground_atom(a: Atom, env: Env) -> Atom:
    """Evaluate every expression field of `a` to a literal."""
    match a:
        case Message(src, dst, dtype, length):
            return Message(
                Lit(eval_expr(src, env)),
                Lit(eval_expr(dst, env)),
                dtype,
                Lit(eval_expr(length, env)),
                pos=a.pos,
            )
        case Send(peer, dtype, length):
            return Send(Lit(eval_expr(peer, env)), dtype, Lit(eval_expr(length, env)), pos=a.pos)
        case Receive(peer, dtype, length):
            return Receive(Lit(eval_expr(peer, env)), dtype, Lit(eval_expr(length, env)), pos=a.pos)
        case Scatter(root, dtype, length):
            return Scatter(Lit(eval_expr(root, env)), dtype, Lit(eval_expr(length, env)), pos=a.pos)
        case Gather(root, dtype, length):
            return Gather(Lit(eval_expr(root, env)), dtype, Lit(eval_expr(length, env)), pos=a.pos)
        case Bcast(root, dtype, length):
            return Bcast(Lit(eval_expr(root, env)), dtype, Lit(eval_expr(length, env)), pos=a.pos)
        case Allreduce(dtype, length, op):
            return Allreduce(dtype, Lit(eval_expr(length, env)), op, pos=a.pos)
    raise TypeError(f"not an atom: {a!r}")


def ground_term(t: TypeTerm, env: Env) -> TypeTerm:
    """Evaluate every expression in `t` to a literal."""
    match t:
        case End():
            return t
        case Prefix(atom, cont):
            return Prefix(ground_atom(atom, env), ground_term(cont, env))
        case Loop(body, cont):
            return Loop(ground_term(body, env), ground_term(cont, env))
        case Choice(tb, fb, cont):
            return Choice(ground_term(tb, env), ground_term(fb, env), ground_term(cont, env))
    raise TypeError(f"not a type term: {t!r}")


def is_ground(t: TypeTerm) -> bool:
    from .exprs import expr_vars

    for a in atoms_of(t):
        match a:
            case Message(src, dst, _, length):
                if expr_vars(src) or expr_vars(dst) or expr_vars(length):
                    return False
            case Send(peer, _, length) | Receive(peer, _, length):
                if expr_vars(peer) or expr_vars(length):
                    return False
            case Scatter(root, _, length) | Gather(root, _, length) | Bcast(root, _, length):
                if expr_vars(root) or expr_vars(length):
                    return False
            case Allreduce(_, length, _):
                if expr_vars(length):
                    return False
    return True
