"""Syntax trees for global protocols and their per-rank local views.

Global and local types share the same term constructors (prefix, loop,
choice, end); they differ only in which atoms may appear at a prefix.
A global type speaks of messages between two ranks, a local type of
sends and receives as seen by one rank. Collective atoms occur on both
sides unchanged. Every record is a frozen dataclass with `__slots__`
and no instance dict. The nodes' `==`, hash and `repr` come from one
base class, `_Node`, which adds one more slot for the cached hash:
equality is structural, and
source positions never take part in comparisons. Every walk
along a term's continuation spine is a loop over `spine` and `rebuild`;
only loop bodies and choice branches, whose depth the parser bounds,
recurse. A node's hash is computed once, on its first use: parsing and
projection hash nothing, and the search hashes the views it numbers.
Walks that run once per node test its class with `isinstance` and read
fields by name: on CPython 3.11 a `match` class pattern that binds an
atom's fields costs about ten times as much per node.
Every atom is one `Atom` record, whose `kind` is its written name: it is
written `kind(*who, dtype, length)`, with the op last for an allreduce,
and the parser, the printer, grounding and projection test the kind.
`Message`, `Send` and the other five atom names are functions that build
an `Atom` for callers writing terms by hand.
A ground local atom denotes a `Comm`, the one record of a concrete
communication; `comm_of` and `atom_of` convert between the two.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterator, NamedTuple, Sequence, Union

from .exprs import Env, Expr, ExprError, Kind, Lit, Pos, eval_expr, expr_vars


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


@dataclass(frozen=True, slots=True)
class Atom:
    """One communication of a protocol or a local view, as written:
    `kind(*who, dtype, length)`, and the op last for an allreduce.

    `who` holds the rank expressions: a message's source and destination,
    the peer of a send or receive, the root of a scatter, gather or
    bcast, and none for an allreduce; `op` is set only for an allreduce.
    """

    kind: str  # message | send | receive | scatter | gather | bcast | allreduce
    who: tuple[Expr, ...]
    dtype: DataKind
    length: Expr
    op: ReduceOp | None = None
    pos: Pos | None = field(default=None, compare=False, repr=False)


COLLECTIVES = ("scatter", "gather", "bcast", "allreduce")
"""The kinds both sides write; a global type adds `message`, a local
type `send` and `receive`."""


# The seven atoms under their written names, for callers that build
# them by hand. The parser, projection and `atom_of` build `Atom`
# directly: one more call per atom shows in `project`.


def Message(src: Expr, dst: Expr, dtype: DataKind, length: Expr, pos: Pos | None = None) -> Atom:
    return Atom("message", (src, dst), dtype, length, None, pos)


def Send(peer: Expr, dtype: DataKind, length: Expr, pos: Pos | None = None) -> Atom:
    return Atom("send", (peer,), dtype, length, None, pos)


def Receive(peer: Expr, dtype: DataKind, length: Expr, pos: Pos | None = None) -> Atom:
    return Atom("receive", (peer,), dtype, length, None, pos)


def Scatter(root: Expr, dtype: DataKind, length: Expr, pos: Pos | None = None) -> Atom:
    return Atom("scatter", (root,), dtype, length, None, pos)


def Gather(root: Expr, dtype: DataKind, length: Expr, pos: Pos | None = None) -> Atom:
    return Atom("gather", (root,), dtype, length, None, pos)


def Bcast(root: Expr, dtype: DataKind, length: Expr, pos: Pos | None = None) -> Atom:
    return Atom("bcast", (root,), dtype, length, None, pos)


def Allreduce(dtype: DataKind, length: Expr, op: ReduceOp, pos: Pos | None = None) -> Atom:
    return Atom("allreduce", (), dtype, length, op, pos)


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


def comm_of(a: Atom) -> Comm:
    """The communication a ground local atom performs.

    Raises TypeError for a message, and ValueError when a peer, root or
    length is not yet a value: project the protocol or `ground_term` the
    local type first.
    """
    if a.kind == "message":
        raise TypeError(f"not a local atom: {a!r}")
    try:
        peer = eval_expr(a.who[0], {}) if a.who else None
        return Comm(a.kind, peer, a.dtype, eval_expr(a.length, {}), a.op)
    except ExprError:
        raise ValueError("local atom is not ground; project or ground_term it first") from None


def atom_of(c: Comm) -> Atom:
    """The ground local atom performing `c`; inverse of `comm_of`."""
    who = () if c.peer is None else (Lit(c.peer),)
    return Atom(c.kind, who, c.dtype, Lit(c.count), c.op)


# ---------------------------------------------------------------------------
# type terms
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class End:
    pass


class _Node:
    """A prefix, loop or choice node, with `cont` as its last field. Its
    hash is computed on the first `hash()`, down the spine in one loop and
    then filled in from the tail up, and kept in the `_hash` slot, which
    stays empty until then; `==` and `repr` walk the spine in one loop
    too. The node classes are slotted dataclasses declared with
    `eq=False, repr=False`, so they inherit these three methods instead of
    generating their own, and no node has an instance dict."""

    __slots__ = ("_hash",)  # per node: its hash, once computed
    _values = None  # per node class: an attrgetter of its fields, in order

    def __hash__(self):
        h = getattr(self, "_hash", None)
        if h is None:
            pending, t = [self], self.cont
            while isinstance(t, _Node) and getattr(t, "_hash", None) is None:
                pending.append(t)
                t = t.cont
            for t in reversed(pending):
                object.__setattr__(t, "_hash", hash(t._values(t)))
            h = self._hash
        return h

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        a, b = self, other
        while a is not b:
            if type(a) is not type(b):
                return False
            if not isinstance(a, _Node):
                return a == b  # the closing `end`
            if hash(a) != hash(b):
                return False
            fields_a, fields_b = a._values(a), b._values(b)
            if fields_a[:-1] != fields_b[:-1]:
                return False
            a, b = fields_a[-1], fields_b[-1]
        return True

    def __repr__(self):
        # The dataclass-generated text, `Prefix(atom=..., cont=...)`,
        # written along the spine with the closing parentheses last.
        parts, depth, t = [], 0, self
        while isinstance(t, _Node):
            names, values = t.__match_args__, t._values(t)
            parts.append(type(t).__qualname__ + "(")
            parts.extend(f"{name}={value!r}, " for name, value in zip(names[:-1], values))
            parts.append("cont=")
            depth += 1
            t = values[-1]
        return "".join(parts) + repr(t) + ")" * depth

    def __reduce__(self):
        # The spine's heads, chained by `rebuild`: a pickle or deep copy
        # recurses only into loop bodies and choice branches, and the
        # hashes are recomputed.
        return rebuild, ([(type(t), *t._values(t)[:-1]) for t in spine(self)],)


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class Prefix(_Node):
    atom: Atom
    cont: TypeTerm


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class Loop(_Node):
    """Collectively decided repetition of `body`, then `cont`.

    Every rank takes the same decision at each arrival, so a loop node
    is a synchronization point of the whole ensemble.
    """

    body: TypeTerm
    cont: TypeTerm


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class Choice(_Node):
    """Collectively decided branch, then `cont` either way."""

    true_branch: TypeTerm
    false_branch: TypeTerm
    cont: TypeTerm


TypeTerm = Union[End, Prefix, Loop, Choice]

for _cls in (Prefix, Loop, Choice):
    _cls._values = attrgetter(*_cls.__match_args__)
del _cls

# Aliases to make signatures say which side of projection they live on.
GlobalType = TypeTerm
LocalType = TypeTerm


@dataclass(frozen=True, slots=True)
class ParamBinder:
    """Top-level protocol parameter with its (possibly refined) kind."""

    name: str
    kind: Kind
    pos: Pos | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True, slots=True)
class Protocol:
    params: tuple[ParamBinder, ...]
    num_procs: int
    body: GlobalType


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def spine(t: TypeTerm) -> list[TypeTerm]:
    """The prefix, loop and choice nodes along the continuation of `t`,
    in order, without the `end` that closes it."""
    nodes = []
    while not isinstance(t, End):
        if not isinstance(t, _Node):
            raise TypeError(f"not a type term: {t!r}")
        nodes.append(t)
        t = t.cont
    return nodes


def rebuild(nodes: Sequence, tail: TypeTerm = End()) -> TypeTerm:
    """Chain spine nodes, in order, onto `tail`: `rebuild(spine(t)) == t`.

    An item is a node, whose own `cont` is dropped, or a node head such
    as `(Loop, body)`: the class and the fields but `cont`, so that a
    caller building a spine builds each node once.
    """
    for item in reversed(nodes):
        if isinstance(item, _Node):
            item = (type(item), *item._values(item)[:-1])
        cls, *args = item
        tail = cls(*args, tail)
    return tail


def atoms_of(t: TypeTerm) -> Iterator[Atom]:
    """All atoms of `t` in traversal order: spine first at each node,
    loop bodies before their continuation, choice branches true-then-false."""
    for node in spine(t):
        if isinstance(node, Prefix):
            yield node.atom
        elif isinstance(node, Loop):
            yield from atoms_of(node.body)
        else:
            yield from atoms_of(node.true_branch)
            yield from atoms_of(node.false_branch)


def concat(t: TypeTerm, rest: TypeTerm) -> TypeTerm:
    """Graft `rest` onto the continuation spine of `t`.

    Loop bodies and choice branches are left untouched; only the final
    `end` of the spine is replaced. Used to unfold loops and commit
    choice branches during simulation.
    """
    return rebuild(spine(t), rest)


def ground_atom(a: Atom, env: Env) -> Atom:
    """Evaluate every rank and length expression of `a` to a literal. A
    literal is still evaluated, for its range check, and then kept: `Lit`
    is frozen, so the grounded atom may share it, and an atom whose
    expressions are all literals is returned itself."""
    args, changed = [], False
    for x in (*a.who, a.length):
        value = eval_expr(x, env)
        if type(x) is not Lit:
            x, changed = Lit(value), True
        args.append(x)
    if not changed:
        return a
    *who, length = args
    return Atom(a.kind, tuple(who), a.dtype, length, a.op, a.pos)


def ground_term(t: TypeTerm, env: Env) -> TypeTerm:
    """Evaluate every expression in `t` to a literal. The nodes after the
    last one whose head grounding changed are shared with `t`, so a
    ground `t` is returned itself."""
    nodes, heads, last = spine(t), [], -1
    for i, node in enumerate(nodes):
        if isinstance(node, Prefix):
            head = (Prefix, ground_atom(node.atom, env))
        elif isinstance(node, Loop):
            head = (Loop, ground_term(node.body, env))
        else:
            branches = ground_term(node.true_branch, env), ground_term(node.false_branch, env)
            head = (Choice, *branches)
        if any(x is not y for x, y in zip(head[1:], node._values(node))):
            last = i
        heads.append(head)
    return rebuild(heads[: last + 1], nodes[last].cont) if last >= 0 else t


def is_ground(t: TypeTerm) -> bool:
    return not any(expr_vars(x) for a in atoms_of(t) for x in (*a.who, a.length))
