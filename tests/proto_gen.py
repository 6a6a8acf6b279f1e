"""Random generators for property tests.

`random_protocol` builds protocols that are well-formed by construction
(distinct literal message endpoints, in-range roots, nonnegative length
expressions, satisfied parameter refinements) so invariants over valid
inputs can be sampled without rejection loops.
"""

from __future__ import annotations

import random
from dataclasses import replace

from commcheck.exprs import BinOp, Cmp, Env, Lit, NAT, RefinedKind, Refinement, Var
from commcheck.terms import (
    Allreduce,
    Bcast,
    Choice,
    Comm,
    DataKind,
    End,
    Gather,
    LocalType,
    Loop,
    Message,
    ParamBinder,
    Prefix,
    Protocol,
    Receive,
    ReduceOp,
    Scatter,
    Send,
    TypeTerm,
    comm_of,
    rebuild,
    spine,
)

_DTYPES = (DataKind.INT, DataKind.FLOAT)
_OPS = (ReduceOp.MAX, ReduceOp.MIN, ReduceOp.SUM)


def random_protocol(
    rng: random.Random,
    max_procs: int = 4,
    max_depth: int = 3,
    max_atoms: int = 12,
) -> tuple[Protocol, Env]:
    """A well-formed protocol plus a satisfying instantiation."""
    num_procs = rng.randint(2, max_procs)
    binders: list[ParamBinder] = []
    inst: Env = {}
    for i in range(rng.randint(0, 2)):
        name = f"p{i}"
        if rng.random() < 0.5:
            kind = NAT
            value = rng.randint(0, 24)
        else:
            divisor = rng.randint(1, 4)
            kind = RefinedKind(
                NAT, Refinement("v", Cmp("==", BinOp("%", Var("v"), Lit(divisor)), Lit(0)))
            )
            value = divisor * rng.randint(0, 6)
        binders.append(ParamBinder(name, kind))
        inst[name] = value
    budget = [rng.randint(1, max_atoms)]
    body = _sequence(rng, num_procs, list(inst), budget, depth=0, max_depth=max_depth)
    return Protocol(tuple(binders), num_procs, body), inst


def _length_expr(rng: random.Random, params: list[str]):
    # Every alternative is nonnegative for nonnegative parameter values.
    roll = rng.random()
    if not params or roll < 0.55:
        return Lit(rng.randint(0, 8))
    name = rng.choice(params)
    if roll < 0.7:
        return Var(name)
    if roll < 0.85:
        return BinOp("/", Var(name), Lit(rng.randint(1, 3)))
    return BinOp("%", Var(name), Lit(rng.randint(1, 5)))


def _atom(rng: random.Random, num_procs: int, params: list[str]):
    dtype = rng.choice(_DTYPES)
    length = _length_expr(rng, params)
    roll = rng.random()
    if roll < 0.6:
        src, dst = rng.sample(range(num_procs), 2)
        return Message(Lit(src), Lit(dst), dtype, length)
    root = Lit(rng.randrange(num_procs))
    if roll < 0.7:
        return Scatter(root, dtype, length)
    if roll < 0.8:
        return Gather(root, dtype, length)
    if roll < 0.9:
        return Bcast(root, dtype, length)
    return Allreduce(dtype, length, rng.choice(_OPS))


def _sequence(
    rng: random.Random,
    num_procs: int,
    params: list[str],
    budget: list[int],
    depth: int,
    max_depth: int,
) -> TypeTerm:
    items: list[tuple] = []
    while budget[0] > 0 and rng.random() < 0.8:
        roll = rng.random()
        if depth < max_depth and roll < 0.12:
            body = _sequence(rng, num_procs, params, budget, depth + 1, max_depth)
            items.append(("loop", body))
        elif depth < max_depth and roll < 0.24:
            tb = _sequence(rng, num_procs, params, budget, depth + 1, max_depth)
            fb = _sequence(rng, num_procs, params, budget, depth + 1, max_depth)
            items.append(("choice", tb, fb))
        else:
            budget[0] -= 1
            items.append(("atom", _atom(rng, num_procs, params)))
    term: TypeTerm = End()
    for item in reversed(items):
        if item[0] == "atom":
            term = Prefix(item[1], term)
        elif item[0] == "loop":
            term = Loop(item[1], term)
        else:
            term = Choice(item[1], item[2], term)
    return term


# ---------------------------------------------------------------------------
# ground local types and actions, for typestate laws
# ---------------------------------------------------------------------------


def random_local_atom(rng: random.Random, num_procs: int = 4):
    dtype = rng.choice(_DTYPES)
    length = Lit(rng.randint(0, 9))
    roll = rng.random()
    if roll < 0.3:
        return Send(Lit(rng.randrange(num_procs)), dtype, length)
    if roll < 0.6:
        return Receive(Lit(rng.randrange(num_procs)), dtype, length)
    root = Lit(rng.randrange(num_procs))
    if roll < 0.7:
        return Scatter(root, dtype, length)
    if roll < 0.8:
        return Gather(root, dtype, length)
    if roll < 0.9:
        return Bcast(root, dtype, length)
    return Allreduce(dtype, length, rng.choice(_OPS))


def random_local_term(
    rng: random.Random, max_depth: int = 3, max_atoms: int = 10
) -> LocalType:
    budget = [rng.randint(0, max_atoms)]

    def seq(depth: int) -> LocalType:
        items: list[tuple] = []
        while budget[0] > 0 and rng.random() < 0.75:
            roll = rng.random()
            if depth < max_depth and roll < 0.12:
                items.append(("loop", seq(depth + 1)))
            elif depth < max_depth and roll < 0.24:
                items.append(("choice", seq(depth + 1), seq(depth + 1)))
            else:
                budget[0] -= 1
                items.append(("atom", random_local_atom(rng)))
        term: LocalType = End()
        for item in reversed(items):
            if item[0] == "atom":
                term = Prefix(item[1], term)
            elif item[0] == "loop":
                term = Loop(item[1], term)
            else:
                term = Choice(item[1], item[2], term)
        return term

    return seq(0)


def random_action(rng: random.Random, num_procs: int = 4) -> Comm:
    return comm_of(random_local_atom(rng, num_procs))


# ---------------------------------------------------------------------------
# mutations of projected views, for the deadlock oracle
# ---------------------------------------------------------------------------


def _rewrite_runs(t: TypeTerm, inside: bool, width: int, fits, visit) -> TypeTerm:
    """`t` rebuilt, offering `visit` each run of `width` adjacent atoms
    inside a loop body or a choice branch whose atoms `fits`, in spine
    order, a loop's or a choice's runs where the node stands. `visit`
    returns the atoms to put in place of the run, or None to keep it."""
    nodes = spine(t)
    heads: list = []
    i = 0
    while i < len(nodes):
        run = nodes[i : i + width]
        if inside and len(run) == width and all(isinstance(n, Prefix) for n in run):
            atoms = [n.atom for n in run]
            new = visit(atoms) if fits(atoms) else None
            if new is not None:
                heads += [(Prefix, a) for a in new]
                i += width
                continue
        node = nodes[i]
        if isinstance(node, Loop):
            heads.append((Loop, _rewrite_runs(node.body, True, width, fits, visit)))
        elif isinstance(node, Choice):
            tb = _rewrite_runs(node.true_branch, True, width, fits, visit)
            fb = _rewrite_runs(node.false_branch, True, width, fits, visit)
            heads.append((Choice, tb, fb))
        else:
            heads.append(node)
        i += 1
    return rebuild(heads)


def _mutate(rng: random.Random, view: LocalType, width: int, fits, edit) -> LocalType | None:
    """`view` with one run of `width` adjacent atoms that `fits`, chosen
    at random among those inside a loop body or a choice branch at any
    depth, replaced by `edit(atoms)`; None if it has no such run."""
    runs: list = []
    _rewrite_runs(view, False, width, fits, runs.append)
    if not runs:
        return None
    left = [rng.randrange(len(runs))]

    def visit(atoms):
        left[0] -= 1
        return edit(atoms) if left[0] == -1 else None

    return _rewrite_runs(view, False, width, fits, visit)


def _point(rng: random.Random, view: LocalType, fits, edit) -> LocalType | None:
    """`view` with one atom that `fits`, placed as `_mutate` places, replaced by `edit(atom)`."""
    return _mutate(rng, view, 1, lambda atoms: fits(atoms[0]), lambda atoms: [edit(atoms[0])])


def _p2p(atom) -> bool:
    return atom.kind in ("send", "receive")


def _any(atom) -> bool:
    return True


def swap_adjacent_atoms(rng: random.Random, view: LocalType) -> LocalType | None:
    """`view` with two adjacent atoms swapped at one place, chosen at
    random, inside a loop body or a choice branch; None if it has no
    such place."""
    return _mutate(rng, view, 2, lambda atoms: True, lambda atoms: atoms[::-1])


def flip_direction(rng: random.Random, view: LocalType) -> LocalType | None:
    """`view` with one send turned into a receive from the same peer, or
    one receive into a send."""
    flipped = {"send": "receive", "receive": "send"}
    return _point(rng, view, _p2p, lambda a: replace(a, kind=flipped[a.kind]))


def change_peer(rng: random.Random, view: LocalType) -> LocalType | None:
    """`view` with one send's or receive's peer moved to a neighbouring
    rank, which at the edges lies outside the ensemble."""
    step = rng.choice((-1, 1))
    return _point(rng, view, _p2p, lambda a: replace(a, who=(Lit(a.who[0].value + step),)))


def change_count(rng: random.Random, view: LocalType) -> LocalType | None:
    """`view` with one atom's count raised by one."""
    return _point(rng, view, _any, lambda a: replace(a, length=Lit(a.length.value + 1)))


def change_dtype(rng: random.Random, view: LocalType) -> LocalType | None:
    """`view` with one atom's data kind swapped for the other generated one."""
    other = {DataKind.INT: DataKind.FLOAT, DataKind.FLOAT: DataKind.INT}
    return _point(rng, view, _any, lambda a: replace(a, dtype=other[a.dtype]))


# The mutations of one atom, by the label a test gives its ensembles.
POINT_MUTATIONS = {
    "flipped": flip_direction,
    "repeered": change_peer,
    "recounted": change_count,
    "retyped": change_dtype,
}
