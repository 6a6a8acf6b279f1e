"""Random generators for property tests.

`random_protocol` builds protocols that are well-formed by construction
(distinct literal message endpoints, in-range roots, nonnegative length
expressions, satisfied parameter refinements) so invariants over valid
inputs can be sampled without rejection loops.
"""

from __future__ import annotations

import random

from commcheck.exprs import BinOp, Cmp, Env, Lit, NAT, RefinedKind, Refinement, Var
from commcheck.terms import (
    Allreduce,
    Bcast,
    Choice,
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
from commcheck.typestate import Action

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


def random_action(rng: random.Random, num_procs: int = 4) -> Action:
    return comm_of(random_local_atom(rng, num_procs))


# ---------------------------------------------------------------------------
# mutations of projected views, for the deadlock oracle
# ---------------------------------------------------------------------------


def _swap_sites(t: TypeTerm, inside: bool) -> int:
    nodes = spine(t)
    sites = 0
    if inside:
        sites = sum(isinstance(a, Prefix) and isinstance(b, Prefix) for a, b in zip(nodes, nodes[1:]))
    for node in nodes:
        if isinstance(node, Loop):
            sites += _swap_sites(node.body, True)
        elif isinstance(node, Choice):
            sites += _swap_sites(node.true_branch, True) + _swap_sites(node.false_branch, True)
    return sites


def _swap(t: TypeTerm, inside: bool, target: list[int]) -> TypeTerm:
    # `target[0]` counts down the sites passed, in the order `_swap_sites` counts them.
    nodes = spine(t)
    heads: list[tuple] = []
    i = 0
    while i < len(nodes):
        node = nodes[i]
        if inside and isinstance(node, Prefix) and i + 1 < len(nodes) and isinstance(nodes[i + 1], Prefix):
            target[0] -= 1
            if target[0] == -1:
                heads += [(Prefix, nodes[i + 1].atom), (Prefix, node.atom)]
                i += 2
                continue
        if isinstance(node, Prefix):
            heads.append((Prefix, node.atom))
        elif isinstance(node, Loop):
            heads.append((Loop, _swap(node.body, True, target)))
        else:
            heads.append((Choice, _swap(node.true_branch, True, target), _swap(node.false_branch, True, target)))
        i += 1
    return rebuild(heads)


def swap_adjacent_atoms(rng: random.Random, view: LocalType) -> LocalType | None:
    """`view` with two adjacent atoms swapped at one place, chosen at
    random, inside a loop body or a choice branch; None if it has no
    such place."""
    sites = _swap_sites(view, False)
    return _swap(view, False, [rng.randrange(sites)]) if sites else None
