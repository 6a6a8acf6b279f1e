"""A deliberately naive reference for the deadlock search.

It works from the semantics in the `commcheck.sim` docstring alone: its
own step function over residue terms, a search that marks each state on
its first visit, no control state, no loop bound and no reduction. Every
residue a loop or choice can reach is a suffix of some unfolding, so the
search is finite without a bound. It is slow on purpose and meant for
small ensembles only.
"""

from __future__ import annotations

from commcheck.terms import Choice, End, LocalType, Loop, Prefix, comm_of, concat

COLLECTIVES = ("scatter", "gather", "bcast", "allreduce")


def steps(residues: tuple[LocalType, ...]) -> list[tuple[LocalType, ...]]:
    """Every state one step after `residues`."""
    heads = [comm_of(t.atom) if isinstance(t, Prefix) else None for t in residues]
    out = []
    if heads[0] is not None and heads[0].kind in COLLECTIVES and heads.count(heads[0]) == len(heads):
        out.append(tuple(t.cont for t in residues))
    for s, send in enumerate(heads):
        for r, receive in enumerate(heads):
            if (
                s != r
                and send is not None
                and receive is not None
                and (send.kind, send.peer, receive.kind, receive.peer) == ("send", r, "receive", s)
                and (send.dtype, send.count) == (receive.dtype, receive.count)
            ):
                nxt = list(residues)
                nxt[s], nxt[r] = residues[s].cont, residues[r].cont
                out.append(tuple(nxt))
    if all(isinstance(t, Loop) for t in residues):
        out.append(tuple(concat(t.body, t) for t in residues))
        out.append(tuple(t.cont for t in residues))
    if all(isinstance(t, Choice) for t in residues):
        out.append(tuple(concat(t.true_branch, t.cont) for t in residues))
        out.append(tuple(concat(t.false_branch, t.cont) for t in residues))
    return out


def stuck_states(locals_) -> set[tuple[LocalType, ...]]:
    """Every reachable state with no step that is not every rank at `end`."""
    start = tuple(locals_)
    seen = {start}
    todo = [start]
    stuck = set()
    while todo:
        state = todo.pop()
        nexts = steps(state)
        if not nexts and not all(isinstance(t, End) for t in state):
            stuck.add(state)
        for nxt in nexts:
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return stuck
