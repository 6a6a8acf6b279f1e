"""The deadlock search against a naive reference explorer.

`reference_sim` steps residue terms by the semantics in the `sim`
docstring and returns every reachable stuck state. On seeded random
ensembles, as projected, with a send cycle planted after every rank's
view, and with one rank's view mutated once inside a loop body or a
choice branch (two adjacent atoms swapped, a send flipped to a receive
or back, a peer, a count or a data kind changed), the search must agree
with it.
"""

from __future__ import annotations

import random

from commcheck.parser import parse_local_term
from commcheck.projection import project_all
from commcheck.sim import AllDone, Deadlock, explore_all_tapes, format_trail, parse_trail, replay
from commcheck.terms import concat

from proto_gen import POINT_MUTATIONS, random_protocol, swap_adjacent_atoms
from reference_sim import stuck_states

PROTOCOLS = 500


def ensembles(rng: random.Random, point_rng: random.Random):
    """(label, views) for each protocol: plain, planted, swapped, and
    mutated by one of `POINT_MUTATIONS` (one, not all four, keeps the
    test fast), where some rank's view has a place for the change.
    `point_rng` makes the point mutations, so the other ensembles do
    not depend on them."""
    for i in range(PROTOCOLS):
        proto, env = random_protocol(rng)
        views = list(project_all(proto, env))
        n = len(views)
        yield f"{i} plain", views
        cycle = [parse_local_term(f"send({(r + 1) % n},MPI_INT,1).end") for r in range(n)]
        yield f"{i} planted", [concat(v, c) for v, c in zip(views, cycle)]
        point = point_rng.choice(sorted(POINT_MUTATIONS))
        for name, mutate, mrng in (
            ("swapped", swap_adjacent_atoms, rng),
            (point, POINT_MUTATIONS[point], point_rng),
        ):
            for rank in mrng.sample(range(n), n):
                mutated = mutate(mrng, views[rank])
                if mutated is not None:
                    yield f"{i} {name} at rank {rank}", views[:rank] + [mutated] + views[rank + 1 :]
                    break


def test_search_agrees_with_the_reference_explorer():
    kinds = set()
    for label, views in ensembles(random.Random(2013), random.Random(13)):
        stuck = stuck_states(views)
        for bound, por in ((1, False), (2, False), (2, True)):
            verdict = explore_all_tapes(views, bound, por=por)
            where = (label, bound, por)
            assert isinstance(verdict, AllDone) == (not stuck), where
            if isinstance(verdict, Deadlock):
                assert verdict.state.residues in stuck, where
                trail = parse_trail(format_trail(verdict.trail))
                assert trail == verdict.trail, where
                assert replay(views, trail) == verdict.state, where
        kinds.add((label.split()[1], bool(stuck)))
    # plain ensembles never deadlock and swapped ones go both ways;
    # planted ones and those of the other mutations always deadlock
    assert kinds == {
        ("plain", False),
        ("planted", True),
        ("swapped", False),
        ("swapped", True),
        ("flipped", True),
        ("repeered", True),
        ("recounted", True),
        ("retyped", True),
    }
