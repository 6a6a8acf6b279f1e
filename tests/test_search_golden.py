"""The deadlock search's outcomes, pinned on seeded ensembles.

The cases are the first `CASES` ensembles of
`test_sim_oracle.ensembles` (plain, planted, swapped and point-mutated),
each under five searches:

- `explore_all_tapes` at loop bound 1 and 2 without POR, and at bound 2
  with POR;
- `explore_all_tapes` at bound 2 with a state budget of 5;
- `simulate` under the tape `loop_tape(1, True, False)`, where running
  out of tape is an outcome of its own.

Each case is one line of `search_golden.txt`: the ensemble's label, the
search, then a JSON list of the verdict kind, `states_explored` (null
for a deadlock), the blocked lines and the `format_trail` of the
witness. So a change to the search order, the reduction, a count, a
witness or a blocked line shows as a changed line.

To rewrite the golden list after a deliberate change of the search:

    PYTHONPATH=src python tests/test_search_golden.py > tests/search_golden.txt
"""

from __future__ import annotations

import json
import random
import sys
from itertools import islice
from pathlib import Path

from commcheck.sim import (
    Deadlock,
    TapeExhausted,
    explore_all_tapes,
    format_trail,
    loop_tape,
    simulate,
)

from test_sim_oracle import ensembles

_GOLDEN = Path(__file__).with_name("search_golden.txt")
CASES = 150

SEARCHES = {
    "bound 1": lambda views: explore_all_tapes(views, 1),
    "bound 2": lambda views: explore_all_tapes(views, 2),
    "bound 2 por": lambda views: explore_all_tapes(views, 2, por=True),
    "bound 2 limit 5": lambda views: explore_all_tapes(views, 2, state_limit=5),
    "tape": lambda views: simulate(views, loop_tape(1, True, False)),
}


def _outcome(search, views) -> str:
    try:
        verdict = search(views)
    except TapeExhausted as err:
        return json.dumps(["TapeExhausted", str(err)])
    if isinstance(verdict, Deadlock):
        return json.dumps(["Deadlock", None, list(verdict.blocked), format_trail(verdict.trail)])
    return json.dumps([type(verdict).__name__, verdict.states_explored, [], ""])


def golden_lines() -> list[str]:
    cases = islice(ensembles(random.Random(2013), random.Random(13)), CASES)
    return [
        f"{label} | {name} -> {_outcome(search, views)}"
        for label, views in cases
        for name, search in SEARCHES.items()
    ]


def test_search_outcomes_match_the_golden_list():
    want = _GOLDEN.read_text().splitlines()
    got = golden_lines()
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w


def test_the_golden_list_covers_every_outcome():
    text = _GOLDEN.read_text()
    for kind in ("AllDone", "Deadlock", "StateSpaceExceeded", "TapeExhausted"):
        assert f'-> ["{kind}"' in text, kind
    for name in SEARCHES:
        assert f" | {name} -> " in text, name


if __name__ == "__main__":
    print("\n".join(golden_lines()))
    sys.exit(0)
