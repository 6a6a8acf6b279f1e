"""Synchronous ensemble execution over ground local types.

Each rank's head is read as a `Comm`, the one ground record of a
communication. Semantics are unbuffered: a send and its matching
receive fire as one step, enabled only when both ranks have the pair at
their heads with equal data kind and count. A collective fires when
every rank has an equal `Comm` at its head, and that `Comm` is the
witness step. Loop and choice nodes are collective decisions: they
fire only when every rank sits at the decision, and all ranks take the
same boolean. Entering a loop grafts the body in front
of the loop node again; declining moves every rank to the continuation.

A search numbers each distinct residue (a rank's residual local type)
when it first reaches it, keyed by term equality, and stores the
residue's move once, as a row of its `_Automaton`. So an ensemble state
is a tuple of ints, and each head's `Comm` and each loop unfolding or
chosen branch is built once per search. A row is built when a state
holding its residue is first expanded, so a non-ground atom raises
ValueError only if the search reaches it.

The explorer walks every interleaving depth-first on an explicit stack,
so a run's length is bounded by memory, not by the recursion limit; a
deadlock's witness is the steps along the stack. It marks each key, the
ensemble state plus one control state per mode, when it first reaches
it, and counts the marked keys; only decision steps read and change
the control state. Under a fixed tape (`simulate`) it is
the number of decisions taken, so the tape gives the next one. In the
bounded search over every tape (`explore_all_tapes`) it is the stack of
active loops with their consecutive entries, which caps each loop's
unfolding; choices are never capped. Verdicts are three-valued:
AllDone (no reachable stuck state), Deadlock (with a replayable witness
prefix), or StateSpaceExceeded when the state budget runs out, which is
distinct from both and never silently collapsed into a pass or fail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence, Union

from .terms import (
    COLLECTIVES,
    Choice,
    Comm,
    DataKind,
    End,
    LocalType,
    Loop,
    Prefix,
    ReduceOp,
    atom_of,
    comm_of,
    concat,
    rebuild,
)

DEFAULT_STATE_LIMIT = 1_000_000


class TapeExhausted(Exception):
    """A collective decision was needed but the tape had no entry left."""


def _tape_entry(tape: Sequence[bool], i: int) -> bool:
    """Decision `i` of `tape`. A tape is a plain sequence of booleans,
    one per collective-loop arrival (True: run the body once more;
    False: exit) and one per collective choice (True: first branch).
    Every rank reads the same entries by index, which is what makes the
    decisions collective."""
    if i >= len(tape):
        raise TapeExhausted(f"decision {i + 1} requested but the tape has {len(tape)} entries")
    return bool(tape[i])


def loop_tape(iterations: int, *choices: bool) -> tuple[bool, ...]:
    """Tape for one loop run `iterations` times, then further decisions."""
    return (True,) * iterations + (False,) + choices


# ---------------------------------------------------------------------------
# steps and verdicts
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class P2PStep:
    sender: int
    receiver: int
    dtype: DataKind
    count: int


@dataclass(frozen=True, slots=True)
class DecisionStep:
    kind: str  # loop | choice
    enter: bool  # loop: run body again; choice: first branch


# A collective step is the `Comm` at every rank's head.
Step = Union[P2PStep, Comm, DecisionStep]


@dataclass(frozen=True, slots=True)
class SimState:
    """Residual local types per rank."""

    residues: tuple[LocalType, ...]


@dataclass(frozen=True, slots=True)
class AllDone:
    states_explored: int


@dataclass(frozen=True, slots=True)
class Deadlock:
    blocked: tuple[str, ...]
    trail: tuple[Step, ...]
    state: SimState


@dataclass(frozen=True, slots=True)
class StateSpaceExceeded:
    limit: int
    states_explored: int


SimVerdict = Union[AllDone, Deadlock, StateSpaceExceeded]


# ---------------------------------------------------------------------------
# the automaton
# ---------------------------------------------------------------------------

_DECISIONS = ("loop", "choice")

State = tuple[int, ...]  # one residue number per rank


def _describe_head(head) -> str:
    """The blocked line of a rank whose row has `head`."""
    if head is None:
        return "done"
    if head in _DECISIONS:
        return f"awaiting a collective {head} decision"
    kind, peer, dtype, count, op = head
    if kind == "send":
        return f"blocked sending to rank {peer} ({dtype.value}, len {count})"
    if kind == "receive":
        return f"blocked receiving from rank {peer} ({dtype.value}, len {count})"
    if kind == "allreduce":
        return f"blocked in allreduce ({dtype.value}, len {count}, {op.value})"
    return f"blocked in {kind} (root {peer}, {dtype.value}, len {count})"


class _Automaton:
    """The residues one search reaches, numbered in the order it reaches
    them (equal residues share a number), with each residue's move stored
    once as a row `(head, a, b)`:

    - prefix: its `Comm`, then the number of its continuation;
    - loop: "loop", then the numbers of the body grafted before the loop
      and of the continuation;
    - choice: "choice", then the numbers of each branch grafted before
      the continuation;
    - end: None, and no moves.

    A send's step, and the receive it waits for, depend only on the
    sender rank and the sender's residue, so each is built once per
    pair of them, in `sends`.
    """

    def __init__(self, locals_: Sequence[LocalType]):
        self.number: dict[LocalType, int] = {}
        self.terms: list[LocalType] = []
        self.rows: list[tuple | None] = []
        self.start: State = tuple(self._intern(t) for t in locals_)
        self.sends: list[dict[int, tuple | None]] = [{} for _ in self.start]

    def _intern(self, t: LocalType) -> int:
        i = self.number.get(t)
        if i is None:
            i = self.number[t] = len(self.terms)
            self.terms.append(t)
            self.rows.append(None)
        return i

    def _row(self, i: int) -> tuple:
        t = self.terms[i]
        if isinstance(t, Prefix):
            row = (comm_of(t.atom), self._intern(t.cont), None)
        elif isinstance(t, Loop):
            row = ("loop", self._intern(concat(t.body, t)), self._intern(t.cont))
        elif isinstance(t, Choice):
            cont = t.cont
            row = (
                "choice",
                self._intern(concat(t.true_branch, cont)),
                self._intern(concat(t.false_branch, cont)),
            )
        elif isinstance(t, End):
            row = (None, None, None)
        else:
            raise TypeError(f"not a type term: {t!r}")
        self.rows[i] = row
        return row

    def _send(self, sender: int, i: int) -> tuple | None:
        """`(receiver, awaited receive, step)` for the send at the head of
        residue `i` on rank `sender`, or None if there is none to pair."""
        send = self.rows[i][0]
        entry = None
        if type(send) is Comm and send.kind == "send":
            receiver = send.peer
            if 0 <= receiver < len(self.start) and receiver != sender:
                awaited = Comm("receive", sender, send.dtype, send.count)
                entry = (receiver, awaited, P2PStep(sender, receiver, send.dtype, send.count))
        self.sends[sender][i] = entry
        return entry

    def successors(self, state: State, por: bool = False) -> list[tuple[Step, State]]:
        """Every enabled step with the state it leads to, in a fixed
        deterministic order: the collective (if any), then p2p pairs by
        sender rank, then the decision, enter before skip.

        With `por`, the first enabled p2p pair alone where there is one.
        Point-to-point steps touch disjoint rank pairs and stay enabled
        until taken, so one of them stands for all in a search for stuck
        states; no collective or decision is enabled beside one, as both
        need every rank at its head."""
        rows = [self.rows[i] or self._row(i) for i in state]
        heads = [row[0] for row in rows]
        out: list[tuple[Step, State]] = []

        first = heads[0]
        if type(first) is Comm and first.kind in COLLECTIVES and all(h == first for h in heads):
            out.append((first, tuple(row[1] for row in rows)))

        for sender, i in enumerate(state):
            sends = self.sends[sender]
            send = sends[i] if i in sends else self._send(sender, i)
            if send is None:
                continue
            receiver, awaited, step = send
            if heads[receiver] == awaited:
                nxt = list(state)
                nxt[sender] = rows[sender][1]
                nxt[receiver] = rows[receiver][1]
                if por:
                    return [(step, tuple(nxt))]
                out.append((step, tuple(nxt)))

        if first in _DECISIONS and all(h == first for h in heads):
            out.append((DecisionStep(first, True), tuple(row[1] for row in rows)))
            out.append((DecisionStep(first, False), tuple(row[2] for row in rows)))

        return out

    def sim_state(self, state: State) -> SimState:
        """The residue terms of `state`."""
        return SimState(tuple(self.terms[i] for i in state))


# ---------------------------------------------------------------------------
# exploration
# ---------------------------------------------------------------------------


def _explore(
    locals_: Sequence[LocalType],
    ctl0,
    decide: Callable[[Any, State, DecisionStep], Any],
    state_limit: int,
    por: bool,
) -> SimVerdict:
    """Depth-first search that visits each (state, control state) key once.

    Only decision steps consult the mode's policy: `decide(ctl, state,
    step)` returns the control state after the step, or None when the
    policy forbids it.
    """
    if not locals_:
        raise ValueError("ensemble must contain at least one rank")
    if state_limit < 1:
        raise ValueError(f"state_limit must be >= 1, got {state_limit}")
    automaton = _Automaton(locals_)
    # Every key reached so far, marked when first reached. No key can
    # reach itself again: a p2p or collective step consumes a prefix, a
    # choice consumes its node, a loop skip moves to the continuation,
    # and a loop entry raises a count or pushes onto the loop-entry
    # stack. So a key met again is never one still on the path, and
    # marking on first reach explores what marking on pop would.
    seen: set = set()
    # The current path, one frame per state: the step that reached it
    # and its successors not yet visited.
    path: list = []
    via, key = None, (automaton.start, ctl0)
    while True:
        if key not in seen:
            if len(seen) == state_limit:
                return StateSpaceExceeded(state_limit, state_limit)
            seen.add(key)
            state, ctl = key
            succs = []
            for step, nxt in automaton.successors(state, por):
                nxt_ctl = decide(ctl, state, step) if isinstance(step, DecisionStep) else ctl
                if nxt_ctl is not None:
                    succs.append((step, (nxt, nxt_ctl)))
            path.append((via, iter(succs)))
            rows = automaton.rows
            if not succs and any(rows[i][0] is not None for i in state):
                blocked = tuple(_describe_head(rows[i][0]) for i in state)
                trail = tuple(frame[0] for frame in path[1:])
                return Deadlock(blocked, trail, automaton.sim_state(state))
        while path and (nxt := next(path[-1][1], None)) is None:
            path.pop()
        if not path:
            return AllDone(len(seen))
        via, key = nxt


def simulate(
    locals_: Sequence[LocalType],
    tape: Sequence[bool],
    *,
    state_limit: int = DEFAULT_STATE_LIMIT,
    por: bool = False,
) -> SimVerdict:
    """Explore all interleavings under one fixed decision tape.

    Collective decisions are serialized ensemble-wide, so at any state
    the number of decisions already taken is well-defined and the tape
    dictates the next one. That number is the search's control state.
    Raises TapeExhausted if the tape runs dry at a decision point
    reachable before every rank finishes.
    """
    def follow_tape(taken: int, state: State, step: DecisionStep) -> int | None:
        return taken + 1 if _tape_entry(tape, taken) == step.enter else None

    return _explore(locals_, 0, follow_tape, state_limit, por)


def explore_all_tapes(
    locals_: Sequence[LocalType],
    max_loop_iters: int,
    *,
    state_limit: int = DEFAULT_STATE_LIMIT,
    por: bool = False,
) -> SimVerdict:
    """Explore all interleavings under every decision tape, with each
    loop entered at most `max_loop_iters` consecutive times. A bound of
    0 never enters a loop, so loop bodies are not searched; both
    branches of every choice are searched at any bound.

    The control state is the stack of active loops, each with the
    ensemble's loop nodes and its consecutive entries so far.
    """
    if max_loop_iters < 0:
        raise ValueError(f"max_loop_iters must be >= 0, got {max_loop_iters}")

    def bound_loops(stack: tuple, state: State, step: DecisionStep) -> tuple | None:
        if step.kind == "choice":
            return stack
        entries = stack[-1][1] if stack and stack[-1][0] == state else 0
        outer = stack[:-1] if entries else stack
        if not step.enter:
            return outer
        if entries >= max_loop_iters:
            return None
        return outer + ((state, entries + 1),)

    return _explore(locals_, (), bound_loops, state_limit, por)


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------


def replay(locals_: Sequence[LocalType], trail: Sequence[Step]) -> SimState:
    """Re-execute a witness trail from the initial ensemble state.

    Each step must be enabled where it occurs; a ValueError otherwise
    means the trail does not belong to these local types.
    """
    automaton = _Automaton(locals_)
    state = automaton.start
    for i, wanted in enumerate(trail):
        state = next((nxt for step, nxt in automaton.successors(state) if step == wanted), None)
        if state is None:
            raise ValueError(f"witness step {i + 1} ({wanted!r}) is not enabled")
    return automaton.sim_state(state)


def format_trail(trail: Sequence[Step]) -> str:
    lines = []
    for s in trail:
        if isinstance(s, P2PStep):
            lines.append(f"p2p src={s.sender} dst={s.receiver} dtype={s.dtype.value} len={s.count}")
        elif isinstance(s, Comm):
            if s.kind == "allreduce":
                lines.append(f"coll allreduce dtype={s.dtype.value} len={s.count} op={s.op.value}")
            else:
                lines.append(f"coll {s.kind} root={s.peer} dtype={s.dtype.value} len={s.count}")
        elif isinstance(s, DecisionStep):
            lines.append(f"decision {s.kind} {'enter' if s.enter else 'skip'}")
        else:
            raise TypeError(f"not a step: {s!r}")
    return "\n".join(lines)


def parse_trail(text: str) -> tuple[Step, ...]:
    """The steps of a witness, one per line exactly as `format_trail`
    writes it, up to spacing; blank lines and `#` comments are skipped.
    Any other line is refused, so a read witness replays the schedule
    that was written."""
    steps: list[Step] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            if parts[0] == "p2p":
                kv = dict(p.split("=", 1) for p in parts[1:])
                step = P2PStep(int(kv["src"]), int(kv["dst"]), DataKind(kv["dtype"]), int(kv["len"]))
            elif parts[0] == "coll" and parts[1] in COLLECTIVES:
                kind = parts[1]
                kv = dict(p.split("=", 1) for p in parts[2:])
                # `format_trail` writes an op for an allreduce, a root for the others
                root = None if kind == "allreduce" else int(kv["root"])
                op = ReduceOp(kv["op"]) if kind == "allreduce" else None
                step = Comm(kind, root, DataKind(kv["dtype"]), int(kv["len"]), op)
            elif parts[0] == "decision" and parts[1] in _DECISIONS:
                step = DecisionStep(parts[1], parts[2] == "enter")
            else:
                raise ValueError(f"unknown step {' '.join(parts[:2])!r}")
            written = format_trail((step,))
            if written != " ".join(parts):
                raise ValueError(f"format_trail writes this step as {written!r}")
        except (KeyError, IndexError, ValueError) as err:
            raise ValueError(f"malformed witness line {line!r}: {err}") from None
        steps.append(step)
    return tuple(steps)


# ---------------------------------------------------------------------------
# traces as local types
# ---------------------------------------------------------------------------


def trace_to_term(actions: Sequence[Comm]) -> LocalType:
    """A straight-line local type performing `actions` in order, then
    `end`. An erased trace (`checker.erase_to_trace`) holds only
    communications, so it converts as it is."""
    return rebuild([(Prefix, atom_of(a)) for a in actions])
