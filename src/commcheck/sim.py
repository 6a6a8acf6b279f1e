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

The explorer walks every interleaving depth-first, memoized on the
ensemble's residues plus one control state per mode, which only
decision steps read and change. Under a fixed tape (`simulate`) it is
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
)
from .typestate import Action, FinalizeAction

DEFAULT_STATE_LIMIT = 1_000_000

_COLLECTIVES = ("scatter", "gather", "bcast", "allreduce")


class TapeExhausted(Exception):
    """A collective decision was needed but the tape had no entry left."""


def _tape_entry(entries: tuple[bool, ...], i: int) -> bool:
    if i >= len(entries):
        raise TapeExhausted(f"decision {i + 1} requested but the tape has {len(entries)} entries")
    return entries[i]


class DecisionTape:
    """A finite, shared sequence of collective decisions.

    One boolean is consumed per collective-loop arrival (True: run the
    body once more; False: exit) and one per collective choice (True:
    first branch). Every rank reads the same tape in lockstep, which is
    what makes the decisions collective.
    """

    def __init__(self, entries: Sequence[bool]):
        self.entries = tuple(bool(b) for b in entries)
        self._next = 0

    def take(self) -> bool:
        value = _tape_entry(self.entries, self._next)
        self._next += 1
        return value

    @property
    def consumed(self) -> int:
        return self._next


def loop_tape(iterations: int, *choices: bool) -> DecisionTape:
    """Tape for one loop run `iterations` times, then further decisions."""
    return DecisionTape([True] * iterations + [False] + list(choices))


# ---------------------------------------------------------------------------
# steps and verdicts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class P2PStep:
    sender: int
    receiver: int
    dtype: DataKind
    count: int


@dataclass(frozen=True)
class DecisionStep:
    kind: str  # loop | choice
    enter: bool  # loop: run body again; choice: first branch


# A collective step is the `Comm` at every rank's head.
Step = Union[P2PStep, Comm, DecisionStep]


Residues = tuple[LocalType, ...]  # one residual local type per rank


@dataclass(frozen=True)
class SimState:
    """Residual local types per rank."""

    residues: Residues


@dataclass(frozen=True)
class AllDone:
    states_explored: int


@dataclass(frozen=True)
class Deadlock:
    blocked: tuple[str, ...]
    trail: tuple[Step, ...]
    state: SimState


@dataclass(frozen=True)
class StateSpaceExceeded:
    limit: int
    states_explored: int


SimVerdict = Union[AllDone, Deadlock, StateSpaceExceeded]


# ---------------------------------------------------------------------------
# heads
# ---------------------------------------------------------------------------


def _describe_head(t: LocalType) -> str:
    match t:
        case End():
            return "done"
        case Loop():
            return "awaiting a collective loop decision"
        case Choice():
            return "awaiting a collective choice decision"
        case Prefix(atom, _):
            c = comm_of(atom)
            if c.kind == "send":
                return f"blocked sending to rank {c.peer} ({c.dtype.value}, len {c.count})"
            if c.kind == "receive":
                return f"blocked receiving from rank {c.peer} ({c.dtype.value}, len {c.count})"
            if c.kind == "allreduce":
                return f"blocked in allreduce ({c.dtype.value}, len {c.count}, {c.op.value})"
            return f"blocked in {c.kind} (root {c.peer}, {c.dtype.value}, len {c.count})"
    raise TypeError(f"not a type term: {t!r}")


# ---------------------------------------------------------------------------
# successor computation
# ---------------------------------------------------------------------------


def _successors(residues: Residues) -> list[tuple[Step, Residues]]:
    """Every enabled step with the residues it leads to, in a fixed
    deterministic order: the collective (if any), then p2p pairs by
    sender rank, then the decision, enter before skip."""
    n = len(residues)
    heads = [comm_of(t.atom) if isinstance(t, Prefix) else None for t in residues]
    out: list[tuple[Step, Residues]] = []

    coll = heads[0]
    if isinstance(coll, Comm) and coll.kind in _COLLECTIVES and all(h == coll for h in heads):
        out.append((coll, tuple(t.cont for t in residues)))

    for sender, send in enumerate(heads):
        if not isinstance(send, Comm) or send.kind != "send":
            continue
        receiver = send.peer
        if not (0 <= receiver < n) or receiver == sender:
            continue
        if heads[receiver] == Comm("receive", sender, send.dtype, send.count):
            new_residues = list(residues)
            new_residues[sender] = residues[sender].cont
            new_residues[receiver] = residues[receiver].cont
            out.append((P2PStep(sender, receiver, send.dtype, send.count), tuple(new_residues)))

    if all(isinstance(t, Loop) for t in residues):
        out.append((DecisionStep("loop", True), tuple(concat(t.body, t) for t in residues)))
        out.append((DecisionStep("loop", False), tuple(t.cont for t in residues)))
    elif all(isinstance(t, Choice) for t in residues):
        for enter in (True, False):
            branches = (concat(t.true_branch if enter else t.false_branch, t.cont) for t in residues)
            out.append((DecisionStep("choice", enter), tuple(branches)))

    return out


# ---------------------------------------------------------------------------
# exploration
# ---------------------------------------------------------------------------


class _LimitHit(Exception):
    pass


def _explore(
    locals_: Sequence[LocalType],
    ctl0,
    decide: Callable[[Any, Residues, DecisionStep], Any],
    state_limit: int,
    por: bool,
) -> SimVerdict:
    """Depth-first search memoized on (residues, control state).

    Only decision steps consult the mode's policy: `decide(ctl,
    residues, step)` returns the control state after the step, or None
    when the policy forbids it.
    """
    if not locals_:
        raise ValueError("ensemble must contain at least one rank")
    if state_limit < 1:
        raise ValueError(f"state_limit must be >= 1, got {state_limit}")
    memo: set = set()
    explored = 0

    def rec(residues, ctl, trail) -> Deadlock | None:
        nonlocal explored
        key = (residues, ctl)
        if key in memo:
            return None
        explored += 1
        if explored > state_limit:
            raise _LimitHit
        if all(isinstance(t, End) for t in residues):
            memo.add(key)
            return None

        succs = []
        for step, nxt in _successors(residues):
            nxt_ctl = decide(ctl, residues, step) if isinstance(step, DecisionStep) else ctl
            if nxt_ctl is not None:
                succs.append((step, nxt, nxt_ctl))

        if not succs:
            return Deadlock(tuple(_describe_head(t) for t in residues), trail, SimState(residues))

        if por and any(isinstance(step, P2PStep) for step, _, _ in succs):
            # Point-to-point steps touch disjoint rank pairs and stay
            # enabled until taken, so exploring one representative per
            # state preserves reachability of stuck states.
            succs = [next(s for s in succs if isinstance(s[0], P2PStep))]

        for step, nxt, nxt_ctl in succs:
            found = rec(nxt, nxt_ctl, trail + (step,))
            if found is not None:
                return found
        memo.add(key)
        return None

    try:
        deadlock = rec(tuple(locals_), ctl0, ())
    except _LimitHit:
        return StateSpaceExceeded(state_limit, explored)
    if deadlock is not None:
        return deadlock
    return AllDone(explored)


def simulate(
    locals_: Sequence[LocalType],
    tape: DecisionTape | Sequence[bool],
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
    entries = tape.entries if isinstance(tape, DecisionTape) else tuple(bool(b) for b in tape)

    def follow_tape(taken: int, residues, step: DecisionStep) -> int | None:
        return taken + 1 if _tape_entry(entries, taken) == step.enter else None

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

    def bound_loops(stack: tuple, residues, step: DecisionStep) -> tuple | None:
        if step.kind == "choice":
            return stack
        entries = stack[-1][1] if stack and stack[-1][0] == residues else 0
        outer = stack[:-1] if entries else stack
        if not step.enter:
            return outer
        if entries >= max_loop_iters:
            return None
        return outer + ((residues, entries + 1),)

    return _explore(locals_, (), bound_loops, state_limit, por)


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------


def replay(locals_: Sequence[LocalType], trail: Sequence[Step]) -> SimState:
    """Re-execute a witness trail from the initial ensemble state.

    Each step must be enabled where it occurs; a ValueError otherwise
    means the trail does not belong to these local types.
    """
    residues = tuple(locals_)
    for i, wanted in enumerate(trail):
        residues = next((nxt for step, nxt in _successors(residues) if step == wanted), None)
        if residues is None:
            raise ValueError(f"witness step {i + 1} ({wanted!r}) is not enabled")
    return SimState(residues)


def format_trail(trail: Sequence[Step]) -> str:
    lines = []
    for s in trail:
        match s:
            case P2PStep(sender, receiver, dtype, count):
                lines.append(f"p2p src={sender} dst={receiver} dtype={dtype.value} len={count}")
            case Comm("allreduce", _, dtype, count, op):
                lines.append(f"coll allreduce dtype={dtype.value} len={count} op={op.value}")
            case Comm(kind, root, dtype, count, _):
                lines.append(f"coll {kind} root={root} dtype={dtype.value} len={count}")
            case DecisionStep(kind, enter):
                lines.append(f"decision {kind} {'enter' if enter else 'skip'}")
            case _:
                raise TypeError(f"not a step: {s!r}")
    return "\n".join(lines)


def parse_trail(text: str) -> tuple[Step, ...]:
    steps: list[Step] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            if parts[0] == "p2p":
                kv = dict(p.split("=", 1) for p in parts[1:])
                steps.append(
                    P2PStep(int(kv["src"]), int(kv["dst"]), DataKind(kv["dtype"]), int(kv["len"]))
                )
            elif parts[0] == "coll":
                kind = parts[1]
                kv = dict(p.split("=", 1) for p in parts[2:])
                root = int(kv["root"]) if "root" in kv else None
                op = ReduceOp(kv["op"]) if "op" in kv else None
                steps.append(Comm(kind, root, DataKind(kv["dtype"]), int(kv["len"]), op))
            elif parts[0] == "decision":
                steps.append(DecisionStep(parts[1], parts[2] == "enter"))
            else:
                raise ValueError(f"unknown step kind {parts[0]!r}")
        except (KeyError, IndexError, ValueError) as err:
            raise ValueError(f"malformed witness line {line!r}: {err}") from None
    return tuple(steps)


# ---------------------------------------------------------------------------
# traces as local types
# ---------------------------------------------------------------------------


def trace_to_term(actions: Sequence[Action]) -> LocalType:
    """A straight-line local type performing `actions` in order.

    A FinalizeAction may appear only as the last action and marks the
    end; a trace without one also just ends.
    """
    term: LocalType = End()
    for i, a in enumerate(reversed(actions)):
        if isinstance(a, FinalizeAction):
            if i != 0:
                raise ValueError("finalize must be the last action of a trace")
            continue
        term = Prefix(atom_of(a), term)
    return term
