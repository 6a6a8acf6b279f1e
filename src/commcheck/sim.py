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

The explorer walks every interleaving depth-first with memoization on
ensemble states. Verdicts are three-valued: AllDone (no reachable stuck
state), Deadlock (with a replayable witness prefix), or
StateSpaceExceeded when the state budget runs out, which is distinct
from both and never silently collapsed into a pass or fail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

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
        if self._next >= len(self.entries):
            raise TapeExhausted(
                f"decision {self._next + 1} requested but the tape has"
                f" {len(self.entries)} entries"
            )
        value = self.entries[self._next]
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


@dataclass(frozen=True)
class SimState:
    """Residual local types per rank, plus the loop-bounding stack.

    The stack tracks consecutive entries into the same loop node so that
    bounded exploration can cap unfolding; entries are (per-rank loop
    nodes, count).
    """

    residues: tuple[LocalType, ...]
    loop_stack: tuple[tuple[tuple[LocalType, ...], int], ...] = ()


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


@dataclass(frozen=True)
class _Candidate:
    step: Step
    residues: tuple[LocalType, ...]
    stack: tuple
    decided: bool  # consumed one tape entry


def _advance_decision(
    residues: tuple[LocalType, ...],
    stack: tuple,
    kind: str,
    enter: bool,
) -> _Candidate:
    nodes = residues
    if kind == "loop":
        if enter:
            new_residues = tuple(concat(t.body, t) for t in residues)
            if stack and stack[-1][0] == nodes:
                new_stack = stack[:-1] + ((nodes, stack[-1][1] + 1),)
            else:
                new_stack = stack + ((nodes, 1),)
        else:
            new_residues = tuple(t.cont for t in residues)
            new_stack = stack[:-1] if stack and stack[-1][0] == nodes else stack
    else:
        if enter:
            new_residues = tuple(concat(t.true_branch, t.cont) for t in residues)
        else:
            new_residues = tuple(concat(t.false_branch, t.cont) for t in residues)
        new_stack = stack
    return _Candidate(DecisionStep(kind, enter), new_residues, new_stack, True)


def _loop_entries_so_far(stack: tuple, nodes: tuple) -> int:
    if stack and stack[-1][0] == nodes:
        return stack[-1][1]
    return 0


def _candidates(
    residues: tuple[LocalType, ...],
    stack: tuple,
    decisions_allowed: Sequence[bool],
) -> list[_Candidate]:
    """Enabled steps, in a fixed deterministic order: the collective (if
    any), then p2p pairs by sender rank, then decisions enter-first.

    `decisions_allowed` filters which decision values may fire; p2p and
    collective steps are policy-independent.
    """
    n = len(residues)
    heads: list[Comm | str] = []  # a rank's head Comm, or done | loop | choice
    for t in residues:
        match t:
            case End():
                heads.append("done")
            case Prefix(atom, _):
                heads.append(comm_of(atom))
            case Loop():
                heads.append("loop")
            case Choice():
                heads.append("choice")
            case _:
                raise TypeError(f"not a type term: {t!r}")

    out: list[_Candidate] = []

    coll = heads[0]
    if isinstance(coll, Comm) and coll.kind in _COLLECTIVES and all(h == coll for h in heads):
        out.append(_Candidate(coll, tuple(t.cont for t in residues), stack, False))

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
            out.append(
                _Candidate(
                    P2PStep(sender, receiver, send.dtype, send.count),
                    tuple(new_residues),
                    stack,
                    False,
                )
            )

    if all(h == "loop" for h in heads):
        for enter in (True, False):
            if decisions_allowed[0 if enter else 1]:
                out.append(_advance_decision(residues, stack, "loop", enter))
    elif all(h == "choice" for h in heads):
        for enter in (True, False):
            if decisions_allowed[0 if enter else 1]:
                out.append(_advance_decision(residues, stack, "choice", enter))

    return out


# ---------------------------------------------------------------------------
# exploration
# ---------------------------------------------------------------------------


class _LimitHit(Exception):
    pass


def _explore(
    residues0: tuple[LocalType, ...],
    policy,  # ("tape", entries) or ("bounded", max_iters)
    state_limit: int,
    reverse_order: bool,
    por: bool,
) -> SimVerdict:
    memo: set = set()
    explored = 0

    def decision_filter(residues, stack, consumed) -> tuple[bool, bool]:
        # Which of (enter, skip) a decision step may take here.
        if policy[0] == "tape":
            entries = policy[1]
            if consumed >= len(entries):
                raise TapeExhausted(
                    f"decision {consumed + 1} requested but the tape has"
                    f" {len(entries)} entries"
                )
            forced = entries[consumed]
            return (forced, not forced)
        max_iters = policy[1]
        entries_so_far = _loop_entries_so_far(stack, residues)
        return (entries_so_far < max_iters, True)

    def rec(residues, stack, consumed, trail) -> Deadlock | None:
        nonlocal explored
        key = (residues, stack, consumed)
        if key in memo:
            return None
        explored += 1
        if explored > state_limit:
            raise _LimitHit
        if all(isinstance(t, End) for t in residues):
            memo.add(key)
            return None

        at_decision = all(isinstance(t, (Loop, Choice)) for t in residues) and (
            all(isinstance(t, Loop) for t in residues)
            or all(isinstance(t, Choice) for t in residues)
        )
        allowed = (True, True)
        if at_decision:
            allowed = decision_filter(residues, stack, consumed)
        cands = _candidates(residues, stack, allowed)

        if not cands:
            return Deadlock(
                tuple(_describe_head(t) for t in residues),
                trail,
                SimState(residues, stack),
            )

        if por and any(isinstance(c.step, P2PStep) for c in cands):
            # Point-to-point steps touch disjoint rank pairs and stay
            # enabled until taken, so exploring one representative per
            # state preserves reachability of stuck states.
            cands = [next(c for c in cands if isinstance(c.step, P2PStep))]
        if reverse_order:
            cands = list(reversed(cands))

        for cand in cands:
            found = rec(
                cand.residues,
                cand.stack,
                consumed + 1 if cand.decided else consumed,
                trail + (cand.step,),
            )
            if found is not None:
                return found
        memo.add(key)
        return None

    try:
        deadlock = rec(residues0, (), 0, ())
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
    reverse_order: bool = False,
    por: bool = False,
) -> SimVerdict:
    """Explore all interleavings under one fixed decision tape.

    Collective decisions are serialized ensemble-wide, so at any state
    the number of decisions already taken is well-defined and the tape
    dictates the next one. Raises TapeExhausted if the tape runs dry at
    a decision point reachable before every rank finishes.
    """
    entries = tape.entries if isinstance(tape, DecisionTape) else tuple(bool(b) for b in tape)
    if not locals_:
        raise ValueError("ensemble must contain at least one rank")
    return _explore(tuple(locals_), ("tape", entries), state_limit, reverse_order, por)


def explore_all_tapes(
    locals_: Sequence[LocalType],
    max_loop_iters: int,
    *,
    state_limit: int = DEFAULT_STATE_LIMIT,
    reverse_order: bool = False,
    por: bool = False,
) -> SimVerdict:
    """Explore all interleavings under every decision tape, with each
    loop entered at most `max_loop_iters` consecutive times. A bound of
    0 never enters a loop, so loop bodies are not searched."""
    if not locals_:
        raise ValueError("ensemble must contain at least one rank")
    if max_loop_iters < 0:
        raise ValueError(f"max_loop_iters must be >= 0, got {max_loop_iters}")
    return _explore(tuple(locals_), ("bounded", max_loop_iters), state_limit, reverse_order, por)


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------


def replay(locals_: Sequence[LocalType], trail: Sequence[Step]) -> SimState:
    """Re-execute a witness trail from the initial ensemble state.

    Each step must be enabled where it occurs; a ValueError otherwise
    means the trail does not belong to these local types.
    """
    residues = tuple(locals_)
    stack: tuple = ()
    for i, wanted in enumerate(trail):
        cands = _candidates(residues, stack, (True, True))
        hit = next((c for c in cands if c.step == wanted), None)
        if hit is None:
            raise ValueError(f"witness step {i + 1} ({wanted!r}) is not enabled")
        residues, stack = hit.residues, hit.stack
    return SimState(residues, stack)


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
