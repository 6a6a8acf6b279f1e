"""Typestate over local types: head accessors and the stepping relation.

A rank's verification state is the residue of its local type. Each
communication action a program performs is a `Comm`, the one ground
record of a communication, and must equal `comm_of` of the residue's
head prefix field by field; the residue then advances to the
continuation. Loop and choice nodes are collective boundaries: an
ordinary action arriving there is a structure error, distinct from a
mismatched head. Every error carries a stable machine-readable `code`
naming the class of defect, with the offending field first.
"""

from __future__ import annotations

from dataclasses import dataclass

from .terms import (
    Atom,
    Choice,
    Comm,
    DataKind,
    End,
    LocalType,
    Loop,
    Prefix,
    atom_of,
    comm_of,
)
from .printer import format_atom


@dataclass(frozen=True, slots=True)
class BufferFacts:
    """What the checker knows about the buffer an action reads or writes."""

    elem: DataKind
    capacity: int


def describe_action(a: Comm) -> str:
    return format_atom(atom_of(a))


def describe_node(t: LocalType) -> str:
    match t:
        case End():
            return "end"
        case Loop():
            return "a collective loop"
        case Choice():
            return "a collective choice"
        case Prefix(atom, _):
            return format_atom(atom)
    raise TypeError(f"not a type term: {t!r}")


# ---------------------------------------------------------------------------
# errors
# ---------------------------------------------------------------------------


class StepError(Exception):
    """Base class; `code` names the defect class for diagnostics."""

    code = "step-error"


class NotAPrefix(StepError):
    code = "not-a-prefix"

    def __init__(self, expected: str, found: str):
        super().__init__(f"expected {expected}, but the local type is {found}")


class HeadMismatch(StepError):
    """Action and head prefix disagree in `fields`, most significant
    first; the first one names the code."""

    def __init__(self, atom: Atom, action: Comm, fields: tuple[str, ...]):
        super().__init__(
            f"action {describe_action(action)} does not match the expected"
            f" {format_atom(atom)} (differs in {', '.join(fields)})"
        )
        self.code = f"head-mismatch:{fields[0]}"


class AtCollectiveBoundary(StepError):
    """An ordinary action arrived where the type demands a collective
    loop or choice construct."""

    def __init__(self, kind: str, action: Comm):
        super().__init__(
            f"the local type is at a collective {kind}, but the program"
            f" performs {describe_action(action)} without entering one"
        )
        self.code = f"at-collective-boundary:{kind}"


class ResidualNotEnd(StepError):
    code = "residual-not-end"

    def __init__(self, residual: LocalType):
        super().__init__(
            "obligations remain at finalize: the residual local type is"
            f" {describe_node(residual)}, not end"
        )


class BufferObligation(StepError):
    code = "buffer-obligation"


# ---------------------------------------------------------------------------
# head accessors
# ---------------------------------------------------------------------------


def first(t: LocalType) -> Atom:
    """Head atom of a prefix; anything else has no first action."""
    match t:
        case Prefix(atom, _):
            return atom
    raise NotAPrefix("a communication prefix", describe_node(t))


def next_type(t: LocalType) -> LocalType:
    """Continuation after the head prefix, loop, or choice."""
    match t:
        case Prefix(_, cont) | Loop(_, cont) | Choice(_, _, cont):
            return cont
    raise NotAPrefix("a prefix, loop, or choice", describe_node(t))


def loop_body(t: LocalType) -> LocalType:
    match t:
        case Loop(body, _):
            return body
    raise NotAPrefix("a collective loop", describe_node(t))


def choice_branches(t: LocalType) -> tuple[LocalType, LocalType]:
    match t:
        case Choice(tb, fb, _):
            return (tb, fb)
    raise NotAPrefix("a collective choice", describe_node(t))


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------


def mismatched_fields(atom: Atom, action: Comm) -> tuple[str, ...]:
    """Names of the fields where `action` disagrees with `atom`, most
    significant first; empty when they match."""
    head = comm_of(atom)
    if head.kind != action.kind:
        return ("kind",)
    labels = ("peer" if head.kind in ("send", "receive") else "root", "dtype", "len", "op")
    return tuple(label for label, x, y in zip(labels, head[1:], action[1:]) if x != y)


def step(t: LocalType, action: Comm, buf: BufferFacts | None = None) -> LocalType:
    """Advance the residue `t` by one communication action.

    The head prefix must match `action` on every field, and when buffer
    facts are supplied the buffer must hold elements of the action's
    data kind and have capacity for the transferred count. Raises
    AtCollectiveBoundary at loop/choice nodes, NotAPrefix at end,
    HeadMismatch or BufferObligation otherwise.
    """
    if isinstance(t, Prefix):
        atom = t.atom
        if comm_of(atom) != action:
            raise HeadMismatch(atom, action, mismatched_fields(atom, action))
        if buf is not None:
            if buf.elem != action.dtype:
                raise BufferObligation(
                    f"buffer holds {buf.elem.value} elements but the action"
                    f" transfers {action.dtype.value}"
                )
            if buf.capacity < action.count:
                raise BufferObligation(
                    f"buffer capacity {buf.capacity} is smaller than the"
                    f" transferred count {action.count}"
                )
        return t.cont
    if isinstance(t, Loop):
        raise AtCollectiveBoundary("loop", action)
    if isinstance(t, Choice):
        raise AtCollectiveBoundary("choice", action)
    if isinstance(t, End):
        raise NotAPrefix(
            f"the protocol to continue (program performs {describe_action(action)})",
            "end",
        )
    raise TypeError(f"not a type term: {t!r}")


def check_finalized(t: LocalType) -> None:
    """The residue must be exactly `end` when a rank finalizes."""
    match t:
        case End():
            return
    raise ResidualNotEnd(t)
