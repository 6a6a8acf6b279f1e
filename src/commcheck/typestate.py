"""Typestate over local types: head accessors and the step relation.

A rank's verification state is the residue of its local type. `step`
is the relation type × `Comm` → type: an action the program performs
must equal `comm_of` of the residue's head prefix field by field, and
the residue then advances to the continuation. Loop and choice nodes
are collective boundaries, where an ordinary action is a structure
error rather than a mismatched head.

`StepError` is the one defect of a rank's walk, raised here by the
relation and by the checker for its own defects. Its `code` is data: a
stable machine-readable name of the defect, with the offending field
or construct after a colon.
"""

from __future__ import annotations

from .exprs import Pos
from .terms import (
    Atom,
    Choice,
    Comm,
    End,
    LocalType,
    Loop,
    Prefix,
    atom_of,
    comm_of,
)
from .printer import format_atom


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
    """The defect that stops a rank's walk: its `code`, its message, and
    the position of the statement it arose in, once known."""

    def __init__(self, code: str, message: str, pos: Pos | None = None):
        super().__init__(message)
        self.code = code
        self.pos = pos


class NotAPrefix(StepError):
    """The local type has no node of the kind asked for."""

    def __init__(self, expected: str, found: str):
        super().__init__("not-a-prefix", f"expected {expected}, but the local type is {found}")


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


def mismatched_fields(head: Comm, action: Comm) -> tuple[str, ...]:
    """Names of the fields where `action` disagrees with `head`, most
    significant first; empty when they match."""
    if head.kind != action.kind:
        return ("kind",)
    labels = ("peer" if head.kind in ("send", "receive") else "root", "dtype", "len", "op")
    return tuple(label for label, x, y in zip(labels, head[1:], action[1:]) if x != y)


def step(t: LocalType, action: Comm) -> LocalType:
    """The residue after `t` performs `action`: the continuation of a
    head prefix that matches `action` on every field.

    Raises StepError `head-mismatch:<field>` at a prefix that differs,
    naming the most significant field, `at-collective-boundary:<kind>`
    at a loop or choice, and NotAPrefix at end.
    """
    if isinstance(t, Prefix):
        head = comm_of(t.atom)
        if head == action:
            return t.cont
        fields = mismatched_fields(head, action)
        raise StepError(
            f"head-mismatch:{fields[0]}",
            f"action {format_atom(atom_of(action))} does not match the expected"
            f" {format_atom(t.atom)} (differs in {', '.join(fields)})",
        )
    if isinstance(t, (Loop, Choice)):
        kind = "loop" if isinstance(t, Loop) else "choice"
        raise StepError(
            f"at-collective-boundary:{kind}",
            f"the local type is at a collective {kind}, but the program"
            f" performs {format_atom(atom_of(action))} without entering one",
        )
    if isinstance(t, End):
        raise NotAPrefix(
            f"the protocol to continue (program performs {format_atom(atom_of(action))})",
            "end",
        )
    raise TypeError(f"not a type term: {t!r}")
