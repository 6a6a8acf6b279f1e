"""SPMD program model: a small imperative language with explicit buffers.

One program text runs on every rank. Communication statements name a
declared buffer. All six are one `CommStmt`, which mirrors `Comm`: its
kind, the peer or root, the buffer, the length and, for an allreduce,
the reduce op. The five statements that communicate nothing (`init`,
`commsize`, `commrank`, `compute` and `finalize`) are one `Marker`,
named by its word. Collective loops and choices are written as explicit
blocks (`collloop`, `collchoice`) because their decisions are taken by
all ranks together, while `rankif` branches on rank-locally computable
guards. The identifiers `me` and `np` are predefined (own rank and
ensemble size) and cannot be redeclared.

Structural rules enforced at parse time: exactly one `init`, preceding
all communication; exactly one `finalize`, the last statement; both only
at top level; `param` declarations first; each `param` and `buffer`
name declared once in the whole program, at any depth; a `let` may
bind any name but `me` and `np`, and may rebind one.

Scopes: a `collloop` body and each `collchoice` branch see the names and
buffers bound where the block begins, and what they bind stays inside,
so every loop iteration starts from the same bindings; a `rankif`
branch binds in the enclosing scope.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from .exprs import Expr, Pos, Pred
from .lexer import ParseError, pos_at
from .parser import BaseParser
from .terms import DataKind, ReduceOp

RESERVED_NAMES = frozenset({"me", "np"})

# Each communication statement's word, with its `CommStmt` kind and its
# keys in written order. The value of `buf` and `op` is a name, that of
# any other key an expression.
_COMM_WORDS = {
    "send": ("send", ("peer", "buf", "len")),
    "recv": ("receive", ("peer", "buf", "len")),
    "scatter": ("scatter", ("root", "buf", "len")),
    "gather": ("gather", ("root", "buf", "len")),
    "bcast": ("bcast", ("root", "buf", "len")),
    "allreduce": ("allreduce", ("buf", "len", "op")),
}

_MARKERS = frozenset({"init", "commsize", "commrank", "compute", "finalize"})

_STMT_KEYWORDS = frozenset(
    {
        "param",
        "buffer",
        "let",
        *_MARKERS,
        *_COMM_WORDS,
        "collloop",
        "collchoice",
        "rankif",
        "else",
        "int",
        "float",
    }
)

_BUFFER_KINDS = {"int": DataKind.INT, "float": DataKind.FLOAT}
_OP_NAMES = {"MAX": ReduceOp.MAX, "MIN": ReduceOp.MIN, "SUM": ReduceOp.SUM}


# ---------------------------------------------------------------------------
# statements
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Marker:
    """A statement that communicates nothing, named by its word: `init`,
    `commsize`, `commrank`, `compute` (local computation) or `finalize`."""

    kind: str  # init | commsize | commrank | compute | finalize
    pos: Pos | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True, slots=True)
class Let:
    name: str
    value: Expr
    pos: Pos | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True, slots=True)
class BufferDecl:
    name: str
    elem: DataKind
    capacity: Expr
    pos: Pos | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True, slots=True)
class CommStmt:
    """A communication statement; it mirrors `Comm`, with the buffer's
    name in place of the data kind and expressions in place of values.

    `who` is the peer of a send or receive, the root of a scatter,
    gather or bcast, and None for an allreduce; `op` is set only for an
    allreduce.
    """

    kind: str  # send | receive | scatter | gather | bcast | allreduce
    who: Expr | None
    buf: str
    length: Expr
    op: ReduceOp | None = None
    pos: Pos | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True, slots=True)
class CollLoop:
    body: tuple[Stmt, ...]
    pos: Pos | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True, slots=True)
class CollChoice:
    then_body: tuple[Stmt, ...]
    else_body: tuple[Stmt, ...]
    pos: Pos | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True, slots=True)
class RankIf:
    """Rank-local branch; the guard must evaluate concretely per rank."""

    guard: Pred
    then_body: tuple[Stmt, ...]
    else_body: tuple[Stmt, ...]
    pos: Pos | None = field(default=None, compare=False, repr=False)


Stmt = Union[Marker, Let, BufferDecl, CommStmt, CollLoop, CollChoice, RankIf]


@dataclass(frozen=True, slots=True)
class Program:
    params: tuple[str, ...]
    body: tuple[Stmt, ...]

    @property
    def buffers(self) -> tuple[BufferDecl, ...]:
        found: list[BufferDecl] = []

        def scan(stmts):
            for s in stmts:
                match s:
                    case BufferDecl():
                        found.append(s)
                    case CollLoop(body):
                        scan(body)
                    case CollChoice(tb, fb) | RankIf(_, tb, fb):
                        scan(tb)
                        scan(fb)

        scan(self.body)
        return tuple(found)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _ProgramParser(BaseParser):
    expr_keywords = _STMT_KEYWORDS

    def program(self) -> Program:
        params: list[str] = []
        body: list[Stmt] = []
        while self.texts[self.i] == "param":
            at = self.i
            self.i += 1
            name = self._decl_name()
            if name in params:
                raise ParseError(self.pos(at), f"duplicate parameter '{name}'")
            params.append(name)
        while self.texts[self.i]:
            body.append(self.statement(True))
        prog = Program(tuple(params), tuple(body))
        self._validate(prog)
        return prog

    def _decl_name(self) -> str:
        at = self.expect_ident()
        name = self.texts[at]
        if name in RESERVED_NAMES:
            raise ParseError(self.pos(at), f"'{name}' is predefined and cannot be declared")
        if name in _STMT_KEYWORDS:
            raise ParseError(self.pos(at), f"'{name}' is reserved")
        return name

    def statement(self, top: bool) -> Stmt:
        texts = self.texts
        at = self.i
        word = texts[at]
        pos = pos_at(self.line_starts, self.offsets[at])
        comm = _COMM_WORDS.get(word)
        if comm is not None:
            kind, keys = comm
            values = []
            i = at + 1
            for key in keys:
                if texts[i] != key:
                    self.fail(f"'{key}'", at=i)
                if texts[i + 1] != "=":
                    self.fail("'='", at=i + 1)
                if key == "buf" or key == "op":
                    if not texts[i + 2].isidentifier():
                        self.fail("an identifier", at=i + 2)
                    values.append(texts[i + 2])
                    i += 3
                else:
                    self.i = i + 2
                    values.append(self.parse_expr())
                    i = self.i
            self.i = i
            if kind != "allreduce":
                who, buf, length = values
                return CommStmt(kind, who, buf, length, None, pos=pos)
            buf, length, name = values
            if name not in _OP_NAMES:
                raise ParseError(self.pos(i - 1), "reduce op must be MAX, MIN, or SUM")
            return CommStmt(kind, None, buf, length, _OP_NAMES[name], pos=pos)
        if not word.isidentifier():
            self.fail("a statement")
        if word in ("param", "init", "finalize") and not top:
            raise ParseError(pos, f"'{word}' is only allowed at top level")
        if word == "param":
            raise ParseError(pos, "'param' declarations must precede all statements")
        self.i += 1
        if word in _MARKERS:
            return Marker(word, pos=pos)
        if word == "let":
            name = self._decl_name()
            self.expect("=")
            return Let(name, self.parse_expr(), pos=pos)
        if word == "buffer":
            name = self._decl_name()
            kind_at = self.expect_ident()
            elem = _BUFFER_KINDS.get(self.texts[kind_at])
            if elem is None:
                raise ParseError(self.pos(kind_at), "buffer kind must be 'int' or 'float'")
            self.expect("[")
            capacity = self.parse_expr()
            self.expect("]")
            return BufferDecl(name, elem, capacity, pos=pos)
        if word == "collloop":
            return CollLoop(self.block(), pos=pos)
        if word == "collchoice":
            then_body = self.block()
            self.expect("else")
            return CollChoice(then_body, self.block(), pos=pos)
        if word == "rankif":
            self.expect("(")
            guard = self.parse_pred()
            self.expect(")")
            then_body = self.block()
            else_body: tuple[Stmt, ...] = ()
            if self.eat("else"):
                else_body = self.block()
            return RankIf(guard, then_body, else_body, pos=pos)
        raise ParseError(pos, f"unknown statement '{word}'")

    def block(self) -> tuple[Stmt, ...]:
        # No parse goes on after an error inside a block, so the depth
        # need not be restored on the way out of one.
        self._enter()
        texts = self.texts
        if texts[self.i] != "{":
            self.fail("'{'")
        self.i += 1
        stmts: list[Stmt] = []
        while (word := texts[self.i]) != "}":
            if not word:
                self.fail("'}'")
            stmts.append(self.statement(False))
        self.i += 1
        self._exit()
        return tuple(stmts)

    # -- structural rules --

    def _validate(self, prog: Program) -> None:
        def marks(s: Stmt, kind: str) -> bool:
            return isinstance(s, Marker) and s.kind == kind

        def before_init(s: Stmt) -> bool:
            return isinstance(s, (Let, BufferDecl)) or marks(s, "compute")

        inits = [s for s in prog.body if marks(s, "init")]
        finals = [s for s in prog.body if marks(s, "finalize")]
        if not inits:
            # At the first statement that needs an 'init' before it.
            needs = (s.pos for s in prog.body if not before_init(s))
            raise ParseError(next(needs, None) or self.pos(), "program must contain 'init'")
        if len(inits) > 1:
            raise ParseError(inits[1].pos, "duplicate 'init'")
        if not finals:
            raise ParseError(self.pos(), "program must contain 'finalize'")
        if len(finals) > 1:
            raise ParseError(finals[1].pos, "duplicate 'finalize'")
        if not marks(prog.body[-1], "finalize"):
            raise ParseError(finals[0].pos, "'finalize' must be the last statement")
        init_at = prog.body.index(inits[0])
        for s in prog.body[:init_at]:
            if not before_init(s):
                raise ParseError(s.pos, "communication before 'init'")
        seen: set[str] = set(prog.params)
        for decl in prog.buffers:
            if decl.name in seen:
                raise ParseError(decl.pos, f"duplicate declaration of '{decl.name}'")
            seen.add(decl.name)


def parse_program(text: str) -> Program:
    """Parse and structurally validate a program text."""
    parser = _ProgramParser(text)
    return parser.program()
