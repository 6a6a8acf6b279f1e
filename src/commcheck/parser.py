"""Recursive-descent parsers for protocols and bare local-type terms.

The grammar is LL(1) except inside predicates, where a leading '(' may
open either a parenthesized predicate or a parenthesized arithmetic
operand; that single spot is resolved by backtracking. Parsing is total:
every input either yields a tree or raises ParseError with a position
and the expected-token set. A nesting-depth cap keeps degenerate inputs
from exhausting the interpreter stack.
"""

from __future__ import annotations

from typing import get_args

from .exprs import (
    ArrayKind,
    BinOp,
    Cmp,
    And,
    Expr,
    FLOAT,
    INT,
    Kind,
    Lit,
    NAT,
    Not,
    Or,
    Pred,
    RefinedKind,
    Refinement,
    Var,
    INT64_MAX,
)
from .lexer import ParseError, Token, tokenize
from .terms import (
    ATOM_FIELDS,
    ATOM_NAMES,
    Atom,
    Choice,
    DataKind,
    GlobalAtom,
    GlobalType,
    LocalAtom,
    LocalType,
    Loop,
    ParamBinder,
    Prefix,
    Protocol,
    ReduceOp,
    TypeTerm,
    rebuild,
)

_MAX_DEPTH = 200

_DTYPES = {k.value: k for k in DataKind}
_REDUCE_OPS = {o.value: o for o in ReduceOp}

_KEYWORDS = frozenset(
    {"Pi", "nprocs", "end", "loop", "choice", "int", "nat", "float"}
    | set(ATOM_NAMES.values())
    | set(_DTYPES)
    | set(_REDUCE_OPS)
)

# The atoms each side may write, by name, in the order of their union.
_GLOBAL_ATOMS = {ATOM_NAMES[cls]: cls for cls in get_args(GlobalAtom)}
_LOCAL_ATOMS = {ATOM_NAMES[cls]: cls for cls in get_args(LocalAtom)}

_CMP_OPS = ("==", "!=", "<=", ">=", "<", ">")


class BaseParser:
    """Token-stream plumbing plus the expression and predicate grammar."""

    # Identifiers that can never name a variable in this grammar (no
    # binder may introduce them). Refusing them in expression position
    # makes a missing operand fail at the keyword instead of silently
    # swallowing the next construct.
    expr_keywords: frozenset[str] = frozenset()

    def __init__(self, text: str):
        self.toks = tokenize(text)
        self.i = 0
        self.depth = 0

    # -- token plumbing --

    def peek(self) -> Token:
        return self.toks[self.i]

    def bump(self) -> Token:
        tok = self.toks[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def at_punct(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "punct" and tok.text == text

    def at_ident(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "ident" and tok.text == text

    def eat_punct(self, text: str) -> bool:
        if self.at_punct(text):
            self.bump()
            return True
        return False

    def fail(self, *expected: str) -> ParseError:
        tok = self.peek()
        found = f"'{tok.text}'" if tok.text else "end of input"
        raise ParseError(tok.pos, f"unexpected {found}", expected)

    def expect_punct(self, text: str) -> Token:
        if not self.at_punct(text):
            self.fail(f"'{text}'")
        return self.bump()

    def expect_ident(self) -> Token:
        if self.peek().kind != "ident":
            self.fail("an identifier")
        return self.bump()

    def expect_keyword(self, word: str) -> Token:
        if not self.at_ident(word):
            self.fail(f"'{word}'")
        return self.bump()

    def expect_int(self) -> int:
        tok = self.peek()
        if tok.kind != "int":
            self.fail("an integer literal")
        value = int(tok.text)
        if value > INT64_MAX:
            raise ParseError(tok.pos, f"integer literal {tok.text} out of range")
        self.bump()
        return value

    def expect_eof(self) -> None:
        if self.peek().kind != "eof":
            self.fail("end of input")

    def _enter(self) -> None:
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            raise ParseError(self.peek().pos, "nesting too deep")

    def _exit(self) -> None:
        self.depth -= 1

    # -- expressions --

    def parse_expr(self) -> Expr:
        self._enter()
        try:
            e = self._mul_expr()
            while self.peek().kind == "punct" and self.peek().text in ("+", "-"):
                op = self.bump().text
                e = BinOp(op, e, self._mul_expr())
            return e
        finally:
            self._exit()

    def _mul_expr(self) -> Expr:
        e = self._unary_expr()
        while self.peek().kind == "punct" and self.peek().text in ("*", "/", "%"):
            op = self.bump().text
            e = BinOp(op, e, self._unary_expr())
        return e

    def _unary_expr(self) -> Expr:
        if self.at_punct("-"):
            self.bump()
            operand = self._unary_expr()
            if isinstance(operand, Lit):
                return Lit(-operand.value)
            return BinOp("-", Lit(0), operand)
        return self._atom_expr()

    def _atom_expr(self) -> Expr:
        tok = self.peek()
        if tok.kind == "int":
            return Lit(self.expect_int())
        if tok.kind == "ident" and tok.text not in self.expr_keywords:
            self.bump()
            return Var(tok.text)
        if self.eat_punct("("):
            e = self.parse_expr()
            self.expect_punct(")")
            return e
        self.fail("an integer literal", "a variable", "'('")
        raise AssertionError  # unreachable

    # -- predicates --

    def parse_pred(self) -> Pred:
        self._enter()
        try:
            p = self._and_pred()
            while self.at_punct("||"):
                self.bump()
                p = Or(p, self._and_pred())
            return p
        finally:
            self._exit()

    def _and_pred(self) -> Pred:
        p = self._not_pred()
        while self.at_punct("&&"):
            self.bump()
            p = And(p, self._not_pred())
        return p

    def _not_pred(self) -> Pred:
        if self.at_punct("!"):
            self.bump()
            return Not(self._not_pred())
        return self._pred_atom()

    def _pred_atom(self) -> Pred:
        # '(' is ambiguous: try a parenthesized predicate, fall back to a
        # comparison whose left operand happens to be parenthesized.
        if self.at_punct("("):
            mark = self.i
            paren_err: ParseError | None = None
            try:
                self.bump()
                p = self.parse_pred()
                self.expect_punct(")")
                return p
            except ParseError as err:
                paren_err = err
                self.i = mark
            try:
                return self._comparison()
            except ParseError as err:
                raise _further(paren_err, err) from None
        return self._comparison()

    def _comparison(self) -> Pred:
        lhs = self.parse_expr()
        tok = self.peek()
        if tok.kind != "punct" or tok.text not in _CMP_OPS:
            self.fail(*(f"'{op}'" for op in _CMP_OPS))
        self.bump()
        rhs = self.parse_expr()
        return Cmp(tok.text, lhs, rhs)


def _further(a: ParseError, b: ParseError) -> ParseError:
    return b if (b.pos.line, b.pos.col) >= (a.pos.line, a.pos.col) else a


# ---------------------------------------------------------------------------
# protocol grammar
# ---------------------------------------------------------------------------


class _ProtocolParser(BaseParser):
    expr_keywords = _KEYWORDS

    def protocol(self) -> Protocol:
        binders: list[ParamBinder] = []
        while self.at_ident("Pi"):
            self.bump()
            name = self.expect_ident()
            if name.text in _KEYWORDS:
                raise ParseError(name.pos, f"'{name.text}' is reserved")
            self.expect_punct(":")
            kind = self.parse_kind()
            self.expect_punct(".")
            binders.append(ParamBinder(name.text, kind, pos=name.pos))
        self.expect_keyword("nprocs")
        count_pos = self.peek().pos
        num_procs = self.expect_int()
        if num_procs < 1:
            raise ParseError(count_pos, "process count must be positive")
        self.expect_punct(".")
        body = self.parse_type(local=False)
        self.expect_eof()
        return Protocol(tuple(binders), num_procs, body)

    def parse_kind(self) -> Kind:
        self._enter()
        try:
            k = self._base_kind()
            while self.eat_punct("["):
                length = self.parse_expr()
                self.expect_punct("]")
                k = ArrayKind(k, length)
            return k
        finally:
            self._exit()

    def _base_kind(self) -> Kind:
        if self.at_ident("int"):
            self.bump()
            return INT
        if self.at_ident("nat"):
            self.bump()
            return NAT
        if self.at_ident("float"):
            self.bump()
            return FLOAT
        if self.eat_punct("{"):
            var = self.expect_ident()
            self.expect_punct(":")
            base = self.parse_kind()
            self.expect_punct("|")
            pred = self.parse_pred()
            self.expect_punct("}")
            return RefinedKind(base, Refinement(var.text, pred))
        self.fail("'int'", "'nat'", "'float'", "'{'")
        raise AssertionError  # unreachable

    def parse_type(self, local: bool) -> TypeTerm:
        # The spine (a chain of '.'-separated items ending in `end`) is
        # parsed iteratively so its length is unbounded; recursion, and
        # with it the depth cap, applies only to loop and choice bodies.
        self._enter()
        try:
            heads: list[tuple] = []
            while not self.at_ident("end"):
                if self.at_ident("loop"):
                    self.bump()
                    self.expect_punct("(")
                    heads.append((Loop, self.parse_type(local)))
                    self.expect_punct(")")
                elif self.at_ident("choice"):
                    self.bump()
                    self.expect_punct("(")
                    tb = self.parse_type(local)
                    self.expect_punct(",")
                    heads.append((Choice, tb, self.parse_type(local)))
                    self.expect_punct(")")
                else:
                    heads.append((Prefix, self.parse_atom(local)))
                self.expect_punct(".")
            self.bump()
            return rebuild(heads)
        finally:
            self._exit()

    def parse_atom(self, local: bool) -> Atom:
        names = _LOCAL_ATOMS if local else _GLOBAL_ATOMS
        tok = self.peek()
        if tok.kind != "ident" or tok.text not in names:
            self.fail("'end'", "'loop'", "'choice'", *(f"'{n}'" for n in names))
        self.bump()
        cls = names[tok.text]
        self.expect_punct("(")
        args = []
        for i, name in enumerate(ATOM_FIELDS[cls]):
            if i:
                self.expect_punct(",")
            if name == "dtype":
                args.append(self._dtype())
            elif name == "op":
                args.append(self._reduce_op())
            else:
                args.append(self.parse_expr())
        self.expect_punct(")")
        return cls(*args, pos=tok.pos)

    def _dtype(self) -> DataKind:
        tok = self.peek()
        if tok.kind == "ident" and tok.text in _DTYPES:
            self.bump()
            return _DTYPES[tok.text]
        self.fail(*(f"'{n}'" for n in _DTYPES))
        raise AssertionError  # unreachable

    def _reduce_op(self) -> ReduceOp:
        tok = self.peek()
        if tok.kind == "ident" and tok.text in _REDUCE_OPS:
            self.bump()
            return _REDUCE_OPS[tok.text]
        self.fail(*(f"'{n}'" for n in _REDUCE_OPS))
        raise AssertionError  # unreachable


def parse_protocol(text: str) -> Protocol:
    """Parse a full protocol: parameter binders, process count, global type."""
    return _ProtocolParser(text).protocol()


def parse_local_term(text: str) -> LocalType:
    """Parse a bare local type term, as written to per-rank view files."""
    parser = _ProtocolParser(text)
    term = parser.parse_type(local=True)
    parser.expect_eof()
    return term


def parse_global_term(text: str) -> GlobalType:
    """Parse a bare global type term (no binders, no process count)."""
    parser = _ProtocolParser(text)
    term = parser.parse_type(local=False)
    parser.expect_eof()
    return term
