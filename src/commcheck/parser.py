"""Recursive-descent parsers for protocols and bare local-type terms.

The grammar is LL(1) except inside predicates, where a leading '(' may
open either a parenthesized predicate or a parenthesized arithmetic
operand; that single spot is resolved by backtracking. Parsing is total:
every input either yields a tree or raises ParseError with a position
and the expected-token set. A nesting-depth cap keeps degenerate inputs
from exhausting the interpreter stack.

The parsers read the tokenizer's flat sequences: a token is its index, its
kind is told by its text, and a `Pos` is built only for a position that
is stored or reported. The productions every atom and statement takes
(an atom, the spine, a program's communication statement and block)
test the token texts by index; `expect` and `eat` serve the rest. An
operand that is a lone integer literal or name, not followed by an
arithmetic operator, is read in one step; that gives the tree, the
depth check and the errors of the full expression grammar, which every
other operand takes. One parse builds one leaf per distinct literal or
name text, shared by every operand that writes it: `Lit` and `Var` are
frozen, so no reader can tell. An integer literal of more than 19
significant digits is out of range by its length alone.
"""

from __future__ import annotations

from .exprs import (
    ArrayKind,
    BinOp,
    BoolOp,
    Cmp,
    Expr,
    FLOAT,
    INT,
    Kind,
    Lit,
    NAT,
    Not,
    Pos,
    Pred,
    RefinedKind,
    Refinement,
    Var,
    INT64_MAX,
)
from .lexer import ParseError, pos_at, tokenize
from .terms import (
    COLLECTIVES,
    Atom,
    Choice,
    DataKind,
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

_BASE_KINDS = {"int": INT, "nat": NAT, "float": FLOAT}
_DTYPES = {k.value: k for k in DataKind}
_REDUCE_OPS = {o.value: o for o in ReduceOp}

# The atom kinds each side may write, in the order a syntax error lists
# them. Each maps to itself, so that an atom holds the one interned string
# of its kind, not the token's copy.
_GLOBAL_KINDS = {kind: kind for kind in ("message", *COLLECTIVES)}
_LOCAL_KINDS = {kind: kind for kind in ("send", "receive", *COLLECTIVES)}

_KEYWORDS = frozenset(
    {"Pi", "nprocs", "end", "loop", "choice", "int", "nat", "float"}
    | _GLOBAL_KINDS.keys()
    | _LOCAL_KINDS.keys()
    | set(_DTYPES)
    | set(_REDUCE_OPS)
)

_CMP_OPS = ("==", "!=", "<=", ">=", "<", ">")
_ARITH = frozenset("+-*/%")


class BaseParser:
    """Token-list plumbing plus the expression and predicate grammar."""

    # Identifiers that can never name a variable in this grammar (no
    # binder may introduce them). Refusing them in expression position
    # makes a missing operand fail at the keyword instead of silently
    # swallowing the next construct.
    expr_keywords: frozenset[str] = frozenset()

    def __init__(self, text: str):
        toks = tokenize(text)
        self.texts = toks.texts
        self.offsets = toks.offsets
        self.line_starts = toks.line_starts
        self.leaves: dict[str, Lit | Var] = {}  # by text
        self.i = 0
        self.depth = 0

    # -- token plumbing --

    def pos(self, i: int | None = None) -> Pos:
        """The position of token `i`, by default the current one."""
        return pos_at(self.line_starts, self.offsets[self.i if i is None else i])

    def eat(self, text: str) -> bool:
        """Step over the current token if its text is `text`."""
        if self.texts[self.i] == text:
            self.i += 1
            return True
        return False

    def fail(self, *expected: str, at: int | None = None) -> ParseError:
        """Raise the error of token `at`, by default the current one."""
        at = self.i if at is None else at
        text = self.texts[at]
        found = f"'{text}'" if text else "end of input"
        raise ParseError(self.pos(at), f"unexpected {found}", expected)

    def expect(self, text: str) -> None:
        """Step over the current token, which must be `text`."""
        if self.texts[self.i] != text:
            self.fail(f"'{text}'")
        self.i += 1

    def expect_ident(self) -> int:
        """Step over an identifier and return its index."""
        i = self.i
        if not self.texts[i].isidentifier():
            self.fail("an identifier")
        self.i += 1
        return i

    def _leaf(self, i: int) -> Lit | Var | None:
        """The literal or variable that token `i` writes, the same one for
        every occurrence of its text; None for any other token."""
        text = self.texts[i]
        leaf = self.leaves.get(text)
        if leaf is None:
            if text.isdigit():
                # More than 19 significant digits exceed INT64_MAX, so `int`
                # never meets its limit on the digits of a string.
                digits = text.lstrip("0") or "0"
                if len(digits) > 19 or (value := int(digits)) > INT64_MAX:
                    raise ParseError(self.pos(i), f"integer literal {text} out of range")
                leaf = self.leaves[text] = Lit(value)
            elif text.isidentifier() and text not in self.expr_keywords:
                leaf = self.leaves[text] = Var(text)
        return leaf

    def expect_eof(self) -> None:
        if self.texts[self.i]:
            self.fail("end of input")

    def _enter(self) -> None:
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            raise ParseError(self.pos(), "nesting too deep")

    def _exit(self) -> None:
        self.depth -= 1

    # -- expressions --

    def parse_expr(self) -> Expr:
        # A lone literal or name, not followed by an arithmetic operator,
        # in one step: the tree the grammar below would build, under the
        # same depth cap and with the same out-of-range error. A keyword
        # falls through to the grammar, which reports it.
        i = self.i
        texts = self.texts
        if texts[i] and texts[i + 1] not in _ARITH and self.depth < _MAX_DEPTH:
            leaf = self.leaves.get(texts[i]) or self._leaf(i)
            if leaf is not None:
                self.i = i + 1
                return leaf
        self._enter()
        try:
            e = self._mul_expr()
            while (op := self.texts[self.i]) in ("+", "-"):
                self.i += 1
                e = BinOp(op, e, self._mul_expr())
            return e
        finally:
            self._exit()

    def _mul_expr(self) -> Expr:
        e = self._unary_expr()
        while (op := self.texts[self.i]) in ("*", "/", "%"):
            self.i += 1
            e = BinOp(op, e, self._unary_expr())
        return e

    def _unary_expr(self) -> Expr:
        if self.eat("-"):
            operand = self._unary_expr()
            if isinstance(operand, Lit):
                return Lit(-operand.value)
            return BinOp("-", Lit(0), operand)
        return self._atom_expr()

    def _atom_expr(self) -> Expr:
        leaf = self._leaf(self.i)
        if leaf is not None:
            self.i += 1
            return leaf
        if self.eat("("):
            e = self.parse_expr()
            self.expect(")")
            return e
        self.fail("an integer literal", "a variable", "'('")
        raise AssertionError  # unreachable

    # -- predicates --

    def parse_pred(self) -> Pred:
        self._enter()
        try:
            p = self._and_pred()
            while self.eat("||"):
                p = BoolOp("||", p, self._and_pred())
            return p
        finally:
            self._exit()

    def _and_pred(self) -> Pred:
        p = self._not_pred()
        while self.eat("&&"):
            p = BoolOp("&&", p, self._not_pred())
        return p

    def _not_pred(self) -> Pred:
        if self.eat("!"):
            return Not(self._not_pred())
        return self._pred_atom()

    def _pred_atom(self) -> Pred:
        # '(' is ambiguous: try a parenthesized predicate, fall back to a
        # comparison whose left operand happens to be parenthesized.
        if self.texts[self.i] == "(":
            mark = self.i
            paren_err: ParseError | None = None
            try:
                self.i += 1
                p = self.parse_pred()
                self.expect(")")
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
        cmp = self.texts[self.i]
        if cmp not in _CMP_OPS:
            self.fail(*(f"'{op}'" for op in _CMP_OPS))
        self.i += 1
        rhs = self.parse_expr()
        return Cmp(cmp, lhs, rhs)


def _further(a: ParseError, b: ParseError) -> ParseError:
    return b if b.pos >= a.pos else a


# ---------------------------------------------------------------------------
# protocol grammar
# ---------------------------------------------------------------------------


class _ProtocolParser(BaseParser):
    expr_keywords = _KEYWORDS

    def protocol(self) -> Protocol:
        binders: list[ParamBinder] = []
        while self.eat("Pi"):
            at = self.expect_ident()
            name = self.texts[at]
            if name in _KEYWORDS:
                raise ParseError(self.pos(at), f"'{name}' is reserved")
            self.expect(":")
            kind = self.parse_kind()
            self.expect(".")
            binders.append(ParamBinder(name, kind, pos=self.pos(at)))
        self.expect("nprocs")
        count_at = self.i
        if not self.texts[count_at].isdigit():
            self.fail("an integer literal")
        num_procs = self._leaf(count_at).value
        self.i += 1
        if num_procs < 1:
            raise ParseError(self.pos(count_at), "process count must be positive")
        self.expect(".")
        body = self.parse_type(local=False)
        self.expect_eof()
        return Protocol(tuple(binders), num_procs, body)

    def parse_kind(self) -> Kind:
        self._enter()
        try:
            k = self._base_kind()
            while self.eat("["):
                length = self.parse_expr()
                self.expect("]")
                k = ArrayKind(k, length)
            return k
        finally:
            self._exit()

    def _base_kind(self) -> Kind:
        base = _BASE_KINDS.get(self.texts[self.i])
        if base is not None:
            self.i += 1
            return base
        if self.eat("{"):
            var = self.texts[self.expect_ident()]
            self.expect(":")
            base = self.parse_kind()
            self.expect("|")
            pred = self.parse_pred()
            self.expect("}")
            return RefinedKind(base, Refinement(var, pred))
        self.fail("'int'", "'nat'", "'float'", "'{'")
        raise AssertionError  # unreachable

    def parse_type(self, local: bool) -> TypeTerm:
        # The spine (a chain of '.'-separated items ending in `end`) is
        # parsed iteratively so its length is unbounded; recursion, and
        # with it the depth cap, applies only to loop and choice bodies.
        self._enter()
        try:
            heads: list[tuple] = []
            texts = self.texts
            while (word := texts[self.i]) != "end":
                if word == "loop":
                    self.i += 1
                    self.expect("(")
                    heads.append((Loop, self.parse_type(local)))
                    self.expect(")")
                elif word == "choice":
                    self.i += 1
                    self.expect("(")
                    tb = self.parse_type(local)
                    self.expect(",")
                    heads.append((Choice, tb, self.parse_type(local)))
                    self.expect(")")
                else:
                    heads.append((Prefix, self.parse_atom(local)))
                if texts[self.i] != ".":
                    self.fail("'.'")
                self.i += 1
            self.i += 1
            return rebuild(heads)
        finally:
            self._exit()

    def parse_atom(self, local: bool) -> Atom:
        kinds = _LOCAL_KINDS if local else _GLOBAL_KINDS
        texts = self.texts
        at = self.i
        kind = kinds.get(texts[at])
        if kind is None:
            self.fail("'end'", "'loop'", "'choice'", *(f"'{n}'" for n in kinds))
        if texts[at + 1] != "(":
            self.fail("'('", at=at + 1)
        # The rank expressions, the dtype, the length, and an allreduce's op.
        who = []
        self.i = at + 2
        for _ in range(0 if kind == "allreduce" else 2 if kind == "message" else 1):
            who.append(self.parse_expr())
            if texts[self.i] != ",":
                self.fail("','")
            self.i += 1
        i = self.i
        dtype = _DTYPES.get(texts[i])
        if dtype is None:
            self.fail(*(f"'{n}'" for n in _DTYPES), at=i)
        if texts[i + 1] != ",":
            self.fail("','", at=i + 1)
        self.i = i + 2
        length = self.parse_expr()
        i = self.i
        op = None
        if kind == "allreduce":
            if texts[i] != ",":
                self.fail("','", at=i)
            op = _REDUCE_OPS.get(texts[i + 1])
            if op is None:
                self.fail(*(f"'{n}'" for n in _REDUCE_OPS), at=i + 1)
            i += 2
        if texts[i] != ")":
            self.fail("')'", at=i)
        self.i = i + 1
        return Atom(kind, tuple(who), dtype, length, op, pos_at(self.line_starts, self.offsets[at]))


def parse_protocol(text: str) -> Protocol:
    """Parse a full protocol: parameter binders, process count, global type."""
    return _ProtocolParser(text).protocol()


def parse_local_term(text: str) -> LocalType:
    """Parse a bare local type term, as written to per-rank view files."""
    parser = _ProtocolParser(text)
    term = parser.parse_type(local=True)
    parser.expect_eof()
    return term

