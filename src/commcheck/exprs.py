"""Integer expressions, boolean predicates, and parameter kinds.

Arithmetic follows C semantics on signed 64-bit integers: division
truncates toward zero, the remainder takes the sign of the dividend,
and any intermediate value outside the 64-bit range is reported as an
overflow instead of wrapping. Evaluation is always concrete: every
variable must be bound in the environment, and looking up an unbound
name is an error, never a default.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Union

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

# Evaluation environment: parameter name -> concrete integer value.
Env = dict[str, int]


class Pos(NamedTuple):
    """1-based line/column source position. A named tuple: every node
    keeps its `pos` out of comparisons and hashing, so tuple equality
    never meets another record."""

    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


class ExprError(Exception):
    """An evaluation failure: an unbound variable, a division by zero, or
    a value outside the signed 64-bit range, told apart by its message."""


class KindMismatch(ExprError):
    """A value was checked against a kind that cannot classify it."""


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Lit:
    value: int


@dataclass(frozen=True, slots=True)
class Var:
    name: str


@dataclass(frozen=True, slots=True)
class BinOp:
    op: str  # one of + - * / %
    lhs: Expr
    rhs: Expr


Expr = Union[Lit, Var, BinOp]


def _ranged(v: int) -> int:
    if v < INT64_MIN or v > INT64_MAX:
        raise ExprError(f"value {v} exceeds the signed 64-bit range")
    return v


def _c_quotient(a: int, b: int) -> int:
    # Python's // floors; C truncates toward zero.
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def eval_expr(e: Expr, env: Env) -> int:
    """Evaluate `e` under `env` to a signed 64-bit integer.

    Raises ExprError.
    """
    if type(e) is Lit:  # most operands of a protocol are literals
        return _ranged(e.value)
    if isinstance(e, Var):
        if e.name not in env:
            raise ExprError(f"unbound variable '{e.name}'")
        return _ranged(env[e.name])
    if isinstance(e, BinOp):
        op = e.op
        a = eval_expr(e.lhs, env)
        b = eval_expr(e.rhs, env)
        if op == "+":
            return _ranged(a + b)
        if op == "-":
            return _ranged(a - b)
        if op == "*":
            return _ranged(a * b)
        if op == "/" or op == "%":
            if b == 0:
                raise ExprError(f"division by zero in {a}{op}{b}")
            # A remainder's implied quotient must be representable too.
            q = _ranged(_c_quotient(a, b))
            return q if op == "/" else _ranged(a - q * b)
        raise ValueError(f"unknown operator {op!r}")
    raise TypeError(f"not an expression: {e!r}")


def expr_vars(e: Expr) -> set[str]:
    match e:
        case Lit():
            return set()
        case Var(name):
            return {name}
        case BinOp(_, lhs, rhs):
            return expr_vars(lhs) | expr_vars(rhs)
    raise TypeError(f"not an expression: {e!r}")


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Cmp:
    op: str  # one of == != < <= > >=
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True, slots=True)
class BoolOp:
    op: str  # && or ||
    lhs: Pred
    rhs: Pred


@dataclass(frozen=True, slots=True)
class Not:
    arg: Pred


Pred = Union[Cmp, BoolOp, Not]


def eval_pred(p: Pred, env: Env) -> bool:
    if isinstance(p, Cmp):
        op = p.op
        a = eval_expr(p.lhs, env)
        b = eval_expr(p.rhs, env)
        if op == "==":
            return a == b
        if op == "!=":
            return a != b
        if op == "<":
            return a < b
        if op == "<=":
            return a <= b
        if op == ">":
            return a > b
        if op == ">=":
            return a >= b
        raise ValueError(f"unknown comparison {op!r}")
    if isinstance(p, BoolOp):
        if p.op == "&&":
            return eval_pred(p.lhs, env) and eval_pred(p.rhs, env)
        if p.op == "||":
            return eval_pred(p.lhs, env) or eval_pred(p.rhs, env)
        raise ValueError(f"unknown connective {p.op!r}")
    if isinstance(p, Not):
        return not eval_pred(p.arg, env)
    raise TypeError(f"not a predicate: {p!r}")


# ---------------------------------------------------------------------------
# kinds
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class BaseKind:
    name: str  # int | nat | float


@dataclass(frozen=True, slots=True)
class Refinement:
    """A bound variable and a predicate over it (plus enclosing parameters)."""

    var: str
    pred: Pred


@dataclass(frozen=True, slots=True)
class RefinedKind:
    base: Kind
    refinement: Refinement


@dataclass(frozen=True, slots=True)
class ArrayKind:
    elem: Kind
    length: Expr


Kind = Union[BaseKind, RefinedKind, ArrayKind]

INT = BaseKind("int")
NAT = BaseKind("nat")
FLOAT = BaseKind("float")


def check_refinement(k: Kind, value: int, env: Env) -> bool:
    """Whether `value` satisfies every refinement layer of `k` under `env`.

    Each refinement predicate is evaluated with the environment extended
    by the bound variable, so earlier parameters stay in scope. Raises
    KindMismatch when `k` is not integer-valued (float or array). `nat`
    is int refined by nonnegativity; the value of an `int`, a `nat` or a
    refinement's bound variable must be an `int`, so neither a `bool`
    nor a float, and lie in the signed 64-bit range.
    """
    match k:
        case BaseKind("int" | "nat"):
            return type(value) is int and (_ranged(value) >= 0 or k.name == "int")
        case RefinedKind(base, r):
            if not check_refinement(base, value, env):
                return False
            return eval_pred(r.pred, {**env, r.var: value})
        case BaseKind("float") | ArrayKind():
            raise KindMismatch("refinement check against a non-integer kind")
    raise TypeError(f"not a kind: {k!r}")
