"""Canonical text rendering for protocols, type terms, expressions, kinds.

The output is the parsers' input language: parse(render(x)) == x for
every tree, with minimal parentheses in expressions and predicates and
one atom per line in type terms.
"""

from __future__ import annotations

from .exprs import (
    ArrayKind,
    BaseKind,
    BinOp,
    BoolOp,
    Cmp,
    Expr,
    Kind,
    Lit,
    Not,
    Pred,
    RefinedKind,
    Var,
)
from .terms import Atom, Loop, Prefix, Protocol, TypeTerm, spine

# The precedence of each infix operator, arithmetic and connective alike;
# an operand that is not an infix node binds tighter than all of them.
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "%": 2, "||": 1, "&&": 2}


def _prec(node: Expr | Pred) -> int:
    if isinstance(node, (BinOp, BoolOp)):
        return _PREC[node.op]
    return 3


def _infix(node: BinOp | BoolOp, fmt) -> str:
    """`node` with its operands written by `fmt`, parenthesized only
    where the operator's precedence needs it."""
    prec = _PREC[node.op]
    left = fmt(node.lhs)
    if _prec(node.lhs) < prec:
        left = f"({left})"
    right = fmt(node.rhs)
    # Operators are left-associative, so an equal-precedence right
    # child needs parentheses to reparse into the same shape.
    if _prec(node.rhs) <= prec:
        right = f"({right})"
    return f"{left}{node.op}{right}"


def format_expr(e: Expr) -> str:
    if isinstance(e, Lit):
        return str(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, BinOp):
        return _infix(e, format_expr)
    raise TypeError(f"not an expression: {e!r}")


def format_pred(p: Pred) -> str:
    match p:
        case Cmp(op, lhs, rhs):
            return f"{format_expr(lhs)}{op}{format_expr(rhs)}"
        case BoolOp():
            return _infix(p, format_pred)
        case Not(arg):
            return f"!({format_pred(arg)})"
    raise TypeError(f"not a predicate: {p!r}")


def format_kind(k: Kind) -> str:
    match k:
        case BaseKind(name):
            return name
        case RefinedKind(base, r):
            return f"{{{r.var}:{format_kind(base)}|{format_pred(r.pred)}}}"
        case ArrayKind(elem, length):
            return f"{format_kind(elem)}[{format_expr(length)}]"
    raise TypeError(f"not a kind: {k!r}")


def format_atom(a: Atom) -> str:
    args = [*map(format_expr, a.who), a.dtype.value, format_expr(a.length)]
    if a.op is not None:
        args.append(a.op.value)
    return f"{a.kind}({','.join(args)})"


def format_term(t: TypeTerm, indent: int = 0) -> str:
    """Render a type term, one spine item per line."""
    pad = "  " * indent
    lines: list[str] = []
    for node in spine(t):
        if isinstance(node, Prefix):
            lines.append(f"{pad}{format_atom(node.atom)}.")
        elif isinstance(node, Loop):
            lines.append(f"{pad}loop(")
            lines.append(format_term(node.body, indent + 1))
            lines.append(f"{pad}).")
        else:
            lines.append(f"{pad}choice(")
            lines.append(format_term(node.true_branch, indent + 1) + ",")
            lines.append(format_term(node.false_branch, indent + 1))
            lines.append(f"{pad}).")
    lines.append(f"{pad}end")
    return "\n".join(lines)


def format_protocol(p: Protocol) -> str:
    lines = [f"Pi {b.name}: {format_kind(b.kind)}." for b in p.params]
    lines.append(f"nprocs {p.num_procs}.")
    lines.append(format_term(p.body))
    return "\n".join(lines) + "\n"
