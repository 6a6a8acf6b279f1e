"""Canonical text rendering for protocols, type terms, expressions, kinds.

The output is the parsers' input language: parse(render(x)) == x for
every tree, with minimal parentheses in expressions and predicates and
one atom per line in type terms.
"""

from __future__ import annotations

from .exprs import (
    And,
    ArrayKind,
    BinOp,
    Cmp,
    Expr,
    FloatKind,
    IntKind,
    Kind,
    Lit,
    NatKind,
    Not,
    Or,
    Pred,
    RefinedKind,
    Var,
)
from .terms import Atom, Loop, Prefix, Protocol, TypeTerm, spine

_EXPR_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "%": 2}


def _expr_prec(e: Expr) -> int:
    if isinstance(e, BinOp):
        return _EXPR_PREC[e.op]
    return 3


def format_expr(e: Expr) -> str:
    if isinstance(e, Lit):
        return str(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, BinOp):
        op, lhs, rhs = e.op, e.lhs, e.rhs
        prec = _EXPR_PREC[op]
        left = format_expr(lhs)
        if _expr_prec(lhs) < prec:
            left = f"({left})"
        right = format_expr(rhs)
        # Operators are left-associative, so an equal-precedence right
        # child needs parentheses to reparse into the same shape.
        if _expr_prec(rhs) <= prec:
            right = f"({right})"
        return f"{left}{op}{right}"
    raise TypeError(f"not an expression: {e!r}")


def _pred_prec(p: Pred) -> int:
    match p:
        case Or():
            return 1
        case And():
            return 2
        case _:
            return 3


def format_pred(p: Pred) -> str:
    match p:
        case Cmp(op, lhs, rhs):
            return f"{format_expr(lhs)}{op}{format_expr(rhs)}"
        case And(lhs, rhs):
            left = format_pred(lhs)
            if _pred_prec(lhs) < 2:
                left = f"({left})"
            right = format_pred(rhs)
            if _pred_prec(rhs) <= 2:
                right = f"({right})"
            return f"{left}&&{right}"
        case Or(lhs, rhs):
            left = format_pred(lhs)
            right = format_pred(rhs)
            if _pred_prec(rhs) <= 1:
                right = f"({right})"
            return f"{left}||{right}"
        case Not(arg):
            return f"!({format_pred(arg)})"
    raise TypeError(f"not a predicate: {p!r}")


def format_kind(k: Kind) -> str:
    match k:
        case IntKind():
            return "int"
        case NatKind():
            return "nat"
        case FloatKind():
            return "float"
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
