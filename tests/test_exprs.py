"""Expression evaluation, C-style arithmetic, and kind refinements."""

from __future__ import annotations

import random

import pytest

from commcheck.exprs import (
    ArrayKind,
    BinOp,
    BoolOp,
    Cmp,
    ExprError,
    FLOAT,
    INT,
    INT64_MAX,
    INT64_MIN,
    KindMismatch,
    Lit,
    NAT,
    Not,
    RefinedKind,
    Refinement,
    Var,
    check_refinement,
    eval_expr,
    eval_pred,
    expr_vars,
)


def b(op, l, r):
    return BinOp(op, Lit(l) if isinstance(l, int) else l, Lit(r) if isinstance(r, int) else r)


def test_basic_arithmetic():
    assert eval_expr(b("+", 2, 3), {}) == 5
    assert eval_expr(b("-", 2, 3), {}) == -1
    assert eval_expr(b("*", 4, -5), {}) == -20
    assert eval_expr(Var("size"), {"size": 9}) == 9
    assert eval_expr(b("/", Var("size"), 3), {"size": 9}) == 3


# Division truncates toward zero and the remainder takes the dividend's
# sign, so each quadrant must be pinned separately.
@pytest.mark.parametrize(
    "a,d,quot,rem",
    [
        (7, 2, 3, 1),
        (-7, 2, -3, -1),
        (7, -2, -3, 1),
        (-7, -2, 3, -1),
        (6, 3, 2, 0),
        (-6, 3, -2, 0),
        (1, 5, 0, 1),
        (-1, 5, 0, -1),
    ],
)
def test_division_truncates_toward_zero(a, d, quot, rem):
    assert eval_expr(b("/", a, d), {}) == quot
    assert eval_expr(b("%", a, d), {}) == rem


def _oracle_c_div(a: int, d: int) -> int:
    q = a // d
    if q < 0 and q * d != a:
        q += 1
    return q


def test_division_matches_oracle_on_random_pairs():
    rng = random.Random(20260815)
    for _ in range(500):
        a = rng.randint(-10**9, 10**9)
        d = rng.randint(-50, 50) or 7
        q = _oracle_c_div(a, d)
        assert eval_expr(b("/", a, d), {}) == q
        assert eval_expr(b("%", a, d), {}) == a - q * d


def test_division_by_zero():
    with pytest.raises(ExprError, match="^division by zero in "):
        eval_expr(b("/", 1, 0), {})
    with pytest.raises(ExprError, match="^division by zero in "):
        eval_expr(b("%", 1, 0), {})


def test_overflow_is_an_error_not_a_wrap():
    with pytest.raises(ExprError, match=" exceeds the signed 64-bit range$"):
        eval_expr(b("+", INT64_MAX, 1), {})
    with pytest.raises(ExprError, match=" exceeds the signed 64-bit range$"):
        eval_expr(b("-", INT64_MIN, 1), {})
    with pytest.raises(ExprError, match=" exceeds the signed 64-bit range$"):
        eval_expr(b("*", INT64_MAX, 2), {})
    # Negating the minimum via division overflows; so does the implied
    # quotient of the corresponding remainder.
    with pytest.raises(ExprError, match=" exceeds the signed 64-bit range$"):
        eval_expr(b("/", INT64_MIN, -1), {})
    with pytest.raises(ExprError, match=" exceeds the signed 64-bit range$"):
        eval_expr(b("%", INT64_MIN, -1), {})
    assert eval_expr(b("+", INT64_MAX, 0), {}) == INT64_MAX
    assert eval_expr(b("-", INT64_MIN, 0), {}) == INT64_MIN


def test_unbound_variable_is_an_error_never_a_default():
    with pytest.raises(ExprError, match="^unbound variable "):
        eval_expr(Var("missing"), {})
    with pytest.raises(ExprError, match="^unbound variable "):
        eval_expr(b("+", Var("x"), 1), {"y": 1})


def test_evaluation_is_deterministic():
    e = b("%", b("*", Var("a"), 17), b("+", Var("b"), 3))
    env = {"a": 12345, "b": 678}
    results = {eval_expr(e, env) for _ in range(10)}
    assert len(results) == 1


def test_expr_vars():
    assert expr_vars(b("+", Var("a"), b("*", Var("b"), 2))) == {"a", "b"}
    assert expr_vars(Lit(3)) == set()


def test_expr_equal_is_semantic():
    # Equality of expressions is equality of their values in one environment.
    assert eval_expr(b("/", Var("size"), 3), {"size": 9}) == eval_expr(Lit(3), {})
    assert eval_expr(b("/", Var("size"), 3), {"size": 12}) != eval_expr(Lit(3), {})
    with pytest.raises(ExprError, match="^unbound variable "):
        eval_expr(Var("size"), {})


def test_expr_equal_is_an_equivalence_per_env():
    rng = random.Random(7)
    for _ in range(200):
        env = {"x": rng.randint(-100, 100), "y": rng.randint(1, 100)}
        exprs = [
            b("+", Var("x"), Var("y")),
            b("+", Var("y"), Var("x")),
            b("*", Var("x"), 1),
            Lit(env["x"] + env["y"]),
        ]
        assert eval_expr(exprs[0], env) == eval_expr(exprs[1], env)
        assert eval_expr(exprs[0], env) == eval_expr(exprs[3], env)
        assert eval_expr(exprs[2], env) == eval_expr(Var("x"), env)


def test_predicates():
    env = {"n": 9}
    assert eval_pred(Cmp("==", b("%", Var("n"), 3), Lit(0)), env)
    assert not eval_pred(Cmp("==", b("%", Var("n"), 3), Lit(0)), {"n": 7})
    assert eval_pred(BoolOp("&&", Cmp(">", Var("n"), Lit(0)), Cmp("<", Var("n"), Lit(10))), env)
    assert eval_pred(BoolOp("||", Cmp("<", Var("n"), Lit(0)), Cmp("!=", Var("n"), Lit(3))), env)
    assert eval_pred(Not(Cmp(">=", Var("n"), Lit(10))), env)


def test_nat_is_a_nonnegative_int_in_range():
    rng = random.Random(11)
    for _ in range(200):
        v = rng.randint(-50, 50)
        assert check_refinement(NAT, v, {}) == (v >= 0)
    assert check_refinement(NAT, INT64_MAX, {})
    for v in (INT64_MAX + 1, INT64_MIN - 1):
        with pytest.raises(ExprError, match=" exceeds the signed 64-bit range$"):
            check_refinement(NAT, v, {})


def test_refinement_checking():
    divisible_by_3 = RefinedKind(
        NAT, Refinement("n", Cmp("==", b("%", Var("n"), 3), Lit(0)))
    )
    assert check_refinement(divisible_by_3, 9, {})
    assert check_refinement(divisible_by_3, 0, {})
    assert not check_refinement(divisible_by_3, 7, {})
    # the nat layer already rejects negatives, even multiples of 3
    assert not check_refinement(divisible_by_3, -3, {})
    assert check_refinement(INT, -5, {})


def test_refinement_sees_earlier_parameters():
    between = RefinedKind(
        INT,
        Refinement(
            "v", BoolOp("&&", Cmp(">=", Var("v"), Var("lo")), Cmp("<=", Var("v"), Var("hi")))
        ),
    )
    env = {"lo": 2, "hi": 5}
    assert check_refinement(between, 3, env)
    assert not check_refinement(between, 7, env)


def test_refinement_variable_shadows_outer_binding():
    k = RefinedKind(INT, Refinement("n", Cmp("==", Var("n"), Lit(4))))
    # An outer `n` must not leak into the refinement's scope.
    assert check_refinement(k, 4, {"n": 99})
    assert not check_refinement(k, 99, {"n": 99})


def test_non_integer_kinds_are_rejected():
    with pytest.raises(KindMismatch):
        check_refinement(FLOAT, 1, {})
    with pytest.raises(KindMismatch):
        check_refinement(ArrayKind(INT, Lit(4)), 1, {})
    with pytest.raises(KindMismatch):
        check_refinement(RefinedKind(FLOAT, Refinement("x", Cmp(">", Var("x"), Lit(0)))), 1, {})
