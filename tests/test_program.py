"""Program parsing and the structural rules enforced at parse time."""

from __future__ import annotations

import pytest

from commcheck.exprs import BinOp, Lit, Var
from commcheck.lexer import ParseError
from commcheck.program import (
    BufferDecl,
    CollChoice,
    CollLoop,
    CommStmt,
    Let,
    Marker,
    RankIf,
    parse_program,
)
from commcheck.terms import DataKind, ReduceOp


MINIMAL = "init\nfinalize\n"


def test_minimal_program():
    prog = parse_program(MINIMAL)
    assert prog.params == ()
    assert prog.body == (Marker("init"), Marker("finalize"))


def test_ring_program_structure(fdiff_program_text):
    prog = parse_program(fdiff_program_text)
    assert prog.params == ("size",)
    names = [b.name for b in prog.buffers]
    assert names == ["work", "local", "gerr"]
    kinds = [type(s).__name__ for s in prog.body]
    assert kinds[:1] == ["Let"] or "Let" in kinds  # lsize binding present

    loops = [s for s in prog.body if isinstance(s, CollLoop)]
    choices = [s for s in prog.body if isinstance(s, CollChoice)]
    assert len(loops) == 1 and len(choices) == 1

    # the loop body branches on rank parity and ends with the reduction
    body = loops[0].body
    assert body[-1].kind == "allreduce"
    assert body[-1].op == ReduceOp.MAX
    branch = next(s for s in body if isinstance(s, RankIf))
    then_kinds = [s.kind for s in branch.then_body]
    else_kinds = [s.kind for s in branch.else_body]
    assert then_kinds == ["send", "receive", "receive", "send"]
    assert else_kinds == ["receive", "send", "send", "receive"]

    # the choice gathers on one side and merely computes on the other
    assert any(isinstance(s, CommStmt) and s.kind == "gather" for s in choices[0].then_body)
    assert all(s == Marker("compute") for s in choices[0].else_body)


def test_statement_payloads():
    prog = parse_program(
        "param n\n"
        "buffer a float[n*2]\n"
        "buffer b int[4]\n"
        "let half = n / 2\n"
        "init\n"
        "commsize\n"
        "commrank\n"
        "compute\n"
        "scatter root=0 buf=a len=half\n"
        "send peer=me+1 buf=a len=1\n"
        "recv peer=me-1 buf=a len=1\n"
        "bcast root=n-1 buf=b len=2\n"
        "allreduce buf=b len=1 op=SUM\n"
        "gather root=0 buf=a len=half\n"
        "finalize\n"
    )
    assert prog.params == ("n",)
    a, b = prog.buffers
    assert a == BufferDecl("a", DataKind.FLOAT, BinOp("*", Var("n"), Lit(2)))
    assert b == BufferDecl("b", DataKind.INT, Lit(4))

    stmts = {
        s.kind if isinstance(s, (CommStmt, Marker)) else type(s).__name__: s for s in prog.body
    }
    assert stmts["Let"] == Let("half", BinOp("/", Var("n"), Lit(2)))
    assert stmts["send"] == CommStmt("send", BinOp("+", Var("me"), Lit(1)), "a", Lit(1))
    assert stmts["receive"].who == BinOp("-", Var("me"), Lit(1))
    assert stmts["scatter"] == CommStmt("scatter", Lit(0), "a", Var("half"))
    assert stmts["allreduce"] == CommStmt("allreduce", None, "b", Lit(1), ReduceOp.SUM)
    assert stmts["commsize"] == Marker("commsize")
    assert stmts["commrank"] == Marker("commrank")


def test_nested_blocks():
    prog = parse_program(
        "init\n"
        "collloop {\n"
        "  collchoice {\n"
        "    compute\n"
        "  } else {\n"
        "  }\n"
        "}\n"
        "finalize\n"
    )
    loop = prog.body[1]
    assert isinstance(loop, CollLoop)
    inner = loop.body[0]
    assert isinstance(inner, CollChoice)
    assert inner.then_body == (Marker("compute"),)
    assert inner.else_body == ()


def test_rankif_without_else():
    prog = parse_program("init\nrankif (me == 0) { compute }\nfinalize\n")
    branch = prog.body[1]
    assert isinstance(branch, RankIf)
    assert branch.else_body == ()


def test_comments_allowed():
    parse_program("// setup\ninit // start\nfinalize\n")


# -- structural rules ----------------------------------------------------------


def err(text):
    with pytest.raises(ParseError) as excinfo:
        parse_program(text)
    return str(excinfo.value)


def test_missing_init():
    assert "init" in err("finalize\n")


@pytest.mark.parametrize(
    "text, line_col",
    [
        ("let n = 1\ncompute\nsend peer=1 buf=b len=n\nfinalize\n", (3, 1)),
        ("buffer b int[1]\n\n  rankif (me == 0) { compute }\nfinalize\n", (3, 3)),
        ("param n\nlet m = n\n// nothing else\n", (4, 1)),
        ("", (1, 1)),
    ],
)
def test_missing_init_points_at_the_first_statement_that_needs_it(text, line_col):
    with pytest.raises(ParseError, match="program must contain 'init'") as excinfo:
        parse_program(text)
    assert (excinfo.value.pos.line, excinfo.value.pos.col) == line_col


def test_missing_finalize():
    assert "finalize" in err("init\n")


def test_duplicate_init():
    assert "init" in err("init\ninit\nfinalize\n")


def test_duplicate_finalize():
    assert "finalize" in err("init\nfinalize\nfinalize\n")


def test_statements_after_finalize():
    assert "finalize" in err("init\nfinalize\ncompute\n")


def test_communication_before_init():
    message = err("buffer a int[1]\nsend peer=1 buf=a len=1\ninit\nfinalize\n")
    assert "init" in message


def test_declarations_may_precede_init():
    parse_program("param n\nbuffer a int[n]\nlet m = n + 1\ncompute\ninit\nfinalize\n")


def test_params_must_come_first():
    assert "param" in err("init\nparam n\nfinalize\n")


def test_nested_init_rejected():
    assert "top level" in err("init\ncollloop { init }\nfinalize\n")


def test_nested_finalize_rejected():
    assert "top level" in err("init\ncollloop { finalize }\nfinalize\n")


def test_predefined_names_cannot_be_bound():
    assert "predefined" in err("param me\ninit\nfinalize\n")
    assert "predefined" in err("init\nlet np = 3\nfinalize\n")
    assert "predefined" in err("buffer me int[1]\ninit\nfinalize\n")


def test_statement_keywords_cannot_be_bound():
    assert "reserved" in err("param send\ninit\nfinalize\n")
    assert "reserved" in err("init\nlet else = 3\nfinalize\n")


def test_duplicate_names_rejected():
    assert "duplicate" in err("param n\nparam n\ninit\nfinalize\n").lower()
    assert "duplicate" in err("buffer a int[1]\nbuffer a float[2]\ninit\nfinalize\n").lower()


def test_unknown_statement_keyword():
    message = err("init\nfrobnicate\nfinalize\n")
    assert "frobnicate" in message or "statement" in message


def test_unknown_reduce_op():
    assert "op" in err("buffer a int[1]\ninit\nallreduce buf=a len=1 op=PROD\nfinalize\n")


def test_malformed_key_value():
    with pytest.raises(ParseError):
        parse_program("buffer a int[1]\ninit\nsend peer=1 len=1\nfinalize\n")
    with pytest.raises(ParseError):
        parse_program("buffer a int[1]\ninit\nsend buf=a peer=1 len=1\nfinalize\n")


def test_deep_nesting_fails_cleanly():
    text = "init\n" + "collloop {\n" * 5000 + "}\n" * 5000 + "finalize\n"
    with pytest.raises(ParseError) as excinfo:
        parse_program(text)
    assert "deep" in str(excinfo.value)


def test_missing_operand_does_not_swallow_the_next_statement():
    # 'len=' with nothing after it must fail at the stray keyword, not
    # slurp 'finalize' as a variable and then misreport the program shape
    with pytest.raises(ParseError) as excinfo:
        parse_program("init\ncompute\nsend peer=1 buf=b len=\nfinalize\n")
    assert excinfo.value.pos.line == 4
    assert "finalize" in str(excinfo.value)


def test_error_positions_point_at_the_problem():
    with pytest.raises(ParseError) as excinfo:
        parse_program("init\ncompute\nsend peer=1 buf=b len=]\nfinalize\n")
    assert excinfo.value.pos.line == 3
