"""Protocol parsing, printing, and the parse/print round trip."""

from __future__ import annotations

import random
import string

import pytest

import commcheck.lexer
from commcheck.exprs import NAT, BinOp, BoolOp, Cmp, Lit, Pos, RefinedKind, Var
from commcheck.lexer import ParseError, Token, tokenize
from commcheck.parser import parse_local_term, parse_protocol
from commcheck.program import parse_program
from commcheck.printer import format_kind, format_protocol, format_term
from commcheck.projection import project
from commcheck.terms import (
    Allreduce,
    Choice,
    DataKind,
    End,
    Loop,
    Message,
    Prefix,
    Protocol,
    Receive,
    ReduceOp,
    Scatter,
    Send,
    spine,
)

from proto_gen import random_protocol


def test_tokenizer_positions():
    toks = tokenize("ab +\n  12")
    assert [(t.kind, t.text) for t in toks[:-1]] == [("ident", "ab"), ("punct", "+"), ("int", "12")]
    assert (toks[2].pos.line, toks[2].pos.col) == (2, 3)


def test_parsing_builds_a_position_only_where_one_is_stored(monkeypatch):
    # Atoms, statements and binders keep a position; expressions do not.
    built = []

    def counting_pos(line, col):
        built.append((line, col))
        return Pos(line, col)

    monkeypatch.setattr(commcheck.lexer, "Pos", counting_pos)
    n = 1_000
    pairs = [(k % 3, (k + 1) % 3) for k in range(n)]
    atoms = "".join(f"message({s},{d},MPI_INT,{k % 9}).\n" for k, (s, d) in enumerate(pairs))
    parse_protocol("nprocs 3.\n" + atoms + "end\n")
    assert len(built) <= n + 2

    built.clear()
    lines = ["buffer b int[8]", "init"]
    for rank in range(3):
        lines.append(f"rankif (me == {rank}) {{")
        for k, (s, d) in enumerate(pairs):
            if rank == s:
                lines.append(f"  send peer={d} buf=b len={k % 9}")
            elif rank == d:
                lines.append(f"  recv peer={s} buf=b len={k % 9}")
        lines.append("}")
    lines.append("finalize")
    parse_program("\n".join(lines) + "\n")
    statements = 2 * n + 6  # buffer, init, three rankif, n sends, n receives, finalize
    assert len(built) <= statements + 2


def _chain_texts(n: int) -> tuple[str, str]:
    """A straight-line protocol of `n` messages among three ranks, and
    the program that performs it."""
    pairs = [(k % 3, (k + 1) % 3) for k in range(n)]
    atoms = "".join(f"message({s},{d},MPI_INT,{k % 9}).\n" for k, (s, d) in enumerate(pairs))
    lines = ["buffer b int[8]", "init"]
    for rank in range(3):
        lines.append(f"rankif (me == {rank}) {{")
        for k, (s, d) in enumerate(pairs):
            if rank == s:
                lines.append(f"  send peer={d} buf=b len={k % 9}")
            elif rank == d:
                lines.append(f"  recv peer={s} buf=b len={k % 9}")
        lines.append("}")
    lines.append("finalize")
    return "nprocs 3.\n" + atoms + "end\n", "\n".join(lines) + "\n"


def test_parsing_builds_no_token(monkeypatch):
    # The parsers read the tokenizer's flat lists; a `Token` is built only
    # when the token sequence is indexed or iterated.
    protocol_text, program_text = _chain_texts(1_000)
    want_view = project(parse_protocol(protocol_text), {}, 1)
    built = []

    def counting_token(*args):
        built.append(args)
        return Token(*args)

    monkeypatch.setattr(commcheck.lexer, "Token", counting_token)
    parse_protocol(protocol_text)
    parse_program(program_text)
    view = parse_local_term(format_term(want_view))
    assert built == []
    assert view == want_view and len(spine(view)) == 667
    assert tokenize("end")[0].text == "end" and len(built) == 1


def _message_with(length: str) -> str:
    return f"nprocs 2.\nmessage(0,1,MPI_INT,{length}).\nend\n"


def _program_with(stmt: str) -> str:
    return f"buffer b int[8]\ninit\n{stmt}\nfinalize\n"


@pytest.mark.parametrize(
    "length, want",
    [
        ("2*n", BinOp("*", Lit(2), Var("n"))),
        ("n%2", BinOp("%", Var("n"), Lit(2))),
        ("n-1", BinOp("-", Var("n"), Lit(1))),
        ("-1", Lit(-1)),
        ("(n)", Var("n")),
        ("(" * 198 + "1" + ")" * 198, Lit(1)),
        ("9223372036854775807", Lit(9223372036854775807)),
        # leading zeros past the 4,300 digits `int` converts by default
        pytest.param("0" * 5000 + "9", Lit(9), id="zeros-then-9"),
    ],
)
def test_operand_edges_parse_to_the_grammar_tree(length, want):
    assert parse_protocol(_message_with(length)).body.atom.length == want


@pytest.mark.parametrize(
    "length, message",
    [
        ("2*", "2:23: unexpected ')' (expected an integer literal or a variable or '(')"),
        ("n+", "2:23: unexpected ')' (expected an integer literal or a variable or '(')"),
        ("1 2", "2:23: unexpected '2' (expected ')')"),
        ("end", "2:21: unexpected 'end' (expected an integer literal or a variable or '(')"),
        ("loop", "2:21: unexpected 'loop' (expected an integer literal or a variable or '(')"),
        # The innermost operand would be parsed at the depth cap.
        ("(" * 199 + "1" + ")" * 199, "2:220: nesting too deep"),
        ("(" * 199 + "n" + ")" * 199, "2:220: nesting too deep"),
        ("9223372036854775808", "2:21: integer literal 9223372036854775808 out of range"),
    ],
)
def test_operand_edges_keep_their_protocol_syntax_errors(length, message):
    with pytest.raises(ParseError) as err:
        parse_protocol(_message_with(length))
    assert str(err.value) == message


def test_keyword_operand_keeps_its_syntax_error():
    with pytest.raises(ParseError) as err:
        parse_protocol("nprocs 2.\nmessage(0,end,MPI_INT,1).\nend\n")
    assert str(err.value) == "2:11: unexpected 'end' (expected an integer literal or a variable or '(')"


@pytest.mark.parametrize(
    "stmt, message",
    [
        ("send peer=1 buf=b len=n+", "4:1: unexpected 'finalize' (expected an integer literal or a variable or '(')"),
        ("send peer=init buf=b len=1", "3:11: unexpected 'init' (expected an integer literal or a variable or '(')"),
        ("send peer=1 buf=b len=finalize", "3:23: unexpected 'finalize' (expected an integer literal or a variable or '(')"),
        ("send peer=1 buf=b len=n n", "3:25: unknown statement 'n'"),
        ("send peer=1 buf=b len=9223372036854775808", "3:23: integer literal 9223372036854775808 out of range"),
    ],
)
def test_operand_edges_keep_their_program_syntax_errors(stmt, message):
    with pytest.raises(ParseError) as err:
        parse_program(_program_with(stmt))
    assert str(err.value) == message


def test_program_operands_parse_to_the_grammar_tree():
    send = parse_program(_program_with("send peer=1 buf=b len=n+1")).body[2]
    assert send.length == BinOp("+", Var("n"), Lit(1))
    send = parse_program(_program_with("send peer=1 buf=b len=9223372036854775807")).body[2]
    assert send.length == Lit(9223372036854775807)


def test_tokenizer_rejects_foreign_characters():
    with pytest.raises(ParseError) as err:
        tokenize("a @ b")
    assert err.value.pos.col == 3


def test_parse_ring_protocol(fdiff_protocol_text):
    proto = parse_protocol(fdiff_protocol_text)
    assert proto.num_procs == 3
    assert [b.name for b in proto.params] == ["size"]
    kind = proto.params[0].kind
    assert isinstance(kind, RefinedKind) and kind.base == NAT

    assert isinstance(proto.body, Prefix)
    assert proto.body.atom == Scatter(Lit(0), DataKind.FLOAT, BinOp("/", Var("size"), Lit(3)))

    loop = proto.body.cont
    assert isinstance(loop, Loop)
    first_msg = loop.body
    assert isinstance(first_msg, Prefix)
    assert first_msg.atom == Message(Lit(2), Lit(1), DataKind.FLOAT, Lit(1))

    # six halo messages, then the error reduction, then the body ends
    node = loop.body
    messages = []
    while isinstance(node, Prefix) and node.atom.kind == "message":
        messages.append(node.atom)
        node = node.cont
    assert len(messages) == 6
    assert isinstance(node, Prefix)
    assert node.atom == Allreduce(DataKind.FLOAT, Lit(1), ReduceOp.MAX)
    assert node.cont == End()

    branch = loop.cont
    assert isinstance(branch, Choice)
    assert isinstance(branch.true_branch, Prefix)
    assert branch.true_branch.atom.kind == "gather"
    assert branch.false_branch == End()
    assert branch.cont == End()


def test_parse_local_term_atoms():
    term = parse_local_term("send(1,MPI_INT,4).receive(0,MPI_FLOAT,2).end")
    assert term == Prefix(
        Send(Lit(1), DataKind.INT, Lit(4)),
        Prefix(Receive(Lit(0), DataKind.FLOAT, Lit(2)), End()),
    )


def test_local_and_global_atom_vocabularies_are_disjoint():
    with pytest.raises(ParseError):
        parse_local_term("message(0,1,MPI_INT,1).end")
    with pytest.raises(ParseError):
        parse_protocol("nprocs 2.\nsend(1,MPI_INT,1).end")


def test_comments_and_whitespace_are_ignored():
    term = parse_local_term("// leading\n  send(1,MPI_INT,1). // trailing\n\n end")
    assert isinstance(term, Prefix)


def test_degenerate_forms():
    assert parse_local_term("end") == End()
    assert parse_local_term("loop(end).end") == Loop(End(), End())
    assert parse_local_term("choice(end,end).end") == Choice(End(), End(), End())


def test_nprocs_is_required():
    with pytest.raises(ParseError) as err:
        parse_protocol("message(0,1,MPI_INT,1).end")
    assert "nprocs" in str(err.value)


def test_zero_process_count_rejected():
    with pytest.raises(ParseError):
        parse_protocol("nprocs 0.\nend")


def test_syntax_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse_protocol("nprocs 2.\nmessage(0,1,MPI_INT,).end")
    assert err.value.pos.line == 2
    assert err.value.expected


def test_reserved_words_cannot_bind():
    with pytest.raises(ParseError):
        parse_protocol("Pi loop: nat.\nnprocs 2.\nend")


def test_oversized_literal_rejected():
    with pytest.raises(ParseError):
        parse_local_term(f"send(1,MPI_INT,{2**63}).end")


def test_trailing_input_rejected():
    with pytest.raises(ParseError):
        parse_local_term("end end")


def test_deep_nesting_fails_cleanly_without_recursion_error():
    text = "loop(" * 5000 + "end" + ").end" * 5000
    with pytest.raises(ParseError) as err:
        parse_local_term(text)
    assert "deep" in str(err.value)


def test_long_spines_parse_without_depth_limit():
    text = "send(1,MPI_INT,1)." * 2000 + "end"
    term = parse_local_term(text)
    count = 0
    while isinstance(term, Prefix):
        count += 1
        term = term.cont
    assert count == 2000


def test_refinement_predicate_grammar():
    proto = parse_protocol(
        "Pi n: {v:nat|v%3==0 && (v>0 || v==0)}.\nnprocs 2.\nmessage(0,1,MPI_INT,n).end"
    )
    kind = proto.params[0].kind
    assert isinstance(kind, RefinedKind)
    pred = kind.refinement.pred
    # '&&' binds tighter than '||'; the parenthesized '||' survives as a subterm
    assert isinstance(pred, BoolOp) and pred.op == "&&"
    assert isinstance(pred.rhs, BoolOp) and pred.rhs.op == "||"
    assert pred.lhs == Cmp("==", BinOp("%", Var("v"), Lit(3)), Lit(0))


def test_parser_is_total_on_junk():
    rng = random.Random(99)
    alphabet = string.ascii_letters + string.digits + "(){}[].,:|<>!=+-*/% \n\t"
    for _ in range(400):
        junk = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 60)))
        try:
            parse_protocol(junk)
        except ParseError:
            pass  # the only acceptable failure mode


def test_roundtrip_ring_protocol(fdiff_protocol_text):
    proto = parse_protocol(fdiff_protocol_text)
    assert parse_protocol(format_protocol(proto)) == proto


def test_roundtrip_random_protocols():
    rng = random.Random(20260815)
    for _ in range(150):
        proto, _ = random_protocol(rng)
        printed = format_protocol(proto)
        assert parse_protocol(printed) == proto, printed


def test_roundtrip_expression_parenthesization():
    # shapes that need parentheses to survive the trip
    cases = [
        "send(1,MPI_INT,(a+b)*c).end",
        "send(1,MPI_INT,a-(b-c)).end",
        "send(1,MPI_INT,a%(b+1)).end",
        "send(1,MPI_INT,(a/b)/c).end",
    ]
    for text in cases:
        term = parse_local_term(text)
        assert parse_local_term(format_term(term)) == term


@pytest.mark.parametrize(
    "pred, printed",
    [
        ("x>0&&x<9||!(x==3)&&(x>1||x<0)", "x>0&&x<9||!(x==3)&&(x>1||x<0)"),
        ("(x>0||x<9)&&x!=3", "(x>0||x<9)&&x!=3"),
        ("x!=3&&(x>0||x<9)", "x!=3&&(x>0||x<9)"),
        ("(x>0&&x<9)&&x!=3", "x>0&&x<9&&x!=3"),
        ("x>0&&(x<9&&x!=3)", "x>0&&(x<9&&x!=3)"),
        ("(x>0||x<9)||x!=3", "x>0||x<9||x!=3"),
        ("x>0||(x<9||x!=3)", "x>0||(x<9||x!=3)"),
        ("(x>0&&x<9)||(x>1&&x<0)", "x>0&&x<9||x>1&&x<0"),
        ("!(x>0&&x<9)||!(x>1||x<0)", "!(x>0&&x<9)||!(x>1||x<0)"),
        ("!!(x==3)", "!(!(x==3))"),
        ("(x+1)*2>0&&!(x%2==0)", "(x+1)*2>0&&!(x%2==0)"),
    ],
)
def test_connectives_print_with_minimal_parentheses_and_round_trip(pred, printed):
    proto = parse_protocol(f"Pi n: {{x:nat|{pred}}}.\nnprocs 2.\nend")
    kind = proto.params[0].kind
    assert format_kind(kind) == f"{{x:nat|{printed}}}"
    assert parse_protocol(format_protocol(proto)) == proto


@pytest.mark.parametrize(
    "kind, printed",
    [
        ("int", "int"),
        ("nat", "nat"),
        ("float", "float"),
        ("int[n]", "int[n]"),
        ("float[3][(n+1)*2]", "float[3][(n+1)*2]"),
        ("{v:int|v>0}[n]", "{v:int|v>0}[n]"),
        ("{v:{w:nat|w<9}|!(v==3)}", "{v:{w:nat|w<9}|!(v==3)}"),
    ],
)
def test_format_kind_of_every_kind_round_trips(kind, printed):
    proto = parse_protocol(f"Pi n: nat.\nPi a: {kind}.\nnprocs 2.\nend")
    assert format_kind(proto.params[1].kind) == printed
    assert parse_protocol(format_protocol(proto)) == proto


def test_printer_output_shape():
    term = parse_local_term("send(1,MPI_INT,1).loop(receive(0,MPI_INT,1).end).end")
    printed = format_term(term)
    lines = printed.splitlines()
    assert lines[0] == "send(1,MPI_INT,1)."
    assert lines[1] == "loop("
    assert lines[2] == "  receive(0,MPI_INT,1)."
