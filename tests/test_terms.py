"""Atoms, and the term helpers: spine concatenation, atom enumeration,
grounding."""

from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys
from dataclasses import fields
from itertools import combinations
from pathlib import Path

import pytest

import commcheck
from commcheck.exprs import BinOp, ExprError, Lit, Var
from commcheck.parser import parse_local_term, parse_protocol
from commcheck.printer import format_atom, format_term
from commcheck.projection import project_all
from commcheck.terms import (
    Allreduce,
    Bcast,
    Choice,
    DataKind,
    End,
    Gather,
    Loop,
    Message,
    Prefix,
    Receive,
    ReduceOp,
    Scatter,
    Send,
    atom_of,
    atoms_of,
    comm_of,
    concat,
    ground_term,
    is_ground,
    rebuild,
    spine,
)

from conftest import bundled_text
from proto_gen import random_local_term, random_protocol


def lt(text):
    return parse_local_term(text)


def spine_len(t):
    n = 0
    while not isinstance(t, End):
        n += 1
        t = t.cont
    return n


# One atom of every kind each side writes.
COLLECTIVES = [
    Scatter(Lit(0), DataKind.INT, Lit(3)),
    Gather(Lit(2), DataKind.FLOAT, Lit(1)),
    Bcast(Lit(1), DataKind.INT, Lit(0)),
    Allreduce(DataKind.FLOAT, Lit(2), ReduceOp.MIN),
]
GLOBAL_ATOMS = [Message(Lit(0), Lit(2), DataKind.INT, Lit(4)), *COLLECTIVES]
LOCAL_ATOMS = [
    Send(Lit(1), DataKind.FLOAT, Lit(4)),
    Receive(Lit(2), DataKind.INT, Lit(5)),
    *COLLECTIVES,
]


@pytest.mark.parametrize("makers", [(Scatter, Gather, Bcast), (Send, Receive)])
def test_atoms_that_differ_only_in_kind_are_unequal(makers):
    atoms = [make(Lit(1), DataKind.INT, Lit(2)) for make in makers]
    for a, b in combinations(atoms, 2):
        assert a.who == b.who and a != b
    assert len(set(atoms)) == len(atoms)


@pytest.mark.parametrize("atom", GLOBAL_ATOMS, ids=lambda a: a.kind)
def test_a_global_atom_survives_printing_and_parsing(atom):
    assert parse_protocol(f"nprocs 3.\n{format_atom(atom)}.end").body.atom == atom


@pytest.mark.parametrize("atom", LOCAL_ATOMS, ids=lambda a: a.kind)
def test_a_local_atom_survives_printing_and_parsing(atom):
    assert parse_local_term(f"{format_atom(atom)}.end").atom == atom


@pytest.mark.parametrize("atom", LOCAL_ATOMS, ids=lambda a: a.kind)
def test_a_local_atom_survives_its_communication(atom):
    assert atom_of(comm_of(atom)) == atom


def test_a_message_performs_no_communication():
    with pytest.raises(TypeError, match="not a local atom"):
        comm_of(GLOBAL_ATOMS[0])


def test_concat_identities():
    t = lt("send(1,MPI_INT,1).loop(receive(0,MPI_INT,1).end).end")
    assert concat(t, End()) == t
    assert concat(End(), t) == t


def test_concat_grafts_at_spine_end_only():
    a = lt("loop(send(1,MPI_INT,1).end).end")
    b = lt("receive(0,MPI_INT,2).end")
    joined = concat(a, b)
    # the loop body is untouched; the continuation spine grew
    assert isinstance(joined, Loop)
    assert joined.body == a.body
    assert joined.cont == b


def test_concat_is_associative():
    rng = random.Random(12)
    for _ in range(200):
        a = random_local_term(rng, max_atoms=4)
        b = random_local_term(rng, max_atoms=4)
        c = random_local_term(rng, max_atoms=4)
        assert concat(concat(a, b), c) == concat(a, concat(b, c))


def test_concat_spine_length_adds():
    rng = random.Random(13)
    for _ in range(200):
        a = random_local_term(rng, max_atoms=5)
        b = random_local_term(rng, max_atoms=5)
        assert spine_len(concat(a, b)) == spine_len(a) + spine_len(b)


def test_atoms_of_order():
    t = lt(
        "send(1,MPI_INT,1)."
        "loop(receive(0,MPI_INT,2).end)."
        "choice(send(1,MPI_INT,3).end,receive(0,MPI_INT,4).end)."
        "send(1,MPI_INT,5).end"
    )
    lengths = [a.length.value for a in atoms_of(t)]
    # spine order, loop body before continuation, true branch before false
    assert lengths == [1, 2, 3, 4, 5]


def test_atoms_of_concat_is_concatenation_for_spines():
    rng = random.Random(14)
    for _ in range(200):
        a = random_local_term(rng, max_atoms=5, max_depth=0)
        b = random_local_term(rng, max_atoms=5, max_depth=0)
        assert list(atoms_of(concat(a, b))) == list(atoms_of(a)) + list(atoms_of(b))


def test_ground_term_evaluates_everything():
    t = lt("send(n-1,MPI_INT,n*2).loop(receive(0,MPI_INT,n).end).end")
    g = ground_term(t, {"n": 3})
    assert is_ground(g)
    assert not is_ground(t)
    head = g.atom
    assert head.who == (Lit(2),)
    assert head.length == Lit(6)


def test_ground_term_is_idempotent():
    rng = random.Random(15)
    for _ in range(200):
        t = random_local_term(rng)
        g = ground_term(t, {})
        assert ground_term(g, {}) == g
        assert is_ground(g)


def test_grounding_returns_what_is_already_ground():
    view = lt(bundled_text("fdiff_rank0.clt").replace("size/3", "3"))
    assert is_ground(view)
    assert ground_term(view, {}) is view
    assert ground_term(view, {"size": 9}) is view
    # a literal is kept, but still range-checked
    with pytest.raises(ExprError, match=" exceeds the signed 64-bit range$"):
        ground_term(Prefix(Send(Lit(1), DataKind.INT, Lit(2**63)), End()), {})


def test_grounding_a_view_with_expressions_keeps_its_text():
    text = bundled_text("fdiff_rank0.clt")
    view = lt(text)
    g = ground_term(view, {"size": 9})
    assert format_term(g) == format_term(lt(text.replace("size/3", "3")))
    assert g.atom.length == Lit(3)
    assert g.cont.body is view.cont.body  # the ground loop body is shared


def test_expr_structure_does_not_affect_ground_equality():
    a = lt("send(1,MPI_INT,2+2).end")
    b = lt("send(1,MPI_INT,2*2).end")
    assert a != b
    assert ground_term(a, {}) == ground_term(b, {})
    assert isinstance(a.atom.length, BinOp)
    assert isinstance(a.atom.length.lhs, Lit)
    assert a.atom.length != Var("four")


def test_spine_and_rebuild_are_inverse():
    rng = random.Random(16)
    for _ in range(200):
        t = random_local_term(rng)
        nodes = spine(t)
        assert all(not isinstance(n, End) for n in nodes)
        assert rebuild(nodes) == t
        assert hash(rebuild(nodes)) == hash(t)


def test_node_hash_is_computed_on_first_use():
    lines = ["nprocs 3."]
    lines += [f"message({i % 3},{(i + 1) % 3},MPI_INT,{i % 7})." for i in range(1_000)]
    proto = parse_protocol("\n".join(lines + ["end"]))
    terms = [proto.body, *project_all(proto, {})]
    assert not any(hasattr(node, "_hash") for t in terms for node in spine(t))
    for t in terms:
        hash(t)  # one walk down the whole spine, without recursion
        for node in reversed(spine(t)):
            # the value an eager hash at construction gave, from the tail up
            assert hash(node) == hash(node._values(node))


# sha256 of the reprs of the terms in the test below, joined by
# newlines, as the dataclass-generated `__repr__` wrote them.
_REPR_DIGEST = "3347f4a01f3f43cb9f2d80ab9be5da8d3f3fc066947f3882260086cfb9c64005"


def dataclass_repr(t):
    """The text `@dataclass` generates for a node: its class name and
    `name=value` for each field, recursing into the node fields."""
    if not isinstance(t, (Prefix, Loop, Choice)):
        return repr(t)
    args = ", ".join(f"{f.name}={dataclass_repr(getattr(t, f.name))}" for f in fields(t) if f.repr)
    return f"{type(t).__qualname__}({args})"


def test_repr_is_the_dataclass_text():
    terms = []
    for seed in range(100):
        terms.append(random_protocol(random.Random(seed))[0].body)
        terms.append(random_local_term(random.Random(seed)))
    texts = [repr(t) for t in terms]
    assert texts == [dataclass_repr(t) for t in terms]
    assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == _REPR_DIGEST


# Pickles a term, or reads one back and reports whether it is a member
# of a set holding the same term built in this process.
_PICKLE_CHILD = """
import pickle, sys
from commcheck.parser import parse_local_term
t = parse_local_term(sys.argv[2])
if sys.argv[1] == "dump":
    print(pickle.dumps(t).hex())
else:
    print(pickle.loads(bytes.fromhex(sys.stdin.read())) in {t})
"""


def test_a_term_unpickled_in_another_process_is_the_same_set_member():
    # String hashes differ between processes, so a hash cached at
    # construction must not travel with the pickle.
    src = str(Path(commcheck.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    text = "send(n,MPI_INT,1).loop(choice(bcast(0,MPI_FLOAT,n).end,end).end).end"

    def child(seed, mode, stdin=""):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        proc = subprocess.run(
            [sys.executable, "-c", _PICKLE_CHILD, mode, text],
            input=stdin, env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        return proc.stdout.strip()

    assert child("2", "load", child("1", "dump")) == "True"
