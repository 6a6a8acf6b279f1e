"""Head accessors and the single-step typestate relation."""

from __future__ import annotations

import random

import pytest

from commcheck.parser import parse_local_term
from commcheck.printer import format_atom
from commcheck.terms import (
    Choice,
    Comm,
    DataKind,
    End,
    Loop,
    Prefix,
    ReduceOp,
    atom_of,
    comm_of,
)
from commcheck.typestate import (
    NotAPrefix,
    StepError,
    choice_branches,
    first,
    loop_body,
    mismatched_fields,
    next_type,
    step,
)

from proto_gen import random_action, random_local_atom, random_local_term


def lt(text):
    return parse_local_term(text)


# -- head accessors ----------------------------------------------------------


def test_first_and_next_on_prefix():
    t = lt("send(1,MPI_INT,4).end")
    atom = first(t)
    assert atom.kind == "send"
    assert next_type(t) == End()


def test_first_rejects_non_prefixes():
    for text in ("end", "loop(end).end", "choice(end,end).end"):
        with pytest.raises(NotAPrefix):
            first(lt(text))


def test_loop_and_choice_accessors():
    t = lt("loop(send(1,MPI_INT,1).end).receive(1,MPI_INT,1).end")
    assert isinstance(loop_body(t), Prefix)
    assert isinstance(next_type(t), Prefix)
    c = lt("choice(send(1,MPI_INT,1).end,end).end")
    tb, fb = choice_branches(c)
    assert isinstance(tb, Prefix) and fb == End()
    with pytest.raises(NotAPrefix):
        loop_body(c)
    with pytest.raises(NotAPrefix):
        choice_branches(lt("end"))


# -- stepping: success -------------------------------------------------------


def test_step_advances_on_exact_match():
    t = lt("send(1,MPI_INT,4).receive(0,MPI_FLOAT,2).end")
    t = step(t, Comm("send", 1, DataKind.INT, 4))
    t = step(t, Comm("receive", 0, DataKind.FLOAT, 2))
    assert t == End()


def test_step_collectives():
    t = lt("scatter(0,MPI_FLOAT,3).gather(0,MPI_FLOAT,3).bcast(1,MPI_INT,2).allreduce(MPI_FLOAT,1,MPI_MAX).end")
    t = step(t, Comm("scatter", 0, DataKind.FLOAT, 3))
    t = step(t, Comm("gather", 0, DataKind.FLOAT, 3))
    t = step(t, Comm("bcast", 1, DataKind.INT, 2))
    t = step(t, Comm("allreduce", None, DataKind.FLOAT, 1, ReduceOp.MAX))
    assert t == End()


# -- stepping: each mismatch class -------------------------------------------


def test_head_mismatch_peer():
    with pytest.raises(StepError) as err:
        step(lt("send(1,MPI_INT,4).end"), Comm("send", 0, DataKind.INT, 4))
    assert err.value.code == "head-mismatch:peer"
    assert str(err.value).endswith("(differs in peer)")


def test_head_mismatch_root():
    with pytest.raises(StepError) as err:
        step(lt("scatter(0,MPI_INT,4).end"), Comm("scatter", 1, DataKind.INT, 4))
    assert err.value.code == "head-mismatch:root"


def test_head_mismatch_dtype():
    with pytest.raises(StepError) as err:
        step(lt("send(1,MPI_INT,4).end"), Comm("send", 1, DataKind.FLOAT, 4))
    assert err.value.code == "head-mismatch:dtype"


def test_head_mismatch_len():
    with pytest.raises(StepError) as err:
        step(lt("send(1,MPI_INT,4).end"), Comm("send", 1, DataKind.INT, 5))
    assert err.value.code == "head-mismatch:len"


def test_head_mismatch_op():
    with pytest.raises(StepError) as err:
        step(lt("allreduce(MPI_INT,1,MPI_MAX).end"), Comm("allreduce", None, DataKind.INT, 1, ReduceOp.SUM))
    assert err.value.code == "head-mismatch:op"


def test_head_mismatch_kind_wins_over_field_diffs():
    # send vs receive: report the constructor clash, not the field noise
    with pytest.raises(StepError) as err:
        step(lt("send(1,MPI_INT,4).end"), Comm("receive", 0, DataKind.FLOAT, 2))
    assert err.value.code == "head-mismatch:kind"
    assert str(err.value).endswith("(differs in kind)")


def test_multiple_field_diffs_listed_most_significant_first():
    head = comm_of(first(lt("send(1,MPI_INT,4).end")))
    fields = mismatched_fields(head, Comm("send", 2, DataKind.FLOAT, 9))
    assert fields == ("peer", "dtype", "len")


def test_collective_boundary_errors():
    with pytest.raises(StepError) as err:
        step(lt("loop(end).end"), Comm("send", 1, DataKind.INT, 1))
    assert err.value.code == "at-collective-boundary:loop"
    with pytest.raises(StepError) as err:
        step(lt("choice(end,end).end"), Comm("allreduce", None, DataKind.INT, 1, ReduceOp.SUM))
    assert err.value.code == "at-collective-boundary:choice"


def test_step_past_end():
    with pytest.raises(NotAPrefix) as err:
        step(lt("end"), Comm("send", 1, DataKind.INT, 1))
    assert err.value.code == "not-a-prefix"
    assert "send(1,MPI_INT,1)" in str(err.value)


def test_non_ground_type_is_a_usage_error():
    with pytest.raises(ValueError):
        step(lt("send(1,MPI_INT,n).end"), Comm("send", 1, DataKind.INT, 1))


# -- error taxonomy ------------------------------------------------------------


def test_all_errors_are_step_errors_with_codes():
    errs = []
    for thunk in (
        lambda: step(lt("end"), Comm("send", 0, DataKind.INT, 1)),
        lambda: step(lt("loop(end).end"), Comm("send", 0, DataKind.INT, 1)),
        lambda: step(lt("send(1,MPI_INT,1).end"), Comm("send", 0, DataKind.INT, 1)),
        lambda: first(lt("loop(end).end")),
    ):
        with pytest.raises(StepError) as err:
            thunk()
        errs.append(err.value.code)
    assert errs == [
        "not-a-prefix",
        "at-collective-boundary:loop",
        "head-mismatch:peer",
        "not-a-prefix",
    ]


# -- property loop -------------------------------------------------------------


def _spine_atoms(t):
    atoms = []
    while isinstance(t, Prefix):
        atoms.append(t.atom)
        t = t.cont
    return atoms, t


def test_walking_a_random_spine_with_matching_actions_always_succeeds():
    rng = random.Random(1009)
    for _ in range(300):
        t = random_local_term(rng, max_atoms=8, max_depth=0)  # straight spine
        atoms, tail = _spine_atoms(t)
        assert tail == End()
        residue = t
        for atom in atoms:
            residue = step(residue, comm_of(atom))
        assert residue == End()


def test_random_wrong_action_never_advances_silently():
    rng = random.Random(7717)
    hits = {"match": 0, "mismatch": 0}
    for _ in range(500):
        t = random_local_term(rng, max_atoms=3, max_depth=0)
        if not isinstance(t, Prefix):
            continue
        action = random_action(rng)
        expected = comm_of(t.atom)
        if action == expected:
            hits["match"] += 1
            assert step(t, action) == t.cont
        else:
            hits["mismatch"] += 1
            with pytest.raises(StepError):
                step(t, action)
    # the generator must actually exercise both sides
    assert hits["match"] > 0 and hits["mismatch"] > 0


def test_every_action_prints_in_a_step_error():
    samples = [
        Comm("send", 1, DataKind.INT, 1),
        Comm("receive", 0, DataKind.FLOAT, 2),
        Comm("scatter", 0, DataKind.INT, 3),
        Comm("gather", 2, DataKind.FLOAT, 4),
        Comm("bcast", 1, DataKind.INT, 5),
        Comm("allreduce", None, DataKind.FLOAT, 1, ReduceOp.MIN),
    ]
    for a in samples:
        with pytest.raises(NotAPrefix) as err:
            step(End(), a)
        assert f"(program performs {format_atom(atom_of(a))})" in str(err.value)


def test_comm_of_and_atom_of_are_inverse():
    rng = random.Random(2705)
    for _ in range(200):
        atom = random_local_atom(rng)
        c = comm_of(atom)
        assert atom_of(c) == atom
        assert comm_of(atom_of(c)) == c


def test_comm_of_rejects_a_non_ground_atom():
    with pytest.raises(ValueError):
        comm_of(first(lt("send(1,MPI_INT,n).end")))
