"""Records: every frozen dataclass is slotted, and every record pickles."""

from __future__ import annotations

import copy
import dataclasses
import importlib
import pickle
import pkgutil
import random
import typing

import pytest

import commcheck
from commcheck.parser import parse_local_term, parse_protocol
from commcheck.program import Stmt, parse_program
from commcheck.projection import project_all
from commcheck.sim import DecisionStep, Deadlock, P2PStep, explore_all_tapes
from commcheck.terms import Comm, spine
from commcheck.wf import Diagnostic, check_wf

from conftest import bundled_text

# The two reports are mutable accumulators, built once per check; they
# are left as plain dataclasses.
MUTABLE_REPORTS = {"CheckReport", "WfReport"}


def _records():
    for info in pkgutil.iter_modules(commcheck.__path__):
        if info.name == "__main__":  # runs the CLI when imported
            continue
        module = importlib.import_module(f"commcheck.{info.name}")
        for value in vars(module).values():
            if (
                isinstance(value, type)
                and dataclasses.is_dataclass(value)
                and value.__module__ == module.__name__
            ):
                yield value


# Every dataclass of the package, by module.
RECORDS = {
    "checker": {"CheckReport"},
    "exprs": {
        "ArrayKind", "BaseKind", "BinOp", "BoolOp", "Cmp", "Lit", "Not", "RefinedKind",
        "Refinement", "Var",
    },
    "program": {
        "BufferDecl", "CollChoice", "CollLoop", "CommStmt", "Let", "Marker", "Program", "RankIf",
    },
    "projection": {"ProjectionResult"},
    "sim": {"AllDone", "Deadlock", "DecisionStep", "P2PStep", "SimState", "StateSpaceExceeded"},
    "terms": {"Atom", "Choice", "End", "Loop", "ParamBinder", "Prefix", "Protocol"},
    "wf": {"Diagnostic", "WfReport"},
}


def test_every_frozen_record_is_slotted():
    records = list(_records())
    by_module: dict[str, set[str]] = {}
    for cls in records:
        by_module.setdefault(cls.__module__.removeprefix("commcheck."), set()).add(cls.__name__)
    assert by_module == RECORDS
    assert len(records) == sum(map(len, RECORDS.values())) == 35
    assert {cls.__name__ for cls in records if not cls.__dataclass_params__.frozen} == (
        MUTABLE_REPORTS
    )
    for cls in records:
        if cls.__name__ in MUTABLE_REPORTS:
            continue
        assert "__slots__" in vars(cls), cls
        assert cls.__dictoffset__ == 0, f"{cls.__qualname__} instances have a __dict__"


def _walk(stmts):
    for s in stmts:
        yield s
        for name in ("body", "then_body", "else_body"):
            yield from _walk(getattr(s, name, ()))


def _roundtrip(x):
    y = pickle.loads(pickle.dumps(x))
    assert y == x
    assert type(y) is type(x)
    return y


def test_a_protocol_with_a_refined_parameter_pickles(fdiff_protocol_text):
    protocol = parse_protocol(fdiff_protocol_text)
    assert type(protocol.params[0].kind).__name__ == "RefinedKind"
    hash(protocol.body)  # a node's cached hash is not pickled, but recomputed
    copy = _roundtrip(protocol)
    assert hash(copy.body) == hash(protocol.body)
    assert not hasattr(spine(copy.body)[0], "__dict__")
    assert copy.params[0].pos == protocol.params[0].pos


def test_a_thousand_message_chain_and_its_views_pickle_and_deep_copy():
    # A node pickles as its spine's heads, so only loop and choice
    # nesting recurses, never the length of a spine.
    rng = random.Random(1)
    lines = ["nprocs 3."]
    for _ in range(1_000):
        src, dst = rng.sample(range(3), 2)
        lines.append(f"message({src},{dst},MPI_INT,{rng.randint(0, 8)}).")
    protocol = parse_protocol("\n".join([*lines, "loop(", *lines[1:], "end).", "end"]))
    views = project_all(protocol, {})
    for term in (protocol, views):
        for clone in (_roundtrip(term), copy.deepcopy(term)):
            assert clone == term and clone is not term


def test_a_program_with_every_statement_kind_pickles(fdiff_program_text):
    program = parse_program(fdiff_program_text)
    kinds = {type(s) for s in _walk(program.body)}
    assert kinds == set(typing.get_args(Stmt))
    copy = _roundtrip(program)
    assert [s.pos for s in _walk(copy.body)] == [s.pos for s in _walk(program.body)]


def test_a_deadlock_with_a_trail_pickles():
    views = [
        parse_local_term(
            "allreduce(MPI_INT,1,MPI_SUM).loop(send(1,MPI_INT,1).end).receive(1,MPI_INT,1).end"
        ),
        parse_local_term(
            "allreduce(MPI_INT,1,MPI_SUM).loop(receive(0,MPI_INT,1).end).receive(0,MPI_INT,1).end"
        ),
    ]
    verdict = explore_all_tapes(views, 2)
    assert isinstance(verdict, Deadlock)
    assert {type(step) for step in verdict.trail} == {Comm, DecisionStep, P2PStep}
    _roundtrip(verdict)


@pytest.mark.parametrize("size", [-3, 7])
def test_a_diagnostic_pickles(fdiff_protocol_text, size):
    diagnostics = check_wf(parse_protocol(fdiff_protocol_text), {"size": size}).diagnostics
    assert diagnostics
    for d in diagnostics:
        copy = _roundtrip(d)
        assert (copy.pos, copy.rank, copy.path) == (d.pos, d.rank, d.path)
        assert copy.render("f.cty") == d.render("f.cty")
