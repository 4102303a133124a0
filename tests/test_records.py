"""Value semantics of the package's immutable records: the result types of
`automata`, `counterfactual`, `engine` and `model`, and the guard nodes.

A record equals only a record of its exact class with equal fields, equal
records hash equal, its fields cannot be assigned or deleted, it is built
positionally or by keyword, and its ``repr`` reads ``Name(field=value,
...)``.
"""

from __future__ import annotations

import copy
import pickle

import pytest

from tracecause.automata import (ContainmentResult, Diagnostic, RunResult,
                                 universal_automaton)
from tracecause.counterfactual import (ComponentKinds, FaultModelKind,
                                       ModelAssignment)
from tracecause.engine import (CandidateSet, CauseReport, ComplexityNote,
                               EnumerationStats, SetMetrics, Verdict)
from tracecause.errors import ValidationError
from tracecause.guards import And, Const, Guard, Not, Or, Var
from tracecause.model import (Component, SystemModel, ViolationReport,
                              parse_trace, system_from_dict)

from conftest import ab_doc, always_zero


def _trace():
    return parse_trace("x=1 y=0\nx=0 y=1", ["x", "y"])


def _report() -> dict:
    cs = CandidateSet(frozenset({"B"}))
    return dict(mode="manifestation", quantifier="universal",
                assignment={"A": {"cf": "spec", "fault": "observed-out"}},
                candidates=("A", "B"), minimal_only=False,
                all_satisfying=(cs,), minimal=(cs,),
                verdicts=((cs, Verdict(True, _trace(), False)),),
                notes=("a note",), complexity=ComplexityNote(2, 4, 2))


def _system() -> dict:
    m = system_from_dict(ab_doc())
    return dict(components=m.components, global_spec=m.global_spec)


# Each class with the keyword arguments of one instance, in field order;
# each call builds the field values afresh.
RECORDS = {
    RunResult: lambda: dict(accepted=False, first_violation_index=1),
    Diagnostic: lambda: dict(kind="incomplete", subject="q", message="m",
                             witness=_trace()),
    ContainmentResult: lambda: dict(holds=False, witness=_trace(),
                                    pairs_explored=5, bfs_depth=2),
    ComponentKinds: lambda: dict(cf_kind=FaultModelKind.ARBITRARY,
                                 fault_kind=FaultModelKind.OBSERVED_FULL),
    ModelAssignment: lambda: dict(entries={"A": ComponentKinds()}),
    CandidateSet: lambda: dict(members=frozenset({"A", "B"})),
    Verdict: lambda: dict(holds=True, witness=_trace(), vacuous=False),
    SetMetrics: lambda: dict(members=("A",), operand_states=3,
                             operand_edges=5, factor_bound=4,
                             pairs_explored=6, bfs_depth=2),
    ComplexityNote: lambda: dict(candidates=2, worst_case_evaluations=4,
                                 components=2),
    CauseReport: _report,
    EnumerationStats: lambda: dict(evaluated=4, pruned=1, per_set=(
        SetMetrics(("A",), 3, 5, 4, 6, 2),)),
    Guard: dict,
    Const: lambda: dict(value=True),
    Var: lambda: dict(name="x"),
    Not: lambda: dict(operand=Var("x")),
    And: lambda: dict(operands=(Var("x"), Not(Var("y")))),
    Or: lambda: dict(operands=(Var("x"), Not(Var("y")))),
    Component: lambda: dict(name="A", inputs=frozenset(),
                            outputs=frozenset({"x"}), spec=always_zero("x")),
    SystemModel: _system,
    ViolationReport: lambda: dict(global_violation_index=0,
                                  faulty=(("A", 0), ("B", 0))),
}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_semantics(cls):
    fields = RECORDS[cls]()
    values = tuple(fields.values())
    by_keyword, by_position = cls(**fields), cls(*RECORDS[cls]().values())
    for name, value in fields.items():
        assert getattr(by_keyword, name) is value
    assert by_keyword == by_position and not by_keyword != by_position
    assert by_keyword is not by_position

    # Class-exact: never equal to a bare tuple of the fields, nor to
    # another class.
    assert by_keyword != values
    assert by_keyword.__eq__(values) is NotImplemented
    assert by_keyword.__eq__(object()) is NotImplemented

    try:
        hash(values)
    except TypeError:
        with pytest.raises(TypeError):
            hash(by_keyword)
    else:
        assert hash(by_keyword) == hash(by_position)

    for name in [*fields, "other"]:
        with pytest.raises(AttributeError):
            setattr(by_keyword, name, None)
        with pytest.raises(AttributeError):
            delattr(by_keyword, name)

    assert repr(by_keyword) == "{}({})".format(cls.__name__, ", ".join(
        f"{name}={value!r}" for name, value in fields.items()))

    for twin in (copy.copy(by_keyword),
                 pickle.loads(pickle.dumps(by_keyword))):
        assert type(twin) is cls and twin == by_keyword


def test_equality_needs_the_same_class():
    operands = (Var("x"), Var("y"))
    assert And(operands) != Or(operands)
    assert Var("x") != Not(Var("x"))
    assert Const(True) == Const(True) != Const(False)
    assert Verdict(True, None, False) != Verdict(True, None, True)
    assert CandidateSet(frozenset({"A"})) != frozenset({"A"})


def test_defaults():
    assert RunResult(True) == RunResult(True, None)
    assert RunResult(True).first_violation_index is None
    assert ContainmentResult(True) == ContainmentResult(True, None, 0, 0)
    assert Diagnostic("incomplete", "q", "m").witness is None
    assert ComponentKinds() == ComponentKinds(FaultModelKind.SPEC,
                                              FaultModelKind.OBSERVED_OUT)
    assert EnumerationStats(4, 1, ())._context is None


def test_enumeration_stats_ignores_its_context():
    bare = EnumerationStats(4, 1, ())
    held = EnumerationStats(4, 1, (), object())
    assert held == bare and hash(held) == hash(bare)
    assert repr(held) == repr(bare) == (
        "EnumerationStats(evaluated=4, pruned=1, per_set=())")


def test_invalid_component_or_system_is_refused_at_construction():
    x = always_zero("x")
    with pytest.raises(ValidationError, match="illegal component name"):
        Component("1A", frozenset(), frozenset({"x"}), x)
    with pytest.raises(ValidationError, match="both input and output"):
        Component("A", frozenset({"x"}), frozenset({"x"}), x)
    with pytest.raises(ValidationError, match="spec scope"):
        Component("A", frozenset(), frozenset({"x", "y"}), x)
    a = Component("A", frozenset(), frozenset({"x"}), x)
    with pytest.raises(ValidationError, match="at least one component"):
        SystemModel((), x)
    with pytest.raises(ValidationError, match="duplicate component name"):
        SystemModel((a, a), x)
    b = Component("B", frozenset(), frozenset({"x"}), x)
    with pytest.raises(ValidationError, match="output of both A and B"):
        SystemModel((a, b), x)
    with pytest.raises(ValidationError, match="global spec scope"):
        SystemModel((a,), universal_automaton(["x", "y"]))
