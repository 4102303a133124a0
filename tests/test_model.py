"""System/trace parsing, serialization, validation and violation detection."""

from __future__ import annotations

import json
import random

import pytest

import tracecause.automata
import tracecause.guards
import tracecause.model
from tracecause.automata import (SafetyAutomaton, Trace, Valuation,
                                 check_wellformed, product, run)
from tracecause.errors import (DomainMismatch, DuplicateAssignment,
                               MissingVariable, ParseError, SchemaError,
                               UnknownVariable, ValidationError)
from tracecause.guards import (FALSE, TRUE, And, Not, Or, Var, canonicalize,
                               disj, guard_mask, negate, parse_guard,
                               scan_guard, scope_atoms)
from tracecause.model import (Component, SystemModel, automaton_to_dict,
                              faulty_components, parse_system, parse_trace,
                              project_trace, serialize_system, system_from_dict,
                              validate_system, violates_global)

from conftest import ab_doc, always_zero
from randsys import random_system


def T(*steps) -> Trace:
    return Trace(Valuation(s) for s in steps)


# ---------------------------------------------------------------------------
# system parsing

def test_parse_fixture_structure(ab_model):
    assert [c.name for c in ab_model.components] == ["A", "B"]
    assert ab_model.variables == {"x", "y"}
    assert ab_model.env_vars == frozenset()
    b = ab_model.component("B")
    assert b.inputs == {"x"} and b.outputs == {"y"}
    assert b.spec.var_set == {"x", "y"}


def test_parse_completes_missing_transitions_into_bad_sink(ab_model):
    spec = ab_model.component("A").spec
    assert spec.state_count == 2  # declared "g" plus the bad sink
    assert len(spec.bad) == 1
    # the completed automaton is exactly the "x always 0" monitor
    assert run(spec, T({"x": 0}, {"x": 0})).accepted
    assert not run(spec, T({"x": 1})).accepted


def count_negate_calls(monkeypatch) -> list:
    calls = []

    def counting(g):
        calls.append(g)
        return negate(g)

    monkeypatch.setattr(tracecause.model, "negate", counting)
    return calls


def monitor(var: str) -> dict:
    """A complete "``var`` always 0" monitor, as declared in a file."""
    return {"states": ["g", "b"], "initial": "g", "bad": ["b"],
            "edges": [{"from": "g", "guard": f"!{var}", "to": "g"},
                      {"from": "g", "guard": var, "to": "b"},
                      {"from": "b", "guard": "true", "to": "b"}]}


def test_complete_spec_gets_no_sink_and_no_residual(monkeypatch):
    doc = ab_doc()
    doc["components"][0]["spec"] = monitor("x")
    doc["components"][1]["spec"] = monitor("y")
    doc["global_spec"] = monitor("y")
    calls = count_negate_calls(monkeypatch)
    m = system_from_dict(doc)
    assert calls == []
    for spec in [c.spec for c in m.components] + [m.global_spec]:
        assert spec.states == ("g", "b")
        assert spec.edge_count == 3


@pytest.mark.parametrize("polarity", ["bad", "good"])
def test_incomplete_state_gets_the_residual_guard(monkeypatch, polarity):
    spec = {"states": ["g", "h", f"sink_{polarity}"], "initial": "g",
            "complete_with": polarity,
            "edges": [{"from": "g", "guard": "x & y", "to": "h"},
                      {"from": "g", "guard": "!x", "to": "g"},
                      {"from": "h", "guard": "true", "to": "h"},
                      {"from": f"sink_{polarity}", "guard": "true",
                       "to": f"sink_{polarity}"}]}
    doc = ab_doc()
    doc["global_spec"] = spec
    calls = count_negate_calls(monkeypatch)
    m = system_from_dict(doc)
    # No residual is built before the edges are read; then one per
    # incomplete state: "g" in each component spec and "g" here; "h" and
    # the declared sink are complete.
    assert calls == []
    for a in [c.spec for c in m.components] + [m.global_spec]:
        assert a.edges
    assert len(calls) == 3
    g = m.global_spec
    sink = f"_sink_{polarity}"  # the declared name is taken
    assert g.states == ("g", "h", f"sink_{polarity}", sink)
    assert (sink in g.bad) == (polarity == "bad")
    residual = negate(disj([parse_guard("x & y"), parse_guard("!x")]))
    assert g.edges["g"][-1] == (canonicalize(residual), sink)
    # The residual an eager completion builds from the guards as written.
    atoms = scope_atoms(g.vars)
    written = tuple(scan_guard(t, atoms)[0] for t in ("x & y", "!x"))
    assert g.edges["g"] == (*zip(written, ("h", "g")),
                            (negate(Or(written)), sink))
    assert len(g.edges["h"]) == 1
    assert g.edges[sink] == ((parse_guard("true"), sink),)


def test_parse_computes_each_edge_mask_once(monkeypatch):
    calls = []

    def counting(g, names):
        calls.append(g)
        return guard_mask(g, names)

    monkeypatch.setattr(tracecause.guards, "guard_mask", counting)
    monkeypatch.setattr(tracecause.automata, "guard_mask", counting)
    doc = ab_doc()  # every state incomplete: residuals and sinks too
    doc["global_spec"] = monitor("y")
    m = parse_system(json.dumps(doc))
    auts = [c.spec for c in m.components] + [m.global_spec]
    for a in auts:
        a.transition_table(a.vars)
    # The scan of each guard gives its mask; nothing evaluates it again.
    assert calls == []
    # The masks handed over, the completion's included, are the masks.
    monkeypatch.undo()
    for a in auts:
        assert a._masks == {q: tuple(guard_mask(g, a.vars)
                                     for g, _ in a.edges[q])
                            for q in a.states}


def test_parse_canonicalizes_each_guard_once(monkeypatch):
    calls = []

    def counting(fn):
        def wrapped(g):
            calls.append(g)
            return fn(g)
        return wrapped

    for module in (tracecause.guards, tracecause.automata):
        for name in ("canonicalize", "guard_vars"):
            monkeypatch.setattr(module, name,
                                counting(getattr(module, name)))
    # The guards are kept as written: none is canonicalized or walked for
    # its scope (the residuals of incomplete states come from `negate`).
    parse_system(json.dumps(ab_doc()))
    assert calls == []


def test_guards_are_kept_as_given_and_printed_canonical():
    x = Var("x")
    given = And((TRUE, Not(Not(x))))
    a = SafetyAutomaton(["x"], ["g", "b"], "g", ["b"], {
        "g": [(Not(Or((x, FALSE))), "g"), (given, "b")],
        "b": [(Or((x, Not(x))), "g")]})
    assert a.edges["g"][1] == (given, "b")
    texts = [e["guard"] for e in automaton_to_dict(a)["edges"]]
    assert texts == ["!x", "x", "x | !x"]
    assert [parse_guard(t) for t in texts] == [
        canonicalize(g) for q in a.states for g, _ in a.edges[q]]
    [diag] = [d for d in check_wellformed(a) if d.kind == "non-absorbing-bad"]
    assert diag.message.endswith("(guard x | !x)")


def test_complete_with_good_makes_unspecified_inputs_legal():
    doc = ab_doc()
    doc["components"][0]["spec"]["complete_with"] = "good"
    m = system_from_dict(doc)
    assert run(m.component("A").spec, T({"x": 1}, {"x": 1})).accepted


def test_output_overlap_rejected():
    doc = ab_doc()
    doc["variables"][0]["owner"] = "A"
    doc["components"][1]["outputs"] = ["y", "x"]
    with pytest.raises(ValidationError, match="output"):
        system_from_dict(doc)


def test_nondeterministic_component_spec_rejected():
    doc = ab_doc()
    doc["components"][0]["spec"]["edges"].append(
        {"from": "g", "guard": "!x", "to": "g"})
    doc["components"][0]["spec"]["states"] = ["g"]
    with pytest.raises(ValidationError, match="nondeterministic"):
        system_from_dict(doc)


def test_malformed_guard_is_parse_error_with_position():
    doc = ab_doc()
    doc["components"][0]["spec"]["edges"][0]["guard"] = "x &"
    with pytest.raises(ParseError) as e:
        system_from_dict(doc)
    assert e.value.column == 4
    assert "edges[0]" in str(e.value)


def test_schema_errors():
    with pytest.raises(SchemaError, match="missing field"):
        system_from_dict({"variables": []})
    doc = ab_doc()
    del doc["components"][0]["spec"]["initial"]
    with pytest.raises(SchemaError, match="initial"):
        system_from_dict(doc)
    doc = ab_doc()
    doc["components"][0]["spec"]["complete_with"] = "maybe"
    with pytest.raises(SchemaError, match="complete_with"):
        system_from_dict(doc)


def test_undeclared_guard_variable_rejected():
    doc = ab_doc()
    doc["components"][0]["spec"]["edges"][0]["guard"] = "!x & !y"
    with pytest.raises(ValidationError, match="undeclared"):
        system_from_dict(doc)


def test_unused_declared_variable_rejected():
    doc = ab_doc()
    doc["variables"].append({"name": "z", "owner": "env"})
    with pytest.raises(ValidationError, match="declared but neither"):
        system_from_dict(doc)


def test_owner_consistency_checked():
    doc = ab_doc()
    doc["variables"][0]["owner"] = "B"
    with pytest.raises(ValidationError, match="owner"):
        system_from_dict(doc)


def test_parse_system_reports_json_position():
    with pytest.raises(ParseError) as e:
        parse_system("{ not json")
    assert e.value.line == 1 and e.value.column is not None


def test_env_inputs_are_allowed():
    doc = ab_doc()
    doc["variables"].append({"name": "e", "owner": "env"})
    doc["components"][0]["inputs"] = ["e"]
    doc["components"][0]["spec"]["edges"][0]["guard"] = "!x"
    m = system_from_dict(doc)
    assert m.env_vars == {"e"}
    assert m.variables == {"x", "y", "e"}


# ---------------------------------------------------------------------------
# trace parsing

def test_parse_trace_examples(ab_model):
    t = parse_trace("x=1 y=1", ab_model.variables)
    assert t == T({"x": 1, "y": 1})
    assert parse_trace("", ab_model.variables) == Trace([])
    assert parse_trace("# comment\n\n y=0 x=0\n", ab_model.variables) == \
        T({"x": 0, "y": 0})


def test_parse_trace_accepts_crlf(ab_model):
    t = parse_trace("x=1 y=1\r\nx=0 y=0\r\n", ab_model.variables)
    assert t == T({"x": 1, "y": 1}, {"x": 0, "y": 0})


def test_parse_trace_errors(ab_model):
    with pytest.raises(MissingVariable) as e:
        parse_trace("x=1", ab_model.variables)
    assert e.value.line == 1 and "'y'" in str(e.value)
    with pytest.raises(UnknownVariable):
        parse_trace("x=1 y=0 z=0", ab_model.variables)
    with pytest.raises(DuplicateAssignment):
        parse_trace("x=1 x=1 y=0", ab_model.variables)
    with pytest.raises(ParseError, match="var=0"):
        parse_trace("x=2 y=0", ab_model.variables)


# ---------------------------------------------------------------------------
# projections and violations

def test_project_trace_examples(ab_model):
    a = ab_model.component("A")
    b = ab_model.component("B")
    t = T({"x": 1, "y": 1})
    assert project_trace(t, a) == T({"x": 1})
    assert project_trace(Trace([]), a) == Trace([])
    two = T({"x": 0, "y": 1}, {"x": 1, "y": 0})
    assert project_trace(two, b) == two  # full-scope projection is identity
    with pytest.raises(DomainMismatch):
        project_trace(T({"x": 1}), b)


def test_projection_preserves_length(ab_model):
    rng = random.Random(2)
    for _ in range(50):
        n = rng.randint(0, 4)
        t = T(*({"x": rng.randint(0, 1), "y": rng.randint(0, 1)}
                for _ in range(n)))
        for c in ab_model.components:
            assert len(project_trace(t, c)) == len(t)


def test_violates_global_examples(ab_model):
    r = violates_global(ab_model, T({"x": 1, "y": 1}))
    assert (r.accepted, r.first_violation_index) == (False, 0)
    assert violates_global(ab_model, T({"x": 1, "y": 0})).accepted
    assert violates_global(ab_model, Trace([])).accepted


def test_faulty_components_examples(ab_model):
    rep = faulty_components(ab_model, T({"x": 1, "y": 1}))
    assert rep.faulty == (("A", 0), ("B", 0))
    assert rep.global_violation_index == 0
    assert faulty_components(ab_model, T({"x": 0, "y": 0})).faulty == ()
    rep = faulty_components(ab_model, T({"x": 0, "y": 0}, {"x": 1, "y": 0}))
    assert rep.faulty == (("A", 1),)
    assert rep.global_violation_index is None


# ---------------------------------------------------------------------------
# refinement check

def test_validate_fixture_holds(ab_model):
    assert validate_system(ab_model) == []


def test_validate_reports_witness_on_refinement_violation():
    doc = ab_doc()
    # θ demands x and y stay 0 but B's spec no longer constrains y
    doc["global_spec"] = {
        "states": ["g"], "initial": "g", "bad": [],
        "edges": [{"from": "g", "guard": "!x & !y", "to": "g"}]}
    doc["components"][1]["spec"] = {
        "states": ["g"], "initial": "g", "bad": [],
        "edges": [{"from": "g", "guard": "true", "to": "g"}]}
    m = system_from_dict(doc)
    diags = validate_system(m)
    assert [d.kind for d in diags] == ["refinement-violation"]
    witness = diags[0].witness
    assert witness is not None and witness[0]["y"] == 1
    assert not run(m.global_spec, witness).accepted


def test_validate_single_component_reflexive():
    spec = always_zero("x")
    m = SystemModel((Component("A", frozenset(), frozenset(["x"]), spec),),
                    always_zero("x"))
    assert validate_system(m) == []


def test_validate_builds_no_product(monkeypatch):
    rng = random.Random(19)
    systems = [random_system(rng, refinement_holds=i % 2 == 0)
               for i in range(20)]
    calls = []

    def counting(auts):
        calls.append(auts)
        return product(auts)

    for module in (tracecause.automata, tracecause.model):
        monkeypatch.setattr(module, "product", counting)
    assert {bool(validate_system(m)) for m in systems} == {False, True}
    assert calls == []


def test_refinement_implies_global_acceptance_randomized():
    rng = random.Random(17)
    checked = 0
    for _ in range(120):
        m = random_system(rng, refinement_holds=True)
        assert validate_system(m) == []
        for _ in range(6):
            n = rng.randint(0, 3)
            from randsys import random_trace
            t = random_trace(rng, m.variables, n)
            if all(run(c.spec, project_trace(t, c)).accepted
                   for c in m.components):
                assert violates_global(m, t).accepted
                checked += 1
    assert checked > 50


# ---------------------------------------------------------------------------
# serialization

def test_serialize_parse_fixpoint_fixture(ab_model):
    text1 = serialize_system(ab_model)
    m1 = parse_system(text1)
    assert m1 == ab_model
    assert serialize_system(m1) == text1


def test_serialize_parse_fixpoint_randomized():
    rng = random.Random(23)
    for _ in range(40):
        m = random_system(rng, refinement_holds=rng.random() < 0.5)
        text1 = serialize_system(m)
        m1 = parse_system(text1)
        text2 = serialize_system(m1)
        assert text1 == text2
        assert parse_system(text2) == m1


def test_serialization_is_byte_deterministic(ab_model):
    doc = ab_doc()
    assert serialize_system(system_from_dict(doc)) == \
        serialize_system(system_from_dict(doc))
