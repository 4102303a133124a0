"""Mitigation/manifestation verdicts and causal-set enumeration."""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from collections import Counter

import pytest

import tracecause.cli as cli
import tracecause.engine as engine
import tracecause.model as model
from tracecause.automata import Trace, Valuation, contains, run
from tracecause.counterfactual import (ComponentKinds, FaultModelKind,
                                       ModelAssignment)
from tracecause.cli import main as cli_main
from tracecause.engine import (MODES, CandidateSet, _Context,
                               enumerate_causal_sets, enumerate_with_stats,
                               manifestation_operand, manifests,
                               minimal_antichain, mitigates,
                               mitigation_operand)
from tracecause.errors import NotAnErrorTrace, UnknownComponent
from tracecause.guards import TRUE
from tracecause.model import (Component, SystemModel, serialize_system,
                              system_from_dict)

from conftest import always_zero, cut_to_minimal
from oracle import all_traces
from randsys import random_assignment, random_error_trace, random_system
from tracecause.automata import SafetyAutomaton, product

K = FaultModelKind


def T(*steps) -> Trace:
    return Trace(Valuation(s) for s in steps)


AB_TRACE = ({"x": 1, "y": 1},)


@pytest.fixture
def tr(ab_trace):
    return ab_trace


# ---------------------------------------------------------------------------
# operands

def test_mitigation_operand_for_b(ab_model, tr):
    op = mitigation_operand(ab_model, tr, ["B"])
    # language: y always 0, x = 1 at step 0, x free afterwards
    for w in all_traces(["x", "y"], 2):
        expected = (all(v["y"] == 0 for v in w)
                    and (len(w) == 0 or w[0]["x"] == 1))
        assert run(op, Trace(Valuation(v) for v in w)).accepted == expected


def test_mitigation_operand_all_corrected_is_composition(ab_model, tr):
    op = mitigation_operand(ab_model, tr, ["A", "B"])
    composition = product([c.spec for c in ab_model.components])
    assert contains(op, composition).holds and contains(composition, op).holds


def test_mitigation_operand_empty_set_with_observed_full(ab_model, tr):
    asg = ModelAssignment.defaults(ab_model, fault_kind=K.OBSERVED_FULL)
    op = mitigation_operand(ab_model, tr, [], asg)
    # exactly prefixes and extensions of tr
    for w in all_traces(["x", "y"], len(tr) + 1):
        expected = all(v == dict(step.items())
                       for v, step in zip(w, tr))
        assert run(op, Trace(Valuation(v) for v in w)).accepted == expected


def test_manifestation_operand_for_b(ab_model, tr):
    op = manifestation_operand(ab_model, tr, ["B"])
    # step 0 pins x=0 (spec of A) and y=1 (observed output of B); afterwards
    # x stays 0 and y is free
    for w in all_traces(["x", "y"], 2):
        expected = (all(v["x"] == 0 for v in w)
                    and (len(w) == 0 or w[0]["y"] == 1))
        assert run(op, Trace(Valuation(v) for v in w)).accepted == expected


def test_operand_unknown_component(ab_model, tr):
    with pytest.raises(UnknownComponent):
        mitigation_operand(ab_model, tr, ["Z"])


def test_mitigation_operand_has_horizon_length_trace(ab_model, tr):
    from tracecause.automata import has_trace_of_length
    op = mitigation_operand(ab_model, tr, ["B"])
    assert has_trace_of_length(op, 1)
    # the same fact by explicit enumeration of the four length-1 valuations
    from tracecause.automata import enumerate_valuations
    assert any(run(op, Trace([v])).accepted
               for v in enumerate_valuations(["x", "y"]))


# ---------------------------------------------------------------------------
# verdicts

def test_mitigates_fixture_table(ab_model, tr):
    expected = {(): False, ("A",): False, ("B",): True, ("A", "B"): True}
    for members, holds in expected.items():
        v = mitigates(ab_model, tr, members)
        assert v.holds is holds, members
        if not holds:
            op = mitigation_operand(ab_model, tr, members)
            assert run(op, v.witness).accepted
            assert not run(ab_model.global_spec, v.witness).accepted
        else:
            assert v.witness is None


def test_manifests_fixture_table(ab_model, tr):
    expected = {(): False, ("A",): False, ("B",): True, ("A", "B"): True}
    for quantifier in ("existential", "universal"):
        for members, holds in expected.items():
            v = manifests(ab_model, tr, members, quantifier=quantifier)
            assert v.holds is holds, (quantifier, members)
            if holds:
                assert v.witness is not None
                op = manifestation_operand(ab_model, tr, members)
                assert run(op, v.witness).accepted
                assert not run(ab_model.global_spec, v.witness).accepted


# Every library entry call that analyzes an error trace.
ANALYSES = {
    "mitigates": lambda m, tr: mitigates(m, tr, ["B"]),
    "manifests": lambda m, tr: manifests(m, tr, ["B"]),
    "enumerate_causal_sets":
        lambda m, tr: enumerate_causal_sets(m, tr, "mitigation"),
    "enumerate_with_stats":
        lambda m, tr: enumerate_with_stats(m, tr, "manifestation"),
}


def test_not_an_error_trace(ab_model):
    good = T({"x": 0, "y": 0})
    for analysis in ANALYSES.values():
        # The same text the CLI prints after "not an error trace: ".
        with pytest.raises(NotAnErrorTrace,
                           match="^the global spec accepts it$"):
            analysis(ab_model, good)


def test_operands_need_no_error_trace(ab_model):
    good = T({"x": 0, "y": 0})
    for operand in (mitigation_operand, manifestation_operand):
        assert operand(ab_model, good, ["B"]).state_count > 0


@pytest.mark.parametrize("name", sorted(ANALYSES))
def test_each_analysis_runs_the_global_spec_once(ab_model, tr, monkeypatch,
                                                 name):
    runs = []
    real_run = model.run

    def counting_run(a, t):
        if a is ab_model.global_spec:
            runs.append(t)
        return real_run(a, t)

    monkeypatch.setattr(model, "run", counting_run)
    ANALYSES[name](ab_model, tr)
    assert runs == [tr]


def test_quantifier_validated(ab_model, tr):
    with pytest.raises(ValueError):
        manifests(ab_model, tr, ["B"], quantifier="sometimes")


def test_vacuous_mitigation_when_spec_admits_no_long_trace():
    # A's spec accepts only the empty trace; correcting A leaves no trace
    # of the error length, so the containment holds vacuously-but-genuinely.
    spec = SafetyAutomaton(["x"], ["g", "b"], "g", ["b"], {
        "g": [(TRUE, "b")], "b": [(TRUE, "b")]})
    m = SystemModel(
        (Component("A", frozenset(), frozenset(["x"]), spec),),
        always_zero("x"))
    tr = T({"x": 1})
    v = mitigates(m, tr, ["A"])
    assert v.holds and v.vacuous
    # universal manifestation over an unrealizable operand is False+vacuous
    v = manifests(m, tr, [], quantifier="universal")
    assert (v.holds, v.vacuous) == (False, True)


# ---------------------------------------------------------------------------
# enumeration

def test_enumerate_mitigation_fixture(ab_model, tr):
    rep = enumerate_causal_sets(ab_model, tr, "mitigation")
    assert rep.candidates == ("A", "B")
    assert [s.sorted_members for s in rep.all_satisfying] == [("B",), ("A", "B")]
    assert [s.sorted_members for s in rep.minimal] == [("B",)]
    assert rep.quantifier is None
    assert [cs.sorted_members for cs, _ in rep.verdicts] == [
        (), ("A",), ("B",), ("A", "B")]
    assert rep.complexity.worst_case_evaluations == 4


def test_enumerate_manifestation_universal_fixture(ab_model, tr):
    rep = enumerate_causal_sets(ab_model, tr, "manifestation",
                                quantifier="universal")
    assert [s.sorted_members for s in rep.minimal] == [("B",)]


def test_enumerate_environment_only():
    # spec is satisfied on the trace, yet θ rejects it: only the
    # environment is left to blame (such systems fail the refinement
    # obligation, which the engine does not require)
    doc = {
        "variables": [{"name": "e", "owner": "env"},
                      {"name": "o", "owner": "C"}],
        "components": [{
            "name": "C", "inputs": ["e"], "outputs": ["o"],
            "spec": {"states": ["g"], "initial": "g", "bad": [],
                     "edges": [{"from": "g", "guard": "!o", "to": "g"}]}}],
        "global_spec": {"states": ["g"], "initial": "g", "bad": [],
                        "edges": [{"from": "g", "guard": "!e & !o", "to": "g"}]},
    }
    m = system_from_dict(doc)
    tr = T({"e": 1, "o": 0})
    rep = enumerate_causal_sets(m, tr, "mitigation")
    assert rep.candidates == ()
    assert rep.minimal == ()
    assert [cs.sorted_members for cs, _ in rep.verdicts] == [()]
    assert any("environment-only" in n for n in rep.notes)


def test_enumerate_allow_nonfaulty(ab_model):
    tr = T({"x": 0, "y": 1})  # only B is faulty
    rep = enumerate_causal_sets(ab_model, tr, "mitigation")
    assert rep.candidates == ("B",)
    rep = enumerate_causal_sets(ab_model, tr, "mitigation",
                                allow_nonfaulty=True)
    assert rep.candidates == ("A", "B")


def test_minimal_only_restricts_report(ab_model, tr):
    rep = enumerate_causal_sets(ab_model, tr, "mitigation", minimal_only=True)
    assert rep.all_satisfying is None
    assert [s.sorted_members for s in rep.minimal] == [("B",)]
    assert [cs.sorted_members for cs, _ in rep.verdicts] == [("B",)]


def test_pruned_and_unpruned_reports_identical(ab_model, tr):
    asg = ModelAssignment.defaults(ab_model, fault_kind=K.ARBITRARY)
    for minimal_only in (False, True):
        a = enumerate_with_stats(ab_model, tr, "mitigation", asg,
                                 minimal_only=minimal_only)
        b = enumerate_with_stats(ab_model, tr, "mitigation", asg)
        expected = cut_to_minimal(b[0]) if minimal_only else b[0]
        assert a[0].to_dict() == expected.to_dict()
        if minimal_only:
            assert a[1].monotone_pruning
            assert a[1].evaluated + a[1].pruned == b[1].evaluated
            assert a[1].pruned > 0


def test_report_is_byte_deterministic(ab_model, tr):
    one = enumerate_causal_sets(ab_model, tr, "manifestation",
                                quantifier="universal")
    two = enumerate_causal_sets(ab_model, tr, "manifestation",
                                quantifier="universal")
    assert json.dumps(one.to_dict()) == json.dumps(two.to_dict())


def test_heterogeneous_assignment(ab_model, tr):
    # pinning A's full observed behavior instead of observed outputs must
    # not change the fixture verdicts (A has no inputs)
    asg = ModelAssignment.defaults(ab_model).override(
        "A", fault_kind=K.OBSERVED_FULL)
    rep = enumerate_causal_sets(ab_model, tr, "manifestation", asg,
                                quantifier="universal")
    assert [s.sorted_members for s in rep.minimal] == [("B",)]


def test_minimal_antichain_examples():
    assert [s.sorted_members for s in minimal_antichain(
        [CandidateSet.of(["A"]), CandidateSet.of(["A", "B"])])] == [("A",)]
    assert minimal_antichain([]) == []
    three = [CandidateSet.of(p) for p in (("A", "B"), ("B", "C"), ("A", "C"))]
    assert [s.sorted_members for s in minimal_antichain(three)] == [
        ("A", "B"), ("A", "C"), ("B", "C")]


def test_stats_operand_sizes_are_product_sizes(ab_model, tr):
    for mode, operand in zip(MODES, (mitigation_operand,
                                     manifestation_operand)):
        _, stats = enumerate_with_stats(ab_model, tr, mode)
        assert len(stats.per_set) == 4
        for row in stats.per_set:
            op = operand(ab_model, tr, row.members)
            assert (row.operand_states, row.operand_edges) == \
                (op.state_count, op.edge_count)


def test_operand_builders_run_no_faulty_components(ab_model, tr,
                                                    monkeypatch):
    calls = []
    real = engine.faulty_components

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(engine, "faulty_components", counting)
    for operand in (mitigation_operand, manifestation_operand):
        operand(ab_model, tr, ["B"])
    assert calls == []
    mitigates(ab_model, tr, ["B"])
    assert len(calls) == 1


def test_three_faulty_components_unpruned_is_eight_subsets():
    doc = {
        "variables": [{"name": f"v{i}", "owner": f"P{i}"} for i in range(3)],
        "components": [
            {"name": f"P{i}", "inputs": [], "outputs": [f"v{i}"],
             "spec": {"states": ["g"], "initial": "g", "bad": [],
                      "edges": [{"from": "g", "guard": f"!v{i}", "to": "g"}]}}
            for i in range(3)],
        "global_spec": {"states": ["g"], "initial": "g", "bad": [],
                        "edges": [{"from": "g", "guard": "!v2", "to": "g"}]},
    }
    m = system_from_dict(doc)
    tr = T({"v0": 1, "v1": 1, "v2": 1})
    _, stats = enumerate_with_stats(m, tr, "mitigation")
    assert stats.evaluated == 8 and stats.pruned == 0


# ---------------------------------------------------------------------------
# minimal-set search under a monotone assignment

# (cf, fault) pairs whose counterfactual language lies in the fault language
MONOTONE_KINDS = [(K.SPEC, K.ARBITRARY), (K.PREFIX_CORRECT, K.SPEC),
                  (K.OBSERVED_FULL, K.OBSERVED_OUT),
                  (K.OBSERVED_OUT, K.ARBITRARY),
                  (K.PREFIX_CORRECT, K.ARBITRARY)]
MONOTONE_MODES = [("mitigation", "existential"),
                  ("manifestation", "existential")]


def monotone_cases(rng, n):
    """Seeded random systems and error traces, each with the all-arbitrary
    assignment and a mixed one that `_Context.monotone` accepts."""
    found = 0
    while found < n:
        m = random_system(rng, max_components=5, max_good=2)
        tr = random_error_trace(rng, m)
        if tr is None:
            continue
        mixed = ModelAssignment({
            c.name: ComponentKinds(*rng.choice(MONOTONE_KINDS))
            for c in m.components})
        assert _Context(m, tr, mixed).monotone
        found += 1
        yield m, tr, ModelAssignment.defaults(m, fault_kind=K.ARBITRARY)
        yield m, tr, mixed


def test_monotone_search_matches_exhaustive_enumeration():
    rng = random.Random(2024)
    sizes = set()
    for m, tr, asg in monotone_cases(rng, 60):
        for mode, quantifier in MONOTONE_MODES:
            for allow_nonfaulty in (False, True):
                kw = dict(quantifier=quantifier,
                          allow_nonfaulty=allow_nonfaulty)
                rep, st = enumerate_with_stats(m, tr, mode, asg,
                                               minimal_only=True, **kw)
                plain, _ = enumerate_with_stats(m, tr, mode, asg, **kw)
                assert rep.to_dict() == cut_to_minimal(plain).to_dict()
                k = len(rep.candidates)
                sizes.add(k)
                assert st.monotone_pruning
                assert st.evaluated + st.pruned == 2 ** k
                assert len(st.per_set) == st.evaluated
                assert [r.members for r in st.per_set] == sorted(
                    (r.members for r in st.per_set),
                    key=lambda ms: (len(ms), ms))
    assert max(sizes) >= 4


def independent_family(k: int, safe: str = ""):
    """k components, Ci keeping o_i at 0; the global spec allows the
    letters where ``safe`` holds, by default every letter but the one
    with all o_i set, which the one-step trace takes."""
    outs = [f"o{i}" for i in range(k)]
    doc = {
        "variables": [{"name": o, "owner": f"C{i}"}
                      for i, o in enumerate(outs)],
        "components": [
            {"name": f"C{i}", "inputs": [], "outputs": [o],
             "spec": {"states": ["g"], "initial": "g", "bad": [],
                      "edges": [{"from": "g", "guard": f"!{o}", "to": "g"}]}}
            for i, o in enumerate(outs)],
        "global_spec": {"states": ["g"], "initial": "g", "bad": [],
                        "edges": [{"from": "g", "to": "g", "guard": safe or
                                   " | ".join(f"!{o}" for o in outs)}]},
    }
    return system_from_dict(doc), T(dict.fromkeys(outs, 1))


@pytest.mark.parametrize("k", range(2, 9))
def test_monotone_search_counts_on_independent_family(k):
    m, tr = independent_family(k)
    asg = ModelAssignment.defaults(m, fault_kind=K.ARBITRARY)
    names = tuple(f"C{i}" for i in range(k))
    for mode, bound, minimal in (
            ("mitigation", k + 1, [(n,) for n in names]),
            ("manifestation", 2 * k + 2, [names])):
        rep, st = enumerate_with_stats(m, tr, mode, asg, minimal_only=True)
        assert [s.sorted_members for s in rep.minimal] == minimal
        assert st.evaluated <= bound, (mode, st.evaluated)
        assert st.evaluated + st.pruned == 2 ** k


def test_monotone_search_at_max_variables_across_components():
    # 16 one-variable components: each factor's table is read over all
    # 2^16 letters of the operand's scope.
    k = model.MAX_VARIABLES
    m, tr = independent_family(k)
    asg = ModelAssignment.defaults(m, fault_kind=K.ARBITRARY)
    rep, st = enumerate_with_stats(m, tr, "mitigation", asg, minimal_only=True)
    assert (st.evaluated, st.pruned) == (k + 1, 2 ** k - k - 1)
    assert [s.sorted_members for s in rep.minimal] == sorted(
        (f"C{i}",) for i in range(k))


def test_monotone_search_lists_minimal_sets_by_size():
    # Correcting {C0,C1} or {C1,C2,C3} keeps the letters safe; the search
    # finds the larger set first (sizes 0, 1, 4, 3, 2).
    m, tr = independent_family(4, "(!o0 & !o1) | (!o1 & !o2 & !o3)")
    asg = ModelAssignment.defaults(m, fault_kind=K.ARBITRARY)
    rep, _ = enumerate_with_stats(m, tr, "mitigation", asg, minimal_only=True)
    plain, _ = enumerate_with_stats(m, tr, "mitigation", asg)
    assert rep.to_dict() == cut_to_minimal(plain).to_dict()
    assert [cs.sorted_members for cs, _ in rep.verdicts] == [
        ("C0", "C1"), ("C1", "C2", "C3")]


def test_non_monotone_assignment_evaluates_every_subset():
    m, tr = independent_family(4)
    asg = ModelAssignment.defaults(m)  # observed-out faults: not monotone
    for mode in ("mitigation", "manifestation"):
        _, st = enumerate_with_stats(m, tr, mode, asg, minimal_only=True)
        assert not st.monotone_pruning
        assert (st.evaluated, st.pruned) == (16, 0)


# ---------------------------------------------------------------------------
# one context for both modes of an invocation

def cli_cases(tmp_path):
    """CLI arguments for the 60 systems and error traces of
    `monotone_cases`, written out, each with a random mixed assignment as
    ``--model``/``--cf`` flags and one of the eight quantifier,
    ``--minimal-only`` and ``--allow-nonfaulty`` combinations, in turn."""
    rng = random.Random(77)
    cases = list(monotone_cases(random.Random(2024), 60))[::2]
    for i, (m, tr, _) in enumerate(cases):
        system = tmp_path / f"sys{i}.json"
        system.write_text(serialize_system(m))
        trace = tmp_path / f"tr{i}.txt"
        trace.write_text(tr.to_text() + "\n")
        flags = ["--quantifier", ("existential", "universal")[i % 2]]
        flags += ["--minimal-only"] * (i // 2 % 2)
        flags += ["--allow-nonfaulty"] * (i // 4 % 2)
        for name, kinds in sorted(random_assignment(rng, m).entries.items()):
            flags += ["--model", f"{name}={kinds.fault_kind.value}",
                      "--cf", f"{name}={kinds.cf_kind.value}"]
        yield [str(system), str(trace)] + flags


def cli_json(capsys, argv):
    code = cli_main(argv)
    out, err = capsys.readouterr()
    assert err == ""
    return code, json.loads(out)


@pytest.fixture
def unchecked_refinement(monkeypatch):
    # Random global specs seldom refine the composition; the analyses do
    # not need them to, so the CLI's refinement check is skipped here.
    monkeypatch.setattr(cli, "validate_system", lambda m: [])


@pytest.mark.usefixtures("unchecked_refinement")
def test_mode_both_equals_the_two_single_modes(capsys, tmp_path):
    codes = set()
    for argv in cli_cases(tmp_path):
        for command in ("analyze", "stats"):
            both = cli_json(capsys, [command, *argv, "--json"])
            single = [cli_json(capsys, [command, *argv, "--json",
                                        "--mode", mode])
                      for mode in MODES]
            assert both[1]["analyses"] == [doc["analyses"][0]
                                           for _, doc in single]
            for _, doc in single:
                doc["analyses"] = both[1]["analyses"]
                assert doc == both[1]
            assert both[0] == min(code for code, _ in single)
            codes.add(both[0])
    assert codes == {0, 3}


@pytest.mark.usefixtures("unchecked_refinement")
@pytest.mark.parametrize("command", ["analyze", "stats"])
def test_one_invocation_builds_each_factor_once(capsys, monkeypatch,
                                                tmp_path, command):
    builds = Counter()
    real_build = engine.build_fault_model

    def counting_build(kind, c, *args):
        builds[c.name, kind] += 1
        return real_build(kind, c, *args)

    monkeypatch.setattr(engine, "build_fault_model", counting_build)
    calls = Counter()
    for name in ("faulty_components", "violates_global"):
        for module in (cli, engine):
            def counting(*args, name=name, real=getattr(module, name)):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(module, name, counting)
    # With validation skipped, the question of the components' specs is
    # walked by the analysis, once however often it is asked.
    def walking(*args):
        calls["refinement"] += 1
        return contains(*args)

    monkeypatch.setattr(model, "contains", walking)
    spec_operands = 0
    for argv in itertools.islice(cli_cases(tmp_path), 16):
        builds.clear()
        calls.clear()
        cli_main([command, *argv])
        capsys.readouterr()
        assert builds and set(builds.values()) == {1}
        assert calls["refinement"] <= 1
        spec_operands += calls.pop("refinement", 0)
        assert calls == Counter(faulty_components=1)
    assert spec_operands > 0


# ---------------------------------------------------------------------------
# one answer per distinct operand question

ANALYSIS_FLAGS = [{}, {"allow_nonfaulty": True}, {"minimal_only": True}]


def random_analyses(rng, n):
    """Seeded random systems and error traces with a random assignment."""
    found = 0
    while found < n:
        m = random_system(rng, max_components=4, max_good=2)
        tr = random_error_trace(rng, m)
        if tr is not None:
            found += 1
            yield m, tr, random_assignment(rng, m)


def test_shared_answers_equal_fresh_contexts(monkeypatch):
    # Every run on one system shares one context, so answers cross modes,
    # quantifiers and flag sets; the reference decides each candidate set
    # on a context of its own.
    real_evaluate, real_decide = engine._evaluate, engine._decide
    real_product = engine.product
    builds = Counter()

    def counting_decide(ctx, kinds, contained):
        builds["decide"] += 1
        builds["containment"] += contained
        return real_decide(ctx, kinds, contained)

    def counting_product(factors):
        builds["product"] += 1
        return real_product(factors)

    def fresh_evaluate(ctx, *args):
        fresh = _Context(ctx.m, ctx.tr, ctx.asg, ctx.violation)
        return real_evaluate(fresh, *args)

    monkeypatch.setattr(engine, "_decide", counting_decide)
    monkeypatch.setattr(engine, "product", counting_product)
    for m, tr, asg in random_analyses(random.Random(12), 60):
        ctx = engine._analysis(m, tr, asg)
        for mode in MODES:
            for quantifier in ("existential", "universal"):
                for flags in ANALYSIS_FLAGS:
                    kw = dict(quantifier=quantifier, **flags)
                    shared = enumerate_with_stats(m, tr, mode, asg,
                                                  _context=ctx, **kw)
                    builds["evaluated"] += shared[1].evaluated
                    with monkeypatch.context() as fresh:
                        fresh.setattr(engine, "_evaluate", fresh_evaluate)
                        alone = enumerate_with_stats(m, tr, mode, asg, **kw)
                    assert shared[0].to_dict() == alone[0].to_dict()
                    assert shared[1] == alone[1]
        builds["answers"] += len(ctx.answers)
    # The fresh runs decide one question per evaluation, the shared ones
    # one per distinct question, and most shared evaluations reuse an
    # answer.  Only containment questions build their operand.
    assert builds["decide"] == builds["evaluated"] + builds["answers"]
    assert 2 * builds["answers"] < builds["evaluated"]
    assert builds["product"] == builds["containment"] < builds["decide"]


def operand_calls(monkeypatch, tmp_path, m, tr, *flags):
    """The operand products one `analyze --json` call builds
    (``product``) and the questions it decides (`engine._decide` calls),
    by kind (``containment`` or ``universal``)."""
    system = tmp_path / "sys.json"
    system.write_text(serialize_system(m))
    trace = tmp_path / "tr.txt"
    trace.write_text(tr.to_text() + "\n")
    calls = Counter()
    real_product, real_decide = engine.product, engine._decide

    def counting_product(factors):
        calls["product"] += 1
        return real_product(factors)

    def counting_decide(ctx, kinds, contained):
        calls["containment" if contained else "universal"] += 1
        return real_decide(ctx, kinds, contained)

    with monkeypatch.context() as patch:
        patch.setattr(engine, "product", counting_product)
        patch.setattr(engine, "_decide", counting_decide)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli_main(["analyze", str(system), str(trace), "--json",
                             *flags]) == 0
    return calls


@pytest.mark.parametrize("n", [2, 3, 4])
def test_modes_share_containment_operands(monkeypatch, tmp_path, n):
    # Existential manifestation of E asks mitigation's question of the
    # components outside E, so both modes build the 2^n operands once.
    m, tr = independent_family(n)
    assert operand_calls(monkeypatch, tmp_path, m, tr, "--mode", "both",
                         "--allow-nonfaulty") == Counter(
        product=2 ** n, containment=2 ** n)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_equal_kinds_share_operands(monkeypatch, tmp_path, n):
    # With C0 corrected to its own fault kind, D and D | {C0} have the
    # same operand.
    m, tr = independent_family(n)
    assert operand_calls(monkeypatch, tmp_path, m, tr, "--mode",
                         "mitigation", "--cf", "C0=observed-out") == Counter(
        product=2 ** (n - 1), containment=2 ** (n - 1))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_universal_shares_nothing_with_containment(monkeypatch, tmp_path, n):
    # Universal manifestation asks 2^n questions of its own, and walks
    # their factors to the horizon: only mitigation builds operands.
    m, tr = independent_family(n)
    assert operand_calls(monkeypatch, tmp_path, m, tr, "--mode", "both",
                         "--allow-nonfaulty", "--quantifier",
                         "universal") == Counter(
        product=2 ** n, containment=2 ** n, universal=2 ** n)
