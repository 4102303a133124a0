"""Safety-automaton core: runs, products, containment, reachability."""

from __future__ import annotations

import random

import pytest

import tracecause.automata
from tracecause.automata import (ContainmentResult, SafetyAutomaton, Trace,
                                 Valuation, check_wellformed, contains,
                                 enumerate_valuations, find_trace_of_length,
                                 has_joint_trace_of_length,
                                 has_trace_of_length, product, run,
                                 universal_automaton)
from tracecause.counterfactual import FaultModelKind, build_fault_model
from tracecause.engine import _Context, manifestation_operand
from tracecause.errors import DomainMismatch
from tracecause.guards import (TRUE, And, Not, Or, Var, cube, disj, guard_eval,
                               guard_mask)
from tracecause.model import project_trace

import search_reference
from conftest import always_zero
from oracle import (all_traces, all_valuations, oracle_accepts, oracle_step,
                    restrict)
from randsys import (random_assignment, random_automaton, random_error_trace,
                     random_system, random_trace)


def T(*steps) -> Trace:
    return Trace(Valuation(s) for s in steps)


# ---------------------------------------------------------------------------
# valuations and traces

def test_valuation_order_is_binary_counting_msb_first():
    vals = enumerate_valuations(["y", "x"])
    assert [tuple(v.items()) for v in vals] == [
        (("x", 0), ("y", 0)), (("x", 0), ("y", 1)),
        (("x", 1), ("y", 0)), (("x", 1), ("y", 1))]


def test_valuation_restrict_and_text():
    v = Valuation({"b": 1, "a": 0})
    assert v.to_text() == "a=0 b=1"
    assert v.restrict(["b"]).to_text() == "b=1"
    with pytest.raises(DomainMismatch):
        v.restrict(["c"])


def test_valuation_rejects_bad_values():
    with pytest.raises(ValueError):
        Valuation({"x": 2})
    with pytest.raises(ValueError):
        Valuation({"true": 1})


def test_trace_demands_one_domain():
    with pytest.raises(DomainMismatch):
        Trace([Valuation({"x": 0}), Valuation({"y": 0})])
    assert Trace([]).domain is None
    assert len(T({"x": 0}, {"x": 1})) == 2


# ---------------------------------------------------------------------------
# wellformedness

def test_universal_automaton_is_wellformed():
    assert check_wellformed(universal_automaton(["x"])) == []


def test_overlapping_guards_flag_nondeterminism():
    a = SafetyAutomaton(["x"], ["s", "t"], "s", [], {
        "s": [(Var("x"), "s"), (Var("x"), "t"), (Not(Var("x")), "s")],
        "t": [(TRUE, "t")]})
    kinds = [d.kind for d in check_wellformed(a)]
    assert kinds == ["nondeterministic-state"]


def test_uncovered_valuation_flags_incompleteness():
    a = SafetyAutomaton(["x"], ["s"], "s", [], {"s": [(Var("x"), "s")]})
    kinds = [d.kind for d in check_wellformed(a)]
    assert kinds == ["incomplete-state"]


def test_bad_state_must_absorb_and_initial_must_be_good():
    a = SafetyAutomaton(["x"], ["s", "b"], "b", ["b"], {
        "s": [(TRUE, "s")], "b": [(TRUE, "s")]})
    kinds = {d.kind for d in check_wellformed(a)}
    assert kinds == {"non-absorbing-bad", "bad-initial"}


# ---------------------------------------------------------------------------
# run

def test_run_monitor_examples():
    mon = always_zero("x")
    assert run(mon, T({"x": 0}, {"x": 0})) .accepted
    r = run(mon, T({"x": 0}, {"x": 1}, {"x": 0}))
    assert (r.accepted, r.first_violation_index) == (False, 1)
    assert run(mon, Trace([])).accepted


def test_run_ignores_extra_variables_but_needs_its_own():
    mon = always_zero("x")
    assert run(mon, T({"x": 0, "y": 1})).accepted
    with pytest.raises(DomainMismatch):
        run(mon, T({"y": 1}))


def test_step_needs_every_variable_of_the_automaton():
    # The universal automaton's one guard, true, mentions no variable.
    for a, q in ((universal_automaton(["x", "y"]), "ok"),
                 (always_zero("x", ["x", "y"]), "g"),
                 (always_zero("x"), "g")):
        with pytest.raises(DomainMismatch):
            a.step(q, {"y": 0})


# ---------------------------------------------------------------------------
# product

def test_product_of_one_is_language_equivalent():
    u = universal_automaton(["x"])
    p = product([u])
    assert contains(p, u).holds and contains(u, p).holds


def test_product_conjoins_constraints():
    p = product([always_zero("x"), always_zero("y")])
    assert sorted(p.vars) == ["x", "y"]
    assert run(p, T({"x": 0, "y": 0})).accepted
    r = run(p, T({"x": 1, "y": 0}))
    assert (r.accepted, r.first_violation_index) == (False, 0)


def test_product_membership_is_conjunction_randomized():
    rng = random.Random(7)
    for _ in range(300):
        scope = ["u", "v", "w"][:rng.randint(1, 3)]
        auts = [random_automaton(rng, rng.sample(scope, rng.randint(1, len(scope))))
                for _ in range(rng.randint(1, 3))]
        p = product(auts)
        t = random_trace(rng, scope, rng.randint(0, 6))
        expected = all(run(a, t).accepted for a in auts)
        assert run(p, t).accepted == expected


def test_product_states_are_reachable_tuples():
    p = product([always_zero("x"), always_zero("y")])
    assert p.initial == ("g", "g")
    assert all(isinstance(s, tuple) and len(s) == 2 for s in p.states)
    assert check_wellformed(p) == []


def eager_product(auts):
    """Reference product built edge by edge from the guards: on each letter
    every member takes its first enabled edge; each state gets one edge
    per tuple of member edges taken on some letter, in lexicographic
    order, guarded by the plain conjunction of the member guards.
    Returns (states, edges)."""
    letters = enumerate_valuations(set().union(*(a.var_set for a in auts)))
    order = [tuple(a.initial for a in auts)]
    edges = {}
    for s in order:  # grows while iterated: breadth first
        combos = set()
        for v in letters:
            combo = tuple(next((k for k, (g, _) in enumerate(a.edges[q])
                                if guard_eval(g, v)), None)
                          for a, q in zip(auts, s))
            if None not in combo:
                combos.add(combo)
        out = []
        for combo in sorted(combos):
            guards, target = zip(*[a.edges[q][k]
                                   for a, q, k in zip(auts, s, combo)])
            out.append((And(guards), target))
            if target not in order:
                order.append(target)
        edges[s] = tuple(out)
    return tuple(order), edges


def random_member_lists(rng, n):
    """Lists of random automata over overlapping scopes."""
    for _ in range(n):
        scope = ["u", "v", "w"][:rng.randint(1, 3)]
        yield [random_automaton(rng, rng.sample(scope,
                                                rng.randint(1, len(scope))))
               for _ in range(rng.randint(1, 3))]


def randsys_factor_lists(rng, n):
    """Fault-model factors of seeded random systems, one kind per
    component, every kind (the product kind ``prefix-correct`` too)."""
    kinds = list(FaultModelKind)
    found = 0
    while found < n:
        m = random_system(rng)
        tr = random_error_trace(rng, m)
        if tr is None:
            continue
        found += 1
        yield [build_fault_model(rng.choice(kinds), c, project_trace(tr, c),
                                 len(tr))
               for c in m.components]


def assert_edges_match_eager_build(p, auts):
    """``p``, the product of ``auts`` with its edges not yet read, has the
    reference's states, bad states and edges (guards, targets and order),
    and counts its edges before building them."""
    edge_count = p.edge_count
    states, edges = eager_product(auts)
    assert p.states == states
    assert p.initial == states[0]
    assert p.bad == {s for s in states
                     if any(q in a.bad for a, q in zip(auts, s))}
    assert list(p.edges.items()) == list(edges.items())
    assert edge_count == p.edge_count == sum(map(len, p.edges.values()))
    return p


def assert_product_matches_members(auts):
    """The table's successor on each letter is the tuple of the members'
    steps, and the edges match the reference (checked after the table, so
    the edges are still unbuilt)."""
    p = product(auts)
    letters = enumerate_valuations(p.vars)
    table = p.transition_table(p.vars)
    for s in p.states:
        assert table[s] == tuple(
            tuple(a.step(q, v) for a, q in zip(auts, s)) for v in letters)
    return assert_edges_match_eager_build(p, auts)


def test_product_matches_eager_build_on_random_automata():
    rng = random.Random(11)
    for auts in random_member_lists(rng, 150):
        assert_product_matches_members(auts)


def test_product_matches_eager_build_on_randsys_factors():
    rng = random.Random(12)
    nested = 0
    for auts in randsys_factor_lists(rng, 60):
        p = assert_product_matches_members(auts)
        nested += sum(isinstance(a.initial, tuple) for a in auts)
        for _ in range(5):
            t = random_trace(rng, p.vars, rng.randint(0, 4))
            assert run(p, t).accepted == all(run(a, t).accepted
                                             for a in auts)
    assert nested  # some factors were prefix-correct products


def test_product_as_factor_of_a_wider_product():
    inner = product([always_zero("x"), always_zero("y")])
    outer = product([inner, always_zero("z")])
    assert_product_matches_members([inner, always_zero("z")])
    assert contains(outer, always_zero("x", ["x", "y", "z"])).holds
    assert not contains(outer, always_zero("w", ["w", "x", "y", "z"])).holds
    assert run(outer, T({"x": 0, "y": 0, "z": 0})).accepted
    assert not run(outer, T({"x": 0, "y": 1, "z": 0})).accepted


def test_product_with_incomplete_member_has_no_edge_there():
    # "only_zero" has no edge where x=1: the product state has none there
    # either, and its table refuses the gap as an incomplete automaton does.
    only_zero = SafetyAutomaton(["x"], ["s"], "s", [],
                                {"s": [(Not(Var("x")), "s")]})
    auts = [only_zero, always_zero("y")]
    p = assert_edges_match_eager_build(product(auts), auts)
    assert [d.kind for d in check_wellformed(p)] == ["incomplete-state"] * 2
    with pytest.raises(RuntimeError, match="incomplete"):
        p.transition_table(p.vars)
    assert run(p, T({"x": 0, "y": 1})).accepted is False
    with pytest.raises(RuntimeError, match="no enabled edge"):
        run(p, T({"x": 1, "y": 0}))


def test_product_with_nondeterministic_member_takes_first_edge():
    both = SafetyAutomaton(["x"], ["s", "t"], "s", [], {
        "s": [(TRUE, "s"), (Var("x"), "t")], "t": [(TRUE, "t")]})
    p = assert_product_matches_members([both, always_zero("y")])
    assert [s for s, _ in p.states] == ["s", "s"]


def test_transition_table_is_built_once_per_scope(monkeypatch):
    calls = []
    targets = SafetyAutomaton._edge_targets

    def counting(self):
        calls.append(self)
        return targets(self)

    monkeypatch.setattr(SafetyAutomaton, "_edge_targets", counting)
    a = always_zero("x")
    first = a.transition_table(["x", "y"])
    built = len(calls)
    assert built == 1
    assert a.transition_table(["y", "x"]) is first
    assert len(calls) == built
    assert a.transition_table(["x"]) is not first


class _CountingEdges(dict):
    """An edge map that counts, per state, how often its edges are read."""

    def __init__(self, edges):
        super().__init__(edges)
        self.reads = dict.fromkeys(edges, 0)

    def __getitem__(self, q):
        self.reads[q] += 1
        return super().__getitem__(q)

    def items(self):
        for q in self:
            yield q, self[q]


def test_edge_targets_are_built_once_per_state():
    # Masks handed over up front, so only the target lists read the edges.
    a = SafetyAutomaton(["x"], ["g", "b"], "g", ["b"], {
        "g": [(Not(Var("x")), "g"), (Var("x"), "b")], "b": [(TRUE, "b")]},
        masks={"g": (0b01, 0b10), "b": (0b11,)})
    a.edges = _CountingEdges(a.edges)
    for q in a.states:
        for v in enumerate_valuations(["x", "y"]):
            a.step(q, v)
    for _ in range(3):
        p = product([a, always_zero("y")])
        product([always_zero("z"), a])
    a.transition_table(["x", "y", "z"])
    assert a.edges.reads == {"g": 1, "b": 1}
    assert a._edge_targets() is a._edge_targets()
    # A product reads its target lists off its successor maps and builds
    # no guarded edge for them.
    assert p._edge_targets() == {s: tuple(succ.values())
                                 for s, succ in p._succ.items()}
    run(p, T({"x": 1, "y": 0}))
    assert p._edges is None
    assert p._edge_targets() == {s: tuple(t for _, t in es)
                                 for s, es in p.edges.items()}


# ---------------------------------------------------------------------------
# containment

def test_contains_is_reflexive():
    a = always_zero("x")
    assert contains(a, a).holds


def test_contains_conjunction_weakening():
    both = product([always_zero("x"), always_zero("y")])
    assert contains(both, always_zero("y", ["x", "y"])).holds


def test_contains_counterexample_is_shortest_and_deterministic():
    res = contains(always_zero("y", ["x", "y"]), always_zero("x", ["x", "y"]))
    assert not res.holds
    assert res.witness == T({"x": 1, "y": 0})


def test_witness_validity_randomized():
    rng = random.Random(21)
    for _ in range(300):
        scope = ["u", "v"][:rng.randint(1, 2)]
        a = random_automaton(rng, scope)
        b = random_automaton(rng, rng.sample(scope, rng.randint(1, len(scope))))
        res = contains(a, b)
        if not res.holds:
            assert run(a, res.witness).accepted
            assert not run(b, res.witness).accepted


def test_contains_agrees_with_bounded_enumeration():
    rng = random.Random(5)
    for _ in range(120):
        if rng.random() < 0.5:
            scope, max_good = ["u"], 2
        else:
            scope, max_good = ["u", "v"], 1
        a = random_automaton(rng, scope, max_good=max_good)
        b = random_automaton(rng, scope, max_good=max_good)
        cutoff = a.state_count * b.state_count
        expected = all(oracle_accepts(b, w)
                       for w in all_traces(scope, cutoff)
                       if oracle_accepts(a, w))
        assert contains(a, b).holds == expected


def test_prefix_monotone_rejection_randomized():
    rng = random.Random(11)
    for _ in range(300):
        scope = ["u", "v"][:rng.randint(1, 2)]
        a = random_automaton(rng, scope)
        t = random_trace(rng, scope, rng.randint(0, 5))
        r = run(a, t)
        if not r.accepted:
            ext = Trace(list(t) + list(random_trace(rng, scope,
                                                    rng.randint(1, 3))))
            r2 = run(a, ext)
            assert not r2.accepted
            assert r2.first_violation_index == r.first_violation_index


def test_cylindrification_neutrality_randomized():
    rng = random.Random(13)
    for _ in range(200):
        a = random_automaton(rng, ["u", "v"][:rng.randint(1, 2)])
        t = random_trace(rng, a.vars, rng.randint(0, 5))
        widened = Trace(
            Valuation(dict(step, fresh=rng.randint(0, 1))) for step in t)
        assert run(a, t) == run(a, widened)


# ---------------------------------------------------------------------------
# horizon reachability

def test_has_trace_of_length_universal():
    assert has_trace_of_length(universal_automaton(["x"]), 5)


def test_has_trace_of_length_doomed_initial():
    a = SafetyAutomaton(["x"], ["s", "b"], "s", ["b"], {
        "s": [(TRUE, "b")], "b": [(TRUE, "b")]})
    assert has_trace_of_length(a, 0)
    assert not has_trace_of_length(a, 1)
    assert not has_trace_of_length(a, 4)


def test_has_trace_of_length_huge_horizon_via_cycle_jump():
    assert has_trace_of_length(always_zero("x"), 10 ** 9)


def test_find_trace_of_length_is_deterministic_and_accepted():
    a = always_zero("x", ["x", "y"])
    t = find_trace_of_length(a, 3)
    assert t == T({"x": 0, "y": 0}, {"x": 0, "y": 0}, {"x": 0, "y": 0})
    assert run(a, t).accepted
    assert find_trace_of_length(a, 0) == Trace([])


def test_has_joint_trace_of_length():
    assert has_joint_trace_of_length(always_zero("x"), always_zero("y"), 3)
    only_one = SafetyAutomaton(["x"], ["s", "b"], "s", ["b"], {
        "s": [(Var("x"), "s"), (Not(Var("x")), "b")], "b": [(TRUE, "b")]})
    # "x always 1" and "x always 0" share no trace of positive length
    assert not has_joint_trace_of_length(only_one, always_zero("x"), 1)
    assert has_joint_trace_of_length(only_one, always_zero("x"), 0)


HORIZONS = list(range(9)) + [10 ** 6]


def reference_has_trace(auts, h):
    """Product-based reference for the horizon routine: layer-by-layer
    reachability through the good states of ``product(auts)``, with no
    cycle jump.  A good run as long as the product's state count repeats
    a state, so it extends forever; longer horizons are answered there."""
    p = product(auts)
    table = p.transition_table(p.vars)
    layer = set() if p.initial in p.bad else {p.initial}
    for _ in range(min(h, p.state_count)):
        layer = {t for q in layer for t in table[q] if t not in p.bad}
    return bool(layer)


def random_automaton_pairs(rng, n):
    """Pairs of random automata over overlapping scopes, some of them
    doomed after a few steps."""
    scopes = [["u"], ["v"], ["u", "v"], ["v", "w"], ["u", "v", "w"]]
    for _ in range(n):
        yield tuple(random_automaton(rng, rng.choice(scopes),
                                     bad_prob=rng.choice([0.1, 0.3, 0.6]))
                    for _ in range(2))


def randsys_operand_pairs(rng, n):
    """(manifestation operand, global spec) of seeded random systems,
    under random kind assignments and candidate sets."""
    found = 0
    while found < n:
        m = random_system(rng)
        tr = random_error_trace(rng, m)
        if tr is None:
            continue
        found += 1
        names = [c.name for c in m.components]
        d = rng.sample(names, rng.randint(1, len(names)))
        yield (manifestation_operand(m, tr, d, random_assignment(rng, m)),
               m.global_spec)


@pytest.mark.parametrize("pairs", [
    lambda: random_automaton_pairs(random.Random(11), 120),
    lambda: randsys_operand_pairs(random.Random(12), 60),
], ids=["random-pairs", "randsys-operands"])
def test_horizon_routine_matches_product_reference(pairs):
    outcomes = set()
    for a, b in pairs():
        for h in HORIZONS:
            assert has_trace_of_length(a, h) == reference_has_trace([a], h)
            joint = has_joint_trace_of_length(a, b, h)
            assert joint == reference_has_trace([a, b], h)
            assert joint == has_joint_trace_of_length(b, a, h)
            outcomes.add((h, joint))
    # both answers occur, at short and at huge horizons
    assert {(0, True), (1, False), (10 ** 6, True), (10 ** 6, False)} <= outcomes


def test_joint_horizon_builds_no_product(monkeypatch):
    calls = []

    def counting(auts):
        calls.append(auts)
        return product(auts)

    monkeypatch.setattr(tracecause.automata, "product", counting)
    rng = random.Random(13)
    for a, b in random_automaton_pairs(rng, 20):
        for h in HORIZONS:
            has_joint_trace_of_length(a, b, h)
            has_trace_of_length((a, b), h)
            find_trace_of_length((a, b), min(h, 9))
    assert calls == []


# ---------------------------------------------------------------------------
# containment of a product that is not built

def refinement_cases(n):
    """(component specs, global spec) of ``n`` seeded randsys systems,
    every other one built so that refinement holds."""
    rng = random.Random(41)
    for i in range(n):
        m = random_system(rng, refinement_holds=i % 2 == 0)
        yield [c.spec for c in m.components], m.global_spec


def raw_member_cases(n):
    """One to three members and a right-hand side whose bad states need
    not absorb (the initial state may be bad)."""
    rng = random.Random(42)
    scopes = [["u"], ["v"], ["u", "v"], ["v", "w"]]
    for _ in range(n):
        members = [random_raw_automaton(rng, rng.choice(scopes))
                   for _ in range(rng.randint(1, 3))]
        yield members, random_raw_automaton(rng, rng.choice(scopes))


def test_member_containment_equals_product_containment():
    """Every `ContainmentResult` field of the search over the members'
    tuples equals that of the search over their built product."""
    holds = []
    for members, b in [*refinement_cases(60), *raw_member_cases(80)]:
        got = contains(members, b)
        assert got == contains(product(members), b)
        holds.append(got.holds)
    # The refinement half all hold; the rest mix both answers.
    assert all(holds[:60:2])
    assert {True, False} <= set(holds[1:60:2]) and {True, False} <= set(holds[60:])
    with pytest.raises(ValueError):
        contains([], b)


def test_member_containment_witness_is_a_refinement_counterexample():
    """Each witness is a composed behavior the global spec rejects: every
    member accepts its projection (read by the oracle's own walker)."""
    witnesses = 0
    for specs, theta in refinement_cases(60):
        res = contains(specs, theta)
        if res.holds:
            continue
        letters = [dict(step.items()) for step in res.witness]
        for spec in specs:
            assert oracle_accepts(spec, [restrict(v, spec.vars)
                                         for v in letters])
        assert not oracle_accepts(theta, letters)
        witnesses += 1
    assert witnesses >= 10


# ---------------------------------------------------------------------------
# the search core against the separately written reference loops

def random_raw_automaton(rng, names, uncovered=0.0):
    """Deterministic, but with a random set of bad states that need not
    absorb (the initial state may be bad), and each letter left without an
    edge with probability ``uncovered``."""
    names = tuple(sorted(names))
    states = [f"s{i}" for i in range(rng.randint(1, 4))]
    bad = [q for q in states if rng.random() < 0.3]
    edges = {}
    for q in states:
        by_target: dict[str, list] = {}
        for v in enumerate_valuations(names):
            if rng.random() >= uncovered:
                by_target.setdefault(rng.choice(states), []).append(v)
        edges[q] = [(disj(cube(v, names) for v in vs), t)
                    for t, vs in sorted(by_target.items())]
    return SafetyAutomaton(names, states, states[0], bad, edges)


def raw_automaton_pairs(rng, n, uncovered=0.0):
    scopes = [["u"], ["v"], ["u", "v"], ["v", "w"], ["u", "v", "w"]]
    for _ in range(n):
        yield tuple(random_raw_automaton(rng, rng.choice(scopes), uncovered)
                    for _ in range(2))


def outcome(f, *args):
    """The result of ``f(*args)``, or the type and message it raised."""
    try:
        return f(*args)
    except (RuntimeError, ValueError) as e:
        return type(e), str(e)


@pytest.mark.parametrize("pairs, incomplete", [
    (lambda: random_automaton_pairs(random.Random(31), 80), False),
    (lambda: raw_automaton_pairs(random.Random(32), 120), False),
    (lambda: raw_automaton_pairs(random.Random(33), 60, uncovered=0.15), True),
    (lambda: randsys_operand_pairs(random.Random(34), 40), False),
], ids=["wellformed", "not-wellformed", "incomplete", "randsys-operands"])
def test_search_core_matches_reference(pairs, incomplete):
    """Every `ContainmentResult` field, every witness of a given length,
    the horizon answers and the errors equal the reference loops'."""
    seen = set()
    for a, b in pairs():
        for x, y in ((a, b), (b, a)):
            got = outcome(contains, x, y)
            assert got == outcome(search_reference.contains, x, y)
            seen.add(got.holds if isinstance(got, ContainmentResult)
                     else got[0])
            for h in [-1, *range(7), 10 ** 9]:
                assert outcome(has_trace_of_length, x, h) == \
                    outcome(search_reference.has_trace_of_length, x, h)
                assert outcome(has_joint_trace_of_length, x, y, h) == \
                    outcome(search_reference.has_joint_trace_of_length,
                            x, y, h)
                if h <= 6:
                    found = outcome(find_trace_of_length, x, h)
                    assert found == \
                        outcome(search_reference.find_trace_of_length, x, h)
                    # Both horizon questions build the table first, so an
                    # incomplete one raises at every length, 0 included.
                    assert isinstance(found, tuple) == isinstance(
                        outcome(has_trace_of_length, x, h), tuple)
    # Both containment answers occur, and only incomplete tables raise.
    assert {True, False} <= seen
    assert (RuntimeError in seen) == incomplete


# ---------------------------------------------------------------------------
# horizon walks of a product that is not built

MEMBER_HORIZONS = [*range(7), 10 ** 9]


def randsys_factor_cases(n):
    """(fault-model factors of one operand, global spec) of ``n`` seeded
    randsys systems, under random kind assignments and candidate sets."""
    rng = random.Random(43)
    found = 0
    while found < n:
        m = random_system(rng)
        tr = random_error_trace(rng, m)
        if tr is None:
            continue
        found += 1
        ctx = _Context(m, tr, random_assignment(rng, m))
        names = [c.name for c in m.components]
        d = frozenset(rng.sample(names, rng.randint(0, len(names))))
        yield ctx.factors(ctx.kinds(d, rng.random() < 0.5)), m.global_spec


def test_member_horizon_walks_equal_product_walks():
    """Both horizon answers of a member sequence, alone and with the
    global spec, equal those of the built product and of the reference
    loops: witnesses included, at h = 0 and at a horizon that only the
    cycle jump reaches."""
    answers, bad_starts = set(), 0
    for members, b in [*randsys_factor_cases(60), *raw_member_cases(80)]:
        for seq in (members, [*members, b]):
            p = product(seq)
            bad_starts += p.initial in p.bad
            for h in MEMBER_HORIZONS:
                has = has_trace_of_length(seq, h)
                assert has == has_trace_of_length(p, h) == \
                    search_reference.has_trace_of_length(p, h)
                answers.add((h, has))
                if h > 6:
                    continue
                found = find_trace_of_length(seq, h)
                assert found == find_trace_of_length(p, h) == \
                    search_reference.find_trace_of_length(p, h)
                assert (found is not None) == has
    assert {(0, True), (1, False), (10 ** 9, True), (10 ** 9, False)} <= answers
    assert bad_starts > 0
    for walk in (has_trace_of_length, find_trace_of_length):
        with pytest.raises(ValueError):
            walk([], 1)


def test_incomplete_member_raises_as_in_contains():
    """A member without an edge on some letter raises, as its table does
    in `contains`, at every length; `find_trace_of_length` answers h = 0
    and a bad initial tuple before it reads a table."""
    rng = random.Random(44)
    scopes = [["u"], ["v"], ["u", "v"], ["v", "w"]]
    raised = early = 0
    for _ in range(80):
        members = [random_raw_automaton(rng, rng.choice(scopes), 0.15)
                   for _ in range(rng.randint(1, 3))]
        error = outcome(contains, members, universal_automaton([]))
        if not isinstance(error, tuple):
            continue
        assert error[0] is RuntimeError
        raised += 1
        bad_start = any(m.initial in m.bad for m in members)
        for h in MEMBER_HORIZONS:
            assert outcome(has_trace_of_length, members, h) == error
            found = outcome(find_trace_of_length, members, h)
            if bad_start:
                assert found is None
            elif h == 0:
                assert found == Trace()
            else:
                assert found == error
        early += bad_start
    assert raised > early > 0


def test_transition_table_matches_step():
    rng = random.Random(3)
    for _ in range(50):
        a = random_automaton(rng, ["u", "v"])
        table = a.transition_table(["u", "v"])
        for q in a.states:
            for i, v in enumerate(enumerate_valuations(["u", "v"])):
                assert table[q][i] == a.step(q, v)


# ---------------------------------------------------------------------------
# edge rows

def random_guard(rng, names, depth=3):
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return Var(rng.choice(names)) if rng.random() < 0.9 else TRUE
    if roll < 0.45:
        return Not(random_guard(rng, names, depth - 1))
    parts = tuple(random_guard(rng, names, depth - 1)
                  for _ in range(rng.randint(2, 3)))
    return And(parts) if roll < 0.75 else Or(parts)


def random_guarded_automaton(rng, names):
    """Random guards, so states may overlap and leave letters uncovered."""
    states = [f"s{i}" for i in range(rng.randint(1, 3))]
    edges = {q: [(random_guard(rng, names), rng.choice(states))
                 for _ in range(rng.randint(0, 4))]
             for q in states}
    return SafetyAutomaton(names, states, states[0], [], edges)


def reference_edge_rows(a, scope):
    """Per state, the first edge whose guard holds on each letter."""
    letters = enumerate_valuations(scope)
    return {q: tuple(next((k for k, (g, _) in enumerate(a.edges[q])
                           if guard_eval(g, v)), None) for v in letters)
            for q in a.states}


def test_edge_rows_match_per_letter_reference():
    rng = random.Random(17)
    overlapping = incomplete = 0
    for _ in range(60):
        n = rng.randint(1, 8)
        names = [f"v{i}" for i in range(n)]
        a = random_guarded_automaton(rng, rng.sample(names, rng.randint(1, n)))
        kinds = {d.kind for d in check_wellformed(a)}
        overlapping += "nondeterministic-state" in kinds
        incomplete += "incomplete-state" in kinds
        for scope in (a.vars, tuple(names)):
            assert a._edge_rows(scope) == reference_edge_rows(a, scope)
    assert overlapping and incomplete


def test_wider_scopes_evaluate_no_guard(monkeypatch):
    calls = []

    def counting(g, names):
        calls.append(g)
        return guard_mask(g, names)

    a = always_zero("x")
    p = product([a, always_zero("y")])
    a.transition_table(a.vars)
    monkeypatch.setattr(tracecause.automata, "guard_mask", counting)
    for b in (a, p):
        b.transition_table(["w", "x", "y", "z"])
    assert calls == []


def oracle_run(a, letters):
    """(accepted, first violation index) from `oracle_accepts` on each
    nonempty prefix."""
    for i in range(len(letters)):
        if not oracle_accepts(a, letters[:i + 1]):
            return False, i
    return True, None


def test_step_and_run_match_the_oracle():
    rng = random.Random(29)
    overlapping = incomplete = steps = 0
    for _ in range(60):
        n = rng.randint(1, 5)
        names = [f"v{i}" for i in range(n)]
        r = random_guarded_automaton(rng, rng.sample(names, rng.randint(1, n)))
        kinds = {d.kind for d in check_wellformed(r)}
        overlapping += "nondeterministic-state" in kinds
        incomplete += "incomplete-state" in kinds
        bad = rng.sample(r.states[1:], rng.randint(0, len(r.states) - 1))
        a = SafetyAutomaton(r.vars, r.states, r.initial, bad, r.edges)
        for scope in (a.vars, tuple(names)):
            letters = all_valuations(scope)
            for q in a.states:
                for v in letters:
                    try:
                        want = oracle_step(a, q, v)
                    except AssertionError:
                        with pytest.raises(RuntimeError):
                            a.step(q, v)
                    else:
                        assert a.step(q, v) == want
                        steps += 1
            for _ in range(10):
                trace = rng.choices(letters, k=rng.randint(0, 4))
                try:
                    want = oracle_run(a, trace)
                except AssertionError:
                    with pytest.raises(RuntimeError):
                        run(a, T(*trace))
                else:
                    r = run(a, T(*trace))
                    assert (r.accepted, r.first_violation_index) == want
    assert overlapping and incomplete and steps
