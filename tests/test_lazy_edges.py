"""Automata whose guards are built on first read of ``edges``.

The parser and the observed fault models hand an automaton its edge
masks and targets and build no guard: `SafetyAutomaton.from_masks`
builds the guards when ``edges`` is first read.  Each such automaton
must be indistinguishable from the one built eagerly from the same
guards (``SafetyAutomaton(...)``): the same edges in the same order,
diagnostics, serialized form, equality, and the same again after
`copy.copy` or pickling, taken before or after the edges are read.
Neither parsing nor any analysis builds a guard node.
"""

from __future__ import annotations

import copy
import io
import json
import pickle
import random
from contextlib import redirect_stderr, redirect_stdout
from functools import partial
from pathlib import Path

import pytest

from tracecause.automata import SafetyAutomaton, check_wellformed
from tracecause.cli import main
from tracecause.counterfactual import (FaultModelKind, _observed_chain,
                                       build_fault_model)
from tracecause.guards import (FALSE, TRUE, And, Not, Or, cube, guard_mask,
                               negate, scan_guard, scope_atoms)
from tracecause.model import (automaton_to_dict, project_trace,
                              serialize_system, system_from_dict)

from conftest import ab_doc
from randsys import random_automaton, random_error_trace, random_system

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "golden.json"
DEMO_SYSTEM = ROOT / "demos" / "data" / "system.json"


def eager_parse(obj: dict, scope) -> SafetyAutomaton:
    """What the parser built when it kept every guard: each guard scanned
    as written, and the residual of an incomplete state, the negation of
    its guards, built at once.  Coverage is decided on masks evaluated
    from the guards, not on the scan's."""
    atoms = scope_atoms(scope)
    full = atoms["true"][1]
    states = list(obj["states"])
    edges: dict = {s: [] for s in states}
    for e in obj["edges"]:
        edges[e["from"]].append((scan_guard(e["guard"], atoms)[0], e["to"]))
    bad = set(obj.get("bad", []))
    polarity = obj.get("complete_with", "bad")
    uncovered = {}
    for s in states:
        covered = 0
        for g, _ in edges[s]:
            covered |= guard_mask(g, scope)
        if covered != full:
            uncovered[s] = negate(Or(tuple(g for g, _ in edges[s])))
    if uncovered:
        sink = f"sink_{polarity}"
        while sink in states:
            sink = "_" + sink
        states.append(sink)
        edges[sink] = [(TRUE, sink)]
        if polarity == "bad":
            bad.add(sink)
        for s, residual in uncovered.items():
            edges[s].append((residual, sink))
    return SafetyAutomaton(scope, states, obj["initial"], bad, edges)


def eager_chain(scope, cube_vars, steps) -> SafetyAutomaton:
    """The observed chain as built when it kept every guard."""
    h = len(steps)
    names = [f"obs{k}" for k in range(h)] + ["tail", "bad"]
    edges: dict = {}
    for k in range(h):
        g = cube(steps[k], cube_vars)
        out = [(g, names[k + 1])]
        off = negate(g)
        if off != FALSE:
            out.append((off, "bad"))
        edges[names[k]] = out
    edges["tail"] = [(TRUE, "tail")]
    edges["bad"] = [(TRUE, "bad")]
    return SafetyAutomaton(scope, names, names[0], ["bad"], edges)


def assert_lazy_matches(build_lazy, eager: SafetyAutomaton):
    """``build_lazy()`` builds a fresh automaton with unread edges that
    equals ``eager`` in every respect, as do its copy and its pickled
    twin, taken before and after the edges are read."""
    lazy = build_lazy()
    twins = [lazy, copy.copy(lazy), pickle.loads(pickle.dumps(lazy))]
    # Only a bad state that leaves has its guard printed.
    printed = any(d.kind == "non-absorbing-bad"
                  for d in check_wellformed(eager))
    for a in twins:
        assert a._edges is None
        assert a.edge_count == eager.edge_count
        assert a._edge_masks() == eager._edge_masks()
        if not any(d.kind == "incomplete-state"
                   for d in check_wellformed(eager)):
            assert (a.transition_table(a.vars)
                    == eager.transition_table(a.vars))
        assert check_wellformed(a) == check_wellformed(eager)
        assert (a._edges is not None) == printed
        assert list(a.edges.items()) == list(eager.edges.items())
        assert a == eager and eager == a
        assert automaton_to_dict(a) == automaton_to_dict(eager)
        for twin in (copy.copy(a), pickle.loads(pickle.dumps(a))):
            assert twin == eager
            assert list(twin.edges.items()) == list(eager.edges.items())


def system_docs():
    """(name, system document) of the demo, golden and randsys systems."""
    yield "demo", json.loads(DEMO_SYSTEM.read_text(encoding="utf-8"))
    for entry in json.loads(GOLDEN.read_text(encoding="utf-8")):
        yield entry["name"], entry["system"]
    for seed in range(30):
        m = random_system(random.Random(seed), max_components=3)
        yield f"randsys{seed}", json.loads(serialize_system(m))


SYSTEMS = list(system_docs())


@pytest.mark.parametrize("doc", [doc for _, doc in SYSTEMS],
                         ids=[name for name, _ in SYSTEMS])
def test_parsed_automata_equal_eager_ones(doc):
    declared = [v["name"] for v in doc["variables"]]
    pairs = [(lambda i=i: system_from_dict(doc).components[i].spec,
              eager_parse(c["spec"], c["inputs"] + c["outputs"]))
             for i, c in enumerate(doc["components"])]
    pairs.append((lambda: system_from_dict(doc).global_spec,
                  eager_parse(doc["global_spec"], declared)))
    for build_lazy, eager in pairs:
        assert_lazy_matches(build_lazy, eager)


def test_observed_chains_equal_eager_ones():
    rng = random.Random(7)
    checked = 0
    while checked < 40:
        m = random_system(rng, max_components=3)
        tr = random_error_trace(rng, m)
        if tr is None:
            continue
        checked += 1
        for c in m.components:
            local = project_trace(tr, c)
            for kind, cube_vars in ((FaultModelKind.OBSERVED_FULL, c.vars),
                                    (FaultModelKind.OBSERVED_OUT, c.outputs)):
                assert_lazy_matches(
                    lambda: build_fault_model(kind, c, local, len(local)),
                    eager_chain(c.vars, cube_vars, local))
            # No variable pinned: no edge off the cube; and no step at all.
            assert_lazy_matches(
                lambda: _observed_chain(c.vars, (), local),
                eager_chain(c.vars, (), local))
            assert_lazy_matches(
                lambda: _observed_chain(c.vars, c.vars, local[:0]),
                eager_chain(c.vars, c.vars, local[:0]))


def _guards_of(edges: dict) -> dict:
    return {q: [g for g, _ in e] for q, e in edges.items()}


def _variants(a: SafetyAutomaton):
    """Edge maps of ``a`` broken in each wellformedness rule: a bad state
    that leaves, an uncovered letter, overlapping edges."""
    edges = {q: list(e) for q, e in a.edges.items()}
    yield edges
    bad = next(iter(a.bad))
    yield {**edges, bad: [(TRUE, a.initial)]}
    q = a.initial
    yield {**edges, q: edges[q][:-1]}
    yield {**edges, q: edges[q][:1] + edges[q]}


def test_diagnostics_of_lazy_automata_equal_eager_ones():
    rng = random.Random(11)
    for _ in range(40):
        a = random_automaton(rng, ["x", "y"][:rng.randint(1, 2)])
        for edges in _variants(a):
            for initial in (a.initial, next(iter(a.bad))):
                eager = SafetyAutomaton(a.vars, a.states, initial, a.bad,
                                        edges)
                assert_lazy_matches(
                    lambda: SafetyAutomaton.from_masks(
                        a.vars, a.states, initial, a.bad,
                        {q: [t for _, t in e] for q, e in edges.items()},
                        eager._edge_masks(), partial(_guards_of, edges)),
                    eager)


def count_guard_nodes(monkeypatch) -> list:
    """The Not, And and Or nodes built from now on."""
    built = []
    for cls in (Not, And, Or):
        def counting(self, arg, cls=cls, init=cls.__init__):
            built.append(cls)
            init(self, arg)
        monkeypatch.setattr(cls, "__init__", counting)
    return built


def test_parsing_and_analysis_build_no_guard_node(monkeypatch, tmp_path):
    docs = [doc for _, doc in SYSTEMS]
    built = count_guard_nodes(monkeypatch)
    models = [system_from_dict(doc) for doc in docs]
    rng = random.Random(3)
    chains = []
    for m in models[-10:]:
        tr = random_error_trace(rng, m)
        for c in m.components if tr is not None else ():
            local = project_trace(tr, c)
            chains += [build_fault_model(kind, c, local, len(local))
                       for kind in FaultModelKind]
    assert chains and built == []
    # Reading the edges builds them.
    assert models[0].global_spec.edges and chains[2].edges
    assert built

    # Nor does any command, with every fault-model kind in play.
    built.clear()
    system, trace = tmp_path / "sys.json", tmp_path / "tr.txt"
    system.write_text(json.dumps(ab_doc()), encoding="utf-8")
    trace.write_text("x=1 y=1\n", encoding="utf-8")
    runs = [["validate", str(system), "--json"]]
    for kind in FaultModelKind:
        for command in ("analyze", "stats"):
            runs += [[command, str(system), str(trace), *flags,
                      "--model", f"A={kind.value}", "--cf", f"B={kind.value}"]
                     for flags in ([], ["--json", "--minimal-only"],
                                   ["--quantifier", "universal"])]
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        codes = {main(argv) for argv in runs}
    assert codes <= {0, 3} and built == []

