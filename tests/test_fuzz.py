"""Arbitrary system and trace files only ever give a documented exit code.

Hypothesis feeds `validate`, `analyze` and `stats` (in-process, through
`tracecause.cli.main`) system documents shaped like the schema, with at
most four variables and random guard text, plus raw garbage; traces are
drawn the same way.  The candidate-set budget is sometimes lowered so
that small systems reach its refusal too.  Any exception escaping
`main`, or an exit code outside 0-4, fails the test.
"""

from __future__ import annotations

import contextlib
import io
import json
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tracecause.engine
from tracecause.cli import main

VARS = ["a", "b", "c", "d"]
NAMES = ["P", "Q", "R"]
STATES = ["s0", "s1", "s2"]
KINDS = ["spec", "arbitrary", "observed", "observed-out", "prefix-correct"]
EXIT_CODES = {0, 1, 2, 3, 4}

garbage = st.text(alphabet="abcdxPQ01=!&|() \n\t{}[]\",:#", max_size=40)


def rarely(n: int):
    """True about once in ``n`` draws."""
    return st.sampled_from([False] * (n - 1) + [True])


def guard_text(names):
    atoms = st.sampled_from(list(names) + ["true", "false"])
    formulas = st.recursive(atoms, lambda sub: st.one_of(
        sub.map("!{}".format),
        st.tuples(sub, st.sampled_from([" & ", " | ", "&", "|"]), sub).map(
            lambda t: "(" + "".join(t) + ")")), max_leaves=5)
    return rarely(20).flatmap(lambda odd: garbage if odd else formulas)


@st.composite
def automata(draw, names):
    """Usually deterministic: a state splits on one guard and its negation
    (or has one edge, or none), and bad states loop; now and then the
    edges are arbitrary."""
    states = draw(st.lists(st.sampled_from(STATES), min_size=1, max_size=3,
                           unique=True))
    state = st.sampled_from(states)
    initial = draw(state)
    bad = [q for q in draw(st.lists(state, max_size=1)) if q != initial]
    if draw(rarely(4)):
        edges = draw(st.lists(st.fixed_dictionaries({
            "from": state, "guard": guard_text(names), "to": state}),
            max_size=5))
    else:
        edges = []
        for q in states:
            if q in bad:
                edges.append({"from": q, "guard": "true", "to": q})
                continue
            g = draw(guard_text(names))
            split = [g, f"!({g})"][:draw(st.integers(0, 2))]
            edges += [{"from": q, "guard": h, "to": draw(state)}
                      for h in split]
    obj = {"states": states, "initial": initial, "bad": bad, "edges": edges}
    if draw(st.booleans()):
        obj["complete_with"] = "x" if draw(rarely(10)) else draw(
            st.sampled_from(["bad", "good"]))
    return obj


def trace_text(names):
    step = st.tuples(*[st.sampled_from([f"{v}=0", f"{v}=1"])
                       for v in names]).map(" ".join)
    return st.lists(step, min_size=1, max_size=3).map("\n".join)


@st.composite
def cases(draw):
    """A system document and a trace.  The document usually passes the
    schema: owners and outputs agree, and the global spec is often a
    component's spec, so the refinement obligation often holds; the trace
    usually assigns exactly the system's variables."""
    variables = draw(st.lists(st.sampled_from(VARS), min_size=1, max_size=4,
                              unique=True))
    names = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=3,
                          unique=True))
    owner = {v: draw(st.sampled_from(names + ["env"])) for v in variables}
    components = []
    for n in names:
        outputs = [v for v in variables if owner[v] == n]
        inputs = draw(st.lists(st.sampled_from(variables), unique=True).map(
            lambda vs: [v for v in vs if v not in outputs]))
        components.append({"name": n, "inputs": inputs, "outputs": outputs,
                           "spec": draw(automata(inputs + outputs))})
    specs = [c["spec"] for c in components]
    doc = {"variables": [{"name": v, "owner": owner[v]} for v in variables],
           "components": components,
           "global_spec": draw(st.one_of(st.sampled_from(specs),
                                         automata(variables)))}
    if draw(rarely(10)):  # break one field
        doc[draw(st.sampled_from(sorted(doc)))] = draw(
            st.one_of(st.none(), st.integers(), garbage))
    system = draw(garbage) if draw(rarely(8)) else json.dumps(doc)
    trace = draw(st.one_of(
        garbage,
        st.lists(st.sampled_from(VARS), unique=True).flatmap(trace_text),
    ) if draw(rarely(6)) else trace_text(sorted(variables)))
    return system, trace


flags = st.lists(st.one_of(
    st.sampled_from(["--json", "--minimal-only", "--allow-nonfaulty",
                     "--mode=mitigation", "--mode=manifestation",
                     "--quantifier=universal", "--horizon=1"]),
    st.tuples(st.sampled_from(["--model", "--cf"]),
              st.sampled_from(NAMES), st.sampled_from(KINDS)).map(
        lambda t: f"{t[0]}={t[1]}={t[2]}")), max_size=3)


def run(argv) -> tuple[int, str]:
    """Exit code and stderr of ``main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse usage errors
            code = e.code
    return code, err.getvalue()


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=cases(), extra=flags,
       budget=st.sampled_from([None, 1, 2, 4]))
def test_cli_exit_codes_on_arbitrary_input(tmp_path_factory, case, extra,
                                           budget):
    d = tmp_path_factory.mktemp("fuzz")
    (d / "sys.json").write_text(case[0])
    (d / "tr.txt").write_text(case[1])
    sys_path, tr_path = str(d / "sys.json"), str(d / "tr.txt")
    assert run(["validate", sys_path])[0] in EXIT_CODES
    limit = budget or tracecause.engine.MAX_EVALUATIONS
    with mock.patch.object(tracecause.engine, "MAX_EVALUATIONS", limit):
        for command in ("analyze", "stats"):
            code, err = run([command, sys_path, tr_path, *extra])
            assert code in EXIT_CODES
            if f"more than the limit of {limit}" in err:
                assert code == 2
