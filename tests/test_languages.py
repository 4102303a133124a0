"""Reports depend only on the operand languages.

Every causal notion is defined on languages, so an `analyze` report (its
verdicts, vacuity flags and witnesses) must not move under any edit of a
system file that keeps every automaton's language, and every witness must
be the least word of its question, ordered by length and then by
canonical letter index.  Three checks pin that contract:

* metamorphic: renaming and reordering states and edges, adding an
  unreachable state, or splitting a state into two equivalent ones leaves
  the exit code, stdout and stderr of `analyze` (text and ``--json``)
  unchanged, on the golden systems and on seeded randsys systems;
* least words: `contains` and `find_trace_of_length` witnesses equal a
  brute-force search that enumerates words in the canonical order and
  decides membership with `tests/oracle.py`;
* across modes: under ``--allow-nonfaulty`` the existential manifestation
  operand of E is the mitigation operand of the other components, so the
  two verdicts agree on witness and vacuity and disagree on ``holds``.
"""

from __future__ import annotations

import copy
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout

import pytest

from tracecause.automata import contains, find_trace_of_length
from tracecause.cli import main
from tracecause.counterfactual import (ComponentKinds, FaultModelKind,
                                       ModelAssignment)
from tracecause.engine import (enumerate_causal_sets, manifestation_operand,
                               mitigation_operand)
from tracecause.model import parse_system, parse_trace, serialize_system

from oracle import (all_valuations, literal_operand_member, oracle_accepts,
                    trace_to_letters)
from randsys import random_assignment, random_error_trace, random_system
from test_golden import ENTRIES, _flag_sets


# ---------------------------------------------------------------------------
# language-preserving edits of one automaton object of a system file

def _rename_and_reverse(a: dict) -> dict:
    """Fresh state names, states and edges listed in reverse."""
    new = {q: f"r{i}" for i, q in enumerate(reversed(a["states"]))}
    return dict(a, states=[new[q] for q in reversed(a["states"])],
                initial=new[a["initial"]],
                bad=[new[q] for q in reversed(a.get("bad", []))],
                edges=[dict(e, **{"from": new[e["from"]], "to": new[e["to"]]})
                       for e in reversed(a["edges"])])


def _fresh(a: dict, base: str) -> str:
    name = base
    while name in a["states"]:
        name += "_"
    return name


def _add_unreachable(a: dict) -> dict:
    """A good state no edge enters, with an edge into the initial state."""
    u = _fresh(a, "unreached")
    return dict(a, states=a["states"] + [u],
                edges=a["edges"] + [{"from": u, "guard": "true",
                                     "to": a["initial"]}])


def _split(a: dict) -> dict:
    """Split the first good state that an edge enters (the first entered
    state when none is good) into two: every other edge into it enters a
    twin with the same outgoing edges and the same polarity."""
    entered = [q for q in a["states"] if any(e["to"] == q for e in a["edges"])]
    bad = a.get("bad", [])
    if not entered:
        return a
    s = next((q for q in entered if q not in bad), entered[0])
    twin = _fresh(a, s + "_twin")
    into = [i for i, e in enumerate(a["edges"]) if e["to"] == s][::2]
    edges = [dict(e, to=twin) if i in into else e
             for i, e in enumerate(a["edges"])]
    edges += [dict(e, **{"from": twin}) for e in edges if e["from"] == s]
    return dict(a, states=a["states"] + [twin], edges=edges,
                bad=bad + [twin] * (s in bad))


EDITS = {"rename-reverse": _rename_and_reverse,
         "unreachable": _add_unreachable, "split": _split}


def _edited(doc: dict, edit) -> dict:
    doc = copy.deepcopy(doc)
    for c in doc["components"]:
        c["spec"] = edit(c["spec"])
    doc["global_spec"] = edit(doc["global_spec"])
    return doc


# ---------------------------------------------------------------------------
# the systems: the golden ones, then seeded randsys ones under mixed kinds

def _randsys_inputs(n: int):
    rng = random.Random(404)
    found = 0
    while found < n:
        m = random_system(rng, max_components=3, refinement_holds=True)
        tr = random_error_trace(rng, m, max_len=3)
        if tr is None:
            continue
        found += 1
        flags = ["--quantifier", rng.choice(["existential", "universal"])]
        for name, kinds in sorted(random_assignment(rng, m).entries.items()):
            flags += ["--model", f"{name}={kinds.fault_kind.value}",
                      "--cf", f"{name}={kinds.cf_kind.value}"]
        yield (f"randsys-{found}", json.loads(serialize_system(m)),
               tr.to_text() + "\n", [[], flags])


def _inputs():
    for e in ENTRIES:
        names = [c["name"] for c in e["system"]["components"]]
        yield e["name"], e["system"], e["trace"], _flag_sets(names)
    yield from _randsys_inputs(16)


def _analyze(tmp_path, doc: dict, trace: str, flags: list[str]) -> list:
    system, tr = tmp_path / "sys.json", tmp_path / "tr.txt"
    system.write_text(json.dumps(doc), encoding="utf-8")
    tr.write_text(trace, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["analyze", str(system), str(tr), *flags])
    return [code, out.getvalue(), err.getvalue()]


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """(name, system document, trace, argv, analyze result) per case."""
    tmp = tmp_path_factory.mktemp("reports")
    return [(name, doc, trace, argv, _analyze(tmp, doc, trace, argv))
            for name, doc, trace, flag_sets in _inputs()
            for flags in flag_sets for argv in (flags, flags + ["--json"])]


@pytest.mark.parametrize("edit", EDITS)
def test_analyze_depends_only_on_languages(tmp_path, reports, edit):
    changed = set()
    for name, doc, trace, argv, expected in reports:
        edited = _edited(doc, EDITS[edit])
        if edited != doc:
            changed.add(name)
        assert _analyze(tmp_path, edited, trace, argv) == expected, \
            (name, argv)
    assert len(changed) == len(ENTRIES) + 16


# ---------------------------------------------------------------------------
# every witness is the least word of its question

def _least_word(names, member, wanted, max_len):
    """The least word over ``names`` with ``wanted``, by length and then
    by canonical letter index, among the words of length at most
    ``max_len`` whose every prefix is a ``member``; None if there is none.
    ``member`` must be prefix-closed, so only members are extended."""
    letters = all_valuations(names)
    layer = [[]] if member([]) else []
    for k in range(max_len + 1):
        for w in layer:
            if wanted(w):
                return w
        if k < max_len:
            layer = [w + [v] for w in layer for v in letters
                     if member(w + [v])]
    return None


class _Question:
    """The operand of one candidate set, with membership in its language
    and the least words of both witness questions, decided by the oracle
    alone."""

    def __init__(self, m, tr, members, asg, mode):
        self.m, self.mode = m, mode
        self.members, self.asg = members, asg
        self.letters = trace_to_letters(tr)
        self.operand = (mitigation_operand if mode == "mitigation"
                        else manifestation_operand)(m, tr, members, asg)

    def member(self, w) -> bool:
        return literal_operand_member(self.m, w, self.members, self.asg,
                                      self.mode, self.letters)

    def least_violation(self, max_len: int):
        """The least word of L(op) minus L(G) up to ``max_len``, over the
        scope of `contains`."""
        names = sorted(self.operand.var_set | self.m.global_spec.var_set)
        return _least_word(
            names, self.member,
            lambda w: not oracle_accepts(self.m.global_spec, w), max_len)

    def least_of_length(self, h: int):
        """The least word of L(op) of length ``h``, over the operand's
        own scope, as `find_trace_of_length` reads it."""
        return _least_word(self.operand.vars, self.member,
                           lambda w: len(w) == h, h)


def _plain(t) -> list[dict] | None:
    return None if t is None else trace_to_letters(t)


def test_witnesses_are_least_words_on_randsys_operands():
    rng = random.Random(2718)
    seen = {"witness": 0, "contained": 0, "length": 0, "empty": 0}
    checked = 0
    while checked < 200:
        m = random_system(rng)
        tr = random_error_trace(rng, m)
        if tr is None or len(m.variables) > 4:
            continue
        checked += 1
        names = [c.name for c in m.components]
        q = _Question(m, tr, rng.sample(names, rng.randint(0, len(names))),
                      random_assignment(rng, m),
                      rng.choice(["mitigation", "manifestation"]))
        w = contains(q.operand, m.global_spec).witness
        # Where containment holds, the search finds no violation up to
        # length 2 either.
        assert _plain(w) == q.least_violation(2 if w is None else len(w))
        seen["contained" if w is None else "witness"] += 1
        for h in range(len(tr) + 1):
            w = find_trace_of_length(q.operand, h)
            assert _plain(w) == q.least_of_length(h)
            seen["empty" if w is None else "length"] += 1
    # Both answers of both questions occur.
    assert all(seen.values()), seen


def _assignment(doc: dict) -> ModelAssignment:
    return ModelAssignment({
        name: ComponentKinds(FaultModelKind(k["cf"]), FaultModelKind(k["fault"]))
        for name, k in doc.items()})


def test_golden_report_witnesses_are_least_words(tmp_path):
    checked = 0
    for e in ENTRIES:
        m = parse_system(json.dumps(e["system"]))
        tr = parse_trace(e["trace"], m.variables)
        names = [c["name"] for c in e["system"]["components"]]
        for flags in _flag_sets(names):
            _, out, _ = _analyze(tmp_path, e["system"], e["trace"],
                                 flags + ["--json"])
            for a in json.loads(out)["analyses"]:
                asg = _assignment(a["assignment"])
                for v in a["verdicts"]:
                    if v["witness"] is None:
                        continue
                    q = _Question(m, tr, v["set"], asg, a["mode"])
                    least = (q.least_of_length(len(tr))
                             if a["quantifier"] == "universal"
                             else q.least_violation(len(v["witness"])))
                    assert v["witness"] == least, (e["name"], flags, v)
                    checked += 1
    assert checked > 100


# ---------------------------------------------------------------------------
# existential manifestation of E is "mitigation of the others fails"

def test_manifestation_mirrors_mitigation_of_the_others():
    rng = random.Random(1618)
    compared = 0
    for _ in range(30):
        m = random_system(rng)
        tr = random_error_trace(rng, m)
        if tr is None:
            continue
        everyone = frozenset(c.name for c in m.components)
        for asg in [None] + [random_assignment(rng, m) for _ in range(3)]:
            mitigation = {cs.members: v for cs, v in enumerate_causal_sets(
                m, tr, "mitigation", asg, allow_nonfaulty=True).verdicts}
            manifestation = enumerate_causal_sets(
                m, tr, "manifestation", asg, "existential",
                allow_nonfaulty=True).verdicts
            assert len(manifestation) == len(mitigation) == 2 ** len(everyone)
            for cs, v in manifestation:
                other = mitigation[everyone - cs.members]
                assert (v.holds, v.witness, v.vacuous) == \
                    (not other.holds, other.witness, other.vacuous)
                compared += 1
    assert compared > 300
