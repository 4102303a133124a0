"""Shared fixtures: the two-component AB system used across the suite.

A outputs x and promises "x stays 0"; B reads x, outputs y and promises
"y stays 0"; the global spec only asks that y stays 0.  The canonical
error trace sets both variables to 1 in its single step, so both
components are locally faulty.
"""

from __future__ import annotations

import copy
import dataclasses
import json

import pytest

from tracecause.automata import SafetyAutomaton, Trace
from tracecause.engine import CauseReport
from tracecause.guards import TRUE, Not, Var
from tracecause.model import parse_trace, system_from_dict

FIXTURE_AB = {
    "variables": [
        {"name": "x", "owner": "A"},
        {"name": "y", "owner": "B"},
    ],
    "components": [
        {"name": "A", "inputs": [], "outputs": ["x"],
         "spec": {"states": ["g"], "initial": "g", "bad": [],
                  "edges": [{"from": "g", "guard": "!x", "to": "g"}]}},
        {"name": "B", "inputs": ["x"], "outputs": ["y"],
         "spec": {"states": ["g"], "initial": "g", "bad": [],
                  "edges": [{"from": "g", "guard": "!y", "to": "g"}]}},
    ],
    "global_spec": {"states": ["g"], "initial": "g", "bad": [],
                    "edges": [{"from": "g", "guard": "!y", "to": "g"}]},
}


def ab_doc() -> dict:
    return copy.deepcopy(FIXTURE_AB)


def always_zero(var: str, scope=None) -> SafetyAutomaton:
    """Monitor accepting exactly the traces where ``var`` is always 0."""
    scope = scope if scope is not None else [var]
    return SafetyAutomaton(scope, ["g", "b"], "g", ["b"], {
        "g": [(Not(Var(var)), "g"), (Var(var), "b")],
        "b": [(TRUE, "b")],
    })


def cut_to_minimal(report: CauseReport) -> CauseReport:
    """The report of a ``minimal_only`` run, cut down from the report of
    the same run without it: no list of satisfying sets, and only the
    verdicts of the minimal sets."""
    minimal = set(report.minimal)
    return dataclasses.replace(
        report, minimal_only=True, all_satisfying=None,
        verdicts=tuple(e for e in report.verdicts if e[0] in minimal))


@pytest.fixture
def ab_model():
    return system_from_dict(ab_doc())


@pytest.fixture
def ab_trace(ab_model) -> Trace:
    return parse_trace("x=1 y=1", ab_model.variables)


@pytest.fixture
def ab_files(tmp_path):
    system = tmp_path / "sys.json"
    system.write_text(json.dumps(FIXTURE_AB, indent=2))
    trace = tmp_path / "tr.txt"
    trace.write_text("x=1 y=1\n")
    return str(system), str(trace)
