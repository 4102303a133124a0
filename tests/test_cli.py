"""CLI surface: flags, exit codes, output determinism."""

from __future__ import annotations

import json
import os
import re
import resource
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import tracecause
import tracecause.cli as cli
import tracecause.engine
import tracecause.model
from tracecause.automata import contains
from tracecause.cli import main
from tracecause.engine import MAX_EVALUATIONS
from tracecause.guards import MAX_GUARD_DEPTH
from tracecause.model import MAX_VARIABLES, validate_system

from conftest import ab_doc

ROOT = Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    """(exit code, stdout, stderr) of ``main(argv)``, usage errors and
    ``--help`` included."""
    try:
        code = main(list(argv))
    except SystemExit as e:
        code = e.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_doc(tmp_path, doc, name="sys.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


# ---------------------------------------------------------------------------
# validate

def test_validate_ok(capsys, ab_files):
    system, _ = ab_files
    code, out, err = run_cli(capsys, "validate", system)
    assert code == 0
    assert "refinement holds" in out
    assert err == ""


def test_validate_json_ok(capsys, ab_files):
    system, _ = ab_files
    code, out, _ = run_cli(capsys, "validate", system, "--json")
    doc = json.loads(out)
    assert code == 0
    assert doc["schema_version"] == 2
    assert doc["status"] == "ok"
    assert doc["diagnostics"] == []


def test_validate_output_overlap_exits_1(capsys, tmp_path):
    doc = ab_doc()
    doc["variables"][0]["owner"] = "A"
    doc["components"][1]["outputs"] = ["y", "x"]
    code, _, err = run_cli(capsys, "validate", write_doc(tmp_path, doc))
    assert code == 1
    assert "output" in err


def test_validate_refinement_violation_exits_1(capsys, tmp_path):
    doc = ab_doc()
    doc["components"][1]["spec"]["edges"] = [
        {"from": "g", "guard": "true", "to": "g"}]
    doc["global_spec"]["edges"] = [
        {"from": "g", "guard": "!x & !y", "to": "g"}]
    code, _, err = run_cli(capsys, "validate", write_doc(tmp_path, doc))
    assert code == 1
    assert "refinement-violation" in err
    assert "witness" in err


_REFINEMENT_STDERR = (
    "refinement-violation: the composed component specs admit a behavior "
    "the global spec rejects; witness: x=0 y=1\n")

_REFINEMENT_JSON = """\
{
  "schema_version": 2,
  "command": "validate",
  "status": "invalid",
  "diagnostics": [
    {
      "kind": "refinement-violation",
      "subject": "global_spec",
      "message": "the composed component specs admit a behavior the global spec rejects",
      "witness": [
        {
          "x": 0,
          "y": 1
        }
      ]
    }
  ]
}
"""


def test_validate_refinement_violation_bytes(capsys, tmp_path):
    doc = ab_doc()
    doc["components"][1]["spec"]["edges"] = [
        {"from": "g", "guard": "true", "to": "g"}]
    doc["global_spec"]["edges"] = [
        {"from": "g", "guard": "!x & !y", "to": "g"}]
    path = write_doc(tmp_path, doc)
    assert run_cli(capsys, "validate", path) == (1, "", _REFINEMENT_STDERR)
    assert run_cli(capsys, "validate", path, "--json") == (
        1, _REFINEMENT_JSON, _REFINEMENT_STDERR)


def test_validate_malformed_guard_exits_2(capsys, tmp_path):
    doc = ab_doc()
    doc["components"][0]["spec"]["edges"][0]["guard"] = "x &"
    code, _, err = run_cli(capsys, "validate", write_doc(tmp_path, doc))
    assert code == 2
    assert "column 4" in err


def run_cli_process(*argv, memory_cap=None):
    """The CLI in a fresh interpreter, so an uncaught error shows as a
    traceback on stderr.  ``memory_cap`` (bytes) limits the child's
    address space, so a runaway allocation fails fast."""
    src = os.path.dirname(os.path.dirname(tracecause.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (memory_cap, memory_cap))

    return subprocess.run([sys.executable, "-m", "tracecause.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60,
                          preexec_fn=cap if memory_cap else None)


@pytest.mark.parametrize("guard", ["!" * 5000 + "x",
                                   "(" * 3000 + "x" + ")" * 3000])
def test_validate_deeply_nested_guard_exits_2(tmp_path, guard):
    doc = ab_doc()
    doc["components"][0]["spec"]["edges"][0]["guard"] = guard
    proc = run_cli_process("validate", write_doc(tmp_path, doc))
    assert proc.returncode == 2
    assert "nested deeper" in proc.stderr
    assert f"column {MAX_GUARD_DEPTH + 1}" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("content, message", [
    (b"[" * 100000, "nested too deeply"),
    (b"\xff\xfe{}", "not UTF-8"),
    (b"1" * 5000, "digits"),
], ids=["deep-json", "not-utf8", "long-number"])
@pytest.mark.parametrize("command", ["validate", "analyze"])
def test_hostile_system_file_exits_2(tmp_path, ab_files, command, content,
                                     message):
    system = tmp_path / "hostile.json"
    system.write_bytes(content)
    argv = [command, str(system)]
    if command == "analyze":
        argv.append(ab_files[1])
    proc = run_cli_process(*argv)
    assert proc.returncode == 2
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


def many_variables_doc(n: int) -> dict:
    """One component owning ``n`` variables; every spec accepts all."""
    names = [f"v{i:02d}" for i in range(n)]
    spec = {"states": ["g"], "initial": "g",
            "edges": [{"from": "g", "guard": "true", "to": "g"}]}
    return {"variables": [{"name": v, "owner": "A"} for v in names],
            "components": [{"name": "A", "inputs": [], "outputs": names,
                            "spec": spec}],
            "global_spec": spec}


@pytest.mark.parametrize("n", [MAX_VARIABLES + 1, 41])
@pytest.mark.parametrize("command", ["validate", "analyze", "stats"])
def test_too_many_variables_exits_2(tmp_path, command, n):
    argv = [command, write_doc(tmp_path, many_variables_doc(n))]
    if command != "validate":
        trace = tmp_path / "tr.txt"
        trace.write_text(" ".join(f"v{i:02d}=0" for i in range(n)) + "\n")
        argv.append(str(trace))
    proc = run_cli_process(*argv, memory_cap=1 << 31)
    assert proc.returncode == 2
    assert (f"{n} variables declared, more than the limit of "
            f"{MAX_VARIABLES}") in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_variable_limit_itself_validates(capsys, tmp_path):
    path = write_doc(tmp_path, many_variables_doc(MAX_VARIABLES))
    code, out, err = run_cli(capsys, "validate", path)
    assert code == 0
    assert f"{MAX_VARIABLES} variable(s), refinement holds" in out
    assert err == ""


def one_variable_doc(k: int) -> dict:
    """``k`` components that read the environment variable ``e`` and, like
    the global spec, promise it stays 0: the trace ``e=1`` makes all of
    them faulty, so there are 2^k candidate sets."""
    spec = {"states": ["g"], "initial": "g",
            "edges": [{"from": "g", "guard": "!e", "to": "g"}]}
    return {"variables": [{"name": "e", "owner": "env"}],
            "components": [{"name": f"C{i:02d}", "inputs": ["e"],
                            "outputs": [], "spec": spec} for i in range(k)],
            "global_spec": spec}


@pytest.mark.parametrize("command", ["analyze", "stats"])
def test_too_many_candidate_sets_exits_2(capsys, tmp_path, command):
    k = 13
    system = write_doc(tmp_path, one_variable_doc(k))
    trace = tmp_path / "tr.txt"
    trace.write_text("e=1\n")
    proc = run_cli_process(command, system, str(trace), memory_cap=1 << 31)
    assert proc.returncode == 2
    assert (f"{2 ** k} candidate sets to evaluate, more than the limit of "
            f"{MAX_EVALUATIONS}") in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    # The both-ends search of --minimal-only (the default assignment is
    # monotone here) is not bounded by the exhaustive loop's budget.
    code, _, err = run_cli(capsys, command, system, str(trace),
                           "--minimal-only")
    assert code == 0 and err == ""


def test_validate_bad_json_exits_2(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ nope")
    code, _, err = run_cli(capsys, "validate", str(path))
    assert code == 2
    assert "line 1" in err


# ---------------------------------------------------------------------------
# analyze

def test_analyze_mitigation(capsys, ab_files):
    system, trace = ab_files
    code, out, _ = run_cli(capsys, "analyze", system, trace,
                           "--mode", "mitigation")
    assert code == 0
    assert "faulty components: A (step 0), B (step 0)" in out
    assert "minimal mitigating (necessary-style) sets: {B}" in out


def test_analyze_universal_with_observed_full_model(capsys, ab_files):
    system, trace = ab_files
    code, out, _ = run_cli(capsys, "analyze", system, trace,
                           "--mode", "manifestation",
                           "--quantifier", "universal",
                           "--model", "A=observed")
    assert code == 0
    assert "minimal manifesting (sufficient-style) sets: {B}" in out


def test_analyze_both_modes_json(capsys, ab_files):
    system, trace = ab_files
    code, out, _ = run_cli(capsys, "analyze", system, trace, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 2
    assert doc["violation"]["global_violation_index"] == 0
    assert [f["component"] for f in doc["violation"]["faulty"]] == ["A", "B"]
    assert [a["mode"] for a in doc["analyses"]] == ["mitigation",
                                                    "manifestation"]
    assert doc["analyses"][0]["minimal"] == [["B"]]
    assert doc["analyses"][0]["role"] == "mitigating (necessary-style)"
    witness = doc["analyses"][0]["verdicts"][0]["witness"]
    assert witness == [{"x": 1, "y": 1}]


def test_analyze_conforming_trace_exits_4(capsys, ab_files, tmp_path):
    system, _ = ab_files
    good = tmp_path / "good.txt"
    good.write_text("x=0 y=0\n")
    code, _, err = run_cli(capsys, "analyze", system, str(good))
    assert code == 4
    assert "not an error trace" in err


def test_analyze_no_causal_set_exits_3(capsys, ab_files):
    system, trace = ab_files
    code, out, _ = run_cli(capsys, "analyze", system, trace,
                           "--mode", "mitigation",
                           "--cf", "A=arbitrary", "--cf", "B=arbitrary")
    assert code == 3
    assert "sets: none" in out


def test_analyze_unknown_component_exits_2(capsys, ab_files):
    system, trace = ab_files
    code, _, err = run_cli(capsys, "analyze", system, trace,
                           "--model", "Z=spec")
    assert code == 2
    assert "unknown component" in err


def test_analyze_unknown_kind_exits_2(capsys, ab_files):
    system, trace = ab_files
    code, _, err = run_cli(capsys, "analyze", system, trace,
                           "--model", "A=bogus")
    assert code == 2
    assert "unknown fault-model kind" in err


def test_analyze_horizon_truncates(capsys, ab_files, tmp_path):
    system, _ = ab_files
    trace = tmp_path / "two.txt"
    trace.write_text("x=1 y=1\nx=0 y=0\n")
    code, out, _ = run_cli(capsys, "analyze", system, str(trace),
                           "--mode", "mitigation", "--horizon", "1")
    assert code == 0
    assert "trace: 1 step(s)" in out
    code, _, err = run_cli(capsys, "analyze", system, str(trace),
                           "--horizon", "5")
    assert code == 2
    assert "horizon" in err.lower()
    # truncating to the empty trace leaves nothing to explain
    code, _, err = run_cli(capsys, "analyze", system, str(trace),
                           "--horizon", "0")
    assert code == 4


def test_analyze_minimal_only(capsys, ab_files):
    system, trace = ab_files
    code, out, _ = run_cli(capsys, "analyze", system, trace,
                           "--mode", "mitigation", "--minimal-only")
    assert code == 0
    assert "{A,B}" not in out
    assert "minimal mitigating (necessary-style) sets: {B}" in out


def test_analyze_invalid_system_exits_1(capsys, ab_files, tmp_path):
    doc = ab_doc()
    doc["components"][1]["spec"]["edges"] = [
        {"from": "g", "guard": "true", "to": "g"}]
    doc["global_spec"]["edges"] = [
        {"from": "g", "guard": "!x & !y", "to": "g"}]
    system = write_doc(tmp_path, doc)
    _, trace = ab_files
    code, _, err = run_cli(capsys, "analyze", system, trace)
    assert code == 1
    assert "refinement-violation" in err


def test_analyze_missing_file_exits_2(capsys, ab_files):
    system, _ = ab_files
    code, _, err = run_cli(capsys, "analyze", system, "/nonexistent/tr.txt")
    assert code == 2


def test_analyze_byte_identical_runs(capsys, ab_files):
    system, trace = ab_files
    outputs = []
    for _ in range(2):
        _, out, _ = run_cli(capsys, "analyze", system, trace, "--json")
        outputs.append(out)
    assert outputs[0] == outputs[1]
    for _ in range(2):
        _, out, _ = run_cli(capsys, "analyze", system, trace)
        outputs.append(out)
    assert outputs[2] == outputs[3]


# ---------------------------------------------------------------------------
# stats

def test_stats_text(capsys, ab_files):
    system, trace = ab_files
    code, out, _ = run_cli(capsys, "stats", system, trace,
                           "--mode", "mitigation")
    assert code == 0
    assert "worst-case evaluations 4" in out
    assert "subsets: evaluated=4 pruned=0" in out


def test_only_stats_and_the_search_check_monotonicity(capsys, monkeypatch,
                                                     ab_files):
    """The monotonicity check, one `contains` per component with a fault
    model on the right, runs where ``monotone_pruning`` is read: for
    `stats` and for the both-ends search of ``--minimal-only``.  Any
    other `contains` of an analysis has the global spec on the right;
    validation's walk is one of them, reused as the answer of the
    operand of the components' specs."""
    specs, rights = [], []

    def validating(m):
        specs.append(m.global_spec)
        return validate_system(m)

    def counting(a, b):
        rights.append(b)
        return contains(a, b)

    monkeypatch.setattr(cli, "validate_system", validating)
    monkeypatch.setattr(tracecause.engine, "contains", counting)
    monkeypatch.setattr(tracecause.model, "contains", counting)
    monotone = ["--model", "A=arbitrary", "--model", "B=arbitrary"]

    def calls(command, *flags):
        """(operand containments, monotonicity checks) of one call."""
        rights.clear()
        assert run_cli(capsys, command, *ab_files, *monotone, *flags)[0] == 0
        operands = sum(b is specs[-1] for b in rights)
        return operands, len(rights) - operands

    operands, checks = calls("analyze")
    assert operands > 1 and checks == 0
    assert calls("stats") == (operands, 2)
    assert calls("analyze", "--minimal-only")[1] == 2
    # Validation's walk is the only containment of a universal analysis.
    assert calls("stats", "--mode", "manifestation",
                 "--quantifier", "universal") == (1, 0)


@pytest.mark.parametrize("flags", [[], ["--minimal-only"],
                                   ["--model", "A=arbitrary"]])
def test_spec_operand_reuses_the_refinement_walk(capsys, monkeypatch,
                                                 ab_files, flags):
    """With every counterfactual kind ``spec``, the operand of the
    components' specs asks what validation asked: the analysis reads
    validation's answer, so it walks one `contains` fewer than when it
    walks that question again, and reports the same bytes."""
    walks = []

    def counting(a, b):
        walks.append(b)
        return contains(a, b)

    monkeypatch.setattr(tracecause.engine, "contains", counting)
    monkeypatch.setattr(tracecause.model, "contains", counting)

    def run(command):
        """(walks, stdout) of one call."""
        walks.clear()
        code, out, _ = run_cli(capsys, command, *ab_files, *flags, "--json")
        assert code == 0
        return len(walks), out

    reused = {command: run(command) for command in ("analyze", "stats")}
    monkeypatch.setattr(tracecause.engine, "refinement", lambda m: counting(
        [c.spec for c in m.components], m.global_spec))
    for command, (n, out) in reused.items():
        assert run(command) == (n + 1, out)


def test_stats_json_bounds(capsys, ab_files):
    system, trace = ab_files
    code, out, _ = run_cli(capsys, "stats", system, trace, "--json")
    assert code == 0
    doc = json.loads(out)
    for analysis in doc["analyses"]:
        assert analysis["subsets"]["evaluated"] <= \
            analysis["complexity"]["worst_case_evaluations"]
        for row in analysis["per_set"]:
            assert row["operand_states"] <= row["factor_bound"]


def test_stats_single_universal_component(capsys, tmp_path):
    doc = {
        "variables": [{"name": "o", "owner": "C"}],
        "components": [{
            "name": "C", "inputs": [], "outputs": ["o"],
            "spec": {"states": ["g"], "initial": "g", "bad": [],
                     "edges": [{"from": "g", "guard": "!o", "to": "g"}]}}],
        "global_spec": {"states": ["g"], "initial": "g", "bad": [],
                        "edges": [{"from": "g", "guard": "!o", "to": "g"}]},
    }
    system = write_doc(tmp_path, doc)
    trace = tmp_path / "tr.txt"
    trace.write_text("o=1\n")
    code, out, _ = run_cli(capsys, "stats", system, str(trace),
                           "--mode", "mitigation", "--cf", "C=arbitrary",
                           "--json")
    assert code == 0
    doc = json.loads(out)
    rows = doc["analyses"][0]["per_set"]
    # a single universal factor gives a one-state operand product
    full = next(r for r in rows if r["set"] == ["C"])
    assert full["operand_states"] == 1


# ---------------------------------------------------------------------------
# error paths: the exact exit code, stdout and stderr of each refusal

def _edited(*edits) -> str:
    doc = ab_doc()
    for edit in edits:
        edit(doc)
    return json.dumps(doc)


def _spec_edges(doc, name="A"):
    return next(c for c in doc["components"]
                if c["name"] == name)["spec"]["edges"]


# System file text by case; None leaves the file missing.
ERROR_SYSTEMS = {
    "ok": json.dumps(ab_doc()),
    "bad-json": "{ nope",
    "schema": _edited(lambda d: d.update(global_spec=[])),
    "invalid-spec": _edited(lambda d: _spec_edges(d).append(
        {"from": "g", "guard": "true", "to": "g"})),
    "undeclared-variable": _edited(
        lambda d: _spec_edges(d)[0].update(guard="!z")),
    "refinement-violation": _edited(
        lambda d: _spec_edges(d, "B")[0].update(guard="true"),
        lambda d: d["global_spec"]["edges"][0].update(guard="!x & !y")),
    "missing-file": None,
}

_NONDETERMINISTIC = ("components[0].spec: nondeterministic-state: state "
                     "'g': several edges enabled on x=0")
_UNDECLARED = ("components[0].spec.edges[0]: guard mentions undeclared "
               "variable 'z'")

# (case, system, trace text or None for a missing file, extra flags,
#  exit code, stderr) for analyze and stats; <tmp> stands for the
# directory of the files.
ERROR_PATHS = [
    ("bad-json", "bad-json", "x=1 y=1", [], 2,
     "error: Expecting property name enclosed in double quotes (system "
     "document, line 1, column 3)\n"),
    ("schema", "schema", "x=1 y=1", [], 2,
     "error: global_spec: automaton must be an object\n"),
    ("invalid-spec", "invalid-spec", "x=1 y=1", [], 1,
     f"invalid: {_NONDETERMINISTIC}\n"),
    ("undeclared-variable", "undeclared-variable", "x=1 y=1", [], 1,
     f"invalid: {_UNDECLARED}\n"),
    ("refinement-violation", "refinement-violation", "x=1 y=1", [], 1,
     "refinement-violation: the composed component specs admit a "
     "behavior the global spec rejects\n"),
    ("missing-system", "missing-file", "x=1 y=1", [], 2,
     "error: [Errno 2] No such file or directory: '<tmp>/sys.json'\n"),
    ("missing-trace", "ok", None, [], 2,
     "error: [Errno 2] No such file or directory: '<tmp>/tr.txt'\n"),
    ("bad-trace-token", "ok", "x=2 y=1", [], 2,
     "error: expected 'var=0' or 'var=1', found 'x=2' (line 1)\n"),
    ("unknown-component", "ok", "x=1 y=1", ["--model", "Z=spec"], 2,
     "error: unknown component Z\n"),
    ("bad-kind", "ok", "x=1 y=1", ["--model", "A=bogus"], 2,
     "error: unknown fault-model kind 'bogus' (expected one of: spec, "
     "arbitrary, observed, observed-out, prefix-correct)\n"),
    ("cf-without-kind", "ok", "x=1 y=1", ["--cf", "A"], 2,
     "error: --cf expects NAME=KIND, got 'A'\n"),
    ("horizon-past-end", "ok", "x=1 y=1", ["--horizon", "5"], 2,
     "error: --horizon 5 is outside the trace length 1\n"),
    ("horizon-negative", "ok", "x=1 y=1", ["--horizon", "-1"], 2,
     "error: --horizon -1 is outside the trace length 1\n"),
    ("not-an-error-trace", "ok", "x=0 y=0", [], 4,
     "not an error trace: the global spec accepts it\n"),
    ("horizon-zero", "ok", "x=1 y=1", ["--horizon", "0"], 4,
     "not an error trace: the global spec accepts it\n"),
]

_DIAGNOSTICS_JSON = """\
{{
  "schema_version": 2,
  "command": "validate",
  "status": "invalid",
  "diagnostics": [
    {{
      "kind": "{kind}",
      "subject": "{subject}",
      "message": "{message}",
      "witness": null
    }}
  ]
}}
"""

_STDERR = {p[0]: p[5] for p in ERROR_PATHS}

# validate: (exit code, stdout with --json, stderr) by system case.
VALIDATE_ERRORS = {
    "bad-json": (2, "", _STDERR["bad-json"]),
    "schema": (2, "", _STDERR["schema"]),
    "invalid-spec": (1, _DIAGNOSTICS_JSON.format(
        kind="nondeterministic-state", subject="g",
        message="state 'g': several edges enabled on x=0"),
        f"invalid: {_NONDETERMINISTIC}\n"),
    "undeclared-variable": (1, _DIAGNOSTICS_JSON.format(
        kind="validation-error", subject="system", message=_UNDECLARED),
        f"invalid: {_UNDECLARED}\n"),
    "missing-file": (2, "", _STDERR["missing-system"]),
}


def _error_files(tmp_path, system, trace):
    paths = []
    for name, text in (("sys.json", ERROR_SYSTEMS[system]), ("tr.txt", trace)):
        if text is not None:
            (tmp_path / name).write_text(text + "\n")
        paths.append(str(tmp_path / name))
    return paths


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("command", ["analyze", "stats"])
@pytest.mark.parametrize("case, system, trace, extra, code, err",
                         ERROR_PATHS, ids=[p[0] for p in ERROR_PATHS])
def test_analysis_error_paths(capsys, tmp_path, command, json_flag, case,
                              system, trace, extra, code, err):
    argv = [command, *_error_files(tmp_path, system, trace), *extra,
            *json_flag]
    got = run_cli(capsys, *argv)
    assert got == (code, "", err.replace("<tmp>", str(tmp_path)))


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("system", sorted(VALIDATE_ERRORS))
def test_validate_error_paths(capsys, tmp_path, system, json_flag):
    code, json_out, err = VALIDATE_ERRORS[system]
    path, _ = _error_files(tmp_path, system, None)
    got = run_cli(capsys, "validate", path, *json_flag)
    assert got == (code, json_out if json_flag else "",
                   err.replace("<tmp>", str(tmp_path)))


# ---------------------------------------------------------------------------
# one parser per process

def test_parser_is_built_once_and_keeps_no_state(capsys, monkeypatch,
                                                  ab_files, tmp_path):
    system, trace = ab_files
    two = tmp_path / "two.txt"
    two.write_text("x=1 y=1\nx=0 y=0\n")
    argvs = [
        ["analyze", system, trace, "--model", "A=observed",
         "--cf", "B=arbitrary"],
        ["analyze", system, trace, "--mode", "mitigation"],
        ["stats", system, str(two), "--horizon", "1", "--minimal-only"],
        ["analyze", system, trace, "--mode", "sideways"],
        ["analyze", system, str(two), "--json"],
        ["analyze", system, trace, "--mode", "mitigation",
         "--cf", "A=arbitrary", "--cf", "B=arbitrary"],
        ["analyze", "--help"],
        ["validate", system],
        ["analyze", system, trace, "--model", "B=spec", "--json"],
    ]
    builds = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda: builds.append(1) or real())
    cli._parser.cache_clear()
    reused = [run_cli(capsys, *argv) for argv in argvs]
    assert len(builds) == 1
    # Fresh parsers, in the reverse order: what one call leaves behind
    # would reach other calls than before.
    fresh = []
    for argv in reversed(argvs):
        cli._parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    cli._parser.cache_clear()
    assert len(builds) == 1 + len(argvs)
    assert reused == fresh[::-1]
    assert [code for code, _, _ in reused] == [0, 0, 0, 2, 0, 3, 0, 0, 0]


# ---------------------------------------------------------------------------
# start-up

# Modules that only `dataclasses` pulled in, `typing`, which only
# annotations named, and `struct`, which no part of the package reads;
# start-up needs none of them.
UNNEEDED_AT_STARTUP = {"dataclasses", "inspect", "dis", "ast", "tokenize",
                       "copy", "typing", "struct"}

STARTUP_PROBE = """\
import sys
sys.path.insert(0, {src!r})
before = set(sys.modules)
import tracecause.cli
tracecause.cli.build_parser()
setup = set(sys.modules)
codes = [tracecause.cli.main(argv) for argv in {argvs!r}]
jobs = set(sys.modules)
import json
print(json.dumps([sorted(setup - before), sorted(jobs - setup), codes]))
"""


def test_startup_loads_only_what_a_job_needs():
    # A fresh isolated interpreter without the `site` module: pytest
    # itself imports `dataclasses`, and a site `.pth` file may import
    # `typing`.  Importing the CLI and building its parser loads no module
    # a job does not need, and the jobs then load no module at all, so no
    # import waits in the job path either.
    data = ROOT / "demos" / "data"
    system, trace = str(data / "system.json"), str(data / "trace.txt")
    argvs = [["validate", system],
             ["analyze", system, trace, "--json"],
             ["stats", system, trace],
             ["analyze", system, trace, "--quantifier", "universal",
              "--minimal-only"]]
    src = os.path.dirname(os.path.dirname(tracecause.__file__))
    probe = STARTUP_PROBE.format(src=src, argvs=argvs)
    done = subprocess.run([sys.executable, "-I", "-S", "-c", probe],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    setup, jobs, codes = json.loads(done.stdout.splitlines()[-1])
    assert codes == [0, 0, 0, 0]
    assert UNNEEDED_AT_STARTUP.isdisjoint(setup), setup
    assert jobs == []


# ---------------------------------------------------------------------------
# README examples


def readme_examples() -> list[tuple[str, str]]:
    """(command, output) of each ``$ tracecause ...`` line in the README's
    console blocks; the output runs to the next command or the block's
    end, trailing blank lines dropped."""
    examples = []
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    for block in re.findall(r"```console\n(.*?)```", text, re.S):
        for chunk in re.split(r"^(?=\$ )", block, flags=re.M):
            command, _, output = chunk.partition("\n")
            if command.startswith("$ tracecause "):
                examples.append((command[2:], output.rstrip("\n")))
    return examples


def test_readme_console_examples(capsys, monkeypatch):
    examples = readme_examples()
    assert [shlex.split(c)[1] for c, _ in examples] == ["validate", "analyze"]
    monkeypatch.chdir(ROOT)
    for command, expected in examples:
        code, out, err = run_cli(capsys, *shlex.split(command)[1:])
        assert (code, err) == (0, ""), command
        assert out.rstrip("\n") == expected, command
