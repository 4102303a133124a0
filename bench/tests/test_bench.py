"""Smoke tests of the benchmark itself, at the tiny size.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import copy
import json
import os
import random
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import gate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("deep", "wide", "corpus")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def bench_for(name, tmp_path, seed=3, size="tiny"):
    return run.Bench(name, seed, size, str(tmp_path / name))


@pytest.mark.parametrize("name", WORKLOADS)
def test_smoke_run_passes_the_gate(name, tmp_path):
    bench = bench_for(name, tmp_path)
    for p in (0, 1):
        for i, argv in enumerate(bench.part(p)[0]):
            code, stdout, _ = run.run_job(bench.main, argv)
            bench.check(p, i, code, stdout)
    assert bench.failed == 0, bench.problems
    assert bench.attempted == len(bench.part(0)[0]) + len(bench.part(1)[0])


def test_timed_loop_moves_on_to_fresh_inputs(tmp_path):
    bench = bench_for("wide", tmp_path)
    scaled, walls, outputs = bench.timed_loop(0.0)
    assert len(scaled) == len(walls) == len(list(run.read_outputs(outputs))) == 1
    scaled, walls, outputs = bench.timed_loop(1.0)
    outputs = list(run.read_outputs(outputs))
    assert len(outputs) == len(scaled) and {p for p, *_ in outputs} >= {0, 1}
    assert all(t > 0 for t in scaled + walls)
    for p, i, code, stdout in outputs:
        bench.check(p, i, code, stdout)
    assert bench.failed == 0, bench.problems

    def inputs(p):
        return {open(f).read() for argv in bench.part(p)[0]
                for f in argv[1:3]}
    assert not inputs(0) & inputs(1)


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_pass_reports_every_layer_metric(name, tmp_path):
    bench = bench_for(name, tmp_path)
    trace = tmp_path / "trace.json"
    metrics = run.per_layer(bench, 0.0, str(trace))
    assert set(metrics) == {m["name"] for m in spec()["per_layer"]}
    assert metrics["engine.subsets_evaluated"] > 0
    assert bench.failed == 0, bench.problems
    events = json.loads(trace.read_text())["traceEvents"]
    layers = {e["cat"] for e in events if e["ph"] == "X"}
    assert {"cli", "engine", "model", "automata"} <= layers


def test_corrected_ratio_check():
    assert run.corrected_ratio_ok(1.2, 5.0)
    assert not run.corrected_ratio_ok(1.6, 5.0)
    assert not run.corrected_ratio_ok(0.6, 5.0)
    assert run.corrected_ratio_ok(1.6, 0.5)


def test_tracing_leaves_the_package_as_it_found_it(tmp_path):
    import tracecause.automata
    import tracecause.engine
    from tracing import Tracer

    before = (tracecause.engine.product, tracecause.automata.guard_eval,
              tracecause.automata.SafetyAutomaton.transition_table)
    tracer = Tracer()
    with tracer.instrument():
        assert tracecause.engine.product is not before[0]
    after = (tracecause.engine.product, tracecause.automata.guard_eval,
             tracecause.automata.SafetyAutomaton.transition_table)
    assert after == before


@pytest.mark.parametrize("name", ("deep", "wide"))
@pytest.mark.parametrize("seed", range(4))
def test_closed_form_matches_the_oracle(name, seed):
    w = workloads.make(name, seed, "tiny", part=seed % 2)
    g = gate.Gate(w)
    for job in w.jobs:
        assert job.expected == g._oracle_expected(job), job.flags


def test_closed_form_matches_the_oracle_on_a_longer_chain():
    w = workloads.make_deep(random.Random(7), components=4, steps=4,
                            faults=2, jobs=4)
    g = gate.Gate(w)
    for job in w.jobs:
        assert job.expected == g._oracle_expected(job), job.flags


def _report(tmp_path, name="deep"):
    """A job whose report has a witness, with its exit code and text."""
    bench = bench_for(name, tmp_path)
    argv_list, g = bench.part(0)
    for i, argv in enumerate(argv_list):
        code, stdout, _ = run.run_job(bench.main, argv)
        doc = json.loads(stdout)
        if any(v["witness"] for a in doc["analyses"] for v in a["verdicts"]):
            assert g.check(i, code, stdout) == []
            return g, i, code, doc
    raise AssertionError("no report with a witness")


def _doctored(doc, edit):
    doc = copy.deepcopy(doc)
    edit(doc)
    return json.dumps(doc)


def test_gate_rejects_a_flipped_holds(tmp_path):
    g, i, code, doc = _report(tmp_path)

    def flip(d):
        v = d["analyses"][0]["verdicts"][0]
        v["holds"] = not v["holds"]
    assert g.check(i, code, _doctored(doc, flip))


def test_gate_rejects_a_wrong_minimal_set(tmp_path):
    g, i, code, doc = _report(tmp_path, "wide")

    def wrong(d):
        d["analyses"][1]["minimal"] = [d["analyses"][0]["minimal"][0]]
    assert g.check(i, code, _doctored(doc, wrong))


def test_gate_rejects_a_witness_the_global_spec_accepts(tmp_path):
    g, i, code, doc = _report(tmp_path)
    # Every variable at 0 for one step is accepted by the deep global spec.
    names = g._model(g.workload.jobs[i])[0].variables

    def harmless(d):
        for a in d["analyses"]:
            for v in a["verdicts"]:
                if v["witness"]:
                    v["witness"] = [{n: 0 for n in names}]
    problems = g.check(i, code, _doctored(doc, harmless))
    assert any("accepted by the global spec" in p for p in problems)


def test_gate_rejects_a_missing_or_unexpected_witness(tmp_path):
    g, i, code, doc = _report(tmp_path)

    def drop(d):
        for a in d["analyses"]:
            for v in a["verdicts"]:
                v["witness"] = None
    assert any("witness missing" in p
               for p in g.check(i, code, _doctored(doc, drop)))

    def add(d):
        some = next(v["witness"] for a in d["analyses"]
                    for v in a["verdicts"] if v["witness"])
        for a in d["analyses"]:
            for v in a["verdicts"]:
                v["witness"] = v["witness"] or some
    assert any("witness unexpected" in p
               for p in g.check(i, code, _doctored(doc, add)))


def test_gate_rejects_an_unexpected_exit_code(tmp_path):
    g, i, code, doc = _report(tmp_path)
    assert g.check(i, 3 - code, json.dumps(doc))
    assert g.check(i, None, "")


def _run(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("name", WORKLOADS)
def test_counts_repeat_exactly_across_runs(name):
    args = ("--workload", name, "--seed", "5", "--seconds", "0",
            "--trace", "1", "--size", "tiny")
    counts = []
    for _ in range(2):
        done = _run(ROOT, *args)
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        counts.append({k: m["value"] for k, m in result["metrics"].items()
                       if m["unit"] in ("count", "bytes")})
    assert counts[0] == counts[1]


def test_end_to_end_result_line(tmp_path):
    done = _run(ROOT, "--workload", "wide", "--seed", "1", "--seconds", "0.2",
                "--trace", "0", "--size", "tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 2
    expected = {m["name"]: m["unit"] for m in spec()["end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = _run(tmp_path, "--workload", "deep", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
