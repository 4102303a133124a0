"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every expected value is either computed here by an independent oracle
(tests/oracle.py: own evaluator, own simulator, set-theoretic membership)
or is a structural bound checked exactly.  Run with ``pytest -s`` to see
the per-criterion lines.
"""

from __future__ import annotations

import json
import random
import time

from tracecause.automata import Trace, Valuation, contains, run
from tracecause.cli import main as cli_main
from tracecause.counterfactual import FaultModelKind, ModelAssignment
from tracecause.engine import (enumerate_causal_sets, enumerate_with_stats,
                               manifests, mitigates)
from tracecause.model import (faulty_components, parse_system,
                              serialize_system, system_from_dict,
                              validate_system, violates_global)

from conftest import ab_doc, cut_to_minimal
from oracle import (all_valuations, literal_manifests, literal_mitigates,
                    literal_operand_member, oracle_accepts, oracle_manifests,
                    oracle_mitigates, oracle_step, oracle_vacuous,
                    trace_to_letters)
from randsys import (random_assignment, random_automaton, random_error_trace,
                     random_system, random_trace)

K = FaultModelKind


def _finish(name: str, started: float, failures: list, budget: float | None = None):
    elapsed = time.perf_counter() - started
    status = "PASS" if not failures else "FAIL"
    print(f"\n[acceptance {name}] {status} ({elapsed:.2f}s)")
    assert not failures, failures[:5]
    if budget is not None:
        assert elapsed < budget, f"{name} took {elapsed:.2f}s (budget {budget}s)"


def T(*steps) -> Trace:
    return Trace(Valuation(s) for s in steps)


# ---------------------------------------------------------------------------

def test_acceptance_1_fixture_ab_regression():
    started = time.perf_counter()
    failures = []
    m = system_from_dict(ab_doc())
    tr = T({"x": 1, "y": 1})
    asg = ModelAssignment.defaults(m)

    rep = faulty_components(m, tr)
    if set(rep.faulty_names) != {"A", "B"}:
        failures.append(f"faulty = {rep.faulty_names}")

    subsets = [(), ("A",), ("B",), ("A", "B")]
    expected_mit = {(): False, ("A",): False, ("B",): True, ("A", "B"): True}
    for d in subsets:
        got = mitigates(m, tr, d).holds
        want = expected_mit[d]
        oracle = literal_mitigates(m, tr, frozenset(d), asg, bound=3)
        if got is not want or oracle is not want:
            failures.append(f"mitigates{d}: engine={got} oracle={oracle} "
                            f"expected={want}")
    expected_man = {(): False, ("A",): False, ("B",): True, ("A", "B"): True}
    for quantifier in ("universal", "existential"):
        for d in subsets:
            got = manifests(m, tr, d, quantifier=quantifier).holds
            want = expected_man[d]
            oracle = literal_manifests(m, tr, frozenset(d), asg, quantifier,
                                       bound=3)
            if got is not want or oracle is not want:
                failures.append(f"manifests[{quantifier}]{d}: engine={got} "
                                f"oracle={oracle} expected={want}")

    mit = enumerate_causal_sets(m, tr, "mitigation")
    if [s.sorted_members for s in mit.minimal] != [("B",)]:
        failures.append(f"minimal mitigating = {mit.minimal}")
    for quantifier in ("universal", "existential"):
        man = enumerate_causal_sets(m, tr, "manifestation",
                                    quantifier=quantifier)
        if [s.sorted_members for s in man.minimal] != [("B",)]:
            failures.append(f"minimal manifesting[{quantifier}] = {man.minimal}")

    _finish("1 fixture-AB regression", started, failures, budget=1.0)


def test_acceptance_2_oracle_equivalence():
    started = time.perf_counter()
    failures = []
    rng = random.Random(20240)
    kinds_seen = set()
    instances = 0
    attempts = 0
    while instances < 1000 and attempts < 5000:
        attempts += 1
        m = random_system(rng, max_components=3, max_good=3,
                          refinement_holds=rng.random() < 0.3)
        tr = random_error_trace(rng, m, max_len=3)
        if tr is None:
            continue
        asg = random_assignment(rng, m)
        for ck in asg.entries.values():
            kinds_seen.add(ck.cf_kind)
            kinds_seen.add(ck.fault_kind)
        names = [c.name for c in m.components]
        if rng.random() < 0.8:
            universe = list(faulty_components(m, tr).faulty_names)
        else:
            universe = names
        d = frozenset(n for n in universe if rng.random() < 0.5)
        instances += 1

        tr_letters = trace_to_letters(tr)

        def witness_ok(verdict, mode) -> bool:
            # a returned witness must be in the operand language and
            # rejected by the global spec, per the independent oracle
            w = trace_to_letters(verdict.witness)
            return (literal_operand_member(m, w, d, asg, mode, tr_letters)
                    and not oracle_accepts(m.global_spec, w))

        got = mitigates(m, tr, d, asg)
        want = oracle_mitigates(m, tr, d, asg)
        if got.holds is not want:
            failures.append(f"mitigates {d} on seed-instance {instances}")
        if not got.holds and not witness_ok(got, "mitigation"):
            failures.append(f"mitigates witness bogus, instance {instances}")
        if got.vacuous is not oracle_vacuous(m, tr, d, asg, "mitigation"):
            failures.append(f"mitigates-vacuous {d} instance {instances}")
        for quantifier in ("existential", "universal"):
            got = manifests(m, tr, d, asg, quantifier=quantifier)
            want = oracle_manifests(m, tr, d, asg, quantifier)
            if got.holds is not want:
                failures.append(
                    f"manifests[{quantifier}] {d} instance {instances}")
            if got.holds and got.witness is not None and \
                    not witness_ok(got, "manifestation"):
                failures.append(
                    f"manifests[{quantifier}] witness bogus, "
                    f"instance {instances}")
        if failures and len(failures) > 20:
            break
    if instances < 1000:
        failures.append(f"only {instances} instances generated")
    if kinds_seen != set(K):
        failures.append(f"kinds sampled: {sorted(k.value for k in kinds_seen)}")
    _finish(f"2 oracle equivalence ({instances} instances)", started,
            failures, budget=60.0)


def test_acceptance_3_refinement_theorem():
    started = time.perf_counter()
    failures = []
    rng = random.Random(333)
    checked = 0
    attempts = 0
    while checked < 500 and attempts < 4000:
        attempts += 1
        m = random_system(rng, max_components=3, max_good=2,
                          refinement_holds=True)
        if validate_system(m) != []:
            failures.append("constructed system failed validation")
            continue
        tr = random_error_trace(rng, m, max_len=3, tries=25)
        if tr is None:
            continue
        checked += 1
        if manifests(m, tr, (), quantifier="existential").holds:
            failures.append(f"manifests(∅) held at instance {checked}")
        everyone = [c.name for c in m.components]
        if not mitigates(m, tr, everyone).holds:
            failures.append(f"mitigates(all) failed at instance {checked}")
    if checked < 500:
        failures.append(f"only {checked} validated error-trace instances")
    _finish(f"3 refinement theorem ({checked} instances)", started, failures)


def test_acceptance_4_monotonicity_and_pruning():
    started = time.perf_counter()
    failures = []
    rng = random.Random(444)
    checked = 0
    attempts = 0
    while checked < 500 and attempts < 4000:
        attempts += 1
        m = random_system(rng, max_components=3, max_good=2)
        tr = random_error_trace(rng, m, max_len=3, tries=25)
        if tr is None:
            continue
        asg = ModelAssignment.defaults(m, fault_kind=K.ARBITRARY)
        names = [c.name for c in m.components]
        small = frozenset(n for n in names if rng.random() < 0.4)
        big = small | frozenset(n for n in names if rng.random() < 0.5)
        checked += 1
        if mitigates(m, tr, small, asg).holds and \
                not mitigates(m, tr, big, asg).holds:
            failures.append(f"monotonicity broke: {small} vs {big}")
        if checked % 5 == 0:
            for minimal_only in (False, True):
                pruned = enumerate_with_stats(
                    m, tr, "mitigation", asg, minimal_only=minimal_only)[0]
                plain = enumerate_with_stats(m, tr, "mitigation", asg)[0]
                if minimal_only:
                    plain = cut_to_minimal(plain)
                if pruned.to_dict() != plain.to_dict():
                    failures.append(f"pruned report differs (instance {checked})")
    if checked < 500:
        failures.append(f"only {checked} instances")
    _finish(f"4 monotonicity and pruning ({checked} instances)", started,
            failures)


def test_acceptance_5_automata_core_properties():
    started = time.perf_counter()
    failures = []

    # product membership = conjunction of memberships
    rng = random.Random(555)
    from tracecause.automata import product
    for i in range(1000):
        scope = ["u", "v", "w"][:rng.randint(1, 3)]
        auts = [random_automaton(rng,
                                 rng.sample(scope, rng.randint(1, len(scope))),
                                 max_good=3)
                for _ in range(rng.randint(1, 3))]
        p = product(auts)
        t = random_trace(rng, scope, rng.randint(0, 6))
        if run(p, t).accepted != all(run(a, t).accepted for a in auts):
            failures.append(f"product law case {i}")

    # prefix-monotone rejection
    rng = random.Random(556)
    for i in range(1000):
        scope = ["u", "v"][:rng.randint(1, 2)]
        a = random_automaton(rng, scope)
        t = random_trace(rng, scope, rng.randint(0, 5))
        r = run(a, t)
        if not r.accepted:
            ext = Trace(list(t) + list(random_trace(rng, scope,
                                                    rng.randint(1, 3))))
            r2 = run(a, ext)
            if r2.accepted or r2.first_violation_index != r.first_violation_index:
                failures.append(f"prefix monotonicity case {i}")

    # containment agrees with explicit enumeration up to |Qa|*|Qb|
    rng = random.Random(557)
    for i in range(1000):
        if rng.random() < 0.5:
            scope, max_good = ["u"], 2
        else:
            scope, max_good = ["u", "v"], 1
        a = random_automaton(rng, scope, max_good=max_good)
        b = random_automaton(rng, scope, max_good=max_good)
        cutoff = a.state_count * b.state_count
        letters = all_valuations(scope)

        def witness_below(qa, qb, depth) -> bool:
            if depth == 0:
                return False
            for letter in letters:
                na = oracle_step(a, qa, letter)
                if na in a.bad:
                    continue  # absorbing: no extension can witness
                nb = oracle_step(b, qb, letter)
                if nb in b.bad:
                    return True
                if witness_below(na, nb, depth - 1):
                    return True
            return False

        expected = not witness_below(a.initial, b.initial, cutoff)
        if contains(a, b).holds != expected:
            failures.append(f"containment-vs-enumeration case {i}")

    # witness validity
    rng = random.Random(558)
    for i in range(1000):
        scope = ["u", "v"][:rng.randint(1, 2)]
        a = random_automaton(rng, scope)
        b = random_automaton(rng, rng.sample(scope, rng.randint(1, len(scope))))
        res = contains(a, b)
        if not res.holds:
            if not run(a, res.witness).accepted or \
                    run(b, res.witness).accepted:
                failures.append(f"witness validity case {i}")

    _finish("5 automata-core properties (4x1000 cases)", started, failures)


def test_acceptance_6_determinism_and_round_trip(tmp_path, capsys):
    started = time.perf_counter()
    failures = []
    rng = random.Random(666)
    for i in range(100):
        m = random_system(rng, refinement_holds=rng.random() < 0.5)
        text1 = serialize_system(m)
        m1 = parse_system(text1)
        text2 = serialize_system(m1)
        if text1 != text2 or parse_system(text2) != m1:
            failures.append(f"round-trip case {i}")

    system = tmp_path / "sys.json"
    system.write_text(json.dumps(ab_doc(), indent=2))
    trace = tmp_path / "tr.txt"
    trace.write_text("x=1 y=1\n")
    for flags in ([], ["--json"], ["--mode", "mitigation", "--minimal-only"]):
        outs = []
        for _ in range(2):
            code = cli_main(["analyze", str(system), str(trace), *flags])
            captured = capsys.readouterr()
            outs.append((code, captured.out, captured.err))
        if outs[0] != outs[1]:
            failures.append(f"cmd_analyze not byte-identical with {flags}")

    _finish("6 determinism and round-trip", started, failures)


def test_acceptance_7_complexity_sanity(tmp_path, capsys):
    started = time.perf_counter()
    failures = []
    n = 4
    doc = {
        "variables": [{"name": f"v{i}", "owner": f"P{i}"} for i in range(n)],
        "components": [
            {"name": f"P{i}", "inputs": [], "outputs": [f"v{i}"],
             "spec": {"states": ["g"], "initial": "g", "bad": [],
                      "edges": [{"from": "g", "guard": f"!v{i}", "to": "g"}]}}
            for i in range(n)],
        "global_spec": {"states": ["g"], "initial": "g", "bad": [],
                        "edges": [{"from": "g", "guard": "!v3", "to": "g"}]},
    }
    m = system_from_dict(doc)
    if validate_system(m) != []:
        failures.append("benchmark system invalid")
    tr = T({f"v{i}": 1 for i in range(n)})
    if violates_global(m, tr).accepted:
        failures.append("benchmark trace does not violate")
    if len(faulty_components(m, tr).faulty) != n:
        failures.append("benchmark should have k=4 faulty components")

    for mode in ("mitigation", "manifestation"):
        report, stats = enumerate_with_stats(m, tr, mode,
                                             quantifier="universal")
        if stats.evaluated != 2 ** n or stats.pruned != 0:
            failures.append(f"{mode}: evaluated {stats.evaluated} != 2^{n}")
        for row in stats.per_set:
            # A universal question walks the factors and builds no operand.
            if mode == "manifestation":
                if (row.operand_states, row.operand_edges) != (None, None):
                    failures.append(f"{mode} {row.members}: operand built")
            elif row.operand_states > row.factor_bound:
                failures.append(
                    f"{mode} {row.members}: {row.operand_states} states "
                    f"exceed bound {row.factor_bound}")
        report2, stats2 = enumerate_with_stats(m, tr, mode,
                                               quantifier="universal")
        if stats2.evaluated + stats2.pruned != 2 ** n:
            failures.append(f"{mode}: evaluated+pruned != 2^{n}")
        if report2.to_dict() != report.to_dict():
            failures.append(f"{mode}: pruned report differs on benchmark")

    # the CLI stats surface reports the same bounds
    system = tmp_path / "bench.json"
    system.write_text(json.dumps(doc, indent=2))
    trace = tmp_path / "bench_tr.txt"
    trace.write_text(" ".join(f"v{i}=1" for i in range(n)) + "\n")
    code = cli_main(["stats", str(system), str(trace), "--json"])
    captured = capsys.readouterr()
    if code != 0:
        failures.append(f"cmd_stats exit {code}")
    else:
        doc_out = json.loads(captured.out)
        for analysis in doc_out["analyses"]:
            if analysis["complexity"]["worst_case_evaluations"] != 2 ** n:
                failures.append("cmd_stats worst case wrong")
            subsets = analysis["subsets"]
            if subsets["evaluated"] + subsets["pruned"] > 2 ** n:
                failures.append("cmd_stats subset accounting exceeds 2^k")
            for row in analysis["per_set"]:
                if row["operand_states"] > row["factor_bound"]:
                    failures.append("cmd_stats row exceeds state bound")

    _finish("7 complexity sanity (k=4 benchmark)", started, failures)
