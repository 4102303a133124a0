"""Verdict gate: checks each analyze report outside the timed region.

A report passes when its exit code is the expected one, each analysis
names the expected minimal sets and the expected ``holds``/``vacuous``
for every listed candidate set, a witness is given exactly for the sets
whose operand has a violating trace (mitigation fails, or manifestation
holds), and every witness lies in the operand language and is rejected
by the global spec.  Operand sizes and report bytes are not compared, so
a versioned schema change that keeps the verdicts passes.

Membership and the ``corpus`` expectations come from the independent
oracle in ``tests/oracle.py``, never from the package's own engine.
"""

from __future__ import annotations

import json

import oracle
from tracecause.counterfactual import FaultModelKind, ModelAssignment
from tracecause.model import parse_system, parse_trace
from workloads import exit_code, expectation, subsets


def assignment(m, job) -> ModelAssignment:
    """The fault-model assignment the job's ``--model``/``--cf`` flags
    ask for."""
    asg = ModelAssignment.defaults(m)
    for name, kind in job.models.items():
        asg = asg.override(name, fault_kind=FaultModelKind.from_name(kind))
    for name, kind in job.cfs.items():
        asg = asg.override(name, cf_kind=FaultModelKind.from_name(kind))
    return asg


class Gate:
    """Expected answers per job, derived once and reused on every pass."""

    def __init__(self, workload):
        self.workload = workload
        self._models = {}
        self._expected = {}

    def _model(self, job):
        key = job.instance
        if key not in self._models:
            inst = self.workload.instances[key]
            m = parse_system(inst.system)
            self._models[key] = (m, parse_trace(inst.trace, m.variables))
        return self._models[key]

    def expected(self, index: int) -> dict:
        if index not in self._expected:
            job = self.workload.jobs[index]
            per_mode = job.expected or self._oracle_expected(job)
            self._expected[index] = {"exit": exit_code(per_mode),
                                     "modes": per_mode}
        return self._expected[index]

    def _oracle_expected(self, job) -> dict:
        m, tr = self._model(job)
        asg = assignment(m, job)
        quantifier = job.quantifier
        letters = oracle.trace_to_letters(tr)
        universe = [c.name for c in m.components
                    if not oracle.oracle_accepts(
                        c.spec, [oracle.restrict(v, sorted(c.vars))
                                 for v in letters])]
        mit, man = {}, {}
        for d in subsets(universe):
            mit[d] = (oracle.oracle_mitigates(m, tr, d, asg),
                      oracle.oracle_vacuous(m, tr, d, asg, "mitigation"))
            man[d] = (oracle.oracle_manifests(m, tr, d, asg, quantifier),
                      oracle.oracle_vacuous(m, tr, d, asg, "manifestation"))
        return {"mitigation": expectation(mit, job.minimal_only),
                "manifestation": expectation(man, job.minimal_only)}

    def check(self, index: int, code: int, stdout: str) -> list[str]:
        """Every way the report of job ``index`` differs from the
        expectation; empty when it passes."""
        job = self.workload.jobs[index]
        want = self.expected(index)
        if code != want["exit"]:
            return [f"exit code {code}, expected {want['exit']}"]
        try:
            analyses = json.loads(stdout)["analyses"]
        except (ValueError, KeyError, TypeError) as e:
            return [f"unreadable report: {e!r}"]
        if [a.get("mode") for a in analyses] != list(want["modes"]):
            return ["analyses do not match the requested modes"]
        m, tr = self._model(job)
        asg = assignment(m, job)
        letters = oracle.trace_to_letters(tr)
        problems = []
        for a in analyses:
            mode = a["mode"]
            exp = want["modes"][mode]
            minimal = {frozenset(s) for s in a["minimal"]}
            if minimal != exp["minimal"]:
                problems.append(f"{mode}: minimal sets {sorted(map(sorted, minimal))}")
            got = {frozenset(v["set"]): (v["holds"], v["vacuous"])
                   for v in a["verdicts"]}
            if got != exp["verdicts"]:
                problems.append(f"{mode}: per-set holds/vacuous differ")
            for v in a["verdicts"]:
                w = v.get("witness")
                members = frozenset(v["set"])
                # The engine gives a witness exactly when a violating
                # operand trace exists: mitigation fails or manifestation
                # holds.
                if (w is not None) != (v["holds"] == (mode == "manifestation")):
                    problems.append(f"{mode} {sorted(members)}: witness "
                                    f"{'missing' if w is None else 'unexpected'}")
                    continue
                if w is None:
                    continue
                if not oracle.literal_operand_member(m, w, members, asg, mode,
                                                     letters):
                    problems.append(f"{mode} {sorted(members)}: witness "
                                    f"outside the operand language")
                if oracle.oracle_accepts(m.global_spec, w):
                    problems.append(f"{mode} {sorted(members)}: witness "
                                    f"accepted by the global spec")
        return problems
