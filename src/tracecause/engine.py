"""Causality analyses over an observed error trace.

Two counterfactual questions are asked of a candidate component set D:

* mitigation - if the components in D behaved per their counterfactual
  language (spec, by default) while everyone else followed their fault
  model (observed outputs, by default), would the global spec hold
  against *all* such behaviors, at every finite length?  Minimal
  mitigating sets play the necessary-cause role.

* manifestation - the mirror image: components in D keep their fault
  model while everyone else is corrected.  Existentially, does some such
  behavior still violate the global spec?  Universally, does *every*
  such behavior of the observed length violate it?  Minimal manifesting
  sets play the sufficient-cause role.

Mitigation containment is over all finite lengths (corrected components
must keep the system safe forever against the modeled faults), while
manifestation is bounded at the error-trace length, where "observed
behavior" is meaningful.  A universal verdict additionally requires the
combined language to be realizable at that length; an unrealizable
operand yields holds=False with vacuous=True rather than a vacuous truth.
Every question walks the factors' transition tables (`_decide`).  A
containment question still builds its operand, the product of the
factors, but only for its two `stats` sizes; a universal one builds
none.

Everything here is a pure function of immutable inputs; candidate sets
could be evaluated concurrently, but results are reduced in the fixed
size-then-lexicographic order so reports are byte-reproducible.

The modes of one analysis share one `_Context` (see `_analysis`): the
faulty-components report, one fault-model factor per (component, kind)
with the letter classes, edge rows and transition tables it caches, the
monotonicity verdict of the assignment (only where the both-ends search
or the ``stats`` report reads it), and the answer to each distinct
operand question (see `_evaluate`) are each computed at most once,
however many modes run.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import combinations
from math import prod

from .automata import (SafetyAutomaton, Trace, contains,
                       find_trace_of_length, has_trace_of_length, product)
from .automata import has_joint_trace_of_length  # noqa: F401  (rebound by bench/tracing.py)
from .counterfactual import FaultModelKind, ModelAssignment, build_fault_model
from .errors import BudgetExceeded, NotAnErrorTrace, UnknownComponent
from .model import (SystemModel, ViolationReport, faulty_components,
                    project_trace, refinement)
from .model import violates_global  # noqa: F401  (rebound by bench/tracing.py)
from .records import Record, setfield

MODES = ("mitigation", "manifestation")
QUANTIFIERS = ("existential", "universal")

MAX_EVALUATIONS = 4096
"""Most candidate sets the exhaustive subset loop may evaluate.  An
evaluation whose operand question is new builds a product of every
component's fault model (a containment question) or walks one unbuilt
to the error-trace length (a universal one), so a larger universe
(2^k > 4096, that is k > 12 candidates) is refused (`BudgetExceeded`)
before the first one; the both-ends search of ``minimal_only`` under a
monotone assignment is not bounded by it."""


class CandidateSet(Record):
    """A set of component names suspected of being liable."""

    __slots__ = ("members",)

    def __init__(self, members: frozenset[str]):
        setfield(self, "members", members)

    @classmethod
    def of(cls, names: Iterable[str]) -> "CandidateSet":
        return cls(frozenset(names))

    @property
    def sorted_members(self) -> tuple[str, ...]:
        return tuple(sorted(self.members))

    @property
    def sort_key(self) -> tuple:
        return (len(self.members), self.sorted_members)

    def __contains__(self, name: str) -> bool:
        return name in self.members

    def __len__(self) -> int:
        return len(self.members)

    def __str__(self) -> str:
        return "{" + ",".join(self.sorted_members) + "}"


Candidates = CandidateSet | Iterable[str]


class Verdict(Record):
    """Outcome of one mitigation/manifestation query.

    ``witness`` is a trace accepted by the operand and rejected by the
    global spec: present when mitigation fails or existential
    manifestation holds (and, informatively, when a universal verdict
    holds).  ``vacuous`` reports that the operand admits no trace of the
    error-trace length; it flips a universal verdict to False and leaves
    the others untouched (their containment answer is genuine).
    """

    __slots__ = ("holds", "witness", "vacuous")

    def __init__(self, holds: bool, witness: Trace | None, vacuous: bool):
        setfield(self, "holds", holds)
        setfield(self, "witness", witness)
        setfield(self, "vacuous", vacuous)


class SetMetrics(Record):
    """Work done for one candidate set (reported by the stats command).
    ``operand_states`` and ``operand_edges`` are None for a universal
    manifestation question, which builds no operand product."""

    __slots__ = ("members", "operand_states", "operand_edges",
                 "factor_bound", "pairs_explored", "bfs_depth")

    def __init__(self, members: tuple[str, ...], operand_states: int | None,
                 operand_edges: int | None, factor_bound: int,
                 pairs_explored: int, bfs_depth: int):
        setfield(self, "members", members)
        setfield(self, "operand_states", operand_states)
        setfield(self, "operand_edges", operand_edges)
        setfield(self, "factor_bound", factor_bound)
        setfield(self, "pairs_explored", pairs_explored)
        setfield(self, "bfs_depth", bfs_depth)


class ComplexityNote(Record):
    """Worst-case work of the enumeration: 2^k predicate evaluations, each
    over a product of n component automata (built for a containment
    question, walked unbuilt to the horizon for a universal one)."""

    __slots__ = ("candidates", "worst_case_evaluations", "components")

    def __init__(self, candidates: int, worst_case_evaluations: int,
                 components: int):
        setfield(self, "candidates", candidates)
        setfield(self, "worst_case_evaluations", worst_case_evaluations)
        setfield(self, "components", components)

    def to_dict(self) -> dict:
        return {"candidates": self.candidates,
                "worst_case_evaluations": self.worst_case_evaluations,
                "components": self.components}


class CauseReport(Record):
    """Everything a causality query reports; byte-deterministic via
    `to_dict`.  Work counters, operand product sizes among them, live
    outside (in `EnumerationStats`), so that pruned and unpruned runs
    report identically and the report depends only on the languages
    involved, not on how each operand was built."""

    __slots__ = ("mode", "quantifier", "assignment", "candidates",
                 "minimal_only", "all_satisfying", "minimal", "verdicts",
                 "notes", "complexity")

    def __init__(self, mode: str, quantifier: str | None, assignment: dict,
                 candidates: tuple[str, ...], minimal_only: bool,
                 all_satisfying: tuple[CandidateSet, ...] | None,
                 minimal: tuple[CandidateSet, ...],
                 verdicts: tuple[tuple[CandidateSet, Verdict], ...],
                 notes: tuple[str, ...], complexity: ComplexityNote):
        setfield(self, "mode", mode)
        setfield(self, "quantifier", quantifier)
        setfield(self, "assignment", assignment)
        setfield(self, "candidates", candidates)
        setfield(self, "minimal_only", minimal_only)
        setfield(self, "all_satisfying", all_satisfying)
        setfield(self, "minimal", minimal)
        setfield(self, "verdicts", verdicts)
        setfield(self, "notes", notes)
        setfield(self, "complexity", complexity)

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "quantifier": self.quantifier,
            "assignment": self.assignment,
            "candidates": list(self.candidates),
            "minimal_only": self.minimal_only,
            "all_satisfying": (None if self.all_satisfying is None else
                               [list(s.sorted_members) for s in self.all_satisfying]),
            "minimal": [list(s.sorted_members) for s in self.minimal],
            "verdicts": [
                {
                    "set": list(cs.sorted_members),
                    "holds": v.holds,
                    "vacuous": v.vacuous,
                    "witness": _trace_to_jsonable(v.witness),
                }
                for cs, v in self.verdicts
            ],
            "notes": list(self.notes),
            "complexity": self.complexity.to_dict(),
        }


class EnumerationStats(Record):
    """Work counters of one enumeration.  ``monotone_pruning`` tells
    whether the predicate is upward-closed, so that the both-ends search
    may prune: the mode is mitigation or existential manifestation (the
    two that keep the analysis ``_context``) and the assignment is
    monotone.  The latter takes one `contains` per component, so it is
    decided on first read (`_Context.monotone`); an ``analyze`` without
    ``--minimal-only`` never reads it.  The private ``_context`` takes no
    part in equality, hashing or ``repr``."""

    __slots__ = ("evaluated", "pruned", "per_set", "_context")

    def __init__(self, evaluated: int, pruned: int,
                 per_set: tuple[SetMetrics, ...],
                 _context: _Context | None = None):
        setfield(self, "evaluated", evaluated)
        setfield(self, "pruned", pruned)
        setfield(self, "per_set", per_set)
        setfield(self, "_context", _context)

    @property
    def monotone_pruning(self) -> bool:
        return self._context is not None and self._context.monotone


def _trace_to_jsonable(t: Trace | None):
    if t is None:
        return None
    return [dict(step.items()) for step in t]


def _normalize_members(m: SystemModel, d: Candidates) -> frozenset[str]:
    members = frozenset(d.members if isinstance(d, CandidateSet) else d)
    known = {c.name for c in m.components}
    unknown = members - known
    if unknown:
        raise UnknownComponent(sorted(unknown)[0])
    return members


class _Context:
    """What every mode of one analysis of ``tr`` shares, each part
    computed at most once: the assignment (the defaults when none is
    given), the `faulty_components` report ``violation``, one fault-model
    factor per (component, kind), whether the assignment is monotone, and
    ``answers``: the verdict and `SetMetrics` sizes of each operand
    question decided so far, keyed by the tuple of factor kinds and the
    question (see `_evaluate`).  The factors keep the letter classes,
    edge rows and transition tables they cache; no operand product is
    kept.  Analyses build one through `_analysis`, which hands in the
    report; the operand builders need none."""

    def __init__(self, m: SystemModel, tr: Trace,
                 asg: ModelAssignment | None = None,
                 violation: ViolationReport | None = None):
        self.m, self.tr = m, tr
        self.asg = asg or ModelAssignment.defaults(m)
        self.violation = violation
        self._factors: dict = {}
        self.answers: dict = {}
        self._monotone: bool | None = None

    @property
    def monotone(self) -> bool:
        # When each component's counterfactual language is contained in
        # its fault language, growing the candidate set can only shrink
        # (mitigation) or grow (existential manifestation) the operand, so
        # the predicate is upward-closed: a superset of a satisfying set
        # satisfies it and a subset of a failing set fails it.
        if self._monotone is None:
            asg = self.asg
            self._monotone = all(
                contains(self.factor(c, asg.cf_kind(c.name)),
                         self.factor(c, asg.fault_kind(c.name))).holds
                for c in self.m.components)
        return self._monotone

    def factor(self, c, kind: FaultModelKind) -> SafetyAutomaton:
        a = self._factors.get((c.name, kind))
        if a is None:
            a = self._factors[c.name, kind] = build_fault_model(
                kind, c, project_trace(self.tr, c), len(self.tr))
        return a

    def kinds(self, members: frozenset[str],
              corrected_in_set: bool) -> tuple[FaultModelKind, ...]:
        """One factor kind per component: its counterfactual kind where
        its membership in ``members`` equals ``corrected_in_set``, its
        fault kind elsewhere."""
        asg = self.asg
        return tuple(asg.cf_kind(c.name)
                     if (c.name in members) == corrected_in_set
                     else asg.fault_kind(c.name)
                     for c in self.m.components)

    def factors(self, kinds: tuple[FaultModelKind, ...]
                ) -> list[SafetyAutomaton]:
        return [self.factor(c, kind)
                for c, kind in zip(self.m.components, kinds)]


def _analysis(m: SystemModel, tr: Trace,
              asg: ModelAssignment | None = None) -> _Context:
    """The context of an analysis of ``tr``; raises `NotAnErrorTrace`
    unless its `faulty_components` report has ``tr`` violate the global
    spec.  Every analysis decides that here, and only here."""
    violation = faulty_components(m, tr)
    if violation.global_violation_index is None:
        raise NotAnErrorTrace("the global spec accepts it")
    return _Context(m, tr, asg, violation)


def _operand(m: SystemModel, tr: Trace, d: Candidates,
             asg: ModelAssignment | None,
             corrected_in_set: bool) -> SafetyAutomaton:
    members = _normalize_members(m, d)
    ctx = _Context(m, tr, asg)
    return product(ctx.factors(ctx.kinds(members, corrected_in_set)))


def mitigation_operand(m: SystemModel, tr: Trace, d: Candidates,
                       asg: ModelAssignment | None = None) -> SafetyAutomaton:
    """The language of all global behaviors where the components in ``d``
    are counterfactually corrected and everyone else follows their fault
    model.  Guards stay over each component's own variables, so inverse
    projection onto the global alphabet is implicit."""
    return _operand(m, tr, d, asg, True)


def manifestation_operand(m: SystemModel, tr: Trace, d: Candidates,
                          asg: ModelAssignment | None = None) -> SafetyAutomaton:
    """Mirror image of `mitigation_operand`: ``d`` keeps its fault model,
    everyone else is corrected."""
    return _operand(m, tr, d, asg, False)


def _decide(ctx: _Context, kinds: tuple[FaultModelKind, ...],
            contained: bool) -> tuple[Verdict, tuple]:
    """Answer one question of the operand of the factor ``kinds``: with
    ``contained``, whether its language lies inside the global spec's
    (``holds``, as mitigation reads it), else universal manifestation at
    the error-trace length.  Returns the verdict and the sizes of its
    `SetMetrics` row.  Every walk is of the factors, never of a built
    operand.  A containment question asks `contains` and
    `has_trace_of_length` of them, and builds the operand product only
    for the state and edge counts the row reports.  Where every factor
    is its component's spec, the operand is the specs' composition and
    its containment answer is the refinement obligation's
    (`model.refinement`), which validation has walked.  A universal one
    walks the factors' tables to the horizon (`find_trace_of_length` of
    the factors, then `has_trace_of_length` of the factors and the
    global spec) and reports None for both sizes."""
    factors = ctx.factors(kinds)
    bound = prod(a.state_count for a in factors)
    h = len(ctx.tr)
    if contained:
        # A containment witness exists exactly when containment fails.
        operand = product(factors)
        res = (refinement(ctx.m)
               if all(k is FaultModelKind.SPEC for k in kinds)
               else contains(factors, ctx.m.global_spec))
        verdict = Verdict(res.holds, res.witness,
                          not has_trace_of_length(factors, h))
        return verdict, (operand.state_count, operand.edge_count, bound,
                         res.pairs_explored, res.bfs_depth)
    # One walk to the horizon decides realizability and gives the witness
    # a holding verdict reports.
    witness = find_trace_of_length(factors, h)
    if witness is None:
        return Verdict(False, None, True), (None, None, bound, 0, 0)
    holds = not has_trace_of_length([*factors, ctx.m.global_spec], h)
    return (Verdict(holds, witness if holds else None, False),
            (None, None, bound, 0, h))


def _evaluate(ctx: _Context, members: frozenset[str], mode: str,
              quantifier: str | None) -> tuple[Verdict, SetMetrics]:
    # An operand is fixed by its factor kinds.  Mitigation and existential
    # manifestation ask it the same containment question with opposite
    # signs, so manifestation of E shares its answer with mitigation of
    # the components outside E, and so do two sets that differ only in a
    # component whose counterfactual kind equals its fault kind.
    contained = mode == "mitigation" or quantifier == "existential"
    key = (ctx.kinds(members, mode == "mitigation"), contained)
    answer = ctx.answers.get(key)
    if answer is None:
        answer = ctx.answers[key] = _decide(ctx, *key)
    verdict, sizes = answer
    if mode == "manifestation" and contained:
        verdict = Verdict(not verdict.holds, verdict.witness, verdict.vacuous)
    return verdict, SetMetrics(tuple(sorted(members)), *sizes)


def mitigates(m: SystemModel, tr: Trace, d: Candidates,
              asg: ModelAssignment | None = None) -> Verdict:
    """Does correcting ``d`` guarantee the global spec against the modeled
    faults of everyone else, at every finite length?"""
    ctx = _analysis(m, tr, asg)
    members = _normalize_members(m, d)
    verdict, _ = _evaluate(ctx, members, "mitigation", None)
    return verdict


def manifests(m: SystemModel, tr: Trace, d: Candidates,
              asg: ModelAssignment | None = None,
              quantifier: str = "existential") -> Verdict:
    """Does the modeled faulty behavior of ``d`` produce a global violation
    even when everyone else behaves correctly?  ``quantifier`` picks
    between some completion ("existential") and all completions of the
    observed length ("universal")."""
    if quantifier not in QUANTIFIERS:
        raise ValueError(f"quantifier must be one of {QUANTIFIERS}")
    ctx = _analysis(m, tr, asg)
    members = _normalize_members(m, d)
    verdict, _ = _evaluate(ctx, members, "manifestation", quantifier)
    return verdict


def minimal_antichain(sets: Iterable[Candidates]) -> list[CandidateSet]:
    """Drop every set that has a proper subset in the input; the result is
    sorted by size, then lexicographically by members."""
    unique = {frozenset(s.members if isinstance(s, CandidateSet) else s)
              for s in sets}
    keep = [s for s in unique if not any(o < s for o in unique)]
    return sorted((CandidateSet(s) for s in keep), key=lambda c: c.sort_key)


def _level_order(k: int) -> list[int]:
    """The subset sizes 0..k from both ends, two at a time, starting at
    the bottom: 0, 1, k, k-1, 2, 3, k-2, k-3, ...: mitigation's search
    order, whose mirror image (k - j) manifestation's search takes."""
    order: list[int] = []
    lo, hi = 0, k
    while lo <= hi:
        order += range(lo, min(lo + 2, hi + 1))
        lo += 2
        order += range(hi, max(hi - 2, lo - 1), -1)
        hi -= 2
    return order


def enumerate_with_stats(m: SystemModel, tr: Trace, mode: str,
                         asg: ModelAssignment | None = None,
                         quantifier: str = "existential",
                         minimal_only: bool = False,
                         allow_nonfaulty: bool = False, *,
                         _context: _Context | None = None
                         ) -> tuple[CauseReport, EnumerationStats]:
    """`enumerate_causal_sets` plus the work counters the report must not
    contain (so that pruned and unpruned runs report identically): sets
    evaluated, sets decided without evaluation (``pruned``; the two add
    up to 2^k) and one `SetMetrics` row per evaluated set, in
    size-then-lexicographic order.  The both-ends search visits sizes in
    `_level_order`, mirrored (k - j) for manifestation; the exhaustive
    loop raises `BudgetExceeded` before it starts when 2^k passes
    `MAX_EVALUATIONS`.  Several modes of one analysis pass the same
    ``_context``, built by `_analysis` on the same ``m``, ``tr`` and
    ``asg``; without one, a call makes its own."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if quantifier not in QUANTIFIERS:
        raise ValueError(f"quantifier must be one of {QUANTIFIERS}")
    ctx = _context or _analysis(m, tr, asg)
    for c in m.components:
        ctx.asg.cf_kind(c.name)  # fail early on incomplete assignments

    if allow_nonfaulty:
        universe = sorted(c.name for c in m.components)
    else:
        universe = sorted(ctx.violation.faulty_names)
    k = len(universe)

    # Mitigation and existential manifestation are upward-closed under a
    # monotone assignment.
    upward = mode == "mitigation" or quantifier == "existential"

    effective_quantifier = quantifier if mode == "manifestation" else None
    # Only minimal sets of an upward-closed predicate are wanted: skip
    # every set an earlier verdict decides (see `enumerate_causal_sets`).
    search = minimal_only and upward and ctx.monotone
    if not search and 2 ** k > MAX_EVALUATIONS:
        raise BudgetExceeded("candidate sets to evaluate", 2 ** k,
                             MAX_EVALUATIONS)
    pruned = 0
    satisfying: list[frozenset[str]] = []
    failing: list[frozenset[str]] = []
    evaluated: list[tuple[CandidateSet, Verdict, SetMetrics]] = []
    order = _level_order(k) if mode == "mitigation" else [
        k - j for j in _level_order(k)]
    for size in (order if search else range(k + 1)):
        for combo in combinations(universe, size):
            members = frozenset(combo)
            if search and (any(s < members for s in satisfying)
                           or any(members < f for f in failing)):
                pruned += 1
                continue
            verdict, metrics = _evaluate(ctx, members, mode,
                                         effective_quantifier)
            evaluated.append((CandidateSet(members), verdict, metrics))
            (satisfying if verdict.holds else failing).append(members)
    if search:
        evaluated.sort(key=lambda e: e[0].sort_key)

    minimal = tuple(minimal_antichain(CandidateSet(s) for s in satisfying))
    wanted = {cs.members for cs in minimal}
    entries = tuple((cs, v) for cs, v, _ in evaluated
                    if not minimal_only or cs.members in wanted)
    all_satisfying = (None if minimal_only else
                      tuple(CandidateSet(s) for s in satisfying))

    notes: tuple[str, ...] = ()
    if k == 0:
        notes = ("environment-only: no locally faulty component; the "
                 "violation is attributable to the environment",)
    report = CauseReport(
        mode=mode,
        quantifier=effective_quantifier,
        assignment=ctx.asg.to_dict(),
        candidates=tuple(universe),
        minimal_only=minimal_only,
        all_satisfying=all_satisfying,
        minimal=minimal,
        verdicts=entries,
        notes=notes,
        complexity=ComplexityNote(k, 2 ** k, len(m.components)),
    )
    stats = EnumerationStats(len(evaluated), pruned,
                             tuple(row for _, _, row in evaluated),
                             ctx if upward else None)
    return report, stats


def enumerate_causal_sets(m: SystemModel, tr: Trace, mode: str,
                          asg: ModelAssignment | None = None,
                          quantifier: str = "existential",
                          minimal_only: bool = False,
                          allow_nonfaulty: bool = False) -> CauseReport:
    """Decide the mode predicate on every subset of the candidate universe
    (the locally faulty components, unless ``allow_nonfaulty``) and report
    the satisfying sets and their minimal antichain, verdicts in
    size-then-lexicographic order.

    By default every subset is evaluated, bottom-up.  With
    ``minimal_only`` under a monotone assignment (mitigation or
    existential manifestation, each counterfactual language inside its
    fault language) the predicate is upward-closed, so the lattice is
    visited from both ends, two levels at a time (mitigation: sizes 0, 1,
    k, k-1, 2, 3, ...; manifestation, which asks mitigation's questions of
    the complements when each non-candidate's counterfactual kind is its
    fault kind, the mirror image: k, k-1, 0, 1, k-2, ...), and a set is
    evaluated only when no earlier verdict decides it: a superset of a
    satisfying set is not minimal, a subset of a failing set fails.  The
    report equals the exhaustive run's, cut down to the minimal sets."""
    report, _ = enumerate_with_stats(m, tr, mode, asg, quantifier,
                                     minimal_only, allow_nonfaulty)
    return report
