"""Seeded input generators for the benchmark workloads.

Every generator is pure Python and independent of the package under
test: systems are written as JSON documents with textual guards, traces
as ``var=0|1`` lines.  Expected verdicts for ``deep`` and ``wide`` follow
in closed form from how the families are built; ``corpus`` expectations
come from the independent oracle in ``tests/oracle.py`` (see gate.py).

A job is one ``tracecause analyze --json`` call: an instance (system file
and trace file) plus the flags the workload gives it.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from typing import Optional

KINDS = ("spec", "arbitrary", "observed", "observed-out", "prefix-correct")


@dataclass(frozen=True)
class Instance:
    """One system and one error trace, as the text of their files."""
    system: str
    trace: str


@dataclass
class Job:
    """One analyze call.  ``models`` and ``cfs`` map components to the
    fault-model and counterfactual kinds given on the command line;
    ``expected`` maps each mode to its expected verdicts, and None means
    the gate derives them from the oracle."""
    instance: int
    quantifier: str = "existential"
    minimal_only: bool = False
    models: dict = field(default_factory=dict)
    cfs: dict = field(default_factory=dict)
    expected: Optional[dict] = None

    @property
    def flags(self) -> list[str]:
        flags = ["--quantifier", self.quantifier]
        if self.minimal_only:
            flags.append("--minimal-only")
        for opt, kinds in (("--model", self.models), ("--cf", self.cfs)):
            for name, kind in kinds.items():
                flags += [opt, f"{name}={kind}"]
        return flags


@dataclass
class Workload:
    instances: list[Instance]
    jobs: list[Job]


# Sizes of the benchmark proper and of the smoke run in the tests.
SIZES = {
    "full": {
        "deep": {"components": 4, "steps": 4, "faults": 2, "jobs": 32},
        "wide": {"k_default": 4, "k_arbitrary": 6, "steps": 3, "instances": 48},
        "corpus": {"systems": 40, "traces": 4},
    },
    "tiny": {
        "deep": {"components": 3, "steps": 2, "faults": 2, "jobs": 4},
        "wide": {"k_default": 2, "k_arbitrary": 3, "steps": 2, "instances": 2},
        "corpus": {"systems": 2, "traces": 3},
    },
}


# ---------------------------------------------------------------------------
# explicit automata over valuation indices

def valuations(names) -> list[dict]:
    """All valuations of ``names`` in the canonical order: names sorted,
    binary counting with the first name as the most significant bit."""
    names = sorted(names)
    n = len(names)
    return [{names[j]: (i >> (n - 1 - j)) & 1 for j in range(n)}
            for i in range(1 << n)]


def letter_index(letter: dict, names) -> int:
    i = 0
    for name in sorted(names):
        i = (i << 1) | letter[name]
    return i


def cube_text(letter: dict, names) -> str:
    return " & ".join(n if letter[n] else f"!{n}" for n in sorted(names)) or "true"


@dataclass
class Explicit:
    """A complete deterministic automaton given by successor rows indexed
    by `letter_index` over ``names``; bad states are absorbing."""
    names: tuple[str, ...]
    states: list[str]
    initial: str
    bad: set
    rows: dict

    def step(self, q: str, letter: dict) -> str:
        return self.rows[q][letter_index(letter, self.names)]

    def accepts(self, letters) -> bool:
        q = self.initial
        for letter in letters:
            q = self.step(q, letter)
            if q in self.bad:
                return False
        return True

    def to_obj(self) -> dict:
        vals = valuations(self.names)
        edges = []
        for q in self.states:
            by_target: dict[str, list] = {}
            for i, t in enumerate(self.rows[q]):
                by_target.setdefault(t, []).append(vals[i])
            for t, vs in sorted(by_target.items(),
                                key=lambda kv: self.states.index(kv[0])):
                guard = ("true" if len(vs) == len(vals) else
                         " | ".join(cube_text(v, self.names) for v in vs))
                edges.append({"from": q, "guard": guard, "to": t})
        return {"states": self.states, "initial": self.initial,
                "bad": [q for q in self.states if q in self.bad],
                "edges": edges}


def random_explicit(rng: random.Random, names, goods: int) -> Explicit:
    """``goods`` good states and one bad one; each good state sends each
    letter to the bad state with probability 1/4, else to a random good
    state."""
    names = tuple(sorted(names))
    goods = [f"g{i}" for i in range(goods)]
    rows = {q: [("boom" if rng.random() < 0.25 else rng.choice(goods))
                for _ in range(1 << len(names))] for q in goods}
    rows["boom"] = ["boom"] * (1 << len(names))
    return Explicit(names, goods + ["boom"], "g0", {"boom"}, rows)


def explicit_product(parts: list[Explicit]) -> Explicit:
    """Reachable synchronized product; every bad tuple becomes one state."""
    names = tuple(sorted(set().union(*(p.names for p in parts))))
    vals = valuations(names)
    init = tuple(p.initial for p in parts)
    label = {init: "q0"}
    order = [init]
    rows: dict[str, list] = {}
    for s in order:
        row = []
        for v in vals:
            t = tuple(p.step(q, v) for p, q in zip(parts, s))
            if any(q in p.bad for p, q in zip(parts, t)):
                row.append("boom")
                continue
            if t not in label:
                label[t] = f"q{len(label)}"
                order.append(t)
            row.append(label[t])
        rows[label[s]] = row
    rows["boom"] = ["boom"] * len(vals)
    return Explicit(names, [label[s] for s in order] + ["boom"], "q0",
                    {"boom"}, rows)


def _system_text(variables: dict, components: list[dict],
                 global_spec: dict) -> str:
    doc = {"variables": [{"name": v, "owner": o}
                         for v, o in sorted(variables.items())],
           "components": components, "global_spec": global_spec}
    return json.dumps(doc, indent=1)


def _trace_text(letters: list[dict]) -> str:
    return "".join(" ".join(f"{n}={v[n]}" for n in sorted(v)) + "\n"
                   for v in letters)


def subsets(universe) -> list[frozenset]:
    """Candidate sets in the engine's size-then-lexicographic order."""
    universe = sorted(universe)
    return [frozenset(c) for r in range(len(universe) + 1)
            for c in itertools.combinations(universe, r)]


def minimal_sets(holding) -> set:
    holding = set(holding)
    return {s for s in holding if not any(o < s for o in holding)}


def expectation(verdicts: dict, minimal_only: bool = False) -> dict:
    """``verdicts``: candidate set -> (holds, vacuous), in subset order."""
    minimal = minimal_sets(s for s, (holds, _) in verdicts.items() if holds)
    if minimal_only:
        verdicts = {s: hv for s, hv in verdicts.items() if s in minimal}
    return {"minimal": minimal, "verdicts": verdicts}


def exit_code(per_mode: dict) -> int:
    return 0 if any(e["minimal"] for e in per_mode.values()) else 3


# ---------------------------------------------------------------------------
# deep: a chain of delay monitors

def _tag(rng: random.Random) -> str:
    """A suffix for every name of one instance, so that no two instances
    of a run share a system file, while the order of names, and so the
    work, stays the same."""
    return "_" + "".join(rng.choice("abcdefghijklmnopqrstuvwxyz")
                         for _ in range(4))


def _deep_instance(rng: random.Random, n: int, h: int, faults: int):
    """Chain P0..P{n-1}; Pi reads x_i (e for P0, o_{i-1} otherwise) and may
    raise o_i only at a step right after x_i was 1.  The global spec asks
    o_{n-1} to stay 0 for the first ``h`` steps, which the composition
    guarantees because a 1 needs n steps to travel from e (h <= n).  Every
    name carries the instance's `_tag`.  Returns the instance, the
    observed outputs, the component names and the faulty ones."""
    tag = _tag(rng)
    names = [f"P{i}{tag}" for i in range(n)]
    outputs = [f"o{i}{tag}" for i in range(n)]
    inputs = [f"e{tag}"] + outputs[:-1]
    while True:
        env = [rng.randint(0, 1) for _ in range(h)]
        injected = {}
        for i in rng.sample(range(n), faults):
            injected[i] = rng.randrange(h)
        out = [[0] * n for _ in range(h)]
        faulty = set()
        for t in range(h):
            for i in range(n):
                prev = (env[t - 1] if i == 0 else out[t - 1][i - 1]) if t else 0
                if injected.get(i) == t and not prev:
                    out[t][i] = 1
                    faulty.add(i)
                elif prev:
                    out[t][i] = int(rng.random() < 0.7)
        violated = any(out[t][n - 1] for t in range(h))
        if violated and len(faulty) == faults:
            break

    variables = {inputs[0]: "env", **dict(zip(outputs, names))}
    components = []
    for i in range(n):
        o, x = outputs[i], inputs[i]
        components.append({
            "name": names[i], "inputs": [x], "outputs": [o],
            "spec": {"states": ["p0", "p1"], "initial": "p0", "bad": [],
                     "edges": [
                         {"from": "p0", "guard": f"!{o} & !{x}", "to": "p0"},
                         {"from": "p0", "guard": f"!{o} & {x}", "to": "p1"},
                         {"from": "p1", "guard": f"!{x}", "to": "p0"},
                         {"from": "p1", "guard": x, "to": "p1"}]}})
    last = outputs[-1]
    counter = [f"c{t}" for t in range(h)] + ["done"]
    global_spec = {"states": counter, "initial": "c0", "bad": [],
                   "edges": [{"from": counter[t], "guard": f"!{last}",
                              "to": counter[t + 1]} for t in range(h)]
                   + [{"from": "done", "guard": "true", "to": "done"}]}
    letters = [{inputs[0]: env[t], **dict(zip(outputs, out[t]))}
               for t in range(h)]
    inst = Instance(_system_text(variables, components, global_spec),
                    _trace_text(letters))
    return inst, out, names, sorted(names[i] for i in faulty)


def _deep_can_rise(out, n: int, h: int, replay: frozenset) -> bool:
    """Can o_{n-1} be 1 within the first h steps when the components in
    ``replay`` repeat their observed outputs and the others follow their
    spec (which lets o_i be 1 only right after its input was 1)?  Inputs
    from the environment are free; in the first h steps nothing else is."""
    can = [[False] * n for _ in range(h)]
    for t in range(h):
        for i in range(n):
            if i in replay:
                can[t][i] = bool(out[t][i])
            else:
                can[t][i] = t > 0 and (i == 0 or can[t - 1][i - 1])
    return any(can[t][n - 1] for t in range(h))


def _deep_expected(out, names: list[str], faulty: list[str],
                   quantifier: str) -> dict:
    h, n = len(out), len(names)
    index = {c: i for i, c in enumerate(names)}
    everyone = frozenset(range(n))
    mit, man = {}, {}
    for d in subsets(faulty):
        members = frozenset(index[c] for c in d)
        # Mitigation: D follows its spec, everyone else replays outputs.
        mit[d] = (not _deep_can_rise(out, n, h, everyone - members), False)
        if quantifier == "existential":
            man[d] = (_deep_can_rise(out, n, h, members), False)
        else:
            # Every completion violates iff o_{n-1} is replayed: a component
            # that follows its spec can always keep its output at 0.
            man[d] = ((n - 1) in members, False)
    return {"mitigation": expectation(mit), "manifestation": expectation(man)}


def make_deep(rng: random.Random, components: int, steps: int, faults: int,
              jobs: int) -> Workload:
    """``jobs`` jobs, each on its own instance, alternately existential
    and universal."""
    insts, job_list = [], []
    for j in range(jobs):
        inst, out, names, faulty = _deep_instance(rng, components, steps,
                                                  faults)
        quantifier = ("existential", "universal")[j % 2]
        insts.append(inst)
        job_list.append(Job(j, quantifier, expected=_deep_expected(
            out, names, faulty, quantifier)))
    return Workload(insts, job_list)


# ---------------------------------------------------------------------------
# wide: k independent faulty components, 2^k candidate sets

def _wide_instance(rng: random.Random, k: int, h: int):
    """Ci owns o_i and promises o_i stays 0; the global spec only forbids
    every o_i being 1 at once.  The trace reaches that in its last step.
    Every name carries the instance's `_tag`.  Returns the instance and
    the component names."""
    tag = _tag(rng)
    names = [f"C{i}{tag}" for i in range(k)]
    outputs = [f"o{i}{tag}" for i in range(k)]
    components = [{"name": c, "inputs": [], "outputs": [o],
                   "spec": {"states": ["g"], "initial": "g", "bad": [],
                            "edges": [{"from": "g", "guard": f"!{o}",
                                       "to": "g"}]}}
                  for c, o in zip(names, outputs)]
    global_spec = {"states": ["g"], "initial": "g", "bad": [],
                   "edges": [{"from": "g", "to": "g", "guard": " | ".join(
                       f"!{o}" for o in outputs)}]}
    letters = []
    for _ in range(h - 1):
        bits = [rng.randint(0, 1) for _ in range(k)]
        bits[rng.randrange(k)] = 0
        letters.append(dict(zip(outputs, bits)))
    letters.append({o: 1 for o in outputs})
    return Instance(_system_text(dict(zip(outputs, names)), components,
                                 global_spec), _trace_text(letters)), names


def _wide_expected(universe: list[str]) -> dict:
    # With either fault model, one corrected component keeps the all-ones
    # letter out (mitigation holds iff D is nonempty), and every
    # component must keep its fault model to reach it (manifestation
    # holds iff D is everyone).  Every operand is realizable.
    full = frozenset(universe)
    mit = {d: (bool(d), False) for d in subsets(universe)}
    man = {d: (d == full, False) for d in subsets(universe)}
    return {"mitigation": expectation(mit, minimal_only=True),
            "manifestation": expectation(man, minimal_only=True)}


def make_wide(rng: random.Random, k_default: int, k_arbitrary: int,
              steps: int, instances: int) -> Workload:
    insts, jobs = [], []
    for j in range(instances):
        arbitrary = j % 2 == 1
        inst, names = _wide_instance(
            rng, k_arbitrary if arbitrary else k_default, steps)
        insts.append(inst)
        models = dict.fromkeys(names, "arbitrary") if arbitrary else {}
        jobs.append(Job(j, minimal_only=True, models=models,
                        expected=_wide_expected(names)))
    return Workload(insts, jobs)


# ---------------------------------------------------------------------------
# corpus: random 3-component systems, many short error traces each

def _corpus_system(rng: random.Random):
    while True:
        comps = []
        for i in range(3):
            # One input each, the environment's or an earlier output, so
            # that every spec reads two variables.
            outputs = [f"o{i}"]
            inputs = [rng.choice(["e0"] + [f"o{j}" for j in range(i)])]
            comps.append((f"C{i}", inputs, outputs,
                          random_explicit(rng, inputs + outputs, goods=2)))
        # A weakening of the composition, so the refinement obligation
        # holds: the product of two of the three specs.  Only products
        # that reach all four pairs of good states are kept, because the
        # global spec's size sets most of a job's time and the jobs of a
        # pass should be alike.
        chosen = sorted(rng.sample(comps, 2))
        theta = explicit_product([spec for _, _, _, spec in chosen])
        if len(theta.states) == 5:
            break
    variables = {}
    for name, inputs, outputs, _ in comps:
        variables.update({v: "env" for v in inputs if v.startswith("e")})
        variables.update({v: name for v in outputs})
    components = [{"name": name, "inputs": inputs, "outputs": outputs,
                   "spec": spec.to_obj()}
                  for name, inputs, outputs, spec in comps]
    return (_system_text(variables, components, theta.to_obj()),
            sorted(variables), theta, [spec for *_, spec in comps])


class _Deck:
    """Draws from ``items`` without replacement, reshuffling when empty, so
    each item comes up equally often over a run of draws."""

    def __init__(self, rng: random.Random, items):
        self.rng = rng
        self.items = list(items)
        self.left: list = []

    def draw(self):
        if not self.left:
            self.left = self.rng.sample(self.items, len(self.items))
        return self.left.pop()


def make_corpus(rng: random.Random, systems: int, traces: int) -> Workload:
    """``traces`` error traces per system, each of 1-2 steps with exactly
    two locally faulty components.  The three fault-model and three
    counterfactual slots of a job get the five kinds in a random order,
    and one more kind from a deck in the slot left over: some kinds cost
    far more than others, and this gives every job one or two of each.
    Both keep the work of a pass alike from seed to seed."""
    comps = ("C0", "C1", "C2")
    extra = _Deck(rng, KINDS)
    lengths = _Deck(rng, (1, 2))
    insts, jobs = [], []
    while len(insts) < systems * traces:
        system, names, theta, specs = _corpus_system(rng)
        letters = valuations(names)
        chosen: list[str] = []
        for _ in range(100 * traces):
            tr = [rng.choice(letters) for _ in range(lengths.draw())]
            text = _trace_text(tr)
            if (text not in chosen and not theta.accepts(tr)
                    and sum(not s.accepts(tr) for s in specs) == 2):
                chosen.append(text)
                if len(chosen) == traces:
                    break
        if len(chosen) < traces:
            continue
        for text in chosen:
            kinds = rng.sample(KINDS, len(KINDS)) + [extra.draw()]
            rng.shuffle(kinds)
            jobs.append(Job(
                len(insts), ("existential", "universal")[len(insts) % 2],
                models=dict(zip(comps, kinds[:3])),
                cfs=dict(zip(comps, kinds[3:]))))
            insts.append(Instance(system, text))
    rng.shuffle(jobs)
    return Workload(insts, jobs)


MAKERS = {"deep": make_deep, "wide": make_wide, "corpus": make_corpus}


def make(name: str, seed: int, size: str = "full", part: int = 0) -> Workload:
    """Part ``part`` of workload ``name`` on ``seed``: each part is one
    pass of distinct inputs drawn from the same family."""
    rng = random.Random(f"{name}-{seed}-{part}")
    return MAKERS[name](rng, **SIZES[size][name])
