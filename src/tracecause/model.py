"""System model, external text formats, and violation detection.

A system is a list of named components, each owning a disjoint set of
output variables and reading inputs produced by other components or by
the environment, plus a global safety spec over the union of all
component variables.  Composition is synchronous: one global step assigns
every variable simultaneously, so projecting a global trace onto a
component preserves its length.

The system file is JSON (schema documented in the README).  Each guard
is scanned once over its owner's variables for its edge mask
(`guards.scan_mask`) and kept as its text, from which the guard as
written is built only when the automaton's edges are read (for
printing); automaton declarations may be left incomplete and are
completed into a designated sink state at parse time (`complete_with`:
"bad" by default, so an unspecified input counts as a violation),
deciding coverage on those masks.  A system may declare at most
`MAX_VARIABLES` variables.  Serialization is byte-deterministic and
written by `jsontext.dumps`: components, states and edges keep their
declared order, guards print in canonical form, variables sort by name.
"""

from __future__ import annotations

import json
import re
from collections.abc import Iterable
from functools import partial

from .automata import (ContainmentResult, Diagnostic, RunResult,
                       SafetyAutomaton, Trace, Valuation, check_wellformed,
                       contains, run)
from .automata import product  # noqa: F401  (rebound by bench/tracing.py)
from .errors import (BudgetExceeded, DomainMismatch, DuplicateAssignment,
                     MissingVariable, ParseError, SchemaError,
                     UndeclaredVariable, UnknownVariable, ValidationError)
from .guards import (Or, canonicalize, guard_text, is_variable_name,
                     negate, scan_guard, scan_mask, scope_atoms)
from .guards import (  # noqa: F401  (rebound by bench/tracing.py)
    disj, guard_vars, parse_guard, satisfiable)
from .jsontext import dumps
from .records import Record, setfield


MAX_VARIABLES = 16
"""Most variables a system may declare.  A scope of n variables has 2^n
letters, and every automaton state keeps a row over them, so a larger
system is refused (`BudgetExceeded`) before any guard is evaluated."""


class Component(Record):
    """A named component: disjoint input/output variable sets and a local
    safety spec over their union."""

    __slots__ = ("name", "inputs", "outputs", "spec")

    def __init__(self, name: str, inputs: frozenset[str],
                 outputs: frozenset[str], spec: SafetyAutomaton):
        setfield(self, "name", name)
        setfield(self, "inputs", inputs)
        setfield(self, "outputs", outputs)
        setfield(self, "spec", spec)
        if not is_variable_name(self.name):
            raise ValidationError(f"illegal component name: {self.name!r}")
        overlap = self.inputs & self.outputs
        if overlap:
            raise ValidationError(
                f"component {self.name}: variable {sorted(overlap)[0]!r} is "
                f"both input and output")
        if self.spec.var_set != self.vars:
            raise ValidationError(
                f"component {self.name}: spec scope {list(self.spec.vars)} "
                f"differs from inputs+outputs {sorted(self.vars)}")

    @property
    def vars(self) -> frozenset[str]:
        return self.inputs | self.outputs


class SystemModel(Record):
    """Components in declaration order plus the global spec over all
    component variables.  The private ``_refinement`` keeps the answer of
    `refinement` once it is walked; it takes no part in equality,
    hashing or ``repr``."""

    __slots__ = ("components", "global_spec", "_refinement")

    def __init__(self, components: tuple[Component, ...],
                 global_spec: SafetyAutomaton,
                 _refinement: ContainmentResult | None = None):
        setfield(self, "components", components)
        setfield(self, "global_spec", global_spec)
        setfield(self, "_refinement", _refinement)
        if not self.components:
            raise ValidationError("a system needs at least one component")
        names = [c.name for c in self.components]
        if len(set(names)) != len(names):
            dup = next(n for n in names if names.count(n) > 1)
            raise ValidationError(f"duplicate component name: {dup!r}")
        owned: dict[str, str] = {}
        for c in self.components:
            for v in c.outputs:
                if v in owned:
                    raise ValidationError(
                        f"variable {v!r} is an output of both {owned[v]} "
                        f"and {c.name}")
                owned[v] = c.name
        if self.global_spec.var_set != self.variables:
            raise ValidationError(
                f"global spec scope {list(self.global_spec.vars)} differs "
                f"from the system variables {sorted(self.variables)}")

    @property
    def variables(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for c in self.components:
            out |= c.vars
        return out

    @property
    def env_vars(self) -> frozenset[str]:
        outputs: frozenset[str] = frozenset()
        for c in self.components:
            outputs |= c.outputs
        return self.variables - outputs

    def component(self, name: str) -> Component:
        for c in self.components:
            if c.name == name:
                return c
        raise KeyError(name)


class ViolationReport(Record):
    """Where the global spec rejects, and which components break their own
    specs (with first local violation indices), in component order."""

    __slots__ = ("global_violation_index", "faulty")

    def __init__(self, global_violation_index: int | None,
                 faulty: tuple[tuple[str, int], ...]):
        setfield(self, "global_violation_index", global_violation_index)
        setfield(self, "faulty", faulty)

    @property
    def faulty_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.faulty)


# ---------------------------------------------------------------------------
# parsing

def _expect(obj: dict, key: str, kind, where: str):
    if key not in obj:
        raise SchemaError(f"{where}: missing field {key!r}")
    value = obj[key]
    if not isinstance(value, kind):
        raise SchemaError(f"{where}: field {key!r} must be "
                          f"{getattr(kind, '__name__', kind)}")
    return value


def _name_list(values, where: str) -> list[str]:
    if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
        raise SchemaError(f"{where}: expected a list of names")
    return values


def _automaton_from_obj(obj, scope: Iterable[str], where: str) -> SafetyAutomaton:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: automaton must be an object")
    scope = frozenset(scope)
    states = _name_list(_expect(obj, "states", list, where), f"{where}.states")
    if not states:
        raise SchemaError(f"{where}: automaton needs at least one state")
    if len(set(states)) != len(states):
        raise SchemaError(f"{where}: duplicate state names")
    initial = _expect(obj, "initial", str, where)
    if initial not in states:
        raise SchemaError(f"{where}: initial state {initial!r} not declared")
    bad = _name_list(obj.get("bad", []), f"{where}.bad")
    for b in bad:
        if b not in states:
            raise SchemaError(f"{where}: bad state {b!r} not declared")
    polarity = obj.get("complete_with", "bad")
    if polarity not in ("bad", "good"):
        raise SchemaError(f"{where}: complete_with must be 'bad' or 'good'")

    # Each guard is scanned once over the scope, for its edge mask alone.
    # Completion decides coverage on the masks; a state that leaves some
    # letter uncovered gets an edge to the sink, whose guard is the
    # residual of the state's guards.  The automaton reads the masks and
    # targets; its guards are built from the texts (`_written_guards`)
    # only if its edges are printed.
    atoms = scope_atoms(scope)
    full = atoms["true"][1]
    texts: dict[str, list] = {s: [] for s in states}
    targets: dict[str, list[str]] = {s: [] for s in states}
    masks: dict[str, list[int]] = {s: [] for s in states}
    raw_edges = _expect(obj, "edges", list, where)
    for i, e in enumerate(raw_edges):
        ewhere = f"{where}.edges[{i}]"
        if not isinstance(e, dict):
            raise SchemaError(f"{ewhere}: edge must be an object")
        src = _expect(e, "from", str, ewhere)
        dst = _expect(e, "to", str, ewhere)
        text = _expect(e, "guard", str, ewhere)
        if src not in states:
            raise SchemaError(f"{ewhere}: unknown source state {src!r}")
        if dst not in states:
            raise SchemaError(f"{ewhere}: unknown target state {dst!r}")
        try:
            mask = scan_mask(text, atoms, context=ewhere)
        except UndeclaredVariable as e:
            raise ValidationError(
                f"{ewhere}: guard mentions undeclared variable "
                f"{e.args[0]!r}") from None
        texts[src].append(text)
        targets[src].append(dst)
        masks[src].append(mask)

    # Complete missing transitions into a sink of the declared polarity.
    uncovered = []
    for s in states:
        covered = 0
        for m in masks[s]:
            covered |= m
        if covered != full:
            uncovered.append(s)
            masks[s].append(full & ~covered)
    bad_set = set(bad)
    if uncovered:
        sink = f"sink_{polarity}"
        while sink in states:
            sink = "_" + sink
        states = states + [sink]
        texts[sink], targets[sink], masks[sink] = ["true"], [sink], [full]
        if polarity == "bad":
            bad_set.add(sink)
        for s in uncovered:
            texts[s].append(None)
            targets[s].append(sink)

    aut = SafetyAutomaton.from_masks(
        scope, states, initial, bad_set, targets, masks,
        partial(_written_guards, tuple(sorted(scope)), texts))
    diags = check_wellformed(aut)
    if diags:
        raise ValidationError(
            f"{where}: " + "; ".join(f"{d.kind}: {d.message}" for d in diags),
            diags)
    return aut


def _written_guards(scope: tuple[str, ...], texts: dict[str, list]
                    ) -> dict[str, list]:
    """Per state of a parsed automaton over ``scope``, the guard of each
    edge as written, from its text; None stands for the completion's
    residual, the negation of the guards before it, which `negate`
    canonicalizes."""
    atoms = scope_atoms(scope)
    guards = {}
    for s, ts in texts.items():
        gs = guards[s] = []
        for text in ts:
            gs.append(negate(Or(tuple(gs))) if text is None
                      else scan_guard(text, atoms)[0])
    return guards


def system_from_dict(obj: dict) -> SystemModel:
    if not isinstance(obj, dict):
        raise SchemaError("system document must be a JSON object")
    declared: dict[str, str] = {}
    for i, v in enumerate(_expect(obj, "variables", list, "system")):
        where = f"variables[{i}]"
        if not isinstance(v, dict):
            raise SchemaError(f"{where}: expected an object")
        name = _expect(v, "name", str, where)
        owner = _expect(v, "owner", str, where)
        if not is_variable_name(name):
            raise ValidationError(f"{where}: illegal variable name {name!r}")
        if name in declared:
            raise ValidationError(f"{where}: variable {name!r} declared twice")
        declared[name] = owner
    if len(declared) > MAX_VARIABLES:
        raise BudgetExceeded("variables declared", len(declared),
                             MAX_VARIABLES)

    components = []
    for i, c in enumerate(_expect(obj, "components", list, "system")):
        where = f"components[{i}]"
        if not isinstance(c, dict):
            raise SchemaError(f"{where}: expected an object")
        name = _expect(c, "name", str, where)
        inputs = _name_list(_expect(c, "inputs", list, where), f"{where}.inputs")
        outputs = _name_list(_expect(c, "outputs", list, where), f"{where}.outputs")
        for v in inputs + outputs:
            if v not in declared:
                raise ValidationError(
                    f"{where}: variable {v!r} is not declared")
        for v in outputs:
            if declared[v] != name:
                raise ValidationError(
                    f"{where}: output {v!r} is declared with owner "
                    f"{declared[v]!r}, expected {name!r}")
        scope = frozenset(inputs) | frozenset(outputs)
        spec = _automaton_from_obj(c.get("spec"), scope, f"{where}.spec")
        components.append(Component(name, frozenset(inputs),
                                    frozenset(outputs), spec))

    names = {c.name for c in components}
    for v, owner in declared.items():
        if owner != "env" and owner not in names:
            raise ValidationError(
                f"variable {v!r} declares unknown owner {owner!r}")
        if owner != "env" and v not in next(c for c in components
                                            if c.name == owner).outputs:
            raise ValidationError(
                f"variable {v!r} has owner {owner!r} but is not among its "
                f"outputs")
    used: frozenset[str] = frozenset()
    for c in components:
        used |= c.vars
    unused = set(declared) - used
    if unused:
        raise ValidationError(
            f"variable {sorted(unused)[0]!r} is declared but neither an "
            f"input nor an output of any component")

    global_spec = _automaton_from_obj(obj.get("global_spec"),
                                      frozenset(declared), "global_spec")
    return SystemModel(tuple(components), global_spec)


def parse_system(text: str) -> SystemModel:
    """Parse and validate a system document (JSON text)."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(e.msg, line=e.lineno, column=e.colno,
                         context="system document") from None
    except RecursionError:
        raise ParseError("JSON nested too deeply",
                         context="system document") from None
    except ValueError as e:  # an integer literal past the digit limit
        raise ParseError(str(e), context="system document") from None
    return system_from_dict(obj)


_ASSIGN_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)=([01])\Z")


def parse_trace(text: str, vars: Iterable[str]) -> Trace:
    """Parse a trace file: one step per line of whitespace-separated
    ``var=0|1`` tokens; ``#`` begins a comment line; blank lines skipped.

    Every declared variable must be assigned exactly once per step.
    """
    expected = frozenset(vars)
    steps = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        assignment: dict[str, int] = {}
        for token in line.split():
            m = _ASSIGN_RE.match(token)
            if not m:
                raise ParseError(f"expected 'var=0' or 'var=1', found {token!r}",
                                 line=lineno)
            name, value = m.group(1), int(m.group(2))
            if name not in expected:
                raise UnknownVariable(f"unknown variable {name!r}", line=lineno)
            if name in assignment:
                raise DuplicateAssignment(
                    f"variable {name!r} assigned twice", line=lineno)
            assignment[name] = value
        missing = sorted(expected - assignment.keys())
        if missing:
            raise MissingVariable(
                f"variable {missing[0]!r} is not assigned", line=lineno)
        steps.append(Valuation(assignment))
    return Trace(steps)


# ---------------------------------------------------------------------------
# serialization

def _state_names(aut: SafetyAutomaton) -> dict:
    if all(isinstance(s, str) for s in aut.states):
        return {s: s for s in aut.states}
    return {s: f"q{i}" for i, s in enumerate(aut.states)}


def automaton_to_dict(aut: SafetyAutomaton) -> dict:
    names = _state_names(aut)
    return {
        "states": [names[s] for s in aut.states],
        "initial": names[aut.initial],
        "bad": [names[s] for s in aut.states if s in aut.bad],
        "edges": [
            {"from": names[s], "guard": guard_text(canonicalize(g)),
             "to": names[t]}
            for s in aut.states for g, t in aut.edges[s]
        ],
    }


def system_to_dict(m: SystemModel) -> dict:
    owner = {v: "env" for v in m.env_vars}
    for c in m.components:
        for v in c.outputs:
            owner[v] = c.name
    return {
        "variables": [{"name": v, "owner": owner[v]}
                      for v in sorted(m.variables)],
        "components": [
            {
                "name": c.name,
                "inputs": sorted(c.inputs),
                "outputs": sorted(c.outputs),
                "spec": automaton_to_dict(c.spec),
            }
            for c in m.components
        ],
        "global_spec": automaton_to_dict(m.global_spec),
    }


def serialize_system(m: SystemModel) -> str:
    """Byte-deterministic JSON text for ``m``."""
    return dumps(system_to_dict(m)) + "\n"


# ---------------------------------------------------------------------------
# semantics

def refinement(m: SystemModel) -> ContainmentResult:
    """Whether the composition of all component specs is contained in the
    global spec: `contains` of the specs, searched on the fly from their
    transition tables, not built.  Walked once per model: the answer is
    kept in the model, so an analysis whose operand is the composition of
    the specs reads it instead of walking the same question again."""
    res = m._refinement
    if res is None:
        res = contains([c.spec for c in m.components], m.global_spec)
        setfield(m, "_refinement", res)
    return res


def validate_system(m: SystemModel) -> list[Diagnostic]:
    """Check the refinement obligation (`refinement`): the composition of
    all component specs must be contained in the global spec.  Empty when
    it holds; otherwise one diagnostic carrying a witness trace."""
    res = refinement(m)
    if res.holds:
        return []
    return [Diagnostic(
        "refinement-violation", "global_spec",
        "the composed component specs admit a behavior the global spec "
        "rejects", res.witness)]


def project_trace(t: Trace, c: Component) -> Trace:
    """Stepwise restriction of ``t`` to the component's variables; the
    synchronous composition keeps the length unchanged."""
    if t.domain is not None and not c.vars <= t.domain:
        missing = sorted(c.vars - t.domain)
        raise DomainMismatch(
            f"trace lacks variable {missing[0]!r} of component {c.name}")
    return t.restrict(c.vars)


def violates_global(m: SystemModel, t: Trace) -> RunResult:
    """Run of the global spec on ``t`` (rejection = the error-trace case)."""
    return run(m.global_spec, t)


def faulty_components(m: SystemModel, t: Trace) -> ViolationReport:
    """Run every component spec on its projection of ``t`` and collect the
    locally faulty components with their first violation indices."""
    g = violates_global(m, t)
    faulty = []
    for c in m.components:
        r = run(c.spec, project_trace(t, c))
        if not r.accepted:
            faulty.append((c.name, r.first_violation_index))
    return ViolationReport(g.first_violation_index, tuple(faulty))
