"""Counterfactual and fault-model languages, one automaton per component.

A causality query substitutes, for every component, one of five languages
over that component's variables:

* ``spec`` - the component's own spec: its correct behaviors.
* ``arbitrary`` - every trace over the component's variables.
* ``observed`` - prefixes of the locally observed trace, plus the observed
  trace followed by anything; the whole projection is pinned.
* ``observed-out`` - like ``observed`` but pinning only the component's
  outputs.  Counterfactually changing other components changes what this
  one reads, so pinning inputs too would usually make the combined
  language empty and every verdict vacuous; outputs are where the
  component is responsible.
* ``prefix-correct`` - the spec-conforming traces that extend (or are a
  prefix of) the longest prefix of the observed trace the spec accepts.

All five are nonempty and prefix-closed, so they live in the same
deterministic safety-automaton representation as the specs themselves,
and the unbounded containment checks of the analysis engine stay
meaningful - the horizon-bounded quantification happens in the engine,
not in the language.
"""

from __future__ import annotations

import enum
from collections.abc import Mapping

from .automata import (SafetyAutomaton, Trace, product, run,
                       universal_automaton)
from .errors import DomainMismatch, HorizonMismatch, UnknownComponent
from .guards import FALSE, TRUE, cube, negate
from .model import Component, SystemModel
from .records import Record, setfield


class FaultModelKind(enum.Enum):
    """The catalog of per-component counterfactual/fault languages."""
    SPEC = "spec"
    ARBITRARY = "arbitrary"
    OBSERVED_FULL = "observed"
    OBSERVED_OUT = "observed-out"
    PREFIX_CORRECT = "prefix-correct"

    @classmethod
    def from_name(cls, name: str) -> "FaultModelKind":
        for kind in cls:
            if kind.value == name:
                return kind
        options = ", ".join(k.value for k in cls)
        raise ValueError(f"unknown fault-model kind {name!r} (expected one "
                         f"of: {options})")


_OBSERVED_KINDS = (FaultModelKind.OBSERVED_FULL, FaultModelKind.OBSERVED_OUT,
                   FaultModelKind.PREFIX_CORRECT)


def longest_correct_prefix(c: Component, tr_local: Trace) -> int:
    """The largest k such that the first k steps of ``tr_local`` are
    accepted by the component's spec."""
    r = run(c.spec, tr_local)
    return len(tr_local) if r.accepted else r.first_violation_index


def _observed_chain(scope, cube_vars, steps: Trace) -> SafetyAutomaton:
    # A chain state per observed step: the on-cube edge advances, any
    # deviation is absorbed by "bad"; after the chain everything is
    # allowed.  Exactly len(steps) + 2 states.
    h = len(steps)
    names = [f"obs{k}" for k in range(h)] + ["tail", "bad"]
    edges: dict = {}
    for k in range(h):
        g = cube(steps[k], cube_vars)
        out = [(g, names[k + 1])]
        off = negate(g)
        if off != FALSE:
            out.append((off, "bad"))
        edges[names[k]] = out
    edges["tail"] = [(TRUE, "tail")]
    edges["bad"] = [(TRUE, "bad")]
    return SafetyAutomaton(scope, names, names[0], ["bad"], edges)


def build_fault_model(kind: FaultModelKind, c: Component, tr_local: Trace,
                      horizon: int) -> SafetyAutomaton:
    """The automaton for ``kind`` over the component's variables.

    ``tr_local`` must be the projection of the error trace onto the
    component; the observed kinds insist the horizon equals its length.
    """
    if tr_local.domain is not None and tr_local.domain != c.vars:
        raise DomainMismatch(
            f"local trace domain {sorted(tr_local.domain)} is not the "
            f"variable set of component {c.name}")
    if kind in _OBSERVED_KINDS and horizon != len(tr_local):
        raise HorizonMismatch(
            f"{kind.value} for component {c.name}: horizon {horizon} differs "
            f"from the local trace length {len(tr_local)}")
    if kind is FaultModelKind.SPEC:
        return c.spec
    if kind is FaultModelKind.ARBITRARY:
        return universal_automaton(c.vars)
    if kind is FaultModelKind.OBSERVED_FULL:
        return _observed_chain(c.vars, c.vars, tr_local)
    if kind is FaultModelKind.OBSERVED_OUT:
        return _observed_chain(c.vars, c.outputs, tr_local)
    if kind is FaultModelKind.PREFIX_CORRECT:
        p = longest_correct_prefix(c, tr_local)
        return product([c.spec, _observed_chain(c.vars, c.vars, tr_local[:p])])
    raise TypeError(f"not a fault-model kind: {kind!r}")


class ComponentKinds(Record):
    """Which language a component contributes when it is inside the
    candidate set (``cf_kind``) versus outside it (``fault_kind``)."""

    __slots__ = ("cf_kind", "fault_kind")

    def __init__(self, cf_kind: FaultModelKind = FaultModelKind.SPEC,
                 fault_kind: FaultModelKind = FaultModelKind.OBSERVED_OUT):
        setfield(self, "cf_kind", cf_kind)
        setfield(self, "fault_kind", fault_kind)


class ModelAssignment(Record):
    """Per-component kind assignment; heterogeneous by construction.

    Defaults match the analysis intent: corrected components behave per
    their spec, uncorrected ones keep their observed output behavior.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Mapping[str, ComponentKinds]):
        setfield(self, "entries", entries)

    @classmethod
    def defaults(cls, m: SystemModel,
                 cf_kind: FaultModelKind = FaultModelKind.SPEC,
                 fault_kind: FaultModelKind = FaultModelKind.OBSERVED_OUT
                 ) -> "ModelAssignment":
        return cls({c.name: ComponentKinds(cf_kind, fault_kind)
                    for c in m.components})

    def override(self, name: str,
                 cf_kind: FaultModelKind | None = None,
                 fault_kind: FaultModelKind | None = None
                 ) -> "ModelAssignment":
        current = self._lookup(name)
        entries = dict(self.entries)
        entries[name] = ComponentKinds(cf_kind or current.cf_kind,
                                       fault_kind or current.fault_kind)
        return ModelAssignment(entries)

    def _lookup(self, name: str) -> ComponentKinds:
        try:
            return self.entries[name]
        except KeyError:
            raise UnknownComponent(name) from None

    def cf_kind(self, name: str) -> FaultModelKind:
        return self._lookup(name).cf_kind

    def fault_kind(self, name: str) -> FaultModelKind:
        return self._lookup(name).fault_kind

    def to_dict(self) -> dict:
        return {name: {"cf": k.cf_kind.value, "fault": k.fault_kind.value}
                for name, k in sorted(self.entries.items())}
