"""tracecause: which components caused an observed safety violation?

A concurrent reactive system is modeled as components with disjoint
output variables and prefix-closed local specs (deterministic safety
automata), plus a global safety spec the composition is supposed to
refine.  Given an error trace, the engine answers counterfactual
liability queries - fault mitigation capability and fault manifestation -
by building per-component fault-model languages, taking their
synchronized product, and checking language containment against the
global spec; minimal causal sets are enumerated over the locally faulty
components.
"""

from .automata import (ContainmentResult, Diagnostic, RunResult,
                       SafetyAutomaton, Trace, Valuation, check_wellformed,
                       contains, enumerate_valuations, find_trace_of_length,
                       has_joint_trace_of_length, has_trace_of_length,
                       product, run, universal_automaton)
from .counterfactual import (ComponentKinds, FaultModelKind, ModelAssignment,
                             build_fault_model, longest_correct_prefix)
from .engine import (CandidateSet, CauseReport, ComplexityNote,
                     EnumerationStats, Verdict,
                     enumerate_causal_sets, enumerate_with_stats,
                     manifestation_operand, manifests, minimal_antichain,
                     mitigates, mitigation_operand)
from .errors import (BudgetExceeded, DomainMismatch, DuplicateAssignment,
                     HorizonMismatch, MissingVariable, NotAnErrorTrace,
                     ParseError, SchemaError, TraceCauseError,
                     UndeclaredVariable, UnknownComponent, UnknownVariable,
                     ValidationError)
from .guards import (Guard, cube, guard_eval, guard_text, guard_vars,
                     parse_guard, satisfiable)
from .model import (Component, SystemModel, ViolationReport,
                    faulty_components, parse_system, parse_trace,
                    project_trace, serialize_system, system_from_dict,
                    system_to_dict, validate_system, violates_global)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
