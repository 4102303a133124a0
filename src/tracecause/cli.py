"""Command-line frontend: validate systems, analyze error traces, report
work statistics.

Exit codes: 0 success (for analyze: at least one causal set found);
1 validation failure (``invalid: ...``, or the failed refinement
diagnostics); 2 a usage error, or a refused input, printed as
``error: ...``: a parse or schema error, a file that cannot be read
(``[Errno 2] No such file or directory: '...'``), a component that
``--model``/``--cf`` names but the system lacks (``unknown component
Z``), a ``--horizon`` outside the trace (``--horizon 5 is outside the
trace length 1``) or a refused budget (`errors.BudgetExceeded`: too
many variables, or too many candidate sets for the exhaustive search);
3 no causal set; 4 the trace does not violate the global spec.  Each
refusal maps to its code through `_REFUSALS`.  Reports go to stdout,
diagnostics to stderr; all output is byte-deterministic for identical
inputs.  Each command builds its report as one JSON-able document:
``--json`` prints it, and the text form is rendered from it.  An
``analyze`` report depends only on the languages involved; operand
product sizes are work counters, reported by ``stats`` only.

`main(argv)` may be called any number of times in one process: the
argument parser is built on the first call and reused, and no call
leaves state behind for the next.  Within one ``analyze`` or ``stats``
call the requested modes share one engine context, so the faulty
components (which decide the error-trace check), the fault-model
factors and the monotonicity verdict are each computed at most once
(see `engine`); only ``stats`` and ``--minimal-only`` need the last.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .automata import Trace
from .counterfactual import FaultModelKind, ModelAssignment
from .engine import (CauseReport, EnumerationStats, _analysis, _Context,
                     _trace_to_jsonable, enumerate_with_stats)
from .errors import (BudgetExceeded, HorizonMismatch, NotAnErrorTrace,
                     ParseError, SchemaError, TraceCauseError,
                     UnknownComponent, ValidationError)
from .model import SystemModel, parse_system, parse_trace, validate_system
from .model import (  # noqa: F401  (rebound by bench/tracing.py)
    faulty_components, violates_global)

SCHEMA_VERSION = 2

_ROLES = {"mitigation": "mitigating (necessary-style)",
          "manifestation": "manifesting (sufficient-style)"}


def _err(message: str) -> None:
    print(message, file=sys.stderr)


def _print_json(doc: dict) -> None:
    print(json.dumps(doc, indent=2))


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        raise ParseError(f"not UTF-8 text ({e.reason} at byte {e.start})",
                         context=path) from None


def _set_text(members: list[str]) -> str:
    return "{" + ",".join(members) + "}"


def _witness_text(steps: list[dict]) -> str:
    return " | ".join(" ".join(f"{n}={v}" for n, v in step.items())
                      for step in steps)


def _table(headers: list[str], rows: list[list[str]]) -> list[str]:
    widths = [max(map(len, column)) for column in zip(headers, *rows)]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    return [fmt.format(*row).rstrip() for row in [headers, *rows]]


# ---------------------------------------------------------------------------
# shared loading steps

def _load_system(args) -> SystemModel:
    return parse_system(_read_file(args.system))


def _load_trace(args, m: SystemModel) -> Trace:
    tr = parse_trace(_read_file(args.trace), m.variables)
    if args.horizon is not None:
        if not 0 <= args.horizon <= len(tr):
            raise HorizonMismatch(
                f"--horizon {args.horizon} is outside the trace length "
                f"{len(tr)}")
        tr = tr[:args.horizon]
    return tr


def _parse_kind_option(option: str, value: str) -> tuple[str, FaultModelKind]:
    name, sep, kind = value.partition("=")
    if not sep or not name or not kind:
        raise ValueError(f"{option} expects NAME=KIND, got {value!r}")
    return name, FaultModelKind.from_name(kind)


def _build_assignment(args, m: SystemModel) -> ModelAssignment:
    asg = ModelAssignment.defaults(m)
    try:
        for value in args.model or ():
            name, kind = _parse_kind_option("--model", value)
            asg = asg.override(name, fault_kind=kind)
        for value in args.cf or ():
            name, kind = _parse_kind_option("--cf", value)
            asg = asg.override(name, cf_kind=kind)
    except ValueError as e:
        raise ParseError(str(e)) from None
    return asg


def _diag_jsonable(d) -> dict:
    return {"kind": d.kind, "subject": d.subject, "message": d.message,
            "witness": _trace_to_jsonable(d.witness)}


# ---------------------------------------------------------------------------
# commands

def cmd_validate(args) -> int:
    try:
        m = _load_system(args)
    except ValidationError as e:
        if args.json:
            diags = [_diag_jsonable(d) for d in e.diagnostics] or [
                {"kind": "validation-error", "subject": "system",
                 "message": str(e), "witness": None}]
            _print_json({"schema_version": SCHEMA_VERSION,
                         "command": "validate", "status": "invalid",
                         "diagnostics": diags})
        raise
    diags = [_diag_jsonable(d) for d in validate_system(m)]
    if args.json:
        _print_json({"schema_version": SCHEMA_VERSION, "command": "validate",
                     "status": "ok" if not diags else "invalid",
                     "diagnostics": diags})
    elif not diags:
        print(f"ok: {len(m.components)} component(s), "
              f"{len(m.variables)} variable(s), refinement holds")
    for d in diags:
        witness = (f"; witness: {_witness_text(d['witness'])}"
                   if d["witness"] is not None else "")
        _err(f"{d['kind']}: {d['message']}{witness}")
    return 0 if not diags else 1


def _prepare_analysis(args) -> _Context | None:
    """Common analyze/stats pipeline: the context the analyses share, or
    None when the system fails validation (diagnostics on stderr)."""
    m = _load_system(args)
    diags = validate_system(m)
    if diags:
        for d in diags:
            _err(f"{d.kind}: {d.message}")
        return None
    tr = _load_trace(args, m)
    return _analysis(m, tr, _build_assignment(args, m))


def _run_analyses(args, ctx: _Context
                  ) -> list[tuple[CauseReport, EnumerationStats]]:
    """Each requested mode, in the one shared context."""
    modes = ["mitigation", "manifestation"] if args.mode == "both" else [args.mode]
    return [enumerate_with_stats(ctx.m, ctx.tr, mode, ctx.asg,
                                 quantifier=args.quantifier,
                                 minimal_only=args.minimal_only,
                                 allow_nonfaulty=args.allow_nonfaulty,
                                 _context=ctx)
            for mode in modes]


def _analysis_line(a: dict) -> str:
    quantifier = f" ({a['quantifier']})" if a["quantifier"] else ""
    return f"analysis: {a['mode']}{quantifier}"


def _report_lines(a: dict) -> list[str]:
    """The text of one analysis of an ``analyze`` document."""
    lines = ["", _analysis_line(a),
             "candidates: " + (", ".join(a["candidates"]) or "none")]
    rows = [[_set_text(v["set"]), "yes" if v["holds"] else "no",
             "yes" if v["vacuous"] else "no"] for v in a["verdicts"]]
    if rows:
        lines.extend(_table(["set", "holds", "vacuous"], rows))
    lines.extend(f"witness {_set_text(v['set'])}: {_witness_text(v['witness'])}"
                 for v in a["verdicts"] if v["witness"] is not None)
    lines.extend(f"note: {note}" for note in a["notes"])
    minimal = ", ".join(_set_text(s) for s in a["minimal"]) or "none"
    lines.append(f"minimal {a['role']} sets: {minimal}")
    return lines


def cmd_analyze(args) -> int:
    ctx = _prepare_analysis(args)
    if ctx is None:
        return 1
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "analyze",
        "trace_length": len(ctx.tr),
        "violation": {
            "global_violation_index": ctx.violation.global_violation_index,
            "faulty": [{"component": n, "first_violation_index": i}
                       for n, i in ctx.violation.faulty],
        },
        "analyses": [dict(r.to_dict(), role=_ROLES[r.mode])
                     for r, _ in _run_analyses(args, ctx)],
    }
    if args.json:
        _print_json(doc)
    else:
        vio = doc["violation"]
        faulty = ", ".join("{component} (step {first_violation_index})"
                           .format_map(f) for f in vio["faulty"]) or "none"
        lines = [f"trace: {doc['trace_length']} step(s); global spec "
                 f"violated at step {vio['global_violation_index']}",
                 f"faulty components: {faulty}"]
        for a in doc["analyses"]:
            lines.extend(_report_lines(a))
        print("\n".join(lines))
    return 0 if any(a["minimal"] for a in doc["analyses"]) else 3


def cmd_stats(args) -> int:
    ctx = _prepare_analysis(args)
    if ctx is None:
        return 1
    doc = {"schema_version": SCHEMA_VERSION, "command": "stats",
           "trace_length": len(ctx.tr), "analyses": [{
               "mode": report.mode,
               "quantifier": report.quantifier,
               "candidates": list(report.candidates),
               "complexity": report.complexity.to_dict(),
               "subsets": {"evaluated": stats.evaluated,
                           "pruned": stats.pruned,
                           "monotone_pruning": stats.monotone_pruning},
               "per_set": [
                   {"set": list(r.members), "operand_states": r.operand_states,
                    "operand_edges": r.operand_edges,
                    "factor_bound": r.factor_bound,
                    "pairs_explored": r.pairs_explored,
                    "bfs_depth": r.bfs_depth}
                   for r in stats.per_set
               ],
           } for report, stats in _run_analyses(args, ctx)]}
    if args.json:
        _print_json(doc)
        return 0
    lines = []
    for a in doc["analyses"]:
        c, s = a["complexity"], a["subsets"]
        lines.append(_analysis_line(a))
        lines.append(
            f"candidates: {', '.join(a['candidates']) or 'none'} "
            f"(k={c['candidates']}; worst-case evaluations "
            f"{c['worst_case_evaluations']}; components {c['components']})")
        # A universal row has no operand sizes: no product was built.
        rows = [[_set_text(r["set"]),
                 *("-" if n is None else str(n)
                   for key, n in r.items() if key != "set")]
                for r in a["per_set"]]
        lines.extend(_table(
            ["set", "states", "edges", "bound", "pairs", "depth"], rows))
        lines.append(f"subsets: evaluated={s['evaluated']} "
                     f"pruned={s['pruned']} monotone_pruning="
                     f"{'on' if s['monotone_pruning'] else 'off'}")
        lines.append("")
    print("\n".join(lines).rstrip())
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def _add_analysis_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("trace", help="trace file (var=0|1 tokens, one step per line)")
    p.add_argument("--mode", choices=["mitigation", "manifestation", "both"],
                   default="both")
    p.add_argument("--quantifier", choices=["existential", "universal"],
                   default="existential",
                   help="manifestation only: some vs. every completion")
    p.add_argument("--model", action="append", metavar="NAME=KIND",
                   help="fault model for a component when it is outside the "
                        "candidate set (repeatable)")
    p.add_argument("--cf", action="append", metavar="NAME=KIND",
                   help="counterfactual model for a component when it is "
                        "inside the candidate set (repeatable)")
    p.add_argument("--minimal-only", action="store_true",
                   help="report only the minimal causal sets")
    p.add_argument("--allow-nonfaulty", action="store_true",
                   help="let candidate sets include components that satisfy "
                        "their local specs")
    p.add_argument("--horizon", type=int, default=None, metavar="N",
                   help="analyze only the first N steps of the trace")
    p.add_argument("--json", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tracecause",
        description="Decide which components of a concurrent reactive "
                    "system caused an observed safety violation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser(
        "validate", help="parse a system file and check the refinement "
                         "obligation")
    p_validate.add_argument("system", help="system file (JSON)")
    p_validate.add_argument("--json", action="store_true")
    p_validate.set_defaults(func=cmd_validate)

    p_analyze = sub.add_parser(
        "analyze", help="compute causal component sets for an error trace")
    p_analyze.add_argument("system", help="system file (JSON)")
    _add_analysis_flags(p_analyze)
    p_analyze.set_defaults(func=cmd_analyze)

    p_stats = sub.add_parser(
        "stats", help="report product sizes and enumeration work for the "
                      "same analyses")
    p_stats.add_argument("system", help="system file (JSON)")
    _add_analysis_flags(p_stats)
    p_stats.set_defaults(func=cmd_stats)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser every `main` call of the process reuses, built on the
    first call (not at import).  Parsing leaves no state in it."""
    return build_parser()


# The exit code and stderr prefix of each refusal a command raises.
_REFUSALS = (
    ((ParseError, SchemaError, HorizonMismatch, BudgetExceeded, OSError), 2,
     "error: "),
    (UnknownComponent, 2, "error: unknown component "),
    (ValidationError, 1, "invalid: "),
    (NotAnErrorTrace, 4, "not an error trace: "),
)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (TraceCauseError, OSError) as e:
        for types, code, prefix in _REFUSALS:
            if isinstance(e, types):
                _err(f"{prefix}{e}")
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
