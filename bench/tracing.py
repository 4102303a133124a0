"""Per-layer tracing from outside the package.

`instrument` rebinds, for the duration of a ``with`` block, the names each
layer imported from another layer (``tracecause.engine.product``,
``tracecause.cli.parse_system``, ...) plus
``SafetyAutomaton.transition_table``, so every call across a layer
boundary is recorded.  Nothing under ``src/`` is edited.

Calls into ``automata``, ``model``, ``counterfactual`` and ``engine``
become spans (name, layer, start, end, parent, job) kept in memory.  The
hot guard functions are called up to millions of times per job, so they
only get a call counter and accumulated time.  A span's self time is its
duration minus the time of the spans and counted calls inside it and
minus the estimated cost of the wrappers charged to it, so the self times
of one job's spans and guard calls add up to the job's root span, which
the benchmark opens around ``tracecause.cli.main``, net of that cost.
"""

from __future__ import annotations

import contextlib
import json
import statistics
from collections import defaultdict
from itertools import repeat
from math import prod
from time import perf_counter

import tracecause.automata
import tracecause.cli
import tracecause.counterfactual
import tracecause.engine
import tracecause.model

HORIZON = ("has_trace_of_length", "has_joint_trace_of_length",
           "find_trace_of_length")

# Names each module imported from a lower layer, by the layer they belong to.
_SPANNED = {
    tracecause.cli: {
        "model": ("parse_system", "parse_trace", "validate_system",
                  "faulty_components", "violates_global"),
        "engine": ("enumerate_with_stats",)},
    tracecause.engine: {
        "automata": ("product", "contains") + HORIZON,
        "counterfactual": ("build_fault_model",),
        "model": ("faulty_components", "project_trace", "violates_global")},
    tracecause.model: {
        "automata": ("check_wellformed", "contains", "product", "run")},
    tracecause.counterfactual: {
        "automata": ("product", "run", "universal_automaton")},
}

# Guard functions by module that imported them, and the counter they feed.
_COUNTED = {
    tracecause.automata: {"canonicalize": "canon", "conj": "canon",
                          "guard_eval": "eval", "guard_text": "other",
                          "guard_vars": "other", "is_variable_name": "other"},
    tracecause.model: {"parse_guard": "parse", "guard_text": "other",
                       "guard_vars": "other", "is_variable_name": "other",
                       "negate": "other", "disj": "other",
                       "satisfiable": "other"},
    tracecause.counterfactual: {"cube": "other", "negate": "other"},
}


def _per_call(fn, n: int) -> float:
    """Median seconds per call of ``fn(0, 1)`` over five loops of ``n``
    calls; most wrapped functions take one or two arguments."""
    times = []
    for _ in range(5):
        start = perf_counter()
        for _ in repeat(None, n):
            fn(0, 1)
        times.append((perf_counter() - start) / n)
    return statistics.median(times)


class Tracer:
    """In-memory spans, guard counters and per-layer self time.

    Each wrapper adds a Python call, two clock reads and some bookkeeping
    to every call it records.  The tracer measures that cost once, on a
    function that does nothing (`_measure_costs`), as the added time per
    call and the part of it that falls between the wrapper's own clock
    reads.  Self times and inclusive times are reported with those costs
    taken out of the layer they land in, and their sum is reported as
    ``trace.overhead_s``.
    """

    def __init__(self, costs=None):
        self.spans = []          # (id, parent, name, layer, start, end, job)
        self.counters = []       # (job, end time, calls by counter) per job
        self.self_s = defaultdict(float)      # layer -> self seconds
        self.span_s = defaultdict(float)      # span name -> inclusive seconds
        self.span_calls = defaultdict(int)
        self.calls = defaultdict(int)         # guard counter -> calls
        self.call_s = defaultdict(float)      # guard counter -> seconds
        self.sums = defaultdict(int)          # work counts read off results
        self.job = None
        self.job_walls = []
        self.max_self_error = 0.0
        # Open spans: [id, layer, child seconds, overhead of direct
        # children outside their clock reads, overhead of all descendants].
        self._stack = []
        self._next = 0
        self._origin = perf_counter()
        self.call_cost, self.span_cost = costs or self._measure_costs()

    @staticmethod
    def _measure_costs():
        """(added, inside) seconds per call for a counted and a spanned
        wrapper around a function that does nothing."""
        def noop(a, b):
            return None

        probe = Tracer(costs=((0.0, 0.0), (0.0, 0.0)))
        probe._stack.append([None, "probe", 0.0, 0.0, 0.0])
        costs = []
        for wrap, n in ((probe.counted("probe", noop), 20000),
                        (probe.spanned("probe", "probe", noop), 5000)):
            bare = _per_call(noop, n)
            added = _per_call(wrap, n) - bare
            probe.call_s.clear()
            probe.calls.clear()
            probe.span_s.clear()
            probe.span_calls.clear()
            _per_call(wrap, n)
            recorded = (probe.call_s["probe"] + probe.span_s["probe"]) / (
                probe.calls["probe"] + probe.span_calls["probe"])
            inside = min(max(recorded - bare, 0.0), added)
            costs.append((added, inside))
        return tuple(costs)

    def _observe(self, name, args, result):
        if name == "product":
            self.sums["product_states"] += result.state_count
            self.sums["product_edges"] += result.edge_count
            self.sums["factor_bound"] += prod(a.state_count for a in args[0])
        elif name == "contains":
            self.sums["contains_pairs"] += result.pairs_explored
        elif name == "enumerate_with_stats":
            report, stats = result
            self.sums["evaluated"] += stats.evaluated
            self.sums["pruned"] += stats.pruned
            self.sums["minimal"] += len(report.minimal)
            self.sums["factor_slots"] += stats.evaluated * len(args[0].components)

    def spanned(self, layer: str, name: str, fn):
        added, inside = self.span_cost

        def traced(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = self._stack[-1] if self._stack else None
            frame = [sid, layer, 0.0, 0.0, 0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                duration = end - start
                _, _, child, direct, nested = frame
                self.self_s[layer] += duration - child - direct - inside
                self.span_s[name] += duration - nested - inside
                self.span_calls[name] += 1
                if parent is not None:
                    parent[2] += duration
                    parent[3] += added - inside
                    parent[4] += nested + added
                self.spans.append((sid, None if parent is None else parent[0],
                                   name, layer, start, end, self.job))
            self._observe(name, args, result)
            return result
        return traced

    def counted(self, counter: str, fn):
        added, inside = self.call_cost

        def traced(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                self.calls[counter] += 1
                self.call_s[counter] += duration - inside
                self.self_s["guards"] += duration - inside
                frame = self._stack[-1]
                frame[2] += duration
                frame[3] += added - inside
                frame[4] += added
        return traced

    def run_job(self, job: int, main, argv):
        """Call ``main(argv)`` as job ``job`` under a root ``cli`` span.
        The layers' self times of the job add up to the root span's time
        net of the tracer's estimated overhead; the largest miss is kept
        in ``max_self_error``."""
        self.job = job
        before = sum(self.self_s.values()), self.span_s["main"]
        try:
            return self.spanned("cli", "main", main)(argv)
        finally:
            _, _, _, _, start, end, _ = self.spans[-1]
            self.job_walls.append(end - start)
            error = abs(sum(self.self_s.values()) - before[0]
                        - (self.span_s["main"] - before[1]))
            self.max_self_error = max(self.max_self_error, error)
            self.counters.append((job, end, dict(self.calls)))

    @contextlib.contextmanager
    def instrument(self):
        """Rebind the cross-layer names for the duration of the block."""
        saved = []

        def rebind(owner, attr, new):
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

        try:
            for module, by_layer in _SPANNED.items():
                for layer, names in by_layer.items():
                    for name in names:
                        rebind(module, name, self.spanned(
                            layer, name, getattr(module, name)))
            for module, names in _COUNTED.items():
                for name, counter in names.items():
                    rebind(module, name, self.counted(
                        counter, getattr(module, name)))
            cls = tracecause.automata.SafetyAutomaton
            rebind(cls, "transition_table", self.spanned(
                "automata", "transition_table", cls.transition_table))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def metrics(self, scale: float = 1.0) -> dict:
        """Per-layer totals over every traced job: counts, and seconds net
        of the tracer's overhead, multiplied by ``scale``."""
        s, n, c = self.span_s, self.span_calls, self.sums
        wall = sum(self.job_walls)
        metrics = {
            "guards.parse_calls": self.calls["parse"],
            "guards.parse_s": self.call_s["parse"],
            "guards.canon_calls": self.calls["canon"],
            "guards.canon_s": self.call_s["canon"],
            "guards.eval_calls": self.calls["eval"],
            "guards.self_s": self.self_s["guards"],
            "automata.product_calls": n["product"],
            "automata.product_s": s["product"],
            "automata.product_states": c["product_states"],
            "automata.product_edges": c["product_edges"],
            "automata.state_bound_ratio":
                c["product_states"] / max(c["factor_bound"], 1),
            "automata.contains_s": s["contains"],
            "automata.contains_pairs": c["contains_pairs"],
            "automata.horizon_calls": sum(n[h] for h in HORIZON),
            "automata.horizon_s": sum(s[h] for h in HORIZON),
            "automata.table_s": s["transition_table"],
            "automata.wellformed_s": s["check_wellformed"],
            "automata.self_s": self.self_s["automata"],
            "model.parse_system_s": s["parse_system"],
            "model.validate_s": s["validate_system"],
            "model.faulty_s": s["faulty_components"],
            "model.self_s": self.self_s["model"],
            "counterfactual.builds": n["build_fault_model"],
            "counterfactual.build_s": s["build_fault_model"],
            "counterfactual.factor_reuse_ratio":
                1 - n["build_fault_model"] / max(c["factor_slots"], 1),
            "counterfactual.self_s": self.self_s["counterfactual"],
            "engine.enumerate_s": s["enumerate_with_stats"],
            "engine.self_s": self.self_s["engine"],
            "engine.subsets_evaluated": c["evaluated"],
            "engine.subsets_pruned": c["pruned"],
            "engine.evaluated_per_minimal":
                c["evaluated"] / max(c["minimal"], 1),
            "cli.self_s": self.self_s["cli"],
            "trace.job_wall_s": wall,
            "trace.overhead_s": wall - s["main"],
        }
        return {k: v * scale if k.endswith("_s") else v
                for k, v in metrics.items()}

    def write_chrome_trace(self, path: str) -> None:
        """Chrome trace-event JSON (opens in Perfetto): one complete event
        per span and one counter event per job with the guard calls."""
        def us(t):
            return round((t - self._origin) * 1e6, 3)

        events = [{"name": f"{layer}.{name}", "cat": layer, "ph": "X", "pid": 1, "tid": 1,
                   "ts": us(start), "dur": round((end - start) * 1e6, 3),
                   "args": {"id": sid, "parent": parent, "job": job}}
                  for sid, parent, name, layer, start, end, job in self.spans]
        events += [{"name": "guard calls", "ph": "C", "pid": 1, "tid": 1,
                    "ts": us(t), "args": calls}
                   for _, t, calls in self.counters]
        events.sort(key=lambda e: e["ts"])
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
