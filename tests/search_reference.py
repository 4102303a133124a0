"""Reference searches for the differential tests of `tracecause.automata`.

These are the earlier, separately written loops: a queue BFS with parent
pointers and a depth per pair for `contains`, per-layer parent dicts for
`find_trace_of_length`, and a frozenset frontier with a repeated-layer
stop for the two horizon questions.  The package's single layered walk
and backward speller must give exactly their results, counters and
witnesses included.  Like the horizon questions, `find_trace_of_length`
builds the transition table before anything else, so an incomplete
automaton raises for every length, 0 included.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from tracecause.automata import (ContainmentResult, SafetyAutomaton, Trace,
                                 _letter)


def contains(a: SafetyAutomaton, b: SafetyAutomaton) -> ContainmentResult:
    scope = tuple(sorted(a.var_set | b.var_set))
    nletters = 1 << len(scope)
    ta = a.transition_table(scope)
    tb = b.transition_table(scope)

    start = (a.initial, b.initial)
    if a.initial not in a.bad and b.initial in b.bad:
        return ContainmentResult(False, Trace(()), 1, 0)
    parents = {start: None}
    depth = {start: 0}
    max_depth = 0
    queue = deque([start])
    while queue:
        pair = queue.popleft()
        qa, qb = pair
        if qa in a.bad:
            continue
        rowa, rowb = ta[qa], tb[qb]
        d = depth[pair]
        for i in range(nletters):
            nxt = (rowa[i], rowb[i])
            if nxt in parents:
                continue
            parents[nxt] = (pair, i)
            depth[nxt] = d + 1
            max_depth = max(max_depth, d + 1)
            if nxt[0] not in a.bad and nxt[1] in b.bad:
                letters = []
                cur = nxt
                while parents[cur] is not None:
                    prev, idx = parents[cur]
                    letters.append(_letter(scope, idx))
                    cur = prev
                letters.reverse()
                return ContainmentResult(False, Trace(letters),
                                         len(parents), d + 1)
            queue.append(nxt)
    return ContainmentResult(True, None, len(parents), max_depth)


def _has_path_of_length(start, successors, good, h: int) -> bool:
    if h < 0:
        raise ValueError("length must be nonnegative")
    layer = good(frozenset((start,)))
    seen = set()
    for _ in range(h):
        if layer in seen:
            break
        seen.add(layer)
        layer = good(frozenset().union(*map(successors, layer)))
    return bool(layer)


def has_trace_of_length(a: SafetyAutomaton, h: int) -> bool:
    table, bad = a.transition_table(a.vars), a.bad
    return _has_path_of_length(a.initial, table.__getitem__,
                               lambda qs: qs - bad, h)


def has_joint_trace_of_length(a: SafetyAutomaton, b: SafetyAutomaton,
                              h: int) -> bool:
    scope = tuple(sorted(a.var_set | b.var_set))
    ta, tb = a.transition_table(scope), b.transition_table(scope)
    bad_a, bad_b = a.bad, b.bad
    return _has_path_of_length(
        (a.initial, b.initial), lambda p: zip(ta[p[0]], tb[p[1]]),
        lambda ps: frozenset(p for p in ps
                             if p[0] not in bad_a and p[1] not in bad_b), h)


def find_trace_of_length(a: SafetyAutomaton, h: int) -> Optional[Trace]:
    if h < 0:
        raise ValueError("length must be nonnegative")
    table = a.transition_table(a.vars)
    if a.initial in a.bad:
        return None
    if h == 0:
        return Trace(())
    layers = [{a.initial: None}]
    for _ in range(h):
        cur = {}
        for q in layers[-1]:
            for i, t in enumerate(table[q]):
                if t not in a.bad and t not in cur:
                    cur[t] = (q, i)
        if not cur:
            return None
        layers.append(cur)
    end = next(iter(layers[h]))
    letters = []
    cur_state = end
    for k in range(h, 0, -1):
        prev, idx = layers[k][cur_state]
        letters.append(_letter(a.vars, idx))
        cur_state = prev
    letters.reverse()
    return Trace(letters)
