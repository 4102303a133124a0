"""Safety automata over Boolean variable valuations.

An automaton here is deterministic and complete, with absorbing bad
states; the accepted language (all finite traces whose run never enters a
bad state) is therefore prefix-closed, the canonical shape of a safety
property.  All operations are pure: automata are immutable after
construction and safe to share across threads (the only internal
mutations fill caches: per-scope edge rows and transition tables, and a
product's guarded edges; each fill is idempotent).

Guards are kept as given and printed canonicalized.  They meet letters
once per automaton, through `guards.guard_mask`, in the edge each state
takes on each letter of its own variables; `step`, wellformedness and
every transition table read those rows, and a wider scope reads each
letter's entry at its restriction.  A product never builds guards to
explore: it combines its members' edge rows and fills its transition
table as it goes.  Every search is one layered walk over transition
tables, of states or of pairs of states (`_layers`), and every witness
is spelled back through its layers (`_spell`).  No search builds a
product: `contains` and the horizon questions take a sequence of
automata and walk their product on the fly, reading its tuples'
successors off the members' tables (`_Tuples`).  A scope of n variables
has 2^n letters.

Valuation enumeration order is fixed everywhere: variables sorted by
name, valuations in binary counting order with the lexicographically
first variable as the most significant bit (letter i spells i in
binary).  Witness construction, product state discovery and all reported
traces inherit this order, so identical inputs always produce identical
outputs.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Hashable, Iterable, Iterator, Mapping, Sequence
from itertools import chain, islice, takewhile
from operator import getitem
from struct import unpack

from .errors import DomainMismatch
from .guards import (And, Guard, TRUE, canonicalize, guard_mask, guard_text,
                     guard_vars, is_variable_name)
from .guards import conj, guard_eval  # noqa: F401  (rebound by bench/tracing.py)
from .records import Record, setfield

State = Hashable


class Valuation(Mapping):
    """One letter of a trace: a total assignment of 0/1 to a variable set."""

    __slots__ = ("_items", "_map", "_hash")

    def __init__(self, assignment: Mapping[str, int]):
        items = []
        for name in sorted(assignment):
            if not is_variable_name(name):
                raise ValueError(f"illegal variable name: {name!r}")
            value = assignment[name]
            if value not in (0, 1):
                raise ValueError(f"{name} must be 0 or 1, got {value!r}")
            items.append((name, int(value)))
        self._init(tuple(items))

    def _init(self, items: tuple[tuple[str, int], ...]):
        self._items = items
        self._map = dict(items)
        self._hash = hash(items)

    @classmethod
    def _from_items(cls, items: tuple[tuple[str, int], ...]) -> "Valuation":
        v = cls.__new__(cls)
        v._init(items)
        return v

    @property
    def domain(self) -> frozenset[str]:
        return frozenset(self._map)

    def restrict(self, names: Iterable[str]) -> "Valuation":
        try:
            return Valuation._from_items(
                tuple((n, self._map[n]) for n in sorted(names)))
        except KeyError as e:
            raise DomainMismatch(
                f"valuation over {sorted(self._map)} lacks variable {e.args[0]}"
            ) from None

    def to_text(self) -> str:
        return " ".join(f"{n}={v}" for n, v in self._items)

    def __getitem__(self, name: str) -> int:
        return self._map[name]

    def __iter__(self):
        return iter(self._map)

    def __len__(self) -> int:
        return len(self._map)

    def __eq__(self, other) -> bool:
        if isinstance(other, Valuation):
            return self._items == other._items
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Valuation({{{self.to_text()}}})"


def _letter(names: tuple[str, ...], i: int) -> Valuation:
    """Valuation ``i`` of the sorted ``names`` in the canonical order."""
    n = len(names)
    return Valuation._from_items(
        tuple((names[j], (i >> (n - 1 - j)) & 1) for j in range(n)))


def enumerate_valuations(names: Iterable[str]) -> tuple[Valuation, ...]:
    """All valuations of ``names`` in the canonical (binary counting) order."""
    names = tuple(sorted(names))
    return tuple(_letter(names, i) for i in range(1 << len(names)))


class Trace(Sequence):
    """A finite sequence of valuations sharing one variable set.

    The empty trace is allowed (it belongs to every nonempty prefix-closed
    language) and has no domain of its own.
    """

    __slots__ = ("_steps",)

    def __init__(self, steps: Iterable[Valuation] = ()):
        steps = tuple(steps)
        if steps:
            dom = steps[0].domain
            for i, s in enumerate(steps):
                if s.domain != dom:
                    raise DomainMismatch(
                        f"trace step {i} has domain {sorted(s.domain)}, "
                        f"expected {sorted(dom)}")
        self._steps = steps

    @property
    def steps(self) -> tuple[Valuation, ...]:
        return self._steps

    @property
    def domain(self) -> frozenset[str] | None:
        return self._steps[0].domain if self._steps else None

    def restrict(self, names: Iterable[str]) -> "Trace":
        names = tuple(sorted(names))
        return Trace(s.restrict(names) for s in self._steps)

    def to_text(self) -> str:
        return "\n".join(s.to_text() for s in self._steps)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Trace(self._steps[i])
        return self._steps[i]

    def __len__(self) -> int:
        return len(self._steps)

    def __eq__(self, other) -> bool:
        if isinstance(other, Trace):
            return self._steps == other._steps
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._steps)

    def __repr__(self) -> str:
        return f"Trace({list(self._steps)!r})"


class RunResult(Record):
    """Outcome of running an automaton on a trace.

    ``first_violation_index`` is the first 0-based step whose target state
    is bad; it is None exactly when the trace is accepted.
    """

    __slots__ = ("accepted", "first_violation_index")

    def __init__(self, accepted: bool,
                 first_violation_index: int | None = None):
        setfield(self, "accepted", accepted)
        setfield(self, "first_violation_index", first_violation_index)


class Diagnostic(Record):
    """One wellformedness or validation finding; never an exception."""

    __slots__ = ("kind", "subject", "message", "witness")

    def __init__(self, kind: str, subject: str, message: str,
                 witness: Trace | None = None):
        setfield(self, "kind", kind)
        setfield(self, "subject", subject)
        setfield(self, "message", message)
        setfield(self, "witness", witness)


class ContainmentResult(Record):
    """Outcome of a language containment check L(a) <= L(b).

    When containment fails, ``witness`` is a shortest trace accepted by
    ``a`` and rejected by ``b``.  ``pairs_explored`` and ``bfs_depth``
    describe the synchronized-pair search that decided the question.
    """

    __slots__ = ("holds", "witness", "pairs_explored", "bfs_depth")

    def __init__(self, holds: bool, witness: Trace | None = None,
                 pairs_explored: int = 0, bfs_depth: int = 0):
        setfield(self, "holds", holds)
        setfield(self, "witness", witness)
        setfield(self, "pairs_explored", pairs_explored)
        setfield(self, "bfs_depth", bfs_depth)


class SafetyAutomaton:
    """Deterministic complete automaton with absorbing bad states.

    ``edges`` maps every state to an ordered tuple of (guard, target)
    pairs, the guards kept as given (serialization and diagnostics print
    them canonicalized).  Construction checks referential integrity and
    guard scope only; the semantic invariants (determinism, completeness,
    absorbing bad states, good initial state) are checked by
    `check_wellformed`, which reports diagnostics instead of raising so
    that counterexamples can name the offending state and rule.

    The edge masks over the automaton's own variables are computed once
    and cached; so are, per scope, the edge taken on each letter and the
    transition table.  A caller that already has the masks (the parser,
    which scans each guard over its owner's variables) hands them over
    as ``masks``, one per edge in edge order; a guard that has a mask over
    ``vars`` mentions no other variable, so its scope is not walked again.
    `product` fills its result's table while exploring.
    """

    __slots__ = ("vars", "states", "initial", "bad", "edges", "_masks",
                 "_targets", "_rows", "_tables")

    def __init__(self, vars: Iterable[str], states: Iterable[State],
                 initial: State, bad: Iterable[State],
                 edges: Mapping[State, Iterable[tuple[Guard, State]]],
                 masks: Mapping[State, Sequence[int]] | None = None):
        var_tuple = tuple(sorted(set(vars)))
        for name in var_tuple:
            if not is_variable_name(name):
                raise ValueError(f"illegal variable name: {name!r}")
        state_tuple = tuple(states)
        if not state_tuple:
            raise ValueError("automaton needs at least one state")
        state_set = set(state_tuple)
        if len(state_set) != len(state_tuple):
            raise ValueError("duplicate state ids")
        if initial not in state_set:
            raise ValueError(f"initial state {initial!r} not among states")
        bad_set = frozenset(bad)
        if not bad_set <= state_set:
            raise ValueError("bad states must be a subset of states")
        normalized: dict[State, tuple[tuple[Guard, State], ...]] = {}
        scope = frozenset(var_tuple)
        for q in state_tuple:
            normalized[q] = tuple((g, t) for g, t in edges.get(q, ()))
            for g, t in normalized[q]:
                if t not in state_set:
                    raise ValueError(f"edge from {q!r} targets unknown state {t!r}")
                if masks is not None:
                    continue
                extra = guard_vars(g) - scope
                if extra:
                    raise ValueError(
                        f"guard on edge from {q!r} mentions undeclared "
                        f"variable {sorted(extra)[0]!r}")
        unknown = set(edges) - state_set
        if unknown:
            raise ValueError(f"edges declared for unknown state {sorted(map(repr, unknown))[0]}")
        self.vars = var_tuple
        self.states = state_tuple
        self.initial = initial
        self.bad = bad_set
        self.edges = normalized
        self._masks: dict[State, tuple[int, ...]] | None = (
            None if masks is None
            else {q: tuple(masks[q]) for q in state_tuple})
        self._targets: dict[State, tuple[State, ...]] | None = None
        self._rows: dict[tuple[str, ...], dict] = {}  # see `_edge_rows`
        self._tables: dict[tuple[str, ...], dict] = {}

    @property
    def var_set(self) -> frozenset[str]:
        return frozenset(self.vars)

    @property
    def state_count(self) -> int:
        return len(self.states)

    @property
    def edge_count(self) -> int:
        return sum(len(v) for v in self.edges.values())

    def step(self, q: State, v: Mapping[str, int]) -> State:
        """Target of the first enabled edge from ``q`` on the restriction
        of ``v`` to ``vars``, read off the edge rows over ``vars``.  Raises
        `DomainMismatch` if ``v`` lacks one of ``vars``, and `RuntimeError`
        where no edge is enabled (the automaton is incomplete)."""
        i = 0
        for name in self.vars:
            if name not in v:
                raise DomainMismatch(f"valuation lacks variable {name!r}")
            i = i << 1 | v[name]
        k = self._edge_rows(self.vars)[q][i]
        if k is None:
            raise RuntimeError(
                f"no enabled edge from state {q!r} (automaton incomplete)")
        return self._edge_targets()[q][k]

    def _edge_targets(self) -> dict[State, tuple[State, ...]]:
        """Per state, the targets of its edges in edge order, the row an
        edge index of `_edge_rows` points into.  Cached."""
        if self._targets is None:
            self._targets = {q: tuple(t for _, t in es)
                             for q, es in self.edges.items()}
        return self._targets

    def _edge_rows(self, scope: tuple[str, ...]
                   ) -> dict[State, tuple[int | None, ...]]:
        """Per state, the index of the edge taken on each letter of the
        sorted ``scope`` (None where no edge is enabled); the first enabled
        edge wins.  Only the rows over ``vars`` read guards; a wider scope
        maps each letter to its restriction (`_projection`).  Cached."""
        rows = self._rows.get(scope)
        if rows is None:
            if not self.var_set <= set(scope):
                raise DomainMismatch(
                    f"scope {list(scope)} does not cover automaton variables "
                    f"{list(self.vars)}")
            if scope == self.vars:
                rows = self._rows[scope] = self._letter_rows()
            else:
                index = _projection(scope, self.var_set)
                rows = self._rows[scope] = {
                    q: tuple(map(r.__getitem__, index))
                    for q, r in self._edge_rows(self.vars).items()}
        return rows

    def _edge_masks(self) -> dict[State, tuple[int, ...]]:
        """Per state, the `guard_mask` of each edge over ``vars``.  Cached."""
        if self._masks is None:
            self._masks = {q: tuple(guard_mask(g, self.vars)
                                    for g, _ in self.edges[q])
                           for q in self.states}
        return self._masks

    def _letter_rows(self) -> dict[State, tuple[int | None, ...]]:
        """`_edge_rows` over ``vars`` uncached, from the edge masks, in
        time linear in the number of letters: each edge's letters are
        peeled off its mask one 64-bit word at a time (peeling the whole
        mask would copy a 2^n-bit integer per letter)."""
        masks = self._edge_masks()
        nletters = 1 << len(self.vars)
        rows = {}
        for q in self.states:
            row: list[int | None] = [None] * nletters
            free = (1 << nletters) - 1
            for k, m in enumerate(masks[q]):
                m &= free
                free ^= m
                words = (m,) if nletters <= 64 else unpack(
                    f"<{nletters >> 6}Q", m.to_bytes(nletters >> 3, "little"))
                for base, w in zip(range(-1, nletters, 64), words):
                    while w:
                        low = w & -w
                        row[base + low.bit_length()] = k
                        w ^= low
            rows[q] = tuple(row)
        return rows

    def transition_table(self, scope: Iterable[str]) -> dict[State, tuple[State, ...]]:
        """Per-state successor rows indexed by the canonical valuation order
        of ``scope`` (which must cover the automaton's variables), read
        off the edge rows.  Cached per scope: every call with the same
        scope returns the same dict, which callers must not modify."""
        scope = tuple(sorted(scope))
        tbl = self._tables.get(scope)
        if tbl is None:
            rows = self._edge_rows(scope)
            targets = self._edge_targets()
            tbl = {}
            for q in self.states:
                if None in rows[q]:
                    raise RuntimeError(f"no enabled edge from state {q!r} "
                                       "(automaton incomplete)")
                tbl[q] = tuple(map(targets[q].__getitem__, rows[q]))
            self._tables[scope] = tbl
        return tbl

    def __eq__(self, other) -> bool:
        if isinstance(other, SafetyAutomaton):
            return (self.vars == other.vars and self.states == other.states
                    and self.initial == other.initial and self.bad == other.bad
                    and self.edges == other.edges)
        return NotImplemented

    __hash__ = None  # mutable cache inside; identity hashing would mislead

    def __repr__(self) -> str:
        return (f"SafetyAutomaton(vars={list(self.vars)}, "
                f"states={self.state_count}, bad={len(self.bad)})")


def _projection(scope: tuple[str, ...], names: frozenset[str]) -> list[int]:
    """For each letter of the sorted ``scope``, the index of its restriction
    to ``names``: each variable, from the last up, doubles the list."""
    index, bit = [0], 1
    for name in reversed(scope):
        if name in names:
            index += [i + bit for i in index]
            bit <<= 1
        else:
            index += index
    return index


def universal_automaton(vars: Iterable[str]) -> SafetyAutomaton:
    """The automaton accepting every trace over ``vars``."""
    return SafetyAutomaton(vars, ["ok"], "ok", [], {"ok": [(TRUE, "ok")]})


def check_wellformed(a: SafetyAutomaton) -> list[Diagnostic]:
    """Check determinism, completeness, absorbing bad states and a good
    initial state; returns one diagnostic per state and violated rule.

    Determinism and completeness are decided on the edge masks of each
    state; a diagnostic names the first offending valuation.
    """
    diags: list[Diagnostic] = []
    full = (1 << (1 << len(a.vars))) - 1
    masks = a._edge_masks()
    for q in a.states:
        covered = overlap = 0
        for m in masks[q]:
            overlap |= covered & m
            covered |= m
        for kind, what, hits in (("nondeterministic-state", "several edges",
                                  overlap),
                                 ("incomplete-state", "no edge",
                                  full & ~covered)):
            if hits:
                hit = _letter(a.vars, (hits & -hits).bit_length() - 1)
                diags.append(Diagnostic(kind, str(q), (
                    f"state {q!r}: {what} enabled on "
                    f"{hit.to_text() or 'the empty valuation'}")))
        if q in a.bad:
            for g, t in a.edges[q]:
                if t not in a.bad:
                    diags.append(Diagnostic(
                        "non-absorbing-bad", str(q),
                        f"bad state {q!r} has an edge to good state {t!r} "
                        f"(guard {guard_text(canonicalize(g))})"))
                    break
    if a.initial in a.bad:
        diags.append(Diagnostic(
            "bad-initial", str(a.initial),
            f"initial state {a.initial!r} is bad; the language would be empty"))
    return diags


def run(a: SafetyAutomaton, t: Trace) -> RunResult:
    """Simulate the unique run of ``a`` on ``t``.

    Extra trace variables are ignored (implicit cylindrification); the
    trace domain must cover the automaton's variables (`step`).
    """
    q = a.initial
    for i, v in enumerate(t):
        q = a.step(q, v)
        if q in a.bad:
            return RunResult(False, i)
    return RunResult(True, None)


class _Product(SafetyAutomaton):
    """A reachable product kept as its members and, per state, the
    successor of each tuple of member edges taken together on some letter
    (lexicographic order).  That is all its edge count, edge rows and
    transition tables need; the guarded edges are built from the members
    on first access."""

    __slots__ = ("_members", "_succ", "_edges")

    @property
    def edges(self) -> dict[State, tuple[tuple[Guard, State], ...]]:
        if self._edges is None:
            member_edges = [a.edges for a in self._members]
            self._edges = {
                s: tuple((And(tuple(e[q][k][0] for e, q, k
                                    in zip(member_edges, s, combo))), t)
                         for combo, t in succ.items())
                for s, succ in self._succ.items()}
        return self._edges

    @property
    def edge_count(self) -> int:
        return sum(map(len, self._succ.values()))

    def _edge_targets(self) -> dict[State, tuple[State, ...]]:
        if self._targets is None:
            self._targets = {s: tuple(succ.values())
                             for s, succ in self._succ.items()}
        return self._targets

    def _letter_rows(self) -> dict[State, tuple[int | None, ...]]:
        """Edge rows from the members' rows: the edge taken on a letter is
        the rank of the tuple of member edges taken on it."""
        member_rows = [a._edge_rows(self.vars) for a in self._members]
        rows = {}
        for s, succ in self._succ.items():
            index = {combo: k for k, combo in enumerate(succ)}
            rows[s] = tuple(map(index.get, zip(
                *[r[q] for r, q in zip(member_rows, s)])))
        return rows


def product(automata: Sequence[SafetyAutomaton]) -> SafetyAutomaton:
    """Synchronized product over the union variable scope.

    States are the reachable tuples of member states, a tuple being bad
    iff any coordinate is.  The exploration reads only the members' edge
    rows: the successor on a letter is the tuple of the targets of the
    member edges taken on it, and the product's transition table over the
    union scope is filled as states are found.  Its edges, one per tuple
    of member edges taken together on some letter, in lexicographic
    order and guarded by the plain conjunction of the member guards, are
    built only when ``edges`` is read.  Each member follows its first
    enabled edge; on a letter where some member has none, the product
    state has none either.  Since every guard mentions only its own
    automaton's variables, this realizes intersection of the inverse-
    projected (cylindrified) languages with no extra construction.
    """
    if not automata:
        raise ValueError("product of zero automata is undefined")
    scope = tuple(sorted(set().union(*(a.var_set for a in automata))))
    member_rows = [a._edge_rows(scope) for a in automata]
    member_targets = [a._edge_targets() for a in automata]
    partial = any(None in row for rows in member_rows for row in rows.values())

    init = tuple(a.initial for a in automata)
    # Reachable states in discovery order, each with its successor per
    # tuple of member edges (None until the state is explored).
    succ_of: dict[State, dict | None] = {init: None}
    table: dict[State, tuple[State | None, ...]] = {}
    queue = deque([init])
    while queue:
        s = queue.popleft()
        # Member edge indices taken on each letter; None marks a letter on
        # which some member has no edge.
        taken = list(zip(*[r[q] for r, q in zip(member_rows, s)]))
        targets = [t[q] for t, q in zip(member_targets, s)]
        combos = set(taken)
        if partial:
            combos = [c for c in combos if None not in c]
        succ = {}
        for combo in sorted(combos):
            t = succ[combo] = tuple(map(getitem, targets, combo))
            if t not in succ_of:
                succ_of[t] = None
                queue.append(t)
        succ_of[s] = succ
        table[s] = tuple(map(succ.get, taken))

    # Built in place: the parts are already normalized and checked.
    p = _Product.__new__(_Product)
    p.vars, p.states, p.initial = scope, tuple(succ_of), init
    bads = [a.bad for a in automata]
    p.bad = frozenset(s for s in succ_of
                      if any(map(frozenset.__contains__, bads, s)))
    p._members, p._succ, p._edges = tuple(automata), succ_of, None
    p._masks, p._targets, p._rows = None, None, {}
    # An incomplete product gets its table (which raises) the usual way.
    incomplete = partial and any(None in row for row in table.values())
    p._tables = {} if incomplete else {scope: table}
    return p


def _layers(start: State, row, drop) -> Iterator[dict[State, None]]:
    """The states reached from ``start`` by exactly k steps, for k = 0, 1,
    ...: each layer a dict in discovery order, the entries of ``row(q)``
    for each state q of the layer before, in order.  ``drop(layer)``
    gives, as a new collection, the states a layer loses (its bad ones)
    before it is yielded.
    An empty layer stays empty; callers decide when to stop."""
    layer = {start: None}
    while True:
        for q in drop(layer):
            del layer[q]
        yield layer
        layer = dict.fromkeys(chain.from_iterable(map(row, layer)))


def _nonempty_at(layers: Iterator[dict], h: int) -> bool:
    """Whether layer ``h`` of ``layers`` is nonempty.  The layer sequence
    is eventually periodic and an empty layer stays empty, so once a layer
    repeats, every later layer is empty exactly when it is: the walk stops
    there instead of iterating a huge horizon."""
    if h < 0:
        raise ValueError("length must be nonnegative")
    seen = set()
    for k, layer in enumerate(layers):
        key = frozenset(layer)
        if k == h or key in seen:
            return bool(key)
        seen.add(key)


def _spell(layers: list, row, scope: tuple[str, ...]) -> Trace:
    """The trace over ``scope`` that leads from layer 0 of ``layers`` to
    the first state of the last one.  Walking back, a state's predecessor
    is the first state of the layer before whose ``row`` reaches it, on
    the first letter that does: the state and letter that discovered it."""
    cur = next(iter(layers[-1]))
    letters = []
    for layer in reversed(layers[:-1]):
        for q in layer:
            r = row(q)
            if cur in r:
                letters.append(_letter(scope, r.index(cur)))
                cur = q
                break
    return Trace(reversed(letters))


def _members(a: Sequence[SafetyAutomaton]) -> tuple[SafetyAutomaton, ...]:
    members = tuple(a)
    if not members:
        raise ValueError("product of zero automata is undefined")
    return members


class _Tuples:
    """The tuples of the members' states, for a search that walks their
    product without building it (`contains` and the horizon walks):
    ``t[q]`` pairs up the successors of tuple ``q`` on each letter of
    ``scope`` (the row the product's table would hold), and ``q in t``
    tells whether a coordinate of ``q`` is bad (whether the product's
    state is)."""

    __slots__ = ("_tables", "_bads")

    def __init__(self, members: Sequence[SafetyAutomaton],
                 scope: tuple[str, ...]):
        self._tables = [m.transition_table(scope) for m in members]
        self._bads = [m.bad for m in members]

    def __getitem__(self, q: tuple) -> Iterator[tuple]:
        return zip(*map(getitem, self._tables, q))

    def __contains__(self, q: tuple) -> bool:
        return any(map(frozenset.__contains__, self._bads, q))


def contains(a: SafetyAutomaton | Sequence[SafetyAutomaton],
             b: SafetyAutomaton) -> ContainmentResult:
    """Decide L(a) <= L(b) over the union scope by synchronized BFS.

    Walks pairs one layer at a time, each pair visited once, to a
    shortest reachable pair good in ``a`` and bad in ``b``.  Pairs bad in
    ``a`` are counted but not expanded: bad states are absorbing, so no
    witness extends them.  The witness is spelled back through the
    expanded layers (`_spell`).

    ``a`` may also be a nonempty sequence of automata, standing for their
    `product`, which is not built: its states are then tuples of member
    states, their successors read off the members' transition tables
    (`_Tuples`), so no tuple with a bad coordinate is expanded, and
    every field of the result equals that of ``contains(product(a),
    b)``.  Only an incomplete member differs: it raises, as its table
    does, even where the product would never reach its missing edge.
    """
    if isinstance(a, SafetyAutomaton):
        scope = tuple(sorted(a.var_set | b.var_set))
        start, ta, bad_a = a.initial, a.transition_table(scope), a.bad
    else:
        members = _members(a)
        scope = tuple(sorted(b.var_set.union(*(m.vars for m in members))))
        start = tuple(m.initial for m in members)
        ta = bad_a = _Tuples(members, scope)
    tb, bad_b = b.transition_table(scope), b.bad

    def row(p):
        return list(zip(ta[p[0]], tb[p[1]]))

    seen = {(start, b.initial)}
    layer = list(seen)  # the pairs first reached in len(expanded) steps
    expanded: list[list] = []  # the pairs expanded at each smaller depth
    while layer:
        for k, (qa, qb) in enumerate(layer):
            if qa not in bad_a and qb in bad_b:
                return ContainmentResult(
                    False, _spell(expanded + [[(qa, qb)]], row, scope),
                    len(seen) - len(layer) + k + 1, len(expanded))
        expanded.append([p for p in layer if p[0] not in bad_a])
        reached = dict.fromkeys(chain.from_iterable(map(row, expanded[-1])))
        layer = [p for p in reached if p not in seen]
        seen.update(layer)
    return ContainmentResult(True, None, len(seen), len(expanded) - 1)


def _walk(a: SafetyAutomaton | Sequence[SafetyAutomaton]):
    """The start state, the successor ``row``, the ``drop`` of `_layers`
    and the scope of a horizon walk of ``a``: of one automaton over its
    own variables, or of a nonempty sequence of automata over their
    union scope, its states the tuples of member states (`_Tuples`)."""
    if isinstance(a, SafetyAutomaton):
        table = a.transition_table(a.vars)
        return a.initial, table.__getitem__, a.bad.intersection, a.vars
    members = _members(a)
    scope = tuple(sorted(set().union(*(m.vars for m in members))))
    tuples = _Tuples(members, scope)
    return (tuple(m.initial for m in members), tuples.__getitem__,
            lambda layer: [q for q in layer if q in tuples], scope)


def has_trace_of_length(a: SafetyAutomaton | Sequence[SafetyAutomaton],
                        h: int) -> bool:
    """True iff some trace of length exactly ``h`` is accepted, decided by
    h-step forward reachability through good states.

    ``a`` may also be a nonempty sequence of automata, standing for their
    `product`, which is not built: the walk goes over tuples of member
    states, their successors read off the members' transition tables at
    the union scope (`_Tuples`), and drops every tuple with a bad
    coordinate.  So ``has_trace_of_length((a, b), h)`` asks whether some
    trace of length ``h`` is accepted by both.  The answer equals that of
    ``has_trace_of_length(product(a), h)``, except that an incomplete
    member raises, as in `contains`."""
    start, row, drop, _ = _walk(a)
    return _nonempty_at(_layers(start, row, drop), h)


def find_trace_of_length(a: SafetyAutomaton | Sequence[SafetyAutomaton],
                         h: int) -> Trace | None:
    """A deterministic accepted trace of length exactly ``h``, or None.

    The layered walk of `has_trace_of_length` runs to layer ``h`` (or to
    its first empty layer), and the first state of layer ``h`` is spelled
    back to the initial state (`_spell`).  All h + 1 layers are kept, so
    the horizon should be modest (it is the error-trace length in
    practice).

    ``a`` may also be a nonempty sequence of automata, walked as in
    `has_trace_of_length` without building their `product`; the layers
    and the speller are the same, so the witness equals that of
    ``find_trace_of_length(product(a), h)``.  For a sequence, h = 0 and
    a bad initial tuple are answered before any table is built, so an
    incomplete member raises only on a walk of at least one step.
    """
    if h < 0:
        raise ValueError("length must be nonnegative")
    if not isinstance(a, SafetyAutomaton):
        a = _members(a)
        if any(m.initial in m.bad for m in a):
            return None
        if h == 0:
            return Trace()
    start, row, drop, scope = _walk(a)
    layers = list(islice(takewhile(bool, _layers(start, row, drop)), h + 1))
    if len(layers) <= h:
        return None
    return _spell(layers, lambda q: tuple(row(q)), scope)


def has_joint_trace_of_length(a: SafetyAutomaton, b: SafetyAutomaton,
                              h: int) -> bool:
    """True iff some trace of length exactly ``h`` is accepted by both
    automata: ``has_trace_of_length((a, b), h)``."""
    return has_trace_of_length((a, b), h)
