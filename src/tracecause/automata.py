"""Safety automata over Boolean variable valuations.

An automaton here is deterministic and complete, with absorbing bad
states; the accepted language (all finite traces whose run never enters a
bad state) is therefore prefix-closed, the canonical shape of a safety
property.  All operations are pure: automata are immutable after
construction and safe to share across threads (the only internal
mutations fill caches: per-scope letter classes, edge rows and
transition tables, and guarded edges built on first read; each fill is
idempotent).

Guards are kept as given and printed canonicalized.  They meet letters
once, at construction, which fixes each edge's mask over the
automaton's own variables (`guards.guard_mask`; `from_masks`, as the
parser and the observed fault models build theirs, takes the masks as
given and builds no guard until ``edges`` is read, which only printing
does).  Everything per letter is derived from the masks.  The letter
classes, one disjoint mask per edge taken, the first enabled edge
winning (the minterms of symbolic automata), decide the edge each
state takes on each letter, over any scope; the edge rows over a
scope, the target taken on each of its letters, are read off them, and
`step` and every transition table read the rows.  A product's masks are
its branches, the members' classes AND-ed member by member
(`_branches`), of which exploring keeps only the target tuples; its
guards are read off the members' classes only when printed.  No search
builds a product: every search walks tuples of member states one layer
at a time through one step (`_Space`), an automaton as a sequence of
one, a built product as its members, and the spec of `contains` as one
more coordinate; every witness is spelled back through its layers
(`_spell`).  So any incomplete member refuses a search, as its table
does.  A scope of n variables has 2^n letters.

Valuation enumeration order is fixed everywhere: variables sorted by
name, valuations in binary counting order with the lexicographically
first variable as the most significant bit (letter i spells i in
binary).  Witness construction, product state discovery and all reported
traces inherit this order, so identical inputs always produce identical
outputs.
"""

from __future__ import annotations

from collections import deque
from collections.abc import (Callable, Hashable, Iterable, Iterator, Mapping,
                             Sequence)
from itertools import chain, compress, filterfalse, islice, takewhile
from operator import getitem

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
        return self._restrict(tuple(sorted(names)))

    def _restrict(self, names: tuple[str, ...]) -> "Valuation":
        """`restrict` to the already sorted ``names``."""
        try:
            return Valuation._from_items(
                tuple(zip(names, map(self._map.__getitem__, names))))
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

    def __reduce__(self):
        # The hash of a string depends on the process's hash seed, so a
        # loaded valuation hashes afresh instead of keeping the cached one.
        return Valuation._from_items, (self._items,)

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

    @classmethod
    def _from_steps(cls, steps: tuple[Valuation, ...]) -> "Trace":
        """The trace of ``steps``, known to share one domain."""
        t = cls.__new__(cls)
        t._steps = steps
        return t

    @property
    def steps(self) -> tuple[Valuation, ...]:
        return self._steps

    @property
    def domain(self) -> frozenset[str] | None:
        return self._steps[0].domain if self._steps else None

    def restrict(self, names: Iterable[str]) -> "Trace":
        """Each step restricted to ``names``, sorted once; the steps then
        share one domain, which is not checked again."""
        names = tuple(sorted(names))
        return Trace._from_steps(tuple(s._restrict(names) for s in self._steps))

    def to_text(self) -> str:
        return "\n".join(s.to_text() for s in self._steps)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Trace._from_steps(self._steps[i])
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

    Each edge's mask over the automaton's own variables is fixed at
    construction, and everything per letter is derived from the masks:
    per scope, the letter classes, the edge rows read off them (the
    target taken on each letter, None where no edge is enabled) and the
    transition table are cached.  A caller
    that already has the masks (the parser, which scans each guard over
    its owner's variables) builds the automaton with `from_masks`; its
    guards are then built when ``edges`` is first read, and nothing but
    printing waits for them.
    """

    __slots__ = ("vars", "states", "initial", "bad", "_targets", "_edges",
                 "_guards", "_masks", "_classes", "_rows", "_tables")

    def __init__(self, vars: Iterable[str], states: Iterable[State],
                 initial: State, bad: Iterable[State],
                 edges: Mapping[State, Iterable[tuple[Guard, State]]]):
        vars = tuple(sorted(set(vars)))
        normalized = {q: tuple((g, t) for g, t in e) for q, e in edges.items()}
        for q, e in normalized.items():
            for g, _ in e:
                extra = guard_vars(g).difference(vars)
                if extra:
                    raise ValueError(
                        f"guard on edge from {q!r} mentions undeclared "
                        f"variable {sorted(extra)[0]!r}")
        self._init(vars, states, initial, bad,
                   {q: tuple(t for _, t in e) for q, e in normalized.items()},
                   {q: tuple(guard_mask(g, vars) for g, _ in e)
                    for q, e in normalized.items()})
        self._edges = {q: normalized.get(q, ()) for q in self.states}
        self._guards = None

    @classmethod
    def from_masks(cls, vars: Iterable[str], states: Iterable[State],
                   initial: State, bad: Iterable[State],
                   targets: Mapping[State, Sequence[State]],
                   masks: Mapping[State, Sequence[int]],
                   guards: Callable[[], Mapping[State, Sequence[Guard]]]
                   ) -> "SafetyAutomaton":
        """The automaton whose edges leave each state for ``targets``, in
        order, on the letters of ``vars`` that ``masks`` gives, one mask
        per edge: what the search, tables and `check_wellformed` read.
        A guard that has a mask over ``vars`` mentions no other variable,
        so no scope is checked.  ``guards()`` gives each state's guards
        in the same order, one per edge, and is called when ``edges`` is
        first read; the automaton keeps it, so it must not refer back to
        the automaton (and must pickle where the automaton is pickled)."""
        a = cls.__new__(cls)
        a._init(vars, states, initial, bad, targets, masks)
        a._edges, a._guards = None, guards
        return a

    def _init(self, vars: Iterable[str], states: Iterable[State],
              initial: State, bad: Iterable[State],
              targets: Mapping[State, Sequence[State]],
              masks: Mapping[State, Sequence[int]]) -> None:
        """Check and set everything but the guards."""
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
        normalized: dict[State, tuple[State, ...]] = {}
        for q in state_tuple:
            normalized[q] = tuple(targets.get(q, ()))
            for t in normalized[q]:
                if t not in state_set:
                    raise ValueError(f"edge from {q!r} targets unknown state {t!r}")
            if len(masks.get(q, ())) != len(normalized[q]):
                raise ValueError(f"state {q!r} needs one mask per edge target")
        unknown = set(targets) - state_set
        if unknown:
            raise ValueError(f"edges declared for unknown state {sorted(map(repr, unknown))[0]}")
        self.vars = var_tuple
        self.states = state_tuple
        self.initial = initial
        self.bad = bad_set
        self._targets = normalized
        self._masks = {q: tuple(masks.get(q, ())) for q in state_tuple}
        self._classes: dict[tuple[str, ...], dict] = {}  # see `_edge_classes`
        self._rows: dict[tuple[str, ...], dict] = {}  # see `_edge_rows`
        self._tables: dict[tuple[str, ...], dict] = {}

    @property
    def edges(self) -> dict[State, tuple[tuple[Guard, State], ...]]:
        if self._edges is None:
            self._edges = self._guarded_edges()
        return self._edges

    def _guarded_edges(self) -> dict[State, tuple[tuple[Guard, State], ...]]:
        """The edges of an automaton built `from_masks`, on first read."""
        guards = self._guards()
        for q, ts in self._targets.items():
            if len(guards.get(q, ())) != len(ts):
                raise ValueError(f"state {q!r} needs one guard per edge target")
        return {q: tuple(zip(guards.get(q, ()), ts))
                for q, ts in self._targets.items()}

    @property
    def var_set(self) -> frozenset[str]:
        return frozenset(self.vars)

    @property
    def state_count(self) -> int:
        return len(self.states)

    @property
    def edge_count(self) -> int:
        return sum(map(len, self._targets.values()))

    def step(self, q: State, v: Mapping[str, int]) -> State:
        """Target of the first enabled edge from ``q`` on the restriction
        of ``v`` to ``vars``, read off the edge rows.  Raises
        `DomainMismatch` if ``v`` lacks one of ``vars``, and `RuntimeError`
        where no edge is enabled (the automaton is incomplete)."""
        i = 0
        for name in self.vars:
            if name not in v:
                raise DomainMismatch(f"valuation lacks variable {name!r}")
            i = i << 1 | v[name]
        t = self._edge_rows()[q][i]
        if t is None:
            raise RuntimeError(
                f"no enabled edge from state {q!r} (automaton incomplete)")
        return t

    def _edge_rows(self, scope: tuple[str, ...] | None = None
                   ) -> dict[State, tuple[State | None, ...]]:
        """Per state, the target taken on each letter of the sorted
        ``scope``, ``vars`` by default (None where no edge is enabled),
        peeled off the letter classes over ``scope`` in time linear in
        the number of letters: each class's mask is spelled in binary
        once, its zero digits made zero bytes, and the letters of its one
        digits picked out (`compress`).  Cached per scope."""
        if scope is None:
            scope = self.vars
        rows = self._rows.get(scope)
        if rows is None:
            nletters = 1 << len(scope)
            # The letters of a mask's binary digits, most significant first.
            letters = range(nletters - 1, -1, -1)
            zero = bytes.maketrans(b"0", b"\0")
            rows = {}
            for q, classes in self._edge_classes(scope).items():
                row: list[State | None] = [None] * nletters
                for _, (t,), m in classes:
                    digits = format(m, f"0{nletters}b").encode()
                    for i in compress(letters, digits.translate(zero)):
                        row[i] = t
                rows[q] = tuple(row)
            self._rows[scope] = rows
        return rows

    def _edge_masks(self) -> dict[State, tuple[int, ...]]:
        """Per state, the mask of each edge over ``vars``, fixed at
        construction."""
        return self._masks

    def _edge_classes(self, scope: tuple[str, ...]) -> dict[State, tuple]:
        """Per state, each edge taken on some letter of the sorted
        ``scope``, in edge order, as (edge index, target, mask of those
        letters), index and target as 1-tuples, so that a branch of
        `_branches` grows by concatenation.  The classes are pairwise
        disjoint, the first enabled edge winning: over ``vars`` each
        edge keeps the letters of its mask that no earlier edge takes,
        the one place that decides the edge a state takes on a letter,
        and the edge rows are read off them.  A wider scope lifts each
        of those classes to it (`_projection`).  Cached."""
        classes = self._classes.get(scope)
        if classes is None:
            if scope == self.vars:
                masks, classes = self._edge_masks(), {}
                for q, targets in self._targets.items():
                    free, c = (1 << (1 << len(scope))) - 1, []
                    for k, (m, t) in enumerate(zip(masks[q], targets)):
                        m &= free
                        if m:
                            free ^= m
                            c.append(((k,), (t,), m))
                    classes[q] = tuple(c)
            else:
                # Letter i of ``scope`` takes bit index[i] of an own mask;
                # int() reads the lifted bits most significant first.
                index = _projection(scope, self.var_set)[::-1]
                width = 1 << len(self.vars)

                def lift(m):
                    bits = format(m, f"0{width}b")[::-1]
                    return int("".join(map(bits.__getitem__, index)), 2)

                classes = {q: tuple((k, t, lift(m)) for k, t, m in c)
                           for q, c in self._edge_classes(self.vars).items()}
            self._classes[scope] = classes
        return classes

    def transition_table(self, scope: Iterable[str]) -> dict[State, tuple[State, ...]]:
        """Per-state successor rows indexed by the canonical valuation order
        of ``scope`` (which must cover the automaton's variables): the
        edge rows over ``scope``, checked to leave no letter without a
        target.  Cached per scope: every call with the same scope returns
        the same dict, which callers must not modify."""
        scope = tuple(sorted(scope))
        tbl = self._tables.get(scope)
        if tbl is None:
            if not self.var_set <= set(scope):
                raise DomainMismatch(
                    f"scope {list(scope)} does not cover automaton variables "
                    f"{list(self.vars)}")
            tbl = self._edge_rows(scope)
            for q, row in tbl.items():
                if None in row:
                    raise RuntimeError(f"no enabled edge from state {q!r} "
                                       "(automaton incomplete)")
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
            for k, t in enumerate(a._targets[q]):
                if t not in a.bad:
                    g = a.edges[q][k][0]
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
    target tuple of each tuple of member edges taken together on some
    letter (lexicographic order), which are its edges' targets.  Its
    edge masks are its branches (`_branches`), found again whenever they
    are read, and everything else per letter is derived from them as for
    any automaton.  The guarded edges are built from the members on
    first access, each member's edge recovered from its letter classes.
    A search walks it as its members (`_Space`), reading neither a row
    nor the bad set of the product."""

    __slots__ = ("_members",)

    def _edge_masks(self) -> dict[State, tuple[int, ...]]:
        """Per state, the mask of each branch, in the order of its
        targets."""
        classes = [a._edge_classes(self.vars) for a in self._members]
        full = (1 << (1 << len(self.vars))) - 1
        return {s: tuple([m for _, m in _branches(classes, s, full)])
                for s in self.states}

    def _guarded_edges(self) -> dict[State, tuple[tuple[Guard, State], ...]]:
        """Each edge conjoins, member by member, the guard of the member
        edge whose letter class holds the least letter of the edge's."""
        classes = [a._edge_classes(self.vars) for a in self._members]
        member_edges = [a.edges for a in self._members]
        return {s: tuple((And(tuple(
                    e[q][next(k for (k,), _, c in cs[q] if c & m & -m)][0]
                    for e, cs, q in zip(member_edges, classes, s))), ts)
                    for ts, m in zip(self._targets[s], masks))
                for s, masks in self._edge_masks().items()}


def _union(automata: Iterable[SafetyAutomaton],
           last: SafetyAutomaton | None = None
           ) -> tuple[tuple[SafetyAutomaton, ...], tuple[str, ...]]:
    """The members of a product, as a tuple, then ``last`` if given, and
    the sorted union of their variables: the scope of their letters."""
    members = tuple(automata)
    if not members:
        raise ValueError("product of zero automata is undefined")
    if last is not None:
        members += (last,)
    return members, tuple(sorted(set().union(*(m.vars for m in members))))


def _branches(classes: Sequence[Mapping], s: tuple, full: int
              ) -> list[tuple[tuple, int]]:
    """The target tuple and the mask of letters of each tuple of edges that
    the states ``s`` of some automata take together on some letter, in
    lexicographic order of those tuples of edges.  Automaton by
    automaton, each of its state's letter classes (``classes``, from
    `_edge_classes` over one scope) splits every branch so far, and a
    branch whose mask is empty is dropped at once.  A state whose one
    class holds every letter (``full``), such as an absorbing sink or a
    ``true`` self-loop, extends each branch with its target unsplit."""
    cs = map(getitem, classes, s)
    branches = [(t, m) for _, t, m in next(cs)]
    for c in cs:
        if len(c) == 1 and c[0][2] == full:
            t = c[0][1]
            branches = [(ts + t, m) for ts, m in branches]
        else:
            branches = [(ts + t, both) for ts, m in branches
                        for _, t, e in c if (both := m & e)]
    return branches


def product(automata: Sequence[SafetyAutomaton]) -> SafetyAutomaton:
    """Synchronized product over the union variable scope.

    States are the reachable tuples of member states, a tuple being bad
    iff any coordinate is, found breadth first.  Each state keeps only
    its edges' targets: one target tuple per tuple of member edges taken
    together on some letter, in lexicographic order of those tuples,
    found by its members' letter classes (`_branches`), so two edges may
    share a target.  Its edge masks are those branches' masks, found
    again only on request, and its edges, guarded by the plain
    conjunction of the member guards, only when ``edges`` is read.  Each
    member follows its first enabled edge; on a letter where some member
    has none, the product state has none either.  Since every guard mentions only its own automaton's
    variables, this realizes intersection of the inverse-projected
    (cylindrified) languages with no extra construction.
    """
    automata, scope = _union(automata)
    classes = [a._edge_classes(scope) for a in automata]
    bads = [a.bad for a in automata]
    full = (1 << (1 << len(scope))) - 1

    init = tuple(a.initial for a in automata)
    # Reachable states in discovery order, each with its edges' targets
    # (None until the state is explored).
    targets: dict[State, tuple | None] = {init: None}
    queue = deque([init])
    while queue:
        s = queue.popleft()
        out = targets[s] = tuple([t for t, _ in _branches(classes, s, full)])
        for t in out:
            if t not in targets:
                targets[t] = None
                queue.append(t)

    # Built in place: the parts are already normalized and checked.
    p = _Product.__new__(_Product)
    p.vars, p.states, p.initial = scope, tuple(targets), init
    p.bad = frozenset(s for s in targets
                      if any(map(frozenset.__contains__, bads, s)))
    p._members, p._targets, p._edges, p._guards = automata, targets, None, None
    p._rows, p._classes, p._tables = {}, {}, {}
    return p


class _Space:
    """What every search walks: tuples of the states of the automata
    ``a``, with the state of ``last``, if given, as one more coordinate.

    A sequence of automata stands for their `product`, which is not
    built: a tuple's successor on each letter of ``scope``, the sorted
    union of the variables, is read off the members' transition tables,
    and the tuple is bad when a coordinate of ``a`` is (``last``'s is
    not read).  The reachable tuples are then the product's states in
    the same order, so every answer and witness equals that of the
    search of ``product(a)``.  One automaton is a sequence of one; a
    built product is its members, neither its rows nor its bad set read.
    So an incomplete member raises, as its table does, at every length,
    even where the walk would never reach its gap."""

    __slots__ = ("start", "scope", "_tables", "_bads")

    def __init__(self, a: SafetyAutomaton | Sequence[SafetyAutomaton],
                 last: SafetyAutomaton | None = None):
        if isinstance(a, _Product):
            a = a._members
        elif isinstance(a, SafetyAutomaton):
            a = (a,)
        members, self.scope = _union(a, last)
        self.start = tuple(m.initial for m in members)
        self._tables = [m.transition_table(self.scope) for m in members]
        self._bads = [m.bad for m in
                      (members if last is None else members[:-1])]

    def bad(self, q: tuple) -> bool:
        # `map` stops at the shorter input, short of ``last``'s coordinate.
        return any(map(frozenset.__contains__, self._bads, q))

    def row(self, q: tuple) -> Iterator[tuple]:
        """The successors of ``q``, one per letter of ``scope``."""
        return zip(*map(getitem, self._tables, q))

    def successors(self, layer: Iterable[tuple]) -> dict[tuple, None]:
        """One step: the rows of the tuples of ``layer``, each tuple once."""
        return dict.fromkeys(chain.from_iterable(map(self.row, layer)))


def _layers(space: _Space) -> Iterator[dict[tuple, None]]:
    """The good tuples of ``space`` reached from its start by exactly k
    steps through good ones, for k = 0, 1, ...: each layer a dict in
    discovery order, the successors of the layer before.  An empty layer
    stays empty; callers decide when to stop."""
    layer = {space.start: None}
    while True:
        layer = dict.fromkeys(filterfalse(space.bad, layer))
        yield layer
        layer = space.successors(layer)


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


def _spell(layers: list, space: _Space) -> Trace:
    """The trace over the scope of ``space`` that leads from layer 0 of
    ``layers`` to the first tuple of the last one.  Walking back, a
    tuple's predecessor is the first tuple of the layer before whose row
    reaches it, on the first letter that does: the tuple and letter that
    discovered it."""
    cur = next(iter(layers[-1]))
    letters = []
    for layer in reversed(layers[:-1]):
        for q in layer:
            r = list(space.row(q))
            if cur in r:
                letters.append(_letter(space.scope, r.index(cur)))
                cur = q
                break
    return Trace(reversed(letters))


def contains(a: SafetyAutomaton | Sequence[SafetyAutomaton],
             b: SafetyAutomaton) -> ContainmentResult:
    """Decide L(a) <= L(b) over the union scope by synchronized BFS; ``a``
    may be a sequence of automata standing for their product.

    Walks the tuples of ``a`` with ``b``'s state last (`_Space`) one
    layer at a time, each tuple visited once, to a shortest reachable
    tuple good in ``a`` and bad in ``b``.  Tuples bad in ``a`` are
    counted but not expanded: bad states are absorbing, so no witness
    extends them.  The witness is spelled back through the expanded
    layers (`_spell`).
    """
    space, bad_b = _Space(a, b), b.bad
    seen = {space.start}
    layer = list(seen)  # the tuples first reached in len(expanded) steps
    expanded: list[list] = []  # the tuples expanded at each smaller depth
    while layer:
        for k, q in enumerate(layer):
            if q[-1] in bad_b and not space.bad(q):
                return ContainmentResult(
                    False, _spell(expanded + [[q]], space),
                    len(seen) - len(layer) + k + 1, len(expanded))
        expanded.append(list(filterfalse(space.bad, layer)))
        layer = [q for q in space.successors(expanded[-1]) if q not in seen]
        seen.update(layer)
    return ContainmentResult(True, None, len(seen), len(expanded) - 1)


def has_trace_of_length(a: SafetyAutomaton | Sequence[SafetyAutomaton],
                        h: int) -> bool:
    """True iff some trace of length exactly ``h`` is accepted, decided by
    h-step forward reachability through good states.  For a sequence of
    automata (`_Space`), whether some trace of length ``h`` is accepted
    by all of them."""
    return _nonempty_at(_layers(_Space(a)), h)


def find_trace_of_length(a: SafetyAutomaton | Sequence[SafetyAutomaton],
                         h: int) -> Trace | None:
    """A deterministic accepted trace of length exactly ``h``, or None;
    ``a`` may be a sequence of automata, as in `has_trace_of_length`.

    The layered walk of `has_trace_of_length` runs to layer ``h`` (or to
    its first empty layer), and the first state of layer ``h`` is spelled
    back to the initial state (`_spell`).  All h + 1 layers are kept, so
    the horizon should be modest (it is the error-trace length in
    practice).
    """
    if h < 0:
        raise ValueError("length must be nonnegative")
    space = _Space(a)
    layers = list(islice(takewhile(bool, _layers(space)), h + 1))
    if len(layers) <= h:
        return None
    return _spell(layers, space)


def has_joint_trace_of_length(a: SafetyAutomaton, b: SafetyAutomaton,
                              h: int) -> bool:
    """True iff some trace of length exactly ``h`` is accepted by both
    automata: ``has_trace_of_length((a, b), h)``."""
    return has_trace_of_length((a, b), h)
