"""Propositional guard formulas over Boolean system variables.

Guards label safety-automaton edges; a guard denotes the set of valuations
it is true on, and automaton determinism/completeness are phrased in terms
of that denotation.  `canonicalize` normalizes a guard to a canonical
negation normal form (negations pushed to variables, n-ary
conjunctions/disjunctions flattened, operands deduplicated and sorted by
variable name) so that printing is byte-reproducible and structural
equality is meaningful.

`guard_mask` evaluates a guard on all 2^n valuations of n variables at
once, one bit per valuation, so no solver is involved.  A system file's
guards are read by `scan_guard`: one pass over the text gives the guard
as written together with its mask over the owner's variables and the
check that it mentions no other variable; `scan_mask` is the same scan
building no guard, and `parse_guard` the same scan followed by
`canonicalize`.  The scan caps nesting at `MAX_GUARD_DEPTH`, which
bounds every recursion here.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping
from functools import lru_cache

from .errors import ParseError, UndeclaredVariable
from .records import Record, setfield

VAR_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

_KEYWORDS = frozenset({"true", "false"})

MAX_GUARD_DEPTH = 100
"""Deepest nesting of ``!`` and parentheses a guard may have."""


def is_variable_name(name: str) -> bool:
    """True for a legal variable identifier (keywords excluded)."""
    return bool(VAR_NAME_RE.match(name)) and name not in _KEYWORDS


class Guard(Record):
    """Base class for guard AST nodes."""

    __slots__ = ()


class Const(Guard):
    __slots__ = ("value",)

    def __init__(self, value: bool):
        setfield(self, "value", value)


class Var(Guard):
    __slots__ = ("name",)

    def __init__(self, name: str):
        setfield(self, "name", name)


class Not(Guard):
    __slots__ = ("operand",)

    def __init__(self, operand: Guard):
        setfield(self, "operand", operand)


class And(Guard):
    __slots__ = ("operands",)

    def __init__(self, operands: tuple[Guard, ...]):
        setfield(self, "operands", operands)


class Or(Guard):
    __slots__ = ("operands",)

    def __init__(self, operands: tuple[Guard, ...]):
        setfield(self, "operands", operands)


TRUE = Const(True)
FALSE = Const(False)


def guard_eval(g: Guard, valuation: Mapping[str, int]) -> bool:
    """Evaluate ``g`` on a valuation (any mapping from variable name to 0/1)."""
    return bool(_mask(g, valuation, 1))


def guard_vars(g: Guard) -> frozenset[str]:
    """The set of variables mentioned by ``g``."""
    if isinstance(g, Const):
        return frozenset()
    if isinstance(g, Var):
        return frozenset((g.name,))
    if isinstance(g, Not):
        return guard_vars(g.operand)
    if isinstance(g, (And, Or)):
        out: frozenset[str] = frozenset()
        for c in g.operands:
            out |= guard_vars(c)
        return out
    raise TypeError(f"not a guard: {g!r}")


def _key(g: Guard):
    # Total order on canonical nodes; kind rank first so comparisons never
    # reach payloads of different shapes.
    if isinstance(g, Var):
        return (0, g.name, 0)
    if isinstance(g, Not):
        return (0, g.operand.name, 1)  # canonical Not wraps a Var
    if isinstance(g, And):
        return (1, tuple(_key(c) for c in g.operands))
    if isinstance(g, Or):
        return (2, tuple(_key(c) for c in g.operands))
    return (3, bool(g.value))


def _assemble(is_and: bool, parts: Iterable[Guard]) -> Guard:
    absorbing = FALSE if is_and else TRUE
    neutral = TRUE if is_and else FALSE
    flat: list[Guard] = []
    for p in parts:
        if isinstance(p, And if is_and else Or):
            flat.extend(p.operands)
        elif p == absorbing:
            return absorbing
        elif p != neutral:
            flat.append(p)
    # Equal keys mean equal canonical nodes, so keying dedups.
    unique = [p for _, p in sorted({_key(p): p for p in flat}.items())]
    if not unique:
        return neutral
    if len(unique) == 1:
        return unique[0]
    return And(tuple(unique)) if is_and else Or(tuple(unique))


def _canon(g: Guard, negated: bool) -> Guard:
    if isinstance(g, Const):
        return Const(g.value != negated)
    if isinstance(g, Var):
        return Not(g) if negated else g
    if isinstance(g, Not):
        return _canon(g.operand, not negated)
    if isinstance(g, And):
        return _assemble(not negated, (_canon(c, negated) for c in g.operands))
    if isinstance(g, Or):
        return _assemble(negated, (_canon(c, negated) for c in g.operands))
    raise TypeError(f"not a guard: {g!r}")


def canonicalize(g: Guard) -> Guard:
    """Canonical NNF of ``g``: flat, sorted, deduplicated, constants folded."""
    return _canon(g, False)


def negate(g: Guard) -> Guard:
    return _canon(g, True)


def conj(parts: Iterable[Guard]) -> Guard:
    """Canonical conjunction of already-canonical guards."""
    return _assemble(True, parts)


def disj(parts: Iterable[Guard]) -> Guard:
    """Canonical disjunction of already-canonical guards."""
    return _assemble(False, parts)


def cube(valuation: Mapping[str, int], names: Iterable[str]) -> Guard:
    """The conjunction of literals pinning ``names`` to their values in
    ``valuation``; TRUE when ``names`` is empty."""
    lits: list[Guard] = []
    for n in sorted(names):
        lits.append(Var(n) if valuation[n] else Not(Var(n)))
    return conj(lits)


@lru_cache(maxsize=None)  # one entry per scope size
def _var_masks(n: int) -> tuple[int, ...]:
    # The variable at bit b of the valuation index is 1 on runs of 2^b
    # letters that alternate with runs of 2^b letters where it is 0.
    full = (1 << (1 << n)) - 1
    return tuple(full // ((1 << (1 << b)) + 1) << (1 << b)
                 for b in range(n - 1, -1, -1))


def _mask(g: Guard, var_masks: Mapping[str, int], full: int) -> int:
    # Bitwise evaluation; stops early where all() or any() would.
    if isinstance(g, Var):
        try:
            return var_masks[g.name]
        except KeyError:
            raise UndeclaredVariable(g.name) from None
    if isinstance(g, Not):
        return full ^ _mask(g.operand, var_masks, full)
    if isinstance(g, And):
        m = full
        for c in g.operands:
            m &= _mask(c, var_masks, full)
            if not m:
                break
        return m
    if isinstance(g, Or):
        m = 0
        for c in g.operands:
            m |= _mask(c, var_masks, full)
            if m == full:
                break
        return m
    if isinstance(g, Const):
        return full if g.value else 0
    raise TypeError(f"not a guard: {g!r}")


def guard_mask(g: Guard, names: Iterable[str]) -> int:
    """The valuations of ``names`` that satisfy ``g``, as bits: bit i is
    set iff ``g`` holds on valuation i of the sorted names, counting in
    binary with the first name as the most significant bit."""
    names = sorted(names)
    return _mask(g, dict(zip(names, _var_masks(len(names)))),
                 (1 << (1 << len(names))) - 1)


def satisfiable(g: Guard) -> bool:
    """Some valuation of the mentioned variables satisfies ``g``."""
    return guard_mask(g, guard_vars(g)) != 0


def guard_text(g: Guard) -> str:
    """Canonical concrete syntax; ``parse_guard(guard_text(g)) == g`` for
    canonical ``g``."""
    if isinstance(g, Const):
        return "true" if g.value else "false"
    if isinstance(g, Var):
        return g.name
    if isinstance(g, Not):
        inner = guard_text(g.operand)
        if isinstance(g.operand, Var):
            return f"!{inner}"
        return f"!({inner})"
    if isinstance(g, And):
        parts = []
        for c in g.operands:
            t = guard_text(c)
            parts.append(f"({t})" if isinstance(c, Or) else t)
        return " & ".join(parts)
    if isinstance(g, Or):
        return " | ".join(guard_text(c) for c in g.operands)
    raise TypeError(f"not a guard: {g!r}")


# One match per token: an identifier or operator in group 1, or else a
# character that starts no token, with group 1 empty; whitespace matches
# nothing, so `findall` and `finditer` skip it.
_TOKEN_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*|[!&|()])|\S")


def scope_atoms(names: Iterable[str]) -> dict[str, tuple[Guard, int]]:
    """The atoms of a guard over ``names`` (each name, ``true`` and
    ``false``), each with its `guard_mask` over them, for `scan_guard`."""
    names = sorted(names)
    atoms = {n: (Var(n), m) for n, m in zip(names, _var_masks(len(names)))}
    atoms["true"] = (TRUE, (1 << (1 << len(names))) - 1)
    atoms["false"] = (FALSE, 0)
    return atoms


def _error(message: str, pos: int, text: str,
           context: str | None) -> ParseError:
    # The error at token ``pos``, or just past the text at its end; only
    # an error needs the tokens' positions.
    matches = list(_TOKEN_RE.finditer(text))
    column = (matches[pos].start() + 1 if pos < len(matches)
              else len(text) + 1)
    return ParseError(message, line=1, column=column, context=context)


def _scan(text: str, atoms: Mapping[str, tuple[Guard, int]],
          context: str | None, build: bool = True
          ) -> tuple[Guard | None, int, list[str]]:
    # One loop over the tokens of one `findall` pass, computing the mask
    # over the scope of ``atoms`` and, with ``build``, the AST as written
    # (without it, the guard returned is not meaningful).  An identifier
    # outside the scope gets mask 0 and is returned.  The group being
    # read keeps its disjuncts before the last '|' in ``ors`` and its
    # conjuncts since then in ``ands``, each list with its mask; an open
    # '(' saves the enclosing group's four on ``opened`` and an open '!'
    # puts None there, so its length is the nesting depth.  Only lists
    # and tuples of guards: a scan leaves no reference cycle.
    tokens: list = _TOKEN_RE.findall(text)
    if "" in tokens:
        pos = tokens.index("")
        stray = list(_TOKEN_RE.finditer(text))[pos][0]
        raise _error(f"unexpected character {stray!r} in guard",
                     pos, text, context)
    tokens.append(None)
    full = atoms["true"][1]
    undeclared: list[str] = []
    opened: list = []
    ors: list = []
    ands: list = []
    or_mask, and_mask = 0, full
    pos = 0
    while True:
        # One atom, after the '!' and '(' that open before it.
        tok = tokens[pos]
        hit = atoms.get(tok)
        if hit is None:
            if tok == "!" or tok == "(":
                if len(opened) == MAX_GUARD_DEPTH:
                    raise _error(
                        f"guard nested deeper than {MAX_GUARD_DEPTH} levels",
                        pos, text, context)
                if tok == "!":
                    opened.append(None)
                else:
                    opened.append((ors, or_mask, ands, and_mask))
                    ors, or_mask, ands, and_mask = [], 0, [], full
                pos += 1
                continue
            if tok is None:
                raise _error("unexpected end of guard",
                             pos, text, context)
            if tok in ("&", "|", ")"):
                raise _error(f"expected a guard atom, found {tok!r}",
                             pos, text, context)
            undeclared.append(tok)
            hit = Var(tok) if build else None, 0
        g, m = hit
        pos += 1
        # Close what the atom ends: the '!' before it, then, unless '&' or
        # '|' follows, its conjunction, its disjunction and its group,
        # whose value is in turn an atom of the enclosing group.
        while True:
            while opened and opened[-1] is None:
                opened.pop()
                m = full ^ m
                if build:
                    g = Not(g)
            tok = tokens[pos]
            if tok == "&":
                ands.append(g)
                and_mask &= m
                break
            if ands:
                ands.append(g)
                m &= and_mask
                if build:
                    g = And(tuple(ands))
                ands, and_mask = [], full
            if tok == "|":
                ors.append(g)
                or_mask |= m
                break
            if ors:
                ors.append(g)
                m |= or_mask
                if build:
                    g = Or(tuple(ors))
            if not opened:
                if tok is not None:
                    raise _error(f"trailing input after guard: {tok!r}",
                                 pos, text, context)
                return g, m, undeclared
            if tok != ")":
                raise _error("expected ')'", pos, text, context)
            ors, or_mask, ands, and_mask = opened.pop()
            pos += 1
        pos += 1


def scan_guard(text: str, atoms: Mapping[str, tuple[Guard, int]],
               context: str | None = None) -> tuple[Guard, int]:
    """Parse ``text`` (grammar of `parse_guard`) in one pass over the scope
    of ``atoms`` (`scope_atoms`): the guard as written, not
    canonicalized, and its `guard_mask` over that scope.  Malformed text
    raises the `ParseError` `parse_guard` raises; then a variable outside
    the scope raises `UndeclaredVariable`, naming the sorted-first such
    variable of the canonical guard (constant folding drops the others,
    as in ``x | true``, and does not change the mask)."""
    g, m, undeclared = _scan(text, atoms, context)
    if undeclared:
        extra = [v for v in guard_vars(canonicalize(g)) if v not in atoms]
        if extra:
            raise UndeclaredVariable(min(extra))
    return g, m


def scan_mask(text: str, atoms: Mapping[str, tuple[Guard, int]],
              context: str | None = None) -> int:
    """The mask of `scan_guard`, with its errors, building no guard: the
    same scan without its nodes.  Only a guard that mentions a variable
    outside the scope is scanned again, by `scan_guard`, to decide
    whether constant folding removes it."""
    _, m, undeclared = _scan(text, atoms, context, build=False)
    if undeclared:
        scan_guard(text, atoms, context)
    return m


def cube_mask(valuation: Mapping[str, int], names: Iterable[str],
              scope: Iterable[str]) -> int:
    """`guard_mask` of ``cube(valuation, names)`` over ``scope`` (which
    covers ``names``), building no guard."""
    names, scope = frozenset(names), sorted(scope)
    m = full = (1 << (1 << len(scope))) - 1
    for name, var_mask in zip(scope, _var_masks(len(scope))):
        if name in names:
            m &= var_mask if valuation[name] else full ^ var_mask
    return m


_NO_VARIABLES = scope_atoms(())


def parse_guard(text: str, context: str | None = None) -> Guard:
    """Parse ``true | false | ident | !g | g & g | g '|' g`` with ``&``
    binding tighter than ``|`` and at most `MAX_GUARD_DEPTH` levels of
    ``!`` and parentheses; returns the canonicalized AST.  The scan of
    `scan_guard` over no variables, then `canonicalize`."""
    return canonicalize(_scan(text, _NO_VARIABLES, context)[0])
