"""Reference guard scanner for the differential tests of `tracecause.guards`.

This is the earlier recursive-descent scanner, kept unchanged: nested
`disjunction`, `conjunction`, `atom` and `fail` closures over one token
list.  The closures refer to each other through their cells, so each
scan leaves a reference cycle for the cyclic collector; the package's
scanner builds none.  It must give exactly this scanner's results: the
guard as written, its mask, the undeclared variable, and the
`ParseError` with its message and position.
"""

from __future__ import annotations

import re
from collections.abc import Mapping

from tracecause.errors import ParseError, UndeclaredVariable
from tracecause.guards import (MAX_GUARD_DEPTH, And, Guard, Not, Or, Var,
                               canonicalize, guard_vars)

# The earlier scanner's tokens: an identifier or operator in group 1, or
# else the first character that starts no token in group 2.
_TOKEN_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*|[!&|()])|(\S)")


def _scan(text: str, atoms: Mapping[str, tuple[Guard, int]],
          context: str | None) -> tuple[Guard, int, list[str]]:
    # Recursive descent over the tokens of one `finditer` pass, building
    # the AST as written and its mask over the scope of ``atoms`` together.
    # An identifier outside the scope gets mask 0 and is returned.
    matches = list(_TOKEN_RE.finditer(text))
    tokens: list = [m[1] for m in matches]
    if None in tokens:
        m = matches[tokens.index(None)]
        raise ParseError(f"unexpected character {m[2]!r} in guard",
                         line=1, column=m.start() + 1, context=context)
    tokens.append(None)
    full = atoms["true"][1]
    undeclared: list[str] = []
    pos = depth = 0

    def fail(message: str):
        column = (matches[pos].start() + 1 if pos < len(matches)
                  else len(text) + 1)
        raise ParseError(message, line=1, column=column, context=context)

    def disjunction() -> tuple[Guard, int]:
        nonlocal pos
        g, m = conjunction()
        if tokens[pos] != "|":
            return g, m
        parts = [g]
        while tokens[pos] == "|":
            pos += 1
            g, gm = conjunction()
            parts.append(g)
            m |= gm
        return Or(tuple(parts)), m

    def conjunction() -> tuple[Guard, int]:
        nonlocal pos
        g, m = atom()
        if tokens[pos] != "&":
            return g, m
        parts = [g]
        while tokens[pos] == "&":
            pos += 1
            g, gm = atom()
            parts.append(g)
            m &= gm
        return And(tuple(parts)), m

    def atom() -> tuple[Guard, int]:
        nonlocal pos, depth
        tok = tokens[pos]
        hit = atoms.get(tok)
        if hit is not None:
            pos += 1
            return hit
        if tok == "!" or tok == "(":
            if depth == MAX_GUARD_DEPTH:
                fail(f"guard nested deeper than {MAX_GUARD_DEPTH} levels")
            depth += 1
            pos += 1
            if tok == "!":
                g, m = atom()
                g, m = Not(g), full ^ m
            else:
                g, m = disjunction()
                if tokens[pos] != ")":
                    fail("expected ')'")
                pos += 1
            depth -= 1
            return g, m
        if tok is None:
            fail("unexpected end of guard")
        if tok in ("&", "|", ")"):
            fail(f"expected a guard atom, found {tok!r}")
        undeclared.append(tok)
        pos += 1
        return Var(tok), 0

    g, m = disjunction()
    if tokens[pos] is not None:
        fail(f"trailing input after guard: {tokens[pos]!r}")
    return g, m, undeclared


def scan_guard(text: str, atoms: Mapping[str, tuple[Guard, int]],
               context: str | None = None) -> tuple[Guard, int]:
    """`tracecause.guards.scan_guard` over the reference scanner."""
    g, m, undeclared = _scan(text, atoms, context)
    if undeclared:
        extra = [v for v in guard_vars(canonicalize(g)) if v not in atoms]
        if extra:
            raise UndeclaredVariable(min(extra))
    return g, m
