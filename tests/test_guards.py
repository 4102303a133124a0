"""Guard grammar, canonical form, and evaluation."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tracecause.errors import ParseError, UndeclaredVariable
from tracecause.guards import (FALSE, MAX_GUARD_DEPTH, TRUE, And, Not, Or,
                               Var, canonicalize, cube, cube_mask, disj,
                               guard_eval, guard_mask, guard_text, guard_vars,
                               negate, parse_guard, satisfiable, scan_guard,
                               scan_mask, scope_atoms)

import scan_reference
from oracle import all_valuations, oracle_eval


def test_eval_constants_and_literals():
    assert guard_eval(TRUE, {"x": 0}) is True
    assert guard_eval(And((Var("x"), Not(Var("y")))), {"x": 1, "y": 0}) is True
    assert guard_eval(Or((Var("x"), Var("y"))), {"x": 0, "y": 0}) is False


def test_eval_undeclared_variable():
    with pytest.raises(UndeclaredVariable):
        guard_eval(Var("z"), {"x": 1})


def test_parse_precedence():
    # & binds tighter than |; canonical order puts literals first
    g = parse_guard("a & b | c")
    assert g == Or((Var("c"), And((Var("a"), Var("b")))))
    assert parse_guard("a & (b | c)") == And((Var("a"),
                                              Or((Var("b"), Var("c")))))


def test_parse_keywords_and_negation():
    assert parse_guard("true") == TRUE
    assert parse_guard("false") == FALSE
    assert parse_guard("!!x") == Var("x")
    assert parse_guard("!(x | y)") == And((Not(Var("x")), Not(Var("y"))))


def _error_case(text, message, column, name=None):
    # Identified by text (or name) and column, the message left out.
    return pytest.param(text, message, column, id=f"{name or text}-{column}")


@pytest.mark.parametrize("text,message,column", [
    _error_case("x &", "unexpected end of guard", 4),
    _error_case("& x", "expected a guard atom, found '&'", 1),
    _error_case("(x | y", "expected ')'", 7),
    _error_case("x @ y", "unexpected character '@' in guard", 3),
    _error_case("x y", "trailing input after guard: 'y'", 3),
    _error_case("x)", "trailing input after guard: ')'", 2),
    _error_case("()", "expected a guard atom, found ')'", 2),
    _error_case("!", "unexpected end of guard", 2),
    _error_case("x |", "unexpected end of guard", 4),
    _error_case("|", "expected a guard atom, found '|'", 1),
    _error_case("(x) y", "trailing input after guard: 'y'", 5),
    _error_case("x & !", "unexpected end of guard", 6),
    # A bad character is reported before any grammar error.
    _error_case("x ) $", "unexpected character '$' in guard", 5),
    # Nested exactly to the limit, then trailing input.
    _error_case("(" * MAX_GUARD_DEPTH + "x" + ")" * MAX_GUARD_DEPTH + " y",
                "trailing input after guard: 'y'", 2 * MAX_GUARD_DEPTH + 3,
                name="(^max x )^max y"),
    _error_case("!" * MAX_GUARD_DEPTH + "x)",
                "trailing input after guard: ')'", MAX_GUARD_DEPTH + 2,
                name="!^max x)"),
])
def test_parse_errors_carry_column(text, message, column):
    with pytest.raises(ParseError) as e:
        parse_guard(text)
    assert e.value.message == message
    assert e.value.column == column
    assert e.value.line == 1


@pytest.mark.parametrize("opener,closer", [("!", ""), ("(", ")"),
                                           ("!(", ")")])
def test_parse_nesting_limit(opener, closer):
    # Depth counts each '!' and each '(' still open at a point.
    levels = MAX_GUARD_DEPTH // len(opener)
    at_limit = opener * levels + "x" + closer * levels
    assert guard_vars(parse_guard(at_limit)) == {"x"}
    past = opener * (levels + 1) + "x" + closer * (levels + 1)
    with pytest.raises(ParseError) as e:
        parse_guard(past)
    assert "nested deeper" in e.value.message
    assert e.value.column == MAX_GUARD_DEPTH + 1


def test_canonical_sorting_and_dedup():
    assert parse_guard("b & a & b") == And((Var("a"), Var("b")))
    assert parse_guard("x | true") == TRUE
    assert parse_guard("x & false") == FALSE
    assert parse_guard("x | !x | y") == Or((Var("x"), Not(Var("x")), Var("y")))


def test_guard_text_examples():
    assert guard_text(parse_guard("(a|b) & c")) == "c & (a | b)"
    assert guard_text(parse_guard("!x & y | z")) == "z | !x & y"
    assert guard_text(TRUE) == "true"


def test_cube_and_negation():
    c = cube({"x": 1, "y": 0}, ["y", "x"])
    assert c == And((Var("x"), Not(Var("y"))))
    assert cube({"x": 1}, []) == TRUE
    assert negate(cube({"x": 1}, [])) == FALSE


def test_satisfiable_by_enumeration():
    assert satisfiable(parse_guard("x & !y"))
    assert not satisfiable(parse_guard("x & !x"))
    assert satisfiable(TRUE)
    assert not satisfiable(FALSE)


_LEAVES = st.sampled_from([Var("a"), Var("b"), Var("c"), TRUE, FALSE])


def _formulas():
    return st.recursive(
        _LEAVES,
        lambda kids: st.one_of(
            st.builds(Not, kids),
            st.builds(lambda l, r: And((l, r)), kids, kids),
            st.builds(lambda l, r: Or((l, r)), kids, kids)),
        max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(_formulas())
def test_canonicalize_preserves_semantics(g):
    canon = canonicalize(g)
    for v in all_valuations(["a", "b", "c"]):
        assert guard_eval(g, v) == guard_eval(canon, v) == oracle_eval(canon, v)


@settings(max_examples=200, deadline=None)
@given(_formulas())
def test_print_parse_fixpoint(g):
    canon = canonicalize(g)
    reparsed = parse_guard(guard_text(canon))
    assert reparsed == canon
    assert guard_text(reparsed) == guard_text(canon)


@settings(max_examples=200, deadline=None)
@given(_formulas())
def test_negate_is_complement(g):
    neg = negate(g)
    for v in all_valuations(sorted(guard_vars(g) | guard_vars(neg))):
        assert guard_eval(neg, v) == (not guard_eval(g, v))


@settings(max_examples=200, deadline=None)
@given(_formulas(), st.sampled_from([["a", "b", "c"], ["a", "b", "c", "d"],
                                     ["c", "b", "a"]]))
def test_guard_mask_bit_i_is_valuation_i(g, names):
    mask = guard_mask(g, names)
    for i, v in enumerate(all_valuations(names)):
        assert (mask >> i) & 1 == oracle_eval(g, v)
    assert mask >> (1 << len(names)) == 0


def test_guard_mask_examples():
    assert guard_mask(TRUE, []) == 1
    assert guard_mask(FALSE, ["x"]) == 0
    assert guard_mask(Var("x"), ["x", "y"]) == 0b1100
    assert guard_mask(Var("y"), ["x", "y"]) == 0b1010
    with pytest.raises(UndeclaredVariable):
        guard_mask(Var("z"), ["x"])


def test_disj_of_cubes_covers_exactly():
    vals = all_valuations(["p", "q"])
    chosen = vals[1:3]
    g = disj(cube(v, ["p", "q"]) for v in chosen)
    for v in vals:
        assert guard_eval(g, v) == (v in chosen)


# Guard text over a pool of names some scopes lack, with stray characters
# (a Unicode space among them), deep nesting around the limit and, now
# and then, arbitrary text.
_POOL = ["a", "b", "c", "x1", "_z"]
_TOKENS = _POOL + ["true", "false", "!", "&", "|", "(", ")", " ", "\t",
                   "\u00a0", "$", "1", "a1"]


def _guard_texts():
    atoms = st.sampled_from(_POOL + ["true", "false"])
    formulas = st.recursive(atoms, lambda sub: st.one_of(
        sub.map("!{}".format),
        st.tuples(sub, st.sampled_from([" & ", " | ", "&", "|"]), sub).map(
            lambda t: "(" + "".join(t) + ")"),
        st.tuples(sub, st.sampled_from([" & ", " | "]), sub).map("".join)),
        max_leaves=8)
    depth = st.integers(MAX_GUARD_DEPTH - 6, MAX_GUARD_DEPTH + 1)
    nested = st.one_of(
        st.tuples(depth, formulas).map(lambda t: "!" * t[0] + t[1]),
        st.tuples(depth, formulas).map(
            lambda t: "(" * t[0] + t[1] + ")" * t[0]))
    return st.one_of(formulas, formulas, nested,
                     st.lists(st.sampled_from(_TOKENS), max_size=12).map(
                         "".join),
                     st.text(max_size=12))


def _reference(text, scope):
    """What the parse-then-evaluate path gives: the parse error, the
    sorted-first undeclared variable of the canonical guard, or the mask."""
    try:
        g = parse_guard(text, context="edge")
    except ParseError as e:
        return "parse", e.message, e.column
    extra = guard_vars(g) - set(scope)
    if extra:
        return "undeclared", min(extra)
    return "mask", guard_mask(g, scope)


def _scanned(scan, text, scope):
    """What ``scan`` gives: the guard as written with its mask, the parse
    error, or the undeclared variable."""
    try:
        g, mask = scan(text, scope_atoms(scope), context="edge")
    except ParseError as e:
        return "parse", e.message, e.column
    except UndeclaredVariable as e:
        return "undeclared", e.args[0]
    return "guard", g, mask


@settings(max_examples=400, deadline=None)
@given(_guard_texts(), st.lists(st.sampled_from(_POOL), unique=True,
                                max_size=5))
# Groups are kept as written, not flattened into their neighbours.
@example("(a & b) & c | (a | b) | !!(c)", ["a", "b", "c"])
def test_scan_agrees_with_parse_then_mask(text, scope):
    got = _scanned(scan_guard, text, scope)
    assert got == _scanned(scan_reference.scan_guard, text, scope)
    if got[0] == "guard":
        _, g, mask = got
        assert canonicalize(g) == parse_guard(text)
        got = "mask", mask
    assert got == _reference(text, scope)


def _masked(text, scope):
    """What `scan_mask` gives, in the form of `_scanned`: the mask, the
    parse error, or the undeclared variable."""
    try:
        return "mask", scan_mask(text, scope_atoms(scope), context="edge")
    except ParseError as e:
        return "parse", e.message, e.column
    except UndeclaredVariable as e:
        return "undeclared", e.args[0]


@settings(max_examples=400, deadline=None)
@given(_guard_texts(), st.lists(st.sampled_from(_POOL), unique=True,
                                max_size=5))
@example("a & $", ["a"])
@example("z & !z | a", ["a"])
@example("z | true", ["a"])
def test_mask_only_scan_agrees_with_reference(text, scope):
    # The same scan building no guard: the same mask, or the same error
    # with its message and column.
    expected = _scanned(scan_reference.scan_guard, text, scope)
    if expected[0] == "guard":
        expected = "mask", expected[2]
    assert _masked(text, scope) == expected


def test_cube_mask_is_the_mask_of_the_cube():
    scope = ["a", "b", "c"]
    for v in all_valuations(scope):
        for names in ([], ["b"], ["a", "c"], scope):
            assert cube_mask(v, names, scope) == guard_mask(cube(v, names),
                                                            scope)
