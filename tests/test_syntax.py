import itertools

import pytest
from hypothesis import given, settings, strategies as st

from gammalog.syntax import (
    And, Atom, Bottom, Box, Diamond, FALSE, Iff, Implies, Not, Or,
    TRUE, Top, all_canonical_modalities, apply_prefix, atoms,
    boolean_subformula_closure, box_negation_closure,
    ClosureCapExceeded, ParseError, SignedClosure, modality_key, modal_depth,
    negated_normalized, node_count, normalize_modality, parse, pretty,
    sort_key, subformula_closure, to_core,
)

p, q, r = Atom("p"), Atom("q"), Atom("r")


# --- parsing and printing ---------------------------------------------------

def test_parse_grammar_forced_shapes():
    assert parse("[]p -> p") == Implies(Box(p), p)
    assert parse("<>[]p -> []<>p") == Implies(Diamond(Box(p)), Box(Diamond(p)))
    assert parse("p & q | r") == Or(And(p, q), r)


def test_parse_precedence_and_associativity():
    assert parse("p -> q -> r") == Implies(p, Implies(q, r))
    assert parse("p & q & r") == And(And(p, q), r)
    assert parse("~[]p") == Not(Box(p))
    assert parse("p <-> q | r") == Iff(p, Or(q, r))


def test_parse_unicode_aliases():
    assert parse("¬□p ∧ ◇q") == And(Not(Box(p)), Diamond(q))
    assert parse("⊥ → ⊤") == Implies(FALSE, TRUE)


def test_parse_errors_carry_position_and_expectation():
    with pytest.raises(ParseError) as err:
        parse("p & ")
    assert err.value.position == 4
    assert err.value.expected
    with pytest.raises(ParseError):
        parse("(p | q")
    with pytest.raises(ParseError):
        parse("p q")


def test_print_examples():
    assert pretty(Box(p)) == "[]p"
    assert pretty(Implies(p, Or(q, r))) == "p -> q | r"
    assert pretty(FALSE) == "false"
    assert pretty(And(p, Or(q, r))) == "p & (q | r)"


_leaves = st.sampled_from([p, q, r, FALSE, TRUE])


def _formulas(max_leaves=5):
    return st.recursive(
        _leaves,
        lambda sub: st.one_of(
            st.builds(Not, sub), st.builds(Box, sub), st.builds(Diamond, sub),
            st.builds(And, sub, sub), st.builds(Or, sub, sub),
            st.builds(Implies, sub, sub), st.builds(Iff, sub, sub),
        ),
        max_leaves=max_leaves,
    )


@settings(max_examples=300, deadline=None)
@given(_formulas(8))
def test_parse_print_roundtrip(f):
    assert parse(pretty(f)) == f


# --- subformula closure -----------------------------------------------------

def test_subformula_closure_examples():
    assert subformula_closure([parse("[]p -> q")]) == {
        parse("[]p -> q"), parse("[]p"), p, q,
    }
    assert subformula_closure([]) == frozenset()
    assert subformula_closure([parse("~~p")]) == {parse("~~p"), parse("~p"), p}


@settings(max_examples=100, deadline=None)
@given(st.sets(_formulas(4), max_size=3))
def test_closure_properties(fs):
    closed = subformula_closure(fs)
    assert fs <= closed
    assert subformula_closure(closed) == closed


# --- boolean closure --------------------------------------------------------

def test_boolean_closure_counts():
    assert boolean_subformula_closure([p]) == {FALSE, p, Not(p), TRUE}
    assert len(boolean_subformula_closure([p, q])) == 16
    assert boolean_subformula_closure([]) == {FALSE, TRUE}


def test_boolean_closure_of_boxed_letters():
    closure = boolean_subformula_closure([parse("[]p -> q")])
    # letters are []p, p, q: all 2^(2^3) boolean functions
    assert len(closure) == 256
    assert parse("[]p") in closure and p in closure and q in closure


def test_boolean_closure_cap():
    with pytest.raises(ClosureCapExceeded):
        boolean_subformula_closure([p, q], max_representatives=8)


def test_boolean_closure_semantics_of_representatives():
    # every representative over {p, q} is a boolean function; check that the
    # 16 representatives are pairwise inequivalent as truth tables
    reps = boolean_subformula_closure([p, q])
    tables = set()
    for f in reps:
        table = tuple(
            _prop_eval(f, {"p": a, "q": b})
            for a, b in itertools.product((False, True), repeat=2)
        )
        tables.add(table)
    assert len(tables) == 16


def _prop_eval(f, env):
    if isinstance(f, Atom):
        return env[f.name]
    if isinstance(f, Bottom):
        return False
    if isinstance(f, Top):
        return True
    if isinstance(f, Not):
        return not _prop_eval(f.sub, env)
    if isinstance(f, And):
        return _prop_eval(f.left, env) and _prop_eval(f.right, env)
    if isinstance(f, Or):
        return _prop_eval(f.left, env) or _prop_eval(f.right, env)
    raise AssertionError(f)


# --- modality normalization -------------------------------------------------

def test_normalize_modality_examples():
    assert normalize_modality("[][]") == "[]"
    assert normalize_modality("~~") == ""
    assert normalize_modality("~[]~[]~[]~[]") == "~[]~[]"


def test_exactly_fourteen_canonical_modalities():
    canon = all_canonical_modalities()
    assert len(canon) == 14
    # closing all prefixes up to length 10 yields the same set
    seen = set()
    for length in range(11):
        for combo in itertools.product(("~", "[]"), repeat=length):
            seen.add(normalize_modality("".join(combo)))
    assert seen == set(canon)


def test_normalize_modality_idempotent():
    for length in range(7):
        for combo in itertools.product(("~", "[]"), repeat=length):
            prefix = "".join(combo)
            once = normalize_modality(prefix)
            assert normalize_modality(once) == once


def test_apply_prefix():
    assert apply_prefix("~[]", p) == Not(Box(p))
    assert apply_prefix("", p) == p


def test_modality_key_sees_through_diamonds():
    assert modality_key(parse("<>p")) == modality_key(parse("~[]~p"))
    assert negated_normalized(parse("<>p")) == parse("[]~p")
    assert negated_normalized(parse("~p")) == p


# --- box/negation closure ---------------------------------------------------

def test_box_negation_closure_single_atom():
    closure = box_negation_closure([p])
    sfc = subformula_closure([p])
    assert len(closure) <= 14 * len(sfc) + len(sfc)
    # one member per canonical modality applied to p
    keys = {modality_key(f) for f in closure}
    assert len(keys) == len(closure) == 14


def test_box_negation_closure_idempotent_and_closed():
    closure = box_negation_closure([parse("p & q")])
    assert box_negation_closure(closure) == closure
    keys = {modality_key(f) for f in closure}
    for f in closure:
        assert modality_key(Not(f)) in keys
        assert modality_key(Box(f)) in keys
    assert subformula_closure(closure) == closure


def test_box_negation_closure_superset():
    seed = [parse("<>p")]
    closure = box_negation_closure(seed)
    assert set(seed) <= closure


def test_box_negation_closure_over_top_collapses_semantically():
    # every member of the closure of {true} is equivalent to true or false
    from gammalog.engine import equivalent, parse_logic
    closure = box_negation_closure([TRUE])
    s4 = parse_logic("S4")
    for f in closure:
        assert equivalent(f, TRUE, s4) is True or equivalent(f, FALSE, s4) is True


# --- signed closures ---------------------------------------------------------

def test_signed_closure_from_seeds_validates():
    cl = SignedClosure.from_seeds([p], [parse("p & q")])
    cl.validate()
    assert {a.name for a in cl.sigma1 & cl.sigma2 if isinstance(a, Atom)} == {"p"}
    assert cl.side(1) == cl.sigma1 and cl.side(2) == cl.sigma2


def test_signed_closure_members_are_core():
    cl = SignedClosure.from_seeds([parse("<>p -> q")], [p])
    for f in cl.sigma:
        assert not any(
            isinstance(g, (Diamond, Implies, Iff)) for g in subformula_closure([f])
        )


# --- misc --------------------------------------------------------------------

def test_sort_key_orders_by_depth_then_size():
    assert sort_key(p) < sort_key(Box(p))
    assert sort_key(And(p, q)) < sort_key(Box(p))  # depth 0 before depth 1
    assert sort_key(Box(p)) < sort_key(Box(Box(p)))


def test_to_core():
    assert to_core(Diamond(p)) == Not(Box(Not(p)))
    assert to_core(Implies(p, q)) == Or(Not(p), q)
    assert atoms(parse("[](p -> q) | r")) == {"p", "q", "r"}
    assert node_count(p) == 1 and modal_depth(Box(Diamond(p))) == 2


# --- hashing -------------------------------------------------------------------
# No test pins a hash value: only which formulas hash apart, and that equal
# formulas hash equal.

@pytest.mark.parametrize("x", [p, Box(p), And(p, q)], ids=["p", "[]p", "p & q"])
def test_unary_connectives_hash_apart(x):
    assert len({hash(Not(x)), hash(Box(x)), hash(Diamond(x))}) == 3


def test_binary_connectives_and_constants_hash_apart():
    assert len({hash(ctor(p, q)) for ctor in (And, Or, Implies, Iff)}) == 4
    assert hash(TRUE) != hash(FALSE)


def test_small_formulas_have_distinct_hashes():
    # the interpolant candidates of at most 6 nodes over p, q; a chance
    # collision of 64-bit hashes among them is about 1e-13 likely
    from gammalog.engine import size_layer

    by_size = {1: [FALSE, TRUE, p, q]}
    for size in range(2, 7):
        by_size[size] = size_layer(by_size, size)
    formulas = [f for layer in by_size.values() for f in layer]
    assert len(formulas) == len(set(formulas)) == 1794
    assert len({hash(f) for f in formulas}) == 1794


def _rebuilt(f):
    if isinstance(f, Atom):
        return Atom(f.name)
    if isinstance(f, (Bottom, Top)):
        return type(f)()
    if isinstance(f, (Not, Box, Diamond)):
        return type(f)(_rebuilt(f.sub))
    return type(f)(_rebuilt(f.left), _rebuilt(f.right))


@settings(max_examples=300, deadline=None)
@given(_formulas(8))
def test_equal_formulas_hash_equal(f):
    fresh = _rebuilt(f)
    assert fresh is not f and fresh == f
    assert hash(fresh) == hash(f) == hash(parse(pretty(f)))
