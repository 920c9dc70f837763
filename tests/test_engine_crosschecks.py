"""Cross-validation of the engine's decision methods against each other.

The structural cluster-formula analysis, the type-elimination core and
bounded enumeration are separate decision methods; these tests force them
to agree on families where more than one of them is conclusive. The
interpolant search, which tests candidates by refutation alone, is checked
against the search that makes full ``valid`` and ``equivalent`` calls. The
one Kripke evaluator ``kripke.eval_on_frame`` (behind ``model_check``,
the bounded search and the interpolant fingerprints) is checked on one
copy against the set-based reference semantics in ``kripke_reference``,
which shares no code with it; ``test_frame_walk`` checks it on many
copies against one copy at a time.
"""

import itertools

from hypothesis import example, given, settings, strategies as st

from gammalog import engine
from gammalog.engine import (
    ALL_LOGICS, Budget, Interpolant, Invalid, NotValid, Satisfiable, Unsatisfiable, Valid,
    countermodel_search, eval_on_frame, find_interpolant, in_frame_class, parse_logic,
    refuted, sat, valid,
)
from gammalog.frame_formulas import OMEGA, gamma
from gammalog.kripke import (
    PreorderModel, model_check, model_from_masks, model_to_dict, satisfies, select,
)
from gammalog.suites import _INVALID_CORPUS, _valid_corpus
from gammalog.syntax import (
    FALSE, TRUE, And, Atom, Box, Diamond, Iff, Implies, Not, Or, node_count, parse, pretty,
)
from engine_reference import find_interpolant_reference
from kripke_reference import model_check_reference

S4 = parse_logic("S4")
S42 = parse_logic("S4.2")


def test_gamma_verdicts_agree_with_bounded_search_both_ways():
    # for the cluster axioms, invalidity is always witnessed by the natural
    # model on a cluster frame (at most 4 worlds), so the search is
    # conclusive for Invalid; for Valid the sweep finds nothing (bound 4,
    # except bound 3 for the 4-atom axiom where the full sweep is costly)
    for k, topped in [(1, False), (2, False), (1, True), (2, True)]:
        axiom = gamma(k, topped)
        worlds_needed = k + (2 if topped else 1)
        for logic in ALL_LOGICS:
            verdict = valid(axiom, logic)
            bound = logic.n if topped else logic.m
            expect_valid = bound != OMEGA and bound <= k
            assert isinstance(verdict, Valid) == expect_valid, (k, topped, str(logic))
            if expect_valid:
                # the full no-countermodel sweep is slow, so corroborate on
                # the two tightest logics only; Invalid cases all searched
                if (logic.m, logic.n) != (1, 1):
                    continue
                sweep = 3 if worlds_needed >= 4 else 4
                assert countermodel_search(axiom, logic, sweep) is None, \
                    (k, topped, str(logic))
            else:
                assert isinstance(verdict, Invalid)
                found = countermodel_search(axiom, logic, worlds_needed)
                assert found is not None, (k, topped, str(logic))
                assert in_frame_class(found[0].masks, logic)


def test_structural_path_agrees_with_elimination_on_unbounded_logics():
    # for the (w,w) logics both the structural analysis and the base
    # elimination decide cluster axioms; compare them by disabling the
    # structural matcher
    for axiom in (gamma(1, False), gamma(1, True)):
        for logic in (S4, S42):
            engine._SAT_CACHE.clear()
            with_matcher = valid(axiom, logic)
            engine._SAT_CACHE.clear()
            original = engine._match_frame_conjunction
            engine._match_frame_conjunction = lambda f: None
            try:
                without_matcher = valid(axiom, logic)
            finally:
                engine._match_frame_conjunction = original
                engine._SAT_CACHE.clear()
            assert type(with_matcher) is type(without_matcher), (pretty(axiom), str(logic))


def _outcome(result):
    if isinstance(result, Interpolant):
        return "interpolant", pretty(result.formula)
    if isinstance(result, NotValid):
        return "not-valid", result.world, model_to_dict(result.model)
    return "unknown", result.reason


def test_interpolant_search_agrees_with_the_valid_and_equivalent_reference():
    # criterion 6's corpus in all 18 logics: refutation accepts and drops
    # exactly the candidates that full valid and equivalent calls do
    budget = Budget(max_seconds=30.0)
    for logic in ALL_LOGICS:
        pairs = _valid_corpus(logic) + _INVALID_CORPUS
        if logic.lam == "Int":
            pairs.append((parse("<>[]p"), parse("[]<>p")))
        for f1, f2 in pairs:
            got = find_interpolant(f1, f2, logic, budget)
            want = find_interpolant_reference(f1, f2, logic, budget)
            assert _outcome(got) == _outcome(want), (str(logic), pretty(f1), pretty(f2))


_small_formulas = st.recursive(
    st.sampled_from([Atom("p"), Atom("q"), TRUE, FALSE]),
    lambda sub: st.one_of(
        st.builds(Not, sub), st.builds(Box, sub), st.builds(Diamond, sub),
        st.builds(And, sub, sub), st.builds(Or, sub, sub),
        st.builds(Implies, sub, sub), st.builds(Iff, sub, sub),
    ),
    max_leaves=4,
).filter(lambda f: node_count(f) <= 7)


@settings(max_examples=100, deadline=None)
@given(f=_small_formulas)
@example(f=parse("<>[]p -> []<>p"))  # valid in the KC family only
@example(f=parse("[]<>p -> <>[]p"))  # valid for m = 1, which sat leaves Unknown
def test_refuted_holds_exactly_when_valid(f):
    # enumeration never answers Valid, so a small world bound changes no
    # Valid verdict and keeps the bounded logics' searches short
    budget = Budget(max_worlds=3)
    for logic in ALL_LOGICS:
        engine._SAT_CACHE.clear()
        answer = refuted(Not(f), logic, budget)
        engine._SAT_CACHE.clear()
        assert answer == isinstance(valid(f, logic, budget), Valid), (pretty(f), str(logic))
    engine._SAT_CACHE.clear()


def test_s42_sat_implies_s4_sat_on_two_atom_samples():
    pool = [
        "p & q", "[]p & <>~q", "<>[]p & <>[]q", "<>[]p & <>[]~p",
        "[](p -> <>q) & ~q", "[]<>p & []<>~p", "p & [](p -> q) & ~[]q",
        "<>(p & []~q) & <>(q & []~p)",
    ]
    for text in pool:
        f = parse(text)
        r42 = sat(f, S42)
        r4 = sat(f, S4)
        if isinstance(r42, Satisfiable):
            assert isinstance(r4, Satisfiable), text
        if isinstance(r4, Unsatisfiable):
            assert isinstance(r42, Unsatisfiable), text
        # unsat claims are corroborated by exhaustive bounded search
        for logic, r in ((S42, r42), (S4, r4)):
            if isinstance(r, Unsatisfiable):
                assert countermodel_search(Not(f), logic, 4) is None, text


# every connective; r never has a valuation
_formulas = st.recursive(
    st.sampled_from([Atom("p"), Atom("q"), Atom("r"), TRUE, FALSE]),
    lambda sub: st.one_of(
        st.builds(Not, sub), st.builds(Box, sub), st.builds(Diamond, sub),
        st.builds(And, sub, sub), st.builds(Or, sub, sub),
        st.builds(Implies, sub, sub), st.builds(Iff, sub, sub),
    ),
    max_leaves=12,
)


@st.composite
def _frame_and_formula(draw):
    k = draw(st.integers(min_value=1, max_value=4))
    succ = list(draw(st.sampled_from(engine.canonical_frames(k))))
    env = {
        "p": draw(st.integers(min_value=0, max_value=(1 << k) - 1)),
        "q": draw(st.integers(min_value=0, max_value=(1 << k) - 1)),
    }
    f = draw(st.one_of(st.sampled_from([
        parse("[](p -> q)"), parse("<>p & ~q"), parse("[]<>(p & q)"),
        parse("<>[]p -> []<>p"), parse("p <-> ~q"), parse("[](p | ~p)"),
    ]), _formulas))
    return succ, env, f


@st.composite
def _named_model_and_formula(draw):
    # arbitrary world ids, an arbitrary relation closed by closure="auto",
    # and a valuation that may leave out p or q
    names = draw(st.lists(st.text("abxyz019_", min_size=1, max_size=3),
                          min_size=1, max_size=6, unique=True))
    order = draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names)),
                          max_size=12))
    valuation = draw(st.dictionaries(st.sampled_from(["p", "q"]),
                                     st.lists(st.sampled_from(names))))
    return PreorderModel(names, order, valuation, closure="auto"), draw(_formulas)


@settings(max_examples=150, deadline=None)
@given(_frame_and_formula(), _named_model_and_formula())
def test_bit_evaluator_matches_reference_model_checker(case, named):
    succ, env, f = case
    worlds = [f"w{i}" for i in range(len(succ))]
    bits = eval_on_frame(succ, env, f)
    reference = model_check_reference(model_from_masks(succ, env), f)
    assert {w for i, w in enumerate(worlds) if bits >> i & 1} == reference
    model, g = named
    expected = model_check_reference(model, g)
    assert model_check(model, g) == expected
    for w in model.worlds:
        assert satisfies(model, w, g) == (w in expected)


def test_type_space_truth_matches_model_checking_on_extracted_model():
    # the elimination model satisfies exactly the formulas its types contain
    from gammalog.engine import TypeSpace, base_models, types_to_model
    from gammalog.syntax import to_core, subformula_closure, sorted_formulas

    core = to_core(parse("[](p -> q) & <>~q & <>[]p"))
    space = TypeSpace([core], Budget())
    [(survivors, _)] = base_models(space, confluent=False)
    names = {i: f"t{idx:06d}" for idx, i in enumerate(select(itertools.count(), survivors))}
    model = types_to_model(space.letters, names)
    for f in sorted_formulas(subformula_closure([core])):
        extension = model_check(model, f)
        view = space.bits(f)
        for i, world in names.items():
            assert (world in extension) == bool(view[i >> 3] >> (i & 7) & 1), pretty(f)


def test_bounded_logic_sat_witnesses_respect_their_class():
    probes = [parse("p & <>~p"), parse("<>p & <>q"), parse("[](p | q) & ~[]p")]
    for f in probes:
        for logic in ALL_LOGICS:
            result = sat(f, logic)
            assert isinstance(result, Satisfiable), (pretty(f), str(logic))
            assert satisfies(result.model, result.world, f)
            assert in_frame_class(result.model.masks, logic)
