import itertools
import re
import time

import pytest

from gammalog import engine
from gammalog.engine import (
    ALL_LOGICS, Budget, Interpolant, Invalid, LogicError,
    LogicId, NotValid, Satisfiable, TypeSpace, Unknown, Unsatisfiable, Valid,
    base_models, catalog, countermodel_search, equivalent, find_interpolant,
    _candidate_stream, in_frame_class, parse_logic, refuted, sat, valid,
)
from gammalog.frame_formulas import OMEGA, frame_formula, gamma
from gammalog.kripke import satisfies, select
from gammalog.syntax import (
    And, Box, Iff, Implies, Not, SignedClosure, Top, atoms, conj, parse, pretty,
    sorted_formulas,
)
from engine_reference import candidate_stream_reference

S4 = parse_logic("S4")
S42 = parse_logic("S4.2")
GRZ = parse_logic("Grz")


# --- logic ids -----------------------------------------------------------------

def test_parse_logic():
    assert parse_logic("G(Int,1,w)") == LogicId("Int", 1, OMEGA)
    assert parse_logic("S4") == LogicId("Int", OMEGA, OMEGA)
    assert parse_logic("S4.2") == LogicId("KC", OMEGA, OMEGA)
    assert GRZ == LogicId("Int", 1, 1)
    assert str(parse_logic("G(KC,2,w)")) == "G(KC,2,w)"
    with pytest.raises(LogicError):
        parse_logic("G(Cl,1,1)")
    with pytest.raises(LogicError):
        parse_logic("G(Int,3,1)")


def test_all_logics():
    assert len(ALL_LOGICS) == 18
    assert len(set(map(str, ALL_LOGICS))) == 18


# --- base-logic elimination -----------------------------------------------------

def test_s42_base_models_keep_their_top_among_the_survivors():
    # each S4.2 model has a non-empty final cluster of one signature b, every
    # survivor's signature lies inside b, and no top type is eliminated
    for left, right in [("p", "p"), ("[]p", "p"), ("p", "q"), ("~[]p", "<>q")]:
        closure = SignedClosure.from_seeds([parse(left)], [parse(right)])
        space = TypeSpace(sorted_formulas(closure.sigma), Budget())
        bounds = []
        for survivors, top in base_models(space, confluent=True):
            assert top, (left, right)
            b = top[0] & space.box_mask
            assert all(i & space.box_mask == b for i in top)
            assert all(i & space.box_mask | b == b for i in select(itertools.count(), survivors))
            assert all(survivors >> i & 1 for i in top)
            bounds.append(b)
        assert bounds and bounds == sorted(set(bounds)), (left, right)


# --- sat ------------------------------------------------------------------------

def test_sat_contradiction():
    for logic in (S4, S42, GRZ, parse_logic("G(KC,2,1)")):
        assert isinstance(sat(parse("p & ~p"), logic), Unsatisfiable)


def test_sat_fork_split_boxes():
    result = sat(parse("<>[]p & <>[]~p"), S4)
    assert isinstance(result, Satisfiable)
    assert satisfies(result.model, result.world, parse("<>[]p & <>[]~p"))
    assert in_frame_class(result.model.masks, S4)


def test_sat_fork_split_boxes_confluent_unsat():
    # confluence forces a common successor where p and ~p would both be boxed
    assert isinstance(sat(parse("<>[]p & <>[]~p"), S42), Unsatisfiable)
    # cross-check: no confluent model with up to 5 worlds satisfies it
    assert countermodel_search(parse("~(<>[]p & <>[]~p)"), S42, 5) is None


def test_sat_respects_cluster_bounds():
    # a formula forcing a 2-cluster: satisfiable with m=2, not with m=1
    two_cluster = parse("p & <>(~p & <>p) & [](p -> <>~p) & [](~p -> <>p)")
    rich = sat(two_cluster, parse_logic("G(Int,2,2)"))
    assert isinstance(rich, Satisfiable)
    assert in_frame_class(rich.model.masks, parse_logic("G(Int,2,2)"))


def test_sat_verified_witnesses_in_class():
    for logic in ALL_LOGICS:
        result = sat(parse("p & <>q"), logic)
        assert isinstance(result, Satisfiable), str(logic)
        assert satisfies(result.model, result.world, parse("p & <>q"))
        assert in_frame_class(result.model.masks, logic)


def test_sat_unknown_on_tiny_budget():
    tiny = Budget(max_letters=0, max_worlds=0, max_seconds=5.0)
    result = sat(parse("[](p -> <>q) & <>[]~p"), S4, tiny)
    assert isinstance(result, Unknown)
    assert result.reason


def test_sat_never_caches_unknown(monkeypatch):
    from gammalog import engine

    # max_letters=1 skips the type space, so sat goes straight to the
    # bounded enumeration, whose first deadline check is forced to expire
    f = parse("p & <>~p & <>q")
    budget = Budget(max_letters=1)
    engine._SAT_CACHE.clear()

    def expire(self, what):
        raise engine.BudgetExceeded(f"time budget exceeded during {what}")

    with monkeypatch.context() as patch:
        patch.setattr(engine._Deadline, "check", expire)
        first = sat(f, S4, budget)
    assert isinstance(first, Unknown)
    assert first.reason == "time budget exceeded during model enumeration"
    again = sat(f, S4, budget)
    assert isinstance(again, Satisfiable)
    assert satisfies(again.model, again.world, f)
    assert sat(f, S4, budget) is again


# --- valid ----------------------------------------------------------------------

def test_frame_formula_matcher_reads_back_every_small_rooted_frame():
    # the satisfied form of each frame formula names its frame; with its
    # last item dropped or contradicted, or an item of group (iii) repeated,
    # it is no frame formula
    from gammalog.suites import _labeled_rooted_frames

    for frame in _labeled_rooted_frames(3):
        items = engine._flatten(frame_formula(frame).sub, And)
        names = [f"p{i}" for i in range(frame.size)]
        assert engine._match_frame_conjunction(conj(items)) == (frame, names)
        left, right = items[-1].sub.left, items[-1].sub.right
        flipped = right.sub if isinstance(right, Not) else Not(right)
        bad = [items[:-1], items + [Box(Implies(left, flipped))]]
        if frame.size > 1:
            bad.append(items + [items[2]])
        for variant in bad:
            assert engine._match_frame_conjunction(conj(variant)) is None


def test_valid_t_axiom():
    assert isinstance(valid(parse("[]p -> p"), S4), Valid)


def test_valid_fork_countermodel():
    verdict = valid(parse("<>[]p -> []<>p"), S4)
    assert isinstance(verdict, Invalid)
    assert not satisfies(verdict.model, verdict.world, parse("<>[]p -> []<>p"))
    assert in_frame_class(verdict.model.masks, S4)


def test_valid_gamma_axiom_in_its_logic():
    assert isinstance(valid(gamma(1, False), parse_logic("G(Int,1,1)")), Valid)
    assert isinstance(valid(gamma(2, True), parse_logic("G(KC,1,2)")), Valid)


def test_valid_gamma_fails_in_weaker_logic():
    verdict = valid(gamma(1, False), parse_logic("G(Int,2,2)"))
    assert isinstance(verdict, Invalid)
    assert in_frame_class(verdict.model.masks, parse_logic("G(Int,2,2)"))
    assert isinstance(valid(gamma(1, True), parse_logic("G(Int,1,w)")), Invalid)


def test_validity_monotone_in_cluster_bounds():
    # anything valid in the (w,w) logic stays valid in every bounded one
    samples = [
        parse("[]p -> p"), parse("[](p & q) -> []p"),
        parse("[]p -> [][]p"), parse("<>(p | q) -> <>p | <>q"),
    ]
    for f in samples:
        assert isinstance(valid(f, S4), Valid)
        for logic in ALL_LOGICS:
            assert isinstance(valid(f, logic), Valid), (pretty(f), str(logic))


# --- countermodel search -----------------------------------------------------------

def test_countermodel_search_examples():
    found = countermodel_search(parse("p"), S4, 1)
    assert found is not None
    model, world = found
    assert len(model.worlds) == 1 and not satisfies(model, world, parse("p"))

    found = countermodel_search(parse("<>[]p -> []<>p"), S4, 3)
    assert found is not None
    assert len(found[0].worlds) == 3

    assert countermodel_search(parse("[]p -> p"), S4, 4) is None


def test_countermodel_search_class_restriction():
    # the .2 axiom has no confluent countermodel
    assert countermodel_search(parse("<>[]p -> []<>p"), S42, 4) is None
    found = countermodel_search(parse("<>[]p -> []<>p"), parse_logic("G(Int,1,1)"), 3)
    assert found is not None
    assert in_frame_class(found[0].masks, parse_logic("G(Int,1,1)"))


# --- equivalence ---------------------------------------------------------------------

def test_equivalent():
    assert equivalent(parse("[][]p"), parse("[]p"), S4) is True
    assert equivalent(parse("<>[]p"), parse("[]<>p"), S4) is False
    assert equivalent(parse("p"), parse("p"), S4) is True
    assert equivalent(parse("<>p"), parse("~[]~p"), S4) is True


# --- interpolation -------------------------------------------------------------------

def test_interpolant_classical():
    result = find_interpolant(parse("p & q"), parse("p | r"), S4)
    assert isinstance(result, Interpolant)
    assert pretty(result.formula) == "p"


def test_interpolant_boxed():
    result = find_interpolant(parse("[](p & q)"), parse("[]p"), GRZ)
    assert isinstance(result, Interpolant)
    chi = result.formula
    assert atoms(chi) <= {"p"}
    assert isinstance(valid(parse(f"[](p & q) -> ({pretty(chi)})"), GRZ), Valid)
    assert isinstance(valid(parse(f"({pretty(chi)}) -> []p"), GRZ), Valid)


def test_interpolant_top():
    result = find_interpolant(parse("p"), parse("q -> q"), S4)
    assert isinstance(result, Interpolant)
    assert pretty(result.formula) == "true"


def test_interpolant_not_valid():
    result = find_interpolant(parse("p"), parse("q"), S4)
    assert isinstance(result, NotValid)
    assert satisfies(result.model, result.world, parse("p"))
    assert not satisfies(result.model, result.world, parse("q"))


def test_interpolant_gamma_axiom():
    result = find_interpolant(Top(), gamma(1, False), parse_logic("G(Int,1,2)"))
    assert isinstance(result, Interpolant)
    assert atoms(result.formula) == frozenset()


def test_interpolant_fingerprints_four_shared_atoms(monkeypatch):
    # p, q and u are shared: fingerprinting only p and q leaves every
    # candidate that differs in u in one bucket, refuted as a duplicate of
    # all others there (10,765 tests; 834 with u fingerprinted too)
    dedupes = []

    def counted(f, *args):
        if isinstance(f, Not) and isinstance(f.sub, Iff):
            dedupes.append(f)
        return refuted(f, *args)

    monkeypatch.setattr(engine, "refuted", counted)
    result = find_interpolant(parse("[]p & <>q & u"), parse("<>(p & q) & (u | v)"),
                              parse_logic("G(Int,2,2)"))
    assert isinstance(result, Interpolant)
    assert pretty(result.formula) == "u & <>(p & q)"
    assert len(dedupes) < 2_000


def test_interpolant_search_keeps_its_time_budget():
    # with empty caches this search takes about 0.3-0.5 s; the budget
    # bounds the whole call, checked before each candidate
    engine._SAT_CACHE.clear()
    budget = Budget(max_seconds=0.05)
    start = time.monotonic()
    result = find_interpolant(parse("[]p & <>q & u"), parse("<>(p & q) & (u | v)"),
                              parse_logic("G(Int,2,2)"), budget)
    elapsed = time.monotonic() - start
    assert isinstance(result, Unknown), result
    assert re.fullmatch(r"time budget exceeded during interpolant search, "
                        r"after \d+ candidates tried", result.reason), result.reason
    assert elapsed < budget.max_seconds + 0.5


# --- catalog ----------------------------------------------------------------------------

def test_candidate_waves_match_the_filtered_reference():
    # a size layer holds formulas of exactly its node count, so each wave
    # takes the layers above the previous cap without filtering them
    names = ["p", "q"]
    assert list(_candidate_stream(names, 1500)) == \
        list(candidate_stream_reference(names, 1500))


def test_catalog_counts():
    entries = catalog()
    assert sum(1 for e in entries if e.has_cip) == 37
    assert sum(1 for e in entries if e.has_dip) == 49
    assert sum(1 for e in entries if e.decidable_here) == 18
    names = [e.name for e in entries]
    assert len(names) == len(set(names))


def test_catalog_aliases_and_families():
    entries = {e.name: e for e in catalog()}
    assert "Grz" in entries["G(Int,1,1)"].aliases
    assert "S4" in entries["G(Int,w,w)"].aliases
    assert "S4.2" in entries["G(KC,w,w)"].aliases
    assert entries["For"].has_cip and entries["For"].has_dip
    assert not entries["For"].decidable_here
    lp2 = [e for e in catalog() if e.family == "LP2"]
    assert len(lp2) == 9  # 5 with cip + 4 dip-only
    cl = [e for e in catalog() if e.family == "Cl"]
    assert len(cl) == 3 and all(e.n == 0 for e in cl)


# --- engine agreement spot checks -----------------------------------------------------

def test_agreement_spot_checks():
    for f_text in ["[]p & ~p", "<>p & []~p", "p & []<>~p & <>[]p"]:
        f = parse(f_text)
        for logic in (S4, S42):
            result = sat(f, logic)
            if isinstance(result, Unsatisfiable):
                assert countermodel_search(parse(f"~({f_text})"), logic, 4) is None
