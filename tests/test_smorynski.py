import itertools

import pytest

from gammalog.engine import Budget, TypeSpace, base_models, parse_logic, types_to_model
from gammalog.kripke import is_confluent, model_check, model_to_dict, select
from gammalog.smorynski import (
    OracleUndecided, _maximal_sets_from_types, build_smorynski_model, truth_lemma_violations,
)
from gammalog.suites import _TRUTH_SEEDS
from gammalog.syntax import (
    Atom, Box, Bottom, SignedClosure, atoms, iter_negation_pairs, parse,
    pretty, sorted_formulas,
)
from engine_reference import types_to_model_reference
from smorynski_reference import (
    Inseparable, SeparableError, Separable, extend_to_maximal, is_separable,
    maximal_sets_by_branching, maximal_sets_by_scan,
)

S4 = parse_logic("S4")
S42 = parse_logic("S4.2")

p, q = Atom("p"), Atom("q")


def test_separable_direct_contradiction():
    closure = SignedClosure.from_seeds([p], [parse("~p")])
    result = is_separable(({p}, {parse("~p")}), closure, S4)
    assert isinstance(result, Separable)
    assert pretty(result.witness) == "p"


def test_inseparable_disjoint_atoms():
    closure = SignedClosure.from_seeds([p], [q])
    assert isinstance(is_separable(({p}, {q}), closure, S4), Inseparable)


def test_separable_via_t_axiom():
    closure = SignedClosure.from_seeds([parse("[]p")], [parse("~p")])
    result = is_separable(({parse("[]p")}, {parse("~p")}), closure, S4)
    assert isinstance(result, Separable)
    assert pretty(result.witness) == "p"


def test_separability_witness_uses_shared_atoms_only():
    # the separating formula always lives in the shared vocabulary
    cases = [
        (SignedClosure.from_seeds([parse("p & q")], [parse("~p")]),
         ({parse("p & q")}, {parse("~p")})),
        (SignedClosure.from_seeds([parse("[]p")], [parse("~p & q")]),
         ({parse("[]p")}, {parse("~p & q")})),
    ]
    for closure, split in cases:
        result = is_separable(split, closure, S4)
        assert isinstance(result, Separable)
        shared = {a.name for a in closure.sigma1 & closure.sigma2 if isinstance(a, Atom)}
        assert atoms(result.witness) <= shared


def test_flat_membership_split():
    closure = SignedClosure.from_seeds([p], [q])
    assert isinstance(is_separable({p, q}, closure, S4), Inseparable)
    with pytest.raises(ValueError):
        is_separable({Atom("zz")}, closure, S4)


def test_extend_to_maximal_decides_everything():
    closure = SignedClosure.from_seeds([p, q], [p, q])
    ms = extend_to_maximal({p, parse("~q")}, closure, S4)
    assert p in ms.members and parse("~q") in ms.members
    for side, tset in ((1, ms.t1), (2, ms.t2)):
        for f, g in iter_negation_pairs(closure.side(side)):
            assert (f in tset) != (g in tset)


def test_extend_to_maximal_idempotent():
    closure = SignedClosure.from_seeds([p], [p])
    ms = extend_to_maximal({p}, closure, S4)
    assert extend_to_maximal(ms.members, closure, S4) == ms


def test_extend_to_maximal_rejects_separable_input():
    closure = SignedClosure.from_seeds([p], [p])
    with pytest.raises(SeparableError):
        extend_to_maximal({p, parse("~p")}, closure, S4)


@pytest.mark.parametrize("logic", [S4, S42], ids=["S4", "S4.2"])
def test_smorynski_worlds_are_fixpoints_of_the_lindenbaum_extension(logic):
    # each set read off the elimination is inseparable and already maximal
    closure = SignedClosure.from_seeds([parse("<>p")], [parse("[]q")])
    sm = build_smorynski_model(closure, logic)
    for ms in sm.worlds.values():
        assert extend_to_maximal((ms.t1, ms.t2), closure, logic) == ms


def test_smorynski_model_truth_lemma_single_atom():
    closure = SignedClosure.from_seeds([p], [p])
    sm = build_smorynski_model(closure, S4)
    assert not truth_lemma_violations(sm)
    extension = model_check(sm.model, p)
    assert extension and extension != frozenset(sm.model.worlds)


def test_smorynski_worlds_are_maximal_and_consistent():
    closure = SignedClosure.from_seeds([p], [p])
    sm = build_smorynski_model(closure, S4)
    for ms in sm.worlds.values():
        assert Bottom() not in ms.members
        for f, g in iter_negation_pairs(closure.sigma1):
            assert (f in ms.t1) != (g in ms.t1)


def test_smorynski_order_is_box_inclusion():
    closure = SignedClosure.from_seeds([p], [q])
    sm = build_smorynski_model(closure, S4)
    boxed = [f for f in closure.sigma if isinstance(f, Box)]
    for a, ta in sm.worlds.items():
        for b, tb in sm.worlds.items():
            expected = all(f in tb.members for f in boxed if f in ta.members)
            assert sm.model.leq(a, b) == expected


def test_smorynski_confluent_for_kc():
    closure = SignedClosure.from_seeds([p], [p])
    sm = build_smorynski_model(closure, S42)
    assert is_confluent(sm.model.masks)
    assert not truth_lemma_violations(sm)


def test_smorynski_refutes_uninterpolatable_implication():
    # p -> []p has no interpolant reason to hold; some world refutes it
    closure = SignedClosure.from_seeds([p], [parse("[]p")])
    sm = build_smorynski_model(closure, S4)
    refuted = frozenset(sm.model.worlds) - model_check(sm.model, parse("p -> []p"))
    assert refuted


def test_smorynski_strategies_agree():
    cases = [
        (S4, "p", "p"), (S4, "[]p", "p"),
        (S42, "p", "p"), (S42, "p", "q"), (S42, "~[]p", "<>q"),
    ]
    for logic, left, right in cases:
        closure = SignedClosure.from_seeds([parse(left)], [parse(right)])
        fast = build_smorynski_model(closure, logic)
        slow = maximal_sets_by_branching(closure, logic)
        assert sorted(w.label() for w in fast.worlds.values()) == \
            sorted(w.label() for w in slow), (str(logic), left, right)


@pytest.mark.parametrize("logic, seeds", [
    ("S4", _TRUTH_SEEDS), ("S4.2", _TRUTH_SEEDS), ("G(KC,2,2)", [("p", "q")]),
])
def test_maximal_sets_match_the_per_type_scan(logic, seeds):
    # labels, types and sides read off the presorted closure equal a
    # holds() scan per (member, type) named by MaximalSet.label
    logic = parse_logic(logic)
    budget = Budget(max_letters=24, max_types=250_000)
    for left, right in seeds:
        closure = SignedClosure.from_seeds([parse(left)], [parse(right)])
        assert _maximal_sets_from_types(closure, logic, budget) == \
            maximal_sets_by_scan(closure, logic, budget), (str(logic), left, right)


@pytest.mark.parametrize("logic, seeds", [
    ("S4", _TRUTH_SEEDS), ("S4.2", _TRUTH_SEEDS), ("G(KC,2,2)", [("p", "q")]),
])
def test_types_to_model_matches_the_pair_set_build(logic, seeds):
    # the Smorynski worlds, and each base model with its top cluster, give
    # the model that the set of all signature-including pairs gives
    logic = parse_logic(logic)
    budget = Budget(max_letters=24, max_types=250_000)
    for left, right in seeds:
        closure = SignedClosure.from_seeds([parse(left)], [parse(right)])
        letters, maximal = _maximal_sets_from_types(closure, logic, budget)
        names = {i: label for label, i, _ in maximal}
        assert types_to_model(letters, names) == types_to_model_reference(letters, names)
        space = TypeSpace(sorted_formulas(closure.sigma), budget)
        for survivors, top in base_models(space, logic.confluent):
            ranked = enumerate(select(itertools.count(), survivors))
            names = {i: f"t{idx:06d}" for idx, i in ranked}
            assert types_to_model(letters, names, top) == \
                types_to_model_reference(letters, names, top), (str(logic), left, right)


def test_smorynski_equivalent_members_co_decided():
    # [][]p and []p are equivalent in S4; every world contains both or neither
    closure = SignedClosure.from_seeds([parse("[][]p")], [p])
    sm = build_smorynski_model(closure, S4)
    f, g = parse("[][]p"), parse("[]p")
    assert f in closure.sigma1 and g in closure.sigma1
    for ms in sm.worlds.values():
        assert (f in ms.members) == (g in ms.members)


def test_smorynski_bounded_logic_small_closure():
    # cluster bound 2: every type of the one-atom closure is decided by the
    # engine (the witnessing class models are small), so the construction
    # goes through and the truth lemma holds
    closure = SignedClosure.from_seeds([p], [p])
    sm = build_smorynski_model(closure, parse_logic("G(Int,2,2)"))
    assert not truth_lemma_violations(sm)
    smk = build_smorynski_model(closure, parse_logic("G(KC,2,2)"))
    assert not truth_lemma_violations(smk)
    assert is_confluent(smk.model.masks)


def test_smorynski_bounded_logic_aborts_loudly_when_oracle_cannot_decide():
    # the one-atom closure has a type that is S4-consistent but not
    # Grz-consistent (its maximal points would need []p and ~[]p at once);
    # proving that inconsistency is beyond the engine, which must abort
    # rather than guess
    closure = SignedClosure.from_seeds([p], [p])
    with pytest.raises(OracleUndecided):
        build_smorynski_model(closure, parse_logic("G(Int,1,1)"))


def test_smorynski_json_dump_names_worlds_by_members(tmp_path):
    closure = SignedClosure.from_seeds([p], [p])
    sm = build_smorynski_model(closure, S4)
    payload = sm.to_json_dict()
    assert payload["closure"] == "strict"
    assert len(payload["worlds"]) == len(sm.model.worlds)
    for name in payload["worlds"]:
        assert name.startswith("{") and name.endswith("}")
    # every world is named by its label, so the dump is the model's own
    assert all(wid == ms.label() for wid, ms in sm.worlds.items())
    assert sorted(sm.worlds) == list(sm.model.worlds)
    assert payload == model_to_dict(sm.model)
    # loadable as a kripke model
    from gammalog.kripke import model_from_dict
    again = model_from_dict(payload)
    assert len(again.worlds) == len(sm.model.worlds)
