import collections
import pathlib

import pytest
from hypothesis import assume, given, settings, strategies as st

import refine_reference
from gammalog import kripke, refine
from gammalog.frame_formulas import OMEGA, gamma, relative_satisfaction_witness
from gammalog.kripke import (
    PreorderModel, cluster_sizes, clusters, is_confluent, load_model, model_check,
)
from gammalog.refine import (
    RefinementError, RefinementPlan, boxed_members, find_adequate_set, inadequacy_witness,
    make_plan, refine_cluster, refine_model,
)
from gammalog.syntax import (
    Atom, Box, Diamond, Implies, Not, Or, And, boolean_subformula_closure, closure_letters,
    parse, pretty, sorted_formulas, subformula_closure, to_core,
)
from kripke_reference import order_pairs

INPUTS = pathlib.Path(__file__).parents[1] / "perfbench" / "inputs"


def total(worlds):
    return [(a, b) for a in worlds for b in worlds]


BOXP = to_core(parse("[]p"))
SIGMA_P = boolean_subformula_closure([to_core(parse("[]p"))])


def test_is_adequate_no_boxes_vacuous():
    m = PreorderModel(["x", "y"], total("xy"), {"p": ["x"]})
    assert inadequacy_witness(m, frozenset({"x", "y"}), {"x"}, [parse("p"), parse("~p")]) is None


def test_is_adequate_final_singleton():
    m = PreorderModel(["x"], [("x", "x")], {"p": ["x"]})
    # x satisfies []p, so ~[]p & p fails at x and the condition is vacuous
    assert inadequacy_witness(m, frozenset({"x"}), {"x"}, [BOXP, parse("p")]) is None


def test_is_adequate_split_final_two_cluster():
    m = PreorderModel(["x", "y"], total("xy"), {"p": ["x"]})
    cluster = frozenset({"x", "y"})
    assert inadequacy_witness(m, cluster, {"x"}, [BOXP, parse("p")]) == BOXP


def test_is_adequate_discharged_above():
    # same split cluster, but now a strict successor witnesses ~p
    m = PreorderModel(
        ["x", "y", "z"],
        total("xy") + [("x", "z"), ("y", "z"), ("z", "z")],
        {"p": ["x", "y"]},
    )
    assert inadequacy_witness(m, frozenset({"x", "y"}), {"x"}, [BOXP, parse("p")]) is None


def test_is_adequate_validates_subset():
    m = PreorderModel(["x", "y"], total("xy"), {})
    with pytest.raises(RefinementError):
        inadequacy_witness(m, frozenset({"x"}), {"y"}, [])
    with pytest.raises(RefinementError):
        inadequacy_witness(m, frozenset({"x", "y"}), set(), [])


def test_refine_cluster_four_cluster_shape():
    m = PreorderModel(list("abcd"), total("abcd"), {})
    plan = make_plan(m, frozenset("abcd"), {"a", "b"})
    refined = refine_cluster(m, plan)
    for y in "abcd":
        for z in "abcd":
            assert refined.leq(y, z) == (y == z or z in {"a", "b"})


def test_refine_cluster_keep_everything_is_identity():
    m = PreorderModel(["x", "y"], total("xy"), {"p": ["x"]})
    plan = make_plan(m, frozenset({"x", "y"}), {"x", "y"})
    assert refine_cluster(m, plan) == m
    assert plan.removed_edges == frozenset()


def test_refine_cluster_preserves_closed_sigma():
    # final 3-cluster, p everywhere: any doubleton is adequate and the
    # refined model keeps every extension of the closed sigma
    m = PreorderModel(list("abc"), total("abc"), {"p": list("abc")})
    sigma = SIGMA_P
    keep = find_adequate_set(m, frozenset("abc"), sigma, sigma, 2)
    assert keep is not None
    refined = refine_cluster(m, make_plan(m, frozenset("abc"), keep))
    for f in sorted_formulas(sigma):
        assert model_check(m, f) == model_check(refined, f), pretty(f)


def test_make_plan_validates():
    m = PreorderModel(list("abc"), total("abc"), {})
    with pytest.raises(RefinementError):
        make_plan(m, frozenset("abc"), {"a", "b", "c"})
    with pytest.raises(RefinementError):
        make_plan(m, frozenset("ab"), {"c"})


def test_refine_cluster_rejects_a_plan_for_another_model():
    chain = PreorderModel(["a", "b"], [("a", "b")], {}, closure="auto")
    plan = RefinementPlan(frozenset("ab"), frozenset("a"), frozenset({("b", "a")}))
    with pytest.raises(RefinementError, match=r"order has no edge \(b, a\)"):
        refine_cluster(chain, plan)
    with pytest.raises(RefinementError, match="does not live in this model"):
        refine_cluster(chain, RefinementPlan(frozenset("az"), frozenset("a"), frozenset()))


def test_find_adequate_set_singleton_cluster():
    m = PreorderModel(["x"], [("x", "x")], {"p": ["x"]})
    assert find_adequate_set(m, frozenset({"x"}), SIGMA_P, SIGMA_P, 1) == {"x"}


def test_find_adequate_set_indistinguishable_cluster():
    m = PreorderModel(["a", "b"], total("ab"), {"p": ["a", "b"]})
    assert find_adequate_set(m, frozenset({"a", "b"}), SIGMA_P, SIGMA_P, 1) == {"a"}


def test_find_adequate_set_three_cluster_doubleton():
    # q distinguishes one point; sigma boxes only mention p, so a doubleton
    # exists and is verified adequate
    m = PreorderModel(list("abc"), total("abc"), {"p": list("abc"), "q": ["a"]})
    cluster = frozenset("abc")
    found = find_adequate_set(m, cluster, SIGMA_P, SIGMA_P, 2)
    assert found is not None
    assert inadequacy_witness(m, cluster, found, SIGMA_P) is None


def test_find_adequate_set_none_when_precondition_violated():
    # final 2-cluster splitting p admits no adequate singleton
    m = PreorderModel(["x", "y"], total("xy"), {"p": ["x"]})
    assert find_adequate_set(m, frozenset({"x", "y"}), SIGMA_P, SIGMA_P, 1) is None


def test_refine_model_omega_is_identity():
    m = PreorderModel(list("abc"), total("abc"), {"p": ["a"]})
    assert refine_model(m, SIGMA_P, SIGMA_P, OMEGA, OMEGA) == m


def test_refine_model_single_indistinguishable_cluster():
    m = PreorderModel(list("abc"), total("abc"), {"p": list("abc")})
    refined = refine_model(m, SIGMA_P, SIGMA_P, 1, 1)
    finals, nonfinals = cluster_sizes(refined.masks)
    assert max(finals) == 1
    for f in sorted_formulas(SIGMA_P):
        assert model_check(m, f) == model_check(refined, f)


def test_refine_model_minimal_first_and_locality():
    # non-final 2-cluster below a final 3-cluster, all worlds p: both shrink
    worlds = list("abcde")
    order = total("ab") + total("cde") + [(x, y) for x in "ab" for y in "cde"]
    m = PreorderModel(worlds, order, {"p": worlds}, closure="auto")
    steps = []
    refined = refine_model(m, SIGMA_P, SIGMA_P, 1, 1, step_log=steps)
    assert [s["final"] for s in steps] == [False, True]
    finals, nonfinals = cluster_sizes(refined.masks)
    assert all(s == 1 for s in finals + nonfinals)
    assert is_confluent(refined.masks)
    # locality: removed edges stay inside the refined clusters
    removed = order_pairs(m) - order_pairs(refined)
    view = clusters(m)
    for a, b in removed:
        assert view.cluster_of[a] == view.cluster_of[b]
    for f in sorted_formulas(SIGMA_P):
        assert model_check(m, f) == model_check(refined, f)


def test_refine_model_raises_on_violated_preconditions():
    m = PreorderModel(["x", "y"], total("xy"), {"p": ["x"]})
    with pytest.raises(RefinementError):
        refine_model(m, SIGMA_P, SIGMA_P, 1, 1)


def test_refine_model_precondition_recheck_mode():
    # replay the logged steps: before each one, the cluster satisfies its
    # cluster formula relative to both sides
    m = PreorderModel(list("abc"), total("abc"), {"p": list("abc")})
    steps = []
    refined = refine_model(m, SIGMA_P, SIGMA_P, 1, 1, step_log=steps)
    assert steps
    work = m
    for step in steps:
        cluster = frozenset(step["cluster"])
        chi = gamma(1, topped=not step["final"])
        for side in (SIGMA_P, SIGMA_P):
            assert relative_satisfaction_witness(work, cluster, chi, side) is None
        plan = make_plan(work, cluster, step["kept"])
        assert len(plan.removed_edges) == step["removed_edges"]
        work = refine_cluster(work, plan)
    assert work == refined
    finals, _ = cluster_sizes(refined.masks)
    assert max(finals) == 1


def test_refine_model_checks_the_carried_extensions_at_the_end(monkeypatch):
    # a final 2-cluster splitting p has no adequate singleton; forcing the
    # surgery anyway makes []p true at x, and the end check must see it
    m = PreorderModel(["x", "y"], total("xy"), {"p": ["x"]})
    real = refine.find_adequate_set

    def forced(*args, **kwargs):
        assert real(*args, **kwargs) is None
        return frozenset({"x"})

    monkeypatch.setattr(refine, "find_adequate_set", forced)
    with pytest.raises(RefinementError, match=r"changed the extension of \[\]p"):
        refine_model(m, SIGMA_P, SIGMA_P, 1, 1)

def test_refine_model_termination_measure():
    # several oversized clusters: step count equals the oversized count
    worlds = [f"w{i}" for i in range(6)]
    order = (
        total(worlds[:2]) + total(worlds[2:4]) + total(worlds[4:])
        + [(a, b) for a in worlds[:2] for b in worlds[2:]]
        + [(a, b) for a in worlds[2:4] for b in worlds[4:]]
    )
    m = PreorderModel(worlds, order, {"p": worlds}, closure="auto")
    steps = []
    refine_model(m, SIGMA_P, SIGMA_P, 1, 1, step_log=steps)
    assert len(steps) == 3


def test_refinement_problems_name_each_defect():
    # criterion 4's verifier, on the (1, 1) refinement of a 2-cluster {a, b}
    # below c, p true everywhere: the refinement keeps b below a below c
    from gammalog.suites import _refinement_problems

    m = PreorderModel(list("abc"), total("ab") + [("a", "c"), ("b", "c")], {"p": list("abc")},
                      closure="auto")
    refined = refine_model(m, SIGMA_P, SIGMA_P, 1, 1)
    before = {f: model_check(m, f) for f in sorted_formulas(SIGMA_P)}
    assert _refinement_problems(m, refined, before, 1, 1) == []
    val = refined.valuation
    cases = [
        # c sees b: the closure makes one cluster, with edges m lacks
        (PreorderModel(refined.worlds, order_pairs(refined) | {("c", "b")}, val, closure="auto"),
         ["final cluster bound violated", "edges added"]),
        (refined.without_edges([("a", "c"), ("b", "c")]), ["edge removed outside a cluster"]),
        (PreorderModel.from_masks(refined.worlds, refined.masks, {"p": ["a", "b"]}),
         ["extension changed: p"]),
        (PreorderModel.from_masks(["a", "b", "d"], refined.masks, {"p": ["a", "b", "d"]}),
         ["worlds changed"]),
    ]
    for bad, problems in cases:
        assert _refinement_problems(m, bad, before, 1, 1) == problems


def _outcome(refine_fn, model, sigma1, sigma2, m, n):
    steps = []
    try:
        refined = refine_fn(model, sigma1, sigma2, m, n, step_log=steps)
    except RefinementError as exc:
        return None, steps, str(exc)
    return refined, steps, None


def _assert_matches_reference(model, sigma1, sigma2, m, n):
    new = _outcome(refine_model, model, sigma1, sigma2, m, n)
    assert new == _outcome(refine_reference.refine_model, model, sigma1, sigma2, m, n)
    return new


_ATOMS = st.sampled_from([Atom("p"), Atom("q")])
# diamonds and arrows are kept out of the closures' carried part; they are
# drawn too, so that the per-step path is exercised beside the carried one
_FORMULAS = st.recursive(
    _ATOMS,
    lambda sub: st.one_of(
        sub.map(Not), sub.map(Box), sub.map(Diamond),
        st.tuples(sub, sub).map(lambda t: And(*t)),
        st.tuples(sub, sub).map(lambda t: Or(*t)),
        st.tuples(sub, sub).map(lambda t: Implies(*t)),
    ),
    max_leaves=4,
)
_BOUNDS = st.sampled_from([1, 2, OMEGA])


@st.composite
def _refine_cases(draw):
    # a random preorder: worlds in up to four clusters, ordered by a random
    # relation on the cluster numbers, then closed
    size = draw(st.integers(min_value=2, max_value=7))
    worlds = [f"w{i}" for i in range(size)]
    number = draw(st.lists(st.integers(0, 3), min_size=size, max_size=size))
    above = draw(st.sets(st.tuples(st.integers(0, 3), st.integers(0, 3))))
    edges = [(a, b) for a, i in zip(worlds, number) for b, j in zip(worlds, number)
             if i == j or (i, j) in above]
    valuation = {atom: draw(st.sets(st.sampled_from(worlds))) for atom in ("p", "q")}
    model = PreorderModel(worlds, edges, valuation, closure="auto")
    f1, f2 = draw(_FORMULAS), draw(_FORMULAS)
    if draw(st.booleans()):
        sigma1, sigma2 = subformula_closure([f1]), subformula_closure([f2])
    else:
        f1, f2 = to_core(f1), to_core(f2)
        for f in (f1, f2):
            assume(len(closure_letters(subformula_closure([f]))) <= 3)
        sigma1, sigma2 = boolean_subformula_closure([f1]), boolean_subformula_closure([f2])
    return model, sigma1, sigma2, draw(_BOUNDS), draw(_BOUNDS)


@settings(max_examples=200, deadline=None)
@given(_refine_cases())
def test_refine_model_matches_the_reference(case):
    # the carried facts and the one cluster view give the model, the steps
    # and the error text of refining from scratch at every step
    _assert_matches_reference(*case)


@pytest.mark.parametrize("sigma, p_at", [
    # the body <>p is in sigma, but a refinement need not keep a diamond
    (subformula_closure([parse("[]<>p")]), "y"),
    # the body []p is outside sigma
    (frozenset({parse("[][]p")}), "x"),
], ids=["diamond-body", "body-outside-sigma"])
def test_refine_model_carries_only_the_closed_part_without_diamonds(sigma, p_at):
    # a final 2-cluster: {x} is adequate, and refining to it changes the
    # body's extension at x, so the body must not be carried
    m = PreorderModel(["x", "y"], total("xy"), {"p": [p_at]})
    refined, steps, error = _assert_matches_reference(m, sigma, sigma, 1, 1)
    assert error is None and steps[0]["kept"] == ["x"]
    body = next(f for f in sigma if isinstance(f, Box)).sub
    assert model_check(refined, body) != model_check(m, body)


def _bench_input(stem):
    model = load_model(INPUTS / f"{stem}.json")
    lines = (INPUTS / f"{stem}.sigma").read_text(encoding="utf-8").splitlines()
    return model, subformula_closure(to_core(parse(line)) for line in lines if line.strip())


@pytest.mark.parametrize("stem", sorted(path.stem for path in INPUTS.glob("*.json")))
def test_refine_model_matches_the_reference_on_the_bench_inputs(stem):
    model, sigma = _bench_input(stem)
    for m, n in ((2, 2), (OMEGA, 2), (2, OMEGA)):
        refined, steps, error = _assert_matches_reference(model, sigma, sigma, m, n)
        assert error is None and steps


def test_refine_model_reads_one_view_and_evaluates_sigma_at_most_twice(monkeypatch):
    # 36 steps on the 196-world model: each boxed member of the closed sigma
    # and its body is evaluated once while carried and once in the end check
    model, sigma = _bench_input("s4_p_q")
    views = []
    real_clusters = kripke.clusters
    monkeypatch.setattr(kripke, "clusters", lambda m: views.append(m) or real_clusters(m))
    computed = collections.Counter()
    real_eval = kripke._eval

    def counting(layout, env, f, cache):
        if f not in cache:
            computed[f] += 1
        return real_eval(layout, env, f, cache)

    monkeypatch.setattr(kripke, "_eval", counting)
    steps = []
    refine_model(model, sigma, sigma, 2, 2, step_log=steps)
    assert len(steps) == 36 and views == [model]
    boxes = boxed_members(sigma)
    assert boxes and all(computed[b] == 2 for b in boxes)
    assert max(computed.values()) == 2
