import pathlib

import pytest

from gammalog.frame_formulas import OMEGA
from gammalog.kripke import (
    PreorderModel, cluster_sizes, clusters, is_confluent, load_model, model_check,
)
from gammalog.refine import (
    RefinementError, RefinementPlan, find_adequate_set, inadequacy_witness,
    is_adequate, make_plan, refine_cluster, refine_model,
)
from gammalog.syntax import (
    boolean_subformula_closure, parse, pretty, sorted_formulas, subformula_closure, to_core,
)

INPUTS = pathlib.Path(__file__).parents[1] / "perfbench" / "inputs"


def total(worlds):
    return [(a, b) for a in worlds for b in worlds]


BOXP = to_core(parse("[]p"))
SIGMA_P = boolean_subformula_closure([to_core(parse("[]p"))])


def test_is_adequate_no_boxes_vacuous():
    m = PreorderModel(["x", "y"], total("xy"), {"p": ["x"]})
    assert is_adequate(m, frozenset({"x", "y"}), {"x"}, [parse("p"), parse("~p")])


def test_is_adequate_final_singleton():
    m = PreorderModel(["x"], [("x", "x")], {"p": ["x"]})
    # x satisfies []p, so ~[]p & p fails at x and the condition is vacuous
    assert is_adequate(m, frozenset({"x"}), {"x"}, [BOXP, parse("p")])


def test_is_adequate_split_final_two_cluster():
    m = PreorderModel(["x", "y"], total("xy"), {"p": ["x"]})
    cluster = frozenset({"x", "y"})
    assert not is_adequate(m, cluster, {"x"}, [BOXP, parse("p")])
    assert inadequacy_witness(m, cluster, {"x"}, [BOXP, parse("p")]) == BOXP


def test_is_adequate_discharged_above():
    # same split cluster, but now a strict successor witnesses ~p
    m = PreorderModel(
        ["x", "y", "z"],
        total("xy") + [("x", "z"), ("y", "z"), ("z", "z")],
        {"p": ["x", "y"]},
    )
    assert is_adequate(m, frozenset({"x", "y"}), {"x"}, [BOXP, parse("p")])


def test_is_adequate_validates_subset():
    m = PreorderModel(["x", "y"], total("xy"), {})
    with pytest.raises(RefinementError):
        is_adequate(m, frozenset({"x"}), {"y"}, [])
    with pytest.raises(RefinementError):
        is_adequate(m, frozenset({"x", "y"}), set(), [])


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
    assert is_adequate(m, cluster, found, SIGMA_P)


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
    finals, nonfinals = cluster_sizes(refined)
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
    finals, nonfinals = cluster_sizes(refined)
    assert all(s == 1 for s in finals + nonfinals)
    assert is_confluent(refined)
    # locality: removed edges stay inside the refined clusters
    removed = m.order - refined.order
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
    m = PreorderModel(list("abc"), total("abc"), {"p": list("abc")})
    refined = refine_model(m, SIGMA_P, SIGMA_P, 1, 1, check_preconditions=True)
    finals, _ = cluster_sizes(refined)
    assert max(finals) == 1


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


def test_refine_model_never_builds_the_order_view(monkeypatch):
    # the 196-world S4 model of (p, q) takes 36 steps at (2, 2); every step
    # reads and edits the successor masks, never the pairs of ``order``
    model = load_model(INPUTS / "s4_p_q.json")
    lines = (INPUTS / "s4_p_q.sigma").read_text(encoding="utf-8").splitlines()
    sigma = subformula_closure(to_core(parse(line)) for line in lines if line.strip())
    built = []
    view = PreorderModel.order
    monkeypatch.setattr(PreorderModel, "order", property(lambda m: built.append(m) or view.fget(m)))
    steps = []
    refined = refine_model(model, sigma, sigma, 2, 2, step_log=steps)
    assert len(steps) == 36 and built == []
    finals, nonfinals = cluster_sizes(refined)
    assert max(finals + nonfinals) <= 2
