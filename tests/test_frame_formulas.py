import itertools
import pathlib
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from gammalog import kripke
from gammalog.frame_formulas import (
    OMEGA, ResourceCapExceeded, RootedFrame, cluster_frame, frame_formula,
    gamma, pattern_instance, relative_satisfaction_witness, substitute, substitution_arity,
)
from gammalog.kripke import (
    PreorderModel, clusters, eval_on_frame, find_p_morphism, load_model, model_check,
    model_from_masks,
)
from gammalog.syntax import (
    FALSE, TRUE, And, Atom, Box, Diamond, FormulaError, Not, Top, atoms, parse, pretty,
)
from engine_reference import labeled_preorders
from frame_formulas_reference import relative_satisfaction_witness_reference
from kripke_reference import model_check_reference

p0, p1 = Atom("p0"), Atom("p1")


def total(worlds):
    return [(a, b) for a in worlds for b in worlds]


# --- cluster frames -----------------------------------------------------------

def test_cluster_frame_shapes():
    c1 = cluster_frame(1, False)
    assert c1.size == 1 and c1.succ == (0b1,)
    c2t = cluster_frame(2, True)
    assert c2t.size == 3
    assert c2t.succ == (0b111, 0b111, 0b100)
    assert cluster_frame(3, False).succ == (0b111,) * 3
    with pytest.raises(FormulaError):
        cluster_frame(0, False)


def test_rooted_frame_validation():
    with pytest.raises(Exception):
        RootedFrame((0b01, 0b10))  # 0 does not reach 1


# --- frame formulas -----------------------------------------------------------

def _conjuncts(f):
    assert isinstance(f, Not)
    items = []
    cur = f.sub
    while isinstance(cur, And):
        items.append(cur.right)
        cur = cur.left
    items.append(cur)
    return list(reversed(items))


def test_frame_formula_c1_exact():
    assert pretty(frame_formula(cluster_frame(1, False))) == "~(p0 & []p0 & [](p0 -> <>p0))"


def test_frame_formula_c2_conjunct_count():
    # items (i)-(v) for the 2-cluster: 1 + 1 + 2 + 4 + 0
    assert len(_conjuncts(frame_formula(cluster_frame(2, False)))) == 8


def test_frame_formula_byte_stable():
    a = pretty(frame_formula(cluster_frame(2, True)))
    b = pretty(frame_formula(cluster_frame(2, True)))
    assert a == b
    assert a.startswith("~(p0 & [](p0 | p1 | p2) & ")


def test_natural_model_refutes_frame_formula():
    for n, topped in [(1, False), (2, False), (2, True), (3, False)]:
        frame = cluster_frame(n, topped)
        nm = frame.as_model({f"p{i}": [f"g{i}"] for i in range(frame.size)})
        beta = frame_formula(frame)
        assert "g0" not in model_check(nm, beta)


def test_frame_formula_rejects_unrooted():
    with pytest.raises(Exception):
        frame_formula(RootedFrame((0b01, 0b10)))


def test_gamma():
    assert gamma(OMEGA, False) == Top()
    assert gamma(OMEGA, True) == Top()
    assert gamma(1, False) == frame_formula(cluster_frame(2, False))
    assert atoms(gamma(2, True)) == {"p0", "p1", "p2", "p3"}


# --- substitution ---------------------------------------------------------------

def test_substitute_examples():
    assert substitute(p0, [parse("q")]) == parse("q")
    assert substitute(parse("[](p0 -> p1)"), [parse("p"), parse("~p")]) == parse("[](p -> ~p)")
    assert substitution_arity(parse("[](p0 -> p1)")) == 2
    with pytest.raises(FormulaError):
        substitute(parse("p0 & p1"), [parse("q")])


@st.composite
def _model_and_args(draw):
    size = draw(st.integers(min_value=1, max_value=4))
    worlds = [f"w{i}" for i in range(size)]
    edges = draw(st.sets(st.tuples(st.sampled_from(worlds), st.sampled_from(worlds)), max_size=10))
    val = {
        "p": draw(st.sets(st.sampled_from(worlds), max_size=size)),
        "q": draw(st.sets(st.sampled_from(worlds), max_size=size)),
    }
    model = PreorderModel(worlds, edges, val, closure="auto")
    args = draw(st.lists(
        st.sampled_from([parse("p"), parse("q"), parse("~p"), parse("[]q"), parse("p & q")]),
        min_size=2, max_size=2,
    ))
    return model, args


@settings(max_examples=100, deadline=None)
@given(_model_and_args())
def test_substitution_commutes_with_model_checking(case):
    model, args = case
    chi = parse("[](p0 -> <>p1) & (p1 | ~p0)")
    direct = model_check(model, substitute(chi, args))
    revalued = PreorderModel.from_masks(model.worlds, model.masks, {
        "p0": model_check(model, args[0]),
        "p1": model_check(model, args[1]),
    })
    assert direct == model_check(revalued, chi)


def test_labeled_rooted_frames_keep_the_pair_list_order():
    # criterion 1's targets: every rooted preorder of at most 3 points, by
    # size and then by sorted pair list, as the pair-set build gave them
    from gammalog.suites import _labeled_rooted_frames

    expected = sorted(
        (n, sorted(rel)) for n in (1, 2, 3) for rel in labeled_preorders(n)
        if all((0, i) in rel for i in range(n))
    )
    frames = [
        (frame.size, sorted((a, b) for a, row in enumerate(frame.succ)
                            for b in range(frame.size) if row >> b & 1))
        for frame in _labeled_rooted_frames(3)
    ]
    assert frames == expected and len(frames) == 10


def test_criterion1_pool_substitutions_match_the_reference_semantics():
    # criterion 1 reads [[beta(args)]] off beta evaluated on the frame with
    # p_i revalued to [[args[i]]]; check that substitution lemma against the
    # set-based reference for every pool substitution into the frame formula
    # of every rooted target of at most 2 points, on every frame of at most
    # 3 worlds and every valuation of p (criterion 1's configuration below
    # scale 1)
    from gammalog.suites import _frame_models, _labeled_rooted_frames

    p = Atom("p")
    pool = [FALSE, TRUE, p, Not(p), Box(p), Diamond(p)]
    betas = [(frame, frame_formula(frame)) for frame in _labeled_rooted_frames(2)]
    checked = 0
    for succ, env in _frame_models(3, ["p"]):
        model = model_from_masks(succ, env)
        exts = [model_check_reference(model, arg) for arg in pool]
        masks = [sum(1 << model.worlds.index(w) for w in ext) for ext in exts]
        for frame, beta in betas:
            for combo in itertools.product(range(len(pool)), repeat=frame.size):
                direct = model_check_reference(model, substitute(beta, [pool[c] for c in combo]))
                revalued = {f"p{i}": masks[c] for i, c in enumerate(combo)}
                bits = eval_on_frame(succ, revalued, beta)
                assert direct == {w for i, w in enumerate(model.worlds) if bits >> i & 1}
                checked += 1
    assert checked == 6708


# --- relative satisfaction -------------------------------------------------------

def test_relative_satisfaction_trivial_cases():
    m = PreorderModel(["w"], [("w", "w")], {"p": ["w"]})
    assert relative_satisfaction_witness(m, frozenset({"w"}), Top(), [parse("p"), parse("~p")]) is None
    assert relative_satisfaction_witness(m, frozenset({"w"}), gamma(1, False), []) is None


def test_relative_satisfaction_witness_on_split_cluster():
    # a final 2-cluster where p holds at one point only cannot satisfy the
    # 2-cluster formula relative to {p, ~p}
    m = PreorderModel(["a", "b"], total("ab"), {"p": ["a"]})
    cluster = frozenset({"a", "b"})
    witness = relative_satisfaction_witness(m, cluster, gamma(1, False), [parse("p"), parse("~p")])
    assert witness is not None


def test_relative_satisfaction_keeps_the_extension_of_other_atoms():
    # q is no substitution slot of p0 | q: the instance false | q holds at w
    m = PreorderModel(["w"], [("w", "w")], {"q": ["w"]})
    chi, sigma = parse("p0 | q"), [parse("false")]
    assert model_check(m, substitute(chi, sigma)) == {"w"}
    assert relative_satisfaction_witness(m, frozenset({"w"}), chi, sigma) is None
    assert relative_satisfaction_witness_reference(m, frozenset({"w"}), chi, sigma) is None


def test_relative_satisfaction_cap():
    m = PreorderModel(["a", "b"], total("ab"), {"p": ["a"]})
    sigma = [parse("p"), parse("~p"), parse("q"), parse("~q")]
    with pytest.raises(ResourceCapExceeded):
        relative_satisfaction_witness(m, frozenset({"a", "b"}), gamma(2, True), sigma, max_tuples=10)


_SIGMA_POOL = [
    parse(text) for text in ("p", "~p", "q", "~q", "[]p", "<>q", "p & q", "[]~q", "true", "false")
]
_CHIS = [
    gamma(1, False), gamma(1, True), gamma(2, False), parse("[](p0 -> <>p1) | q"), parse("<>q | p"),
]


@st.composite
def _relative_cases(draw):
    size = draw(st.integers(min_value=1, max_value=6))
    worlds = [f"w{i}" for i in range(size)]
    edges = draw(st.sets(st.tuples(st.sampled_from(worlds), st.sampled_from(worlds)), max_size=12))
    val = {atom: draw(st.sets(st.sampled_from(worlds))) for atom in ("p", "q")}
    model = PreorderModel(worlds, edges, val, closure="auto")
    cluster = draw(st.one_of(
        st.sampled_from(clusters(model).clusters), st.frozensets(st.sampled_from(worlds), min_size=1),
    ))
    # a world the model lacks lies in no extension
    if draw(st.integers(0, 3)) == 3:
        cluster |= {"stray"}
    sigma = draw(st.lists(st.sampled_from(_SIGMA_POOL), min_size=2, max_size=8, unique=True))
    chi = draw(st.sampled_from(_CHIS))
    cap = draw(st.sampled_from([1 << 20, 40]))
    return model, cluster, chi, sigma, cap


def _outcome(check, model, cluster, chi, sigma, cap):
    try:
        return check(model, cluster, chi, sigma, cap)
    except ResourceCapExceeded as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(_relative_cases(), st.sampled_from([1, 16, 40]))
def test_packed_relative_satisfaction_matches_the_per_tuple_scan(case, chunk_bits):
    # a small chunk bound spreads the tuples over several packed evaluations
    with mock.patch.object(kripke, "_CHUNK_BITS", chunk_bits):
        packed = _outcome(relative_satisfaction_witness, *case)
    assert packed == _outcome(relative_satisfaction_witness_reference, *case)


def test_relative_satisfaction_with_a_world_outside_the_model():
    m = PreorderModel(["a", "b"], total("ab"), {"p": ["a"]})
    sigma = [parse("p"), parse("~p")]
    for chi in (gamma(1, False), TRUE, parse("p0 | ~p0")):
        for cluster in ({"a", "zz"}, {"zz"}):
            witness = relative_satisfaction_witness(m, frozenset(cluster), chi, sigma)
            assert witness is not None
            assert witness == relative_satisfaction_witness_reference(m, cluster, chi, sigma)
    assert relative_satisfaction_witness(m, frozenset({"zz"}), TRUE, []) == ()
    assert relative_satisfaction_witness(m, frozenset({"zz"}), gamma(1, False), []) is None


def test_relative_satisfaction_builds_no_model(monkeypatch):
    m = PreorderModel(["a", "b", "c"], total("ab") + [("c", "c"), ("a", "c"), ("b", "c")],
                      {"p": ["a"], "q": ["b", "c"]})
    sigma = [parse("p"), parse("~p"), parse("q"), parse("<>q")]
    built = []
    init = PreorderModel.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PreorderModel, "__init__", counting_init)
    for chi in (gamma(1, False), gamma(1, True), gamma(2, False)):
        relative_satisfaction_witness(m, frozenset({"a", "b"}), chi, sigma)
    assert built == []


def test_relative_satisfaction_witness_on_the_committed_canonical_model():
    inputs = pathlib.Path(__file__).parents[1] / "perfbench" / "inputs"
    model = load_model(str(inputs / "s4_p_q.json"))
    sigma = [parse(line) for line in (inputs / "s4_p_q.sigma").read_text().splitlines() if line]
    cluster = next(c for c in clusters(model).clusters if len(c) == 4)
    witness = relative_satisfaction_witness(model, cluster, gamma(1, False), sigma)
    assert witness == (parse("p"), parse("~p"))


# --- pattern instances ------------------------------------------------------------

def test_pattern_instance_exact_shapes():
    phi, psi = parse("p"), parse("q")
    assert pattern_instance("final2", phi) == substitute(gamma(1, False), [phi, Not(phi)])
    nb = Not(Box(phi))
    assert pattern_instance("nonfinal2", phi) == substitute(
        gamma(1, True), [And(nb, phi), And(nb, Not(phi)), Box(phi)]
    )
    assert pattern_instance("final3", phi, psi) == substitute(
        gamma(2, False), [And(phi, psi), And(Not(phi), psi), Not(psi)]
    )
    assert pattern_instance("nonfinal3", phi, psi) == substitute(
        gamma(2, True),
        [And(And(nb, phi), psi), And(And(nb, Not(phi)), psi), And(nb, Not(psi)), Box(phi)],
    )


def test_pattern_instance_arity_misuse():
    with pytest.raises(FormulaError):
        pattern_instance("final2", parse("p"), parse("q"))
    with pytest.raises(FormulaError):
        pattern_instance("final3", parse("p"))
    with pytest.raises(FormulaError):
        pattern_instance("weird", parse("p"))


# --- gamma validity on small frames (Fine's correspondence) -----------------------

def test_gamma_frame_validity_matches_cluster_bounds():
    # gamma(n, topped) is valid on a frame iff no reachable cluster of the
    # corresponding kind exceeds n; brute force over all frames with <= 4
    # points via the unconstrained p-morphism search
    from gammalog.engine import canonical_frames
    from gammalog.kripke import clusters

    cases = [(1, False), (2, False), (1, True)]
    for k in range(1, 5):
        for succ in canonical_frames(k):
            model = model_from_masks(succ, {})
            worlds = model.worlds
            view = clusters(model)
            for n, topped in cases:
                target = cluster_frame(n + 1, topped)
                image_exists = any(
                    find_p_morphism(model, w, target) is not None for w in worlds
                )
                if topped:
                    offending = any(
                        not fin and len(c) > n
                        for c, fin in zip(view.clusters, view.final)
                    )
                else:
                    offending = any(
                        len(c) > n and fin
                        for c, fin in zip(view.clusters, view.final)
                    )
                # reachability: every cluster is reachable from some world,
                # so offending here means some generated subframe offends
                assert image_exists == offending, (succ, n, topped)


def test_gamma_valuation_bruteforce_matches_morphism_search():
    # Fine's correspondence at the model level for gamma(1, False) on all
    # frames with <= 3 points: refutable under some valuation iff image
    from gammalog.engine import canonical_frames, eval_on_frame

    beta = gamma(1, False)
    target = cluster_frame(2, False)
    for k in range(1, 4):
        for succ in canonical_frames(k):
            refutable = False
            for v0, v1 in itertools.product(range(1 << k), repeat=2):
                bits = eval_on_frame(succ, {"p0": v0, "p1": v1}, beta)
                if bits != (1 << k) - 1:
                    refutable = True
                    break
            model = model_from_masks(succ, {})
            image = any(find_p_morphism(model, w, target) is not None for w in model.worlds)
            assert refutable == image


def test_criterion_1_counts_at_half_scale():
    # criterion 1 evaluates each target's frame formula on one copy of the
    # frame model per tuple of argument extensions; at half scale it must
    # still see every root case and sample the same double-checks
    from gammalog.suites import suite_lemma23

    ok, detail = suite_lemma23(scale=0.5)
    assert ok, detail
    assert detail.startswith(
        "9438 root cases over 3 targets, 0 disagreements, 9 sampled double-checks, "
    ), detail
