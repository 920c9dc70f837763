import collections
import itertools
import json
import logging
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import gammalog
from gammalog import kripke
from gammalog.frame_formulas import RootedFrame, cluster_frame
from gammalog.kripke import (
    ModelError, PMorphism, PreorderModel, check_rooted_frame, clusters, cluster_sizes,
    eval_valuations, find_p_morphism, generated_submodel, is_confluent,
    load_model, model_check, model_from_dict, model_from_masks, model_to_dict,
)
from gammalog.syntax import Atom, Box, parse
from engine_reference import canonical_frames_reference, labeled_preorders
from kripke_reference import (
    clusters_reference, frame_shape_reference, model_check_reference, order_pairs,
    p_morphism_defect_reference, preorder_defect_reference, reflexive_transitive_closure,
)


def total(worlds):
    return [(a, b) for a in worlds for b in worlds]


def test_construction_validates_preorder():
    def message(worlds, order, valuation=None, closure="strict"):
        with pytest.raises(ModelError) as info:
            PreorderModel(worlds, order, valuation or {}, closure=closure)
        return str(info.value)

    assert message(["a", "b"], [("a", "b")]) == "order is not reflexive at a"
    chain = [("a", "a"), ("b", "b"), ("c", "c"), ("a", "b"), ("b", "c")]
    assert message(["a", "b", "c"], chain) == "order is not transitive: a <= b <= c"
    assert message(["a"], [("a", "a"), ("a", "z")]) == "order mentions unknown world in (a, z)"
    assert message(["a"], [("z", "z")], closure="auto") == "order mentions unknown world in (z, z)"
    assert message(["a"], [("a", "a")], {"p": ["zzz"]}) == (
        "valuation of p mentions unknown worlds ['zzz']"
    )
    assert message([], []) == "a model needs at least one world"
    assert message(["a"], [("a", "a")], closure="none") == (
        "closure mode must be 'auto' or 'strict', got 'none'"
    )
    # several defects: the least offending pair and the least unknown world
    # are named, whatever order the set of pairs iterates in
    for worlds, order, expected in _SEVERAL_DEFECTS:
        assert message(worlds, order) == expected
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(gammalog.__file__).parents[1]))
    script = (
        "from gammalog.kripke import ModelError, PreorderModel\n"
        f"for worlds, order, _ in {_SEVERAL_DEFECTS!r}:\n"
        "    try:\n"
        "        PreorderModel(worlds, order, {})\n"
        "    except ModelError as exc:\n"
        "        print(exc)\n"
    )
    for seed in ("1", "4"):
        printed = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=dict(env, PYTHONHASHSEED=seed), check=True,
        ).stdout
        assert printed.splitlines() == [expected for _, _, expected in _SEVERAL_DEFECTS], seed


_SEVERAL_DEFECTS = [
    (
        "abcd",
        [(w, w) for w in "abcd"] + [("a", "b"), ("b", "c"), ("c", "d"), ("a", "c")],
        "order is not transitive: a <= c <= d",
    ),
    (
        "a",
        [("a", "a"), ("a", "y"), ("a", "z"), ("x", "a")],
        "order mentions unknown world in (x, a)",
    ),
]


def _built(build):
    try:
        return order_pairs(build())
    except ModelError as exc:
        return str(exc)


def _check_closure_against_the_reference(worlds, rel):
    # the pair constructor and from_masks agree with the reference on the
    # closure, on acceptance and on the exact text of the first defect;
    # worlds come in ascending order, as from_masks needs
    succ = reflexive_transitive_closure(worlds, rel)
    closed = {(a, b) for a in worlds for b in succ[a]}
    defect = preorder_defect_reference(worlds, rel)
    assert (defect is None) == (set(rel) == closed)
    masks = [sum(1 << worlds.index(b) for a2, b in rel if a2 == a) for a in worlds]
    for closure, expected in (("auto", closed), ("strict", defect or closed)):
        assert _built(lambda: PreorderModel(worlds, rel, {}, closure=closure)) == expected
        assert _built(lambda: PreorderModel.from_masks(worlds, masks, {}, closure=closure)) == expected
    auto = PreorderModel(worlds, rel, {}, closure="auto")
    for w in worlds:
        assert auto.successors(w) == succ[w]


def test_closure_matches_the_reference_on_every_three_world_relation():
    worlds = ["a", "b", "c"]
    pairs = [(a, b) for a in worlds for b in worlds]
    for bits in range(1 << len(pairs)):
        _check_closure_against_the_reference(
            worlds, [pair for i, pair in enumerate(pairs) if bits >> i & 1]
        )


@st.composite
def _relations(draw):
    size = draw(st.integers(min_value=1, max_value=6))
    worlds = [f"x{i}" for i in range(size)]
    rel = draw(st.sets(st.tuples(st.sampled_from(worlds), st.sampled_from(worlds))))
    return worlds, rel


@settings(max_examples=300, deadline=None)
@given(_relations())
def test_closure_matches_the_reference_on_random_relations(case):
    _check_closure_against_the_reference(*case)


def test_from_masks_validates_its_layout():
    def message(worlds, masks):
        with pytest.raises(ModelError) as info:
            PreorderModel.from_masks(worlds, masks, {})
        return str(info.value)

    assert message(["b", "a"], [0b11, 0b11]) == "world ids must be given in ascending order, each once"
    assert message(["a", "a"], [0b11, 0b11]) == "world ids must be given in ascending order, each once"
    assert message(["a", "b"], [0b11]) == "need one successor mask over 2 worlds per world"
    assert message(["a", "b"], [0b111, 0b10]) == "need one successor mask over 2 worlds per world"
    assert message(["a", "b"], [0b11, -1]) == "need one successor mask over 2 worlds per world"
    assert message([], []) == "a model needs at least one world"
    model = PreorderModel.from_masks(["a", "b"], [0b11, 0b10], {"p": ["b"]})
    assert model == PreorderModel(["a", "b"], [("a", "a"), ("a", "b"), ("b", "b")], {"p": ["b"]})


@pytest.mark.parametrize("k", [3, 10, 11, 13])
def test_model_from_masks_names_world_i_wi_past_ten_worlds(k):
    # w10 sorts before w2, so from 11 worlds on the rows are permuted
    succ = [(1 << k) - (1 << i) for i in range(k)]  # the chain 0 <= 1 <= ... <= k-1
    env = {"p": 0b101, "q": 1 << k - 1}
    worlds = [f"w{i}" for i in range(k)]
    expected = PreorderModel(
        worlds, [(a, b) for i, a in enumerate(worlds) for b in worlds[i:]],
        {"p": ["w0", "w2"], "q": [worlds[-1]]},
    )
    assert model_from_masks(succ, env) == expected


@st.composite
def _edge_deletions(draw):
    worlds, rel = draw(_relations())
    model = PreorderModel(worlds, rel, {"p": worlds[:1]}, closure="auto")
    cluster = sorted(draw(st.sampled_from(clusters(model).clusters)))
    inside = [(a, b) for a in cluster for b in cluster]
    pool = draw(st.sampled_from([inside, sorted(order_pairs(model))]))
    return model, draw(st.sets(st.sampled_from(pool), max_size=len(pool)))


@settings(max_examples=300, deadline=None)
@given(_edge_deletions())
def test_without_edges_agrees_with_a_strict_rebuild(case):
    model, removed = case
    rebuilt = _built(lambda: PreorderModel(model.worlds, order_pairs(model) - removed, model.valuation))
    assert _built(lambda: model.without_edges(removed)) == rebuilt
    if not isinstance(rebuilt, str):
        assert model.without_edges(removed) == PreorderModel(model.worlds, rebuilt, model.valuation)


def test_without_edges_rejects_edges_it_lacks():
    chain = PreorderModel(["a", "b"], [("a", "b")], {}, closure="auto")
    with pytest.raises(ModelError, match=r"order has no edge \(b, a\)"):
        chain.without_edges([("b", "a")])
    with pytest.raises(ModelError, match="unknown world 'z'"):
        chain.without_edges([("a", "z")])


def test_successors_match_the_order_on_every_four_world_preorder():
    worlds = ["w0", "w1", "w2", "w3"]
    count = 0
    for rel in labeled_preorders(4):
        order = {(worlds[a], worlds[b]) for a, b in rel}
        for closure in ("strict", "auto"):
            m = PreorderModel(worlds, order, {}, closure=closure)
            assert order_pairs(m) == order
            for w in worlds:
                assert m.successors(w) == {b for a, b in order if a == w}
        count += 1
    assert count == 355


def test_auto_closure():
    m = PreorderModel(["a", "b", "c"], [("a", "b"), ("b", "c")], {}, closure="auto")
    assert m.leq("a", "c") and m.leq("a", "a")


def test_model_check_reflexive_singleton():
    m = PreorderModel(["w"], [("w", "w")], {"p": ["w"]})
    assert model_check(m, parse("[]p")) == {"w"}


def test_model_check_two_chain():
    m = PreorderModel(["x", "y"], [("x", "y")], {"p": ["y"]}, closure="auto")
    assert model_check(m, parse("<>p")) == {"x", "y"}
    assert model_check(m, parse("[]p")) == {"y"}


def test_model_check_confluent_diamond():
    # root, two middles, one top; p only at the top: derived by hand from the
    # semantics, every world reaches the top and every successor set does
    m = PreorderModel(
        ["r", "a", "b", "t"],
        [("r", "a"), ("r", "b"), ("a", "t"), ("b", "t")],
        {"p": ["t"]},
        closure="auto",
    )
    everything = frozenset(m.worlds)
    assert model_check(m, parse("<>[]p")) == everything
    assert model_check(m, parse("[]<>p")) == everything


def test_unknown_atom_is_empty():
    m = PreorderModel(["w"], [("w", "w")], {})
    assert model_check(m, parse("q")) == frozenset()
    assert model_check(m, parse("~q")) == {"w"}


def test_unknown_atom_is_logged_once_per_model(caplog):
    caplog.set_level(logging.DEBUG, logger="gammalog.kripke")
    first = PreorderModel(["a", "b"], [("a", "b")], {"p": ["b"]}, closure="auto")
    second = PreorderModel(["w"], [("w", "w")], {})
    for f in ("q", "~q", "[]q & p", "<>(q | p)", "q -> q"):
        model_check(first, parse(f))
    assert len(caplog.records) == 1
    model_check(second, parse("q & r"))
    model_check(second, parse("~q | <>r"))
    messages = [record.getMessage() for record in caplog.records]
    assert messages.count("atom q has no valuation entry; treating as empty") == 2
    assert messages.count("atom r has no valuation entry; treating as empty") == 1
    assert len(messages) == 3


def _same_view(model):
    view, reference = clusters(model), clusters_reference(model)
    assert view == reference
    assert view.cluster_of == reference.cluster_of


def test_clusters_match_the_reference_on_every_four_world_preorder():
    worlds = ["w0", "w1", "w2", "w3"]
    count = 0
    for rel in labeled_preorders(4):
        order = {(worlds[a], worlds[b]) for a, b in rel}
        for closure in ("strict", "auto"):
            _same_view(PreorderModel(worlds, order, {}, closure=closure))
        count += 1
    assert count == 355


@st.composite
def _random_orders(draw):
    size = draw(st.integers(min_value=2, max_value=8))
    worlds = draw(st.permutations([f"x{i}" for i in range(size)]))
    edges = draw(st.sets(st.tuples(st.sampled_from(worlds), st.sampled_from(worlds)),
                         max_size=2 * size))
    return PreorderModel(worlds, edges, {}, closure="auto")


@settings(max_examples=200, deadline=None)
@given(_random_orders())
def test_clusters_match_the_reference_on_random_models(model):
    _same_view(model)


def test_clusters_single_final():
    m = PreorderModel(["a", "b", "c"], total("abc"), {})
    view = clusters(m)
    assert len(view.clusters) == 1 and view.final == (True,)
    assert len(view.clusters[0]) == 3


def test_clusters_chain():
    m = PreorderModel(["a", "b"], [("a", "b")], {}, closure="auto")
    view = clusters(m)
    assert view.final == (False, True)
    assert view.clusters == (frozenset({"a"}), frozenset({"b"}))


def test_clusters_topped_two_cluster():
    m = cluster_frame(2, True).as_model()
    view = clusters(m)
    finals = [len(c) for c, fin in zip(view.clusters, view.final) if fin]
    nonfinals = [len(c) for c, fin in zip(view.clusters, view.final) if not fin]
    assert finals == [1] and nonfinals == [2]
    assert cluster_sizes(m.masks) == ([1], [2])


def test_generated_submodel():
    m = PreorderModel(
        ["r", "a", "b", "t"],
        [("r", "a"), ("r", "b"), ("a", "t"), ("b", "t")],
        {"p": ["t"]},
        closure="auto",
    )
    top = generated_submodel(m, "t")
    assert set(top.worlds) == {"t"}
    whole = generated_submodel(m, "r")
    assert set(whole.worlds) == set(m.worlds)
    twice = generated_submodel(generated_submodel(m, "a"), "a")
    assert twice == generated_submodel(m, "a")
    with pytest.raises(ModelError):
        generated_submodel(m, "zzz")


def test_is_confluent():
    single = PreorderModel(["a", "b"], total("ab"), {})
    assert is_confluent(single.masks)
    fork = PreorderModel(["r", "a", "b"], [("r", "a"), ("r", "b")], {}, closure="auto")
    assert not is_confluent(fork.masks)
    assert is_confluent(cluster_frame(2, True).as_model().masks)


def test_p_morphism_identity_spec():
    frame = cluster_frame(2, False)
    nm = frame.as_model({f"p{i}": [f"g{i}"] for i in range(frame.size)})
    pm = find_p_morphism(nm, "g0", frame, [Atom("p0"), Atom("p1")])
    assert pm is not None
    pm.validate()
    assert pm.mapping == {"g0": 0, "g1": 1}


def test_p_morphism_two_chain_onto_two_cluster_absent():
    chain = PreorderModel(["a", "b"], [("a", "b")], {}, closure="auto")
    frame = cluster_frame(2, False)
    # independent oracle: enumerate all four maps and check the conditions
    viable = []
    for fa, fb in itertools.product(range(2), repeat=2):
        mapping = {"a": fa, "b": fb}
        surjective = {fa, fb} == {0, 1}
        monotone = True  # any map into a single cluster is monotone
        back = all(
            any(mapping[v] == j for v in chain.successors(w))
            for w in chain.worlds
            for j in range(2)
        )
        if surjective and monotone and back:
            viable.append(mapping)
    assert viable == []
    assert find_p_morphism(chain, "a", frame) is None


def test_p_morphism_three_cluster_onto_two_cluster_exists():
    m = PreorderModel(["a", "b", "c"], total("abc"), {})
    pm = find_p_morphism(m, "a", cluster_frame(2, False))
    assert pm is not None
    pm.validate()


def test_p_morphism_malformed_target():
    m = PreorderModel(["a"], [("a", "a")], {})

    with pytest.raises(ModelError):
        find_p_morphism(m, "a", RootedFrame((0b01, 0b10)))  # not rooted


def test_check_rooted_frame_decides_like_the_pair_set_reference():
    # every relation on at most 3 points, as successor masks; a target that
    # is no preorder is named by the strict validation's first defect
    count = 0
    for size in (1, 2, 3):
        pairs = list(itertools.product(range(size), repeat=2))
        for bits in range(1 << len(pairs)):
            rel = frozenset(pair for i, pair in enumerate(pairs) if bits >> i & 1)
            succ = tuple(sum(1 << b for a2, b in rel if a2 == a) for a in range(size))
            expected = frame_shape_reference(size, rel)
            try:
                check_rooted_frame(succ)
                decision = "ok"
            except ModelError as exc:
                decision = "not rooted" if "not rooted" in str(exc) else "rejected"
                if decision == "rejected":
                    assert str(exc) == preorder_defect_reference(range(size), rel)
            assert decision == expected, (size, sorted(rel))
            count += 1
    assert count == 530
    for succ, message in [
        ((), "target frame must be nonempty"),
        ((0b11, 0b110), "target frame rows must be masks over 2 points"),
        ((0b11, -1), "target frame rows must be masks over 2 points"),
    ]:
        with pytest.raises(ModelError) as info:
            check_rooted_frame(succ)
        assert str(info.value) == message


def test_p_morphism_defect_matches_the_pair_set_reference():
    # every map from every generated submodel of every canonical frame of at
    # most 3 worlds onto every rooted frame of at most 3 points
    targets = [
        (n, rel) for n in (1, 2, 3) for rel in labeled_preorders(n)
        if all((0, i) in rel for i in range(n))
    ]
    kinds = collections.Counter()
    for k in (1, 2, 3):
        for frame in canonical_frames_reference(k):
            model = PreorderModel([f"w{i}" for i in range(k)],
                                  [(f"w{a}", f"w{b}") for a, b in frame], {})
            for sub in {generated_submodel(model, w) for w in model.worlds}:
                for n, rel in targets:
                    succ = tuple(sum(1 << b for a2, b in rel if a2 == a) for a in range(n))
                    for image in itertools.product(range(n), repeat=len(sub.worlds)):
                        mapping = dict(zip(sub.worlds, image))
                        expected = p_morphism_defect_reference(sub, n, rel, mapping)
                        assert kripke._p_morphism_defect(sub, succ, mapping) == expected
                        kinds[expected and expected.split(" at ")[0]] += 1
    assert kinds == {
        None: 70, "p-morphism is not surjective": 1666, "p-morphism not monotone": 184,
        "back condition fails": 76,
    }


def test_validate_names_the_first_failed_condition():
    # a two-chain a <= b onto the two-chain 0 <= 1, broken one way at a time
    chain = PreorderModel(["a", "b"], [("a", "b")], {}, closure="auto")
    target = (0b11, 0b10)
    PMorphism(chain, target, {"a": 0, "b": 1}).validate()
    broken = [
        ({"a": 0}, "p-morphism is not total on the source"),
        ({"a": 0, "b": 0}, "p-morphism is not surjective"),
        ({"a": 1, "b": 0}, "p-morphism not monotone at (a,b)"),
    ]
    for mapping, message in broken:
        with pytest.raises(ModelError) as info:
            PMorphism(chain, target, mapping).validate()
        assert str(info.value) == message
    # a and b apart, onto the two-chain: 0 sees 1 but a sees no world at 1
    apart = PreorderModel(["a", "b"], [("a", "a"), ("b", "b")], {})
    with pytest.raises(ModelError) as info:
        PMorphism(apart, target, {"a": 0, "b": 1}).validate()
    assert str(info.value) == "back condition fails at a for 1"


def test_p_morphism_bad_spec_length():
    m = PreorderModel(["a"], [("a", "a")], {})
    with pytest.raises(ModelError):
        find_p_morphism(m, "a", cluster_frame(2, False), [Atom("p0")])


# --- hypothesis properties ----------------------------------------------------

@st.composite
def small_models(draw):
    size = draw(st.integers(min_value=1, max_value=4))
    worlds = [f"w{i}" for i in range(size)]
    edges = draw(
        st.sets(
            st.tuples(st.sampled_from(worlds), st.sampled_from(worlds)),
            max_size=size * size,
        )
    )
    val_p = draw(st.sets(st.sampled_from(worlds), max_size=size))
    val_q = draw(st.sets(st.sampled_from(worlds), max_size=size))
    return PreorderModel(worlds, edges, {"p": val_p, "q": val_q}, closure="auto")


_small_formulas = st.recursive(
    st.sampled_from([parse("p"), parse("q"), parse("false")]),
    lambda sub: st.one_of(
        st.builds(lambda f: parse(f"~({pretty_of(f)})"), sub),
        st.builds(Box, sub),
    ),
    max_leaves=3,
)


def pretty_of(f):
    from gammalog.syntax import pretty
    return pretty(f)


@settings(max_examples=120, deadline=None)
@given(small_models(), _small_formulas)
def test_box_persistence(model, f):
    boxed = Box(f)
    holds = model_check(model, boxed)
    sub = model_check(model, f)
    for w in holds:
        assert model.successors(w) <= sub


@settings(max_examples=80, deadline=None)
@given(small_models(), _small_formulas)
def test_generated_submodel_truth_invariance(model, f):
    x = model.worlds[0]
    sub = generated_submodel(model, x)
    keep = model.successors(x)
    assert sub == PreorderModel(keep, [(a, b) for a in keep for b in model.successors(a)],
                                {atom: ext & keep for atom, ext in model.valuation.items()})
    inner = model_check(sub, f)
    outer = model_check(model, f)
    for y in sub.worlds:
        assert (y in inner) == (y in outer)


# --- JSON ----------------------------------------------------------------------

def test_json_roundtrip(tmp_path):
    m = PreorderModel(
        ["a", "b"], [("a", "b")], {"p": ["b"], "q": []}, closure="auto"
    )
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_to_dict(m)), encoding="utf-8")
    again = load_model(str(path))
    assert again == m


def test_json_strict_rejects_non_preorder():
    data = {"worlds": ["a", "b"], "order": [["a", "b"]], "valuation": {}, "closure": "strict"}
    with pytest.raises(ModelError):
        model_from_dict(data)
    data["closure"] = "auto"
    assert model_from_dict(data).leq("a", "a")


def test_json_malformed():
    with pytest.raises(ModelError):
        model_from_dict({"order": []})


# --- many valuations of one frame ----------------------------------------------

def test_eval_valuations_matches_the_reference_semantics_across_chunks(monkeypatch):
    # seven-bit chunks hold one copy of this six-world frame at a time, and
    # 40 bits five copies, so the valuations span several chunks either way
    worlds = ["a", "b", "c", "d", "e", "f"]
    order = total("ab") + [("b", "c"), ("c", "d"), ("a", "e"), ("e", "f"), ("f", "e")]
    model = PreorderModel(worlds, order, {"p": ["a"], "q": ["c", "d"]}, closure="auto")
    f = parse("[](p0 -> <>p1) & (q | ~[]p1)")
    masks = range(0, 64, 5)
    valuations = [{"p0": a, "p1": b} for a, b in itertools.product(masks, repeat=2)]
    valuations += [{"p0": 0b101}, {"p1": 0b11}, {}, {"p0": 63, "r": 1}]
    expected = []
    for valuation in valuations:
        revalued = PreorderModel.from_masks(model.worlds, model.masks, {
            atom: [w for i, w in enumerate(worlds) if mask >> i & 1]
            for atom, mask in valuation.items()
        })
        sat = model_check_reference(revalued, f)
        expected.append(sum(1 << i for i, w in enumerate(worlds) if w in sat))
    for chunk_bits in (7, 40, 1 << 16):
        monkeypatch.setattr(kripke, "_CHUNK_BITS", chunk_bits)
        assert list(eval_valuations(model, f, valuations)) == expected, chunk_bits


def test_eval_valuations_reads_one_chunk_at_a_time(monkeypatch):
    model = PreorderModel(["a", "b"], total("ab"), {})
    monkeypatch.setattr(kripke, "_CHUNK_BITS", 9)  # three copies of a two-world frame
    taken = []

    def valuations():
        for mask in itertools.cycle(range(4)):
            taken.append(mask)
            yield {"p": mask}

    results = eval_valuations(model, parse("<>p"), valuations())
    assert [next(results) for _ in range(4)] == [0, 3, 3, 3]
    assert len(taken) == 6


def test_only_small_layouts_are_cached():
    kripke._layout.cache_clear()
    cluster = ((1 << 200) - 1,) * 200
    kripke.eval_on_frame(cluster, {}, parse("[]p"), None, 400)
    assert kripke._layout.cache_info().currsize == 0
    # the largest layout a frame walk slice makes: 2^12 copies of 12 worlds
    chain = tuple((1 << 12) - (1 << i) for i in range(12))
    kripke.eval_on_frame(chain, {}, parse("[]p"), None, 1 << 12)
    assert kripke._layout.cache_info().currsize == 1
