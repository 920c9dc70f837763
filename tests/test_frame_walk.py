"""Bounded frame enumeration against its per-valuation reference.

``engine._frame_walk`` evaluates each class frame once per slice of
valuations: ``kripke.eval_on_frame``, the one Kripke evaluator, runs on
one copy of the frame per valuation. ``engine_reference`` holds the walk
that calls ``eval_on_frame`` once per valuation, on a single copy, and the
canonical frame table built by minimising over all permutations of every
labelled preorder. The walks must return the same (model, world) in every case.
"""

import hashlib
import itertools
import time
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from gammalog import engine, kripke
from gammalog.engine import (
    ALL_LOGICS, BudgetExceeded, _Deadline, canonical_frames, countermodel_search,
    in_frame_class, parse_logic,
)
from gammalog.kripke import PreorderModel, cluster_sizes, eval_on_frame, is_confluent
from gammalog.syntax import And, Atom, Box, Diamond, Iff, Implies, Not, Or, FALSE, TRUE, parse
from engine_reference import (
    canonical_frames_reference, fingerprint_reference, fingerprint_zoo_reference,
    frame_walk_reference, in_frame_class_reference, labeled_posets_reference, labeled_preorders,
)
from kripke_reference import cluster_sizes_reference, is_confluent_reference

LOGICS = [parse_logic(name) for name in ("S4", "S4.2", "Grz", "G(Int,1,2)", "G(KC,2,1)")]
ATOMS = ["p", "q", "r", "s"]


def _formulas(names):
    return st.recursive(
        st.sampled_from([Atom(n) for n in names] + [TRUE, FALSE]),
        lambda sub: st.one_of(
            st.builds(Not, sub), st.builds(Box, sub), st.builds(Diamond, sub),
            st.builds(And, sub, sub), st.builds(Or, sub, sub),
            st.builds(Implies, sub, sub), st.builds(Iff, sub, sub),
        ),
        max_leaves=8,
    )


@st.composite
def _walk_case(draw):
    n_atoms = draw(st.integers(min_value=0, max_value=4))
    f = draw(_formulas(ATOMS[:n_atoms]))
    # the reference scans up to 2^(atoms * worlds) valuations per frame
    max_worlds = draw(st.integers(min_value=1, max_value=min(4, 9 // max(n_atoms, 1))))
    logic = draw(st.sampled_from(LOGICS))
    want = draw(st.sampled_from(["refute", "satisfy"]))
    # narrower slices loop over leading atoms at these small sizes too
    slice_bits = draw(st.sampled_from([engine._SLICE_BITS, 4, 2, 1]))
    return f, logic, max_worlds, want, slice_bits


@settings(max_examples=150, deadline=None)
@given(_walk_case())
def test_frame_walk_matches_the_per_valuation_reference(case):
    f, logic, max_worlds, want, slice_bits = case
    expected = frame_walk_reference(f, logic, max_worlds, want)
    with mock.patch.object(engine, "_SLICE_BITS", slice_bits):
        found = engine._frame_walk(f, logic, max_worlds, want)
        if want == "refute":
            assert countermodel_search(f, logic, max_worlds) == found
    assert found == expected
    if found is not None:
        assert found[1] == expected[1]


# four atoms at four worlds: the first sorted atom is looped, the other
# three are sliced; the hits need p true at w0, and at w3
FOUR_ATOMS = [
    "p & <>(q & ~p) & <>(r & ~p & ~q) & <>(s & ~p & ~q & ~r)",
    "s & <>(r & ~s) & <>(q & ~r & ~s) & <>(p & ~q & ~r & ~s)",
]


@pytest.mark.parametrize("logic", LOGICS, ids=str)
def test_countermodel_search_on_four_atoms_at_four_worlds(logic):
    f = Not(parse(FOUR_ATOMS[0]))
    found = countermodel_search(f, logic, 4)
    assert found is not None and len(found[0].worlds) == 4
    assert found == frame_walk_reference(f, logic, 4, "refute")
    assert found[1] == "w0"


def test_satisfy_walk_on_four_atoms_at_four_worlds():
    logic = parse_logic("Grz")
    for text in FOUR_ATOMS:
        f = parse(text)
        found = engine._frame_walk(f, logic, 4, "satisfy")
        expected = frame_walk_reference(f, logic, 4, "satisfy")
        assert found == expected and found[1] == expected[1], text
        assert len(found[0].worlds) == 4


def test_false_hits_are_rechecked_and_skipped(monkeypatch):
    # an evaluator that reports every world of every copy as a hit: each
    # hit is rebuilt and checked, and the walk goes on to the next copy
    def everywhere(succ, env, f, cache=None, copies=1):
        return eval_on_frame(succ, {}, TRUE, None, copies)

    monkeypatch.setattr(engine, "eval_on_frame", everywhere)
    for text in ("p & ~q & <>q", "p & ~p", "[]p & <>~p"):
        f = parse(text)
        for logic in LOGICS:
            expected = frame_walk_reference(f, logic, 3, "satisfy")
            found = engine._frame_walk(f, logic, 3, "satisfy")
            assert found == expected, (text, str(logic))
    # a hit that fails its re-check skips the rest of its copy: every
    # valuation is checked once, at its lowest world
    checked = []
    satisfies = kripke.satisfies

    def recording(model, world, f):
        checked.append(world)
        return satisfies(model, world, f)

    monkeypatch.setattr(kripke, "satisfies", recording)
    logic = parse_logic("S4")
    assert engine._frame_walk(parse("p & ~p"), logic, 3, "satisfy") is None
    frames = [len(engine._class_frames(k, logic.lam, logic.m, logic.n)) for k in (1, 2, 3)]
    assert checked == ["w0"] * sum(n << k for k, n in zip((1, 2, 3), frames))


@pytest.mark.parametrize("n_atoms", [6, 10])
def test_satisfy_walk_stops_at_the_deadline(n_atoms):
    # no class model satisfies the formula; six atoms take up to 2^20
    # slices per frame at five worlds, ten atoms 2^18 at three worlds
    f = parse("(p1 & ~p1) & (" + " | ".join(f"p{i}" for i in range(2, n_atoms + 1)) + ")")
    start = time.monotonic()
    with pytest.raises(BudgetExceeded):
        engine._frame_walk(f, parse_logic("S4"), 5, "satisfy", _Deadline(0.5))
    assert time.monotonic() - start < 2


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda k: st.tuples(
            st.just(k),
            st.sampled_from(canonical_frames(k)),
            st.integers(min_value=0, max_value=min(3, 12 // k)),
        )
    ).flatmap(
        lambda c: st.tuples(
            st.just(c),
            _formulas(ATOMS[:c[2]] + ["t"]),
            st.integers(min_value=0, max_value=(1 << c[0] * c[2]) - 1),
        )
    )
)
def test_sliced_evaluator_matches_eval_on_frame_at_each_valuation(case):
    (k, succ, n_atoms), f, v = case
    names = ATOMS[:n_atoms]
    # atom t is not valued and holds nowhere
    columns, _ = engine._sliced_atoms(n_atoms, k)
    sliced = eval_on_frame(succ, dict(zip(names, columns)), f, None, 1 << k * n_atoms)
    # valuation v is the v-th of itertools.product order, in copy v
    masks = next(itertools.islice(itertools.product(range(1 << k), repeat=n_atoms), v, None))
    expected = eval_on_frame(succ, dict(zip(names, masks)), f)
    assert sliced >> v * (k + 1) & (1 << k) - 1 == expected


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda k: st.tuples(
            st.just(k),
            st.lists(st.integers(0, (1 << k) - 1), min_size=k, max_size=k),
            st.lists(
                st.tuples(st.integers(0, (1 << k) - 1), st.integers(0, (1 << k) - 1)),
                min_size=1, max_size=64,
            ),
        )
    ),
    _formulas(["p", "q", "t"]),
)
def test_copies_evaluate_like_one_copy_at_a_time(case, f):
    # any relation, 1-64 copies with their own p and q; t has no valuation
    k, succ, valuations = case
    stride = k + 1
    env = {
        name: sum(ext[i] << c * stride for c, ext in enumerate(valuations))
        for i, name in enumerate(["p", "q"])
    }
    packed = eval_on_frame(succ, env, f, None, len(valuations))
    expected = sum(
        eval_on_frame(succ, {"p": p, "q": q}, f) << c * stride
        for c, (p, q) in enumerate(valuations)
    )
    assert packed == expected
    worlds = sum(((1 << k) - 1) << c * stride for c in range(len(valuations)))
    assert packed & ~worlds == 0


def _pairs(succ):
    return frozenset((a, b) for a, row in enumerate(succ) for b in range(len(succ)) if row >> b & 1)


def test_canonical_frames_match_the_reference():
    # the table holds successor masks; the reference holds pair sets
    for k in range(1, 6):
        assert tuple(map(_pairs, canonical_frames(k))) == canonical_frames_reference(k)
    assert len(canonical_frames(5)) == 139


def test_frame_properties_on_masks_match_the_cluster_view_reference():
    # every preorder of at most 4 worlds and every canonical 5-world frame,
    # in all 18 logics
    frames = [rel for k in range(1, 5) for rel in labeled_preorders(k)]
    frames += canonical_frames_reference(5)
    cases = 0
    for rel in frames:
        k = 1 + max(a for a, _ in rel)
        worlds = [f"w{i}" for i in range(k)]
        model = PreorderModel(worlds, {(worlds[a], worlds[b]) for a, b in rel}, {})
        assert cluster_sizes(model.masks) == cluster_sizes_reference(model), rel
        assert is_confluent(model.masks) == is_confluent_reference(model), rel
        for logic in ALL_LOGICS:
            assert in_frame_class(model.masks, logic) == in_frame_class_reference(model, logic)
            cases += 1
    assert cases == 9504


def test_class_tables_build_no_model_and_no_cluster_view(monkeypatch):
    built = []
    from_masks, view = PreorderModel.from_masks.__func__, kripke.clusters
    monkeypatch.setattr(PreorderModel, "from_masks",
                        classmethod(lambda cls, *args, **kw: built.append(args)
                                    or from_masks(cls, *args, **kw)))
    monkeypatch.setattr(kripke, "clusters", lambda model: built.append(model) or view(model))
    engine._class_frames.cache_clear()
    try:
        for k in range(1, 6):
            for logic in ALL_LOGICS:
                engine._class_frames(k, logic.lam, logic.m, logic.n)
    finally:
        engine._class_frames.cache_clear()
    assert built == []


def test_labeled_posets_on_masks_match_the_pair_set_build():
    # the same strict orders in the same order, row i holding the points above i
    for b in range(6):
        posets = [
            frozenset((i, j) for i, up in enumerate(ups) for j in range(b) if up >> j & 1)
            for ups in engine._labeled_posets(b)
        ]
        assert posets == list(labeled_posets_reference(b))


def test_labeled_preorders_keep_their_order():
    digests = {
        1: "243f3527c2336db0", 2: "0573b56e6e7ef6d4", 3: "e92bde2d77ca3f5e",
        4: "1e7ccd34da7da33d", 5: "24fa2a8799ab9001",
    }
    for k, digest in digests.items():
        seq = [tuple(sorted(rel)) for rel in labeled_preorders(k)]
        assert hashlib.sha256(repr(seq).encode()).hexdigest()[:16] == digest


def test_fingerprint_buckets_match_the_per_valuation_zoo():
    names = ["p", "q"]
    zoo, zoo_reference = engine._fingerprint_zoo(names), fingerprint_zoo_reference(names)
    new_to_old, old_to_new = {}, {}
    for chi in engine._candidate_stream(names, 1500):
        new, old = engine._fingerprint(chi, zoo), fingerprint_reference(chi, zoo_reference)
        assert new_to_old.setdefault(new, old) == old
        assert old_to_new.setdefault(old, new) == new
    assert len(new_to_old) == 320
