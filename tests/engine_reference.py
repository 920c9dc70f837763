"""Reference frame enumeration and model building for the tests.

``labeled_preorders`` decodes ``engine.preorders``' successor masks into
sets of pairs, the format of the references below.
``labeled_posets_reference`` is the table of labelled strict orders on
sets of pairs that ``engine`` built before it ran it on successor masks.
``canonical_frames_reference`` picks each isomorphism class's
representative as the least of all permutation images of every labelled
preorder. ``types_to_model_reference`` builds the type-space model from
the set of all world pairs whose box signatures are included.
``in_frame_class_reference`` tests class membership on a model's
``ClusterView``, as ``engine`` did before it read successor masks.
``frame_walk_reference`` scans the class frames in that order and runs
``eval_on_frame`` once per valuation, in ``itertools.product`` order,
re-checking each hit on a validated model with that reference class test.
``fingerprint_reference`` is the interpolant fingerprint on one
``eval_on_frame`` call per frame and valuation of the first four atoms,
over ``fingerprint_zoo_reference``.
``candidate_stream_reference`` builds each interpolant candidate wave by
filtering every size layer built so far by node count.
``find_interpolant_reference`` is the interpolant search that tests each
candidate with full ``valid`` and ``equivalent`` calls in the logic itself,
as ``engine.find_interpolant`` did before it tested them by refutation.
"""

import itertools
from functools import lru_cache

from gammalog import kripke
from gammalog.engine import (
    Budget, Interpolant, Invalid, NotValid, Unknown, Valid, _candidate_stream, _fingerprint,
    _fingerprint_zoo, equivalent, preorders, size_layer, valid,
)
from gammalog.kripke import PreorderModel, eval_on_frame, model_from_masks, select
from gammalog.syntax import FALSE, TRUE, Atom, Box, Implies, atoms, node_count, sort_key
from kripke_reference import cluster_sizes_reference, is_confluent_reference


def labeled_preorders(k):
    """Every preorder on range(k), once each, as a set of pairs."""
    for succ in preorders(k):
        yield frozenset((a, b) for a, row in enumerate(succ) for b in select(range(k), row))


def _subsets(items):
    for r in range(len(items) + 1):
        yield from itertools.combinations(items, r)


@lru_cache(maxsize=None)
def labeled_posets_reference(b):
    """All strict partial orders on range(b), as transitive irreflexive sets:
    each order on range(b-1) extended by point b-1 in every consistent way."""
    if b == 0:
        return (frozenset(),)
    new = b - 1
    existing = list(range(new))
    out = []
    for rel in labeled_posets_reference(new):
        for down in _subsets(existing):
            dset = set(down)
            if any((d2, d) in rel and d2 not in dset for d in dset for d2 in existing):
                continue
            ups = [u for u in existing if u not in dset]
            for up in _subsets(ups):
                uset = set(up)
                if any((u, u2) in rel and u2 not in uset for u in uset for u2 in ups):
                    continue
                if any((d, u) not in rel for d in dset for u in uset):
                    continue
                out.append(rel | {(d, new) for d in dset} | {(new, u) for u in uset})
    return tuple(out)


def types_to_model_reference(letters, names, top=()):
    box_mask = sum(1 << j for j, f in enumerate(letters) if isinstance(f, Box))
    sig = {w: i & box_mask for i, w in names.items()}
    top_names = [f"u{idx:06d}" for idx in range(len(top))]
    order = {(a, b) for a in sig for b in sig if sig[a] & ~sig[b] == 0}
    order.update(itertools.product(list(sig) + top_names, top_names))
    typed = list(names.items()) + list(zip(top, top_names))
    valuation = {
        letter.name: [w for i, w in typed if i >> j & 1]
        for j, letter in enumerate(letters) if isinstance(letter, Atom)
    }
    return PreorderModel(list(sig) + top_names, order, valuation)


@lru_cache(maxsize=None)
def canonical_frames_reference(k):
    seen = set()
    out = []
    perms = list(itertools.permutations(range(k)))
    for rel in labeled_preorders(k):
        canon = min(tuple(sorted((p[a], p[b]) for a, b in rel)) for p in perms)
        if canon not in seen:
            seen.add(canon)
            out.append(frozenset(canon))
    out.sort(key=lambda rel: sorted(rel))
    return tuple(out)


def in_frame_class_reference(model, logic):
    finals, nonfinals = cluster_sizes_reference(model)
    if any(size > logic.m for size in finals):
        return False
    if any(size > logic.n for size in nonfinals):
        return False
    if logic.confluent and not is_confluent_reference(model):
        return False
    return True


@lru_cache(maxsize=None)
def class_frames_reference(k, logic):
    out = []
    for rel in canonical_frames_reference(k):
        succ = [0] * k
        for a, b in rel:
            succ[a] |= 1 << b
        if in_frame_class_reference(model_from_masks(succ, {}), logic):
            out.append(tuple(succ))
    return tuple(out)


def frame_walk_reference(f, logic, max_worlds, want):
    names = sorted(atoms(f))
    for k in range(1, max_worlds + 1):
        full = (1 << k) - 1
        for succ in class_frames_reference(k, logic):
            for bits in itertools.product(range(1 << k), repeat=len(names)):
                env = dict(zip(names, bits))
                sat_bits = eval_on_frame(succ, env, f)
                target = (full ^ sat_bits) if want == "refute" else sat_bits
                if target:
                    world = f"w{(target & -target).bit_length() - 1}"
                    model = model_from_masks(succ, env)
                    holds = kripke.satisfies(model, world, f)
                    if holds == (want == "satisfy") and in_frame_class_reference(model, logic):
                        return model, world
    return None


def fingerprint_zoo_reference(names):
    frames = [(0b1,), (0b11, 0b10), (0b11, 0b11), (0b111, 0b010, 0b100)]
    pick = sorted(names)[:4]
    return [
        (succ, dict(zip(pick, bits)), {})
        for succ in frames
        for bits in itertools.product(range(1 << len(succ)), repeat=len(pick))
    ]


def fingerprint_reference(f, zoo):
    return tuple(eval_on_frame(succ, env, f, cache) for succ, env, cache in zoo)


def candidate_stream_reference(names, max_candidates):
    by_size = {1: [FALSE, TRUE] + [Atom(n) for n in sorted(names)]}
    emitted = 0
    top = 1
    previous = 0
    for wave_cap in (4, 6, 8, 10):
        while top < wave_cap:
            top += 1
            by_size[top] = size_layer(by_size, top)
        wave = [
            f for s in range(1, top + 1) for f in by_size[s]
            if node_count(f) > previous
        ]
        wave.sort(key=sort_key)
        for f in wave:
            yield f
            emitted += 1
            if emitted >= max_candidates:
                return
        previous = wave_cap


def find_interpolant_reference(f1, f2, logic, budget=None):
    budget = budget or Budget()
    outer = valid(Implies(f1, f2), logic, budget)
    if isinstance(outer, Invalid):
        return NotValid(outer.model, outer.world)
    if isinstance(outer, Unknown):
        return Unknown(f"implication undecided: {outer.reason}")
    shared = sorted(atoms(f1) & atoms(f2))
    zoo = _fingerprint_zoo(shared)
    seen = {}
    tried = 0
    for chi in _candidate_stream(shared, budget.max_candidates * 4):
        if tried >= budget.max_candidates:
            break
        bucket = seen.setdefault(_fingerprint(chi, zoo), [])
        if any(equivalent(chi, other, logic, budget) for other in bucket):
            continue
        bucket.append(chi)
        tried += 1
        if not isinstance(valid(Implies(f1, chi), logic, budget), Valid):
            continue
        if not isinstance(valid(Implies(chi, f2), logic, budget), Valid):
            continue
        return Interpolant(chi)
    return Unknown(
        f"no interpolant found among {tried} candidates (cap {budget.max_candidates})"
    )
