"""The bit-parallel elimination core against an independent reference.

``_eliminate_reference`` is the per-type superset scan that ``engine``
used before its down-closure rounds: for each type and each missing box
letter it looks for a witness signature directly. ``base_models`` must give
exactly the same (survivors, top) pairs, in the same order.
"""

import itertools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from gammalog.engine import (
    Budget, BudgetExceeded, LogicError, TypeSpace, _column, base_models,
)
from gammalog.kripke import select
from gammalog.syntax import (
    And, Atom, Bottom, Box, Diamond, Implies, Not, Or, SignedClosure, Top, parse,
    sorted_formulas,
)


def _eliminate_reference(space: TypeSpace, b: int) -> list[int]:
    alive = [i for i in space.coherent if space.sig(i) | b == b]
    positions = [j for j in space.box_positions if b >> j & 1]
    obligations = {i: [j for j in positions if not i >> j & 1] for i in alive}
    core_bits = {j: space.bits(space.letters[j].sub) for j in positions}
    while True:
        witness_sigs = {
            j: {space.sig(i) for i in alive if not view[i >> 3] >> (i & 7) & 1}
            for j, view in core_bits.items()
        }
        answered: dict[tuple[int, int], bool] = {}
        kept = []
        for i in alive:
            sig_i = space.sig(i)
            for j in obligations[i]:
                key = (sig_i, j)
                if key not in answered:
                    answered[key] = any(sig | sig_i == sig for sig in witness_sigs[j])
                if not answered[key]:
                    break
            else:
                kept.append(i)
        if len(kept) == len(alive):
            return kept
        alive = kept


def _base_models_reference(space: TypeSpace, confluent: bool):
    if not confluent:
        return [(_eliminate_reference(space, space.box_mask), [])]
    out = []
    for b in sorted({space.sig(i) for i in space.coherent}):
        top = [i for i in space.coherent if space.sig(i) == b]
        if all(
            any(not space.holds(space.letters[j].sub, i) for i in top)
            for j in space.box_positions if not b >> j & 1
        ):
            out.append((_eliminate_reference(space, b), top))
    return out


def _assert_matches_reference(space: TypeSpace) -> None:
    for confluent in (False, True):
        assert list(base_models(space, confluent)) == _base_models_reference(
            space, confluent
        ), confluent


_ATOMS = st.sampled_from([Atom("p"), Atom("q")])
_FORMULAS = st.recursive(
    _ATOMS,
    lambda sub: st.one_of(
        st.builds(Not, sub),
        st.builds(Box, sub),
        st.builds(Diamond, sub),
        st.builds(And, sub, sub),
        st.builds(Or, sub, sub),
        st.builds(Implies, sub, sub),
    ),
    max_leaves=8,
)


@settings(max_examples=80, deadline=None)
@given(st.lists(_FORMULAS, min_size=1, max_size=5))
def test_base_models_match_the_reference_scan(seeds):
    try:
        space = TypeSpace(seeds, Budget(max_letters=12))
    except BudgetExceeded:
        assume(False)
    _assert_matches_reference(space)


_CORE = st.recursive(
    st.sampled_from([Atom("p"), Atom("q"), Atom("r"), Top(), Bottom()]),
    lambda sub: st.one_of(
        st.builds(Not, sub), st.builds(Box, sub), st.builds(And, sub, sub),
        st.builds(Or, sub, sub),
    ),
    max_leaves=8,
)


def _truth(f, letters, i: int) -> bool:
    """Per-assignment propositional reference: letters are read off i."""
    if f in letters:
        return bool(i >> letters.index(f) & 1)
    if isinstance(f, Not):
        return not _truth(f.sub, letters, i)
    if isinstance(f, And):
        return _truth(f.left, letters, i) and _truth(f.right, letters, i)
    if isinstance(f, Or):
        return _truth(f.left, letters, i) or _truth(f.right, letters, i)
    return isinstance(f, Top)


@settings(max_examples=150, deadline=None)
@given(st.lists(_CORE, min_size=1, max_size=4))
def test_mask_matches_a_per_assignment_reference(seeds):
    try:
        space = TypeSpace(seeds, Budget(max_letters=8))
    except BudgetExceeded:
        assume(False)
    for f in sorted_formulas(space.closure):
        mask = space.mask(f)
        assert mask >> (1 << space.k) == 0
        for i in range(1 << space.k):
            assert bool(mask >> i & 1) == _truth(f, space.letters, i), (f, i)


def test_mask_outside_the_closure_raises():
    space = TypeSpace([parse("p & <>q")], Budget())
    assert space.mask(parse("<>q")) == space.mask(parse("~[]~q"))
    for outside in ("r", "p | q", "[]p", "<>p"):
        with pytest.raises(LogicError):
            space.mask(parse(outside))


def test_k20_closure_matches_the_reference_scan():
    closure = SignedClosure.from_seeds([parse("p & q")], [parse("p")])
    space = TypeSpace(sorted_formulas(closure.sigma), Budget())
    assert space.k == 20
    assert list(base_models(space, False)) == _base_models_reference(space, False)


def test_column_matches_its_definition():
    for k in range(11):
        for j in range(k):
            expected = sum(1 << i for i in range(1 << k) if i >> j & 1)
            assert _column(j, k) == expected, (j, k)


def _bits_naive(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def test_bits_matches_a_naive_scan():
    rng = random.Random(7)
    masks = [0, 1, 1 << 20, (1 << 20) | 1, (1 << 64) - 1]
    masks += [rng.getrandbits(rng.randrange(1, 300)) for _ in range(200)]
    masks += [sum(1 << rng.randrange(1 << 12) for _ in range(30)) for _ in range(20)]
    for mask in masks:
        positions = _bits_naive(mask)
        assert select(itertools.count(), mask) == positions, mask
        items = [f"w{i}" for i in range(mask.bit_length() + 3)]
        assert select(items, mask) == [items[i] for i in positions], mask
