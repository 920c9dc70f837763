"""Reference enumeration of maximal inseparable sets for the tests.

``maximal_sets_by_branching`` branches depth-first over (formula vs
negation) choices with inseparability pruning, asking the consistency
oracle at every step, instead of reading the sets off the surviving types
of one elimination as ``build_smorynski_model`` does.

``maximal_sets_by_scan`` reads the sets off the same surviving types as
``smorynski._maximal_sets_from_types``, but decodes each base model's
survivor mask on its own, reads each (side member, type) off the member's
truth mask and names each set with ``MaximalSet.label``.

``is_separable`` and ``extend_to_maximal`` are the Lindenbaum route: decide
whether one set is separable, with the Craig interpolant as its witness,
and extend one inseparable set to a maximal one by a consistency query per
modality class of each closure side, in canonical order.
"""

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

from gammalog import engine
from gammalog.engine import Budget, LogicId
from gammalog.kripke import select
from gammalog.smorynski import MaximalSet, OracleUndecided, _consistent
from gammalog.syntax import (
    Formula, Not, SignedClosure, conj, iter_negation_pairs, modality_key, pretty,
    sorted_formulas,
)


class SeparableError(RuntimeError):
    def __init__(self, witness: Optional[Formula]):
        name = pretty(witness) if witness is not None else "(witness unavailable)"
        super().__init__(f"the set is separable, witnessed by {name}")
        self.witness = witness


@dataclass(frozen=True)
class Separable:
    witness: Formula


@dataclass(frozen=True)
class Inseparable:
    pass


def _sides(T, closure: SignedClosure) -> tuple[frozenset, frozenset]:
    """Split T by closure side.

    T is either a flat formula set (split as T & sigma_i, the default
    reading) or an explicit pair (t1, t2) when the caller tracks which side
    each formula came from.
    """
    if isinstance(T, tuple) and len(T) == 2:
        t1, t2 = frozenset(T[0]), frozenset(T[1])
    else:
        flat = frozenset(T)
        t1, t2 = flat & closure.sigma1, flat & closure.sigma2
        if t1 | t2 != flat:
            stray = flat - closure.sigma
            raise ValueError(
                f"formulas outside the closure: {[pretty(f) for f in sorted_formulas(stray)]}"
            )
        return t1, t2
    if not t1 <= closure.sigma1 or not t2 <= closure.sigma2:
        stray = (t1 - closure.sigma1) | (t2 - closure.sigma2)
        raise ValueError(
            f"formulas outside their closure side: {[pretty(f) for f in sorted_formulas(stray)]}"
        )
    return t1, t2


def is_separable(
    T: Iterable[Formula],
    closure: SignedClosure,
    logic: LogicId,
    budget: Optional[Budget] = None,
):
    """Separable(witness) or Inseparable(), deciding via joint consistency.

    The witness is the Craig interpolant of /\\T1 -> ~/\\T2; it uses only
    atoms shared by both closure sides.
    """
    t1, t2 = _sides(T, closure)
    if _consistent(t1 | t2, logic, budget):
        return Inseparable()
    result = engine.find_interpolant(
        conj(sorted_formulas(t1)), Not(conj(sorted_formulas(t2))), logic, budget
    )
    if isinstance(result, engine.Interpolant):
        return Separable(result.formula)
    raise OracleUndecided(
        "the set is separable but the witness search ran out of budget"
    )


def _class_polarity(
    sigma: frozenset[Formula], anchor: Formula
) -> tuple[frozenset[Formula], frozenset[Formula]]:
    """Members of sigma in the anchor's modality class and in its negation's."""
    key = modality_key(anchor)
    neg_key = modality_key(Not(anchor))
    pos = frozenset(f for f in sigma if modality_key(f) == key)
    neg = frozenset(f for f in sigma if modality_key(f) == neg_key)
    return pos, neg


def extend_to_maximal(
    T: Iterable[Formula],
    closure: SignedClosure,
    logic: LogicId,
    budget: Optional[Budget] = None,
) -> MaximalSet:
    """Lindenbaum-style extension: walk each side in canonical order, add
    the formula if the set stays inseparable, otherwise its negation
    representative (which then must keep the set inseparable)."""
    t1, t2 = _sides(T, closure)
    if not _consistent(t1 | t2, logic, budget):
        result = is_separable(t1 | t2, closure, logic, budget)
        witness = result.witness if isinstance(result, Separable) else None
        raise SeparableError(witness)
    sides = {1: set(t1), 2: set(t2)}
    for index in (1, 2):
        sigma = closure.side(index)
        chosen = sides[index]
        for anchor, neg_anchor in iter_negation_pairs(sigma):
            pos, neg = _class_polarity(sigma, anchor)
            decided_pos = chosen & pos
            decided_neg = chosen & neg
            if decided_pos:
                chosen |= pos
                continue
            if decided_neg:
                chosen |= neg
                continue
            other = sides[2 if index == 1 else 1]
            if _consistent(chosen | other | pos, logic, budget):
                chosen |= pos
            elif _consistent(chosen | other | neg, logic, budget):
                chosen |= neg
            else:
                raise SeparableError(None)
    return MaximalSet(frozenset(sides[1]), frozenset(sides[2]))


def maximal_sets_by_branching(closure, logic, budget=None):
    pair_plan = []
    for index in (1, 2):
        sigma = closure.side(index)
        for anchor, _ in iter_negation_pairs(sigma):
            pos, neg = _class_polarity(sigma, anchor)
            pair_plan.append((index, pos, neg))
    results = {}

    def walk(pos_at, sides):
        if pos_at == len(pair_plan):
            ms = MaximalSet(sides[1], sides[2])
            results[(ms.t1, ms.t2)] = ms
            return
        index, pos, neg = pair_plan[pos_at]
        for choice in (pos, neg):
            extended = dict(sides)
            extended[index] = sides[index] | choice
            if _consistent(extended[1] | extended[2], logic, budget):
                walk(pos_at + 1, extended)

    walk(0, {1: frozenset(), 2: frozenset()})
    return sorted(results.values(), key=lambda ms: ms.label())


def maximal_sets_by_scan(closure, logic, budget):
    space = engine.TypeSpace(sorted_formulas(closure.sigma), budget)
    survivors = set()
    for alive, _ in engine.base_models(space, logic.confluent):
        survivors.update(select(itertools.count(), alive))
    masks = {f: space.mask(f) for f in closure.sigma}
    out = []
    for i in sorted(survivors):
        t1 = frozenset(f for f in closure.sigma1 if masks[f] >> i & 1)
        t2 = frozenset(f for f in closure.sigma2 if masks[f] >> i & 1)
        ms = MaximalSet(t1, t2)
        out.append((ms.label(), i, ms))
    out.sort()
    if not logic.unbounded:
        out = [triple for triple in out if _consistent(triple[2].members, logic, budget)]
    return space.letters, out
