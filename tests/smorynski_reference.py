"""Reference enumeration of maximal inseparable sets for the tests.

``maximal_sets_by_branching`` branches depth-first over (formula vs
negation) choices with inseparability pruning, asking the consistency
oracle at every step, instead of reading the sets off the surviving types
of one elimination as ``build_smorynski_model`` does.

``maximal_sets_by_scan`` reads the sets off the same surviving types as
``smorynski._maximal_sets_from_types``, but decodes each base model's
survivor mask on its own, reads each (side member, type) off the member's
truth mask and names each set with ``MaximalSet.label``.
"""

import itertools

from gammalog import engine
from gammalog.kripke import select
from gammalog.smorynski import MaximalSet, _class_polarity, _consistent
from gammalog.syntax import iter_negation_pairs, sorted_formulas


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
