"""Reference enumeration of maximal inseparable sets for the tests.

``maximal_sets_by_branching`` branches depth-first over (formula vs
negation) choices with inseparability pruning, asking the consistency
oracle at every step, instead of reading the sets off the surviving types
of one elimination as ``build_smorynski_model`` does.
"""

from gammalog.smorynski import MaximalSet, _class_polarity, _consistent
from gammalog.syntax import iter_negation_pairs


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
