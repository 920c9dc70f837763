"""The refinement loop as it was before it carried its facts forward: a
fresh ``kripke.clusters`` view before every step, and every adequacy test
evaluating the boxed members of Sigma and their bodies with ``model_check``
on the step's model. Tests check ``refine.refine_model`` against it.
"""

from __future__ import annotations

from gammalog import kripke
from gammalog.frame_formulas import OMEGA
from gammalog.kripke import model_check
from gammalog.refine import RefinementError, make_plan, refine_cluster
from gammalog.syntax import And, Box, Not, sorted_formulas


def inadequacy_witness(model, cluster, subset, sigma):
    subset = frozenset(subset)
    if not subset <= frozenset(cluster):
        raise RefinementError(f"{sorted(subset)} is not inside the cluster")
    if not 1 <= len(subset) <= 2:
        raise RefinementError("adequacy is defined for singletons and doubletons")
    anchor = min(subset)
    strict_above = frozenset(
        z for z in model.successors(anchor) if not model.leq(z, anchor)
    )
    for boxed in sorted_formulas(f for f in sigma if isinstance(f, Box)):
        unresolved = model_check(model, And(Not(boxed), boxed.sub))
        if subset <= unresolved:
            escape = model_check(model, Not(boxed.sub))
            if not strict_above & escape:
                return boxed
    return None


def find_adequate_set(model, cluster, sigma1, sigma2, n):
    sigma1, sigma2 = frozenset(sigma1), frozenset(sigma2)
    sigma = sigma1 | sigma2
    members = sorted(cluster)
    x = members[0]
    if n == 1:
        return frozenset({x}) if inadequacy_witness(model, cluster, {x}, sigma) is None else None
    partners = []
    for side in (sigma1, sigma2):
        partner = next(
            (y for y in members if inadequacy_witness(model, cluster, {x, y}, side) is None),
            None,
        )
        if partner is None:
            return None
        partners.append(partner)
    y1, y2 = partners
    for candidate in ({x, y1}, {x, y2}, {y1, y2}):
        if inadequacy_witness(model, cluster, candidate, sigma) is None:
            return frozenset(candidate)
    return None


def _oversized(view, bound, want_final):
    return [
        i
        for i, (cluster, fin) in enumerate(zip(view.clusters, view.final))
        if fin == want_final and len(cluster) > bound
    ]


def _minimal_indices(view, indices):
    return [i for i in indices if not any(j != i and view.above[j] >> i & 1 for j in indices)]


def refine_model(model, sigma1, sigma2, m, n, step_log=None):
    sigma1 = frozenset(sigma1)
    sigma2 = frozenset(sigma2)
    work = model
    for want_final, bound in ((False, n), (True, m)):
        if bound == OMEGA:
            continue
        bound = int(bound)
        while True:
            view = kripke.clusters(work)
            oversized = _oversized(view, bound, want_final)
            if not oversized:
                break
            candidates = oversized if want_final else _minimal_indices(view, oversized)
            target = min(candidates, key=lambda i: min(view.clusters[i]))
            cluster = view.clusters[target]
            keep = find_adequate_set(work, cluster, sigma1, sigma2, bound)
            if keep is None:
                raise RefinementError(
                    f"no adequate set of size <= {bound} in cluster {sorted(cluster)}"
                )
            plan = make_plan(work, cluster, keep)
            work = refine_cluster(work, plan)
            if step_log is not None:
                step_log.append(
                    {
                        "cluster": sorted(cluster),
                        "final": want_final,
                        "kept": sorted(keep),
                        "removed_edges": len(plan.removed_edges),
                    }
                )
    return work
