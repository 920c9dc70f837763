"""Cluster refinement: adequate sets and the edge-deletion surgery.

A singleton or doubleton S inside a cluster C is adequate for a formula set
Sigma when every boxed member []f of Sigma that is "unresolved" on S (all of
S satisfies ~[]f & f) has its failure witnessed strictly above the cluster.
Such a set licenses deleting every intra-cluster edge that does not point
into S: the result is again a preorder, confluence is preserved, and the
extension of every member of a subformula-closed Sigma is unchanged. A
step edits the model's successor masks (``PreorderModel.without_edges``):
it clears the deleted edges' bits and validates as a preorder only the
rows of the cluster that lost one, since no other row can break; the
model is never rebuilt from pairs.

refine_model drives this over a whole model: repeatedly refine a minimal
oversized non-final cluster, then the oversized final clusters. Minimal
first matters: refinement only touches edges inside the refined cluster, so
clusters that cannot reach it keep the truth of the cluster formulas that
guarantee the next adequate set exists.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional

from . import kripke
from .frame_formulas import OMEGA, gamma, satisfies_relative
from .kripke import PreorderModel, model_check
from .syntax import And, Box, Formula, Not, pretty, sorted_formulas

log = logging.getLogger(__name__)


class RefinementError(RuntimeError):
    """Raised when refinement preconditions fail (no adequate set found)."""


@dataclass(frozen=True)
class RefinementPlan:
    """The edges to delete so that only ``keep`` stays reachable inside the
    cluster; edges outside the cluster square are untouched."""

    cluster: frozenset[str]
    keep: frozenset[str]
    removed_edges: frozenset[tuple[str, str]]


def make_plan(model: PreorderModel, cluster: frozenset[str], keep: Iterable[str]) -> RefinementPlan:
    keep_set = frozenset(keep)
    if not keep_set <= cluster or not 1 <= len(keep_set) <= 2:
        raise RefinementError(
            f"keep set {sorted(keep_set)} must be a singleton or doubleton inside the cluster"
        )
    removed = frozenset(
        (y, z)
        for y in cluster
        for z in cluster
        if y != z and z not in keep_set and model.leq(y, z)
    )
    return RefinementPlan(cluster, keep_set, removed)


@lru_cache(maxsize=16)
def boxed_members(sigma: frozenset[Formula]) -> tuple[Formula, ...]:
    """The boxed members of sigma in canonical order; a refinement asks for
    the same few sets at every step, so each is sorted once."""
    return tuple(sorted_formulas(f for f in sigma if isinstance(f, Box)))


def is_adequate(
    model: PreorderModel,
    cluster: frozenset[str],
    subset: Iterable[str],
    sigma: Iterable[Formula],
) -> bool:
    """Adequacy of a singleton/doubleton subset per the boxed members of sigma."""
    return inadequacy_witness(model, cluster, subset, sigma) is None


def inadequacy_witness(
    model: PreorderModel,
    cluster: frozenset[str],
    subset: Iterable[str],
    sigma: Iterable[Formula],
) -> Optional[Formula]:
    """A boxed formula violating adequacy, or None if the subset is adequate."""
    subset = frozenset(subset)
    cluster = frozenset(cluster)
    if not subset <= cluster:
        raise RefinementError(f"{sorted(subset)} is not inside the cluster")
    if not 1 <= len(subset) <= 2:
        raise RefinementError("adequacy is defined for singletons and doubletons")
    anchor = min(subset)
    strict_above = frozenset(
        z for z in model.successors(anchor) if not model.leq(z, anchor)
    )
    for boxed in boxed_members(frozenset(sigma)):
        unresolved = model_check(model, And(Not(boxed), boxed.sub))
        if subset <= unresolved:
            escape = model_check(model, Not(boxed.sub))
            if not strict_above & escape:
                return boxed
    return None


def refine_cluster(model: PreorderModel, plan: RefinementPlan) -> PreorderModel:
    """Apply the plan's edge deletions; the result is validated as a preorder
    on the rows that lost an edge (``PreorderModel.without_edges``)."""
    if not plan.cluster <= set(model.worlds):
        raise RefinementError("plan cluster does not live in this model")
    try:
        return model.without_edges(plan.removed_edges)
    except kripke.ModelError as exc:  # an edge the model lacks; 4.2 guarantees a preorder
        raise RefinementError(f"plan does not apply to this model: {exc}") from exc


def find_adequate_set(
    model: PreorderModel,
    cluster: frozenset[str],
    sigma1: Iterable[Formula],
    sigma2: Iterable[Formula],
    n: int,
) -> Optional[frozenset[str]]:
    """Search for an adequate singleton (n=1) or doubleton (n=2).

    Follows the existence argument: fix the canonical-least x, find partners
    y1, y2 with {x,yi} adequate for each side, then test {x,y1}, {x,y2},
    {y1,y2} against the union. Returns None only when the cluster-formula
    preconditions were violated; the offending boxed formula is logged.
    """
    if n not in (1, 2):
        raise RefinementError(f"adequate sets exist for bounds 1 and 2, got {n}")
    sigma1 = frozenset(sigma1)
    sigma2 = frozenset(sigma2)
    sigma = sigma1 | sigma2
    members = sorted(cluster)
    x = members[0]
    if n == 1:
        witness = inadequacy_witness(model, cluster, {x}, sigma)
        if witness is None:
            return frozenset({x})
        log.debug(
            "cluster %s has no adequate singleton: %s is unresolved",
            sorted(cluster), pretty(witness),
        )
        return None
    partners = []
    for side in (sigma1, sigma2):
        partner = next(
            (y for y in members if is_adequate(model, cluster, {x, y}, side)),
            None,
        )
        if partner is None:
            log.debug(
                "cluster %s has no side-adequate partner for %s", sorted(cluster), x
            )
            return None
        partners.append(partner)
    y1, y2 = partners
    for candidate in ({x, y1}, {x, y2}, {y1, y2}):
        if is_adequate(model, cluster, candidate, sigma):
            return frozenset(candidate)
    log.debug(
        "cluster %s: none of the three candidate doubletons is adequate",
        sorted(cluster),
    )
    return None


def _oversized(view: kripke.ClusterView, bound, want_final: bool) -> list[int]:
    return [
        i
        for i, (cluster, fin) in enumerate(zip(view.clusters, view.final))
        if fin == want_final and len(cluster) > bound
    ]


def _minimal_indices(view: kripke.ClusterView, indices: list[int]) -> list[int]:
    return [
        i for i in indices
        if not any(j != i and (j, i) in view.leq for j in indices)
    ]


def refine_model(
    model: PreorderModel,
    sigma1: Iterable[Formula],
    sigma2: Iterable[Formula],
    m,
    n,
    check_preconditions: bool = False,
    step_log: Optional[list] = None,
) -> PreorderModel:
    """Shrink every non-final cluster to size <= n and every final cluster
    to size <= m, preserving the extensions of sigma1 and sigma2.

    Non-final clusters are processed first, always a minimal oversized one;
    final clusters follow. With ``check_preconditions`` the relative
    satisfaction of the relevant cluster formula is re-verified before each
    step (exponential in the sigma sizes; meant for tests).
    """
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
            if check_preconditions:
                chi = gamma(bound, topped=not want_final)
                for side in (sigma1, sigma2):
                    if not satisfies_relative(work, cluster, chi, side):
                        raise RefinementError(
                            f"cluster {sorted(cluster)} no longer satisfies its "
                            f"cluster formula relative to a side"
                        )
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
