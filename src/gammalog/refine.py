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

A step changes nothing a later step reads but the refined cluster's rows,
and refine_model computes the rest once. The schedule comes from one
cluster view: the refined cluster splits into pieces no larger than the
bound, and no other cluster changes. The adequacy tests run on world
masks, and the masks of Sigma', the largest subformula-closed part of
Sigma with no diamond, are evaluated once per call and carried from step
to step, since every step keeps them; after the last step they are checked
against the result. Boxed members outside Sigma' are evaluated on each
step's model.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, Optional

from . import kripke
from .frame_formulas import OMEGA
from .kripke import PreorderModel, select, world_mask
from .syntax import Box, Diamond, Formula, children, pretty, sorted_formulas

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


def boxed_members(sigma: Iterable[Formula]) -> tuple[Formula, ...]:
    """The boxed members of sigma in canonical order."""
    return tuple(sorted_formulas(f for f in sigma if isinstance(f, Box)))


def inadequacy_witness(
    model: PreorderModel,
    cluster: frozenset[str],
    subset: Iterable[str],
    sigma: Iterable[Formula],
) -> Optional[Formula]:
    """A boxed formula violating adequacy, or None if the subset is adequate."""
    return _witness(model, cluster, subset, boxed_members(sigma), world_mask)


def _witness(model, cluster, subset, boxes, mask) -> Optional[Formula]:
    """The first of ``boxes`` that is unresolved on the subset with no escape
    strictly above the cluster, ``mask(model, f)`` giving each world mask.

    []f is unresolved when every world of the subset satisfies ~[]f & f, so
    when the subset meets neither [[[]f]] nor the complement of [[f]]; its
    escape is a world strictly above the anchor, the least world of the
    subset, that refutes f."""
    subset = frozenset(subset)
    if not subset <= frozenset(cluster):
        raise RefinementError(f"{sorted(subset)} is not inside the cluster")
    if not 1 <= len(subset) <= 2:
        raise RefinementError("adequacy is defined for singletons and doubletons")
    anchor = model.index(min(subset))
    try:
        bits = sum(1 << model.index(w) for w in subset)
    except kripke.ModelError:  # a world outside the model satisfies nothing
        return None
    strict = None
    for boxed in boxes:
        body = mask(model, boxed.sub)
        if bits & (mask(model, boxed) | ~body):
            continue
        if strict is None:  # the anchor's successors that do not see it back
            masks = model.masks
            row = masks[anchor]
            strict = row ^ sum(
                1 << j for j in select(range(len(masks)), row) if masks[j] >> anchor & 1
            )
        if not strict & ~body:
            return boxed
    return None


class _Facts:
    """The boxed members of both sides, sorted once, and the world masks that
    the adequacy tests of one ``refine_model`` call read.

    A formula is carried when it and all its subformulas lie in Sigma, the
    union of the sides, and none of them is a diamond: carried formulas are
    the largest subformula-closed part Sigma' of Sigma whose modal nodes
    are all tested for adequacy. A carried formula is evaluated once, on
    first need, and its mask holds on every later model of the call (see
    ``refine_model``). Any other formula is evaluated on each step's model,
    in that model's own cache.
    """

    def __init__(self, sigma1: Iterable[Formula], sigma2: Iterable[Formula]):
        sigma1, sigma2 = frozenset(sigma1), frozenset(sigma2)
        self.sigma = sigma1 | sigma2
        self.boxes = boxed_members(sigma1), boxed_members(sigma2), boxed_members(self.sigma)
        self._carried: dict[Formula, bool] = {}
        self.masks: dict[Formula, int] = {}  # carried formulas and their masks

    def _is_carried(self, f: Formula) -> bool:
        hit = self._carried.get(f)
        if hit is None:
            hit = self._carried[f] = (
                f in self.sigma and not isinstance(f, Diamond)
                and all(map(self._is_carried, children(f)))
            )
        return hit

    def mask(self, model: PreorderModel, f: Formula) -> int:
        hit = self.masks.get(f)
        if hit is not None:
            return hit
        if self._is_carried(f):
            return world_mask(model, f, self.masks)
        return world_mask(model, f)

    def verify(self, model: PreorderModel) -> None:
        """Evaluate every carried formula afresh on ``model`` and raise if one
        lost the mask it was carried with."""
        fresh: dict[Formula, int] = {}
        for f, mask in self.masks.items():
            if world_mask(model, f, fresh) != mask:
                raise RefinementError(f"refinement changed the extension of {pretty(f)}")


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
    facts: Optional[_Facts] = None,
) -> Optional[frozenset[str]]:
    """Search for an adequate singleton (n=1) or doubleton (n=2).

    Follows the existence argument: fix the canonical-least x, find partners
    y1, y2 with {x,yi} adequate for each side, then test {x,y1}, {x,y2},
    {y1,y2} against the union. Returns None only when the cluster-formula
    preconditions were violated; the offending boxed formula is logged.
    ``refine_model`` passes the facts it carries from step to step; they
    stand for the two sides.
    """
    if n not in (1, 2):
        raise RefinementError(f"adequate sets exist for bounds 1 and 2, got {n}")
    if facts is None:
        facts = _Facts(sigma1, sigma2)
    boxes1, boxes2, boxes = facts.boxes

    def witness(subset, side_boxes):
        return _witness(model, cluster, subset, side_boxes, facts.mask)

    members = sorted(cluster)
    x = members[0]
    if n == 1:
        unresolved = witness({x}, boxes)
        if unresolved is None:
            return frozenset({x})
        log.debug(
            "cluster %s has no adequate singleton: %s is unresolved",
            sorted(cluster), pretty(unresolved),
        )
        return None
    partners = []
    for side_boxes in (boxes1, boxes2):
        partner = next(
            (y for y in members if witness({x, y}, side_boxes) is None),
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
        if witness(candidate, boxes) is None:
            return frozenset(candidate)
    log.debug(
        "cluster %s: none of the three candidate doubletons is adequate",
        sorted(cluster),
    )
    return None


def _schedule(view: kripke.ClusterView, bound: int, want_final: bool) -> list[int]:
    """The oversized clusters of one finality in the order they are refined:
    each time a minimal one among those left, the least world breaking ties.
    Clusters are numbered by least world, so that is the least index; final
    clusters are pairwise incomparable and go in index order."""
    todo = [
        i
        for i, (cluster, fin) in enumerate(zip(view.clusters, view.final))
        if fin == want_final and len(cluster) > bound
    ]
    order = []
    while todo:
        i = next(i for i in todo if not any(j != i and view.above[j] >> i & 1 for j in todo))
        order.append(i)
        todo.remove(i)
    return order


def refine_model(
    model: PreorderModel,
    sigma1: Iterable[Formula],
    sigma2: Iterable[Formula],
    m,
    n,
    step_log: Optional[list] = None,
) -> PreorderModel:
    """Shrink every non-final cluster to size <= n and every final cluster
    to size <= m, preserving the extensions of sigma1 and sigma2.

    Non-final clusters are processed first, always a minimal oversized one
    (least world first among the minimal ones); final clusters follow, by
    least world. Both schedules are read off one ``kripke.clusters`` view,
    taken before the first step. A step on cluster C changes only the rows
    of C: C splits into the kept set K, of at most ``bound`` worlds and
    final exactly when C was, and singletons below K. No other cluster
    changes its members, size or finality, and the order among the others
    is unchanged, so the oversized clusters left and their order are those
    of the first view.

    The carried formulas (``_Facts``) keep their masks from step to step.
    By induction on a carried formula: outside C the rows are unchanged; in
    C a row only shrinks, which keeps every []f that held; and []f failing
    in C either fails in K, which every world of C still sees, or holds
    nowhere in K while f holds all over K, so K is unresolved for []f and
    adequacy puts a refutation of f strictly above C, which C still sees.
    After the last step every carried formula is evaluated afresh on the
    result, and a changed mask raises ``RefinementError``. The carried
    masks never enter the returned model's caches.
    """
    sigma1 = frozenset(sigma1)
    sigma2 = frozenset(sigma2)
    work = model
    view = facts = None
    for want_final, bound in ((False, n), (True, m)):
        if bound == OMEGA:
            continue
        bound = int(bound)
        view = view or kripke.clusters(model)
        for target in _schedule(view, bound, want_final):
            cluster = view.clusters[target]
            facts = facts or _Facts(sigma1, sigma2)
            keep = find_adequate_set(work, cluster, sigma1, sigma2, bound, facts=facts)
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
    if facts is not None:
        facts.verify(work)
    return work
