"""Reference Kripke semantics for the tests, independent of the package's
bitmask evaluator.

``model_check_reference`` computes satisfaction sets of world ids with set
operations, straight from the definitions, and ``clusters_reference``
partitions a model by comparing every pair of worlds with ``leq``. Both
read only a model's public interface (``worlds``, ``valuation``,
``successors``, ``leq``). ``reflexive_transitive_closure`` closes a
relation on sets of world ids by iterating to a fixed point, and
``preorder_defect_reference`` names the first defect that strict
validation reports, from the pairs alone. ``cluster_sizes_reference``
reads the sizes off a model's ``ClusterView``, and ``is_confluent_reference``
tests confluence on successor sets, as ``kripke`` did before both read
successor masks. ``frame_shape_reference`` is the decision that
``kripke.check_rooted_frame`` makes on a target frame, checked on its
pairs, and ``p_morphism_defect_reference`` names the first defect of a map
onto a target frame given as a set of pairs, as ``kripke`` did before it
read successor masks. ``order_pairs`` reads a model's order as pairs.
"""

import itertools

from gammalog.kripke import ClusterView, clusters
from gammalog.syntax import And, Atom, Bottom, Box, Diamond, Iff, Implies, Not, Or, Top


def model_check_reference(model, f, cache=None):
    """The set of worlds satisfying f; atoms with no valuation are empty."""
    if cache is None:
        cache = {}
    hit = cache.get(f)
    if hit is not None:
        return hit
    everything = frozenset(model.worlds)
    if isinstance(f, Atom):
        out = frozenset(model.valuation.get(f.name, ()))
    elif isinstance(f, Bottom):
        out = frozenset()
    elif isinstance(f, Top):
        out = everything
    elif isinstance(f, Not):
        out = everything - model_check_reference(model, f.sub, cache)
    elif isinstance(f, And):
        out = model_check_reference(model, f.left, cache) & model_check_reference(model, f.right, cache)
    elif isinstance(f, Or):
        out = model_check_reference(model, f.left, cache) | model_check_reference(model, f.right, cache)
    elif isinstance(f, Implies):
        out = (everything - model_check_reference(model, f.left, cache)) | model_check_reference(
            model, f.right, cache
        )
    elif isinstance(f, Iff):
        a = model_check_reference(model, f.left, cache)
        b = model_check_reference(model, f.right, cache)
        out = (a & b) | (everything - a - b)
    elif isinstance(f, Box):
        sub = model_check_reference(model, f.sub, cache)
        out = frozenset(w for w in model.worlds if model.successors(w) <= sub)
    elif isinstance(f, Diamond):
        sub = model_check_reference(model, f.sub, cache)
        out = frozenset(w for w in model.worlds if model.successors(w) & sub)
    else:
        raise ValueError(f"unknown formula node {f!r}")
    cache[f] = out
    return out


def reflexive_transitive_closure(worlds, rel) -> dict:
    """Successor sets of the reflexive-transitive closure of rel."""
    succ = {w: {w} for w in worlds}
    for a, b in rel:
        succ[a].add(b)
    changed = True
    while changed:
        changed = False
        for w in worlds:
            extra = set()
            for v in succ[w]:
                extra |= succ[v]
            if not extra <= succ[w]:
                succ[w] |= extra
                changed = True
    return succ


def preorder_defect_reference(worlds, rel):
    """The message of the first defect of rel as a preorder on worlds, None
    if it is one: the least world that does not see itself, else the least
    pair (a, b) (by world order) with a world c that b sees and a does not,
    named by the least such c."""
    ws = sorted(set(worlds))
    for w in ws:
        if (w, w) not in rel:
            return f"order is not reflexive at {w}"
    for a in ws:
        for b in ws:
            if (a, b) in rel:
                for c in ws:
                    if (b, c) in rel and (a, c) not in rel:
                        return f"order is not transitive: {a} <= {b} <= {c}"
    return None


def clusters_reference(model) -> ClusterView:
    """Clusters indexed by least world id, their order, and finality."""
    groups = {}
    for w in model.worlds:
        rep = min(v for v in model.worlds if model.leq(w, v) and model.leq(v, w))
        groups.setdefault(rep, set()).add(w)
    ordered = [frozenset(groups[rep]) for rep in sorted(groups)]
    leq = set()
    for i, ci in enumerate(ordered):
        for j, cj in enumerate(ordered):
            if model.leq(min(ci), min(cj)):
                leq.add((i, j))
    final = tuple(
        not any((i, j) in leq and i != j for j in range(len(ordered)))
        for i in range(len(ordered))
    )
    cluster_of = {w: i for i, c in enumerate(ordered) for w in c}
    above = tuple(sum(1 << j for i2, j in leq if i2 == i) for i in range(len(ordered)))
    return ClusterView(tuple(ordered), above, final, cluster_of)


def cluster_sizes_reference(model):
    """(final cluster sizes, non-final cluster sizes)."""
    view = clusters(model)
    finals = [len(c) for c, fin in zip(view.clusters, view.final) if fin]
    nonfinals = [len(c) for c, fin in zip(view.clusters, view.final) if not fin]
    return finals, nonfinals


def is_confluent_reference(model):
    """True iff any two successors of a common world share a successor."""
    return all(
        model.successors(a) & model.successors(b)
        for w in model.worlds
        for a, b in itertools.combinations(sorted(model.successors(w)), 2)
    )


def order_pairs(model):
    """The order of a model as (world, successor) pairs."""
    return frozenset((a, b) for a in model.worlds for b in model.successors(a))


def p_morphism_defect_reference(source, size, rel, mapping):
    """The first condition that a total map fails as a p-morphism onto the
    frame (size, rel), in the order surjective, monotone, back; None if it
    is one."""
    if set(mapping.values()) != set(range(size)):
        return "p-morphism is not surjective"
    for a in source.worlds:
        for b in sorted(source.successors(a)):
            if (mapping[a], mapping[b]) not in rel:
                return f"p-morphism not monotone at ({a},{b})"
    for w in source.worlds:
        images = {mapping[v] for v in source.successors(w)}
        for j in range(size):
            if (mapping[w], j) in rel and j not in images:
                return f"back condition fails at {w} for {j}"
    return None


def frame_shape_reference(size, rel):
    """"ok" for a rooted preorder on range(size), "not rooted" for a preorder
    that is not rooted at 0, and "rejected" for anything else."""
    if size <= 0 or any(not (0 <= a < size and 0 <= b < size) for a, b in rel):
        return "rejected"
    if any((i, i) not in rel for i in range(size)):
        return "rejected"
    if any((b, c) in rel and (a, c) not in rel for a, b in rel for c in range(size)):
        return "rejected"
    if any((0, i) not in rel for i in range(size)):
        return "not rooted"
    return "ok"
