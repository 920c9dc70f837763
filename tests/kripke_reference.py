"""Reference Kripke semantics for the tests, independent of the package's
bitmask evaluator.

``model_check_reference`` computes satisfaction sets of world ids with set
operations, straight from the definitions, and ``clusters_reference``
partitions a model by comparing every pair of worlds with ``leq``. Both
read only a model's public interface (``worlds``, ``valuation``,
``successors``, ``leq``). ``reflexive_transitive_closure`` closes a
relation on sets of world ids by iterating to a fixed point, and
``preorder_defect_reference`` names the first defect that strict
validation reports, from the pairs alone.
"""

from gammalog.kripke import ClusterView
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
    return ClusterView(tuple(ordered), frozenset(leq), final, cluster_of)
