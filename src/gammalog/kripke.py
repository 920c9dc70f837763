"""Finite preorder Kripke models: model checking, clusters, p-morphisms.

Models are immutable after construction. World ids are opaque strings and
every deterministic enumeration iterates them in lexicographic order.

There are two Kripke evaluators, both on successor bitmasks (bit i is the
i-th world in sorted order). ``eval_on_frame`` evaluates one model at a
time: a ``PreorderModel`` keeps those masks, and ``model_check`` reads the
evaluator's result back as a set of world ids. ``eval_sliced`` evaluates
all valuations of a small frame at once, one bit per valuation, for the
bounded model search and the interpolant fingerprints. Unknown atoms
evaluate to the empty set (logged once per model) because the closure
machinery routinely checks formulas over partially valued models.
"""

from __future__ import annotations

import itertools
import json
import logging
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

from .syntax import (
    And, Atom, Bottom, Box, Diamond, Formula, Iff, Implies, Not, Or, Top,
)

log = logging.getLogger(__name__)


class ModelError(ValueError):
    """Raised for structurally invalid models, frames, or world lookups."""


class PreorderModel:
    """A finite set of worlds with a reflexive-transitive order and valuation.

    ``closure="strict"`` validates that the given order is already a
    preorder; ``closure="auto"`` adds the reflexive-transitive closure.
    """

    __slots__ = (
        "worlds", "order", "valuation", "_succ", "_masks", "_env", "_cache", "_sets", "_gen",
    )

    def __init__(
        self,
        worlds: Iterable[str],
        order: Iterable[tuple[str, str]],
        valuation: Mapping[str, Iterable[str]],
        closure: str = "strict",
    ):
        ws = tuple(sorted(set(worlds)))
        if not ws:
            raise ModelError("a model needs at least one world")
        wset = set(ws)
        rel = {(a, b) for a, b in order}
        for a, b in rel:
            if a not in wset or b not in wset:
                raise ModelError(f"order mentions unknown world in ({a}, {b})")
        if closure == "auto":
            succ = _reflexive_transitive_closure(ws, rel)
            rel = {(a, b) for a in ws for b in succ[a]}
        elif closure == "strict":
            succ = _validate_preorder(ws, rel)
        else:
            raise ModelError(f"closure mode must be 'auto' or 'strict', got {closure!r}")
        val = {}
        for atom, extension in valuation.items():
            ext = frozenset(extension)
            bad = ext - wset
            if bad:
                raise ModelError(f"valuation of {atom} mentions unknown worlds {sorted(bad)}")
            val[atom] = ext
        self.worlds: tuple[str, ...] = ws
        self.order: frozenset[tuple[str, str]] = frozenset(rel)
        self.valuation: dict[str, frozenset[str]] = val
        self._succ = {w: frozenset(succ[w]) for w in ws}
        bit = {w: 1 << i for i, w in enumerate(ws)}.__getitem__
        self._masks = tuple(sum(map(bit, succ[w])) for w in ws)
        self._env = _Valuation((atom, sum(map(bit, ext))) for atom, ext in val.items())
        self._cache: dict[Formula, int] = {}
        self._sets: dict[Formula, frozenset[str]] = {}
        self._gen: dict[frozenset[str], "PreorderModel"] = {}

    def successors(self, w: str) -> frozenset[str]:
        try:
            return self._succ[w]
        except KeyError:
            raise ModelError(f"unknown world {w!r}") from None

    def leq(self, a: str, b: str) -> bool:
        return (a, b) in self.order

    def replace(self, **kwargs) -> "PreorderModel":
        params = {
            "worlds": self.worlds,
            "order": self.order,
            "valuation": self.valuation,
            "closure": "strict",
        }
        params.update(kwargs)
        return PreorderModel(**params)

    def _key(self):
        return (
            self.worlds,
            self.order,
            tuple(sorted((a, tuple(sorted(e))) for a, e in self.valuation.items())),
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, PreorderModel) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"PreorderModel({len(self.worlds)} worlds, {len(self.order)} edges)"


class _Valuation(dict):
    """Atom name -> extension mask; an atom with no entry is logged once and
    then stored as the empty mask."""

    def get(self, name, default=0):
        if name not in self:
            log.debug("atom %s has no valuation entry; treating as empty", name)
            self[name] = default
        return self[name]


def _reflexive_transitive_closure(
    worlds: Sequence[str], rel: set[tuple[str, str]]
) -> dict[str, set[str]]:
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


def _validate_preorder(
    worlds: Sequence[str], rel: set[tuple[str, str]]
) -> dict[str, set[str]]:
    """Successor sets of rel, which must be reflexive and transitive."""
    for w in worlds:
        if (w, w) not in rel:
            raise ModelError(f"order is not reflexive at {w}")
    succ: dict[str, set[str]] = {w: set() for w in worlds}
    for a, b in rel:
        succ[a].add(b)
    for a, b in rel:
        if not succ[b] <= succ[a]:
            missing = sorted(succ[b] - succ[a])
            raise ModelError(f"order is not transitive: {a} <= {b} <= {missing[0]}")
    return succ


# ---------------------------------------------------------------------------
# Model checking
# ---------------------------------------------------------------------------

def eval_on_frame(
    succ: Sequence[int], env: dict[str, int], f: Formula, cache: Optional[dict] = None
) -> int:
    """Bit-parallel satisfaction set over a small frame.

    ``succ[w]`` is the successor bitmask of world w and ``env`` maps atom
    names to extension bitmasks; the result is the bitmask of [[f]].
    """
    if cache is None:
        cache = {}
    hit = cache.get(f)
    if hit is not None:
        return hit
    k = len(succ)
    full = (1 << k) - 1
    if isinstance(f, Atom):
        out = env.get(f.name, 0)
    elif isinstance(f, Bottom):
        out = 0
    elif isinstance(f, Top):
        out = full
    elif isinstance(f, Not):
        out = full ^ eval_on_frame(succ, env, f.sub, cache)
    elif isinstance(f, And):
        out = eval_on_frame(succ, env, f.left, cache) & eval_on_frame(succ, env, f.right, cache)
    elif isinstance(f, Or):
        out = eval_on_frame(succ, env, f.left, cache) | eval_on_frame(succ, env, f.right, cache)
    elif isinstance(f, Implies):
        out = (full ^ eval_on_frame(succ, env, f.left, cache)) | eval_on_frame(succ, env, f.right, cache)
    elif isinstance(f, Iff):
        a = eval_on_frame(succ, env, f.left, cache)
        b = eval_on_frame(succ, env, f.right, cache)
        out = (a & b) | (full ^ (a | b))
    elif isinstance(f, Box):
        sub = eval_on_frame(succ, env, f.sub, cache)
        out = 0
        for w in range(k):
            if succ[w] & ~sub == 0:
                out |= 1 << w
    elif isinstance(f, Diamond):
        sub = eval_on_frame(succ, env, f.sub, cache)
        out = 0
        for w in range(k):
            if succ[w] & sub:
                out |= 1 << w
    else:
        raise ModelError(f"unknown node {f!r}")
    cache[f] = out
    return out


def eval_sliced(
    succ: Sequence[int], env: Mapping[str, tuple[int, ...]], f: Formula, full: int,
    cache: Optional[dict] = None,
) -> tuple[int, ...]:
    """Satisfaction of f on one small frame under many valuations at once.

    ``succ`` is as for ``eval_on_frame``. Each formula becomes a tuple of
    one int per world whose bit v says whether it holds there under
    valuation v: ``env[name]`` is that tuple for an atom, and ``full`` has a
    bit for every valuation. An atom missing from ``env`` holds nowhere.
    """
    if cache is None:
        cache = {}
    hit = cache.get(f)
    if hit is not None:
        return hit
    if isinstance(f, Atom):
        out = env.get(f.name, (0,) * len(succ))
    elif isinstance(f, Bottom):
        out = (0,) * len(succ)
    elif isinstance(f, Top):
        out = (full,) * len(succ)
    elif isinstance(f, Not):
        out = tuple(full ^ a for a in eval_sliced(succ, env, f.sub, full, cache))
    elif isinstance(f, (And, Or, Implies, Iff)):
        left = eval_sliced(succ, env, f.left, full, cache)
        right = eval_sliced(succ, env, f.right, full, cache)
        if isinstance(f, And):
            out = tuple(a & b for a, b in zip(left, right))
        elif isinstance(f, Or):
            out = tuple(a | b for a, b in zip(left, right))
        elif isinstance(f, Implies):
            out = tuple((full ^ a) | b for a, b in zip(left, right))
        else:
            out = tuple(full ^ (a ^ b) for a, b in zip(left, right))
    elif isinstance(f, (Box, Diamond)):
        sub = eval_sliced(succ, env, f.sub, full, cache)
        box = isinstance(f, Box)
        cells = []
        for mask in succ:
            acc = full if box else 0
            for v, value in enumerate(sub):
                if mask >> v & 1:
                    acc = acc & value if box else acc | value
            cells.append(acc)
        out = tuple(cells)
    else:
        raise ModelError(f"unknown node {f!r}")
    cache[f] = out
    return out


def model_check(model: PreorderModel, f: Formula) -> frozenset[str]:
    """The set of worlds satisfying f under the standard Kripke semantics."""
    out = model._sets.get(f)
    if out is None:
        # the mask's binary digits, least significant (the first world) first
        bits = bin(eval_on_frame(model._masks, model._env, f, model._cache))[:1:-1]
        out = frozenset(w for w, bit in zip(model.worlds, bits) if bit == "1")
        model._sets[f] = out
    return out


def satisfies(model: PreorderModel, world: str, f: Formula) -> bool:
    if world not in model._succ:
        raise ModelError(f"unknown world {world!r}")
    return world in model_check(model, f)


# ---------------------------------------------------------------------------
# Clusters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClusterView:
    """Partition of a model's worlds into clusters with their strict order.

    Clusters are indexed in order of their least world id; ``final[i]`` says
    no cluster lies strictly above cluster i.
    """

    clusters: tuple[frozenset[str], ...]
    leq: frozenset[tuple[int, int]]
    final: tuple[bool, ...]
    cluster_of: Mapping[str, int] = field(hash=False, compare=False, default_factory=dict)


def clusters(model: PreorderModel) -> ClusterView:
    succ = model._succ
    cluster_of: dict[str, int] = {}
    ordered: list[frozenset[str]] = []
    for w in model.worlds:
        if w not in cluster_of:
            # worlds come in sorted order, so w is the least of a new cluster
            cluster = frozenset(v for v in succ[w] if w in succ[v])
            cluster_of.update(dict.fromkeys(cluster, len(ordered)))
            ordered.append(cluster)
    above = [{cluster_of[v] for v in succ[min(c)]} for c in ordered]
    leq = frozenset((i, j) for i, js in enumerate(above) for j in js)
    final = tuple(len(js) == 1 for js in above)
    return ClusterView(tuple(ordered), leq, final, cluster_of)


def cluster_sizes(model: PreorderModel) -> tuple[list[int], list[int]]:
    """(final cluster sizes, non-final cluster sizes)."""
    view = clusters(model)
    finals = [len(c) for c, fin in zip(view.clusters, view.final) if fin]
    nonfinals = [len(c) for c, fin in zip(view.clusters, view.final) if not fin]
    return finals, nonfinals


# ---------------------------------------------------------------------------
# Generated submodels and confluence
# ---------------------------------------------------------------------------

def generated_submodel(model: PreorderModel, world: str) -> PreorderModel:
    """Restriction of the model to the worlds reachable from ``world``."""
    keep = model.successors(world)
    cached = model._gen.get(keep)
    if cached is not None:
        return cached
    sub = PreorderModel(
        keep,
        {(a, b) for a, b in model.order if a in keep and b in keep},
        {atom: ext & keep for atom, ext in model.valuation.items()},
    )
    model._gen[keep] = sub
    return sub


def is_confluent(model: PreorderModel) -> bool:
    """True iff any two successors of a common world share a successor."""
    for w in model.worlds:
        succ = sorted(model.successors(w))
        for a, b in itertools.combinations(succ, 2):
            if not model.successors(a) & model.successors(b):
                return False
    return True


# ---------------------------------------------------------------------------
# p-morphisms
# ---------------------------------------------------------------------------

_SHAPE_CACHE: dict[tuple[int, frozenset], tuple[int, frozenset]] = {}


def frame_shape(frame) -> tuple[int, frozenset[tuple[int, int]]]:
    """Accepts any object with integer ``size`` and relation ``rel``."""
    size = int(frame.size)
    rel = frozenset((int(a), int(b)) for a, b in frame.rel)
    if (size, rel) in _SHAPE_CACHE:
        return _SHAPE_CACHE[(size, rel)]
    if size <= 0:
        raise ModelError("target frame must be nonempty")
    for a, b in rel:
        if not (0 <= a < size and 0 <= b < size):
            raise ModelError(f"target relation pair ({a},{b}) out of range")
    for i in range(size):
        if (i, i) not in rel:
            raise ModelError(f"target frame not reflexive at {i}")
    for a, b in rel:
        for c in range(size):
            if (b, c) in rel and (a, c) not in rel:
                raise ModelError("target frame not transitive")
    for i in range(size):
        if (0, i) not in rel:
            raise ModelError("target frame is not rooted at 0")
    _SHAPE_CACHE[(size, rel)] = (size, rel)
    return size, rel


@dataclass(frozen=True)
class PMorphism:
    """A surjective monotone map with the back condition, from a generated
    submodel onto a finite rooted preorder."""

    source: PreorderModel
    target_size: int
    target_rel: frozenset[tuple[int, int]]
    mapping: Mapping[str, int] = field(hash=False, compare=False, default_factory=dict)

    def validate(self) -> None:
        m = self.mapping
        if set(m) != set(self.source.worlds):
            raise ModelError("p-morphism is not total on the source")
        if set(m.values()) != set(range(self.target_size)):
            raise ModelError("p-morphism is not surjective")
        for a, b in self.source.order:
            if (m[a], m[b]) not in self.target_rel:
                raise ModelError(f"p-morphism not monotone at ({a},{b})")
        for w in self.source.worlds:
            for j in range(self.target_size):
                if (m[w], j) in self.target_rel:
                    if not any(m[v] == j for v in self.source.successors(w)):
                        raise ModelError(f"back condition fails at {w} for {j}")


def _is_p_morphism(sub: PreorderModel, size: int, rel, mapping: dict[str, int]) -> bool:
    if set(mapping.values()) != set(range(size)):
        return False
    for a, b in sub.order:
        if (mapping[a], mapping[b]) not in rel:
            return False
    for w in sub.worlds:
        fw = mapping[w]
        images = {mapping[v] for v in sub.successors(w)}
        for j in range(size):
            if (fw, j) in rel and j not in images:
                return False
    return True


def find_p_morphism(
    model: PreorderModel,
    world: str,
    frame,
    preimage_spec: Optional[Sequence[Formula]] = None,
) -> Optional[PMorphism]:
    """Search for a p-morphism from the submodel generated by ``world``.

    With ``preimage_spec`` = [f0..f_{n-1}] there is at most one candidate:
    y maps to the unique i with y in [[fi]]; the candidate is returned iff
    the preimage sets partition the submodel and the map is a p-morphism.
    Without a spec, all maps are tried in canonical order.
    """
    size, rel = frame_shape(frame)
    sub = generated_submodel(model, world)
    if preimage_spec is not None:
        if len(preimage_spec) != size:
            raise ModelError(
                f"preimage spec has {len(preimage_spec)} formulas for {size} points"
            )
        extensions = [model_check(sub, f) for f in preimage_spec]
        mapping: dict[str, int] = {}
        for w in sub.worlds:
            hits = [i for i, ext in enumerate(extensions) if w in ext]
            if len(hits) != 1:
                return None
            mapping[w] = hits[0]
        if _is_p_morphism(sub, size, rel, mapping):
            return PMorphism(sub, size, rel, mapping)
        return None
    for values in itertools.product(range(size), repeat=len(sub.worlds)):
        mapping = dict(zip(sub.worlds, values))
        if _is_p_morphism(sub, size, rel, mapping):
            return PMorphism(sub, size, rel, mapping)
    return None


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------

def model_to_dict(model: PreorderModel) -> dict:
    return {
        "worlds": list(model.worlds),
        "order": sorted([a, b] for a, b in model.order),
        "valuation": {a: sorted(ext) for a, ext in sorted(model.valuation.items())},
        "closure": "strict",
    }


def model_from_masks(succ: Sequence[int], env: Mapping[str, int]) -> PreorderModel:
    """The model on worlds w0, w1, ... with successor masks ``succ`` and atom
    extension masks ``env``, as ``eval_on_frame`` reads them."""
    worlds = [f"w{i}" for i in range(len(succ))]

    def members(mask: int) -> list[str]:
        return [w for i, w in enumerate(worlds) if mask >> i & 1]

    order = {(a, b) for a, mask in zip(worlds, succ) for b in members(mask)}
    return PreorderModel(worlds, order, {name: members(bits) for name, bits in env.items()})


def model_from_dict(data: Mapping) -> PreorderModel:
    try:
        worlds = data["worlds"]
        order = [tuple(pair) for pair in data["order"]]
        valuation = data.get("valuation", {})
    except (KeyError, TypeError) as exc:
        raise ModelError(f"malformed model object: {exc}") from exc
    closure = data.get("closure", "strict")
    return PreorderModel(worlds, order, valuation, closure=closure)


def load_model(path: str) -> PreorderModel:
    with open(path, "r", encoding="utf-8") as handle:
        return model_from_dict(json.load(handle))


def dump_model(model: PreorderModel, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(model_to_dict(model), handle, indent=2, sort_keys=True)
        handle.write("\n")
