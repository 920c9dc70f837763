"""Finite preorder Kripke models: model checking, clusters, p-morphisms.

Models are immutable after construction. World ids are opaque strings and
every deterministic enumeration iterates them in lexicographic order.

There is one evaluator core, on bitmasks. ``eval_on_frame`` runs it on
successor bitmasks (bit i is the i-th world in sorted order) and evaluates
a formula on any number of disjoint copies of one frame at once, each copy
with its own valuation. A ``PreorderModel``'s order is its successor masks,
which construction closes or validates and every query reads (``order`` is
their view as pairs), and ``model_check`` reads the one-copy result back as
a set of world ids through ``select``, the one mask decoder; the bounded
model search and the interpolant fingerprints put every valuation of a
small frame in a copy of its own. ``eval_propositional`` runs the same
core with no frame, on points whose atoms and boxed formulas are given as
letters: the type spaces of ``engine`` evaluate their closures this way.
Unknown atoms evaluate to the empty set (logged once per model) because
the closure machinery routinely checks formulas over partially valued
models.
"""

from __future__ import annotations

import itertools
import json
import logging
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Mapping, Optional, Sequence

from .syntax import (
    And, Atom, Bottom, Box, Diamond, Formula, Iff, Implies, Not, Or, Top,
)

log = logging.getLogger(__name__)


class ModelError(ValueError):
    """Raised for structurally invalid models, frames, or world lookups."""


class PreorderModel:
    """A finite set of worlds with a reflexive-transitive order and valuation.

    The order is held as successor bitmasks, bit i for the i-th world in
    sorted order, which every query reads; ``order`` is its view as a set of
    pairs. ``closure="strict"`` validates that the given order is already a
    preorder; ``closure="auto"`` adds the reflexive-transitive closure.
    """

    __slots__ = ("worlds", "order", "valuation", "_masks", "_env", "_cache", "_sets", "_gen")

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
        index = {w: i for i, w in enumerate(ws)}
        rel = frozenset((a, b) for a, b in order)
        try:
            pairs = [(index[a], index[b]) for a, b in rel]
        except KeyError:
            # sorted on the error path only, so the message is the same in every run
            unknown = min({w for pair in rel for w in pair} - index.keys(), key=str)
            a, b = min((pair for pair in rel if unknown in pair), key=str)
            raise ModelError(f"order mentions unknown world in ({a}, {b})") from None
        masks = [0] * len(ws)
        for i, j in pairs:
            masks[i] |= 1 << j
        if closure == "auto":
            for i in range(len(ws)):
                masks[i] |= 1 << i
            for k in range(len(ws)):  # Warshall: whoever sees k sees all k sees
                bit, reach = 1 << k, masks[k]
                masks = [mask | reach if mask & bit else mask for mask in masks]
            rel = frozenset((a, b) for a, mask in zip(ws, masks) for b in select(ws, mask))
        elif closure == "strict":
            for i, w in enumerate(ws):
                if not masks[i] >> i & 1:
                    raise ModelError(f"order is not reflexive at {w}")
            if any(masks[j] & ~masks[i] for i, j in pairs):
                i, j = min((i, j) for i, j in pairs if masks[j] & ~masks[i])
                extra = masks[j] & ~masks[i]
                missing = ws[(extra & -extra).bit_length() - 1]
                raise ModelError(f"order is not transitive: {ws[i]} <= {ws[j]} <= {missing}")
        else:
            raise ModelError(f"closure mode must be 'auto' or 'strict', got {closure!r}")
        val = {}
        for atom, extension in valuation.items():
            ext = frozenset(extension)
            bad = ext - index.keys()
            if bad:
                raise ModelError(f"valuation of {atom} mentions unknown worlds {sorted(bad)}")
            val[atom] = ext
        self.worlds: tuple[str, ...] = ws
        self.order: frozenset[tuple[str, str]] = rel
        self.valuation: dict[str, frozenset[str]] = val
        self._masks = tuple(masks)
        self._env = _Valuation((atom, sum(1 << index[w] for w in ext)) for atom, ext in val.items())
        self._cache: dict[Formula, int] = {}
        self._sets: dict[Formula, frozenset[str]] = {}
        self._gen: dict[frozenset[str], "PreorderModel"] = {}

    def _mask(self, w: str) -> int:
        i = bisect_left(self.worlds, w)
        if i == len(self.worlds) or self.worlds[i] != w:
            raise ModelError(f"unknown world {w!r}")
        return self._masks[i]

    def successors(self, w: str) -> frozenset[str]:
        return frozenset(select(self.worlds, self._mask(w)))

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


_BINARY = bytes.maketrans(b"01", b"\0\1")


def select(items: Iterable, mask: int) -> list:
    """The items at the set bits of mask, in order: bit i selects the i-th
    item. This is the one decoder of world and type masks."""
    # the mask's binary digits, least significant first, as 0/1 bytes
    return list(itertools.compress(items, bin(mask)[:1:-1].encode().translate(_BINARY)))


# ---------------------------------------------------------------------------
# Model checking
# ---------------------------------------------------------------------------

def eval_on_frame(
    succ: Sequence[int], env: Mapping[str, int], f: Formula, cache: Optional[dict] = None,
    copies: int = 1,
) -> int:
    """Bit-parallel satisfaction set of f on ``copies`` disjoint copies of
    a frame.

    ``succ[w]`` is the successor bitmask of world w of a k-world frame.
    Copy c sits in bits c*(k+1) .. c*(k+1)+k-1, one bit per world; bit
    c*(k+1)+k is a guard that stays clear. ``env`` maps an atom name to its
    extension in every copy packed the same way, and the result is [[f]]
    packed the same way. With one copy, a set is the plain k-bit world mask.
    An atom missing from ``env`` holds nowhere.

    The modal step for world w runs in all copies at once: ``succ[w]`` is
    spread over every copy and masked with the operand, and 2^k - 1 is
    added to every copy, which carries into a copy's guard bit exactly when
    that copy has a successor of w in the operand. The guard bits, shifted
    down onto world w, are <>; [] is ~<>~.
    """
    if cache is None:
        cache = {}
    # one copy needs no spread masks; more copies build theirs once per frame
    if copies == 1:
        layout = succ, (1 << len(succ)) - 1, 1 << len(succ)
    else:
        layout = _layout(tuple(succ), copies)
    return _eval(layout, env, f, cache)


@lru_cache(maxsize=256)
def _layout(succ: tuple[int, ...], copies: int) -> tuple[tuple[int, ...], int, int]:
    """(successor masks spread over every copy, full world mask, guard bits)
    of ``copies`` packed copies of a frame, for ``_eval``."""
    k = len(succ)
    ones = tile(1, copies, k + 1)
    return tuple(mask * ones for mask in succ), ones * ((1 << k) - 1), ones << k


def eval_propositional(f: Formula, full: int, letters: dict) -> int:
    """The points of ``full`` where f holds, with no frame. ``letters`` must
    map every atom and boxed subformula of f to its points, so the modal
    step never runs; it also caches the masks of the other subformulas."""
    return _eval(((), full, 0), {}, f, letters)


def tile(x: int, times: int, width: int) -> int:
    """``times`` copies of x (below 2**width), ``width`` bits apart, built by
    doubling: shifts are linear in the result, a division by 2**width - 1 is
    quadratic in wide words."""
    if times < 2:
        return x * times
    half = tile(x, times >> 1, width)
    half |= half << width * (times >> 1)
    return half << width | x if times & 1 else half


def _eval(layout, env: Mapping[str, int], f: Formula, cache: dict) -> int:
    hit = cache.get(f)
    if hit is not None:
        return hit
    spreads, full, guard = layout
    if isinstance(f, Atom):
        out = env.get(f.name, 0)
    elif isinstance(f, Bottom):
        out = 0
    elif isinstance(f, Top):
        out = full
    elif isinstance(f, Not):
        out = full ^ _eval(layout, env, f.sub, cache)
    elif isinstance(f, And):
        out = _eval(layout, env, f.left, cache) & _eval(layout, env, f.right, cache)
    elif isinstance(f, Or):
        out = _eval(layout, env, f.left, cache) | _eval(layout, env, f.right, cache)
    elif isinstance(f, Implies):
        out = (full ^ _eval(layout, env, f.left, cache)) | _eval(layout, env, f.right, cache)
    elif isinstance(f, Iff):
        out = full ^ _eval(layout, env, f.left, cache) ^ _eval(layout, env, f.right, cache)
    elif isinstance(f, (Box, Diamond)):
        box = isinstance(f, Box)
        sub = _eval(layout, env, f.sub, cache)
        if box:
            sub ^= full
        out = 0
        k = len(spreads)
        for w, spread in enumerate(spreads):
            out |= (((spread & sub) + full) & guard) >> k - w
        if box:
            out ^= full
    else:
        raise ModelError(f"unknown node {f!r}")
    cache[f] = out
    return out


def model_check(model: PreorderModel, f: Formula) -> frozenset[str]:
    """The set of worlds satisfying f under the standard Kripke semantics."""
    out = model._sets.get(f)
    if out is None:
        mask = eval_on_frame(model._masks, model._env, f, model._cache)
        out = frozenset(select(model.worlds, mask))
        model._sets[f] = out
    return out


def satisfies(model: PreorderModel, world: str, f: Formula) -> bool:
    model._mask(world)  # raises for an unknown world
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
    # in a preorder two worlds share a cluster exactly when they see the same
    # worlds; worlds come sorted, so clusters are numbered by least world
    members: dict[int, list[str]] = {}
    for w, mask in zip(model.worlds, model._masks):
        members.setdefault(mask, []).append(w)
    number = {mask: i for i, mask in enumerate(members)}
    above = [{number[m] for m in select(model._masks, mask)} for mask in members]
    leq = frozenset((i, j) for i, js in enumerate(above) for j in js)
    final = tuple(len(js) == 1 for js in above)
    cluster_of = {w: i for i, ws in enumerate(members.values()) for w in ws}
    return ClusterView(tuple(map(frozenset, members.values())), leq, final, cluster_of)


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
        [(a, b) for a in keep for b in model.successors(a)],
        {atom: ext & keep for atom, ext in model.valuation.items()},
    )
    model._gen[keep] = sub
    return sub


def is_confluent(model: PreorderModel) -> bool:
    """True iff any two successors of a common world share a successor."""
    for mask in model._masks:
        for a, b in itertools.combinations(select(model._masks, mask), 2):
            if not a & b:
                return False
    return True


# ---------------------------------------------------------------------------
# p-morphisms
# ---------------------------------------------------------------------------

def frame_shape(frame) -> tuple[int, frozenset[tuple[int, int]]]:
    """Accepts any object with integer ``size`` and relation ``rel``; the
    validated shape is cached under the frame's own fields."""
    try:
        return _frame_shape(frame.size, frame.rel)
    except TypeError:  # an unhashable relation is checked without the cache
        return _frame_shape.__wrapped__(frame.size, frame.rel)


@lru_cache(maxsize=1024)
def _frame_shape(size, rel) -> tuple[int, frozenset[tuple[int, int]]]:
    size = int(size)
    rel = frozenset((int(a), int(b)) for a, b in rel)
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
        if set(self.mapping) != set(self.source.worlds):
            raise ModelError("p-morphism is not total on the source")
        defect = _p_morphism_defect(self.source, self.target_size, self.target_rel, self.mapping)
        if defect is not None:
            raise ModelError(defect)


def _p_morphism_defect(
    source: PreorderModel, size: int, rel, mapping: Mapping[str, int]
) -> Optional[str]:
    """The first condition that a total map fails as a p-morphism onto the
    frame (size, rel), in the order surjective, monotone, back; None if
    it is one."""
    if set(mapping.values()) != set(range(size)):
        return "p-morphism is not surjective"
    for a, b in source.order:
        if (mapping[a], mapping[b]) not in rel:
            return f"p-morphism not monotone at ({a},{b})"
    for w in source.worlds:
        fw = mapping[w]
        images = {mapping[v] for v in source.successors(w)}
        for j in range(size):
            if (fw, j) in rel and j not in images:
                return f"back condition fails at {w} for {j}"
    return None


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
        candidates = [mapping]
    else:
        values = itertools.product(range(size), repeat=len(sub.worlds))
        candidates = (dict(zip(sub.worlds, image)) for image in values)
    for mapping in candidates:
        if _p_morphism_defect(sub, size, rel, mapping) is None:
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
    order = [(a, b) for a, mask in zip(worlds, succ) for b in select(worlds, mask)]
    return PreorderModel(worlds, order, {name: select(worlds, bits) for name, bits in env.items()})


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
