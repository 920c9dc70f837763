"""Finite preorder Kripke models: model checking, clusters, p-morphisms.

Models are immutable after construction. World ids are opaque strings and
every deterministic enumeration iterates them in lexicographic order.

There is one evaluator core, on bitmasks. ``eval_on_frame`` runs it on
successor bitmasks (bit i is the i-th world in sorted order) and evaluates
a formula on any number of disjoint copies of one frame at once, each copy
with its own valuation. A ``PreorderModel``'s order is its successor masks,
which every query reads. They are built on one path,
``PreorderModel.from_masks``, which closes or validates them; the pair
constructor and ``model_from_masks`` end in it, and ``without_edges``
edits a built model's masks and re-checks only the rows it changed.
``order``, their view as pairs, is built only when asked for.
``model_check`` reads the one-copy result back as a set of world ids
through ``select``, the one mask decoder. The bounded
model search, the interpolant fingerprints and, through
``eval_valuations``, relative satisfaction and criterion 1 put each
valuation of a frame in a copy of its own. ``eval_propositional`` runs the
core with no frame, on letters for atoms and boxed formulas: the type
spaces of ``engine`` evaluate their closures so and read their witnesses
off the survivor mask.
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
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .syntax import (
    And, Atom, Bottom, Box, Diamond, Formula, Iff, Implies, Not, Or, Top,
)

log = logging.getLogger(__name__)


class ModelError(ValueError):
    """Raised for structurally invalid models, frames, or world lookups."""


class PreorderModel:
    """A finite set of worlds with a reflexive-transitive order and valuation.

    The order is held as successor bitmasks, bit i for the i-th world in
    sorted order, and every query reads them. ``from_masks`` is the one
    construction core: ``closure="strict"`` validates that the masks are
    already a preorder, ``closure="auto"`` closes them reflexively and
    transitively. The constructor turns a set of pairs into masks and calls
    that core; ``without_edges`` clears bits of a built model and re-checks
    only the rows it changed. ``order`` is the masks' view as a set of
    pairs, built on first use; no query needs it.
    """

    __slots__ = ("worlds", "valuation", "_masks", "_order", "_env", "_cache", "_sets", "_gen")

    def __init__(
        self,
        worlds: Iterable[str],
        order: Iterable[tuple[str, str]],
        valuation: Mapping[str, Iterable[str]],
        closure: str = "strict",
    ):
        ws = tuple(sorted(set(worlds)))
        index = {w: i for i, w in enumerate(ws)}
        pairs = [(a, b) for a, b in order]
        masks = [0] * len(ws)
        try:
            for a, b in pairs:
                masks[index[a]] |= 1 << index[b]
        except KeyError:
            if ws:  # a model with no worlds is reported as such by the core
                # sorted on the error path only, so the message is the same in every run
                unknown = min({w for pair in pairs for w in pair} - index.keys(), key=str)
                a, b = min((pair for pair in pairs if unknown in pair), key=str)
                raise ModelError(f"order mentions unknown world in ({a}, {b})") from None
        self._build(ws, masks, valuation, closure)

    @classmethod
    def from_masks(
        cls,
        worlds: Sequence[str],
        masks: Sequence[int],
        valuation: Mapping[str, Iterable[str]],
        closure: str = "strict",
    ) -> "PreorderModel":
        """The model on ``worlds``, given in ascending order without repeats,
        where world i sees the worlds at the set bits of ``masks[i]``."""
        ws = tuple(worlds)
        if any(a >= b for a, b in zip(ws, ws[1:])):
            raise ModelError("world ids must be given in ascending order, each once")
        limit = 1 << len(ws)
        if len(masks) != len(ws) or any(not 0 <= mask < limit for mask in masks):
            raise ModelError(f"need one successor mask over {len(ws)} worlds per world")
        model = cls.__new__(cls)
        model._build(ws, list(masks), valuation, closure)
        return model

    def _build(self, ws, masks, valuation, closure) -> None:
        if not ws:
            raise ModelError("a model needs at least one world")
        if closure == "auto":
            for i in range(len(ws)):
                masks[i] |= 1 << i
            for k in range(len(ws)):  # Warshall: whoever sees k sees all k sees
                bit, reach = 1 << k, masks[k]
                masks = [mask | reach if mask & bit else mask for mask in masks]
        elif closure == "strict":
            _check_preorder(ws, masks, range(len(ws)))
        else:
            raise ModelError(f"closure mode must be 'auto' or 'strict', got {closure!r}")
        index = {w: i for i, w in enumerate(ws)}
        val, env = {}, _Valuation()
        for atom, extension in valuation.items():
            ext = frozenset(extension)
            bad = ext - index.keys()
            if bad:
                raise ModelError(f"valuation of {atom} mentions unknown worlds {sorted(bad)}")
            val[atom] = ext
            env[atom] = sum(1 << index[w] for w in ext)
        self._adopt(ws, masks, val, env)

    def _adopt(self, ws, masks, val, env) -> None:
        self.worlds: tuple[str, ...] = ws
        self.valuation: dict[str, frozenset[str]] = val
        self._masks = tuple(masks)
        self._order: Optional[frozenset[tuple[str, str]]] = None
        self._env = env
        self._cache: dict[Formula, int] = {}
        self._sets: dict[Formula, frozenset[str]] = {}
        self._gen: dict[frozenset[str], "PreorderModel"] = {}

    def without_edges(self, pairs: Iterable[tuple[str, str]]) -> "PreorderModel":
        """This model with the given edges deleted, validated as a preorder.

        Only the rows that lose a bit are re-checked. An unchanged row i
        cannot gain a violation: each of its successors' rows is the old
        one or a part of it, so it still lies inside row i, and i still sees
        itself. So the rows checked hold every defect a full strict
        validation would find, and it is reported in the same words.
        """
        masks = list(self._masks)
        changed = set()
        for a, b in sorted(pairs):  # sorted, so a defect is named the same in every run
            i, j = self._index(a), self._index(b)
            if not self._masks[i] >> j & 1:
                raise ModelError(f"order has no edge ({a}, {b})")
            masks[i] &= ~(1 << j)
            changed.add(i)
        _check_preorder(self.worlds, masks, sorted(changed))
        model = PreorderModel.__new__(PreorderModel)
        model._adopt(self.worlds, masks, self.valuation, _Valuation(self._env))
        return model

    @property
    def order(self) -> frozenset[tuple[str, str]]:
        """The order as (world, successor) pairs, a view of the masks."""
        if self._order is None:
            ws = self.worlds
            self._order = frozenset(
                (a, b) for a, mask in zip(ws, self._masks) for b in select(ws, mask)
            )
        return self._order

    def _index(self, w: str) -> int:
        i = bisect_left(self.worlds, w)
        if i == len(self.worlds) or self.worlds[i] != w:
            raise ModelError(f"unknown world {w!r}")
        return i

    def _mask(self, w: str) -> int:
        return self._masks[self._index(w)]

    def successors(self, w: str) -> frozenset[str]:
        return frozenset(select(self.worlds, self._mask(w)))

    def leq(self, a: str, b: str) -> bool:
        try:
            return bool(self._mask(a) >> self._index(b) & 1)
        except ModelError:
            return False

    def _key(self):
        return (
            self.worlds,
            self._masks,
            tuple(sorted((a, tuple(sorted(e))) for a, e in self.valuation.items())),
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, PreorderModel) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        edges = sum(mask.bit_count() for mask in self._masks)
        return f"PreorderModel({len(self.worlds)} worlds, {edges} edges)"


def _check_preorder(ws: Sequence[str], masks: Sequence[int], rows: Iterable[int]) -> None:
    """Raise for the first defect in the given rows, in ascending order: a
    world that does not see itself, then a row i with a successor j whose
    row is not inside row i, named by the least such (i, j) and the least
    world j sees that i does not."""
    rows = list(rows)
    for i in rows:
        if not masks[i] >> i & 1:
            raise ModelError(f"order is not reflexive at {ws[i]}")
    checked = set()
    for i in rows:
        row = masks[i]
        if row in checked:  # equal rows pass or fail together
            continue
        checked.add(row)
        outside = ~row
        # rows repeat within a cluster, so each distinct successor row is tested once
        if any(succ & outside for succ in set(select(masks, row))):
            j = next(j for j in select(range(len(ws)), row) if masks[j] & outside)
            extra = masks[j] & outside
            missing = ws[(extra & -extra).bit_length() - 1]
            raise ModelError(f"order is not transitive: {ws[i]} <= {ws[j]} <= {missing}")


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
    elif copies * len(succ) ** 2 <= _CACHED_LAYOUT_BITS:
        layout = _layout(tuple(succ), copies)
    else:
        layout = _layout.__wrapped__(succ, copies)
    return _eval(layout, env, f, cache)


# Layouts of up to this many bits (k^2 per copy of k worlds) are cached; every
# frame walk slice fits. ``eval_valuations`` packs at most _CHUNK_BITS bits of
# copies at once, a bound in bits, not copies, as its models reach hundreds of worlds.
_CACHED_LAYOUT_BITS, _CHUNK_BITS = 1 << 20, 1 << 16


@lru_cache(maxsize=256)
def _layout(succ: Sequence[int], copies: int) -> tuple[tuple[int, ...], int, int]:
    """(successor masks spread over every copy, full world mask, guard bits)
    of ``copies`` packed copies of a frame, for ``_eval``."""
    k = len(succ)
    ones = tile(1, copies, k + 1)
    return tuple(mask * ones for mask in succ), ones * ((1 << k) - 1), ones << k


def eval_valuations(
    model: PreorderModel, f: Formula, valuations: Iterable[Mapping[str, int]]
) -> Iterator[int]:
    """[[f]] as a world mask (bit i for ``model.worlds[i]``) under each
    valuation in turn, atom -> world mask, an atom it lacks holding nowhere.
    Each valuation gets a copy of the model's frame; chunks of copies are
    evaluated one at a time, as the results are consumed."""
    stride = len(model.worlds) + 1
    pending = iter(valuations)
    while chunk := list(itertools.islice(pending, max(1, _CHUNK_BITS // stride))):
        # one binary numeral per atom, copy 0 last, each copy padded by 1 << stride
        env = {name: int("".join([bin(1 << stride | v.get(name, 0))[3:] for v in chunk[::-1]]), 2)
               for name in set().union(*chunk)}
        packed = eval_on_frame(model._masks, env, f, None, len(chunk))
        yield from (packed >> c * stride & (1 << stride - 1) - 1 for c in range(len(chunk)))


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
    for a, mask in zip(source.worlds, source._masks):
        for b in select(source.worlds, mask):
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
        # row by row: worlds and the bits of a row ascend, so the pairs come sorted
        "order": [
            [a, b] for a, mask in zip(model.worlds, model._masks) for b in select(model.worlds, mask)
        ],
        "valuation": {a: sorted(ext) for a, ext in sorted(model.valuation.items())},
        "closure": "strict",
    }


def model_from_masks(succ: Sequence[int], env: Mapping[str, int]) -> PreorderModel:
    """The model on worlds w0, w1, ... with successor masks ``succ`` and atom
    extension masks ``env``, as ``eval_on_frame`` reads them."""
    worlds, ranked, bit = _w_names(len(succ))
    valuation = {name: select(worlds, bits) for name, bits in env.items()}
    masks = [sum(select(bit, succ[i])) for i in ranked]
    return PreorderModel.from_masks([worlds[i] for i in ranked], masks, valuation)


@lru_cache(maxsize=64)
def _w_names(k: int) -> tuple[tuple[str, ...], tuple[int, ...], tuple[int, ...]]:
    """The names w0 .. w{k-1}, their indices in name order (w10 sorts before
    w2), and for each index i the bit of w_i's row in the sorted model."""
    worlds = tuple(f"w{i}" for i in range(k))
    ranked = tuple(sorted(range(k), key=worlds.__getitem__))
    bit = [0] * k
    for r, i in enumerate(ranked):
        bit[i] = 1 << r
    return worlds, ranked, tuple(bit)


def model_from_dict(data: Mapping) -> PreorderModel:
    try:
        worlds = data["worlds"]
        order = [tuple(pair) for pair in data["order"]]
        valuation = data.get("valuation", {})
        id_types = set(map(type, itertools.chain(worlds, *order, *valuation.values())))
    except (KeyError, TypeError, AttributeError) as exc:
        raise ModelError(f"malformed model object: {exc}") from exc
    if set(map(len, order)) - {2} or id_types - {str}:
        raise ModelError("world ids must be strings, and order entries pairs of them")
    closure = data.get("closure", "strict")
    return PreorderModel(worlds, order, valuation, closure=closure)


def load_model(path: str) -> PreorderModel:
    with open(path, "r", encoding="utf-8") as handle:
        return model_from_dict(json.load(handle))


def dump_model(model: PreorderModel, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(model_to_dict(model), handle, indent=2, sort_keys=True)
        handle.write("\n")
