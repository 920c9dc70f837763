"""Decision engine: satisfiability, validity, countermodels, interpolants.

The engine decides the eighteen logics G(Lambda,m,n) with Lambda in
{Int, KC} and m, n in {1, 2, w}. Every logic is the base logic S4 (Int) or
S4.2 (KC) extended by the cluster-bounding axioms, and is complete for the
finite base-logic frames whose final clusters have size at most m and whose
non-final clusters have size at most n.

Verdicts are produced by a layered pipeline in which every positive answer
carries a machine-verified witness and every negative answer comes from a
method that is sound for the whole frame class:

1. Cluster-formula analysis. If the query is (the negation of) a frame
   formula over distinct atoms, refutability on the frame class reduces to
   whether the target frame itself lies in the class: a p-morphic image of
   a generated subframe of a class frame inherits the cluster bounds and
   confluence, and conversely the identity map realizes any class frame.
2. Base-logic type elimination over the subformula closure. ``base_models``
   is the one elimination core, for ``sat`` and for the Smorynski
   construction alike: S4 is the case with no fixed top cluster, and S4.2
   fixes one final cluster per viable top box signature. Unsatisfiable
   results transfer soundly to every extension; satisfiable results are
   final for the (w,w) logics and otherwise feed a cluster-refinement
   attempt whose output is re-verified against the frame class.
3. Bounded enumeration of class models (also the countermodel oracle).
   It and the interpolant fingerprints run ``kripke.eval_on_frame``, the
   one Kripke evaluator, on a frame with one copy per valuation, so a
   frame is evaluated under all valuations at once; every hit is rebuilt
   as a model and checked again by ``model_check``, which runs the same
   evaluator on that one model. ``TypeSpace.mask`` runs the same evaluator
   core with no frame (``kripke.eval_propositional``), over all letter
   assignments at once, box letters as leaves.

Anything undecided within budget is reported as Unknown, never guessed.
"""

from __future__ import annotations

import itertools
import re
import time
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

from . import kripke
from .frame_formulas import OMEGA, RootedFrame
from .kripke import (
    PreorderModel, eval_on_frame, eval_propositional, is_confluent, model_from_masks,
    select, tile,
)
from .refine import RefinementError, refine_model
from .syntax import (
    And, Atom, Box, Diamond, Formula, Iff, Implies, Not, Or,
    FALSE, TRUE, atoms, pretty, sort_key, sorted_formulas,
    subformula_closure, to_core,
)

Bound = Union[int, float]


# ---------------------------------------------------------------------------
# Logic identifiers and the interpolation catalog
# ---------------------------------------------------------------------------

class LogicError(ValueError):
    pass


@dataclass(frozen=True)
class LogicId:
    """G(lambda, m, n): final clusters of size <= m, non-final <= n."""

    lam: str
    m: Bound
    n: Bound

    def __post_init__(self):
        if self.lam not in ("Int", "KC"):
            raise LogicError(f"lambda must be Int or KC, got {self.lam!r}")
        for value in (self.m, self.n):
            if value != OMEGA and value not in (1, 2):
                raise LogicError(f"cluster bounds must be 1, 2 or w, got {value!r}")

    @property
    def confluent(self) -> bool:
        return self.lam == "KC"

    @property
    def unbounded(self) -> bool:
        return self.m == OMEGA and self.n == OMEGA

    def __str__(self) -> str:
        return f"G({self.lam},{_bound_str(self.m)},{_bound_str(self.n)})"


def _bound_str(value: Bound) -> str:
    return "w" if value == OMEGA else str(int(value))


_LOGIC_RE = re.compile(r"G\(\s*(Int|KC)\s*,\s*(1|2|w)\s*,\s*(1|2|w)\s*\)")
_ALIAS_LOGICS = {
    "S4": LogicId("Int", OMEGA, OMEGA),
    "S4.2": LogicId("KC", OMEGA, OMEGA),
    "Grz": LogicId("Int", 1, 1),
}


def parse_logic(text: str) -> LogicId:
    text = text.strip()
    if text in _ALIAS_LOGICS:
        return _ALIAS_LOGICS[text]
    m = _LOGIC_RE.fullmatch(text)
    if not m:
        raise LogicError(
            f"bad logic {text!r}; expected G(Int|KC,1|2|w,1|2|w) or S4, S4.2, Grz"
        )
    bounds = [OMEGA if tok == "w" else int(tok) for tok in m.groups()[1:]]
    return LogicId(m.group(1), bounds[0], bounds[1])


ALL_LOGICS: tuple[LogicId, ...] = tuple(
    LogicId(lam, m, n)
    for lam in ("Int", "KC")
    for m in (1, 2, OMEGA)
    for n in (1, 2, OMEGA)
)


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    family: str
    m: Optional[Bound]
    n: Optional[Bound]
    has_cip: bool
    has_dip: bool
    decidable_here: bool
    aliases: tuple[str, ...] = ()


def catalog() -> list[CatalogEntry]:
    """The classification of normal S4 extensions by interpolation:
    exactly 37 entries with the Craig property, exactly 49 with the
    deductive property."""
    entries: list[CatalogEntry] = [
        CatalogEntry("For", "For", None, None, True, True, False,
                     aliases=("inconsistent",))
    ]
    seen = {("For", None, None)}

    def add(family: str, m: Bound, n: Bound, cip: bool, decidable: bool):
        key = (family, m, n)
        if key in seen:
            return
        seen.add(key)
        name = f"G({family},{_bound_str(m)},{_bound_str(n)})"
        aliases = {
            ("Int", OMEGA, OMEGA): ("S4",),
            ("KC", OMEGA, OMEGA): ("S4.2",),
            ("Int", 1, 1): ("Grz",),
        }.get(key, ())
        entries.append(CatalogEntry(name, family, m, n, cip, True, decidable, aliases))

    for lam in ("Int", "KC"):
        for m in (1, 2, OMEGA):
            for n in (1, 2, OMEGA):
                add(lam, m, n, cip=True, decidable=True)
    for lam in ("LP2", "LV", "LS"):
        for n in (1, 2, OMEGA):
            add(lam, n, 1, cip=True, decidable=False)
            add(lam, 1, n, cip=True, decidable=False)
    for n in (1, 2, OMEGA):
        add("Cl", n, 0, cip=True, decidable=False)
    for lam in ("LP2", "LV", "LS"):
        for m in (2, OMEGA):
            for n in (2, OMEGA):
                add(lam, m, n, cip=False, decidable=False)
    return entries


# ---------------------------------------------------------------------------
# Budgets and verdicts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Budget:
    """Explicit resource limits; exceeding any of them yields Unknown."""

    max_letters: int = 20          # modal atoms in a type space
    max_types: int = 60_000        # coherent types in a type space
    max_worlds: int = 5            # model enumeration bound
    max_candidates: int = 4_000    # interpolant candidates
    max_seconds: float = 30.0      # wall clock per engine call


class BudgetExceeded(Exception):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class _Deadline:
    def __init__(self, seconds: float):
        self.t0 = time.monotonic()
        self.seconds = seconds

    def check(self, what: str) -> None:
        if time.monotonic() - self.t0 > self.seconds:
            raise BudgetExceeded(f"time budget exceeded during {what}")


@dataclass(frozen=True)
class Satisfiable:
    model: PreorderModel = field(hash=False)
    world: str


@dataclass(frozen=True)
class Unsatisfiable:
    pass


UNSAT = Unsatisfiable()


@dataclass(frozen=True)
class Unknown:
    reason: str


@dataclass(frozen=True)
class Valid:
    pass


VALID = Valid()


@dataclass(frozen=True)
class Invalid:
    model: PreorderModel = field(hash=False)
    world: str


@dataclass(frozen=True)
class Interpolant:
    formula: Formula


@dataclass(frozen=True)
class NotValid:
    model: PreorderModel = field(hash=False)
    world: str


# ---------------------------------------------------------------------------
# Frame class membership
# ---------------------------------------------------------------------------

def in_frame_class(model: PreorderModel, logic: LogicId) -> bool:
    finals, nonfinals = kripke.cluster_sizes(model)
    if any(size > logic.m for size in finals):
        return False
    if any(size > logic.n for size in nonfinals):
        return False
    if logic.confluent and not is_confluent(model):
        return False
    return True


# ---------------------------------------------------------------------------
# Type spaces: bit-parallel Hintikka assignments over a closure
# ---------------------------------------------------------------------------

def _column(j: int, k: int) -> int:
    """Bitmask over 2^k assignments where assignment i has bit j set (j < k)."""
    return tile(((1 << (1 << j)) - 1) << (1 << j), 1 << (k - j - 1), 2 << j)


class TypeSpace:
    """All propositionally coherent truth assignments for a closure.

    Letters are the closure's atoms and boxed subformulas; an assignment is
    an integer whose bit j gives letter j's value. Formula truth across all
    assignments is held as one big bitmask, so coherence filtering and
    elimination run bit-parallel: a set of types is a 2^k-bit mask too, and
    ``_eliminate`` answers superset queries on box signatures by shifting
    such masks along the letter columns.
    """

    def __init__(self, seeds: Iterable[Formula], budget: Budget):
        core_seeds = [to_core(f) for f in seeds]
        self.closure = subformula_closure(core_seeds)
        self.letters = sorted_formulas(f for f in self.closure if isinstance(f, (Atom, Box)))
        self.k = len(self.letters)
        if self.k > budget.max_letters:
            raise BudgetExceeded(
                f"type space needs {self.k} letters (cap {budget.max_letters})"
            )
        self._full = (1 << (1 << self.k)) - 1
        # letter j holds at the assignments with bit j set
        self.columns = [_column(j, self.k) for j in range(self.k)]
        self._masks: dict[Formula, int] = dict(zip(self.letters, self.columns))
        self.box_positions = [j for j, f in enumerate(self.letters) if isinstance(f, Box)]
        self.atom_positions = [j for j, f in enumerate(self.letters) if isinstance(f, Atom)]
        self.box_mask = sum(1 << j for j in self.box_positions)
        self.coherent_mask = self._full
        for j in self.box_positions:
            letter = self.letters[j]
            self.coherent_mask &= (self._full ^ self.mask(letter)) | self.mask(letter.sub)
        if (n := self.coherent_mask.bit_count()) > budget.max_types:
            raise BudgetExceeded(f"type space has {n} coherent types (cap {budget.max_types})")

    @cached_property
    def coherent(self) -> list[int]:
        """The coherent assignments, ascending."""
        return select(itertools.count(), self.coherent_mask)

    def mask(self, f: Formula) -> int:
        f = to_core(f)
        if f not in self.closure:
            raise LogicError(f"formula outside the type space closure: {pretty(f)}")
        return eval_propositional(f, self._full, self._masks)

    def bits(self, f: Formula) -> bytes:
        """Byte view of a formula's truth mask, for O(1) per-type tests."""
        return self.mask(f).to_bytes(((1 << self.k) + 7) >> 3, "little")


def _same_signatures(space: TypeSpace, mask: int, down: Iterable[int]) -> int:
    """The assignments with the box signature of some point of mask once it
    is down-closed over the letter bits ``down`` (every atom bit among them)."""
    for p in down:
        mask |= (mask & space.columns[p]) >> (1 << p)
    for p in space.atom_positions:
        mask |= (mask << (1 << p)) & space.columns[p]
    return mask


def _eliminate(space: TypeSpace, b: int) -> int:
    """Greatest set of coherent types with box signature inside b whose
    missing boxes in b all have witnesses, as a mask over the types.

    A type i lacking box-letter j of b needs a surviving type that refutes
    j's core and whose box signature contains i's. Box letters outside b
    carry no obligation: in the confluent construction the final cluster of
    signature b refutes their cores above every world.

    Each round answers every obligation for j at once, bit-parallel over the
    2^k assignments: down-closing the witnesses ``alive & ~core_j`` over
    every letter bit reaches the signatures below some witness's, and
    ``_same_signatures`` marks the types of those signatures, which are the
    types whose obligation for j is met.
    """
    alive = space.coherent_mask
    cores = {}
    for j in space.box_positions:
        if b >> j & 1:
            cores[j] = space.mask(space.letters[j].sub)
        else:
            alive &= ~space.columns[j]
    while True:
        kept = alive
        for j, core in cores.items():
            kept &= space.columns[j] | _same_signatures(space, alive & ~core, range(space.k))
        if kept == alive:
            return alive
        alive = kept


def base_models(
    space: TypeSpace, confluent: bool
) -> Iterator[tuple[int, list[int]]]:
    """The base-logic canonical models over a type space, as (survivors, top).

    This is the one elimination core behind ``sat`` and the Smorynski
    construction. Survivors are a type mask, top a sorted type list. For S4
    (``confluent`` false) there is one model and no fixed top. Every finite
    confluent model has a single final cluster seen from everywhere, so for
    S4.2 there is one model for each viable top box signature b, in
    ascending order: its top holds every coherent type of signature b (the
    largest possible final cluster, which dominates every smaller choice),
    and it is viable when the top refutes the core of every box letter
    outside b, which one mask over the types answers for every b at once.
    A top type has no obligation inside b, so top is always a subset of the
    survivors.
    """
    if not confluent:
        yield _eliminate(space, space.box_mask), []
        return
    viable = space.coherent_mask
    for j in space.box_positions:
        refuters = space.coherent_mask & ~space.mask(space.letters[j].sub)
        viable &= space.columns[j] | _same_signatures(space, refuters, space.atom_positions)
    by_sig: dict[int, list[int]] = {}
    for i in select(itertools.count(), viable):
        by_sig.setdefault(i & space.box_mask, []).append(i)
    for b, top in sorted(by_sig.items()):
        yield _eliminate(space, b), top


def types_to_model(
    letters: Sequence[Formula], names: Mapping[int, str], top: Sequence[int] = (),
) -> PreorderModel:
    """The canonical model over surviving types of a type space with these
    letters, ``names`` giving each type's world id. A type sees every type
    whose box signature contains its own. ``top`` lists types (repeating
    survivors) of a final cluster that every world sees, the confluent
    construction's, on worlds u000000, u000001, ...

    The order is built as successor masks: the worlds of each box signature
    as one mask, then one row per signature, the union of the masks of the
    signatures that contain it, shared by its worlds."""
    box_mask = sum(1 << j for j, f in enumerate(letters) if isinstance(f, Box))
    top_names = [f"u{idx:06d}" for idx in range(len(top))]
    worlds = sorted([*names.values(), *top_names])
    index = {w: i for i, w in enumerate(worlds)}
    top_bits = sum(1 << index[w] for w in top_names)
    members: dict[int, int] = {}
    for i, w in names.items():
        members[i & box_mask] = members.get(i & box_mask, 0) | 1 << index[w]
    rows = {
        sig: top_bits | sum(bits for above, bits in members.items() if sig & ~above == 0)
        for sig in members
    }
    masks = [top_bits] * len(worlds)
    for i, w in names.items():
        masks[index[w]] = rows[i & box_mask]
    typed = list(names.items()) + list(zip(top, top_names))
    valuation = {
        letter.name: [w for i, w in typed if i >> j & 1]
        for j, letter in enumerate(letters) if isinstance(letter, Atom)
    }
    return PreorderModel.from_masks(worlds, masks, valuation)


def _base_witness(
    space: TypeSpace, goal: Formula, confluent: bool
) -> Optional[tuple[PreorderModel, str]]:
    """The generated base-logic model at the first surviving type satisfying
    goal, worlds named as in the whole model; None if base-logic unsatisfiable."""
    for survivors, top in base_models(space, confluent):
        if hits := survivors & space.mask(goal):
            hit = (hits & -hits).bit_length() - 1
            sig = hit & space.box_mask
            ranked = enumerate(select(itertools.count(), survivors))
            names = {t: f"t{idx:06d}" for idx, t in ranked if t & sig == sig}
            return types_to_model(space.letters, names, top), names[hit]
    return None


# ---------------------------------------------------------------------------
# Frame enumeration and model search
# ---------------------------------------------------------------------------

def _set_partitions(items: tuple[int, ...]) -> Iterator[list[list[int]]]:
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in _set_partitions(rest):
        for i in range(len(partition)):
            yield partition[:i] + [[first] + partition[i]] + partition[i + 1:]
        yield [[first]] + partition


@lru_cache(maxsize=8)
def _labeled_posets(b: int) -> tuple[tuple[int, ...], ...]:
    """All strict partial orders on range(b), each as the up-sets of its
    points (bit j of entry i says i < j): each order on range(b-1) extended
    by point b-1 in every consistent way. The new point goes above a
    down-closed set D and below an up-closed set U that lies above all of D;
    D and then U run through the subsets by size, then in combinations
    order."""
    if b == 0:
        return ((),)
    new = b - 1
    points = range(new)
    subsets = [
        sum(1 << i for i in combo) for r in range(b) for combo in itertools.combinations(points, r)
    ]
    out = []
    for ups in _labeled_posets(new):
        # indexed by a set s of points: the points above some point of s,
        # those below some point of s, and those above every point of s
        up_reach, down_reach, above = [0], [0], [(1 << new) - 1]
        for i in points:
            down = sum(1 << d for d in points if ups[d] >> i & 1)
            up_reach += [r | ups[i] for r in up_reach]
            down_reach += [r | down for r in down_reach]
            above += [r & ups[i] for r in above]
        up_closed = [s for s in subsets if not up_reach[s] & ~s]
        for down in subsets:
            if down_reach[down] & ~down:
                continue
            extended = tuple(up | (down >> i & 1) << new for i, up in enumerate(ups))
            out.extend(extended + (up,) for up in up_closed if not up & ~above[down])
    return tuple(out)


def _preorders(k: int) -> Iterator[tuple[int, ...]]:
    """Every preorder on range(k) as successor masks, once each: a partition
    into clusters times a strict partial order on the clusters."""
    for partition in _set_partitions(tuple(range(k))):
        owner = [0] * k
        for i, block in enumerate(partition):
            for x in block:
                owner[x] = i
        # unions[s]: the worlds of the blocks in the set s of blocks
        unions = [0]
        for block in partition:
            mask = sum(1 << x for x in block)
            unions += [union | mask for union in unions]
        for ups in _labeled_posets(len(partition)):
            rows = [unions[1 << i | up] for i, up in enumerate(ups)]
            yield tuple(map(rows.__getitem__, owner))


def labeled_preorders(k: int) -> Iterator[frozenset[tuple[int, int]]]:
    """Every preorder on range(k), once each, as a set of pairs."""
    for succ in _preorders(k):
        yield frozenset((a, b) for a, row in enumerate(succ) for b in select(range(k), row))


@lru_cache(maxsize=8)
def canonical_frames(k: int) -> tuple[frozenset[tuple[int, int]], ...]:
    """Preorders on range(k), one representative per isomorphism class,
    in canonical adjacency-encoding order.

    Pair (a, b) is bit K-1-(a*k+b) of a relation's code (K = k*k): row a
    of the successor masks is a k-bit field, row 0 most significant, point
    b at bit k-1-b of it. Each class is built once, from its first labelled
    preorder: the codes of all its permutation images are marked seen, and
    the greatest is the representative, the image whose sorted pair list is
    least.
    """
    # tables[p][a][row]: the code bits of row a of a preorder in its image
    # under permutation p, the fields of row p[a]
    tables = []
    for p in itertools.permutations(range(k)):  # the identity comes first
        field = [0]
        for b in range(k):
            field += [bits | 1 << k - 1 - p[b] for bits in field]
        tables.append([[bits << k * (k - 1 - p[a]) for bits in field] for a in range(k)])
    pick = list.__getitem__
    seen: set[int] = set()
    out = []
    for succ in _preorders(k):
        if sum(map(pick, tables[0], succ)) not in seen:
            images = [sum(map(pick, table, succ)) for table in tables]
            seen.update(images)
            least = max(images)
            out.append(frozenset(
                (a, b) for a in range(k) for b in range(k) if least >> k * k - 1 - a * k - b & 1
            ))
    out.sort(key=sorted)
    return tuple(out)


@lru_cache(maxsize=128)
def _class_frames(k: int, lam: str, m: Bound, n: Bound) -> tuple[tuple[int, ...], ...]:
    """Successor-mask vectors of the canonical k-world frames in the class."""
    logic = LogicId(lam, m, n)
    out = []
    for rel in canonical_frames(k):
        succ = [0] * k
        for a, b in rel:
            succ[a] |= 1 << b
        if in_frame_class(model_from_masks(succ, {}), logic):
            out.append(tuple(succ))
    return tuple(out)


# One evaluation holds at most 2^_SLICE_BITS valuations, one copy each.
_SLICE_BITS = 12


@lru_cache(maxsize=64)
def _sliced_atoms(n: int, k: int) -> tuple[tuple[int, ...], int]:
    """The extensions of n atoms on k worlds under all 2^(k*n) valuations,
    valuation v in copy v as ``kripke.eval_on_frame`` packs copies, and the
    int with bit 0 of every copy set. Valuation v gives the i-th atom the
    extension mask in bits k*(n-1-i) .. k*(n-i)-1 of v, so the first atom
    is most significant and ascending v is ``itertools.product`` order."""
    stride = k + 1
    columns = []
    for i in range(n):
        # runs of `run` copies share atom i's extension; 2^k runs cycle
        run = 1 << k * (n - 1 - i)
        cycle = sum(tile(ext, run, stride) << ext * run * stride for ext in range(1 << k))
        columns.append(tile(cycle, 1 << k * i, run * stride << k))
    return tuple(columns), tile(1, 1 << k * n, stride)


def _frame_walk(
    f: Formula,
    logic: LogicId,
    max_worlds: int,
    want: str,
    deadline: Optional[_Deadline] = None,
) -> Optional[tuple[PreorderModel, str]]:
    """Scan class models in canonical order for a world refuting f
    (want='refute') or satisfying it (want='satisfy').

    Valuations of k worlds are numbered with the first sorted atom in the
    most significant k bits, so ascending index is ``itertools.product``
    order. The trailing atoms that fit in one slice are evaluated all at
    once, valuation v in copy v of the frame; the leading atoms are looped
    in product order. The first hit is the lowest set bit, in the lowest
    copy at its lowest world.
    """
    names = sorted(atoms(f))
    for k in range(1, max_worlds + 1):
        n_lead = max(0, len(names) - _SLICE_BITS // k)
        lead, trail = names[:n_lead], names[n_lead:]
        columns, ones = _sliced_atoms(len(trail), k)
        copies, stride, full = 1 << k * len(trail), k + 1, ones * ((1 << k) - 1)
        for succ in _class_frames(k, logic.lam, logic.m, logic.n):
            for bits in itertools.product(range(1 << k), repeat=len(lead)):
                if deadline:
                    deadline.check("model enumeration")
                env = {name: b * ones for name, b in zip(lead, bits)}
                env.update(zip(trail, columns))
                sat_bits = eval_on_frame(succ, env, f, None, copies)
                hits = sat_bits if want == "satisfy" else full ^ sat_bits
                while hits:
                    v, w = divmod((hits & -hits).bit_length() - 1, stride)
                    # a hit that fails its re-check skips the rest of its copy
                    hits &= -1 << (v + 1) * stride
                    trail_bits = [v >> k * i & (1 << k) - 1 for i in reversed(range(len(trail)))]
                    # rebuild the hit as a validated preorder model and check
                    # it again there, together with class membership
                    model = model_from_masks(succ, dict(zip(names, bits + tuple(trail_bits))))
                    holds = kripke.satisfies(model, f"w{w}", f)
                    if holds == (want == "satisfy") and in_frame_class(model, logic):
                        return model, f"w{w}"
    return None


def countermodel_search(
    f: Formula, logic: LogicId, max_worlds: int
) -> Optional[tuple[PreorderModel, str]]:
    """First class model (canonical order) refuting f, up to the size bound.

    Sound for refutation and incomplete: absence of a countermodel within
    the bound proves nothing.
    """
    return _frame_walk(f, logic, max_worlds, "refute")


# ---------------------------------------------------------------------------
# Structural analysis of substituted frame formulas
# ---------------------------------------------------------------------------

def _simplify_units(f: Formula) -> Formula:
    """Trivial unit rewrites used only to normalize matcher input."""
    if isinstance(f, Not):
        sub = _simplify_units(f.sub)
        if isinstance(sub, Not):
            return sub.sub
        return Not(sub)
    if isinstance(f, Implies):
        left, right = _simplify_units(f.left), _simplify_units(f.right)
        if left == TRUE:
            return right
        return Implies(left, right)
    if isinstance(f, And):
        left, right = _simplify_units(f.left), _simplify_units(f.right)
        if left == TRUE:
            return right
        if right == TRUE:
            return left
        return And(left, right)
    if isinstance(f, Or):
        left, right = _simplify_units(f.left), _simplify_units(f.right)
        if left == FALSE:
            return right
        if right == FALSE:
            return left
        return Or(left, right)
    return f


def _flatten(f: Formula, ctor) -> list[Formula]:
    if isinstance(f, ctor):
        return _flatten(f.left, ctor) + _flatten(f.right, ctor)
    return [f]


def _match_frame_conjunction(f: Formula) -> Optional[tuple[RootedFrame, list[str]]]:
    """Recognize the satisfied form of a frame formula over distinct atoms.

    Returns (target frame, atom names) when f is exactly the conjunction of
    the frame-formula items (i)-(v) for some rooted preorder, with the
    substituted arguments pairwise distinct atoms; None otherwise.
    """
    f = _simplify_units(f)
    while isinstance(f, Not) and isinstance(f.sub, Not):
        f = f.sub.sub
    items = _flatten(f, And)
    if len(items) < 2:
        return None
    first, second = items[0], items[1]
    if not isinstance(first, Atom) or not isinstance(second, Box):
        return None
    args = _flatten(second.sub, Or)
    if not all(isinstance(a, Atom) for a in args):
        return None
    names = [a.name for a in args]
    if len(set(names)) != len(names) or first.name != names[0]:
        return None
    k = len(names)
    index = {name: i for i, name in enumerate(names)}
    need_neg = {(i, j) for i in range(k) for j in range(k) if i != j}
    rel_pairs: set[tuple[int, int]] = set()
    nonrel_pairs: set[tuple[int, int]] = set()
    for item in items[2:]:
        if not (isinstance(item, Box) and isinstance(item.sub, Implies)):
            return None
        left, right = item.sub.left, item.sub.right
        if not isinstance(left, Atom) or left.name not in index:
            return None
        i = index[left.name]
        if isinstance(right, Not) and isinstance(right.sub, Atom) and right.sub.name in index:
            pair = (i, index[right.sub.name])
            if pair not in need_neg:
                return None
            need_neg.discard(pair)
        elif isinstance(right, Diamond) and isinstance(right.sub, Atom) and right.sub.name in index:
            rel_pairs.add((i, index[right.sub.name]))
        elif (
            isinstance(right, Not)
            and isinstance(right.sub, Diamond)
            and isinstance(right.sub.sub, Atom)
            and right.sub.sub.name in index
        ):
            nonrel_pairs.add((i, index[right.sub.sub.name]))
        else:
            return None
    if need_neg:
        return None
    all_pairs = {(i, j) for i in range(k) for j in range(k)}
    if rel_pairs | nonrel_pairs != all_pairs or rel_pairs & nonrel_pairs:
        return None
    try:
        frame = RootedFrame(k, frozenset(rel_pairs))
    except kripke.ModelError:
        return None
    return frame, names


def _frame_formula_sat(f: Formula, logic: LogicId):
    """Decide sat for inputs that are satisfied frame-formula conjunctions.

    The conjunction is satisfiable at a point x iff the generated subframe
    p-morphs onto the target with the atoms as preimages; over the frame
    class that happens iff the target frame itself lies in the class.
    """
    match = _match_frame_conjunction(f)
    if match is None:
        return None
    frame, names = match
    if not in_frame_class(frame.as_model(), logic):
        return UNSAT
    model = frame.as_model({name: [f"g{i}"] for i, name in enumerate(names)})
    if kripke.satisfies(model, "g0", f) and in_frame_class(model, logic):
        return Satisfiable(model, "g0")
    return None


# ---------------------------------------------------------------------------
# sat / valid / equivalent
# ---------------------------------------------------------------------------

_SAT_CACHE: dict[tuple, object] = {}


def sat(f: Formula, logic: LogicId, budget: Optional[Budget] = None):
    """Satisfiability of f over the finite frames of the logic.

    Returns Satisfiable(model, world) with a verified in-class witness,
    Unsatisfiable, or Unknown. Never an unverified positive and never a
    wrong verdict: Unsatisfiable comes only from methods sound for the
    whole frame class.
    """
    budget = budget or Budget()
    key = (f, logic, budget)
    hit = _SAT_CACHE.get(key)
    if hit is not None:
        return hit
    result = _sat_uncached(f, logic, budget)
    if not isinstance(result, Unknown):
        # an Unknown may come from the time budget, so it is never reused
        _SAT_CACHE[key] = result
    return result


def _sat_uncached(f: Formula, logic: LogicId, budget: Budget):
    deadline = _Deadline(budget.max_seconds)

    structural = _frame_formula_sat(f, logic)
    if structural is not None:
        return structural

    core = to_core(f)
    base_witness = None
    skip_reason = ""
    try:
        space = TypeSpace([core], budget)
    except BudgetExceeded as exc:
        skip_reason = exc.reason
    else:
        base_witness = _base_witness(space, core, logic.confluent)
        if base_witness is None:
            return UNSAT

    if base_witness is not None:
        model, world = base_witness
        if logic.unbounded:
            if kripke.satisfies(model, world, f) and in_frame_class(model, logic):
                return Satisfiable(model, world)
        else:
            refined = _try_refine_to_class(model, world, f, logic)
            if refined is not None:
                return refined

    try:
        found = _frame_walk(f, logic, budget.max_worlds, "satisfy", deadline)
    except BudgetExceeded as exc:
        return Unknown(exc.reason)
    if found is not None:
        model, world = found
        return Satisfiable(model, world)
    reason = skip_reason or (
        f"base logic reports satisfiable but no class model with at most "
        f"{budget.max_worlds} worlds was found"
    )
    return Unknown(reason)


def _try_refine_to_class(
    model: PreorderModel, world: str, f: Formula, logic: LogicId
) -> Optional[Satisfiable]:
    if len(model.worlds) > 80:
        return None
    sigma = subformula_closure([to_core(f)])
    try:
        refined = refine_model(model, sigma, sigma, logic.m, logic.n)
    except RefinementError:
        return None
    if kripke.satisfies(refined, world, f) and in_frame_class(refined, logic):
        return Satisfiable(refined, world)
    return None


def valid(f: Formula, logic: LogicId, budget: Optional[Budget] = None):
    """Valid iff ~f is unsatisfiable; Invalid carries the countermodel."""
    result = sat(Not(f), logic, budget)
    if isinstance(result, Unsatisfiable):
        return VALID
    if isinstance(result, Satisfiable):
        return Invalid(result.model, result.world)
    return Unknown(result.reason)


def equivalent(
    f: Formula, g: Formula, logic: LogicId, budget: Optional[Budget] = None
) -> Optional[bool]:
    """True/False for decided equivalence, None for unknown."""
    if f == g:
        return True
    result = valid(Iff(f, g), logic, budget)
    if isinstance(result, Valid):
        return True
    if isinstance(result, Invalid):
        return False
    return None


# ---------------------------------------------------------------------------
# Interpolants
# ---------------------------------------------------------------------------

def size_layer(by_size: dict[int, list[Formula]], size: int) -> list[Formula]:
    batch: list[Formula] = []
    for g in by_size[size - 1]:
        if g not in (FALSE, TRUE):
            if not isinstance(g, Not):
                batch.append(Not(g))
            batch.append(Box(g))
            batch.append(Diamond(g))
    for left_size in range(1, size - 1):
        right_size = size - 1 - left_size
        for a in by_size[left_size]:
            if a in (FALSE, TRUE):
                continue
            for b in by_size[right_size]:
                if b in (FALSE, TRUE) or a == b:
                    continue
                for ctor in (And, Or):
                    if isinstance(b, ctor):
                        continue
                    if not isinstance(a, ctor) and sort_key(a) > sort_key(b):
                        continue
                    batch.append(ctor(a, b))
    return batch


def _candidate_stream(names: Sequence[str], max_candidates: int) -> Iterator[Formula]:
    """Canonicalized formulas over the atoms, in waves of growing node
    count; each wave is emitted in canonical (depth, size, print) order."""
    by_size: dict[int, list[Formula]] = {
        1: [FALSE, TRUE] + [Atom(n) for n in sorted(names)]
    }
    emitted = 0
    top = 1
    previous = 0
    for wave_cap in (4, 6, 8, 10):
        while top < wave_cap:
            top += 1
            by_size[top] = size_layer(by_size, top)
        wave = [f for s in range(previous + 1, top + 1) for f in by_size[s]]
        wave.sort(key=sort_key)
        for f in wave:
            yield f
            emitted += 1
            if emitted >= max_candidates:
                return
        previous = wave_cap


def _fingerprint(f: Formula, zoo: Sequence[tuple]) -> tuple:
    return tuple(
        eval_on_frame(succ, env, f, cache, copies) for succ, env, copies, cache in zoo
    )


def _fingerprint_zoo(names: Sequence[str]) -> list[tuple]:
    """(successor masks, valuations as copies, copy count, cache) for four
    small frames: one world, a two-chain, a two-cluster and a fork. Each
    frame is evaluated under every valuation of the first two atoms."""
    frames = [(0b1,), (0b11, 0b10), (0b11, 0b11), (0b111, 0b010, 0b100)]
    pick = sorted(names)[:2]
    return [
        (succ, dict(zip(pick, _sliced_atoms(len(pick), len(succ))[0])),
         1 << len(succ) * len(pick), {})
        for succ in frames
    ]


def find_interpolant(
    f1: Formula, f2: Formula, logic: LogicId, budget: Optional[Budget] = None
):
    """Craig interpolant for f1 -> f2 in the logic, by candidate enumeration.

    Valid implications always have an interpolant in these logics, so with
    enough budget the enumeration terminates; candidates are tried in
    canonical order and both implications are re-verified before returning.
    """
    budget = budget or Budget()
    outer = valid(Implies(f1, f2), logic, budget)
    if isinstance(outer, Invalid):
        return NotValid(outer.model, outer.world)
    if isinstance(outer, Unknown):
        return Unknown(f"implication undecided: {outer.reason}")

    shared = sorted(atoms(f1) & atoms(f2))
    zoo = _fingerprint_zoo(shared)
    seen: dict[tuple, list[Formula]] = {}
    tried = 0
    for chi in _candidate_stream(shared, budget.max_candidates * 4):
        if tried >= budget.max_candidates:
            break
        print_key = _fingerprint(chi, zoo)
        bucket = seen.setdefault(print_key, [])
        if any(equivalent(chi, other, logic, budget) for other in bucket):
            continue
        bucket.append(chi)
        tried += 1
        left = valid(Implies(f1, chi), logic, budget)
        if not isinstance(left, Valid):
            continue
        right = valid(Implies(chi, f2), logic, budget)
        if not isinstance(right, Valid):
            continue
        if not atoms(chi) <= set(shared):
            raise LogicError(f"candidate {pretty(chi)} leaves the shared vocabulary")
        return Interpolant(chi)
    return Unknown(
        f"no interpolant found among {tried} candidates (cap {budget.max_candidates})"
    )
