"""Maximal inseparable sets and the canonical finite models built from them.

Fix a signed closure (Sigma1, Sigma2) and a logic. A subset T of Sigma is
separable when some formula over the shared closure atoms follows from T1
and refutes T2; since every logic handled here has the Craig interpolation
property, separability coincides with joint inconsistency of T1 and T2,
which is what the engine decides. Maximal inseparable sets decide every
side formula up to negation-representative, and they are the worlds of the
canonical model: T sees T' when every boxed member of T stays in T', and an
atom holds at the worlds containing it. Every closure member is then true
exactly at the worlds containing it, and when the logic extends S4.2 the
underlying frame is confluent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

from . import engine as _engine
from .engine import Budget, LogicId, Satisfiable, Unsatisfiable
from .kripke import PreorderModel, model_check, model_to_dict
from .syntax import (
    Formula, Not, SignedClosure, conj, iter_negation_pairs, modality_key, pretty,
    sorted_formulas,
)


class OracleUndecided(RuntimeError):
    """The consistency oracle ran out of budget; construction aborts loudly."""


class SeparableError(RuntimeError):
    def __init__(self, witness: Optional[Formula]):
        name = pretty(witness) if witness is not None else "(witness unavailable)"
        super().__init__(f"the set is separable, witnessed by {name}")
        self.witness = witness


@dataclass(frozen=True)
class Separable:
    witness: Formula


@dataclass(frozen=True)
class Inseparable:
    pass


@dataclass(frozen=True)
class MaximalSet:
    """A maximal inseparable subset, split by closure side."""

    t1: frozenset[Formula]
    t2: frozenset[Formula]

    @property
    def members(self) -> frozenset[Formula]:
        return self.t1 | self.t2

    def label(self) -> str:
        return "{" + ", ".join(pretty(f) for f in sorted_formulas(self.members)) + "}"


def _sides(T, closure: SignedClosure) -> tuple[frozenset, frozenset]:
    """Split T by closure side.

    T is either a flat formula set (split as T & sigma_i, the default
    reading) or an explicit pair (t1, t2) when the caller tracks which side
    each formula came from.
    """
    if isinstance(T, tuple) and len(T) == 2:
        t1, t2 = frozenset(T[0]), frozenset(T[1])
    else:
        flat = frozenset(T)
        t1, t2 = flat & closure.sigma1, flat & closure.sigma2
        if t1 | t2 != flat:
            stray = flat - closure.sigma
            raise ValueError(
                f"formulas outside the closure: {[pretty(f) for f in sorted_formulas(stray)]}"
            )
        return t1, t2
    if not t1 <= closure.sigma1 or not t2 <= closure.sigma2:
        stray = (t1 - closure.sigma1) | (t2 - closure.sigma2)
        raise ValueError(
            f"formulas outside their closure side: {[pretty(f) for f in sorted_formulas(stray)]}"
        )
    return t1, t2


def _consistent(
    formulas: Iterable[Formula], logic: LogicId, budget: Optional[Budget]
) -> bool:
    query = conj(sorted_formulas(set(formulas)))
    result = _engine.sat(query, logic, budget)
    if isinstance(result, Satisfiable):
        return True
    if isinstance(result, Unsatisfiable):
        return False
    raise OracleUndecided(
        f"consistency of {pretty(query)} undecided: {result.reason}"
    )


def is_separable(
    T: Iterable[Formula],
    closure: SignedClosure,
    logic: LogicId,
    budget: Optional[Budget] = None,
):
    """Separable(witness) or Inseparable(), deciding via joint consistency.

    The witness is the Craig interpolant of /\\T1 -> ~/\\T2; it uses only
    atoms shared by both closure sides.
    """
    t1, t2 = _sides(T, closure)
    if _consistent(t1 | t2, logic, budget):
        return Inseparable()
    result = _engine.find_interpolant(
        conj(sorted_formulas(t1)), Not(conj(sorted_formulas(t2))), logic, budget
    )
    if isinstance(result, _engine.Interpolant):
        return Separable(result.formula)
    raise OracleUndecided(
        "the set is separable but the witness search ran out of budget"
    )


def _class_polarity(
    sigma: frozenset[Formula], anchor: Formula
) -> tuple[frozenset[Formula], frozenset[Formula]]:
    """Members of sigma in the anchor's modality class and in its negation's."""
    key = modality_key(anchor)
    neg_key = modality_key(Not(anchor))
    pos = frozenset(f for f in sigma if modality_key(f) == key)
    neg = frozenset(f for f in sigma if modality_key(f) == neg_key)
    return pos, neg


def extend_to_maximal(
    T: Iterable[Formula],
    closure: SignedClosure,
    logic: LogicId,
    budget: Optional[Budget] = None,
) -> MaximalSet:
    """Lindenbaum-style extension: walk each side in canonical order, add
    the formula if the set stays inseparable, otherwise its negation
    representative (which then must keep the set inseparable)."""
    t1, t2 = _sides(T, closure)
    if not _consistent(t1 | t2, logic, budget):
        result = is_separable(t1 | t2, closure, logic, budget)
        witness = result.witness if isinstance(result, Separable) else None
        raise SeparableError(witness)
    sides = {1: set(t1), 2: set(t2)}
    for index in (1, 2):
        sigma = closure.side(index)
        chosen = sides[index]
        for anchor, neg_anchor in iter_negation_pairs(sigma):
            pos, neg = _class_polarity(sigma, anchor)
            decided_pos = chosen & pos
            decided_neg = chosen & neg
            if decided_pos:
                chosen |= pos
                continue
            if decided_neg:
                chosen |= neg
                continue
            other = sides[2 if index == 1 else 1]
            if _consistent(chosen | other | pos, logic, budget):
                chosen |= pos
            elif _consistent(chosen | other | neg, logic, budget):
                chosen |= neg
            else:
                raise SeparableError(None)
    return MaximalSet(frozenset(sides[1]), frozenset(sides[2]))


# ---------------------------------------------------------------------------
# The canonical model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SmorynskiModel:
    model: PreorderModel = field(hash=False)
    worlds: Mapping[str, MaximalSet] = field(hash=False)
    closure: SignedClosure = field(hash=False)
    logic: LogicId = LogicId("Int", float("inf"), float("inf"))

    def to_json_dict(self) -> dict:
        """Kripke JSON; each world is named by its sorted member list."""
        return model_to_dict(self.model)


def _maximal_sets_from_types(
    closure: SignedClosure, logic: LogicId, budget: Budget
) -> tuple[list[Formula], list[tuple[str, int, MaximalSet]]]:
    """The type space's letters and the maximal inseparable sets as
    (label, surviving type assignment, set) triples, in label order. Sigma
    holds every letter, so distinct types give distinct sets.

    For the (w,w) logics the base-logic elimination is exactly the
    consistency oracle; for bounded logics each surviving type is re-checked
    with the full engine and the construction aborts on any Unknown.
    """
    space = _engine.TypeSpace(sorted_formulas(closure.sigma), budget)
    survivors = set()
    for alive, _ in _engine.base_models(space, logic.confluent):
        survivors.update(alive)
    out = []
    for i in sorted(survivors):
        t1 = frozenset(f for f in closure.sigma1 if space.holds(f, i))
        t2 = frozenset(f for f in closure.sigma2 if space.holds(f, i))
        ms = MaximalSet(t1, t2)
        out.append((ms.label(), i, ms))
    out.sort()  # by label; distinct types break a tie
    if not logic.unbounded:
        out = [triple for triple in out if _consistent(triple[2].members, logic, budget)]
    return space.letters, out


def build_smorynski_model(
    closure: SignedClosure,
    logic: LogicId,
    budget: Optional[Budget] = None,
) -> SmorynskiModel:
    """Build the canonical model over all maximal inseparable sets.

    Each world's id is its label, the sorted list of its members. The model
    is built once the type space (and its 2^k-bit masks) is gone.
    """
    budget = budget or Budget()
    letters, maximal = _maximal_sets_from_types(closure, logic, budget)
    if not maximal:
        raise OracleUndecided("no maximal inseparable sets; is the logic consistent?")
    model = _engine.types_to_model(letters, {i: label for label, i, _ in maximal})
    return SmorynskiModel(model, {label: ms for label, _, ms in maximal}, closure, logic)


def truth_lemma_violations(sm: SmorynskiModel) -> list[tuple[str, Formula]]:
    """(world, formula) pairs where membership and satisfaction disagree."""
    out = []
    for f in sorted_formulas(sm.closure.sigma):
        extension = model_check(sm.model, f)
        for wid, ms in sorted(sm.worlds.items()):
            if (wid in extension) != (f in ms.members):
                out.append((wid, f))
    return out
