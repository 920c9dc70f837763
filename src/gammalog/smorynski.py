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
underlying frame is confluent. The maximal sets are read off the surviving
types of one elimination. The Lindenbaum extension of a single set, one
consistency query per modality class, is kept as a test reference.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

from . import engine as _engine
from .engine import Budget, LogicId, Satisfiable, Unsatisfiable
from .kripke import PreorderModel, model_check, model_to_dict, select
from .syntax import Formula, SignedClosure, conj, pretty, sorted_formulas


class OracleUndecided(RuntimeError):
    """The consistency oracle ran out of budget; construction aborts loudly."""


@dataclass(frozen=True)
class MaximalSet:
    """A maximal inseparable subset, split by closure side."""

    t1: frozenset[Formula]
    t2: frozenset[Formula]

    @property
    def members(self) -> frozenset[Formula]:
        return self.t1 | self.t2

    def label(self) -> str:
        return _label(pretty(f) for f in sorted_formulas(self.members))


def _label(names: Iterable[str]) -> str:
    return "{" + ", ".join(names) + "}"


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
    holds every letter, so distinct types give distinct sets. Sigma is
    sorted once, so filtering it by a type's bit gives the type's members in
    ``sort_key`` order, and the label joins their printed forms.

    For the (w,w) logics the base-logic elimination is exactly the
    consistency oracle; for bounded logics each surviving type is re-checked
    with the full engine and the construction aborts on any Unknown.
    """
    sigma = sorted_formulas(closure.sigma)
    space = _engine.TypeSpace(sigma, budget)
    survivors = 0
    for alive, _ in _engine.base_models(space, logic.confluent):
        survivors |= alive
    table = [(f, pretty(f), space.bits(f)) for f in sigma]
    out = []
    for i in select(itertools.count(), survivors):
        held = [(f, name) for f, name, view in table if view[i >> 3] >> (i & 7) & 1]
        members = frozenset(f for f, _ in held)
        ms = MaximalSet(members & closure.sigma1, members & closure.sigma2)
        out.append((_label(name for _, name in held), i, ms))
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
