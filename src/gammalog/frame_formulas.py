"""Fine frame formulas, cluster frames, substitution, relative satisfaction.

For a finite rooted preorder G on points 0..n-1 the frame formula is the
negation of the conjunction of

  (i)   p0
  (ii)  [](p0 | ... | p_{n-1})
  (iii) [](pi -> ~pj)        for i != j
  (iv)  [](pi -> <>pj)       for i <= j in G
  (v)   [](pi -> ~<>pj)      for i not<= j in G

with atoms named p0..p_{n-1} and conjuncts emitted in exactly this order,
index-lexicographically within each group, so the output is byte-stable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from . import kripke
from .syntax import (
    And, Atom, Box, Diamond, Formula, FormulaError, Iff, Implies, Not, Or,
    Top, atoms, conj, disj, sorted_formulas,
)

OMEGA = float("inf")
"""Sentinel for the unbounded cluster-size parameter."""


class ResourceCapExceeded(RuntimeError):
    """An exhaustive substitution enumeration exceeded its explicit cap."""


# ---------------------------------------------------------------------------
# Rooted frames
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RootedFrame:
    """A finite preorder on points 0..size-1 with 0 a root."""

    size: int
    rel: frozenset[tuple[int, int]]

    def __post_init__(self):
        kripke.frame_shape(self)

    def as_model(self, valuation=None) -> kripke.PreorderModel:
        worlds = [f"g{i}" for i in range(self.size)]
        order = {(f"g{a}", f"g{b}") for a, b in self.rel}
        return kripke.PreorderModel(worlds, order, valuation or {})

    def natural_model(self) -> kripke.PreorderModel:
        """The model on this frame where pi is true exactly at point i."""
        return self.as_model({f"p{i}": [f"g{i}"] for i in range(self.size)})


def cluster_frame(n: int, topped: bool) -> RootedFrame:
    """The n-cluster C_n, or C_n^T with one reflexive point n on top."""
    if n < 1:
        raise FormulaError(f"cluster frames need n >= 1, got {n}")
    rel = {(i, j) for i in range(n) for j in range(n)}
    if topped:
        rel |= {(i, n) for i in range(n + 1)}
        return RootedFrame(n + 1, frozenset(rel))
    return RootedFrame(n, frozenset(rel))


# ---------------------------------------------------------------------------
# Frame formulas
# ---------------------------------------------------------------------------

def frame_formula(frame: RootedFrame) -> Formula:
    n = frame.size
    ps = [Atom(f"p{i}") for i in range(n)]
    items: list[Formula] = [ps[0], Box(disj(ps))]
    for i, j in itertools.product(range(n), repeat=2):
        if i != j:
            items.append(Box(Implies(ps[i], Not(ps[j]))))
    for i, j in itertools.product(range(n), repeat=2):
        if (i, j) in frame.rel:
            items.append(Box(Implies(ps[i], Diamond(ps[j]))))
    for i, j in itertools.product(range(n), repeat=2):
        if (i, j) not in frame.rel:
            items.append(Box(Implies(ps[i], Not(Diamond(ps[j])))))
    return Not(conj(items))


def gamma(n, topped: bool) -> Formula:
    """The cluster-bounding axioms: the frame formula of the (n+1)-cluster
    (topped or not), and simply true for n = OMEGA."""
    if n == OMEGA:
        return Top()
    n = int(n)
    if n < 0:
        raise FormulaError(f"gamma needs n >= 0 or OMEGA, got {n}")
    return frame_formula(cluster_frame(n + 1, topped))


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------

def substitution_arity(chi: Formula) -> int:
    """Number of substitution slots: largest k with atom p{k-1} present."""
    best = 0
    for name in atoms(chi):
        if name.startswith("p") and name[1:].isdigit():
            best = max(best, int(name[1:]) + 1)
    return best


def substitute(chi: Formula, args: Sequence[Formula]) -> Formula:
    """Simultaneous substitution of args[i] for atom p{i}."""
    arity = substitution_arity(chi)
    if len(args) < arity:
        raise FormulaError(f"chi mentions p{arity - 1} but only {len(args)} arguments given")
    mapping = {f"p{i}": arg for i, arg in enumerate(args)}
    return substitute_map(chi, mapping)


def substitute_map(f: Formula, mapping: dict[str, Formula]) -> Formula:
    if isinstance(f, Atom):
        return mapping.get(f.name, f)
    if isinstance(f, Not):
        return Not(substitute_map(f.sub, mapping))
    if isinstance(f, Box):
        return Box(substitute_map(f.sub, mapping))
    if isinstance(f, Diamond):
        return Diamond(substitute_map(f.sub, mapping))
    if isinstance(f, (And, Or, Implies, Iff)):
        ctor = type(f)
        return ctor(substitute_map(f.left, mapping), substitute_map(f.right, mapping))
    return f


# ---------------------------------------------------------------------------
# Relative satisfaction
# ---------------------------------------------------------------------------

def relative_satisfaction_witness(
    model: kripke.PreorderModel,
    cluster: frozenset[str],
    chi: Formula,
    sigma: Iterable[Formula],
    max_tuples: int = 1 << 20,
) -> Optional[tuple[Formula, ...]]:
    """First argument tuple (canonical order) whose substitution instance
    fails somewhere on the cluster; None when the cluster satisfies chi
    relative to sigma.

    Truth is compositional, so [[chi[args]]] is [[chi]] with each p_i
    revalued to [[args_i]]; every other atom of chi keeps its extension in
    the model, and cluster worlds outside the model lie in no extension.
    Each distinct tuple of extensions is one valuation of
    ``kripke.eval_valuations``, in product order, reported as the first
    argument tuple that has it.
    """
    arity = substitution_arity(chi)
    pool = sorted_formulas(set(sigma))
    if pool and len(pool) ** arity > max_tuples:
        raise ResourceCapExceeded(
            f"relative satisfaction needs {len(pool)}^{arity} tuples (cap {max_tuples})"
        )
    index = {w: i for i, w in enumerate(model.worlds)}
    need = sum(1 << index.get(w, len(index)) for w in set(cluster))
    first: dict[int, Formula] = {}
    for f in pool:
        first.setdefault(sum(1 << index[w] for w in kripke.model_check(model, f)), f)
    slots = [f"p{i}" for i in range(arity)]
    kept = {
        name: sum(1 << index[w] for w in model.valuation.get(name, ()))
        for name in atoms(chi) - set(slots)
    }
    tuples, ahead = itertools.tee(itertools.product(first, repeat=arity))
    valuations = ({**kept, **dict(zip(slots, exts))} for exts in ahead)
    for exts, holds in zip(tuples, kripke.eval_valuations(model, chi, valuations)):
        if need & ~holds:
            return tuple(first[ext] for ext in exts)
    return None


def satisfies_relative(
    model: kripke.PreorderModel,
    cluster: frozenset[str],
    chi: Formula,
    sigma: Iterable[Formula],
    max_tuples: int = 1 << 20,
) -> bool:
    """True iff the cluster lies inside [[chi[args]]] for every argument
    tuple drawn from sigma."""
    return relative_satisfaction_witness(model, cluster, chi, sigma, max_tuples) is None


# ---------------------------------------------------------------------------
# Pattern instances (the substituted frame formulas of the pattern lemmata)
# ---------------------------------------------------------------------------

_PATTERN_KINDS = ("final2", "nonfinal2", "final3", "nonfinal3")


def pattern_instance(kind: str, phi: Formula, psi: Optional[Formula] = None) -> Formula:
    """The exact substituted cluster formula used to refute oversized
    clusters exhibiting the given sign pattern."""
    if kind not in _PATTERN_KINDS:
        raise FormulaError(f"kind must be one of {_PATTERN_KINDS}, got {kind!r}")
    needs_psi = kind in ("final3", "nonfinal3")
    if needs_psi and psi is None:
        raise FormulaError(f"{kind} needs a second formula")
    if not needs_psi and psi is not None:
        raise FormulaError(f"{kind} takes a single formula")
    nb = Not(Box(phi))
    if kind == "final2":
        return substitute(gamma(1, False), [phi, Not(phi)])
    if kind == "nonfinal2":
        return substitute(gamma(1, True), [And(nb, phi), And(nb, Not(phi)), Box(phi)])
    assert psi is not None
    if kind == "final3":
        return substitute(gamma(2, False), [And(phi, psi), And(Not(phi), psi), Not(psi)])
    return substitute(
        gamma(2, True),
        [And(And(nb, phi), psi), And(And(nb, Not(phi)), psi), And(nb, Not(psi)), Box(phi)],
    )
