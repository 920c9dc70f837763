"""Independent output checker for the benchmark.

Nothing here imports gammalog: formulas are parsed by a small parser of
their own, models are evaluated by a bit-parallel Kripke evaluator of their
own, and frame classes are tested from cluster sizes and confluence. The
benchmark runs these checks after the timed region, in its own process, so
they never warm a cache of the program under test.

Formulas are tuples: ("atom", name), ("top",), ("bot",), ("not", a),
("box", a), ("dia", a), and ("and" | "or" | "imp" | "iff", a, b).
"""

from __future__ import annotations

import itertools
import re
from functools import lru_cache

# ---------------------------------------------------------------------------
# Formulas
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(<->|->|\[\]|<>|[~&|()]|[a-z][a-z0-9_]*)")


def parse(text: str) -> tuple:
    """Parse the ASCII grammar: ~ [] <> bind tightest, then &, |, -> (right
    associative) and <-> (right associative)."""
    tokens, pos = [], 0
    text = text.strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"bad formula text at {pos}: {text!r}")
        tokens.append(m.group(1))
        pos = m.end()
    at = 0

    def peek():
        return tokens[at] if at < len(tokens) else None

    def take(expected=None):
        nonlocal at
        tok = peek()
        if tok is None or (expected is not None and tok != expected):
            raise ValueError(f"expected {expected!r}, got {tok!r} in {text!r}")
        at += 1
        return tok

    def right_assoc(op, tag, lower):
        left = lower()
        if peek() == op:
            take()
            return (tag, left, right_assoc(op, tag, lower))
        return left

    def left_assoc(op, tag, lower):
        out = lower()
        while peek() == op:
            take()
            out = (tag, out, lower())
        return out

    def iff():
        return right_assoc("<->", "iff", imp)

    def imp():
        return right_assoc("->", "imp", lambda: left_assoc("|", "or", conj))

    def conj():
        return left_assoc("&", "and", unary)

    def unary():
        tok = take()
        if tok == "~":
            return ("not", unary())
        if tok == "[]":
            return ("box", unary())
        if tok == "<>":
            return ("dia", unary())
        if tok == "(":
            inner = iff()
            take(")")
            return inner
        if tok == "true":
            return ("top",)
        if tok == "false":
            return ("bot",)
        if tok[0].isalpha():
            return ("atom", tok)
        raise ValueError(f"unexpected {tok!r} in {text!r}")

    out = iff()
    if peek() is not None:
        raise ValueError(f"trailing input {peek()!r} in {text!r}")
    return out


def atoms(f: tuple) -> frozenset:
    if f[0] == "atom":
        return frozenset([f[1]])
    return frozenset().union(*(atoms(g) for g in f[1:]))


def core(f: tuple) -> tuple:
    """The program's core connectives: <>a is ~[]~a, a -> b is ~a | b, and
    a <-> b is (~a | b) & (~b | a)."""
    tag = f[0]
    if tag in ("atom", "top", "bot"):
        return f
    if tag == "dia":
        return ("not", ("box", ("not", core(f[1]))))
    if tag == "imp":
        return ("or", ("not", core(f[1])), core(f[2]))
    if tag == "iff":
        a, b = core(f[1]), core(f[2])
        return ("and", ("or", ("not", a), b), ("or", ("not", b), a))
    return (tag,) + tuple(core(g) for g in f[1:])


def split_label(label: str) -> list[str]:
    """Member formulas of a canonical-model world label "{f, g, ...}"."""
    inner = label.strip()
    if not (inner.startswith("{") and inner.endswith("}")):
        raise ValueError(f"not a world label: {label!r}")
    inner = inner[1:-1].strip()
    return [part.strip() for part in inner.split(",")] if inner else []


# ---------------------------------------------------------------------------
# Frames and evaluation
# ---------------------------------------------------------------------------

class Frame:
    """k worlds, successor bitmasks, and nv valuations evaluated at once.

    A truth set is an integer with bit v*k + w set when the formula holds at
    world w under valuation v.
    """

    def __init__(self, succ: list[int], atom_sets: dict[str, int], nv: int = 1):
        self.k = len(succ)
        self.succ = succ
        self.nv = nv
        self.atom_sets = atom_sets
        self.full = (1 << (self.k * nv)) - 1
        # world_cols[w]: bit v*k + w for every valuation v
        col = sum(1 << (v * self.k) for v in range(nv))
        self.world_cols = [col << w for w in range(self.k)]

    def eval(self, f: tuple, memo: dict) -> int:
        hit = memo.get(f)
        if hit is not None:
            return hit
        tag = f[0]
        if tag == "atom":
            out = self.atom_sets.get(f[1], 0)
        elif tag == "top":
            out = self.full
        elif tag == "bot":
            out = 0
        elif tag == "not":
            out = self.full ^ self.eval(f[1], memo)
        elif tag == "and":
            out = self.eval(f[1], memo) & self.eval(f[2], memo)
        elif tag == "or":
            out = self.eval(f[1], memo) | self.eval(f[2], memo)
        elif tag == "imp":
            out = (self.full ^ self.eval(f[1], memo)) | self.eval(f[2], memo)
        elif tag == "iff":
            a, b = self.eval(f[1], memo), self.eval(f[2], memo)
            out = self.full ^ (a ^ b)
        elif tag in ("box", "dia"):
            sub = self.eval(f[1], memo)
            if tag == "dia":
                sub = self.full ^ sub
            out = self._box(sub)
            if tag == "dia":
                out = self.full ^ out
        else:
            raise ValueError(f"unknown node {f!r}")
        memo[f] = out
        return out

    def _box(self, sub: int) -> int:
        k, out = self.k, 0
        if self.nv == 1:
            for w in range(k):
                if self.succ[w] & ~sub == 0:
                    out |= 1 << w
            return out
        for w in range(k):
            here = self.world_cols[w]
            for v in range(k):
                if self.succ[w] >> v & 1:
                    here &= ((sub & self.world_cols[v]) >> v) << w
            out |= here
        return out


class Model:
    """A Kripke model read from the program's JSON model format."""

    def __init__(self, data: dict):
        self.worlds = list(data["worlds"])
        self.index = {w: i for i, w in enumerate(self.worlds)}
        if len(self.index) != len(self.worlds):
            raise ValueError("duplicate world names")
        succ = [0] * len(self.worlds)
        for a, b in data["order"]:
            succ[self.index[a]] |= 1 << self.index[b]
        if data.get("closure") == "auto":
            succ = reflexive_transitive(succ)
        self.succ = succ
        self.valuation = {
            atom: sum(1 << self.index[w] for w in ws)
            for atom, ws in data.get("valuation", {}).items()
        }
        self.frame = Frame(succ, self.valuation)
        self.memo: dict = {}

    def extension(self, f: tuple) -> int:
        return self.frame.eval(f, self.memo)

    def holds(self, world: str, f: tuple) -> bool:
        return bool(self.extension(f) >> self.index[world] & 1)

    def edges(self) -> set[tuple[str, str]]:
        return {
            (a, self.worlds[j])
            for i, a in enumerate(self.worlds)
            for j in range(len(self.worlds)) if self.succ[i] >> j & 1
        }


def reflexive_transitive(succ: list[int]) -> list[int]:
    out = [s | (1 << w) for w, s in enumerate(succ)]
    changed = True
    while changed:
        changed = False
        for w in range(len(out)):
            reach = out[w]
            for v in range(len(out)):
                if reach >> v & 1:
                    reach |= out[v]
            if reach != out[w]:
                out[w], changed = reach, True
    return out


def is_preorder(succ: list[int]) -> bool:
    return succ == reflexive_transitive(succ) and all(
        s >> w & 1 for w, s in enumerate(succ)
    )


def clusters(succ: list[int]) -> list[tuple[int, bool]]:
    """(member mask, is final) for each cluster of a preorder."""
    k, seen, out = len(succ), 0, []
    for w in range(k):
        if seen >> w & 1:
            continue
        members = sum(1 << v for v in range(k) if succ[w] >> v & 1 and succ[v] >> w & 1)
        seen |= members
        out.append((members, succ[w] & ~members == 0))
    return out


def is_confluent(succ: list[int]) -> bool:
    for s in succ:
        ups = [v for v in range(len(succ)) if s >> v & 1]
        for a, b in itertools.combinations(ups, 2):
            if not succ[a] & succ[b]:
                return False
    return True


# ---------------------------------------------------------------------------
# Logics and frame classes
# ---------------------------------------------------------------------------

INF = float("inf")
_ALIASES = {"S4": ("Int", INF, INF), "S4.2": ("KC", INF, INF), "Grz": ("Int", 1, 1)}
_LOGIC = re.compile(r"G\(\s*(Int|KC)\s*,\s*(1|2|w)\s*,\s*(1|2|w)\s*\)")


def logic(name: str) -> tuple[str, float, float]:
    """(base, m, n) for "G(Int|KC, m, n)" or an alias."""
    if name in _ALIASES:
        return _ALIASES[name]
    m = _LOGIC.fullmatch(name.strip())
    if not m:
        raise ValueError(f"unknown logic {name!r}")
    bound = {"1": 1, "2": 2, "w": INF}
    return m.group(1), bound[m.group(2)], bound[m.group(3)]


def in_class(succ: list[int], spec: tuple[str, float, float]) -> bool:
    """Finite preorder whose final clusters have <= m points, non-final
    clusters <= n points, and which is confluent for KC."""
    base, m, n = spec
    if not is_preorder(succ):
        return False
    for members, final in clusters(succ):
        if bin(members).count("1") > (m if final else n):
            return False
    return base == "Int" or is_confluent(succ)


@lru_cache(maxsize=None)
def small_preorders(k: int) -> tuple[tuple[int, ...], ...]:
    """Every preorder on range(k), as successor masks."""
    pairs = [(a, b) for a in range(k) for b in range(k) if a != b]
    out = set()
    for chosen in itertools.product((0, 1), repeat=len(pairs)):
        succ = [1 << w for w in range(k)]
        for bit, (a, b) in zip(chosen, pairs):
            if bit:
                succ[a] |= 1 << b
        if is_preorder(succ):
            out.add(tuple(succ))
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def _all_valuations(k: int, names: tuple[str, ...]) -> tuple[dict, int]:
    """Atom truth sets covering every valuation of names on k worlds."""
    nv = 1 << (k * len(names))
    sets = {}
    for i, name in enumerate(names):
        mask = 0
        for v in range(nv):
            bits = (v >> (i * k)) & ((1 << k) - 1)
            mask |= bits << (v * k)
        sets[name] = mask
    return sets, nv


@lru_cache(maxsize=None)
def refuting_frames(f: tuple, max_worlds: int) -> tuple[tuple[int, ...], ...]:
    """Frames of at most max_worlds worlds on which some valuation refutes f."""
    names = tuple(sorted(atoms(f)))
    out = []
    for k in range(1, max_worlds + 1):
        sets, nv = _all_valuations(k, names)
        for succ in small_preorders(k):
            frame = Frame(list(succ), sets, nv)
            if frame.eval(f, {}) != frame.full:
                out.append(succ)
    return tuple(out)


def class_refutes(f: tuple, spec: tuple, max_worlds: int) -> bool:
    return any(in_class(list(s), spec) for s in refuting_frames(f, max_worlds))


# ---------------------------------------------------------------------------
# Checks of CLI outputs; each returns a list of problems (empty when fine)
# ---------------------------------------------------------------------------

def check_countermodel(payload: dict, formula: str, logic_name: str) -> list[str]:
    """A refuting model: f fails at the world and the frame is in the class."""
    problems = []
    model = Model(payload["model"])
    if model.holds(payload["world"], parse(formula)):
        problems.append("countermodel does not refute the formula")
    if not in_class(model.succ, logic(logic_name)):
        problems.append("countermodel frame outside the logic's class")
    return problems


def check_interpolant(chi_text: str, premise: str, conclusion: str,
                      logic_name: str, max_worlds: int = 3) -> list[str]:
    """Shared vocabulary, and no class model of <= max_worlds worlds refuting
    premise -> chi or chi -> conclusion."""
    chi, f1, f2 = parse(chi_text), parse(premise), parse(conclusion)
    problems = []
    if not atoms(chi) <= atoms(f1) & atoms(f2):
        problems.append(f"interpolant {chi_text} leaves the shared vocabulary")
    spec = logic(logic_name)
    for side, imp in (("left", ("imp", f1, chi)), ("right", ("imp", chi, f2))):
        if class_refutes(imp, spec, max_worlds):
            problems.append(f"{side} implication refuted by a small class model")
    return problems


def check_refined(payload: dict, source: dict, sigma: list[str], m, n) -> list[str]:
    """Sigma extensions unchanged, cluster bounds met, edges removed only
    inside source clusters, and the refined order within the source order."""
    problems = []
    before, after = Model(source), Model(payload["model"])
    if before.worlds != after.worlds:
        return ["refined model has other worlds"]
    if not is_preorder(after.succ):
        problems.append("refined order is not a preorder")
    for text in sigma:
        f = parse(text)
        if before.extension(f) != after.extension(f):
            problems.append(f"extension of {text} changed")
            break
    for members, final in clusters(after.succ):
        if bin(members).count("1") > (m if final else n):
            problems.append("cluster bound not met")
            break
    old, new = before.edges(), after.edges()
    if not new <= old:
        problems.append("refined order has edges the source lacks")
    same_cluster = {}
    for members, _ in clusters(before.succ):
        for w in range(len(before.worlds)):
            if members >> w & 1:
                same_cluster[before.worlds[w]] = members
    for a, b in old - new:
        if same_cluster[a] != same_cluster[b]:
            problems.append("an edge between clusters was removed")
            break
    return problems


def check_canonical(payload: dict, logic_name: str, seeds: list[str]) -> list[str]:
    """Truth lemma read from the world labels, order equal to box-set
    inclusion, every seed decided at every world, and confluence for KC
    logics."""
    problems = []
    model = Model(payload)
    members = {w: [parse(t) for t in split_label(w)] for w in model.worlds}
    sigma = {f for fs in members.values() for f in fs}
    if any((f in fs) != model.holds(w, f) for f in sigma for w, fs in members.items()):
        problems.append("truth lemma fails")
    boxes = {w: frozenset(f for f in fs if f[0] == "box") for w, fs in members.items()}
    if any(bool(model.succ[model.index[a]] >> model.index[b] & 1) != (boxes[a] <= boxes[b])
           for a in model.worlds for b in model.worlds):
        problems.append("order differs from box-set inclusion")
    for seed in seeds:
        f = core(parse(seed))
        negation = f[1] if f[0] == "not" else ("not", f)
        if any(f not in fs and negation not in fs for fs in members.values()):
            problems.append(f"seed {seed} is undecided at some world")
    if logic(logic_name)[0] == "KC" and not is_confluent(model.succ):
        problems.append("KC canonical model is not confluent")
    return problems
