"""Modal formula ASTs, parsing, printing, and closure operators.

Formulas are immutable trees over atoms, the constants false/true, negation,
conjunction, disjunction, implication, biconditional, box and diamond.
Diamond, implication and biconditional are kept as distinct nodes for
readability; every semantic construction sees them through ``to_core``, which
rewrites <>f as ~[]~f and ->/<-> as their boolean expansions.

The closure operators here (subformula closure, boolean closure with one
canonical representative per truth table, chi closure, box/negation closure
with modality normalization) are the raw material for the model
constructions in the rest of the package.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Optional, Sequence

# Bound of the per-formula caches; a pass of the decide benchmark fills at
# most about 5,400 entries of any of them.
_CACHE_SIZE = 1 << 15


class FormulaError(ValueError):
    """Raised for malformed formula-level requests (arity, naming, caps)."""


class ClosureCapExceeded(FormulaError):
    """A closure would exceed its configured representative cap."""


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

class Formula:
    """Base class for formula nodes. Instances are immutable and hashable."""

    __slots__ = ()

    def __and__(self, other: "Formula") -> "Formula":
        return And(self, other)

    def __or__(self, other: "Formula") -> "Formula":
        return Or(self, other)

    def __invert__(self) -> "Formula":
        return Not(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({pretty(self)!r})"

    def __str__(self) -> str:
        return pretty(self)


@dataclass(frozen=True, repr=False)
class Atom(Formula):
    name: str

    def __post_init__(self) -> None:
        if not _ATOM_RE.fullmatch(self.name):
            raise FormulaError(f"bad atom name {self.name!r}")


@dataclass(frozen=True, repr=False)
class Bottom(Formula):
    pass


@dataclass(frozen=True, repr=False)
class Top(Formula):
    pass


@dataclass(frozen=True, repr=False)
class Not(Formula):
    sub: Formula


@dataclass(frozen=True, repr=False)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, repr=False)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, repr=False)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, repr=False)
class Iff(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, repr=False)
class Box(Formula):
    sub: Formula


@dataclass(frozen=True, repr=False)
class Diamond(Formula):
    sub: Formula


_ATOM_RE = re.compile(r"[a-z][a-z0-9_]*")


def _install_cached_hash(cls, tag: int):
    """Cache each node's hash on first use, with the class's tag folded in.

    The hash that ``dataclass`` generates covers the fields only, so ~x,
    []x and <>x would share one hash, as would the four binary connectives
    of one pair, TRUE and FALSE, and every tower of unary connectives of one
    depth over one atom. Every formula-keyed dict, set and cache would then
    walk long chains of equal hashes, each step a Python-level ``__eq__``.
    The tag is a fixed int, so equal formulas still hash equal and no hash
    depends on object identity."""
    generated = cls.__hash__

    def cached(self, _generated=generated, _tag=tag):
        d = self.__dict__
        h = d.get("_hash_cache")
        if h is None:
            h = hash((_tag, _generated(self)))
            object.__setattr__(self, "_hash_cache", h)
        return h

    cls.__hash__ = cached


for _tag, _cls in enumerate((Atom, Bottom, Top, Not, And, Or, Implies, Iff, Box, Diamond)):
    _install_cached_hash(_cls, _tag)


FALSE = Bottom()
TRUE = Top()

_BINARY = (And, Or, Implies, Iff)
_UNARY = (Not, Box, Diamond)


def conj(items: Sequence[Formula]) -> Formula:
    """Left-associated conjunction; TRUE for the empty sequence."""
    if not items:
        return TRUE
    out = items[0]
    for f in items[1:]:
        out = And(out, f)
    return out


def disj(items: Sequence[Formula]) -> Formula:
    """Left-associated disjunction; FALSE for the empty sequence."""
    if not items:
        return FALSE
    out = items[0]
    for f in items[1:]:
        out = Or(out, f)
    return out


def children(f: Formula) -> tuple[Formula, ...]:
    if isinstance(f, _UNARY):
        return (f.sub,)
    if isinstance(f, _BINARY):
        return (f.left, f.right)
    return ()


def atoms(f: Formula) -> frozenset[str]:
    out: set[str] = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, Atom):
            out.add(g.name)
        else:
            stack.extend(children(g))
    return frozenset(out)


@lru_cache(maxsize=_CACHE_SIZE)
def node_count(f: Formula) -> int:
    return 1 + sum(node_count(c) for c in children(f))


@lru_cache(maxsize=_CACHE_SIZE)
def modal_depth(f: Formula) -> int:
    inner = max((modal_depth(c) for c in children(f)), default=0)
    if isinstance(f, (Box, Diamond)):
        return inner + 1
    return inner


def sort_key(f: Formula) -> tuple[int, int, str]:
    """Canonical total order: (modal depth, size, printed form)."""
    return (modal_depth(f), node_count(f), pretty(f))


def sorted_formulas(fs: Iterable[Formula]) -> list[Formula]:
    return sorted(fs, key=sort_key)


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

# Precedence levels, tightest binding last when printing.
_PREC_IFF, _PREC_IMPLIES, _PREC_OR, _PREC_AND, _PREC_UNARY, _PREC_ATOM = range(1, 7)


def _prec(f: Formula) -> int:
    if isinstance(f, Iff):
        return _PREC_IFF
    if isinstance(f, Implies):
        return _PREC_IMPLIES
    if isinstance(f, Or):
        return _PREC_OR
    if isinstance(f, And):
        return _PREC_AND
    if isinstance(f, _UNARY):
        return _PREC_UNARY
    return _PREC_ATOM


@lru_cache(maxsize=_CACHE_SIZE)
def pretty(f: Formula) -> str:
    """Canonical ASCII rendering with minimal parentheses.

    & and | are printed left-associated, -> and <-> right-associated;
    parse(pretty(f)) is structurally f.
    """
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Bottom):
        return "false"
    if isinstance(f, Top):
        return "true"
    if isinstance(f, Not):
        return "~" + _wrap(f.sub, _PREC_UNARY)
    if isinstance(f, Box):
        return "[]" + _wrap(f.sub, _PREC_UNARY)
    if isinstance(f, Diamond):
        return "<>" + _wrap(f.sub, _PREC_UNARY)
    if isinstance(f, And):
        return _wrap(f.left, _PREC_AND) + " & " + _wrap(f.right, _PREC_AND + 1)
    if isinstance(f, Or):
        return _wrap(f.left, _PREC_OR) + " | " + _wrap(f.right, _PREC_OR + 1)
    if isinstance(f, Implies):
        return _wrap(f.left, _PREC_IMPLIES + 1) + " -> " + _wrap(f.right, _PREC_IMPLIES)
    if isinstance(f, Iff):
        return _wrap(f.left, _PREC_IFF + 1) + " <-> " + _wrap(f.right, _PREC_IFF)
    raise FormulaError(f"unknown node {f!r}")


def _wrap(f: Formula, need: int) -> str:
    s = pretty(f)
    if _prec(f) < need:
        return "(" + s + ")"
    return s


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

class ParseError(FormulaError):
    def __init__(self, message: str, position: int, expected: Sequence[str]):
        super().__init__(f"{message} at position {position} (expected: {', '.join(expected)})")
        self.position = position
        self.expected = tuple(expected)


_ALIASES = {
    "¬": "~",      # negation sign
    "□": "[]",     # white square
    "◇": "<>",     # white diamond
    "◊": "<>",     # lozenge
    "∧": "&",
    "∨": "|",
    "→": "->",
    "↔": "<->",
    "⊥": "false",
    "⊤": "true",
}

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<lparen>\()|(?P<rparen>\))|(?P<iff><->)|(?P<implies>->)"
    r"|(?P<and>&)|(?P<or>\|)|(?P<not>~)|(?P<box>\[\])|(?P<diamond><>)"
    r"|(?P<ident>[a-z][a-z0-9_]*))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    for alias, ascii_form in _ALIASES.items():
        text = text.replace(alias, ascii_form)
    tokens: list[tuple[str, str, int]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise ParseError(f"unexpected character {rest[0]!r}", pos, ["a formula token"])
        kind = m.lastgroup
        assert kind is not None
        value = m.group(kind)
        start = m.start(kind)
        if kind == "ident" and value in ("true", "false"):
            kind = value
        tokens.append((kind, value, start))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, expected: Sequence[str]) -> tuple[str, str, int]:
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(f"unexpected {tok[1] or 'end of input'!r}", tok[2], expected)
        return self.take()

    def formula(self) -> Formula:
        return self.iff()

    def iff(self) -> Formula:
        left = self.implies()
        if self.peek()[0] == "iff":
            self.take()
            return Iff(left, self.iff())
        return left

    def implies(self) -> Formula:
        left = self.disjunction()
        if self.peek()[0] == "implies":
            self.take()
            return Implies(left, self.implies())
        return left

    def disjunction(self) -> Formula:
        out = self.conjunction()
        while self.peek()[0] == "or":
            self.take()
            out = Or(out, self.conjunction())
        return out

    def conjunction(self) -> Formula:
        out = self.unary()
        while self.peek()[0] == "and":
            self.take()
            out = And(out, self.unary())
        return out

    def unary(self) -> Formula:
        kind, _, _ = self.peek()
        if kind == "not":
            self.take()
            return Not(self.unary())
        if kind == "box":
            self.take()
            return Box(self.unary())
        if kind == "diamond":
            self.take()
            return Diamond(self.unary())
        return self.primary()

    def primary(self) -> Formula:
        kind, value, pos = self.peek()
        if kind == "ident":
            self.take()
            return Atom(value)
        if kind == "true":
            self.take()
            return TRUE
        if kind == "false":
            self.take()
            return FALSE
        if kind == "lparen":
            self.take()
            inner = self.formula()
            self.expect("rparen", [")"])
            return inner
        raise ParseError(
            f"unexpected {value or 'end of input'!r}", pos,
            ["atom", "true", "false", "~", "[]", "<>", "("],
        )


def parse(text: str) -> Formula:
    """Parse a formula in the ASCII grammar (UTF-8 connectives accepted)."""
    parser = _Parser(_tokenize(text))
    out = parser.formula()
    parser.expect("eof", ["end of input"])
    return out


# ---------------------------------------------------------------------------
# Core normal form
# ---------------------------------------------------------------------------

@lru_cache(maxsize=_CACHE_SIZE)
def to_core(f: Formula) -> Formula:
    """Rewrite into the core connectives {false,true,~,&,|,[]}.

    <>g becomes ~[]~g, g -> h becomes ~g | h, and g <-> h the conjunction of
    both implications. The result is what all closure and model machinery
    operates on, so boxed subformulas are syntactically visible.
    """
    if isinstance(f, (Atom, Bottom, Top)):
        return f
    if isinstance(f, Not):
        return Not(to_core(f.sub))
    if isinstance(f, Box):
        return Box(to_core(f.sub))
    if isinstance(f, Diamond):
        return Not(Box(Not(to_core(f.sub))))
    if isinstance(f, And):
        return And(to_core(f.left), to_core(f.right))
    if isinstance(f, Or):
        return Or(to_core(f.left), to_core(f.right))
    if isinstance(f, Implies):
        return Or(Not(to_core(f.left)), to_core(f.right))
    if isinstance(f, Iff):
        a, b = to_core(f.left), to_core(f.right)
        return And(Or(Not(a), b), Or(Not(b), a))
    raise FormulaError(f"unknown node {f!r}")


# ---------------------------------------------------------------------------
# Subformula closure
# ---------------------------------------------------------------------------

def subformula_closure(formulas: Iterable[Formula]) -> frozenset[Formula]:
    """Smallest superset of the input closed under direct subformulas."""
    seen: set[Formula] = set()
    stack = list(formulas)
    while stack:
        f = stack.pop()
        if f in seen:
            continue
        seen.add(f)
        stack.extend(children(f))
    return frozenset(seen)


# ---------------------------------------------------------------------------
# Modality normalization (the 14 S4 modalities)
# ---------------------------------------------------------------------------

# Internal alphabet: 'N' for ~, 'B' for [].
_REWRITES = (
    ("NN", ""),
    ("BB", "B"),
    # S4 collapses of long alternations: <>[]<>[] = <>[] and [](~...)
    ("NBNBNBNB", "NBNB"),
    ("BNBNBNB", "BNB"),
)


def _reduce_prefix(word: str) -> str:
    changed = True
    while changed:
        changed = False
        for pat, rep in _REWRITES:
            idx = word.find(pat)
            if idx >= 0:
                word = word[:idx] + rep + word[idx + len(pat):]
                changed = True
                break
    return word


def _prefix_to_word(prefix: str) -> str:
    tokens: list[str] = []
    i = 0
    while i < len(prefix):
        ch = prefix[i]
        if ch in "~¬":
            tokens.append("N")
            i += 1
        elif prefix.startswith("[]", i):
            tokens.append("B")
            i += 2
        elif ch == "□":
            tokens.append("B")
            i += 1
        elif ch.isspace():
            i += 1
        else:
            raise FormulaError(f"bad modality character {ch!r}")
    return "".join(tokens)


def _word_to_prefix(word: str) -> str:
    return "".join("~" if ch == "N" else "[]" for ch in word)


def normalize_modality(prefix: str) -> str:
    """Canonical form of a ~/[] prefix under S4 equivalence.

    The result is one of exactly 14 strings; applying input and output to
    any formula yields S4-equivalent formulas.
    """
    return _word_to_prefix(_reduce_prefix(_prefix_to_word(prefix)))


def all_canonical_modalities() -> tuple[str, ...]:
    """The 14 canonical prefixes, in canonical (length, string) order."""
    words = set()
    for length in range(9):
        for combo in itertools.product("NB", repeat=length):
            words.add(_reduce_prefix("".join(combo)))
    return tuple(_word_to_prefix(w) for w in sorted(words, key=lambda w: (len(w), w)))


def apply_prefix(prefix: str, f: Formula) -> Formula:
    """Apply a ~/[] prefix string to a formula, outermost first."""
    word = _prefix_to_word(prefix)
    for ch in reversed(word):
        f = Not(f) if ch == "N" else Box(f)
    return f


def strip_prefix(f: Formula) -> tuple[str, Formula]:
    """Split into a ~/[] prefix word (diamonds read as ~[]~) and a core tail."""
    word: list[str] = []
    while True:
        if isinstance(f, Not):
            word.append("N")
            f = f.sub
        elif isinstance(f, Box):
            word.append("B")
            f = f.sub
        elif isinstance(f, Diamond):
            word.extend("NBN")
            f = f.sub
        else:
            return "".join(word), f


def modality_key(f: Formula) -> tuple[str, Formula]:
    """(canonical prefix word, core) identifying f up to S4 modality collapse."""
    word, core = strip_prefix(f)
    return _reduce_prefix(word), core


def negated_normalized(f: Formula) -> Formula:
    """The canonical representative of ~f after prefix normalization."""
    word, core = modality_key(Not(f))
    return apply_prefix(_word_to_prefix(word), core)


def box_negation_closure(formulas: Iterable[Formula]) -> frozenset[Formula]:
    """Close under f |-> ~f and f |-> []f up to modality normalization.

    New formulas are stored with their modal prefix in canonical form, so the
    closure is finite (at most 14 prefixes per core). The result is also
    subformula closed.
    """
    result = set(subformula_closure(formulas))
    keys = {modality_key(f) for f in result}
    queue = sorted_formulas(result)
    while queue:
        next_queue: list[Formula] = []
        for f in queue:
            for candidate in (Not(f), Box(f)):
                key = modality_key(candidate)
                if key in keys:
                    continue
                g = apply_prefix(_word_to_prefix(key[0]), key[1])
                for h in subformula_closure([g]):
                    if h not in result:
                        result.add(h)
                        keys.add(modality_key(h))
                        next_queue.append(h)
        queue = next_queue
    return frozenset(result)


# ---------------------------------------------------------------------------
# Boolean closure with canonical representatives
# ---------------------------------------------------------------------------

def closure_letters(closure: Iterable[Formula]) -> list[Formula]:
    """The modal atoms of a set: members that are atoms, boxes or diamonds."""
    return sorted_formulas(f for f in closure if isinstance(f, (Atom, Box, Diamond)))


def representative(table: int, letters: Sequence[Formula]) -> Formula:
    """Canonical formula for a truth table over the letters.

    Constants map to false/true, a single (possibly negated) letter maps to
    itself, everything else to a sorted full DNF over the letters the
    function actually depends on.
    """
    k = len(letters)
    support = []
    for j in range(k):
        for i in range(1 << k):
            if not i >> j & 1 and (table >> i & 1) != (table >> (i | 1 << j) & 1):
                support.append(j)
                break
    sub_letters = [letters[j] for j in support]
    rows = []
    for bits in range(1 << len(support)):
        full_assignment = 0
        for pos, j in enumerate(support):
            if bits >> pos & 1:
                full_assignment |= 1 << j
        if table >> full_assignment & 1:
            rows.append(bits)
    if not rows:
        return FALSE
    if len(rows) == 1 << len(support):
        return TRUE
    if len(sub_letters) == 1:
        return sub_letters[0] if rows == [1] else Not(sub_letters[0])
    minterms = []
    for bits in sorted(rows):
        literals = [
            letter if bits >> pos & 1 else Not(letter)
            for pos, letter in enumerate(sub_letters)
        ]
        minterms.append(conj(literals))
    return disj(minterms)


def boolean_subformula_closure(
    formulas: Iterable[Formula],
    max_representatives: int = 1 << 16,
) -> frozenset[Formula]:
    """One representative per boolean function of the subformula closure's
    modal atoms, treated as opaque letters.

    Raises ClosureCapExceeded when 2^(2^k) would exceed the configured cap.
    """
    closure = subformula_closure(formulas)
    letters = closure_letters(closure)
    k = len(letters)
    if k > 5 or (1 << (1 << k)) > max_representatives:
        raise ClosureCapExceeded(
            f"boolean closure over {k} letters needs 2^(2^{k}) representatives "
            f"(cap {max_representatives})"
        )
    return frozenset(representative(t, letters) for t in range(1 << (1 << k)))


# ---------------------------------------------------------------------------
# Signed closures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SignedClosure:
    """A pair of formula sets with the closure properties the Smorynski
    construction needs: subformula closed, and closed under single ~ and []
    applications up to modality normalization.

    Members are core formulas (diamonds and arrows expanded).
    """

    sigma1: frozenset[Formula]
    sigma2: frozenset[Formula]

    @classmethod
    def from_seeds(
        cls,
        seeds1: Iterable[Formula],
        seeds2: Iterable[Formula],
    ) -> "SignedClosure":
        s1 = box_negation_closure(to_core(f) for f in seeds1)
        s2 = box_negation_closure(to_core(f) for f in seeds2)
        return cls(s1, s2)

    @property
    def sigma(self) -> frozenset[Formula]:
        return self.sigma1 | self.sigma2

    def side(self, i: int) -> frozenset[Formula]:
        if i == 1:
            return self.sigma1
        if i == 2:
            return self.sigma2
        raise FormulaError(f"side must be 1 or 2, got {i}")

    def validate(self) -> None:
        for sigma in (self.sigma1, self.sigma2):
            if subformula_closure(sigma) != sigma:
                raise FormulaError("closure side is not subformula closed")
            keys = {modality_key(f) for f in sigma}
            for f in sigma:
                if modality_key(Not(f)) not in keys or modality_key(Box(f)) not in keys:
                    raise FormulaError(
                        f"closure side is not ~/[]-closed at {pretty(f)}"
                    )


def member_with_key(
    closure: Iterable[Formula], key: tuple[str, Formula]
) -> Optional[Formula]:
    """Canonical-least member with the given modality key, if any."""
    hits = [f for f in closure if modality_key(f) == key]
    return min(hits, key=sort_key) if hits else None


def iter_negation_pairs(sigma: Iterable[Formula]) -> Iterator[tuple[Formula, Formula]]:
    """Yield (f, g) with g the member acting as ~f, one pair per key class."""
    members = sorted_formulas(sigma)
    done: set[tuple[str, Formula]] = set()
    for f in members:
        key = modality_key(f)
        if key in done:
            continue
        neg_key = modality_key(Not(f))
        partner = member_with_key(members, neg_key)
        if partner is None:
            partner = negated_normalized(f)
        done.add(key)
        done.add(neg_key)
        yield f, partner
