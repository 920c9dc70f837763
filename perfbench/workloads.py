"""The four workloads: their ops, expected answers and pass counts.

An op is {"id", "argv", "kind", ...expectation}. The seed only fixes the
op order; every seed runs the same ops, so runs with different seeds are
comparable.
"""

from __future__ import annotations

import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
INPUTS = os.path.join(HERE, "inputs")

LOGICS = [f"G({lam},{m},{n})" for lam in ("Int", "KC") for m in "12w" for n in "12w"]
INF = float("inf")


def _bounds(logic: str) -> tuple[str, float, float]:
    lam, m, n = logic[2:-1].split(",")
    value = {"1": 1, "2": 2, "w": INF}
    return lam, value[m], value[n]


# gamma(n, topped) as the program prints it. The text is fixed, so input
# construction never runs through the program under test.
_GAMMA = {
    (1, False): "~(p0 & [](p0 | p1) & [](p0 -> ~p1) & [](p1 -> ~p0) & [](p0 -> <>p0)"
                " & [](p0 -> <>p1) & [](p1 -> <>p0) & [](p1 -> <>p1))",
    (2, False): "~(p0 & [](p0 | p1 | p2) & [](p0 -> ~p1) & [](p0 -> ~p2) & [](p1 -> ~p0)"
                " & [](p1 -> ~p2) & [](p2 -> ~p0) & [](p2 -> ~p1) & [](p0 -> <>p0)"
                " & [](p0 -> <>p1) & [](p0 -> <>p2) & [](p1 -> <>p0) & [](p1 -> <>p1)"
                " & [](p1 -> <>p2) & [](p2 -> <>p0) & [](p2 -> <>p1) & [](p2 -> <>p2))",
    (1, True): "~(p0 & [](p0 | p1 | p2) & [](p0 -> ~p1) & [](p0 -> ~p2) & [](p1 -> ~p0)"
               " & [](p1 -> ~p2) & [](p2 -> ~p0) & [](p2 -> ~p1) & [](p0 -> <>p0)"
               " & [](p0 -> <>p1) & [](p0 -> <>p2) & [](p1 -> <>p0) & [](p1 -> <>p1)"
               " & [](p1 -> <>p2) & [](p2 -> <>p2) & [](p2 -> ~<>p0) & [](p2 -> ~<>p1))",
    (2, True): "~(p0 & [](p0 | p1 | p2 | p3) & [](p0 -> ~p1) & [](p0 -> ~p2)"
               " & [](p0 -> ~p3) & [](p1 -> ~p0) & [](p1 -> ~p2) & [](p1 -> ~p3)"
               " & [](p2 -> ~p0) & [](p2 -> ~p1) & [](p2 -> ~p3) & [](p3 -> ~p0)"
               " & [](p3 -> ~p1) & [](p3 -> ~p2) & [](p0 -> <>p0) & [](p0 -> <>p1)"
               " & [](p0 -> <>p2) & [](p0 -> <>p3) & [](p1 -> <>p0) & [](p1 -> <>p1)"
               " & [](p1 -> <>p2) & [](p1 -> <>p3) & [](p2 -> <>p0) & [](p2 -> <>p1)"
               " & [](p2 -> <>p2) & [](p2 -> <>p3) & [](p3 -> <>p3) & [](p3 -> ~<>p0)"
               " & [](p3 -> ~<>p1) & [](p3 -> ~<>p2))",
}

# ---------------------------------------------------------------------------
# canonical: Smorynski models of signed closures
# ---------------------------------------------------------------------------

# Seed pairs over two atoms with modal depth <= 1 give one k=14 closure: the
# 196-world model in S4 and the 64-world model in S4.2. The median op falls
# inside the S4.2 group and the tail op inside the S4 group.
_P = ["p", "~p", "[]p", "<>p", "~[]p", "[]~p"]
_Q = ["q", "~q", "[]q", "<>q", "~[]q", "[]~q"]
_PAIRS = [(a, b) for a in _P for b in _Q]

# (logic, side-1 seed, side-2 seed, worlds): one k=20 closure, then k <= 14
CANONICAL = (
    [("S4", "p & q", "p", 328)]
    + [("S4", a, b, 196) for a, b in _PAIRS[:16]]
    + [("S4.2", a, b, 64) for a, b in _PAIRS[-26:]]
    + [("S4", "p", "p", 14), ("S4.2", "p", "p", 8)]
)


def canonical_ops(seed_dir: str) -> list[dict]:
    ops = []
    for i, (logic, left, right, worlds) in enumerate(CANONICAL):
        files = []
        for side, text in (("1", left), ("2", right)):
            path = os.path.join(seed_dir, f"seed{i}.{side}.txt")
            files.append((path, text))
        ops.append({
            "id": f"smorynski {logic} [{left}] [{right}]",
            "argv": ["smorynski", "--logic", logic, "--sigma1", files[0][0],
                     "--sigma2", files[1][0]],
            "kind": "smorynski", "logic": logic, "seeds": [left, right],
            "worlds": worlds, "files": files, "heavy": worlds > 200,
        })
    return ops


# ---------------------------------------------------------------------------
# refine: committed canonical models, refined under three bound pairs
# ---------------------------------------------------------------------------

# The 196-world S4 model of (p, q) and seven distinct S4.2 models of 64 to
# 86 worlds (see make_inputs.py).
REFINE_MODELS = ["s4_p_q", "s42_p_q", "s42_pandq_p", "s42_boxpandq_p", "s42_diapandq_p",
                 "s42_boxpandboxq_p", "s42_diapanddiaq_p", "s42_boxpanddiaq_p"]
REFINE_BOUNDS = [("2", "2"), ("w", "2"), ("2", "w")]
# (w,2) on the 196-world model repeats nearly all the 7 s of (2,2); it is
# left out so that a run of three passes stays near 25 s.
REFINE_SKIP = {("s4_p_q", "w", "2")}


def refine_ops() -> list[dict]:
    ops = []
    for stem in REFINE_MODELS:
        model = os.path.join(INPUTS, f"{stem}.json")
        sigma = os.path.join(INPUTS, f"{stem}.sigma")
        for m, n in REFINE_BOUNDS:
            if (stem, m, n) in REFINE_SKIP:
                continue
            ops.append({
                "id": f"refine {stem} --m {m} --n {n}",
                "argv": ["refine", model, "--sigma", sigma, "--m", m, "--n", n],
                "kind": "refine", "model": model, "sigma": sigma,
                "m": INF if m == "w" else int(m), "n": INF if n == "w" else int(n),
                "heavy": stem == "s4_p_q",
            })
    return ops


# ---------------------------------------------------------------------------
# countermodel: full scans that find nothing, beside early hits
# ---------------------------------------------------------------------------

# (logic, bound, formula, countermodel expected within the bound). Every op
# is a distinct (logic, formula) pair. The first three are the heavy full
# scans; the S4 one runs first in every pass and builds the 5-world frame
# table. Eight full scans of one-atom theorems (tens of ms each) hold the
# tail op, the 11th slowest of two passes. The early hits (a few ms each:
# the invalid axioms and frame conditions of the decide table, and plain
# invalid formulas, the README example among them) hold the median op.
COUNTERMODEL = [
    ("S4", 5, "[](p -> q) & []p -> []q", False),
    ("Grz", 4, _GAMMA[(1, True)], False),
    ("S4.2", 5, "<>[]p & <>[]q -> <>[](p & q)", False),
] + [(logic, 5, formula, False) for logic, formula in [
    ("S4", "[]p -> p"), ("S4", "[]p -> [][]p"), ("S4", "[]p -> <>p"), ("S4", "<><>p -> <>p"),
    ("S4", "[][]p -> []p"), ("S4", "<>[]<>p -> <>p"), ("S4.2", "<>[]p -> []<>p"),
    ("Grz", "[]p -> p"),
]] + [(logic, 5, formula, True) for logic, formula in [
    ("S4", "p -> []<>p"), ("S4", "<>p -> []<>p"), ("S4", "[]<>p -> <>[]p"),
    ("S4", "[]([](p -> []p) -> p) -> p"), ("S4", "<>[]p -> []<>p"), ("S4", _GAMMA[(1, False)]),
    ("S4.2", "p -> []<>p"), ("S4.2", "[]<>p -> <>[]p"), ("S4.2", "[]([](p -> []p) -> p) -> p"),
    ("S4.2", _GAMMA[(1, False)]), ("Grz", "<>[]p -> []<>p"), ("G(KC,2,2)", "<>p -> []<>p"),
    ("G(Int,1,2)", "[]([](p -> []p) -> p) -> p"), ("G(KC,2,1)", _GAMMA[(1, False)]),
    ("G(Int,w,2)", "<>p -> []<>p"), ("G(Int,2,1)", "[]<>p -> <>[]p"),
    ("S4", "p -> []p"), ("S4", "<>p -> p"), ("S4", "p -> q"), ("S4", "[]p | []~p"),
    ("S4", "<>p & <>q -> <>(p & q)"), ("S4.2", "<>[]p -> []p"), ("S4.2", "<>p -> []p"),
    ("S4.2", "p -> [](p | q) & []q"), ("S4.2", "[](p | q) -> []p | []q"),
    ("Grz", "<>p -> p"), ("Grz", "<>p & <>q -> <>(p & q)"), ("Grz", "[]p | []~p"),
]] + [
    ("Grz", 4, "[](p | q) -> []p | []q", True),
]


def countermodel_ops() -> list[dict]:
    return [{
        "id": f"countermodel {logic} --max-worlds {bound} {formula}",
        "argv": ["countermodel", "--logic", logic, "--max-worlds", str(bound), formula],
        "kind": "countermodel", "logic": logic, "formula": formula, "found": found,
        "heavy": i < 3,
    } for i, (logic, bound, formula, found) in enumerate(COUNTERMODEL)]


# ---------------------------------------------------------------------------
# decide: known-answer checks and the interpolation corpus
# ---------------------------------------------------------------------------

# name -> (formula, frame condition that makes it valid in G(lam, m, n))
AXIOMS = {
    "T": ("[]p -> p", lambda lam, m, n: True),
    "4": ("[]p -> [][]p", lambda lam, m, n: True),
    "K": ("[](p -> q) -> []p -> []q", lambda lam, m, n: True),
    ".2": ("<>[]p -> []<>p", lambda lam, m, n: lam == "KC"),
    "gamma(1,F)": (_GAMMA[(1, False)], lambda lam, m, n: m <= 1),
    "gamma(2,F)": (_GAMMA[(2, False)], lambda lam, m, n: m <= 2),
    "gamma(1,T)": (_GAMMA[(1, True)], lambda lam, m, n: n <= 1),
    "gamma(2,T)": (_GAMMA[(2, True)], lambda lam, m, n: n <= 2),
    "McKinsey": ("[]<>p -> <>[]p", lambda lam, m, n: m == 1),
    "Grz": ("[]([](p -> []p) -> p) -> p", lambda lam, m, n: m == 1 and n == 1),
    "B": ("p -> []<>p", lambda lam, m, n: False),
    "5": ("<>p -> []<>p", lambda lam, m, n: False),
    ".3": ("[]([]p -> q) | []([]q -> p)", lambda lam, m, n: False),
}

# Inputs the program is known to get wrong today: Unknown where the answer
# is known, and a RecursionError on deep nesting. They run after the timed
# ops, outside the metrics, and are reported by name.
KNOWN_DEFECTS = (
    {("McKinsey", logic) for logic in LOGICS if _bounds(logic)[1] == 1}
    | {("Grz", "G(Int,1,1)"), ("Grz", "G(KC,1,1)")}
)
DEEP_INPUTS = [("deep ~x400", "~" * 400 + "p"), ("deep (x1200)", "(" * 1200 + "p" + ")" * 1200)]

VALID_PAIRS = [("p & q", "p | r"), ("[](p & q)", "[]p"), ("[]p & []q", "[](p & q)"),
               ("<>(p | q)", "<>p | <>q"), ("[](p -> q) & []p", "[]q"), ("p & []q", "<>p | r")]
INVALID_PAIRS = [("p", "q"), ("p", "[]p"), ("<>p", "p"), ("[](p | q)", "[]p | []q"),
                 ("<>p & <>q", "<>(p & q)")]
# The S4.2-family instance takes over a second each; two of the nine run.
SLOW_KC_PAIR = ("<>[]p & <>[]q", "<>[](p & q)")
SLOW_KC_LOGICS = ("G(KC,2,2)", "G(KC,w,w)")


def _check_op(name: str, logic: str) -> dict:
    formula, holds = AXIOMS[name]
    lam, m, n = _bounds(logic)
    return {"id": f"check {logic} {name}", "argv": ["check", "--logic", logic, formula],
            "kind": "check", "logic": logic, "formula": formula, "valid": holds(lam, m, n)}


def _interpolate_op(logic: str, premise: str, conclusion: str, valid: bool) -> dict:
    return {"id": f"interpolate {logic} [{premise}] [{conclusion}]",
            "argv": ["interpolate", "--logic", logic, premise, conclusion],
            "kind": "interpolate", "logic": logic, "premise": premise,
            "conclusion": conclusion, "valid": valid,
            "heavy": (premise, conclusion) == SLOW_KC_PAIR}


def decide_ops() -> tuple[list[dict], list[dict]]:
    """(timed ops, known-defect probes)."""
    ops, probes = [], []
    for logic in LOGICS:
        lam, m, n = _bounds(logic)
        for name in AXIOMS:
            op = _check_op(name, logic)
            (probes if (name, logic) in KNOWN_DEFECTS else ops).append(op)
        pairs = list(VALID_PAIRS)
        if m != INF:
            pairs.append(("true", _GAMMA[(m, False)]))
        if n != INF:
            pairs.append(("true", _GAMMA[(n, True)]))
        if logic in SLOW_KC_LOGICS:
            pairs.append(SLOW_KC_PAIR)
        ops += [_interpolate_op(logic, a, b, True) for a, b in pairs]
        invalid = list(INVALID_PAIRS) + ([("<>[]p", "[]<>p")] if lam == "Int" else [])
        ops += [_interpolate_op(logic, a, b, False) for a, b in invalid]
    for name, text in DEEP_INPUTS:
        probes.append({"id": f"check S4 {name}", "argv": ["check", "--logic", "S4", text],
                       "kind": "check", "logic": "G(Int,w,w)", "formula": text, "valid": True})
    return ops, probes


# ---------------------------------------------------------------------------

# name -> fresh-worker passes per run. The count never depends on measured
# time, so a faster program runs the same work. At the seed commit one pass
# takes about 18 s on canonical, 9 s on refine, 18 s on countermodel and
# 6 s on decide. refine and countermodel make more than one pass because
# their op latencies come from short spells between a few long ops; refine
# makes three, because one of its light ops varies by up to 30% between
# passes of one run. canonical makes one, because its k=20 closure alone
# takes 11 s a pass.
WORKLOADS = {"canonical": 1, "refine": 3, "countermodel": 2, "decide": 2}


def build(name: str, seed: int, seed_dir: str) -> tuple[list[dict], list[dict]]:
    """(ops, probes) of a workload, in the order the seed gives."""
    probes: list[dict] = []
    if name == "canonical":
        ops = canonical_ops(seed_dir)
    elif name == "refine":
        ops = refine_ops()
    elif name == "countermodel":
        ops = countermodel_ops()
    elif name == "decide":
        ops, probes = decide_ops()
    else:
        raise ValueError(f"unknown workload {name!r}")
    return _order(ops, seed), probes


def _order(ops: list[dict], seed: int) -> list[dict]:
    """Shuffle the light ops by seed; heavy ops keep evenly spaced slots,
    the first heavy op first.

    Heavy ops build large lazy tables and caches (the first one of
    `countermodel` builds the 5-world frame table), so every seed must see
    them at the same points. Spreading the light ops over the run also
    averages out slow spells of the machine."""
    heavy = [op for op in ops if op.get("heavy")]
    light = [op for op in ops if not op.get("heavy")]
    random.Random(seed).shuffle(light)
    if not heavy:
        return light
    out, per = [], len(light) / len(heavy)
    for i, op in enumerate(heavy):
        out.append(op)
        out += light[round(i * per):round((i + 1) * per)]
    return out
