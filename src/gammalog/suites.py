"""Property suites behind ``gammalog selftest`` and the acceptance tests.

Each suite returns (ok, detail). ``scale`` < 1 shrinks the sampled parts
for a quick smoke run; the acceptance tests run everything at scale 1.
"""

from __future__ import annotations

import itertools
import random
import time
from typing import Iterator, Sequence

from . import engine, kripke, refine, smorynski
from .engine import (
    ALL_LOGICS, Budget, Interpolant, Invalid, LogicId, NotValid, Satisfiable,
    Unsatisfiable, Valid, catalog, countermodel_search, equivalent,
    find_interpolant, in_frame_class, parse_logic, sat, valid,
)
from .frame_formulas import (
    OMEGA, RootedFrame, frame_formula, gamma, pattern_instance,
    relative_satisfaction_witness, substitute,
)
from .kripke import (
    PreorderModel, eval_on_frame, find_p_morphism, is_confluent, model_check,
    model_from_masks,
)
from .syntax import (
    And, Atom, Bottom, Box, Diamond, Formula, Implies, Not, Or, FALSE, TRUE,
    all_canonical_modalities, apply_prefix, atoms, boolean_subformula_closure,
    iter_negation_pairs, modal_depth, normalize_modality, parse, pretty,
    SignedClosure, sorted_formulas, subformula_closure, to_core,
)

S4 = parse_logic("S4")
S42 = parse_logic("S4.2")


# ---------------------------------------------------------------------------
# Shared enumeration helpers
# ---------------------------------------------------------------------------

def _labeled_rooted_frames(max_points: int) -> list[RootedFrame]:
    """All rooted preorders on {0..n-1} with root 0, for n <= max_points."""
    out = [
        RootedFrame(n, rel)
        for n in range(1, max_points + 1)
        for rel in engine.labeled_preorders(n)
        if all((0, i) in rel for i in range(n))
    ]
    out.sort(key=lambda fr: (fr.size, sorted(fr.rel)))
    return out


def _frame_models(
    max_worlds: int, names: Sequence[str]
) -> Iterator[tuple[tuple[int, ...], dict[str, int]]]:
    """(successor masks, atom environment) for every canonical frame of at
    most max_worlds worlds and every valuation of the given atoms."""
    for k in range(1, max_worlds + 1):
        for rel in engine.canonical_frames(k):
            succ = [0] * k
            for a, b in rel:
                succ[a] |= 1 << b
            for bits in itertools.product(range(1 << k), repeat=len(names)):
                yield tuple(succ), dict(zip(names, bits))


def _spec_p_morphism_bits(
    succ: Sequence[int], gen_mask: int, frame: RootedFrame, exts: Sequence[int]
) -> bool:
    """Preimage-constrained p-morphism existence on the generated part,
    computed on bitmasks; mirrors the definition independently of the
    kripke implementation."""
    k = len(succ)
    mapping = {}
    for w in range(k):
        if not gen_mask >> w & 1:
            continue
        hits = [i for i, ext in enumerate(exts) if ext >> w & 1]
        if len(hits) != 1:
            return False
        mapping[w] = hits[0]
    if set(mapping.values()) != set(range(frame.size)):
        return False
    for a in mapping:
        for b in mapping:
            if succ[a] >> b & 1 and (mapping[a], mapping[b]) not in frame.rel:
                return False
    for a in mapping:
        images = {mapping[b] for b in mapping if succ[a] >> b & 1}
        for j in range(frame.size):
            if (mapping[a], j) in frame.rel and j not in images:
                return False
    return True


# ---------------------------------------------------------------------------
# Criterion 1: frame-formula refutation vs constrained p-morphisms
# ---------------------------------------------------------------------------

def suite_lemma23(scale: float = 1.0) -> tuple[bool, str]:
    start = time.monotonic()
    p = Atom("p")
    pool = [FALSE, TRUE, p, Not(p), Box(p), Diamond(p)]
    max_worlds = 4 if scale >= 1 else 3
    targets = _labeled_rooted_frames(3 if scale >= 1 else 2)
    betas = {fr: frame_formula(fr) for fr in targets}
    checks = 0
    disagreements = []
    sampled_crosschecks = 0
    for succ, env in _frame_models(max_worlds, ["p"]):
        k = len(succ)
        full = (1 << k) - 1
        model = model_from_masks(succ, env)
        exts = [eval_on_frame(succ, env, f) for f in pool]
        morphism_memo: dict[tuple, bool] = {}
        for frame_index, frame in enumerate(targets):
            beta = betas[frame]
            cases = []
            # one copy of the frame per distinct tuple of argument extensions
            copy_of: dict[tuple, int] = {}
            for combo in itertools.product(range(len(pool)), repeat=frame.size):
                arg_exts = tuple(exts[c] for c in combo)
                if arg_exts[0]:
                    cases.append((combo, arg_exts))
                    copy_of.setdefault(arg_exts, len(copy_of))
            beta_env = {
                f"p{i}": sum(arg_exts[i] << copy * (k + 1) for arg_exts, copy in copy_of.items())
                for i in range(frame.size)
            }
            sat_all = eval_on_frame(succ, beta_env, beta, None, len(copy_of))
            for combo, arg_exts in cases:
                args = [pool[c] for c in combo]
                refuted_bits = full ^ (sat_all >> copy_of[arg_exts] * (k + 1) & full)
                for x in range(k):
                    if not arg_exts[0] >> x & 1:
                        continue
                    checks += 1
                    refuted = bool(refuted_bits >> x & 1)
                    masked = tuple(e & succ[x] for e in arg_exts)
                    key = (x, frame_index, masked)
                    exists = morphism_memo.get(key)
                    if exists is None:
                        morphism = find_p_morphism(model, f"w{x}", frame, args)
                        if morphism is not None:
                            morphism.validate()
                        exists = morphism is not None
                        morphism_memo[key] = exists
                    if refuted != exists:
                        disagreements.append((succ, env, frame, args, x))
                        if len(disagreements) > 3:
                            break
                    # recompute both sides on a sample: the substituted
                    # formula directly on the model, and the p-morphism on
                    # bitmasks without the kripke search
                    if checks % 997 == 0:
                        sampled_crosschecks += 1
                        direct = kripke.satisfies(model, f"w{x}", substitute(beta, args))
                        bits_side = _spec_p_morphism_bits(succ, succ[x], frame, masked)
                        if direct == refuted or bits_side != exists:
                            disagreements.append((succ, env, frame, args, x))
    elapsed = time.monotonic() - start
    ok = not disagreements
    return ok, (
        f"{checks} root cases over {len(targets)} targets, "
        f"{len(disagreements)} disagreements, {sampled_crosschecks} sampled "
        f"double-checks, {elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# Criteria 2 and 3: truth lemma and confluence of the canonical models
# ---------------------------------------------------------------------------

_TRUTH_SEEDS = [
    ("p", "p"),
    ("p", "q"),
    ("[]p", "p"),
    ("p", "[]p"),
    ("[]p", "[]q"),
    ("~[]p", "[]q"),
    ("p & q", "p"),
    ("p | q", "q"),
    ("p", "~q"),
    ("[]p", "q"),
    ("p & q", "~p"),
]

_KC_SEEDS = [
    ("p", "p"),
    ("p", "q"),
    ("[]p", "p"),
    ("[]p", "[]q"),
    ("~[]p", "[]q"),
    ("p & q", "p"),
    ("p | q", "[]q"),
]

_SMORYNSKI_BUDGET = Budget(max_letters=24, max_types=250_000, max_seconds=280)


def suite_truthlemma(scale: float = 1.0) -> tuple[bool, str]:
    seeds = _TRUTH_SEEDS if scale >= 1 else _TRUTH_SEEDS[:3]
    failures = []
    per_seed = []
    for left, right in seeds:
        t0 = time.monotonic()
        closure = SignedClosure.from_seeds([parse(left)], [parse(right)])
        sm = smorynski.build_smorynski_model(closure, S4, _SMORYNSKI_BUDGET)
        violations = smorynski.truth_lemma_violations(sm)
        boxed_ok = _order_matches_boxes(sm)
        maximal_ok = _maximality_holds(sm)
        elapsed = time.monotonic() - t0
        per_seed.append(elapsed)
        if violations or not boxed_ok or not maximal_ok:
            failures.append((left, right, len(violations), boxed_ok, maximal_ok))
    ok = not failures and all(t <= 300 for t in per_seed)
    return ok, (
        f"{len(seeds)} seed pairs, worst seed {max(per_seed):.1f}s, "
        f"failures: {failures if failures else 'none'}"
    )


def _order_matches_boxes(sm: smorynski.SmorynskiModel) -> bool:
    boxed = frozenset(f for f in sm.closure.sigma if isinstance(f, Box))
    box_part = {wid: ms.members & boxed for wid, ms in sm.worlds.items()}
    for a, ba in box_part.items():
        for b, bb in box_part.items():
            if sm.model.leq(a, b) != (ba <= bb):
                return False
    return True


def _maximality_holds(sm: smorynski.SmorynskiModel) -> bool:
    pairs = {side: list(iter_negation_pairs(sm.closure.side(side))) for side in (1, 2)}
    for ms in sm.worlds.values():
        for side, tset in ((1, ms.t1), (2, ms.t2)):
            for f, g in pairs[side]:
                if (f in tset) == (g in tset):
                    return False
        if Bottom() in ms.members:
            return False
    return True


def suite_confluence(scale: float = 1.0) -> tuple[bool, str]:
    seeds = _KC_SEEDS if scale >= 1 else _KC_SEEDS[:3]
    failures = []
    for left, right in seeds:
        closure = SignedClosure.from_seeds([parse(left)], [parse(right)])
        sm = smorynski.build_smorynski_model(closure, S42, _SMORYNSKI_BUDGET)
        if not is_confluent(sm.model):
            failures.append((left, right, "not confluent"))
        if smorynski.truth_lemma_violations(sm):
            failures.append((left, right, "truth lemma"))
    ok = not failures
    return ok, f"{len(seeds)} KC models, failures: {failures if failures else 'none'}"


# ---------------------------------------------------------------------------
# Criterion 4: refinement preserves semantics on random models
# ---------------------------------------------------------------------------

def _random_preorder(rng: random.Random, size: int) -> PreorderModel:
    worlds = [f"w{i}" for i in range(size)]
    order = set()
    # random clusters over a random chain/forest skeleton, then closure
    for i in range(size):
        for j in range(size):
            if i != j and rng.random() < 0.28:
                order.add((worlds[i], worlds[j]))
    valuation = {
        name: [w for w in worlds if rng.random() < 0.5] for name in ("p", "q")
    }
    return PreorderModel(worlds, order, valuation, closure="auto")


def _random_sigma_formula(rng: random.Random) -> Formula:
    letters = [Atom("p"), Atom("q")]
    def literal():
        a = rng.choice(letters)
        return a if rng.random() < 0.5 else Not(a)
    def level1():
        roll = rng.random()
        if roll < 0.35:
            return Box(literal())
        if roll < 0.5:
            return Not(Box(literal()))
        ctor = And if rng.random() < 0.5 else Or
        return ctor(literal(), literal())
    roll = rng.random()
    if roll < 0.4:
        return level1()
    ctor = And if rng.random() < 0.5 else Or
    return ctor(level1(), literal())


def _sigma_letter_count(f: Formula) -> int:
    closure = subformula_closure([to_core(f)])
    return len([g for g in closure if isinstance(g, (Atom, Box))])


def suite_refine(scale: float = 1.0) -> tuple[bool, str]:
    start = time.monotonic()
    rng = random.Random(20260809)
    runs = int(200 * scale) if scale < 1 else 200
    refined_ok = 0
    licensed_failures = 0
    failures = []
    bounds_pool = [(1, 1), (1, 2), (2, 1), (2, 2), (1, OMEGA), (OMEGA, 1),
                   (2, OMEGA), (OMEGA, 2), (OMEGA, OMEGA)]
    done = 0
    while done < runs:
        size = rng.randint(2, 8)
        model = _random_preorder(rng, size)
        f1, f2 = _random_sigma_formula(rng), _random_sigma_formula(rng)
        if _sigma_letter_count(f1) > 2 or _sigma_letter_count(f2) > 2:
            continue
        done += 1
        sigma1 = boolean_subformula_closure([to_core(f1)])
        sigma2 = boolean_subformula_closure([to_core(f2)])
        m, n = rng.choice(bounds_pool)
        before = {
            f: model_check(model, f) for f in sorted_formulas(sigma1 | sigma2)
        }
        try:
            refined = refine.refine_model(model, sigma1, sigma2, m, n)
        except refine.RefinementError:
            # only licensed when some cluster formula fails relative to a side
            if _some_precondition_fails(model, sigma1, sigma2, m, n):
                licensed_failures += 1
                continue
            failures.append(("unlicensed refinement failure", size, m, n))
            continue
        problems = _refinement_problems(model, refined, before, m, n)
        if problems:
            failures.append((problems, size, m, n))
        else:
            refined_ok += 1
        if len(failures) > 3:
            break
    elapsed = time.monotonic() - start
    ok = not failures and elapsed <= 300
    return ok, (
        f"{done} random models: {refined_ok} refined and verified, "
        f"{licensed_failures} precondition-violating inputs skipped, "
        f"failures: {failures if failures else 'none'}, {elapsed:.1f}s"
    )


def _some_precondition_fails(model, sigma1, sigma2, m, n) -> bool:
    view = kripke.clusters(model)
    for cluster, final in zip(view.clusters, view.final):
        bound = m if final else n
        if bound == OMEGA or len(cluster) <= bound:
            continue
        chi = gamma(int(bound), topped=not final)
        for sigma in (sigma1, sigma2):
            if relative_satisfaction_witness(model, cluster, chi, sigma) is not None:
                return True
    return False


def _refinement_problems(model, refined, before, m, n) -> list[str]:
    problems = []
    for f, ext in before.items():
        if model_check(refined, f) != ext:
            problems.append(f"extension changed: {pretty(f)}")
            break
    finals, nonfinals = kripke.cluster_sizes(refined)
    if m != OMEGA and any(s > m for s in finals):
        problems.append("final cluster bound violated")
    if n != OMEGA and any(s > n for s in nonfinals):
        problems.append("non-final cluster bound violated")
    if is_confluent(model) and not is_confluent(refined):
        problems.append("confluence lost")
    if not refined.order <= model.order:
        problems.append("edges added")
    view = kripke.clusters(model)
    refined_view_edges = model.order - refined.order
    for a, b in refined_view_edges:
        if view.cluster_of[a] != view.cluster_of[b]:
            problems.append("edge removed outside a cluster")
            break
    return problems


# ---------------------------------------------------------------------------
# Criterion 5: pattern lemma instances
# ---------------------------------------------------------------------------

def suite_patterns(scale: float = 1.0) -> tuple[bool, str]:
    start = time.monotonic()
    p, q = Atom("p"), Atom("q")
    pool2 = [p, q, Not(p)]
    pool3 = [(p, q), (q, p), (p, Not(q))]
    max_k = 4
    configs = 0
    failures = []
    models: list[PreorderModel] = []
    for succ, env in _frame_models(max_k, ["p", "q"]):
        models.append(model_from_masks(succ, env))
    if scale >= 1:
        # a deterministic slice of 5-world models
        count = 0
        for succ, env in _frame_models(5, ["p", "q"]):
            if len(succ) == 5 and (env["p"], env["q"]) in ((3, 24), (7, 16), (1, 30)):
                models.append(model_from_masks(succ, env))
                count += 1
    for model in models:
        view = kripke.clusters(model)
        for cluster, final in zip(view.clusters, view.final):
            members = sorted(cluster)
            for phi in pool2:
                holds = model_check(model, phi)
                for x1 in members:
                    if x1 not in holds:
                        continue
                    x2 = next((y for y in members if y not in holds), None)
                    if x2 is None:
                        continue
                    if final:
                        configs += 1
                        inst = pattern_instance("final2", phi)
                        if kripke.satisfies(model, x1, inst):
                            failures.append(("final2", x1, pretty(phi)))
                    else:
                        strict = [
                            z for z in model.successors(x1) if not model.leq(z, x1)
                        ]
                        if all(z in holds for z in strict):
                            configs += 1
                            inst = pattern_instance("nonfinal2", phi)
                            if kripke.satisfies(model, x1, inst):
                                failures.append(("nonfinal2", x1, pretty(phi)))
            for phi, psi in pool3:
                hp = model_check(model, phi)
                hq = model_check(model, psi)
                for x1 in members:
                    if not (x1 in hp and x1 in hq):
                        continue
                    x2 = next((y for y in members if y not in hp and y in hq), None)
                    x3 = next((y for y in members if y not in hq), None)
                    if x2 is None or x3 is None:
                        continue
                    if final:
                        configs += 1
                        inst = pattern_instance("final3", phi, psi)
                        if kripke.satisfies(model, x1, inst):
                            failures.append(("final3", x1, pretty(phi), pretty(psi)))
                    else:
                        strict = [
                            z for z in model.successors(x1) if not model.leq(z, x1)
                        ]
                        if all(z in hp and z in hq for z in strict):
                            configs += 1
                            inst = pattern_instance("nonfinal3", phi, psi)
                            if kripke.satisfies(model, x1, inst):
                                failures.append(("nonfinal3", x1, pretty(phi), pretty(psi)))
        if len(failures) > 3:
            break
    elapsed = time.monotonic() - start
    ok = not failures and configs > 0
    return ok, (
        f"{configs} witness configurations on {len(models)} models, "
        f"failures: {failures if failures else 'none'}, {elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# Criterion 6: interpolation end to end in all 18 logics
# ---------------------------------------------------------------------------

def _valid_corpus(logic: LogicId) -> list[tuple[Formula, Formula]]:
    items = [
        (parse("p & q"), parse("p | r")),
        (parse("[](p & q)"), parse("[]p")),
        (parse("[]p & []q"), parse("[](p & q)")),
        (parse("<>(p | q)"), parse("<>p | <>q")),
        (parse("[](p -> q) & []p"), parse("[]q")),
        (parse("p & []q"), parse("<>p | r")),
    ]
    if logic.lam == "KC":
        items.append((parse("<>[]p & <>[]q"), parse("<>[](p & q)")))
    if logic.m != OMEGA:
        items.append((TRUE, gamma(logic.m, False)))
    if logic.n != OMEGA:
        items.append((TRUE, gamma(logic.n, True)))
    return items


_INVALID_CORPUS = [
    (parse("p"), parse("q")),
    (parse("p"), parse("[]p")),
    (parse("<>p"), parse("p")),
    (parse("[](p | q)"), parse("[]p | []q")),
    (parse("<>p & <>q"), parse("<>(p & q)")),
]


def suite_interpolation(scale: float = 1.0) -> tuple[bool, str]:
    start = time.monotonic()
    logics = ALL_LOGICS if scale >= 1 else ALL_LOGICS[:2]
    budget = Budget(max_seconds=30.0)
    failures = []
    slowest = 0.0
    instances = 0
    for logic in logics:
        for f1, f2 in _valid_corpus(logic):
            t0 = time.monotonic()
            result = find_interpolant(f1, f2, logic, budget)
            slowest = max(slowest, time.monotonic() - t0)
            instances += 1
            if not isinstance(result, Interpolant):
                failures.append((str(logic), pretty(f1), pretty(f2), result))
                continue
            chi = result.formula
            if not atoms(chi) <= (atoms(f1) & atoms(f2)):
                failures.append((str(logic), "vocabulary", pretty(chi)))
            if not isinstance(valid(Implies(f1, chi), logic, budget), Valid):
                failures.append((str(logic), "left check", pretty(chi)))
            if not isinstance(valid(Implies(chi, f2), logic, budget), Valid):
                failures.append((str(logic), "right check", pretty(chi)))
        invalid_corpus = list(_INVALID_CORPUS)
        if logic.lam == "Int":
            invalid_corpus.append((parse("<>[]p"), parse("[]<>p")))
        for f1, f2 in invalid_corpus:
            t0 = time.monotonic()
            result = find_interpolant(f1, f2, logic, budget)
            slowest = max(slowest, time.monotonic() - t0)
            instances += 1
            if not isinstance(result, NotValid):
                failures.append((str(logic), "expected NotValid", pretty(f1), pretty(f2)))
                continue
            if kripke.satisfies(result.model, result.world, Implies(f1, f2)):
                failures.append((str(logic), "countermodel does not refute"))
            if not in_frame_class(result.model, logic):
                failures.append((str(logic), "countermodel outside frame class"))
        if len(failures) > 5:
            break
    elapsed = time.monotonic() - start
    ok = not failures and slowest <= 30.0
    return ok, (
        f"{instances} instances across {len(logics)} logics, slowest "
        f"{slowest:.1f}s, failures: {failures if failures else 'none'}, {elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# Criterion 7: engine agreement on small formulas
# ---------------------------------------------------------------------------

def _enumerate_small_formulas(max_size: int, max_depth: int) -> list[Formula]:
    by_size: dict[int, list[Formula]] = {1: [FALSE, TRUE, Atom("p")]}
    for size in range(2, max_size + 1):
        by_size[size] = [
            f for f in engine.size_layer(by_size, size) if modal_depth(f) <= max_depth
        ]
    return [f for layer in by_size.values() for f in layer]


def suite_agreement(scale: float = 1.0) -> tuple[bool, str]:
    start = time.monotonic()
    max_size = 7 if scale >= 1 else 5
    formulas = _enumerate_small_formulas(max_size, 2)
    contradictions = []
    unsat_count = 0
    for logic in (S4, S42):
        for f in formulas:
            result = sat(f, logic)
            if isinstance(result, Unsatisfiable):
                unsat_count += 1
                found = countermodel_search(Not(f), logic, 5)
                if found is not None:
                    contradictions.append((str(logic), pretty(f)))
            elif isinstance(result, Satisfiable):
                if not kripke.satisfies(result.model, result.world, f):
                    contradictions.append((str(logic), "unverified model", pretty(f)))
            else:
                contradictions.append((str(logic), "unknown", pretty(f)))
            if len(contradictions) > 3:
                break
    elapsed = time.monotonic() - start
    ok = not contradictions
    return ok, (
        f"{len(formulas)} formulas x 2 logics, {unsat_count} unsatisfiable "
        f"cross-checked at bound 5, contradictions: "
        f"{contradictions if contradictions else 'none'}, {elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# Criterion 8: the exact counts
# ---------------------------------------------------------------------------

def suite_counts(scale: float = 1.0) -> tuple[bool, str]:
    start = time.monotonic()
    entries = catalog()
    cip = sum(1 for e in entries if e.has_cip)
    dip = sum(1 for e in entries if e.has_dip)
    problems = []
    if cip != 37:
        problems.append(f"cip count {cip}")
    if dip != 49:
        problems.append(f"dip count {dip}")
    canon = all_canonical_modalities()
    if len(canon) != 14:
        problems.append(f"{len(canon)} canonical modalities")
    p = Atom("p")
    pairs = 0
    for a, b in itertools.combinations(canon, 2):
        pairs += 1
        if equivalent(apply_prefix(a, p), apply_prefix(b, p), S4) is not False:
            problems.append(f"canonical prefixes {a!r} and {b!r} not distinct")
    merges = 0
    limit = 6 if scale >= 1 else 4
    for length in range(limit + 1):
        for word in itertools.product(("~", "[]"), repeat=length):
            prefix = "".join(word)
            merges += 1
            normalized = normalize_modality(prefix)
            if equivalent(apply_prefix(prefix, p), apply_prefix(normalized, p), S4) is not True:
                problems.append(f"merge {prefix!r} -> {normalized!r} not equivalent")
    elapsed = time.monotonic() - start
    ok = not problems
    return ok, (
        f"catalog {cip}/37 cip, {dip}/49 dip; {len(canon)} modalities, "
        f"{pairs} distinctness and {merges} merge checks, problems: "
        f"{problems if problems else 'none'}, {elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# Criterion 9: the axiom suite
# ---------------------------------------------------------------------------

def suite_axioms(scale: float = 1.0) -> tuple[bool, str]:
    start = time.monotonic()
    problems = []
    for logic in ALL_LOGICS:
        for axiom in (gamma(logic.m, False), gamma(logic.n, True),
                      parse("[]p -> p"), parse("[]p -> [][]p")):
            verdict = valid(axiom, logic)
            if not isinstance(verdict, Valid):
                problems.append((str(logic), pretty(axiom), verdict))
        point2 = valid(parse("<>[]p -> []<>p"), logic)
        if logic.lam == "KC":
            if not isinstance(point2, Valid):
                problems.append((str(logic), ".2 should be valid", point2))
        else:
            if not isinstance(point2, Invalid):
                problems.append((str(logic), ".2 should be invalid", point2))
            elif not in_frame_class(point2.model, logic):
                problems.append((str(logic), ".2 countermodel outside class"))
    elapsed = time.monotonic() - start
    ok = not problems
    return ok, (
        f"{len(ALL_LOGICS)} logics x 5 axiom checks, problems: "
        f"{problems if problems else 'none'}, {elapsed:.1f}s"
    )


SUITES = {
    "lemma23": suite_lemma23,
    "truthlemma": suite_truthlemma,
    "confluence": suite_confluence,
    "refine": suite_refine,
    "patterns": suite_patterns,
    "interpolation": suite_interpolation,
    "agreement": suite_agreement,
    "counts": suite_counts,
    "axioms": suite_axioms,
}
