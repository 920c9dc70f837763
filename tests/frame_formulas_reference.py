"""Reference relative satisfaction for the tests, one model per tuple.

``relative_satisfaction_witness_reference`` is the per-tuple scan that
``frame_formulas`` used before it packed its substitution instances into
copies of the frame: every argument tuple in ``itertools.product`` order,
each distinct tuple of argument extensions checked once on a model rebuilt
with p_i revalued to [[args_i]] and every other atom as the model values it.
"""

import itertools

from gammalog import kripke
from gammalog.frame_formulas import ResourceCapExceeded, substitution_arity
from gammalog.syntax import sorted_formulas


def relative_satisfaction_witness_reference(model, cluster, chi, sigma, max_tuples=1 << 20):
    arity = substitution_arity(chi)
    pool = sorted_formulas(set(sigma))
    if pool and len(pool) ** arity > max_tuples:
        raise ResourceCapExceeded(
            f"relative satisfaction needs {len(pool)}^{arity} tuples (cap {max_tuples})"
        )
    cluster = frozenset(cluster)
    extensions = {f: kripke.model_check(model, f) for f in pool}
    seen = {}
    for args in itertools.product(pool, repeat=arity):
        ext_key = tuple(extensions[a] for a in args)
        ok = seen.get(ext_key)
        if ok is None:
            valuation = dict(model.valuation)
            valuation.update((f"p{i}", ext) for i, ext in enumerate(ext_key))
            revalued = kripke.PreorderModel(model.worlds, model.order, valuation)
            ok = cluster <= kripke.model_check(revalued, chi)
            seen[ext_key] = ok
        if not ok:
            return args
    return None
