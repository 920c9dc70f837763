"""Regenerate the committed inputs of the `refine` workload.

Each input is a canonical (Smorynski) model written by `gammalog smorynski
--out`, together with the full signed closure of its seeds as a formula
file. The files are committed, so `refine` timings never depend on the
Smorynski code or on its world naming. Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_inputs.py
"""

from __future__ import annotations

import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
INPUTS = os.path.join(HERE, "inputs")

# (file stem, logic, side-1 seed, side-2 seed). No two models have the same
# signed closure, even up to renaming atoms and reordering conjuncts: the
# S4.2 seeds are p and the six shapes A(p) & B(q), A and B each none, [] or <>.
MODELS = [
    ("s4_p_q", "S4", "p", "q"),
    ("s42_p_q", "S4.2", "p", "q"),
    ("s42_pandq_p", "S4.2", "p & q", "p"),
    ("s42_boxpandq_p", "S4.2", "[]p & q", "p"),
    ("s42_diapandq_p", "S4.2", "<>p & q", "p"),
    ("s42_boxpandboxq_p", "S4.2", "[]p & []q", "p"),
    ("s42_diapanddiaq_p", "S4.2", "<>p & <>q", "p"),
    ("s42_boxpanddiaq_p", "S4.2", "[]p & <>q", "p"),
]


def main() -> int:
    from gammalog import cli
    from gammalog.syntax import SignedClosure, parse, pretty, sorted_formulas

    os.makedirs(INPUTS, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for stem, logic, left, right in MODELS:
            seed_files = []
            for side, text in (("1", left), ("2", right)):
                path = os.path.join(tmp, f"{stem}.{side}.txt")
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(text + "\n")
                seed_files.append(path)
            out = os.path.join(INPUTS, f"{stem}.json")
            rc = cli.main(["smorynski", "--logic", logic, "--sigma1", seed_files[0],
                           "--sigma2", seed_files[1], "--out", out])
            if rc != 0:
                print(f"smorynski failed for {stem} (exit {rc})", file=sys.stderr)
                return rc
            closure = SignedClosure.from_seeds([parse(left)], [parse(right)])
            with open(os.path.join(INPUTS, f"{stem}.sigma"), "w", encoding="utf-8") as handle:
                for f in sorted_formulas(closure.sigma):
                    handle.write(pretty(f) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
