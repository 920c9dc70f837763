"""Command-line front door.

Subcommands: parse, check, countermodel, interpolate, frame-formula,
refine, smorynski, catalog, selftest. Output is deterministic text, or the
equivalent JSON ({"v": 1, ...}) with --format json.

Exit codes: 0 definite answer, 1 definite negative (Invalid / NotValid /
no countermodel found), 2 usage error, 3 unknown or resource exhaustion,
141 (128 + SIGPIPE) when the reader of stdout closed it early.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache
from typing import Optional

from . import engine, kripke, refine, smorynski, suites
from .engine import Budget, Interpolant, Invalid, NotValid, Valid
from .frame_formulas import OMEGA, cluster_frame, frame_formula
from .syntax import (
    FormulaError, SignedClosure, parse as parse_formula, pretty, subformula_closure, to_core,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_UNKNOWN = 3
EXIT_BROKEN_PIPE = 141


class _UsageError(Exception):
    pass


class _VerificationError(Exception):
    pass


def _budget(args) -> Budget:
    kwargs = {}
    if getattr(args, "max_closure", None) is not None:
        kwargs["max_letters"] = args.max_closure
    if getattr(args, "max_worlds", None) is not None:
        kwargs["max_worlds"] = args.max_worlds
    if getattr(args, "time_budget", None) is not None:
        kwargs["max_seconds"] = args.time_budget
    return Budget(**kwargs)


def _logic(args):
    try:
        return engine.parse_logic(args.logic)
    except engine.LogicError as exc:
        raise _UsageError(str(exc)) from exc


def _formula(text: str):
    try:
        return parse_formula(text)
    except FormulaError as exc:
        raise _UsageError(str(exc)) from exc


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    """Print the JSON payload or the text lines."""
    if args.format == "json":
        print(json.dumps({"v": 1, **payload}, sort_keys=True), flush=True)
    else:
        for line in text_lines:
            print(line, flush=True)


def _model_line(args, encoded: dict, written: str) -> str:
    """Write the encoded model to --out and say so, or give it as one JSON
    line. The line is for text output only: JSON output carries the model
    in its payload, so there it stays empty."""
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                json.dump(encoded, handle, indent=2, sort_keys=True)
                handle.write("\n")
        except OSError as exc:
            raise _UsageError(f"cannot write {args.out}: {exc}") from exc
        return f"{written} {args.out}"
    if args.format == "json":
        return ""
    return json.dumps(encoded, sort_keys=True)


def _checked_countermodel(model, world, f) -> dict:
    """The countermodel's JSON object, reloaded and checked again to refute
    f at world before it is reported."""
    encoded = kripke.model_to_dict(model)
    if kripke.satisfies(kripke.model_from_dict(encoded), world, f):
        raise _VerificationError(
            f"countermodel failed its JSON round-trip check at world {world}"
        )
    return encoded


def cmd_parse(args) -> int:
    f = _formula(args.formula)
    _emit(args, {"formula": pretty(f)}, [pretty(f)])
    return EXIT_OK


def cmd_check(args) -> int:
    logic = _logic(args)
    f = _formula(args.formula)
    verdict = engine.valid(f, logic, _budget(args))
    if isinstance(verdict, Valid):
        _emit(args, {"verdict": "valid"}, ["Valid"])
        return EXIT_OK
    if isinstance(verdict, Invalid):
        encoded = _checked_countermodel(verdict.model, verdict.world, f)
        lines = [
            f"Invalid at world {verdict.world}",
            _model_line(args, encoded, "countermodel written to"),
        ]
        _emit(args, {"verdict": "invalid", "model": encoded, "world": verdict.world}, lines)
        return EXIT_NEGATIVE
    _emit(args, {"verdict": "unknown", "reason": verdict.reason}, [f"Unknown: {verdict.reason}"])
    return EXIT_UNKNOWN


def cmd_countermodel(args) -> int:
    logic = _logic(args)
    f = _formula(args.formula)
    bound = args.max_worlds
    if bound < 1:
        raise _UsageError("--max-worlds must be at least 1")
    found = engine.countermodel_search(f, logic, bound)
    if found is None:
        _emit(args, {"found": False, "bound": bound},
              [f"no countermodel with at most {bound} worlds"])
        return EXIT_NEGATIVE
    model, world = found
    encoded = _checked_countermodel(model, world, f)
    lines = [
        f"countermodel with {len(model.worlds)} worlds refutes at {world}",
        _model_line(args, encoded, "written to"),
    ]
    _emit(args, {"found": True, "model": encoded, "world": world}, lines)
    return EXIT_OK


def cmd_interpolate(args) -> int:
    logic = _logic(args)
    f1, f2 = _formula(args.premise), _formula(args.conclusion)
    result = engine.find_interpolant(f1, f2, logic, _budget(args))
    if isinstance(result, Interpolant):
        chi = result.formula
        lines = [
            f"interpolant: {pretty(chi)}",
            f"checked: {pretty(f1)} -> {pretty(chi)} valid",
            f"checked: {pretty(chi)} -> {pretty(f2)} valid",
        ]
        _emit(args, {"interpolant": pretty(chi)}, lines)
        return EXIT_OK
    if isinstance(result, NotValid):
        encoded = kripke.model_to_dict(result.model)
        lines = [
            f"not valid; countermodel refutes the implication at {result.world}",
            _model_line(args, encoded, "countermodel written to"),
        ]
        _emit(args, {"verdict": "not-valid", "model": encoded, "world": result.world}, lines)
        return EXIT_NEGATIVE
    _emit(args, {"verdict": "unknown", "reason": result.reason}, [f"Unknown: {result.reason}"])
    return EXIT_UNKNOWN


def cmd_frame_formula(args) -> int:
    if args.cluster < 1:
        raise _UsageError("--cluster must be at least 1")
    f = frame_formula(cluster_frame(args.cluster, args.topped))
    _emit(args, {"formula": pretty(f)}, [pretty(f)])
    return EXIT_OK


def _read_formula_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().split("\n")
    except OSError as exc:
        raise _UsageError(f"cannot read formula file {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise _UsageError(f"cannot read formula file {path}: {exc}") from exc
    stripped = (line.split("#", 1)[0].strip() for line in lines)
    return [_formula(line) for line in stripped if line]


def _parse_bound(text: str):
    if text == "w":
        return OMEGA
    if text in ("1", "2"):
        return int(text)
    raise _UsageError(f"bound must be 1, 2 or w, got {text!r}")


def cmd_refine(args) -> int:
    try:
        model = kripke.load_model(args.model)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError,
            kripke.ModelError) as exc:
        raise _UsageError(f"cannot load model: {exc}") from exc
    closed = subformula_closure(to_core(f) for f in _read_formula_file(args.sigma))
    steps: list = []
    try:
        refined = refine.refine_model(
            model, closed, closed, _parse_bound(args.m), _parse_bound(args.n),
            step_log=steps,
        )
    except refine.RefinementError as exc:
        _emit(args, {"error": str(exc)}, [f"refinement failed: {exc}"])
        return EXIT_UNKNOWN
    encoded = kripke.model_to_dict(refined)
    lines = [
        f"refined {len(steps)} cluster(s): "
        + "; ".join(
            f"{step['cluster']} kept {step['kept']} (-{step['removed_edges']} edges)"
            for step in steps
        )
        if steps
        else "nothing to refine",
        _model_line(args, encoded, "refined model written to"),
    ]
    _emit(args, {"steps": steps, "model": encoded}, lines)
    return EXIT_OK


def cmd_smorynski(args) -> int:
    logic = _logic(args)
    seeds1 = _read_formula_file(args.sigma1)
    seeds2 = _read_formula_file(args.sigma2) if args.sigma2 else seeds1
    closure = SignedClosure.from_seeds(seeds1, seeds2)
    try:
        sm = smorynski.build_smorynski_model(closure, logic, _budget(args))
    except (smorynski.OracleUndecided, engine.BudgetExceeded) as exc:
        _emit(args, {"error": str(exc)}, [f"construction aborted: {exc}"])
        return EXIT_UNKNOWN
    encoded = sm.to_json_dict()
    worlds = len(sm.model.worlds)
    lines = [_model_line(args, encoded, f"{worlds} worlds written to")]
    _emit(args, {"worlds": worlds, "model": encoded}, lines)
    return EXIT_OK


def cmd_catalog(args) -> int:
    entries = engine.catalog()
    cip = sum(1 for e in entries if e.has_cip)
    dip = sum(1 for e in entries if e.has_dip)
    lines = [f"{'name':24} cip dip decidable aliases"]
    for e in entries:
        lines.append(
            f"{e.name:24} {'y' if e.has_cip else '.':3} {'y' if e.has_dip else '.':3} "
            f"{'y' if e.decidable_here else '.':9} {','.join(e.aliases)}"
        )
    lines.append(f"totals: {cip} with Craig interpolation, {dip} with deductive interpolation")
    payload = {
        "entries": [
            {
                "name": e.name,
                "family": e.family,
                "m": None if e.m is None else ("w" if e.m == OMEGA else int(e.m)),
                "n": None if e.n is None else ("w" if e.n == OMEGA else int(e.n)),
                "has_cip": e.has_cip,
                "has_dip": e.has_dip,
                "decidable_here": e.decidable_here,
                "aliases": list(e.aliases),
            }
            for e in entries
        ],
        "cip_count": cip,
        "dip_count": dip,
    }
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_selftest(args) -> int:
    names = args.suite or sorted(suites.SUITES)
    failures = 0
    for name in names:
        if name not in suites.SUITES:
            raise _UsageError(
                f"unknown suite {name!r}; available: {', '.join(sorted(suites.SUITES))}"
            )
        ok, detail = suites.SUITES[name](scale=args.scale)
        status = "PASS" if ok else "FAIL"
        print(f"{status} {name}: {detail}", flush=True)
        if not ok:
            failures += 1
    return EXIT_OK if failures == 0 else EXIT_NEGATIVE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gammalog",
        description="workbench for the cluster-bounded modal logics over S4",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_budget_flags(p):
        p.add_argument("--max-closure", type=int, default=None,
                       help="cap on type-space letters")
        p.add_argument("--max-worlds", type=int, default=None,
                       help="cap on model enumeration size")
        p.add_argument("--time-budget", type=float, default=None,
                       help="wall-clock limit in seconds for each engine call, "
                            "checked during model enumeration (default 30); a call "
                            "past it answers Unknown, exit 3. interpolate is "
                            "bounded as a whole: its candidate search checks the "
                            "limit before each candidate")

    p = sub.add_parser("parse", help="parse and reprint a formula")
    p.add_argument("formula")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("check", help="decide validity in a logic")
    p.add_argument("--logic", required=True)
    p.add_argument("--out", help="write the countermodel here when invalid")
    add_budget_flags(p)
    p.add_argument("formula")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("countermodel", help="search for a refuting class model")
    p.add_argument("--logic", required=True)
    p.add_argument("--max-worlds", type=int, default=5)
    p.add_argument("--out")
    p.add_argument("formula")
    p.set_defaults(func=cmd_countermodel)

    p = sub.add_parser("interpolate", help="find a Craig interpolant")
    p.add_argument("--logic", required=True)
    p.add_argument("--out", help="write the countermodel here when not valid")
    add_budget_flags(p)
    p.add_argument("premise")
    p.add_argument("conclusion")
    p.set_defaults(func=cmd_interpolate)

    p = sub.add_parser("frame-formula", help="print a cluster frame formula")
    p.add_argument("--cluster", type=int, required=True)
    p.add_argument("--topped", action="store_true")
    p.set_defaults(func=cmd_frame_formula)

    p = sub.add_parser("refine", help="refine a model's oversized clusters")
    p.add_argument("model")
    p.add_argument("--sigma", required=True, help="formula file to preserve")
    p.add_argument("--m", required=True, help="final cluster bound: 1|2|w")
    p.add_argument("--n", required=True, help="non-final cluster bound: 1|2|w")
    p.add_argument("--out")
    p.set_defaults(func=cmd_refine)

    p = sub.add_parser("smorynski", help="build and dump a Smorynski model")
    p.add_argument("--logic", required=True)
    p.add_argument("--sigma1", required=True, help="seed formula file, side 1")
    p.add_argument("--sigma2", help="seed formula file, side 2 (default: side 1)")
    p.add_argument("--out")
    add_budget_flags(p)
    p.set_defaults(func=cmd_smorynski)

    p = sub.add_parser("catalog", help="the interpolation classification")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("selftest", help="run the property suites")
    p.add_argument("--suite", action="append", help="restrict to named suites")
    p.add_argument("--scale", type=float, default=1.0,
                   help="scale factor for suite sizes (smaller is faster)")
    p.set_defaults(func=cmd_selftest)

    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    # building the parser costs far more than a parse, so build it once
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except BrokenPipeError:
        # the interpreter flushes what is left at exit: send it nowhere, silently
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _VerificationError as exc:
        _emit(args, {"error": str(exc)}, [f"error: {exc}"])
        return EXIT_UNKNOWN
    except RecursionError:
        message = "formula nested too deeply (maximum recursion depth exceeded)"
        _emit(args, {"error": message}, [f"error: {message}"])
        return EXIT_UNKNOWN


if __name__ == "__main__":
    sys.exit(main())
