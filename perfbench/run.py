"""gammalog benchmark: four closed-loop workloads, end-to-end and per layer.

    python3 perfbench/run.py [--workload canonical|refine|countermodel|decide|all]
                             [--seed N] [--trace 0|1]

Run from the repository root. Each pass is one fresh worker process that
imports gammalog from src/ and sends its ops one at a time (one client, no
threads) through `gammalog.cli.main`, so caches live for one pass and are
never shared. A run makes the workload's fixed number of passes, plus
set-up-only spawns, then checks every output with the independent checker
in check.py and prints each metric by name with its unit. The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 1 the metrics are the per-layer ones of layertrace.py, from
two traced passes, and the run also makes one untraced pass to report the
tracing overhead.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import check  # noqa: E402
import workloads  # noqa: E402

END_TO_END = [("run_s", "s"), ("op_p50_ms", "ms"), ("op_tail_ms", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MB")]
SETUP_SPAWNS = 12
TRACED_PASSES = 2
DEADLINE_S = 170.0

# (metric, unit, source): source is ("calls" | "self_s", function) or a
# counter name, or ("ratio", numerator counter, denominator function calls
# or counter)
PER_LAYER = [
    ("syntax.parse.calls", "count", ("calls", "syntax.parse")),
    ("syntax.parse.self_s", "s", ("self_s", "syntax.parse")),
    ("syntax.to_core.self_s", "s", ("self_s", "syntax.to_core")),
    ("syntax.pretty.self_s", "s", ("self_s", "syntax.pretty")),
    ("kripke.PreorderModel.calls", "count", ("calls", "kripke.PreorderModel")),
    ("kripke.PreorderModel.self_s", "s", ("self_s", "kripke.PreorderModel")),
    ("kripke.model_check.calls", "count", ("calls", "kripke.model_check")),
    ("kripke.model_check.self_s", "s", ("self_s", "kripke.model_check")),
    ("kripke.clusters.calls", "count", ("calls", "kripke.clusters")),
    ("kripke.clusters.self_s", "s", ("self_s", "kripke.clusters")),
    ("kripke.satisfies.calls", "count", ("calls", "kripke.satisfies")),
    ("frame_formulas.gamma.calls", "count", ("calls", "frame_formulas.gamma")),
    ("frame_formulas.gamma.self_s", "s", ("self_s", "frame_formulas.gamma")),
    ("smorynski.build_smorynski_model.calls", "count",
     ("calls", "smorynski.build_smorynski_model")),
    ("smorynski.build_smorynski_model.self_s", "s",
     ("self_s", "smorynski.build_smorynski_model")),
    ("smorynski.worlds", "count", "smorynski.worlds"),
    ("smorynski.SmorynskiModel.to_json_dict.self_s", "s",
     ("self_s", "smorynski.SmorynskiModel.to_json_dict")),
    ("refine.refine_model.calls", "count", ("calls", "refine.refine_model")),
    ("refine.refine_model.self_s", "s", ("self_s", "refine.refine_model")),
    ("refine.refine_cluster.calls", "count", ("calls", "refine.refine_cluster")),
    ("refine.refine_cluster.self_s", "s", ("self_s", "refine.refine_cluster")),
    ("refine.find_adequate_set.calls", "count", ("calls", "refine.find_adequate_set")),
    ("refine.find_adequate_set.self_s", "s", ("self_s", "refine.find_adequate_set")),
    ("refine.adequate_ratio", "ratio",
     ("ratio", "refine.find_adequate_set.found", "refine.find_adequate_set")),
    ("engine.TypeSpace.calls", "count", ("calls", "engine.TypeSpace")),
    ("engine.TypeSpace.self_s", "s", ("self_s", "engine.TypeSpace")),
    ("engine.TypeSpace.letters_max", "count", "engine.TypeSpace.letters_max"),
    ("engine.TypeSpace.types_sum", "count", "engine.TypeSpace.types_sum"),
    ("engine.sat.calls", "count", ("calls", "engine.sat")),
    ("engine.sat.distinct", "count", "engine.sat.distinct"),
    ("engine.sat.unknown", "count", "engine.sat.unknown"),
    ("engine.sat.self_s", "s", ("self_s", "engine.sat")),
    ("engine.eval_on_frame.calls", "count", ("calls", "engine.eval_on_frame")),
    ("engine.eval_on_frame.frames", "count", "engine.eval_on_frame.frames"),
    ("engine.eval_on_frame.self_s", "s", ("self_s", "engine.eval_on_frame")),
    ("engine.countermodel_search.calls", "count", ("calls", "engine.countermodel_search")),
    ("engine.countermodel_search.self_s", "s", ("self_s", "engine.countermodel_search")),
    ("engine.find_interpolant.calls", "count", ("calls", "engine.find_interpolant")),
    ("engine.find_interpolant.self_s", "s", ("self_s", "engine.find_interpolant")),
    ("engine.find_interpolant.candidates", "count", "engine.find_interpolant.candidates"),
    ("engine.find_interpolant.hit_ratio", "ratio",
     ("ratio", "engine.find_interpolant.interpolants", "engine.find_interpolant.candidates")),
    ("engine.equivalent.calls", "count", ("calls", "engine.equivalent")),
    ("engine.valid.calls", "count", ("calls", "engine.valid")),
    ("cli.main.calls", "count", ("calls", "cli.main")),
    ("cli.main.self_s", "s", ("self_s", "cli.main")),
]

# The layers that should carry each workload's time (see README.md).
EXPECTED_MAPPING = {
    "canonical": ["smorynski.build_smorynski_model", "engine.TypeSpace"],
    "refine": ["kripke.PreorderModel"],
    "countermodel": ["engine.eval_on_frame"],
}


class BenchError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Workers
# ---------------------------------------------------------------------------

class Runner:
    """Spawns workers for one workload run and keeps their result files."""

    def __init__(self, run_dir: str, deadline: float):
        self.run_dir = run_dir
        self.deadline = deadline
        self.count = 0

    def spawn(self, plan: str, setup_only: bool = False, traced: bool = False):
        """One worker: (set-up seconds, results path, trace summary path)."""
        self.count += 1
        results = os.path.join(self.run_dir, f"pass{self.count}.results")
        summary = os.path.join(self.run_dir, f"pass{self.count}.trace.json") if traced else None
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), SRC, plan, results]
        if setup_only:
            cmd.append("--setup-only")
        if summary:
            cmd += ["--trace", summary]
        env = dict(os.environ, PYTHONHASHSEED="0")
        env.pop("PYTHONPATH", None)
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                stdin=subprocess.DEVNULL)
        watchdog = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
        watchdog.start()
        try:
            line = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            proc.stdout.read()
            proc.wait()
        finally:
            watchdog.cancel()
            proc.stdout.close()
        if time.monotonic() >= self.deadline:
            raise BenchError("worker ran past the run's deadline")
        if line.strip() != b"ready" or proc.returncode != 0:
            raise BenchError(f"worker failed (exit {proc.returncode})")
        return setup_s, results, summary


def read_results(path: str) -> tuple[list[dict], dict]:
    """Op records (header fields plus "out") and the pass summary."""
    records, summary = [], None
    with open(path, "r", encoding="utf-8") as handle:
        while True:
            line = handle.readline()
            if not line:
                break
            header = json.loads(line)
            header["out"] = handle.read(header.pop("len"))
            if header.get("summary"):
                summary = header
            else:
                records.append(header)
    if summary is None:
        raise BenchError(f"worker left no summary in {path}")
    return records, summary


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def judge(op: dict, rec: dict) -> tuple[str, str]:
    """("ok" | "failed" | "wrong", detail). Wrong means a wrong definite
    answer or a witness that fails its check; failed means the op raised,
    ended Unknown or exited with a usage error."""
    if rec["exc"]:
        return "failed", rec["exc"]
    rc = rec["rc"]
    if rc in (2, 3):
        return "failed", f"exit {rc}: " + (rec["out"].strip()[:200] or rec["err"].strip()[:200])
    try:
        payload = json.loads(rec["out"])
    except ValueError:
        return "wrong", "output is not one JSON object"
    kind = op["kind"]
    if kind == "smorynski":
        if rc != 0:
            return "wrong", f"exit {rc}"
        counted = len(payload["model"]["worlds"])
        if not payload["worlds"] == counted == op["worlds"]:
            return "wrong", (f"{payload['worlds']} worlds reported, {counted} in the model, "
                             f"expected {op['worlds']}")
        problems = check.check_canonical(payload["model"], op["logic"], op["seeds"])
    elif kind == "refine":
        if rc != 0:
            return "wrong", f"exit {rc}"
        with open(op["model"], "r", encoding="utf-8") as handle:
            source = json.load(handle)
        with open(op["sigma"], "r", encoding="utf-8") as handle:
            sigma = [line.strip() for line in handle if line.strip()]
        problems = check.check_refined(payload, source, sigma, op["m"], op["n"])
    elif kind == "countermodel":
        if payload.get("found") != op["found"]:
            return "wrong", f"found={payload.get('found')}, expected {op['found']}"
        problems = (check.check_countermodel(payload, op["formula"], op["logic"])
                    if op["found"] else [])
    elif kind == "check":
        verdict = payload.get("verdict")
        if verdict != ("valid" if op["valid"] else "invalid"):
            return "wrong", f"verdict {verdict}, expected {'valid' if op['valid'] else 'invalid'}"
        problems = ([] if op["valid"] else
                    check.check_countermodel(payload, op["formula"], op["logic"]))
    elif kind == "interpolate":
        if op["valid"]:
            if "interpolant" not in payload:
                return "wrong", f"no interpolant: {payload.get('verdict')}"
            problems = check.check_interpolant(payload["interpolant"], op["premise"],
                                               op["conclusion"], op["logic"])
        else:
            if payload.get("verdict") != "not-valid":
                return "wrong", "expected not-valid"
            implication = f"({op['premise']}) -> ({op['conclusion']})"
            problems = check.check_countermodel(payload, implication, op["logic"])
    else:
        raise BenchError(f"unknown op kind {kind}")
    return ("wrong", "; ".join(problems)) if problems else ("ok", "")


class Judge:
    """Judges records once per distinct (op, output), after all passes."""

    def __init__(self, ops: dict):
        self.ops = ops
        self.seen: dict = {}

    def __call__(self, rec: dict) -> tuple[str, str]:
        key = (rec["id"], rec["rc"], rec["exc"], hash(rec["out"]))
        if key not in self.seen:
            self.seen[key] = judge(self.ops[rec["id"]], rec)
        return self.seen[key]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def tail(latencies: list[float]) -> float:
    """Latency at the highest percentile with at least 10 ops beyond it."""
    ordered = sorted(latencies)
    return ordered[max(0, len(ordered) - 11)]


def layer_value(summary: dict, source) -> float:
    if isinstance(source, str):
        return summary["counters"].get(source, 0)
    if source[0] == "ratio":
        num = summary["counters"].get(source[1], 0)
        den = summary["calls"].get(source[2], summary["counters"].get(source[2], 0))
        return num / den if den else 0.0
    return summary[source[0]][source[1]]


def repeat_mismatches(summaries: list[dict]) -> list[str]:
    """Counts of the first traced pass that another pass does not repeat."""
    first = summaries[0]
    out = []
    for other in summaries[1:]:
        for name, calls in first["calls"].items():
            if other["calls"][name] != calls:
                out.append(f"{name}.calls {calls} vs {other['calls'][name]}")
        keys = set(first["counters"]) | set(other["counters"])
        for name in sorted(keys):
            a, b = first["counters"].get(name, 0), other["counters"].get(name, 0)
            if a != b:
                out.append(f"{name} {a} vs {b}")
        for op in sorted(set(first["per_op"]) | set(other["per_op"]), key=int):
            if first["per_op"].get(op) != other["per_op"].get(op):
                out.append(f"per-op counts of op {op}")
    return out


def provenance(seed: int) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    lines = 0
    for path in glob.glob(os.path.join(SRC, "gammalog", "*.py")):
        with open(path, "r", encoding="utf-8") as handle:
            lines += sum(1 for _ in handle)
    return {"seed": seed, "commit": commit, "python": platform.python_version(),
            "nproc": os.cpu_count(), "src_lines": lines}


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------

def write_plan(path: str, ops: list[dict], probes: list[dict]) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"ops": [{"id": o["id"], "argv": o["argv"]} for o in ops],
                   "probes": [{"id": o["id"], "argv": o["argv"]} for o in probes]}, handle)
    return path


def run_workload(name: str, seed: int, traced: bool, deadline: float) -> dict:
    run_dir = os.path.join(HERE, ".runs", f"{name}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        return _run_workload(name, seed, traced, Runner(run_dir, deadline))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _run_workload(name: str, seed: int, traced: bool, runner: Runner) -> dict:
    ops, probes = workloads.build(name, seed, runner.run_dir)
    for op in ops:
        for path, text in op.get("files", []):
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
    first_plan = write_plan(os.path.join(runner.run_dir, "plan1.json"), ops, probes)
    plan = write_plan(os.path.join(runner.run_dir, "plan.json"), ops, [])
    n_passes = 1 if traced else workloads.WORKLOADS[name]

    # set-up spawns before, between and after the passes sample several
    # spells of the machine
    gaps = [SETUP_SPAWNS * (i + 1) // (n_passes + 1) - SETUP_SPAWNS * i // (n_passes + 1)
            for i in range(n_passes + 1)]
    setups = [runner.spawn(plan, setup_only=True)[0] for _ in range(gaps[0])]
    untraced, traced_runs = [], []
    for i in range(n_passes):
        setup_s, results, _ = runner.spawn(first_plan if i == 0 else plan)
        setups.append(setup_s)
        untraced.append(read_results(results))
        setups += [runner.spawn(plan, setup_only=True)[0] for _ in range(gaps[i + 1])]
    if traced:
        for _ in range(TRACED_PASSES):
            _, results, summary_path = runner.spawn(plan, traced=True)
            with open(summary_path, "r", encoding="utf-8") as handle:
                traced_runs.append((read_results(results), json.load(handle)))
        spans_dir = os.path.join(HERE, ".trace")
        os.makedirs(spans_dir, exist_ok=True)
        shutil.copyfile(summary_path + ".spans.jsonl",
                        os.path.join(spans_dir, f"{name}.spans.jsonl"))

    # every timed region is over: check the outputs
    judge_rec = Judge({op["id"]: op for op in ops + probes})
    passes_checked = untraced + [r for r, _ in traced_runs]
    attempted = failed = wrong = 0
    failures, latencies, probe_report = {}, [], []
    for records, _ in passes_checked:
        for rec in records:
            verdict, detail = judge_rec(rec)
            if rec.get("probe"):
                probe_report.append((rec["id"], verdict, detail))
                wrong += verdict == "wrong"
                continue
            attempted += 1
            latencies.append(rec["s"])
            if verdict != "ok":
                failed += 1
                wrong += verdict == "wrong"
                failures.setdefault(rec["id"], f"{verdict}: {detail}")

    result = {"workload": name, "correct": wrong == 0, "attempted": attempted,
              "failed": failed, "failures": failures, "probes": probe_report,
              "passes": len(untraced), "ops_per_pass": len(ops)}
    run_times = [s["run_s"] for _, s in untraced]
    if not traced:
        result["metrics"] = {
            "run_s": statistics.median(run_times),
            "op_p50_ms": 1000 * statistics.median(latencies),
            "op_tail_ms": 1000 * tail(latencies),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for _, s in untraced),
        }
        return result
    summaries = [s for _, s in traced_runs]
    traced_times = [s["run_s"] for (_, s), _ in traced_runs]
    metrics = {}
    for metric, unit, source in PER_LAYER:
        values = [layer_value(s, source) for s in summaries]
        # counts repeat (checked below); times are medians of the passes
        metrics[metric] = statistics.median(values) if unit == "s" else values[0]
    result["metrics"] = metrics
    result["traced_run_s"] = statistics.median(traced_times)
    result["untraced_run_s"] = run_times[0]
    result["overhead"] = result["traced_run_s"] / run_times[0] - 1
    result["repeat_mismatches"] = repeat_mismatches(summaries)
    result["self_s"] = {k: statistics.median(s["self_s"][k] for s in summaries)
                        for k in summaries[0]["self_s"]}
    return result


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def report(result: dict, traced: bool) -> None:
    name = result["workload"]
    print(f"== {name}: {result['passes']} untraced pass(es) of {result['ops_per_pass']} ops; "
          f"{result['attempted']} ops checked, {result['failed']} failed, "
          f"correct={result['correct']}")
    share = result["failed"] / result["attempted"]
    known = [p for p in result["probes"] if p[1] != "ok"]
    with_known = (result["failed"] + len(known)) / (result["attempted"] + len(result["probes"]))
    print(f"{name}.failed_share = {share:.6g} ratio (with known defects: {with_known:.6g})")
    for op_id, detail in sorted(result["failures"].items()):
        print(f"  failed op: {op_id}: {detail}")
    if result["probes"]:
        print(f"{name}: known defects run after the timed ops: {len(known)} of "
              f"{len(result['probes'])} still fail")
        for op_id, verdict, detail in result["probes"]:
            state = "still fails" if verdict == "failed" else (
                "FIXED" if verdict == "ok" else "WRONG ANSWER")
            print(f"  known defect: {op_id}: {state}: {detail[:120]}")
    if not traced:
        for metric, unit in END_TO_END:
            print(f"{name}.{metric} = {result['metrics'][metric]:.6g} {unit}")
        return
    units = {metric: unit for metric, unit, _ in PER_LAYER}
    for metric, value in result["metrics"].items():
        print(f"{name}.{metric} = {value:.6g} {units[metric]}")
    print(f"{name}: traced run_s {result['traced_run_s']:.4g} s vs untraced "
          f"{result['untraced_run_s']:.4g} s: tracing overhead {100 * result['overhead']:.1f}%")
    mism = result["repeat_mismatches"]
    print(f"{name}: counts repeat across {TRACED_PASSES} traced passes of seed: "
          + ("yes" if not mism else f"NO ({len(mism)}): " + "; ".join(mism[:10])))
    self_s = result["self_s"]
    top = sorted(self_s, key=self_s.get, reverse=True)[:3]
    print(f"{name}: largest self times: " + ", ".join(
        f"{k} {self_s[k]:.3g} s ({100 * self_s[k] / result['traced_run_s']:.0f}%)" for k in top))
    if name in EXPECTED_MAPPING:
        layers = EXPECTED_MAPPING[name]
        share = sum(self_s[k] for k in layers) / result["traced_run_s"]
        verdict = "holds" if share > 0.5 else "DOES NOT HOLD"
        print(f"{name}: expected mostly {' + '.join(k + '.self_s' for k in layers)}: "
              f"{100 * share:.0f}% of traced run_s, mapping {verdict}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    # Runs of the BENCHMARK.json command also pass --seconds <run_seconds>.
    # A run's work is fixed by the workload's pass count, so it is not used.
    parser.add_argument("--seconds", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gammalog", "cli.py")):
        print(f"error: no gammalog sources under {SRC}", file=sys.stderr)
        return 2
    traced = bool(args.trace)
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    print("provenance: " + json.dumps(provenance(args.seed), sort_keys=True))
    results = []
    for name in names:
        deadline = time.monotonic() + DEADLINE_S
        try:
            result = run_workload(name, args.seed, traced, deadline)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        report(result, traced)
        results.append(result)
    units = dict(END_TO_END) if not traced else {m: u for m, u, _ in PER_LAYER}
    prefix = len(results) > 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (f"{r['workload']}.{m}" if prefix else m): {"value": v, "unit": units[m]}
            for r in results for m, v in r["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
