"""Per-layer tracing of gammalog from outside the package.

`install` replaces each traced public function at every module binding that
refers to it (and `__init__` for classes) with a wrapper that records the
call. Spans keep their op id and parent span and stay in memory until
`write_spans`. Hot recursive leaves are aggregated instead of stored one
span per call. Only the outermost call of a function counts, so recursion
inside a traced function is part of that call's self time.
"""

from __future__ import annotations

import importlib
import json
from time import perf_counter

MODULES = ("syntax", "kripke", "frame_formulas", "smorynski", "refine", "engine", "cli")

# (module, attribute path, stored as spans). Classes are traced at __init__.
TARGETS = (
    ("syntax", "parse", True),
    ("syntax", "to_core", False),
    ("syntax", "pretty", False),
    ("kripke", "PreorderModel", True),
    ("kripke", "model_check", False),
    ("kripke", "clusters", True),
    ("kripke", "satisfies", True),
    ("frame_formulas", "gamma", True),
    ("smorynski", "build_smorynski_model", True),
    ("smorynski", "SmorynskiModel.to_json_dict", True),
    ("refine", "refine_model", True),
    ("refine", "refine_cluster", True),
    ("refine", "find_adequate_set", True),
    ("engine", "TypeSpace", True),
    ("engine", "sat", True),
    ("engine", "eval_on_frame", False),
    ("engine", "countermodel_search", True),
    ("engine", "find_interpolant", True),
    ("engine", "equivalent", True),
    ("engine", "valid", True),
    ("cli", "main", True),
)

NAMES = tuple(f"{module}.{path}" for module, path, _ in TARGETS)
_ID = {name: i for i, name in enumerate(NAMES)}


class Tracer:
    """Aggregates of one worker process: totals, per-op counts and spans."""

    def __init__(self):
        self.enabled = False
        self.op = -1
        self.stack: list[list] = []
        self.spans: list[tuple] = []
        n = len(NAMES)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        # counters named "<function>.<stat>" beyond calls and self time
        self.counters: dict[str, float] = {}
        # op index -> {counter name: value}, for the repeatability check
        self.per_op: dict[int, dict[str, float]] = {}
        self._sat_keys: set = set()
        self._last_succ = None

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount
        per = self.per_op.setdefault(self.op, {})
        per[name] = per.get(name, 0) + amount

    def peak(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, 0), value)

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, op, fid, t0, t1 in self.spans:
                handle.write(json.dumps({"span": span_id, "parent": parent, "op": op,
                                         "name": NAMES[fid], "start": t0, "end": t1}) + "\n")

    def summary(self) -> dict:
        return {
            "calls": dict(zip(NAMES, self.calls)),
            "self_s": dict(zip(NAMES, self.self_s)),
            "counters": self.counters,
            "per_op": {str(op): counts for op, counts in self.per_op.items()},
        }


def _hooks(engine):
    """Counters read from arguments and results: (enter, exit) per name."""

    def typespace_exit(tr, args, kwargs, result):
        space = args[0]
        tr.peak("engine.TypeSpace.letters_max", space.k)
        tr.count("engine.TypeSpace.types_sum", len(space.coherent))

    def sat_exit(tr, args, kwargs, result):
        budget = args[2] if len(args) > 2 else kwargs.get("budget")
        key = (args[0], args[1], budget)
        if key not in tr._sat_keys:
            tr._sat_keys.add(key)
            tr.count("engine.sat.distinct")
        if isinstance(result, engine.Unknown):
            tr.count("engine.sat.unknown")

    def eval_enter(tr, args, kwargs, frame):
        succ = args[0]
        if succ is not tr._last_succ:
            tr._last_succ = succ
            tr.count("engine.eval_on_frame.frames")

    def smorynski_exit(tr, args, kwargs, result):
        tr.count("smorynski.worlds", len(result.model.worlds))

    def adequate_exit(tr, args, kwargs, result):
        if result is not None:
            tr.count("refine.find_adequate_set.found")

    def interpolant_enter(tr, args, kwargs, frame):
        frame[4] = {"f1": args[0], "outer_seen": False}

    def interpolant_exit(tr, args, kwargs, result):
        if isinstance(result, engine.Interpolant):
            tr.count("engine.find_interpolant.interpolants")

    def valid_enter(tr, args, kwargs, frame):
        # a candidate is a left check valid(f1 -> chi) made directly by
        # find_interpolant after its outer check valid(f1 -> f2)
        if len(tr.stack) < 2:
            return
        parent = tr.stack[-2]
        if parent[0] != _ID["engine.find_interpolant"]:
            return
        f, ctx = args[0], parent[4]
        if isinstance(f, engine.Implies) and f.left == ctx["f1"]:
            if ctx["outer_seen"]:
                tr.count("engine.find_interpolant.candidates")
            else:
                ctx["outer_seen"] = True

    return {
        "engine.TypeSpace": (None, typespace_exit),
        "engine.sat": (None, sat_exit),
        "engine.eval_on_frame": (eval_enter, None),
        "smorynski.build_smorynski_model": (None, smorynski_exit),
        "refine.find_adequate_set": (None, adequate_exit),
        "engine.find_interpolant": (interpolant_enter, interpolant_exit),
        "engine.valid": (valid_enter, None),
    }


def _wrap(tr: Tracer, fn, name: str, store: bool, enter, exit_):
    fid = _ID[name]
    active = [False]

    def traced(*args, **kwargs):
        if active[0] or not tr.enabled:
            return fn(*args, **kwargs)
        active[0] = True
        stack = tr.stack
        parent = stack[-1] if stack else None
        # [function id, start, child time, span id, hook context]
        frame = [fid, 0.0, 0.0, len(tr.spans), None]
        stack.append(frame)
        if enter is not None:
            enter(tr, args, kwargs, frame)
        if store:
            tr.spans.append(None)
        frame[1] = t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            active[0] = False
            stack.pop()
            dur = t1 - t0
            tr.calls[fid] += 1
            tr.self_s[fid] += dur - frame[2]
            per = tr.per_op.setdefault(tr.op, {})
            per[name] = per.get(name, 0) + 1
            if parent is not None:
                parent[2] += dur
            if store:
                tr.spans[frame[3]] = (frame[3], parent[3] if parent else None,
                                      tr.op, fid, t0, t1)
        if exit_ is not None:
            exit_(tr, args, kwargs, result)
        return result

    traced.__wrapped__ = fn
    return traced


def install(tracer: Tracer) -> None:
    """Wrap every target at every gammalog module binding that refers to it."""
    package = importlib.import_module("gammalog")
    modules = [package] + [importlib.import_module(f"gammalog.{m}") for m in MODULES]
    engine = importlib.import_module("gammalog.engine")
    hooks = _hooks(engine)
    for module_name, path, store in TARGETS:
        name = f"{module_name}.{path}"
        enter, exit_ = hooks.get(name, (None, None))
        obj = importlib.import_module(f"gammalog.{module_name}")
        for part in path.split("."):
            owner, obj = obj, getattr(obj, part)
        if isinstance(obj, type):
            obj.__init__ = _wrap(tracer, obj.__init__, name, store, enter, exit_)
        elif isinstance(owner, type):
            setattr(owner, path.split(".")[-1], _wrap(tracer, obj, name, store, enter, exit_))
        else:
            wrapped = _wrap(tracer, obj, name, store, enter, exit_)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is obj:
                        setattr(module, attr, wrapped)
