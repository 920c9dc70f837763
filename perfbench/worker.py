"""One benchmark pass in a fresh process.

Usage: worker.py SRC OPS RESULTS [--setup-only] [--trace SUMMARY]

Imports gammalog from SRC, reads the op list OPS, and prints "ready" once
set up. It then sends the ops one at a time through the front door,
`gammalog.cli.main([... "--format", "json" ...])`, with stdout and stderr
captured, and appends one record per op to RESULTS: a JSON header line
followed by the captured stdout text. The probes of the op file run after
the timed ops. The last record is a summary with the timed-run wall time
and the peak resident memory, less file-backed pages, at the end of the
timed ops.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time


def _run_op(main, argv):
    out, err = io.StringIO(), io.StringIO()
    exc = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["--format", "json"] + argv)
    except Exception as e:  # a raising op is a failed op, not a failed run
        rc, exc = None, f"{type(e).__name__}: {str(e)[:200]}"
    return rc, time.perf_counter() - t0, out.getvalue(), err.getvalue()[-2000:], exc


def _peak_rss_mb() -> float:
    """Peak RSS of this process image less its file-backed pages: VmHWM
    minus RssFile and RssShmem, read together.

    VmHWM starts afresh at exec (ru_maxrss also counts the parent's memory
    that the fork copied). Its file part, the mapped pages of the
    interpreter and its libraries, depends on what the host's page cache
    holds and may reclaim, and moves by megabytes between runs of the same
    code; the anonymous part is the program's own heap."""
    fields = {}
    with open("/proc/self/status", "r", encoding="ascii") as handle:
        for line in handle:
            key, _, value = line.partition(":")
            if key in ("VmHWM", "RssFile", "RssShmem"):
                fields[key] = int(value.split()[0])
    return (fields["VmHWM"] - fields["RssFile"] - fields.get("RssShmem", 0)) / 1024.0


def _write(handle, header: dict, text: str = "") -> None:
    header["len"] = len(text)
    handle.write(json.dumps(header) + "\n")
    handle.write(text)


def main(argv: list[str]) -> int:
    src, ops_path, results_path = argv[:3]
    setup_only = "--setup-only" in argv
    summary_path = argv[argv.index("--trace") + 1] if "--trace" in argv else None

    sys.path.insert(0, src)
    import gammalog
    from gammalog import cli  # imports every layer
    if not os.path.abspath(gammalog.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"gammalog imported from {gammalog.__file__}, not {src}", file=sys.stderr)
        return 2
    with open(ops_path, "r", encoding="utf-8") as handle:
        plan = json.load(handle)
    tracer = None
    if summary_path:
        from layertrace import Tracer, install
        tracer = Tracer()
        install(tracer)
    print("ready", flush=True)
    if setup_only:
        return 0

    with open(results_path, "w", encoding="utf-8") as handle:
        if tracer is not None:
            tracer.enabled = True
        first = time.perf_counter()
        for index, op in enumerate(plan["ops"]):
            if tracer is not None:
                tracer.op = index
            # cli.main is the traced wrapper once the tracer is installed
            rc, dt, out, err, exc = _run_op(cli.main, op["argv"])
            _write(handle, {"id": op["id"], "rc": rc, "s": dt, "err": err, "exc": exc}, out)
        run_s = time.perf_counter() - first
        if tracer is not None:
            tracer.enabled = False
        peak_rss_mb = _peak_rss_mb()
        for op in plan.get("probes", []):
            rc, dt, out, err, exc = _run_op(cli.main, op["argv"])
            _write(handle, {"id": op["id"], "rc": rc, "s": dt, "err": err, "exc": exc,
                            "probe": True}, out)
        _write(handle, {"summary": True, "run_s": run_s, "peak_rss_mb": peak_rss_mb})
    if tracer is not None:
        with open(summary_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.summary(), handle)
        tracer.write_spans(summary_path + ".spans.jsonl")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
