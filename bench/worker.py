"""The workload's process: one closed-loop client running CLI reports
in-process through ``invariant_eq_lab.cli.main``.

Usage: python3 bench/worker.py SPEC.json

SPEC names the workload, seed, mode, source directory, work directory and
the result file.  Mode ``timed`` runs whole cycles of the workload's report
mix until their summed latency reaches ``seconds`` and at least MIN_REPORTS
have run, so the 90th percentile has ten samples beyond it; it stops at the
end of the cycle that passes twice ``seconds`` in any case.  Mode
``traced`` runs a fixed number of reports twice, first untraced and then
traced, so its counts repeat exactly for a seed and the two passes give the
tracing overhead.  Each report's inputs are written
and its cache state reset before its clock starts; its output is written to
the result file after the clock stops.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

from workloads import CYCLES, Schedule

MIN_REPORTS = 100


def run_one(cli, report):
    """(exit code, stdout, stderr, seconds) for one report; files already written."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(report.argv)
    except Exception:  # a crash is a failed report, not a failed run
        rc = 99
        err.write(traceback.format_exc())
    elapsed = time.perf_counter() - start
    return rc, out.getvalue(), err.getvalue(), elapsed


def write_files(report):
    for path, text in report.files.items():
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)


def remove_files(report):
    for path in report.files:
        os.remove(path)


def timed(spec, sched, execute, results) -> dict:
    """Closed loop over whole cycles until the time budget and the minimum
    report count are met."""
    cycle = len(CYCLES[spec["workload"]])
    busy, n = 0.0, 0
    while n % cycle or busy < spec["seconds"] or (n < MIN_REPORTS and busy < 2 * spec["seconds"]):
        report = next(sched)
        rc, text, err, elapsed = execute(report)
        busy, n = busy + elapsed, n + 1
        results.write(json.dumps({"i": report.index, "kind": report.kind, "rc": rc,
                                  "latency_s": elapsed, "out": text, "err": err}) + "\n")
    return {}


def traced(spec, sched, execute, results, bohr) -> dict:
    """The first ``reports`` reports untraced, then again traced."""
    from tracing import Tracer

    n = spec["reports"]
    untraced = []
    for report in (next(sched) for _ in range(n)):
        rc, text, err, elapsed = execute(report)
        untraced.append((rc, text, elapsed))
    tracer = Tracer()
    tracer.install()
    traced_busy, output_bytes, hits, misses = 0.0, 0, 0, 0
    try:
        again = Schedule(spec["workload"], spec["seed"], spec["workdir"])
        for report, (rc0, text0, _) in zip((next(again) for _ in range(n)), untraced):
            tracer.report = report.index
            rc, text, err, elapsed = execute(report)
            info = bohr._radii.cache_info()
            hits, misses = hits + info.hits, misses + info.misses
            traced_busy += elapsed
            output_bytes += len(text.encode("utf-8"))
            results.write(json.dumps({
                "i": report.index, "kind": report.kind, "rc": rc, "latency_s": elapsed,
                "out": text, "err": err, "same_as_untraced": (rc, text) == (rc0, text0),
            }) + "\n")
    finally:
        tracer.uninstall()
    untraced_busy = sum(e for _, _, e in untraced)
    metrics = tracer.metrics(output_bytes, hits, misses)
    metrics["trace.reports"] = n
    metrics["trace.untraced_ops_per_s"] = n / untraced_busy
    metrics["trace.traced_ops_per_s"] = n / traced_busy
    metrics["trace.overhead_share"] = 1 - untraced_busy / traced_busy
    tracer.write(spec["spans"])
    return {"per_layer": metrics}


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    from invariant_eq_lab import bohr, cli

    def execute(report):
        write_files(report)
        bohr._radii.cache_clear()
        try:
            return run_one(cli, report)
        finally:
            remove_files(report)

    sched = Schedule(spec["workload"], spec["seed"], spec["workdir"])
    execute(sched.warmup())
    with open(spec["results"], "w", encoding="utf-8") as results:
        if spec["mode"] == "timed":
            summary = timed(spec, sched, execute, results)
        else:
            summary = traced(spec, sched, execute, results, bohr)
        summary["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        results.write(json.dumps({"summary": summary}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
