"""Benchmark of invariant-eq-lab: three closed-loop workloads of CLI reports,
every answer checked by an independent oracle.

    python3 bench/run.py --workload {count,structure,extremal} --seed N \
        --seconds S --trace {0,1}
    python3 bench/run.py --self-test     # oracle self-test and metric names
    python3 bench/run.py --defects       # today's known wrong answers

Run it from the repository root; it imports the package from ./src.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a separate traced run with
``--trace 1``.  Scratch files go to ./.bench_run (removed on exit) and span
logs to ./.bench_out.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import oracles
from tracing import PER_LAYER
from workloads import CYCLES, Schedule

#: End-to-end metrics with their units and better direction, in output order.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p90_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]
#: Fresh interpreters timed per run for setup_s.
SETUP_PROBES = 7
#: Reports per second the traced mode plans for, so that its two passes
#: together take about --seconds.  A plan, not a measurement: the traced
#: run's report count must not depend on the machine's speed.
TRACE_RATE = {"count": 4.0, "structure": 5.0, "extremal": 6.0}
#: Every run ends within this many seconds of its start.
DEADLINE_S = 170


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def quantile(values, q):
    return float(np.quantile(np.asarray(values), q))


def setup_times(root, src, workdir, workload, deadline):
    """Wall time of fresh interpreters that import the package and run the
    workload's warm-up report, as a CLI user pays on every call."""
    report = Schedule(workload, 0, workdir).warmup()
    for path, text in report.files.items():
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    env = dict(os.environ, PYTHONPATH=src)
    times, outputs = [], []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "invariant_eq_lab", *report.argv],
            cwd=root, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
        times.append(time.perf_counter() - start)
        outputs.append((proc.returncode, proc.stdout))
    problems = oracles.check(report, *outputs[0])
    if len(set(outputs)) > 1:
        problems.append("set-up probes printed different reports")
    return statistics.median(times), problems


def cycle_rates(rows, workload):
    """Reports per second of each whole cycle of the report mix, in order.
    Every cycle holds the same kinds, so the rates differ only by the sizes
    drawn and by how fast the machine ran while the cycle ran."""
    n = len(CYCLES[workload])
    return [n / sum(row["latency_s"] for row in rows[i:i + n])
            for i in range(0, len(rows) - n + 1, n)]


def trace_reports(workload: str, seconds: int) -> int:
    """Reports in a traced run: whole cycles, about TRACE_RATE * seconds / 2."""
    cycle = len(CYCLES[workload])
    return cycle * max(1, round(seconds * TRACE_RATE[workload] / 2 / cycle))


def run_worker(root, src, workdir, args, mode, deadline):
    spec = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "mode": mode, "src": src, "workdir": workdir,
        "results": os.path.join(workdir, "results.jsonl"),
        "spans": os.path.join(root, ".bench_out", f"spans-{args.workload}-{args.seed}.jsonl.gz"),
        "reports": trace_reports(args.workload, args.seconds),
    }
    os.makedirs(os.path.dirname(spec["spans"]), exist_ok=True)
    spec_path = os.path.join(workdir, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    worker = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
    proc = subprocess.run([sys.executable, worker, spec_path], cwd=root,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    rows, summary = [], None
    with open(spec["results"], encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            if "summary" in row:
                summary = row["summary"]
            else:
                rows.append(row)
    if summary is None:
        raise RuntimeError("worker wrote no summary")
    return rows, summary


def check_rows(rows, args, workdir):
    """Oracle verdict per report: list of (row, problems)."""
    sched = Schedule(args.workload, args.seed, workdir)
    verdicts = []
    for row in rows:
        report = next(sched)
        if (report.index, report.kind) != (row["i"], row["kind"]):
            raise RuntimeError("worker and oracle disagree on the schedule")
        problems = oracles.check(report, row["rc"], row["out"])
        if row.get("same_as_untraced") is False:
            problems.append("traced output differs from the untraced output")
        verdicts.append((row, problems))
    return verdicts


def measure(args) -> int:
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "invariant_eq_lab", "cli.py")):
        return fail(f"no invariant_eq_lab sources under {src}; run from the repository root")
    deadline = time.monotonic() + DEADLINE_S
    workdir = os.path.join(root, ".bench_run", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    phases = {}
    try:
        setup_problems = []
        if not args.trace:
            setup_s, setup_problems = setup_times(root, src, workdir, args.workload, deadline)
        phases["setup"] = time.monotonic()
        rows, summary = run_worker(root, src, workdir, args, "traced" if args.trace else "timed",
                                   deadline)
        phases["worker"] = time.monotonic()
        verdicts = check_rows(rows, args, workdir)
        phases["oracles"] = time.monotonic()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [(row, problems) for row, problems in verdicts if problems]
    for row, problems in failed[:20]:
        print(f"FAILED report {row['i']} ({row['kind']}): {'; '.join(problems[:3])}",
              file=sys.stderr)
    for problem in setup_problems:
        print(f"FAILED warm-up report: {problem}", file=sys.stderr)
    latencies = [row["latency_s"] for row in rows]
    if args.trace:
        values = summary["per_layer"]
        units = PER_LAYER
    else:
        values = {
            "setup_s": setup_s,
            "ops_per_s": statistics.median(cycle_rates(rows, args.workload)),
            "latency_p50_ms": 1000 * quantile(latencies, 0.5),
            "latency_p90_ms": 1000 * quantile(latencies, 0.9),
            "peak_rss_mb": summary["peak_rss_mb"],
        }
        units = END_TO_END
    kinds = {}
    for row in rows:
        kinds.setdefault(row["kind"], []).append(1000 * row["latency_s"])
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"reports={len(rows)} failed={len(failed)} "
          f"fail_rate={len(failed) / len(rows):.4f} latency_samples={len(rows)} "
          f"cycles={len(rows) // len(CYCLES[args.workload])}")
    for kind, ms in sorted(kinds.items()):
        print(f"  {kind}: reports={len(ms)} median_ms={statistics.median(ms):.1f} "
              f"max_ms={max(ms):.1f}")
    start = deadline - DEADLINE_S
    print("wall_s " + " ".join(f"{k}={v - start:.1f}" for k, v in phases.items()))
    print(f"python={platform.python_version()} numpy={np.__version__} nproc={os.cpu_count()}")
    result = {
        "correct": not failed and not setup_problems,
        "attempted": len(rows),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in units},
    }
    print(json.dumps(result))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(CYCLES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--defects", action="store_true")
    args = parser.parse_args()
    if args.self_test or args.defects:
        import selftest

        return selftest.self_test() if args.self_test else selftest.defects()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
