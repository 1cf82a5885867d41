"""Oracle self-test and the known-defect probes.

``self_test`` runs one report of every kind in-process, requires its oracle
to accept the real answer and to reject a corrupted one (a count total plus
one, a dropped period, a flipped ``diagonal_ok``, a wrong step density, ...),
and checks that BENCHMARK.json names every metric the benchmark prints, with
the same unit.

``defects`` runs today's known wrong answers, which the workloads keep out
because every workload must run without failures: full-group counts whose
answer p^(k-1) lies beyond float64's exact integers, and dense k = 6 counts
at p ~ 10^4.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
import tempfile

import oracles
from tracing import PER_LAYER, Tracer
from workloads import CYCLES, Schedule, fmt, random_equation


def _cli():
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from invariant_eq_lab import bohr, cli

    return cli, bohr


def _run(cli, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _corrupt(kind: str, report: dict) -> str:
    """Damage one answer of the report; returns what was changed."""
    if kind.startswith("count"):
        report["total"] += 1
        return "count total plus 1"
    if kind == "spectrum":
        report["frequencies"] = report["frequencies"][1:]
        return "dropped frequency"
    if kind == "bohr":
        report["size"] += 1
        return "Bohr size plus 1"
    if kind == "periods":
        report["periods"] = report["periods"][1:]
        return "dropped period"
    if kind.startswith("increment"):
        report["steps"][-1]["density"] *= 1.01
        return "wrong step density"
    report["diagonal_ok"] = not report["diagonal_ok"]
    return "flipped diagonal_ok"


def self_test() -> int:
    cli, bohr = _cli()
    ok = True
    with tempfile.TemporaryDirectory(dir=os.getcwd(), prefix=".bench_selftest-") as workdir:
        for workload, cycle in sorted(CYCLES.items()):
            sched = Schedule(workload, 12345, workdir)
            todo = set(cycle)
            while todo:
                report = next(sched)
                if report.kind not in todo:
                    continue
                todo.discard(report.kind)
                for path, text in report.files.items():
                    with open(path, "w", encoding="ascii") as fh:
                        fh.write(text)
                bohr._radii.cache_clear()
                rc, text = _run(cli, report.argv)
                clean = oracles.check(report, rc, text)
                damaged = json.loads(text) if rc == 0 else {}
                what = _corrupt(report.kind, damaged) if damaged else "nothing"
                caught = oracles.check(report, 0, json.dumps(damaged)) if damaged else []
                good = not clean and bool(caught)
                ok &= good
                print(f"{'PASS' if good else 'FAIL'} {workload}/{report.kind}: answer "
                      f"{'accepted' if not clean else 'rejected: ' + clean[0]}; "
                      f"{what} {'caught' if caught else 'NOT caught'}")
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    from run import END_TO_END

    named = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    printed = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}
    emitted = set(Tracer().metrics(0, 0, 0)) | {
        "trace.reports", "trace.untraced_ops_per_s", "trace.traced_ops_per_s",
        "trace.overhead_share",
    }
    layer_names = {name for name, _, _ in PER_LAYER}
    good = named == printed and emitted == layer_names
    ok &= good
    print(f"{'PASS' if good else 'FAIL'} metric names and units: "
          f"{len(printed)} printed, {len(named)} in BENCHMARK.json, "
          f"mismatched {sorted(set(named.items()) ^ set(printed.items()))}, "
          f"untracked {sorted(emitted ^ layer_names)}")
    return 0 if ok else 1


def defects() -> int:
    cli, _ = _cli()
    rng = random.Random(2003)
    probes = [(2003, (1, 1, 1, 1, 1, -5), None), (211, (1,) * 7 + (-7,), None),
              (8501, (1, 1, 1, 1, -4), None)]
    for p in (9239, 9319, 9817, 10427):
        probes.append((p, random_equation(rng, 6), tuple(sorted(rng.sample(range(p), p // 2)))))
    with tempfile.TemporaryDirectory(dir=os.getcwd(), prefix=".bench_defects-") as workdir:
        for p, eq, A in probes:
            argv = ["count", "--p", str(p), "--eq=" + fmt(eq)]
            if A is None:
                argv.append("--full-group")
                want = p ** (len(eq) - 1)
            else:
                path = os.path.join(workdir, "A.txt")
                with open(path, "w", encoding="ascii") as fh:
                    fh.write("".join(f"{a}\n" for a in A))
                argv += ["--set-file", path]
                want = oracles.cyclic_count(A, eq, p)
            rc, text = _run(cli, argv)
            got = json.loads(text)["total"] if rc == 0 else None
            what = "full group" if A is None else f"|A|={len(A)}"
            diff = got - want if got is not None else f"exit {rc}"
            print(f"p={p} k={len(eq)} {what}: want {want}, got {got}, off by {diff}")
    return 0
