"""Command-line front end: reproducible experiments with JSON/CSV reports.

Subcommands: count, behrend, bohr, spectrum, periods, increment, sidon.
Reports are deterministic byte for byte given identical arguments (seed
included); floats are serialized with 12 significant digits and JSON keys
are sorted.  Exit codes: 0 success, 2 input error, 3 internal invariant
violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import random
import sys
from typing import Optional, Sequence

from . import behrend as behrend_mod
from . import bohr as bohr_mod
from . import equations as eq_mod
from . import fourier, periodicity
from .cyclic import IntervalSet, PrimeCyclicGroup, ResidueSet, embed_interval
from .errors import InvariantViolation

SCHEMA = "invariant-eq-lab/1"


def _round_floats(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, list) and all(type(v) is int for v in obj):
        return obj  # nothing to round, and periods reports hold thousands
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _render_json(report: dict) -> str:
    return json.dumps(_round_floats(report), sort_keys=True, indent=2) + "\n"


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return ";".join(_csv_cell(v) for v in value)
    return str(value)


def _render_csv(report: dict) -> str:
    rows = None
    scalars = {}
    for key, value in report.items():
        if isinstance(value, list) and value and all(isinstance(v, dict) for v in value):
            rows = value
        elif isinstance(value, dict):
            for sub, v in value.items():
                scalars[f"{key}.{sub}"] = v
        else:
            scalars[key] = value
    lines = [f"# {k}={_csv_cell(v)}" for k, v in sorted(scalars.items())]
    if rows is not None:
        header = sorted(rows[0].keys())
        lines.append(",".join(header))
        for row in rows:
            lines.append(",".join(_csv_cell(row[k]) for k in header))
    else:
        header = sorted(k for k in scalars)
        lines = [",".join(header), ",".join(_csv_cell(scalars[k]) for k in header)]
    return "\n".join(lines) + "\n"


def _parse_int_list(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError as exc:
        raise ValueError(f"could not parse {what} {text!r}: {exc}") from None


def _read_set_file(path: str) -> tuple[int, ...]:
    with open(path, "r", encoding="ascii") as fh:
        values = []
        for line in fh:
            line = line.strip()
            if line:
                values.append(int(line))
    return tuple(values)


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", metavar="FILE", default=None)


def _add_set_source(sp: argparse.ArgumentParser) -> None:
    src = sp.add_mutually_exclusive_group()
    src.add_argument("--set", metavar="LIST", default=None, help="inline comma-separated integers")
    src.add_argument("--set-file", metavar="FILE", default=None, help="one integer per line")
    src.add_argument("--full-group", action="store_true")
    src.add_argument("--random", type=int, metavar="SIZE", default=None, help="seeded random set")
    src.add_argument(
        "--behrend", metavar="M,D,DPRIME,K", default=None, help="generated extremal set"
    )


def _resolve_elements(args, domain_size: int, lo: int) -> tuple[int, ...]:
    """Raw elements from whichever set source was given; domain is
    [lo, lo + domain_size)."""
    if args.set is not None:
        return _parse_int_list(args.set, "set")
    if args.set_file is not None:
        return _read_set_file(args.set_file)
    if args.full_group:
        return tuple(range(lo, lo + domain_size))
    if args.random is not None:
        if not 0 <= args.random <= domain_size:
            raise ValueError(f"random size {args.random} outside [0, {domain_size}]")
        rng = random.Random(args.seed)
        return tuple(sorted(rng.sample(range(lo, lo + domain_size), args.random)))
    raise ValueError("no set given: use --set, --set-file, --full-group, --random or --behrend")


def _behrend_output(spec: str) -> behrend_mod.BehrendOutput:
    m, d, dp, k = _parse_int_list(spec, "behrend parameters")
    return behrend_mod.build_behrend(behrend_mod.BehrendParams(m, d, dp, k))


def _resolve_counting_input(args):
    """Build either (ResidueSet, None) or (IntervalSet, embedding) from the
    set source and the --p / --N mode flags."""
    eq = eq_mod.InvariantEquation(_parse_int_list(args.eq, "equation"))
    if args.behrend is not None:
        interval = _behrend_output(args.behrend).interval_set
        if args.p is not None:
            group = PrimeCyclicGroup(args.p)
            return eq, ResidueSet(group, interval.elements), None
        return eq, interval, embed_interval(interval, eq)
    if args.p is not None:
        group = PrimeCyclicGroup(args.p)
        elements = _resolve_elements(args, group.p, 0)
        return eq, ResidueSet(group, elements), None
    if args.N is not None:
        elements = _resolve_elements(args, args.N, 1)
        interval = IntervalSet(args.N, elements)
        return eq, interval, embed_interval(interval, eq) if len(interval) else None
    raise ValueError("give --p for the cyclic group or --N for the integer interval")


def cmd_count(args) -> dict:
    eq, base_set, embedding = _resolve_counting_input(args)
    report: dict = {"schema": SCHEMA, "command": "count", "seed": args.seed}
    if isinstance(base_set, ResidueSet):
        domain = base_set.group.p
        report["p"] = domain
        fast = lambda: eq_mod.count_solutions_fast(base_set, eq)
        brute = lambda: eq_mod.count_solutions_bruteforce(base_set, eq)
    else:
        domain = base_set.length
        report["N"] = domain
        brute = lambda: eq_mod.count_solutions_bruteforce(base_set, eq)

        def fast():
            if embedding is None:
                return eq_mod.SolutionCount(0, 0)
            _, image = embedding
            return eq_mod.count_solutions_fast(image, eq)

    method = args.method
    count = fast() if method == "fast" else brute()
    report.update(
        {
            "eq": list(eq.coeffs),
            "set_size": len(base_set),
            "alpha": len(base_set) / domain,
            "total": count.total,
            "trivial": count.trivial,
            "nontrivial": count.nontrivial,
            "normalized": count.total / domain ** (eq.arity - 1),
            "method": method,
        }
    )
    if args.both:
        other = brute() if method == "fast" else fast()
        report["agreement"] = other.total == count.total and other.trivial == count.trivial
        report["oracle_total"] = other.total
    return report


def cmd_behrend(args) -> dict:
    report: dict = {"schema": SCHEMA, "command": "behrend", "seed": args.seed}
    if args.alpha is not None:
        choice = behrend_mod.choose_params(args.alpha, args.k, c=args.shape_c)
        params = choice.params
        report["requested_alpha"] = args.alpha
        report["measured_density"] = choice.measured_density
    else:
        if None in (args.M, args.d, args.dprime):
            raise ValueError("give either --alpha or all of --M, --d, --dprime")
        params = behrend_mod.BehrendParams(args.M, args.d, args.dprime, args.k)
    out = behrend_mod.build_behrend(params)
    verification = behrend_mod.verify_behrend(out, params)
    report.update(
        {
            "M": params.M,
            "d": params.d,
            "dprime": params.dprime,
            "k": params.k,
            "N": out.N,
            "set_size": len(out.members),
            "density": out.density(),
            "r": out.r,
            "T_size": out.T_size,
            "count": verification.count,
            "bound": verification.bound,
            "diagonal_ok": verification.diagonal_ok,
        }
    )
    if args.set_out:
        with open(args.set_out, "w", encoding="ascii") as fh:
            fh.write("".join(f"{m}\n" for m in out.interval_set.elements))
        report["set_file"] = args.set_out
    return report


def _parse_bohr(args) -> bohr_mod.BohrSet:
    group = PrimeCyclicGroup(args.p)
    gamma = _parse_int_list(args.gamma, "frequencies")
    return bohr_mod.BohrSet(group, gamma, args.rho)


def cmd_bohr(args) -> dict:
    B = _parse_bohr(args)
    report: dict = {
        "schema": SCHEMA,
        "command": "bohr",
        "seed": args.seed,
        "p": args.p,
        "gamma": list(B.frequencies),
        "rho": B.width,
        "dimension": B.dimension,
        "size": bohr_mod.size(B),
    }
    if args.enumerate:
        report["members"] = list(bohr_mod.enumerate_members(B).elements)
    if args.regular_check:
        rep = bohr_mod.is_regular(B)
        report["regular"] = rep.is_regular
        report["worst_ratio_violation"] = rep.worst_ratio_violation
        report["critical_deltas_checked"] = rep.critical_deltas_checked
    if args.find_regular_dilate:
        report["regular_dilate"] = bohr_mod.find_regular_dilate(B)
    if args.size_bound is not None:
        check = bohr_mod.size_bound_check(B, args.size_bound)
        report["size_bound"] = {
            "delta": args.size_bound,
            "dilate_size": check.dilate_size,
            "lower_bound": check.lower_bound,
            "holds": check.holds,
        }
    return report


def cmd_spectrum(args) -> dict:
    group = PrimeCyclicGroup(args.p)
    X = ResidueSet(group, _resolve_elements(args, group.p, 0))
    spec = fourier.spectrum(X, args.delta)
    return {
        "schema": SCHEMA,
        "command": "spectrum",
        "seed": args.seed,
        "p": args.p,
        "delta": args.delta,
        "set_size": len(X),
        "frequencies": sorted(spec.frequencies),
    }


def _parse_norm(text: str) -> float:
    if text in ("inf", "infinity"):
        return math.inf
    value = float(text)
    if not value >= 1:  # also rejects nan
        raise ValueError(f"norm exponent must be >= 1 or inf, got {text}")
    return value


def cmd_periods(args) -> dict:
    group = PrimeCyclicGroup(args.p)
    A = ResidueSet(group, _parse_int_list(args.A, "--A"))
    L = ResidueSet(group, _parse_int_list(args.L, "--L"))
    q = _parse_norm(args.norm)
    result = periodicity.almost_periods(A, L, args.eps, q)
    bound = args.eps * len(A) if q == math.inf else args.eps * len(A) * len(L) ** (1.0 / q)
    return {
        "schema": SCHEMA,
        "command": "periods",
        "seed": args.seed,
        "p": args.p,
        "epsilon": args.eps,
        "norm": "inf" if q == math.inf else q,
        "bound": bound,
        "periods": list(result.periods.elements),
    }


def cmd_increment(args) -> dict:
    eq = eq_mod.InvariantEquation(_parse_int_list(args.eq, "equation"))
    if args.behrend is not None:
        interval = _behrend_output(args.behrend).interval_set
        if args.p is not None:
            group = PrimeCyclicGroup(args.p)
        else:
            group, _ = embed_interval(interval, eq)
        A = ResidueSet(group, interval.elements)
    else:
        if args.p is None:
            raise ValueError("give --p (or --behrend, which embeds automatically)")
        group = PrimeCyclicGroup(args.p)
        A = ResidueSet(group, _resolve_elements(args, group.p, 0))
    config = periodicity.DriverConfig(
        max_dim=args.max_dim,
        min_size=args.min_size,
        max_steps=args.max_steps,
        width_grid=args.width_grid,
    )
    trace = periodicity.increment_driver(A, eq, config)
    report = {
        "schema": SCHEMA,
        "command": "increment",
        "seed": args.seed,
        "p": group.p,
        "eq": list(eq.coeffs),
        "set_size": len(A),
    }
    report.update(trace.to_dict())
    return report


def cmd_sidon(args) -> dict:
    elements = _resolve_elements(args, args.p, 0) if args.p else None
    if args.p is not None:
        S = ResidueSet(PrimeCyclicGroup(args.p), elements)
        mode = "cyclic"
    else:
        if args.set is not None:
            values = _parse_int_list(args.set, "set")
        elif args.set_file is not None:
            values = _read_set_file(args.set_file)
        else:
            raise ValueError("sidon needs --set or --set-file (add --p for the cyclic check)")
        S = IntervalSet(max(values, default=1), values)
        mode = "integers"
    return {
        "schema": SCHEMA,
        "command": "sidon",
        "seed": args.seed,
        "mode": mode,
        "set_size": len(S),
        "sidon": eq_mod.is_sidon(S),
    }


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="invariant-eq-lab",
        description="Desk-scale experiments with invariant equations in Z/pZ",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("count", help="count solutions of an invariant equation")
    _add_common(sp)
    _add_set_source(sp)
    sp.add_argument("--p", type=int, default=None, help="cyclic group modulus")
    sp.add_argument("--N", type=int, default=None, help="integer interval length")
    sp.add_argument("--eq", required=True, help="comma-separated coefficients summing to 0")
    sp.add_argument("--method", choices=("fast", "bruteforce"), default="fast")
    sp.add_argument("--both", action="store_true", help="also run the oracle and report agreement")

    sp = sub.add_parser("behrend", help="build and verify the extremal construction")
    _add_common(sp)
    sp.add_argument("--M", type=int, default=None)
    sp.add_argument("--d", type=int, default=None)
    sp.add_argument("--dprime", type=int, default=None)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--alpha", type=float, default=None, help="derive parameters from a density")
    sp.add_argument("--shape-c", type=float, default=behrend_mod.DEFAULT_SHAPE_CONSTANT)
    sp.add_argument("--set-out", metavar="FILE", default=None, help="write the 1-based set")

    sp = sub.add_parser("bohr", help="Bohr set enumeration and diagnostics")
    _add_common(sp)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--gamma", required=True, help="comma-separated frequencies")
    sp.add_argument("--rho", type=float, required=True)
    sp.add_argument("--enumerate", action="store_true")
    sp.add_argument("--regular-check", action="store_true")
    sp.add_argument("--find-regular-dilate", action="store_true")
    sp.add_argument("--size-bound", type=float, default=None, metavar="DELTA")

    sp = sub.add_parser("spectrum", help="large spectrum of an indicator")
    _add_common(sp)
    _add_set_source(sp)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--delta", type=float, required=True)

    sp = sub.add_parser("periods", help="almost-periods of 1_A * 1_L")
    _add_common(sp)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--A", required=True, help="comma-separated residues")
    sp.add_argument("--L", required=True, help="comma-separated residues")
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--norm", default="inf", help="norm exponent >= 1, or inf")

    sp = sub.add_parser("increment", help="run the density-increment driver")
    _add_common(sp)
    _add_set_source(sp)
    sp.add_argument("--p", type=int, default=None)
    sp.add_argument("--eq", required=True)
    sp.add_argument("--max-dim", type=int, default=1)
    sp.add_argument("--min-size", type=int, default=8)
    sp.add_argument("--max-steps", type=int, default=64)
    sp.add_argument("--width-grid", type=int, default=16)

    sp = sub.add_parser("sidon", help="check the Sidon property")
    _add_common(sp)
    _add_set_source(sp)
    sp.add_argument("--p", type=int, default=None, help="check mod p instead of over Z")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # Looked up by name on each call, so a handler replaced on the module
        # takes effect although the parser is built once per process.
        report = globals()[f"cmd_{args.command}"](args)
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = _render_json(report) if args.format == "json" else _render_csv(report)
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def entrypoint() -> None:
    sys.exit(main())
