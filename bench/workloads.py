"""Seeded report schedules for the benchmark's three workloads.

Each workload is a fixed cycle of report kinds.  Position ``i`` of a run uses
kind ``CYCLES[workload][i % len(cycle)]`` and draws its sizes and sets from
the run's random stream, so the same seed gives the same reports in the same
order, and the share of each kind in a run is fixed by the cycle.  The shares
put the median and the 90th percentile of a run's latencies inside a band of
similar reports rather than on the edge between two bands, and sizes are
drawn stratified, so a run's latency profile varies little with the seed.

Sets are drawn here and handed to the CLI as ``--set-file``, ``--set``,
``--A`` or ``--L``; the CLI's own ``--random`` is never used.  No set and no
Bohr frequency set repeats within a run.  Behrend parameter tuples do repeat,
because the pools of tuples with the stated running times are smaller than a
run; no cache keys on them.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

#: Every integer below 2^53 is exact in float64.  Counts whose k-fold
#: convolutions can exceed it are outside today's exact range and are probed
#: only by ``run.py --defects``, never in a workload.
FLOAT_EXACT = 2**53


@dataclass
class Report:
    """One CLI call: its argv, the files it reads, and the oracle's inputs."""

    index: int
    kind: str
    argv: list
    files: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def random_equation(rng: random.Random, k: int) -> tuple:
    """Invariant coefficients: k-1 drawn from +-{1, 2, 3}, the last balancing."""
    while True:
        head = [rng.choice((1, 2, 3)) * rng.choice((1, -1)) for _ in range(k - 1)]
        last = -sum(head)
        if last != 0 and abs(last) <= 9:
            return tuple(head) + (last,)


def behrend_equation(k: int) -> tuple:
    return (1,) * (k - 1) + (-(k - 1),)


def fmt(values) -> str:
    return ",".join(str(int(v)) for v in values)


# Behrend parameter pools (k, M, d, d').  Every tuple's exact answers stay far
# below 2**53.  ENUM tuples take the direct-enumeration path of
# verify_behrend (|A|^(k-1) <= 2*10^7), CONV tuples the power-of-two
# convolution path; COUNT tuples keep |A|^(k-1) small enough for the
# in-report brute force of ``count --both``.
BEHREND_ENUM = (
    (4, 7, 2, 2), (4, 8, 2, 2), (4, 9, 2, 2), (4, 10, 1, 2), (4, 12, 1, 2),
    (4, 13, 1, 2), (4, 8, 3, 2), (4, 7, 3, 2), (4, 5, 1, 3), (5, 6, 1, 2),
    (5, 7, 4, 1), (5, 8, 4, 1), (4, 7, 4, 1), (4, 9, 4, 1), (4, 10, 4, 1),
)
BEHREND_CONV = (
    (4, 5, 3, 3), (4, 6, 3, 3), (4, 7, 2, 3), (4, 8, 2, 3), (4, 9, 2, 3),
    (4, 9, 3, 2), (4, 10, 3, 2), (4, 11, 3, 2), (5, 8, 3, 2), (5, 9, 3, 2),
    (5, 10, 3, 2), (5, 13, 2, 2), (5, 12, 3, 1), (6, 7, 2, 2), (6, 9, 2, 2),
    (4, 7, 3, 3), (4, 8, 4, 2), (4, 12, 3, 2), (4, 10, 2, 3), (5, 11, 3, 2),
)
BEHREND_COUNT = (
    (4, 5, 2, 2), (4, 10, 1, 2), (4, 8, 3, 1), (4, 9, 3, 1), (4, 10, 3, 1),
    (4, 11, 3, 1), (4, 12, 3, 1), (5, 7, 2, 1), (5, 11, 2, 1), (5, 13, 2, 1),
    (5, 14, 2, 1), (5, 15, 2, 1), (4, 11, 1, 2), (4, 9, 1, 2), (4, 8, 1, 2),
)
# Behrend sets embedded in Z/P for the increment driver, with
# N = M^(d+d') below 1000, so a prime P in [1000, 1100] holds the set.
BEHREND_INCREMENT = ((4, 5, 2, 1), (4, 6, 2, 1), (4, 7, 2, 1), (4, 8, 2, 1), (4, 9, 2, 1))


CYCLES = {
    "count": (
        "count.p1e5", "count.fallback", "count.full", "count.p1e5", "count.mid",
        "count.interval", "count.p1e5", "count.fallback", "spectrum", "count.p1e5",
    ),
    "structure": (
        "bohr", "periods", "bohr", "increment.dim1", "periods",
        "bohr", "periods", "increment.dim1", "bohr", "periods",
        "bohr", "increment.dim2", "periods", "bohr", "increment.dim1",
        "periods", "bohr", "periods", "bohr", "increment.dim1",
    ),
    "extremal": (
        "behrend.enum", "behrend.conv", "count.behrend", "behrend.alpha", "behrend.enum",
        "behrend.conv", "count.behrend", "behrend.enum", "behrend.conv", "count.behrend",
    ),
}

#: One small report per workload, run before timing and by every set-up probe.
WARMUP_KIND = {"count": "count.p1e5", "structure": "bohr", "extremal": "behrend.conv"}


#: Draws per block of a stratified size parameter (see ``Schedule.uniform``).
STRATA = 8


class Schedule:
    """Iterates the reports of one run.  Files are named by report index
    under ``workdir`` but written by the caller."""

    def __init__(self, workload: str, seed, workdir: str):
        if workload not in CYCLES:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.workdir = workdir
        self.rng = random.Random(f"{workload}:{seed}")
        self.seen = set()
        self.made = {}
        self.blocks = {}
        self.index = 0

    def warmup(self) -> Report:
        return Schedule(self.workload, "warmup", self.workdir)._make(WARMUP_KIND[self.workload], -1)

    def __iter__(self):
        return self

    def __next__(self) -> Report:
        cycle = CYCLES[self.workload]
        report = self._make(cycle[self.index % len(cycle)], self.index)
        self.index += 1
        return report

    # -- draws ---------------------------------------------------------------

    def _block(self, key, items):
        """Next item of a shuffled pass over ``items``; a new pass starts when
        one is used up, so every item occurs equally often in a run."""
        block = self.blocks.get(key)
        if not block:
            block = list(items)
            self.rng.shuffle(block)
            self.blocks[key] = block
        return block.pop()

    def uniform(self, key: str, lo: float, hi: float) -> float:
        """A stratified draw from [lo, hi): each block of STRATA draws for one
        key takes one value in each of STRATA equal sub-intervals, so the mix
        of sizes in a run, and with it the latency profile, varies little
        with the seed."""
        stratum = self._block(key, range(STRATA))
        return lo + (hi - lo) * (stratum + self.rng.random()) / STRATA

    def prime(self, key: str, lo: int, hi: int) -> int:
        """The first prime at or above a stratified point of [lo, hi)."""
        n = int(self.uniform(key, lo, hi)) | 1
        while not is_prime(n):
            n += 2
        return n

    def _fresh_sample(self, population: range, n: int) -> tuple:
        """A sorted random subset not drawn before in this run."""
        while True:
            draw = np.random.default_rng(self.rng.getrandbits(64)).choice(
                len(population), size=n, replace=False
            )
            s = tuple((np.sort(draw) + population.start).tolist())
            key = (population.start, population.stop, hash(s))
            if key not in self.seen:
                self.seen.add(key)
                return s

    def _fresh_gamma(self, p: int, dim: int) -> tuple:
        while True:
            gamma = tuple(sorted(self.rng.sample(range(1, p), dim)))
            if (p, gamma) not in self.seen:
                self.seen.add((p, gamma))
                return gamma

    def _path(self, index: int, name: str) -> str:
        tag = "warmup" if index < 0 else f"{index:05d}"
        return f"{self.workdir}/{tag}-{name}.txt"

    def _set_file(self, report: Report, name: str, values) -> str:
        path = self._path(report.index, name)
        report.files[path] = "".join(f"{v}\n" for v in values)
        return path

    # -- kinds ---------------------------------------------------------------

    def _make(self, kind: str, index: int) -> Report:
        report = Report(index, kind, [])
        self.nth = self.made.get(kind, 0)
        self.made[kind] = self.nth + 1
        getattr(self, "_k_" + kind.replace(".", "_"))(report)
        return report

    def _count_cyclic(self, report, p, k, size):
        eq = random_equation(self.rng, k)
        A = self._fresh_sample(range(p), size)
        path = self._set_file(report, "A", A)
        report.argv = ["count", "--p", str(p), "--set-file", path, "--eq=" + fmt(eq)]
        report.meta = {"p": p, "eq": eq, "A": A}

    def _k_count_p1e5(self, report):
        # Arity 3-4 at p ~ 10^5, density 0.02-0.25: prime-length FFTs dominate.
        p = self.prime("p1e5.p", 99_000, 101_000)
        k = 3 + self.nth % 2
        self._count_cyclic(report, p, k, int(p * self.uniform(f"p1e5.k{k}", 0.02, 0.25)))

    def _k_count_mid(self, report):
        # Arity 4-6 at p ~ 10^4-3*10^4 on the FFT path; k = 4 runs at density
        # 1/2, the density whose O(p^2) fallback is a cliff at p ~ 10^5.
        k = 4 + self.nth % 3
        p = self.prime(f"mid.p{k}", 10_000, 30_000)
        cap = int(FLOAT_EXACT ** (1 / (k - 1)))
        size = p // 2 if k == 4 else int(cap * self.uniform(f"mid.k{k}", 0.05, 0.25))
        self._count_cyclic(report, p, k, size)

    def _k_count_fallback(self, report):
        # Arity 5-6 near the top of the exact range: the FFT residual check
        # fails and the O(p^2) np.convolve fallback runs.
        k = 5 + self.nth % 2
        p = self.prime(f"fallback.p{k}", 14_000, 16_000)
        cap = int(FLOAT_EXACT ** (1 / (k - 1)))
        size = min(p // 2, int(cap * self.uniform(f"fallback.k{k}", 0.8, 0.95)))
        self._count_cyclic(report, p, k, size)

    def _k_count_full(self, report):
        # Full-group identity: the count on all of Z/p is p^(k-1).  p^(k-1)
        # stays below 2^50, since between 2^52 and 2^53 every float is an
        # integer and today's residual check cannot see the FFT's error, and
        # p stays below 2*10^4, above which the O(p^2) fallback takes seconds.
        k = 3 + self.nth % 3
        hi = 5_700 if k == 5 else 20_000
        while True:
            p = self.prime(f"full.k{k}", 2_000, hi)
            if ("full", p, k) not in self.seen:
                self.seen.add(("full", p, k))
                break
        eq = random_equation(self.rng, k)
        report.argv = ["count", "--p", str(p), "--full-group", "--eq=" + fmt(eq)]
        report.meta = {"p": p, "eq": eq, "full": True}

    def _k_count_interval(self, report):
        # Interval mode: the CLI embeds [1, N] into Z/p, p > (sum |a_i|) N;
        # N is chosen so that p ~ 10^5.
        k = 3 + self.nth % 2
        eq = random_equation(self.rng, k)
        N = int(self.uniform("interval.p", 95_000, 105_000)) // sum(abs(a) for a in eq)
        size = int(N * self.uniform(f"interval.k{k}", 0.05, 0.25))
        A = self._fresh_sample(range(1, N + 1), size)
        path = self._set_file(report, "A", A)
        report.argv = ["count", "--N", str(N), "--set-file", path, "--eq=" + fmt(eq)]
        report.meta = {"N": N, "eq": eq, "A": A}

    def _k_spectrum(self, report):
        p = self.prime("spectrum.p", 5_000, 10_000)
        A = self._fresh_sample(range(p), int(self.uniform("spectrum.n", 50, 200)))
        delta = round(self.uniform("spectrum.delta", 0.1, 0.4), 6)
        report.argv = ["spectrum", "--p", str(p), "--set", fmt(A), "--delta", repr(delta)]
        report.meta = {"p": p, "A": A, "delta": delta}

    def _k_bohr(self, report):
        # Regularity test, regular-dilate search and size bound at p ~ 10^5
        # with a fresh frequency set of dimension 1-4.
        dim = 1 + self.nth % 4
        p = self.prime("bohr.p", 99_000, 101_000)
        gamma = self._fresh_gamma(p, dim)
        rho = round(self.uniform(f"bohr.rho{dim}", 0.05, 1.0), 6)
        delta = round(self.uniform("bohr.delta", 0.25, 1.0), 6)
        report.argv = [
            "bohr", "--p", str(p), "--gamma", fmt(gamma), "--rho", repr(rho),
            "--regular-check", "--find-regular-dilate", "--size-bound", repr(delta),
        ]
        report.meta = {"p": p, "gamma": gamma, "rho": rho, "delta": delta}

    def _k_periods(self, report):
        # Almost periods of 1_A * 1_L at p ~ 10^4.  L is an interval, so small
        # shifts are almost periods and large ones are not; eps is drawn
        # around the typical deviation so the period sets vary in size.
        q = ("inf", "2", "1")[self.nth % 3]
        p = self.prime("periods.p", 9_900, 10_100)
        A = self._fresh_sample(range(p), int(p * self.uniform(f"periods.a{q}", 0.05, 0.3)))
        start, length = self.rng.randrange(p), int(self.uniform(f"periods.l{q}", 20, 400))
        L = tuple(sorted((start + i) % p for i in range(length)))
        eps = round(self.uniform(f"periods.eps{q}", 0.05, 1.5) / math.sqrt(length), 6)
        report.argv = [
            "periods", "--p", str(p), "--A", fmt(A), "--L", fmt(L),
            "--eps", repr(eps), "--norm", q,
        ]
        report.meta = {"p": p, "A": A, "L": L, "eps": eps, "q": q}

    def _k_increment_dim1(self, report):
        # Driver with --max-dim 1 at p ~ 10^3, alternating random sets and
        # Behrend sets embedded in Z/P.
        if self.nth % 2 == 0:
            p = self.prime("inc1.p", 1_000, 1_100)
            eq = random_equation(self.rng, 3 + self.nth // 2 % 2)
            A = self._fresh_sample(range(p), int(p * self.uniform("inc1.density", 0.05, 0.3)))
            report.argv = ["increment", "--p", str(p), "--set", fmt(A), "--eq=" + fmt(eq)]
            report.meta = {"p": p, "eq": eq, "A": A}
        else:
            bk, M, d, dp = self._block("inc1.behrend", BEHREND_INCREMENT)
            p = self.prime("inc1.behrend.p", 1_000, 1_100)
            eq = random_equation(self.rng, bk)
            report.argv = [
                "increment", "--behrend", fmt((M, d, dp, bk)), "--p", str(p), "--eq=" + fmt(eq),
            ]
            report.meta = {"p": p, "eq": eq, "behrend": (M, d, dp, bk)}
        report.argv += ["--max-dim", "1"]

    def _k_increment_dim2(self, report):
        # --max-dim 2 at p = 37: the general search walks all 630 frequency
        # pairs, more than the 512 entries of the radii cache.
        p = 37
        eq = random_equation(self.rng, 3 + self.nth % 2)
        A = self._fresh_sample(range(p), int(self.uniform("inc2.n", 4, 12)))
        report.argv = [
            "increment", "--p", str(p), "--set", fmt(A), "--eq=" + fmt(eq), "--max-dim", "2",
        ]
        report.meta = {"p": p, "eq": eq, "A": A}

    def _k_behrend_enum(self, report):
        self._behrend(report, self._block("behrend.enum", BEHREND_ENUM))

    def _k_behrend_conv(self, report):
        self._behrend(report, self._block("behrend.conv", BEHREND_CONV))

    def _behrend(self, report, params):
        k, M, d, dp = params
        report.argv = [
            "behrend", "--M", str(M), "--d", str(d), "--dprime", str(dp), "--k", str(k),
        ]
        report.meta = {"params": (M, d, dp, k)}

    def _k_behrend_alpha(self, report):
        alpha = round(self.uniform("alpha", 0.005, 0.2), 6)
        k = 4 + self.nth % 3 if alpha < 0.142 else 4
        report.argv = ["behrend", "--alpha", repr(alpha), "--k", str(k)]
        report.meta = {"alpha": alpha, "k": k}

    def _k_count_behrend(self, report):
        k, M, d, dp = self._block("count.behrend", BEHREND_COUNT)
        eq = behrend_equation(k)
        report.argv = [
            "count", "--behrend", fmt((M, d, dp, k)), "--eq=" + fmt(eq), "--both",
        ]
        report.meta = {"behrend": (M, d, dp, k), "eq": eq}
