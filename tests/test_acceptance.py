"""Acceptance suite: each test implements one numbered criterion at its
stated tolerance and prints a pass/fail line.  Run with -s to see the lines.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from invariant_eq_lab.behrend import BehrendParams, build_behrend, verify_behrend
from invariant_eq_lab.bohr import (
    BohrSet,
    dilate,
    enumerate_members,
    find_regular_dilate,
    is_regular,
    size,
    size_bound_check,
)
from invariant_eq_lab.cyclic import PrimeCyclicGroup, ResidueSet, dilate_set, embed_interval
from invariant_eq_lab.equations import (
    InvariantEquation,
    count_solutions_bruteforce,
    count_solutions_fast,
    is_sidon,
)
from invariant_eq_lab.cyclic import IntervalSet
from invariant_eq_lab.fourier import (
    GroupFunction,
    convolve,
    dft,
    indicator,
    lp_norm,
    normalized_indicator,
)
from invariant_eq_lab.periodicity import (
    DriverConfig,
    almost_periods,
    increment_driver,
    increment_from_periods,
)

PRIMES_TO_101 = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101]


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_oracle_equivalence_counting():
    rng = np.random.default_rng(20240101)
    start = time.monotonic()
    checked = 0
    while checked < 200:
        p = int(rng.choice(PRIMES_TO_101))
        k = int(rng.choice([3, 4, 5]))
        head = [int(c) for c in rng.choice([-3, -2, -1, 1, 2, 3], size=k - 1)]
        last = -sum(head)
        coeffs = head + [last]
        if last == 0 or abs(last) > 3 or any(c % p == 0 for c in coeffs):
            continue
        n = int(rng.integers(1, min(20, p) + 1))
        elems = tuple(int(v) for v in rng.choice(p, size=n, replace=False))
        A = ResidueSet(PrimeCyclicGroup(p), elems)
        eq = InvariantEquation(tuple(coeffs))
        fast = count_solutions_fast(A, eq)
        brute = count_solutions_bruteforce(A, eq)
        assert fast.total == brute.total and fast.trivial == brute.trivial, (
            f"disagreement at p={p}, eq={coeffs}, A={elems}"
        )
        checked += 1
    elapsed = time.monotonic() - start
    report(1, elapsed < 30, f"fast == bruteforce on {checked} instances in {elapsed:.1f}s")


def test_criterion_2_behrend_reference_reproduction():
    start = time.monotonic()
    params = BehrendParams(5, 2, 1, 4)
    out = build_behrend(params)
    v = verify_behrend(out, params)
    elapsed = time.monotonic() - start
    ok = (
        out.N == 125
        and len(out.members) == 10
        and v.count == 82
        and v.bound == 250
        and v.diagonal_ok
        and elapsed < 1.0
    )
    report(
        2,
        ok,
        f"N={out.N} |A|={len(out.members)} count={v.count} bound={v.bound} "
        f"diagonal={v.diagonal_ok} in {elapsed:.2f}s",
    )


def test_criterion_3_behrend_diagonal_matrix():
    start = time.monotonic()
    built = degenerate = 0
    for M, d, dp, k in itertools.product((5, 7, 8), (2, 3), (1, 2), (4, 5)):
        params = BehrendParams(M, d, dp, k)
        if not any(v * k < M for v in range(1, M)):
            with pytest.raises(ValueError, match="no sphere"):
                build_behrend(params)
            degenerate += 1
            continue
        out = build_behrend(params)
        v = verify_behrend(out, params)
        assert v.diagonal_ok, f"diagonal failed at {params}"
        assert v.count <= v.bound, f"count bound failed at {params}"
        built += 1
    elapsed = time.monotonic() - start
    report(
        3,
        elapsed < 300,
        f"diagonal + count bound on {built} parameter sets "
        f"({degenerate} degenerate rejected) in {elapsed:.1f}s",
    )


def _random_bohr(rng, p_max=1009, d_max=3):
    p = int(rng.choice([101, 199, 331, 547, 1009]))
    assert p <= p_max
    g = PrimeCyclicGroup(p)
    d = int(rng.integers(1, d_max + 1))
    freqs = tuple(int(t) for t in rng.choice(np.arange(1, p), size=d, replace=False))
    return BohrSet(g, freqs, float(rng.uniform(0.1, 2.0)))


def test_criterion_4_size_lower_bound():
    rng = np.random.default_rng(20240104)
    checks = 0
    for _ in range(100):
        B = _random_bohr(rng)
        for delta in np.arange(0.1, 1.01, 0.1):
            result = size_bound_check(B, float(delta))
            assert result.holds, f"size bound failed: {B} delta={delta}"
            checks += 1
    report(4, True, f"|B_delta| >= (delta/2)^(3d)|B| in {checks}/{checks} enumerations")


def test_criterion_5_regular_dilate_search():
    rng = np.random.default_rng(20240105)
    for _ in range(100):
        B = _random_bohr(rng)
        delta = find_regular_dilate(B)
        assert 0.5 <= delta <= 1.0
        assert is_regular(dilate(B, delta)).is_regular, f"dilate not regular: {B} delta={delta}"
    report(5, True, "find_regular_dilate passed the exact regularity check on 100 sets")


def test_criterion_6_regular_convolution_smoothing():
    rng = np.random.default_rng(20240106)
    done = 0
    while done < 50:
        base = _random_bohr(rng, d_max=2)
        B = dilate(base, find_regular_dilate(base))
        eps = float(rng.uniform(0.02, 0.6))
        delta = eps / (24 * B.dimension) * float(rng.uniform(0.3, 1.0))
        mu_b = normalized_indicator(enumerate_members(B))
        mu_bp = normalized_indicator(enumerate_members(dilate(B, delta)))
        l1 = float(np.abs(convolve(mu_b, mu_bp).values - mu_b.values).sum())
        assert l1 <= eps + 1e-9, f"smoothing failed: {l1} > {eps}"
        done += 1
    report(6, True, "||mu_B * mu_B' - mu_B||_1 <= eps on 50 sampled regular instances")


def test_criterion_7_fourier_identities():
    rng = np.random.default_rng(20240107)
    for p in (31, 101, 1009):
        values = rng.integers(-10, 11, size=p).astype(float)
        f = GroupFunction(PrimeCyclicGroup(p), values)
        lhs = float(np.sum(np.abs(dft(f).values) ** 2))
        rhs = p * float(np.sum(values**2))
        assert abs(lhs - rhs) <= 1e-9 * abs(rhs), f"Parseval failed at p={p}"
        g = GroupFunction(PrimeCyclicGroup(p), rng.integers(-10, 11, size=p).astype(float))
        conv_hat = dft(convolve(f, g)).values
        prod = dft(f).values * dft(g).values
        scale = np.max(np.abs(prod)) + 1.0
        assert np.max(np.abs(conv_hat - prod)) <= 1e-9 * scale, f"convolution theorem p={p}"
    young_checks = 0
    for _ in range(100):
        p = int(rng.choice([31, 101]))
        f = GroupFunction(PrimeCyclicGroup(p), rng.uniform(0, 4, size=p))
        g = GroupFunction(PrimeCyclicGroup(p), rng.uniform(0, 4, size=p))
        fg = convolve(f, g)
        for q in (1, 1.5, 2, 3, math.inf):
            assert lp_norm(fg, q) <= lp_norm(f, q) * lp_norm(g, 1) * (1 + 1e-12)
            young_checks += 1
    report(7, True, f"Parseval, convolution theorem, Young ({young_checks} norm checks)")


def _period_bohr(g, conv_values, eps):
    """Largest single-frequency Bohr set inside the sup-norm eps-period set."""
    p = g.p
    good = np.ones(p, dtype=bool)
    for t in range(p):
        dev = float(np.max(np.abs(np.roll(conv_values, -t) - conv_values)))
        good[t] = dev <= eps
    best = BohrSet(g, (1,), 0.9 * 2 * math.sin(math.pi / p))
    for t in range(1, (p - 1) // 2 + 1):
        for j in range((p - 1) // 2, 0, -1):
            width = min(2.0, 2 * math.sin(math.pi * j / p) * 1.0000001)
            candidate = BohrSet(g, (t,), width)
            members = enumerate_members(candidate)
            if all(good[m] for m in members.elements):
                if len(members) > size(best):
                    best = candidate
                break
    return best


def test_criterion_8_almost_periods_to_increment_contract():
    rng = np.random.default_rng(20240108)
    done = 0
    while done < 12:
        p = int(rng.choice([31, 101]))
        g = PrimeCyclicGroup(p)
        t = int(rng.integers(1, p))
        j = int(rng.integers(2, max(3, p // 8)))
        A = enumerate_members(BohrSet(g, (t,), 2 * math.sin((j + 0.5) * math.pi / p)))
        if len(A) / p > 0.5:
            continue
        alpha = len(A) / p
        f = normalized_indicator(dilate_set(A, -1))
        eps = float(rng.choice([0.2, 0.3, 0.4]))
        conv = convolve(f, indicator(A))
        B = _period_bohr(g, conv.values, eps)
        x, density = increment_from_periods(f, A, B, eps)
        floor = 2 * alpha * (1 - 2 * eps)
        assert density >= floor - 1e-9, f"lemma floor violated: {density} < {floor}"
        done += 1
    # Named error paths for each precondition.
    g = PrimeCyclicGroup(7)
    tiny = BohrSet(g, (1,), 0.9 * 2 * math.sin(math.pi / 7))
    full = ResidueSet(g, tuple(range(7)))
    with pytest.raises(ValueError, match="L1 mass"):
        increment_from_periods(normalized_indicator(dilate_set(full, -1)), full, tiny, 0.2)
    with pytest.raises(ValueError, match="value at zero"):
        increment_from_periods(
            normalized_indicator(ResidueSet(g, (1,))), ResidueSet(g, (0, 2)), tiny, 0.1
        )
    with pytest.raises(ValueError, match="shift deviation"):
        increment_from_periods(
            normalized_indicator(ResidueSet(g, (0, 6))),
            ResidueSet(g, (0, 1)),
            BohrSet(g, (1,), 2.0),
            0.05,
        )
    report(8, True, f"density >= 2 alpha (1 - 2 eps) on {done} instances; 3 named error paths")


def test_criterion_9_almost_period_structure():
    rng = np.random.default_rng(20240109)
    done = 0
    while done < 50:
        p = int(rng.choice([31, 61, 101]))
        g = PrimeCyclicGroup(p)
        na = int(rng.integers(2, 9))
        nl = int(rng.integers(1, 7))
        A = ResidueSet(g, tuple(int(v) for v in rng.choice(p, size=na, replace=False)))
        L = ResidueSet(g, tuple(int(v) for v in rng.choice(p, size=nl, replace=False)))
        eps = float(rng.uniform(0.1, 0.8))
        q = float(rng.choice([1.0, 2.0, np.inf]))
        result = almost_periods(A, L, eps, q)
        periods = set(result.periods.elements)
        assert 0 in periods
        assert periods == {(p - t) % p for t in periods}, "period set not symmetric"
        # Re-evaluate every pairwise sum against the doubled bound.
        conv = convolve(indicator(A), indicator(L)).values
        bound = eps * len(A) if q == math.inf else eps * len(A) * len(L) ** (1 / q)
        for t1, t2 in itertools.product(periods, repeat=2):
            s = (t1 + t2) % p
            diff = np.abs(np.roll(conv, -s) - conv)
            dev = float(np.max(diff)) if q == math.inf else float(np.sum(diff**q) ** (1 / q))
            assert dev <= 2 * bound + 1e-9, f"sum {t1}+{t2} not a 2eps period"
        done += 1
    report(9, True, "0 in periods, symmetry, and 2eps-subadditivity on 50 instances")


def test_criterion_10_increment_driver_on_behrend_set():
    start = time.monotonic()
    out = build_behrend(BehrendParams(5, 2, 1, 4))
    eq = InvariantEquation((1, 1, 1, -3))
    group, A = embed_interval(out.interval_set, eq)
    assert group.p == 751
    config = DriverConfig(max_dim=1, max_steps=16)
    trace = increment_driver(A, eq, config)
    factor = 1 + 1 / (16 * eq.arity)
    for prev, step in zip(trace.steps, trace.steps[1:]):
        members = set(enumerate_members(step.bohr_set).elements)
        inter = len(set(step.dense_set.elements) & members)
        dens = inter / len(members)
        assert set(step.dense_set.elements) <= members
        assert abs(dens - step.density) < 1e-12
        assert dens >= factor * prev.density - 1e-9, "increment factor violated"
    second = increment_driver(A, eq, config)
    blob1 = json.dumps(trace.to_dict(), sort_keys=True).encode()
    blob2 = json.dumps(second.to_dict(), sort_keys=True).encode()
    assert blob1 == blob2, "trace not byte-identical across runs"
    elapsed = time.monotonic() - start
    report(
        10,
        elapsed < 120,
        f"{len(trace.steps) - 1} verified steps, terminal {trace.terminal_reason.value}, "
        f"byte-identical traces, in {elapsed:.1f}s",
    )


def test_criterion_11_sidon():
    assert is_sidon(IntervalSet(11, (1, 2, 5, 11))) is True
    assert is_sidon(IntervalSet(3, (1, 2, 3))) is False
    rng = np.random.default_rng(20240111)

    def oracle(elements):
        for x1, y1, x2, y2 in itertools.product(elements, repeat=4):
            if x1 + y1 == x2 + y2 and sorted((x1, y1)) != sorted((x2, y2)):
                return False
        return True

    for _ in range(50):
        n = int(rng.integers(0, 9))
        elems = tuple(sorted(int(v) for v in rng.choice(40, size=n, replace=False) + 1))
        S = IntervalSet(40, elems)
        assert is_sidon(S) == oracle(elems), f"sidon mismatch on {elems}"
    report(11, True, "named examples plus 50 random sets agree with the quadruple oracle")
