"""Answer checks for every report kind, run outside the timed region.

No check calls into ``invariant_eq_lab`` or reuses a report as its own
reference.  Counts come from split sums  sum_y r(y) r'(-y)  of partial
convolutions computed with zero-padded power-of-two FFTs, accepted only under
an a-priori error bound after Percival (2003) and summed in Python ints, or
from the full-group identity p^(k-1).  Bohr sets are counted from integer
levels min(tx mod p, p - tx mod p); almost periods from an exact integer
1_A * 1_L; Behrend sets are rebuilt from their definition.

``check(report, rc, text)`` returns a list of problems; an empty list means
the report's answer is right.
"""

from __future__ import annotations

import functools
import json
import math
from fractions import Fraction
from itertools import combinations, product

import numpy as np

#: Unit roundoff of float64.
U = 2.0**-53
#: Relative tolerance for floats the CLI prints with 12 significant digits.
REL = 1e-9


class OracleError(RuntimeError):
    """The oracle could not certify its own answer (a benchmark bug)."""


# -- exact integer convolution -------------------------------------------------


def linear_conv(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact linear convolution of nonnegative integer vectors.

    Zero-padded power-of-two real FFT.  The result is accepted only when the
    first-order floating-point error bound of Percival (2003, Math. Comp. 72),
    ||a||_2 ||b||_2 u (3 + 3 sqrt 5 + 6) log2(n), doubled for safety, is below
    1/4, so rounding to the nearest integer is exact.
    """
    out_len = len(a) + len(b) - 1
    n = 1 << max(1, (out_len - 1).bit_length())
    fa, fb = a.astype(np.float64), b.astype(np.float64)
    bound = 2 * float(np.linalg.norm(fa) * np.linalg.norm(fb)) * U * 16 * math.log2(n)
    if bound >= 0.25:
        raise OracleError(f"convolution error bound {bound:.3g} too large to certify")
    raw = np.fft.irfft(np.fft.rfft(fa, n) * np.fft.rfft(fb, n), n)[:out_len]
    out = np.rint(raw)
    if out.size and (float(out.max()) >= 2**53 or float(np.abs(raw - out).max()) > 0.25):
        raise OracleError("convolution outside the exactly representable range")
    return out.astype(np.int64)


def cyclic_conv(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    p = len(a)
    lin = linear_conv(a, b)
    out = lin[:p].copy()
    out[: len(lin) - p] += lin[p:]
    return out


def int_dot(x: np.ndarray, y: np.ndarray) -> int:
    """Exact sum x*y of nonnegative int64 vectors: in int64 when no partial
    sum can overflow, else in Python ints."""
    if x.size == 0:
        return 0
    if int(x.max()) * int(y.max()) * x.size < 2**63:
        return int(np.dot(x, y))
    return sum(map(int.__mul__, x.tolist(), y.tolist()))


def cyclic_count(A, eq, p: int) -> int:
    """(1_{a_1 A} * ... * 1_{a_k A})(0) as a split sum of two partial
    convolutions of about k/2 factors each."""
    A = np.asarray(A, dtype=np.int64)

    def dilated(a):
        v = np.zeros(p, dtype=np.int64)
        v[(a * A) % p] = 1
        return v

    def chain(coeffs):
        acc = dilated(coeffs[0])
        for a in coeffs[1:]:
            acc = cyclic_conv(acc, dilated(a))
        return acc

    h = len(eq) // 2
    left, right = chain(eq[:h]), chain(eq[h:])
    return int_dot(left, right[(-np.arange(p)) % p])


def interval_count(A, eq) -> int:
    """Solutions of sum a_i x_i = 0 with every x_i in A, over the integers."""
    A = np.asarray(A, dtype=np.int64)

    def chain(coeffs):
        # (vector, offset): vector[j] counts tuples whose weighted sum is j + offset.
        acc, off = np.ones(1, dtype=np.int64), 0
        for a in coeffs:
            vals = a * A
            lo = int(vals.min())
            v = np.zeros(int(vals.max()) - lo + 1, dtype=np.int64)
            v[vals - lo] = 1
            acc, off = linear_conv(acc, v), off + lo
        return acc, off

    h = len(eq) // 2
    (lv, lo), (rv, ro) = chain(eq[:h]), chain([-a for a in eq[h:]])
    # Need left_sum == -right_part_sum, i.e. j + lo == m + ro for the negated right.
    shift = ro - lo
    j = np.arange(len(lv))
    m = j - shift
    ok = (m >= 0) & (m < len(rv))
    return int_dot(lv[ok], rv[m[ok]])


# -- Behrend construction, rebuilt from its definition -----------------------


@functools.lru_cache(maxsize=None)
def behrend_set(M: int, d: int, dp: int, k: int):
    """(members 0-based, sphere norm r, |T|, number of digit classes)."""
    allowed = [v for v in range(M) if v * k < M]
    by_norm = {}
    for combo in product(allowed, repeat=d):
        r = sum(v * v for v in combo)
        if r >= 1:
            by_norm.setdefault(r, []).append(sum(v * M**i for i, v in enumerate(combo)))
    best = max(sorted(by_norm), key=lambda r: len(by_norm[r]))
    block, free = M**d, M**dp
    members = sorted(b + block * f for b in by_norm[best] for f in range(free))
    return members, best, len(allowed) ** d * free, len(by_norm[best])


@functools.lru_cache(maxsize=None)
def behrend_counts(M: int, d: int, dp: int, k: int):
    """(members, r, |T|, total solutions of x_1+...+x_{k-1} = (k-1) x_k,
    digit-diagonal solutions)."""
    members, r, t_size, classes = behrend_set(M, d, dp, k)
    vec = np.zeros(members[-1] + 1, dtype=np.int64)
    vec[members] = 1
    acc = vec
    for _ in range(k - 2):
        acc = linear_conv(acc, vec)
    total = sum(int(acc[(k - 1) * x]) for x in members)
    # Inside one digit class the equation reads f_1+...+f_{k-1} = (k-1) f_k
    # on the free parts f in [0, M^d').
    free = M**dp
    ones = np.ones(free, dtype=np.int64)
    dist = ones
    for _ in range(k - 2):
        dist = linear_conv(dist, ones)
    per_class = sum(int(dist[(k - 1) * f]) for f in range(free))
    return members, r, t_size, total, classes * per_class


# -- helpers --------------------------------------------------------------------


def close(a, b) -> bool:
    return math.isclose(float(a), float(b), rel_tol=REL, abs_tol=1e-12)


class Checker:
    def __init__(self, report: dict):
        self.report = report
        self.problems = []

    def eq(self, key, want):
        got = self.report.get(key)
        if got != want:
            self.problems.append(f"{key}: got {got!r}, want {want!r}")

    def near(self, key, want):
        got = self.report.get(key)
        if not isinstance(got, (int, float)) or not close(got, want):
            self.problems.append(f"{key}: got {got!r}, want {want!r}")


def levels(p: int, gamma) -> np.ndarray:
    """lev(x) = max over t in gamma of min(tx mod p, p - tx mod p)."""
    xs = np.arange(p, dtype=np.int64)
    lev = np.zeros(p, dtype=np.int64)
    for t in gamma:
        r = (t * xs) % p
        np.maximum(lev, np.minimum(r, p - r), out=lev)
    return lev


def sizes_at(cum: np.ndarray, p: int, w: float) -> set:
    """Acceptable |Bohr set| at width w from the cumulative level counts.

    A point of level m is a member iff 2 sin(pi m / p) <= w.  The CLI's
    float radii may differ from that by ~1e-10 at p ~ 10^5, so when w lies
    within 1e-9 of a critical width both sides of it are accepted.
    """
    crit = 2.0 * np.sin(np.pi * np.arange(len(cum)) / p)
    lo = int(np.searchsorted(crit, w - 1e-9, side="right")) - 1
    hi = int(np.searchsorted(crit, w + 1e-9, side="right")) - 1
    return {int(cum[m]) for m in range(lo, hi + 1)}


def regularity(level_counts: np.ndarray, p: int, d: int, w: float) -> float:
    """Worst violation of 1 - 12d|e| <= |B_{w(1+e)}| / |B_w| <= 1 + 12d|e|
    over |e| <= 1/(12d), from the integer level histogram; <= 0 means regular."""
    cum = np.cumsum(level_counts)
    ms = np.arange(len(cum))
    crit = 2.0 * np.sin(np.pi * ms / p)

    def size_at(width, left=False):
        side = "left" if left else "right"
        m = int(np.searchsorted(crit, width, side=side)) - 1
        return int(cum[m]) if m >= 0 else 0

    base = size_at(w)
    window = 1.0 / (12 * d)

    def viol(e, count):
        ratio, b = count / base, 12 * d * abs(e)
        return max((1 - b) - ratio, ratio - (1 + b))

    worst = max(viol(-window, size_at(w * (1 - window))), viol(window, size_at(w * (1 + window))))
    # The test's candidates are the widths where the size jumps: critical
    # widths of levels some x attains.
    inside = crit[(crit >= w * (1 - window)) & (crit <= w * (1 + window)) & (level_counts > 0)]
    for c in inside:
        e = float(c / w - 1.0)
        if abs(e) <= window:
            worst = max(worst, viol(e, size_at(c)), viol(e, size_at(c, left=True)))
    return worst


# -- per-kind checks ----------------------------------------------------------


def check_count_cyclic(r: Checker, meta: dict):
    p, eq = meta["p"], meta["eq"]
    k = len(eq)
    if meta.get("full"):
        total, size = p ** (k - 1), p
    else:
        total, size = cyclic_count(meta["A"], eq, p), len(meta["A"])
    r.eq("p", p)
    r.eq("eq", list(eq))
    r.eq("set_size", size)
    r.eq("total", total)
    r.eq("trivial", size)
    r.eq("nontrivial", total - size)
    r.near("alpha", size / p)
    r.near("normalized", total / p ** (k - 1))


def check_count_interval(r: Checker, meta: dict, A=None, N=None):
    eq = meta["eq"]
    A = A if A is not None else meta["A"]
    N = N if N is not None else meta["N"]
    total = interval_count(A, eq)
    r.eq("N", N)
    r.eq("eq", list(eq))
    r.eq("set_size", len(A))
    r.eq("total", total)
    r.eq("trivial", len(A))
    r.eq("nontrivial", total - len(A))
    r.near("alpha", len(A) / N)
    r.near("normalized", total / N ** (len(eq) - 1))
    return total


def check_count_behrend(r: Checker, meta: dict):
    M, d, dp, k = meta["behrend"]
    members, _, _, _ = behrend_set(M, d, dp, k)
    total = check_count_interval(r, meta, A=[m + 1 for m in members], N=M ** (d + dp))
    r.eq("oracle_total", total)
    r.eq("agreement", True)


def check_spectrum(r: Checker, meta: dict):
    p, A, delta = meta["p"], np.asarray(meta["A"], dtype=np.int64), meta["delta"]
    roots = np.exp(-2j * np.pi * np.arange(p) / p)
    mags = np.empty(p)
    for lo in range(0, p, 512):
        t = np.arange(lo, min(p, lo + 512), dtype=np.int64)
        mags[lo : lo + len(t)] = np.abs(roots[np.outer(t, A) % p].sum(1))
    cut = delta * len(A) - 1e-9 * len(A)
    got = set(r.report.get("frequencies", []))
    sure_in = set(np.nonzero(mags >= cut + 1e-7 * len(A))[0].tolist())
    maybe = set(np.nonzero(mags >= cut - 1e-7 * len(A))[0].tolist())
    if not sure_in <= got <= maybe:
        r.problems.append(
            f"frequencies: {len(sure_in - got)} missing, {len(got - maybe)} spurious"
        )
    r.eq("set_size", len(A))


def check_bohr(r: Checker, meta: dict):
    p, gamma, rho, delta = meta["p"], meta["gamma"], meta["rho"], meta["delta"]
    d = len(gamma)
    lev = levels(p, gamma)
    hist = np.bincount(lev, minlength=(p - 1) // 2 + 1)
    cum = np.cumsum(hist)
    base = r.report.get("size")
    if base not in sizes_at(cum, p, rho):
        r.problems.append(f"size: got {base!r}, want one of {sorted(sizes_at(cum, p, rho))}")
        return
    r.eq("dimension", d)
    worst = regularity(hist, p, d, rho)
    # The CLI's radii carry float error up to ~1e-10 at p ~ 10^5, so verdicts
    # within 1e-7 of the boundary are accepted either way.
    if abs(worst) > 1e-7:
        r.eq("regular", worst <= 0)
    got = r.report.get("worst_ratio_violation")
    if not isinstance(got, (int, float)) or abs(got - worst) > 1e-7:
        r.problems.append(f"worst_ratio_violation: got {got!r}, want {worst!r}")
    dil = r.report.get("regular_dilate")
    if not isinstance(dil, (int, float)) or not 0.5 <= dil <= 1.0:
        r.problems.append(f"regular_dilate {dil!r} outside [1/2, 1]")
    elif regularity(hist, p, d, rho * dil) > 1e-7:
        r.problems.append(f"regular_dilate {dil!r} is not regular")
    sb = r.report.get("size_bound") or {}
    dsize = sb.get("dilate_size")
    lower = (delta / 2) ** (3 * d) * base
    if dsize not in sizes_at(cum, p, rho * delta) or not close(sb.get("lower_bound", -1), lower):
        r.problems.append(f"size_bound: got {sb!r}, want lower bound {lower}")
    elif sb.get("holds") != (dsize >= lower):
        r.problems.append("size_bound.holds disagrees with its own sizes")


def deviations(f: np.ndarray, q: str) -> np.ndarray:
    """Exact integer ||f(.+t) - f||_q^q (q = 1, 2) or ||.||_inf for every t.

    For q = 2 the identity ||f(.+t) - f||_2^2 = 2 ||f||_2^2 - 2 (f * f~)(t)
    needs one exact autocorrelation; q = 1 and inf compare every shift.
    """
    p = len(f)
    if q == "2":
        auto = cyclic_conv(f, np.roll(f[::-1], 1))
        return 2 * int(np.dot(f, f)) - 2 * auto
    out = np.zeros(p, dtype=np.int64)
    small = f.astype(np.int16)  # values are at most |L| < 2^15
    doubled = np.concatenate((small, small))
    windows = np.lib.stride_tricks.sliding_window_view(doubled, p)
    for lo in range(1, p // 2 + 1, 128):
        block = np.arange(lo, min(lo + 128, p // 2 + 1))
        diff = np.abs(windows[block] - small)
        vals = diff.max(1) if q == "inf" else diff.sum(1, dtype=np.int64)
        out[block] = vals
        out[p - block] = vals
    return out


def check_periods(r: Checker, meta: dict):
    p, A, L, eps, q = meta["p"], meta["A"], meta["L"], meta["eps"], meta["q"]
    a = np.zeros(p, dtype=np.int64)
    a[list(A)] = 1
    b = np.zeros(p, dtype=np.int64)
    b[list(L)] = 1
    f = cyclic_conv(a, b)
    dev = deviations(f, q)
    # Compare dev_q with the bound exactly: dev^q against bound^q as fractions.
    e = Fraction(eps)
    if q == "inf":
        bound_q = e * len(A)
    elif q == "1":
        bound_q = e * len(A) * len(L)
    else:
        bound_q = (e * len(A)) ** 2 * len(L)
    lim = float(bound_q)
    sure = set(np.nonzero(dev < lim * (1 - 1e-9))[0].tolist())
    maybe = set(np.nonzero(dev <= lim * (1 + 1e-9) + 1e-9)[0].tolist())
    got = set(r.report.get("periods", []))
    if not sure <= got <= maybe:
        r.problems.append(f"periods: {len(sure - got)} missing, {len(got - maybe)} spurious")
    r.eq("norm", "inf" if q == "inf" else float(q))
    r.near("bound", eps * len(A) * (1 if q == "inf" else len(L) ** (1.0 / float(q))))


# -- increment driver: literal recount of each step -----------------------------


def _singleton_step(S: np.ndarray, p: int, need: float, min_size: int, width_grid: int):
    """First hit of the driver's dimension-1 search, recounted with window
    counts by binary search: (set, level j, size of the Bohr set) or None."""
    half = (p - 1) // 2
    n = max(1, min(width_grid, half))
    js = [int(j) for j in np.unique(np.linspace(1, half, n).astype(int))]
    centers = np.arange(p)
    for t in range(1, half + 1):
        pos = np.sort((t * S) % p)
        ext = np.concatenate((pos - p, pos, pos + p))
        for j in js:
            size_b = 2 * j + 1
            if size_b < min_size:
                continue
            counts = np.searchsorted(ext, centers + j, "right") - np.searchsorted(ext, centers - j, "left")
            qual = np.nonzero(counts >= need * size_b - 1e-9)[0]
            if qual.size == 0:
                continue
            x = int(((qual * pow(t, -1, p)) % p).min())
            y = (S - x) % p
            r = (t * y) % p
            members = y[np.minimum(r, p - r) <= j]
            return np.sort(members), j, size_b
    return None


def _general_step(S: np.ndarray, p: int, need: float, max_dim: int, min_size: int, width_grid: int):
    """First hit of the driver's search over 2..max_dim frequencies.  The
    widths are the driver's midpoints between consecutive distinct radii,
    so the radii use the definition 2|sin(pi t x / p)| in float64."""
    xs = np.arange(p)
    member = np.zeros(p, dtype=bool)
    member[S] = True
    for dim in range(2, max_dim + 1):
        for gamma in combinations(range(1, p), dim):
            radii = np.zeros(p)
            for t in gamma:
                np.maximum(radii, 2.0 * np.abs(np.sin(math.pi * t * xs / p)), out=radii)
            uniq = np.unique(radii)
            n = max(1, min(width_grid, len(uniq) - 1))
            seen = set()
            for idx in np.unique(np.linspace(1, len(uniq) - 1, n).astype(int)):
                w = float((uniq[idx] + (uniq[idx + 1] if idx + 1 < len(uniq) else 2.0)) / 2)
                B = np.nonzero(radii <= min(w, 2.0) + 1e-12)[0]
                if len(B) < min_size or len(B) in seen:
                    continue
                seen.add(len(B))
                counts = member[(B[None, :] + xs[:, None]) % p].sum(1)
                qual = np.nonzero(counts >= need * len(B) - 1e-9)[0]
                if qual.size:
                    x = int(qual.min())
                    inside = np.zeros(p, dtype=bool)
                    inside[B] = True
                    return np.sort(((S - x) % p)[inside[(S - x) % p]]), dim, len(B)
    return None


def check_increment(r: Checker, meta: dict, argv: list):
    p, eq = meta["p"], meta["eq"]
    k = len(eq)
    if "behrend" in meta:
        M, d, dp, bk = meta["behrend"]
        A = [m + 1 for m in behrend_set(M, d, dp, bk)[0]]
    else:
        A = list(meta["A"])
    max_dim = int(argv[argv.index("--max-dim") + 1])
    min_size, width_grid = 8, 16
    steps = r.report.get("steps") or []
    r.eq("p", p)
    r.eq("set_size", len(A))
    if not steps:
        r.problems.append("no steps")
        return
    first = steps[0]
    want0 = {"index": 0, "set_size": len(A), "bohr_size": p, "dimension": 1, "mechanism": "initial"}
    for key, want in want0.items():
        if first.get(key) != want:
            r.problems.append(f"step 0 {key}: got {first.get(key)!r}, want {want!r}")
    if not close(first.get("density", -1), len(A) / p):
        r.problems.append(f"step 0 density {first.get('density')!r}")
    factor = 1 + 1 / (16 * k)
    current = np.asarray(sorted(A), dtype=np.int64)
    density = len(A) / p
    for i, step in enumerate(steps[1:], start=1):
        need = factor * density
        hit = _singleton_step(current, p, need, min_size, width_grid)
        if hit is None and max_dim >= 2:
            hit = _general_step(current, p, need, max_dim, min_size, width_grid)
            dim = hit[1] if hit else None
        else:
            dim = 1
        if hit is None:
            r.problems.append(f"step {i}: recount finds no increment")
            return
        new, _, bsize = hit
        want = {
            "index": i, "set_size": len(new), "bohr_size": bsize,
            "dimension": dim, "mechanism": "bohr-search",
        }
        for key, value in want.items():
            if step.get(key) != value:
                r.problems.append(f"step {i} {key}: got {step.get(key)!r}, want {value!r}")
        if not close(step.get("density", -1), len(new) / bsize):
            r.problems.append(f"step {i} density: got {step.get('density')!r}, want {len(new) / bsize!r}")
        if len(new) / bsize < need - 1e-12:
            r.problems.append(f"step {i} density below (1 + 1/16k) times the previous")
        if r.problems:
            return
        current, density = new, len(new) / bsize
    if r.report.get("terminal_reason") not in (
        "DENSITY_CAP", "NO_INCREMENT_FOUND", "SIZE_FLOOR", "STEP_BUDGET"
    ):
        r.problems.append(f"terminal_reason {r.report.get('terminal_reason')!r}")


def check_behrend(r: Checker, meta: dict):
    if "alpha" in meta:
        alpha, k, c = meta["alpha"], meta["k"], 0.25
        d = max(1, math.ceil(c * math.log(2 / alpha)))
        M = max(math.ceil(alpha**-c), k + 1)
        params = (M, d, 0, k)
        r.near("requested_alpha", alpha)
    else:
        params = meta["params"]
    M, d, dp, k = params
    members, rr, t_size, total, diagonal = behrend_counts(M, d, dp, k)
    N = M ** (d + dp)
    for key, want in (("M", M), ("d", d), ("dprime", dp), ("k", k), ("N", N)):
        r.eq(key, want)
    r.eq("set_size", len(members))
    r.eq("r", rr)
    r.eq("T_size", t_size)
    r.near("density", len(members) / N)
    if "alpha" in meta:
        r.near("measured_density", len(members) / N)
    r.eq("count", total)
    r.eq("bound", len(members) * M ** (dp * (k - 2)))
    r.eq("diagonal_ok", total == diagonal)


CHECKS = {
    "count.p1e5": check_count_cyclic,
    "count.mid": check_count_cyclic,
    "count.fallback": check_count_cyclic,
    "count.full": check_count_cyclic,
    "count.interval": check_count_interval,
    "count.behrend": check_count_behrend,
    "spectrum": check_spectrum,
    "bohr": check_bohr,
    "periods": check_periods,
    "behrend.enum": check_behrend,
    "behrend.conv": check_behrend,
    "behrend.alpha": check_behrend,
}


def check(report, rc: int, text: str) -> list:
    """Problems with one report's answer; empty when it is right."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        out = json.loads(text)
    except ValueError as exc:
        return [f"output is not JSON: {exc}"]
    r = Checker(out)
    if report.kind.startswith("increment"):
        check_increment(r, report.meta, report.argv)
    else:
        CHECKS[report.kind](r, report.meta)
    return r.problems
