"""Almost-period search, the constructive increment lemmas, popular sums,
sumset containment checks, and the density-increment iteration driver.

The probabilistic existence arguments behind the almost-periodicity results
are out of scope; their conclusions are implemented as checkable predicates
and as exhaustive searches over configured candidate families, which is
feasible at desk scale.

Shift deviations ||g(. + t) - g||_q have one routine, ``_deviations``.  For
integer-valued g with 2 sum|g| < 2^31 and q = 2 it reads every shift off one
autocorrelation, ||g(. + t) - g||_2^2 = 2 ||g||_2^2 - 2 (g ⋆ g)(t), in exact
integers from ``fourier.convolve_int``.  Otherwise it differences blocks of
shifts against a zero-copy sliding window over [g, g], in int32 when g is
such an integer function and in float64 when it is not.  The driver's
searches are blocked the same way: the singleton search takes one prefix sum
per frequency for all widths, and the general search counts every width's
translates with one integer product against a zero-copy circulant view of
1_A.  Blocks hold about BLOCK_ENTRIES entries, so no pass builds a p x p
array.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import bohr as bohr_mod
from .bohr import BohrSet, dilate, enumerate_members, scale
from .cyclic import ResidueSet, intersect, iterated_sumset, sumset, dilate_set, translate_set
from .equations import InvariantEquation
from .errors import InvariantViolation, LemmaHypothesisError
from .fourier import GroupFunction, convolve, convolve_int, indicator, lp_norm

#: Inclusive tolerance on threshold comparisons fed by exact integer counts.
BOUNDARY_TOL = 1e-9
#: Slack for float comparisons of analytically exact inequalities.
FLOAT_SLACK = 1e-12
#: Entries per scratch block of the blocked passes (shifts of a deviation
#: profile, frequencies of the singleton search): at most about 1 MB.
BLOCK_ENTRIES = 2**17


@dataclass(frozen=True)
class AlmostPeriodSet:
    """Shifts under which a convolution moves by at most epsilon in norm."""

    epsilon: float
    norm: float
    periods: ResidueSet


@dataclass(frozen=True)
class PopularSumSet:
    """Points where a convolution of indicators meets the threshold Q."""

    points: ResidueSet
    threshold: float
    convolution: GroupFunction


@dataclass(frozen=True)
class TranslateFamily:
    """First conclusion of the coefficient lemma: after translating by
    ``translate``, each subset sits inside its carrier Bohr set with density
    at least (7/8) alpha, and coefficient-dilating subset i lands in the
    image Bohr set dilated by dilations[i]."""

    translate: int
    subsets: tuple[ResidueSet, ...]
    carriers: tuple[BohrSet, ...]
    image: BohrSet
    dilations: tuple[float, ...]
    densities: tuple[float, ...]


@dataclass(frozen=True)
class IncrementWitness:
    """Second conclusion of the coefficient lemma: a translate where one
    carrier already sees density at least (1 + 1/16k) alpha."""

    index: int
    translate: int
    subset: ResidueSet
    carrier: BohrSet
    density: float


class TerminalReason(enum.Enum):
    DENSITY_CAP = "DENSITY_CAP"
    NO_INCREMENT_FOUND = "NO_INCREMENT_FOUND"
    SIZE_FLOOR = "SIZE_FLOOR"
    STEP_BUDGET = "STEP_BUDGET"


@dataclass(frozen=True)
class DriverConfig:
    """Search budgets for the increment driver.  min_size floors the
    candidate Bohr sets so the search cannot degenerate into jumping to
    {0}; width_grid bounds how many critical-lattice widths are tried per
    frequency set."""

    max_dim: int = 1
    min_size: int = 8
    max_steps: int = 64
    width_grid: int = 16


@dataclass(frozen=True)
class IncrementStep:
    dense_set: ResidueSet
    bohr_set: BohrSet
    density: float
    mechanism: str


@dataclass(frozen=True)
class IncrementTrace:
    steps: tuple[IncrementStep, ...]
    terminal_reason: TerminalReason
    config: DriverConfig

    def to_dict(self) -> dict:
        return {
            "steps": [
                {
                    "index": i,
                    "density": s.density,
                    "set_size": len(s.dense_set),
                    "bohr_size": bohr_mod.size(s.bohr_set),
                    "dimension": s.bohr_set.dimension,
                    "width": s.bohr_set.width,
                    "mechanism": s.mechanism,
                }
                for i, s in enumerate(self.steps)
            ],
            "terminal_reason": self.terminal_reason.value,
            "config": {
                "max_dim": self.config.max_dim,
                "min_size": self.config.min_size,
                "max_steps": self.config.max_steps,
                "width_grid": self.config.width_grid,
            },
        }


def shift_deviation(f: GroupFunction, t: int, q: float) -> float:
    """||f(. + t) - f||_q."""
    return float(_deviations(f.values, q, [t % f.group.p])[0])


def _deviations(values: np.ndarray, q: float, shifts: Sequence[int]) -> np.ndarray:
    """||v(. + t) - v||_q for each t in ``shifts`` (residues in [0, p)).

    Integer-valued v with 2 sum|v| < 2^31 is evaluated in int32, where no
    difference or L1 sum can overflow.  Each value is the root
    np.float64(S) ** (1/q) of the sum S of |differences|^q, taken per entry as
    a scalar, so it equals a direct evaluation wherever that evaluation's
    float sum is exact (every sum below 2^53)."""
    if not q >= 1:
        raise ValueError(f"norm exponent must be >= 1, got {q}")
    p = len(values)
    shifts = np.asarray(shifts, dtype=np.intp)
    small_ints = bool(np.all(values == np.rint(values))) and 2 * np.sum(np.abs(values)) < 2**31
    v = values.astype(np.int32) if small_ints else values
    # One autocorrelation serves every shift; a single shift is cheaper directly.
    if q == 2 and small_ints and len(shifts) > 1:
        corr = convolve_int([v, v[-np.arange(p) % p]])  # entries below 2^60
        sums = 2 * (corr[0] - corr[shifts])
    else:
        sums = _blocked_sums(v, q, shifts)
    if q in (1, math.inf):
        return sums.astype(np.float64)
    root = 1.0 / q
    return np.array([np.float64(s) ** root for s in sums.tolist()], dtype=np.float64)


def _blocked_sums(v: np.ndarray, q: float, shifts: np.ndarray) -> np.ndarray:
    """sum_x |v(x + t) - v(x)|^q (max for q = inf) per shift, over blocks of
    shifts read from a zero-copy sliding window over [v, v]."""
    p = len(v)
    window = sliding_window_view(np.concatenate([v, v]), p)  # window[t] = v(. + t)
    sums = np.empty(len(shifts), dtype=v.dtype if q in (1, math.inf) else np.float64)
    rows = max(1, BLOCK_ENTRIES // p)
    for start in range(0, len(shifts), rows):
        diff = window[shifts[start : start + rows]]
        diff -= v
        np.abs(diff, out=diff)
        if q == math.inf:
            sums[start : start + rows] = diff.max(axis=1)
        elif q == 1:
            sums[start : start + rows] = diff.sum(axis=1, dtype=v.dtype)
        else:
            sums[start : start + rows] = np.sum(diff ** float(q), axis=1)
    return sums


def _deviation_profile(values: np.ndarray, q: float) -> np.ndarray:
    """dev(t) for t = 0..p-1, symmetrized exactly (dev(t) = dev(p - t))."""
    p = len(values)
    half = _deviations(values, q, np.arange(p // 2 + 1))
    return np.concatenate([half, half[1 : (p + 1) // 2][::-1]])


def _check_eps(eps: float) -> None:
    if not (math.isfinite(eps) and eps >= 0):
        raise ValueError(f"eps must be finite and non-negative, got {eps}")


def almost_periods(A: ResidueSet, L: ResidueSet, eps: float, q: float) -> AlmostPeriodSet:
    """All t with ||1_A * 1_L(. + t) - 1_A * 1_L||_q <= eps |A| |L|^(1/q).

    For q = inf the bound reads eps |A|, the sup-norm form.
    """
    if len(A) == 0 or len(L) == 0:
        raise ValueError("almost-period search needs nonempty sets")
    _check_eps(eps)
    conv = convolve(indicator(A), indicator(L))
    bound = eps * len(A) if q == math.inf else eps * len(A) * len(L) ** (1.0 / q)
    dev = _deviation_profile(conv.values, q)
    ts = np.nonzero(dev <= bound + BOUNDARY_TOL)[0]
    return AlmostPeriodSet(eps, q, ResidueSet(A.group, tuple(int(t) for t in ts)))


def multi_almost_periods(
    sets: Sequence[ResidueSet], M: ResidueSet, L: ResidueSet, eps: float
) -> AlmostPeriodSet:
    """All t with ||1_{A_1} * ... * 1_{A_n} * 1_M * 1_L(. + t) - same||_inf
    <= eps |A_1| ... |A_n| |M|."""
    if not sets:
        raise ValueError("need at least one leading set")
    if any(len(s) == 0 for s in sets) or len(M) == 0 or len(L) == 0:
        raise ValueError("almost-period search needs nonempty sets")
    _check_eps(eps)
    conv = indicator(sets[0])
    for s in sets[1:]:
        conv = convolve(conv, indicator(s))
    conv = convolve(convolve(conv, indicator(M)), indicator(L))
    bound = eps * math.prod(len(s) for s in sets) * len(M)
    dev = _deviation_profile(conv.values, math.inf)
    ts = np.nonzero(dev <= bound + BOUNDARY_TOL)[0]
    return AlmostPeriodSet(eps, math.inf, ResidueSet(M.group, tuple(int(t) for t in ts)))


def verify_bohr_periods(
    candidate: BohrSet,
    sets: Sequence[ResidueSet],
    M: ResidueSet,
    L: ResidueSet,
    eps: float,
) -> bool:
    """True iff every member of the candidate Bohr set is an almost-period
    of the full convolution; the acceptance predicate for Bohr sets of
    almost periods found by search."""
    periods = set(multi_almost_periods(sets, M, L, eps).periods.elements)
    return all(t in periods for t in enumerate_members(candidate).elements)


def _counts_on_translates(A: ResidueSet, members: ResidueSet) -> np.ndarray:
    """c[x] = |(A - x) ∩ S| for a symmetric member set S, via one exact
    convolution."""
    return convolve(indicator(members), indicator(A)).values


def increment_from_periods(
    f: GroupFunction, A: ResidueSet, B: BohrSet, eps: float
) -> tuple[int, float]:
    """Turn a Bohr set of almost-periods of f * 1_A into a dense translate.

    Preconditions, checked explicitly:
      (1) every t in B shifts f * 1_A by at most eps in sup norm,
      (2) ||f||_1 <= 1 / (2 alpha),
      (3) (f * 1_A)(0) >= 1 - eps.
    Returns the translate x (smallest residue maximizing |(x+A) ∩ B|) and
    the achieved density |(x+A) ∩ B| / |B|, guaranteed >= 2 alpha (1 - 2 eps).
    """
    p = A.group.p
    alpha = len(A) / p
    g = convolve(f, indicator(A))
    members = enumerate_members(B)
    devs = _deviations(g.values, math.inf, members.elements)
    failing = np.nonzero(devs > eps + FLOAT_SLACK)[0]
    if failing.size:
        t, dev = members.elements[failing[0]], devs[failing[0]]
        raise ValueError(
            f"precondition failed: shift deviation over B (t={t} gives {dev:.6g} > eps={eps:.6g})"
        )
    if len(A) == 0:
        raise ValueError("precondition failed: value at zero (A is empty)")
    l1 = lp_norm(f, 1)
    if l1 > 1.0 / (2 * alpha) + FLOAT_SLACK:
        raise ValueError(
            f"precondition failed: L1 mass of f ({l1:.6g} > 1/(2 alpha) = {1/(2*alpha):.6g})"
        )
    at_zero = float(g.values[0])
    if at_zero < 1.0 - eps - FLOAT_SLACK:
        raise ValueError(
            f"precondition failed: value at zero ({at_zero:.6g} < 1 - eps = {1-eps:.6g})"
        )
    counts = _counts_on_translates(A, members)
    # counts[y] = |(A - y) ∩ B| = |((-y) + A) ∩ B|; report the translate of A.
    per_x = counts[(-np.arange(p)) % p]
    x = int(np.argmax(per_x))
    density = float(per_x[x]) / len(members)
    floor = 2 * alpha * (1 - 2 * eps)
    if density < floor - BOUNDARY_TOL:
        raise InvariantViolation(
            f"almost-period increment fell below 2 alpha (1 - 2 eps): {density:.6g} < {floor:.6g}"
        )
    return x, density


def dense_translate(A: ResidueSet, B: BohrSet, delta: float) -> tuple[int, float]:
    """Find x in B with |A ∩ (x + B_delta)| >= 0.9 alpha |B_delta|, where
    alpha is the density of A in B.

    Preconditions, checked explicitly: A ⊆ B, B regular,
    delta <= alpha / (240 d), and |B_{1+delta}| <= 1.01 |B|.
    """
    members = enumerate_members(B)
    if not set(A.elements) <= set(members.elements):
        raise ValueError("precondition failed: A must be a subset of B")
    if not bohr_mod.is_regular(B).is_regular:
        raise ValueError("precondition failed: B must be regular")
    alpha = len(A) / len(members)
    d = B.dimension
    cap = alpha / (240 * d) if d else math.inf
    if delta > cap + FLOAT_SLACK:
        raise ValueError(
            f"precondition failed: delta {delta:.6g} exceeds alpha/(240 d) = {cap:.6g}"
        )
    grown = bohr_mod.size(dilate(B, 1 + delta))
    if grown > 1.01 * len(members) + FLOAT_SLACK:
        raise ValueError("precondition failed: |B_(1+delta)| exceeds 1.01 |B|")
    small = enumerate_members(dilate(B, delta))
    counts = _counts_on_translates(A, small)
    # counts[x] = |(A - x) ∩ B_delta| = |A ∩ (x + B_delta)| by symmetry.
    member_idx = np.asarray(members.elements)
    best = int(np.argmax(counts[member_idx]))
    x = int(member_idx[best])
    density = float(counts[x]) / len(small)
    if density < 0.9 * alpha - BOUNDARY_TOL:
        raise InvariantViolation(
            f"dense translate fell below 0.9 alpha: {density:.6g} < {0.9 * alpha:.6g}"
        )
    return x, density


def coefficient_translates(
    A: ResidueSet,
    B: BohrSet,
    coeffs: Sequence[int],
    dilations: Sequence[float],
) -> Union[TranslateFamily, IncrementWitness]:
    """Constructive form of the coefficient lemma.

    Builds eps = alpha / (16 k |a_1 ... a_k| 24 d), the carrier Bohr sets
    B^i = (prod_{j != i} a_j) B_{eps * dilations[i]} and the image
    B' = (prod_j a_j) B_eps, then searches translates.  Returns an
    IncrementWitness when some carrier sees density (1 + 1/16k) alpha
    somewhere, otherwise the TranslateFamily at the best average translate.
    """
    p = A.group.p
    k = len(coeffs)
    if k < 3:
        raise ValueError(f"need at least 3 coefficients, got {k}")
    if len(dilations) != k:
        raise ValueError("need one dilation per coefficient")
    for delta in dilations:
        if not 0 < delta <= 1:
            raise ValueError(f"dilations must lie in (0, 1], got {delta}")
    for a in coeffs:
        if a % p == 0:
            raise ValueError(f"coefficient {a} is not a unit mod {p}")
    if B.dimension < 1:
        raise ValueError("carrier construction needs a Bohr set of dimension >= 1")
    members = enumerate_members(B)
    if not set(A.elements) <= set(members.elements):
        raise ValueError("precondition failed: A must be a subset of B")
    if len(A) == 0:
        raise ValueError("precondition failed: A must be nonempty")

    alpha = len(A) / len(members)
    d = B.dimension
    eps = alpha / (16 * k) / math.prod(abs(a) for a in coeffs) / (24 * d)
    prod_all = math.prod(coeffs) % p
    carriers = []
    for i, delta in enumerate(dilations):
        prod_except = (prod_all * pow(coeffs[i] % p, -1, p)) % p
        carriers.append(scale(dilate(B, eps * delta), prod_except))
    image = scale(dilate(B, eps), prod_all)

    carrier_members = [enumerate_members(c) for c in carriers]
    sizes = [len(m) for m in carrier_members]
    count_arrays = [_counts_on_translates(A, m) for m in carrier_members]

    threshold = (1 + 1 / (16 * k)) * alpha
    best_density, best = -1.0, None
    for i, (counts, sz) in enumerate(zip(count_arrays, sizes)):
        x = int(np.argmax(counts))
        density = float(counts[x]) / sz
        if density > best_density + FLOAT_SLACK:
            best_density, best = density, (i, x)
    if best_density >= threshold - FLOAT_SLACK:
        i, x = best
        subset = intersect(translate_set(A, -x), carrier_members[i])
        return IncrementWitness(i, x, subset, carriers[i], len(subset) / sizes[i])

    avg = sum(counts / sz for counts, sz in zip(count_arrays, sizes))
    member_idx = np.asarray(members.elements)
    pos = int(np.argmax(avg[member_idx]))
    x = int(member_idx[pos])
    if float(avg[x]) < (k - 1 / 16) * alpha - FLOAT_SLACK:
        raise LemmaHypothesisError(
            f"lemma hypothesis violated: best average density {float(avg[x]):.6g} "
            f"below (k - 1/16) alpha = {(k - 1/16) * alpha:.6g}; is B regular?"
        )
    shifted = translate_set(A, -x)
    subsets = tuple(intersect(shifted, m) for m in carrier_members)
    densities = tuple(len(s) / sz for s, sz in zip(subsets, sizes))
    if any(dens < (7 / 8) * alpha - BOUNDARY_TOL for dens in densities):
        raise InvariantViolation("translate family fell below (7/8) alpha")
    return TranslateFamily(x, subsets, tuple(carriers), image, tuple(dilations), densities)


def popular_sums(sets: Sequence[ResidueSet], alpha: float) -> PopularSumSet:
    """Points where 1_{A_3} * ... * 1_{A_k} reaches Q = (alpha/8) |A_4|...|A_k|.

    Callers apply any coefficient dilations before passing the sets.
    """
    if not sets:
        raise ValueError("popular sums need at least one set")
    if any(len(s) == 0 for s in sets):
        raise ValueError("popular sums need nonempty sets")
    conv = indicator(sets[0])
    for s in sets[1:]:
        conv = convolve(conv, indicator(s))
    threshold = (alpha / 8) * math.prod(len(s) for s in sets[1:])
    xs = np.nonzero(conv.values >= threshold - BOUNDARY_TOL)[0]
    points = ResidueSet(sets[0].group, tuple(int(x) for x in xs))
    return PopularSumSet(points, threshold, conv)


def bohr_in_sumset_check(candidate: BohrSet, A: ResidueSet, m: int) -> bool:
    """Test enumerate(candidate) ⊆ wA - wA for w = 3^(m+1)."""
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    target = set(enumerate_members(candidate).elements)
    if len(A) == 0:
        return not target
    w = 3 ** (m + 1)
    reach = iterated_sumset(A, w)
    diff = set(sumset(reach, dilate_set(reach, -1)).elements)
    return target <= diff


def _midpoint_width(p: int, j: int) -> float:
    """A width strictly between the j-th and (j+1)-th critical widths of a
    single-frequency Bohr set, so membership is j-stable."""
    lo = 2.0 * math.sin(math.pi * j / p)
    hi = 2.0 if j >= (p - 1) // 2 else 2.0 * math.sin(math.pi * (j + 1) / p)
    return (lo + hi) / 2.0


def _width_grid(p: int, config: DriverConfig) -> list[int]:
    half = (p - 1) // 2
    n = max(1, min(config.width_grid, half))
    js = np.unique(np.linspace(1, half, n).astype(int))
    return [int(j) for j in js]


def _search_singleton_increment(
    A: ResidueSet, need_density: float, config: DriverConfig
) -> Optional[IncrementStep]:
    """Scan Bohr sets of dimension 1 (all frequencies, widths from the
    critical lattice) for a translate with density >= need_density.
    Deterministic: first hit in (frequency, width, translate) order.

    Frequencies are taken in blocks: one scatter builds their dilated
    indicators, and one prefix sum per frequency, padded to the widest
    window, gives the window sums of every width."""
    p = A.group.p
    elements = np.asarray(A.elements, dtype=np.int64)
    js = [j for j in _width_grid(p, config) if 2 * j + 1 >= config.min_size]
    if not js:
        return None
    needs = np.array([need_density * (2 * j + 1) - BOUNDARY_TOL for j in js])
    span = p + 2 * js[-1]
    freqs = np.arange(1, (p - 1) // 2 + 1)
    rows = max(1, BLOCK_ENTRIES // span)
    for start in range(0, len(freqs), rows):
        ts = freqs[start : start + rows]
        # csum[i, y] = |{a in A : t_i a mod p < y}|, continued cyclically past p.
        csum = np.zeros((len(ts), span + 1), dtype=np.int32)
        csum[np.arange(len(ts))[:, None], 1 + (ts[:, None] * elements) % p] = 1
        csum[:, p + 1 :] = csum[:, 1 : span - p + 1]
        np.cumsum(csum, axis=1, out=csum)
        # peaks[i, k]: most dilates t_i a in any window of 2 j_k + 1 residues.
        peaks = np.empty((len(ts), len(js)), dtype=np.int32)
        for k, j in enumerate(js):
            np.max(csum[:, 2 * j + 1 : 2 * j + 1 + p] - csum[:, :p], axis=1, out=peaks[:, k])
        hits = np.argwhere(peaks >= needs)
        if hits.size == 0:
            continue
        i, k = hits[0]
        t, j = int(ts[i]), js[k]
        # The window starting at y is the interval of radius j centred at y + j.
        window = csum[i, 2 * j + 1 : 2 * j + 1 + p] - csum[i, :p]
        centres = (np.nonzero(window >= needs[k])[0] + j) % p
        x = int((centres * pow(t, -1, p) % p).min())
        candidate = BohrSet(A.group, (t,), _midpoint_width(p, j))
        new_set = intersect(translate_set(A, -x), enumerate_members(candidate))
        return IncrementStep(new_set, candidate, len(new_set) / (2 * j + 1), "bohr-search")
    return None


def _search_general_increment(
    A: ResidueSet, need_density: float, config: DriverConfig
) -> Optional[IncrementStep]:
    """Exhaustive search over frequency sets of size 2..max_dim; viable only
    for small moduli.  Per frequency set, one comparison against the radii
    gives every width's member mask, and one integer product against a
    zero-copy circulant view of 1_A gives every width's translate counts."""
    from itertools import combinations

    p = A.group.p
    doubled = np.zeros(2 * p, dtype=np.int32)
    doubled[np.asarray(A.elements, dtype=np.int64)] = 1
    doubled[p:] = doubled[:p]
    # circulant[s, x] = 1_A(x - s), so (mask @ circulant)[x] = (1_S * 1_A)(x).
    circulant = sliding_window_view(doubled, p)[p:0:-1]
    for dim in range(2, config.max_dim + 1):
        for gamma in combinations(range(1, p), dim):
            radii = bohr_mod._radii(p, gamma)
            uniq = np.unique(radii)
            n = max(1, min(config.width_grid, len(uniq) - 1))
            picks = np.unique(np.linspace(1, len(uniq) - 1, n).astype(int))
            upper = np.append(uniq[1:], 2.0)
            widths = np.minimum((uniq[picks] + upper[picks]) / 2, 2.0)
            masks = radii <= (widths + bohr_mod.MEMBERSHIP_TOL)[:, None]
            sizes = masks.sum(axis=1)
            seen_sizes, keep = set(), []
            for idx, size in enumerate(sizes.tolist()):
                if size >= config.min_size and size not in seen_sizes:
                    seen_sizes.add(size)
                    keep.append(idx)
            if not keep:
                continue
            counts = masks[keep].astype(np.int32) @ circulant
            hits = np.argwhere(counts >= (need_density * sizes[keep] - BOUNDARY_TOL)[:, None])
            if hits.size == 0:
                continue
            row, x = hits[0]
            candidate = BohrSet(A.group, gamma, float(widths[keep[row]]))
            members = enumerate_members(candidate)
            new_set = intersect(translate_set(A, -int(x)), members)
            return IncrementStep(new_set, candidate, len(new_set) / len(members), "bohr-search")
    return None


def increment_driver(A: ResidueSet, eq: InvariantEquation, config: DriverConfig) -> IncrementTrace:
    """Iterate density increments until none is available.

    Each step tries the coefficient lemma's increment disjunct first, then a
    direct search over the configured candidate Bohr family.  A step is
    accepted only with density >= (1 + 1/16k) times the current one, so the
    recorded densities grow geometrically.  Fully deterministic for a given
    config.
    """
    if len(A) == 0:
        raise ValueError("driver needs a nonempty starting set")
    p = A.group.p
    k = eq.arity
    factor = 1 + 1 / (16 * k)
    start_bohr = BohrSet(A.group, (0,), 2.0)  # trivial frequency: whole group
    steps = [IncrementStep(A, start_bohr, len(A) / p, "initial")]
    reason = None
    for _ in range(config.max_steps):
        current = steps[-1]
        alpha = current.density
        if factor * alpha > 1.0:
            reason = TerminalReason.DENSITY_CAP
            break
        if bohr_mod.size(current.bohr_set) < config.min_size:
            reason = TerminalReason.SIZE_FLOOR
            break
        need = factor * alpha
        nxt = None
        try:
            outcome = coefficient_translates(
                current.dense_set, current.bohr_set, eq.coeffs, (1.0,) * k
            )
        except (LemmaHypothesisError, ValueError):
            outcome = None
        if isinstance(outcome, IncrementWitness):
            if (
                bohr_mod.size(outcome.carrier) >= config.min_size
                and outcome.density >= need - FLOAT_SLACK
            ):
                nxt = IncrementStep(
                    outcome.subset, outcome.carrier, outcome.density, "coefficient-translates"
                )
        if nxt is None:
            nxt = _search_singleton_increment(current.dense_set, need, config)
        if nxt is None and config.max_dim >= 2:
            nxt = _search_general_increment(current.dense_set, need, config)
        if nxt is None:
            reason = TerminalReason.NO_INCREMENT_FOUND
            break
        steps.append(nxt)
    if reason is None:
        reason = TerminalReason.STEP_BUDGET
    return IncrementTrace(tuple(steps), reason, config)
