"""Behrend-type extremal construction for the equation
x_1 + ... + x_{k-1} = (k-1) x_k, plus its verification harness.

Numbers in [0, N) with N = M^(d + d') are viewed through their d low-order
base-M digits.  Keep only numbers whose constrained digits stay below M/k,
then pick the sphere (digit vectors of one fixed squared norm) holding the
most survivors: sums of up to k such numbers never carry in base M, and
points on a sphere can only average to a point of the sphere trivially, so
the chosen set admits very few solutions.

Internally 0-based; the exported IntervalSet shifts members by +1.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import product

import numpy as np

from . import fourier
from .cyclic import IntervalSet
from .errors import InvariantViolation

#: Largest tuple-enumeration volume |A|^(k-1) before verify switches from
#: direct enumeration to the exact convolution double-count.
DIRECT_ENUMERATION_LIMIT = 20_000_000

#: Default value of the free constant in parameter selection.
DEFAULT_SHAPE_CONSTANT = 0.25


@dataclass(frozen=True)
class BehrendParams:
    M: int
    d: int
    dprime: int
    k: int

    def __post_init__(self) -> None:
        if self.M < 2:
            raise ValueError(f"base must be at least 2, got {self.M}")
        if self.d < 1:
            raise ValueError(f"need at least one constrained digit, got {self.d}")
        if self.dprime < 0:
            raise ValueError(f"free digit count must be nonnegative, got {self.dprime}")
        if self.k < 4:
            raise ValueError(f"equation arity must be at least 4, got {self.k}")
        if self.M ** (self.d + self.dprime) >= 2**62:
            raise ValueError("M^(d + d') exceeds the native integer range")

    @property
    def N(self) -> int:
        return self.M ** (self.d + self.dprime)


@dataclass(frozen=True)
class BehrendOutput:
    N: int
    members: tuple[int, ...]  # 0-based, sorted
    r: int
    T_size: int
    params: BehrendParams

    @property
    def interval_set(self) -> IntervalSet:
        return IntervalSet(self.N, tuple(m + 1 for m in self.members))

    def density(self) -> float:
        return len(self.members) / self.N


@dataclass(frozen=True)
class BehrendVerification:
    count: int
    bound: int
    diagonal_ok: bool


def digit_map(n: int, M: int, d: int) -> tuple[int, ...]:
    """The d low-order base-M digits of n, least significant first."""
    if n < 0:
        raise ValueError("digit map is defined for nonnegative integers")
    digits = []
    for _ in range(d):
        digits.append(n % M)
        n //= M
    return tuple(digits)


def _allowed_digits(M: int, k: int) -> list[int]:
    # v < M/k without float arithmetic.
    return [v for v in range(M) if v * k < M]


def build_behrend(params: BehrendParams) -> BehrendOutput:
    """Construct the extremal set for the given parameters.

    The survivor pool T consists of all n whose d constrained digits are
    below M/k; among squared norms r in {1, ..., d M^2} the one whose sphere
    holds the most of T wins (ties to the smallest r).
    """
    M, d, dp, k = params.M, params.d, params.dprime, params.k
    allowed = _allowed_digits(M, k)
    norm_counts: Counter[int] = Counter()
    by_norm: dict[int, list[int]] = {}
    for combo in product(allowed, repeat=d):
        r = sum(v * v for v in combo)
        value = sum(v * M**i for i, v in enumerate(combo))
        norm_counts[r] += 1
        by_norm.setdefault(r, []).append(value)
    t_size = len(allowed) ** d * M**dp
    best_r = None
    for r in range(1, d * M * M + 1):
        c = norm_counts.get(r, 0)
        if c and (best_r is None or c > norm_counts[best_r]):
            best_r = r
    if best_r is None:
        raise ValueError("parameters admit no sphere: no admissible digit vector has norm >= 1")
    block = M**d
    members = tuple(
        sorted(base + block * f for base in by_norm[best_r] for f in range(M**dp))
    )
    out = BehrendOutput(params.N, members, best_r, t_size, params)
    if len(members) * d * M * M < t_size:
        raise InvariantViolation("sphere pigeonhole failed: |A| < |T| / (d M^2)")
    return out


def _count_by_convolution(out: BehrendOutput) -> tuple[int, int]:
    """(total, diagonal) solution counts of x_1 + ... + x_{k-1} = (k-1) x_k,
    both by exact integer convolution, summed as Python ints.

    The diagonal side counts the tuples whose members all share one digit
    vector; classes factor as fixed constrained digits plus a free part, so
    the free parts contribute an identical convolution per class.
    """
    k = out.params.k
    vec = np.zeros(out.N, dtype=np.int64)
    vec[list(out.members)] = 1
    conv = fourier.linear_convolve_int([vec] * (k - 1))
    total = sum(conv[(k - 1) * np.asarray(out.members)].tolist())

    free = out.params.M ** out.params.dprime
    classes = len(out.members) // free
    conv_free = fourier.linear_convolve_int([np.ones(free, dtype=np.int64)] * (k - 1))
    return total, classes * sum(conv_free[:: k - 1].tolist())


def _count_by_enumeration(out: BehrendOutput) -> tuple[int, bool]:
    """(total, diagonal_ok) by direct enumeration of A^(k-1).

    Digit-vector equality is congruence mod M^d, so the diagonal property is
    a residue check on each solution tuple.
    """
    k = out.params.k
    block = out.params.M ** out.params.d
    arr = np.asarray(out.members, dtype=np.int64)
    coords = np.meshgrid(*([arr] * (k - 2)), indexing="ij")
    flat = [c.ravel() for c in coords]
    partial = sum(flat)
    total = 0
    diagonal_ok = True
    for xk in out.members:
        needed = (k - 1) * xk - partial
        hits = np.isin(needed, arr)
        if not hits.any():
            continue
        total += int(hits.sum())
        same = hits & (needed % block == xk % block)
        for c in flat:
            same &= c % block == xk % block
        if int(same.sum()) != int(hits.sum()):
            diagonal_ok = False
    return total, diagonal_ok


def verify_behrend(out: BehrendOutput, params: BehrendParams) -> BehrendVerification:
    """Count solutions exactly, check the diagonal property, and check the
    count bound |A| M^(d'(k-2)).

    Small instances enumerate tuples directly; larger ones compare the exact
    convolution count of all solutions against the exact count of diagonal
    solutions, which agree precisely when no off-diagonal solution exists.
    Those convolutions are int64 (``fourier.linear_convolve_int``), so they
    raise ValueError once their entry bound |A|^(k-2) reaches 2^63.
    """
    k = params.k
    bound = len(out.members) * params.M ** (params.dprime * (k - 2))
    if len(out.members) ** (k - 1) <= DIRECT_ENUMERATION_LIMIT:
        count, diagonal_ok = _count_by_enumeration(out)
    else:
        count, diagonal = _count_by_convolution(out)
        diagonal_ok = count == diagonal
    if count > bound:
        raise InvariantViolation(f"solution count {count} exceeds the bound {bound}")
    return BehrendVerification(count, bound, diagonal_ok)


@dataclass(frozen=True)
class ParamChoice:
    params: BehrendParams
    measured_density: float


def choose_params(alpha: float, k: int, c: float = DEFAULT_SHAPE_CONSTANT) -> ParamChoice:
    """Pick (M, d, d') from a target density.

    d = ceil(c ln(2/alpha)) and M = ceil(alpha^(-c)), raised to k+1 when
    that falls below the smallest admissible base.  The achieved density
    does not depend on d', so the smallest feasible d' is 0; the measured
    density is reported rather than trusted from the asymptotic formula,
    and a measured shortfall is an error carrying the measured value.
    """
    if not 0 < alpha < 1:
        raise ValueError(f"target density must lie in (0, 1), got {alpha}")
    if k < 4:
        raise ValueError(f"equation arity must be at least 4, got {k}")
    if c <= 0:
        raise ValueError("shape constant must be positive")
    d = max(1, math.ceil(c * math.log(2 / alpha)))
    M = max(math.ceil(alpha**-c), k + 1)
    params = BehrendParams(M, d, 0, k)
    measured = build_behrend(params).density()
    if measured < alpha:
        raise ValueError(
            f"no valid parameters: measured density {measured:.6g} falls short of {alpha:.6g}"
        )
    return ParamChoice(params, measured)
