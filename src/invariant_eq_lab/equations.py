"""Invariant linear equations: representation, exact solution counting,
triviality predicates, and Sidon-set checking.

An equation a_1 x_1 + ... + a_k x_k = 0 is invariant when the coefficients
sum to zero; its solution count inside a set is then unchanged by
translation, which is what makes density arguments possible.  Counting is
over ordered tuples throughout.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import fourier
from .cyclic import IntervalSet, ResidueSet

AnySet = Union[ResidueSet, IntervalSet]


class TrivialityPredicate(enum.Enum):
    #: Trivial = all variables equal (valid for every invariant equation).
    ALL_EQUAL = "all-equal"
    #: Trivial = {x1, y1} equals {x2, y2} as multisets; only meaningful for
    #: the Sidon equation x1 + y1 = x2 + y2, i.e. coefficients (1, 1, -1, -1).
    SIDON_MULTISET = "sidon-multiset"


@dataclass(frozen=True)
class InvariantEquation:
    """Integer coefficients (a_1, ..., a_k), all nonzero, summing to zero."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(int(c) for c in self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        if len(coeffs) < 3:
            raise ValueError(f"need at least 3 coefficients, got {len(coeffs)}")
        if any(c == 0 for c in coeffs):
            raise ValueError("coefficients must be nonzero")
        if sum(coeffs) != 0:
            raise ValueError(f"coefficients must sum to 0, got {sum(coeffs)}")

    @property
    def arity(self) -> int:
        return len(self.coeffs)


@dataclass(frozen=True)
class SolutionCount:
    total: int
    trivial: int

    def __post_init__(self) -> None:
        if not 0 <= self.trivial <= self.total:
            raise ValueError("need 0 <= trivial <= total")

    @property
    def nontrivial(self) -> int:
        return self.total - self.trivial


@dataclass(frozen=True)
class SolutionDensityReport:
    alpha: float
    total: int
    trivial: int
    nontrivial: int
    normalized: float  # total / N^(k-1)


def _check_coeffs_mod_p(eq: InvariantEquation, p: int) -> None:
    for a in eq.coeffs:
        if a % p == 0:
            raise ValueError(f"coefficient {a} degenerates mod {p}")


def _tuple_grid(values: np.ndarray, k: int) -> list[np.ndarray]:
    """Coordinate arrays enumerating values^k, flattened."""
    grids = np.meshgrid(*([values] * k), indexing="ij")
    return [g.ravel() for g in grids]


def count_solutions_bruteforce(A: AnySet, eq: InvariantEquation) -> SolutionCount:
    """Exact count by enumerating A^(k-1) and solving for the last variable.

    For a ResidueSet the last coefficient is inverted mod p; for an
    IntervalSet the equation is solved over the integers.  This is the
    oracle against which every fast path is checked.
    """
    k = eq.arity
    n = len(A)
    if n == 0:
        return SolutionCount(0, 0)
    vals = np.asarray(A.elements, dtype=np.int64)
    coords = _tuple_grid(vals, k - 1)
    partial = sum(a * c for a, c in zip(eq.coeffs[:-1], coords))
    if isinstance(A, ResidueSet):
        p = A.group.p
        _check_coeffs_mod_p(eq, p)
        inv_last = pow(eq.coeffs[-1] % p, -1, p)
        last = (-partial % p) * inv_last % p
        member = np.zeros(p, dtype=bool)
        member[vals] = True
        total = int(np.count_nonzero(member[last]))
    else:
        a_last = eq.coeffs[-1]
        quot, rem = np.divmod(-partial, a_last)
        ok = rem == 0
        total = int(np.count_nonzero(ok & np.isin(quot, vals)))
    return SolutionCount(total, n)


def count_solutions_fast(A: ResidueSet, eq: InvariantEquation) -> SolutionCount:
    """Exact count via the split identity

        count = sum_y r(y) * r'(-y mod p),

    where r = 1_{a_1 A} * ... * 1_{a_h A} and r' = 1_{a_{h+1} A} * ... * 1_{a_k A}
    with h = ceil(k/2): r(y) counts the first-half tuples with a_1 x_1 + ... +
    a_h x_h = y, and r' does the same for the second half.

    The dilated indicators are scattered straight from one int64 array of A.
    Each half is one ``fourier.convolve_int`` product, whose entries are at
    most |A|^(ceil(k/2)-1), with that kernel's checks and exact fallback.
    The final sum is exact: an int64 dot product when |A|^(k-1), which bounds
    the count and every partial sum, is below 2^63, and Python integers
    otherwise.  Raises ValueError when |A|^(ceil(k/2)-1) reaches 2^63, where
    a half may not fit in int64 (for instance k = 12 with |A| >= 6209).
    """
    n = len(A)
    if n == 0:
        return SolutionCount(0, 0)
    p = A.group.p
    _check_coeffs_mod_p(eq, p)
    elems = np.asarray(A.elements, dtype=np.int64)
    dilates: dict[int, np.ndarray] = {}
    for u in {a % p for a in eq.coeffs}:
        dilates[u] = np.zeros(p, dtype=np.int64)
        dilates[u][u * elems % p] = 1
    vectors = [dilates[a % p] for a in eq.coeffs]
    half = (eq.arity + 1) // 2
    r = fourier.convolve_int(vectors[:half])
    r_prime = fourier.convolve_int(vectors[half:])
    r_prime_neg = np.concatenate((r_prime[:1], r_prime[:0:-1]))
    if n ** (eq.arity - 1) < fourier.INT64_LIMIT:
        total = int(np.dot(r, r_prime_neg))
    else:
        total = sum(map(operator.mul, r.tolist(), r_prime_neg.tolist()))
    return SolutionCount(total, n)


def _sidon_equation(eq: InvariantEquation) -> bool:
    return sorted(eq.coeffs) == [-1, -1, 1, 1]


def has_nontrivial_solution(
    A: AnySet, eq: InvariantEquation, pred: TrivialityPredicate = TrivialityPredicate.ALL_EQUAL
) -> bool:
    """True iff A contains a solution that is nontrivial under pred.

    Short-circuits per outermost coordinate rather than completing the
    full count.
    """
    if pred is TrivialityPredicate.SIDON_MULTISET:
        if not _sidon_equation(eq):
            raise ValueError("SIDON_MULTISET only applies to the equation (1, 1, -1, -1)")
        return not is_sidon(A)
    k = eq.arity
    n = len(A)
    if n <= 1:
        return False
    vals = np.asarray(A.elements, dtype=np.int64)
    coords = _tuple_grid(vals, k - 2)
    inner = sum(a * c for a, c in zip(eq.coeffs[1:-1], coords))
    residue_mode = isinstance(A, ResidueSet)
    if residue_mode:
        p = A.group.p
        _check_coeffs_mod_p(eq, p)
        inv_last = pow(eq.coeffs[-1] % p, -1, p)
        member = np.zeros(p, dtype=bool)
        member[vals] = True
    for x1 in A.elements:
        partial = eq.coeffs[0] * x1 + inner
        if residue_mode:
            last = (-partial % p) * inv_last % p
            hit = member[last]
        else:
            quot, rem = np.divmod(-partial, eq.coeffs[-1])
            hit = (rem == 0) & np.isin(quot, vals)
            last = quot
        if not hit.any():
            continue
        # A hit is nontrivial unless every coordinate equals x1.
        all_equal = hit & (last == x1)
        for c in coords:
            all_equal &= c == x1
        if int(hit.sum()) > int(all_equal.sum()):
            return True
    return False


def is_sidon(S: AnySet) -> bool:
    """True iff all pairwise sums x + y (x <= y) are distinct.

    Tested in the ambient structure given: mod p for a ResidueSet, over the
    integers for an IntervalSet.
    """
    elems = list(S.elements)
    modulus = S.group.p if isinstance(S, ResidueSet) else None
    seen: dict[int, tuple[int, int]] = {}
    for i, x in enumerate(elems):
        for y in elems[i:]:
            s = (x + y) % modulus if modulus else x + y
            pair = (x, y)
            if s in seen and seen[s] != pair:
                return False
            seen[s] = pair
    return True


def solution_density_report(A: AnySet, eq: InvariantEquation) -> SolutionDensityReport:
    """Solution statistics normalized by N^(k-1), as used in result tables."""
    if isinstance(A, ResidueSet):
        count = count_solutions_fast(A, eq)
        N = A.group.p
    else:
        count = count_solutions_bruteforce(A, eq)
        N = A.length
    return SolutionDensityReport(
        alpha=len(A) / N,
        total=count.total,
        trivial=count.trivial,
        nontrivial=count.nontrivial,
        normalized=count.total / math.pow(N, eq.arity - 1),
    )
