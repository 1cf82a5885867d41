"""Exact arithmetic in Z/pZ: residue sets, set algebra, and the
interval-to-cyclic embedding.

All values are immutable after construction and every operation is pure.
Residues use canonical representatives in [0, p); interval sets are 1-based.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterator

import numpy as np

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for all 64-bit inputs."""
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n == q:
            return True
        if n % q == 0:
            return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime_above(n: int) -> int:
    """Smallest prime strictly greater than n."""
    m = max(n + 1, 2)
    while not is_prime(m):
        m += 1
    return m


@dataclass(frozen=True)
class PrimeCyclicGroup:
    """The ambient group Z/pZ with p an odd prime."""

    p: int

    def __post_init__(self) -> None:
        if self.p < 3:
            raise ValueError(f"modulus must be at least 3, got {self.p}")
        if not is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")

    def inverse(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ValueError("0 has no inverse")
        return pow(a, -1, self.p)


@dataclass(frozen=True)
class ResidueSet:
    """A finite subset of Z/pZ, stored sorted and deduplicated."""

    group: PrimeCyclicGroup
    elements: tuple[int, ...]

    def __post_init__(self) -> None:
        elems = tuple(sorted(set(int(e) for e in self.elements)))
        for e in elems:
            if not 0 <= e < self.group.p:
                raise ValueError(f"residue {e} outside [0, {self.group.p})")
        object.__setattr__(self, "elements", elems)

    def density(self) -> float:
        return len(self.elements) / self.group.p

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __contains__(self, x: int) -> bool:
        i = bisect_left(self.elements, x)
        return i < len(self.elements) and self.elements[i] == x


@dataclass(frozen=True)
class IntervalSet:
    """A finite subset of the integer interval {1, ..., length}."""

    length: int
    elements: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError("interval length must be positive")
        elems = tuple(sorted(set(int(e) for e in self.elements)))
        for e in elems:
            if not 1 <= e <= self.length:
                raise ValueError(f"element {e} outside [1, {self.length}]")
        object.__setattr__(self, "elements", elems)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)


def embed_interval(A: IntervalSet, eq) -> tuple[PrimeCyclicGroup, ResidueSet]:
    """Embed an interval set into Z/pZ for the smallest prime
    p > (sum of |coefficients|) * length.

    At that modulus no k-tuple from [1, length] can wrap around, so the
    equation's solution count over the integers equals the count in Z/pZ.
    """
    if len(A) == 0:
        raise ValueError("cannot embed an empty set")
    weight = sum(abs(c) for c in eq.coeffs)
    group = PrimeCyclicGroup(next_prime_above(weight * A.length))
    return group, ResidueSet(group, A.elements)


def dilate_set(A: ResidueSet, a: int) -> ResidueSet:
    """{a*x mod p : x in A}; a must be a unit, so cardinality is preserved."""
    p = A.group.p
    if a % p == 0:
        raise ValueError("degenerate dilation: multiplier is 0 mod p")
    return ResidueSet(A.group, tuple((a * x) % p for x in A.elements))


def translate_set(A: ResidueSet, x: int) -> ResidueSet:
    p = A.group.p
    return ResidueSet(A.group, tuple((e + x) % p for e in A.elements))


def sumset(A: ResidueSet, B: ResidueSet) -> ResidueSet:
    """Exact sumset {a + b mod p : a in A, b in B}."""
    if A.group != B.group:
        raise ValueError("operands live in different groups")
    if len(A) == 0 or len(B) == 0:
        return ResidueSet(A.group, ())
    a = np.asarray(A.elements, dtype=np.int64)
    b = np.asarray(B.elements, dtype=np.int64)
    sums = np.unique((a[:, None] + b[None, :]) % A.group.p)
    return ResidueSet(A.group, tuple(int(v) for v in sums))


def iterated_sumset(A: ResidueSet, w: int) -> ResidueSet:
    """w-fold sumset A + A + ... + A, computed by binary powering."""
    if w < 1:
        raise ValueError("number of summands must be positive")
    if len(A) == 0:
        return A
    result = None
    power = A
    n = w
    while n:
        if n & 1:
            result = power if result is None else sumset(result, power)
        n >>= 1
        if n:
            power = sumset(power, power)
    assert result is not None
    return result


def intersect(A: ResidueSet, B: ResidueSet) -> ResidueSet:
    if A.group != B.group:
        raise ValueError("operands live in different groups")
    return ResidueSet(A.group, tuple(set(A.elements) & set(B.elements)))
