"""Discrete Fourier analysis on Z/pZ.

Conventions, fixed once for the whole package:

    character        gamma_t(x) = exp(2*pi*i*t*x / p)
    transform        fhat(t)    = sum_x f(x) * exp(-2*pi*i*t*x / p)
    inversion        f(x)       = (1/p) * sum_t fhat(t) * exp(2*pi*i*t*x / p)
    convolution      (f*g)(x)   = sum_t f(t) * g(x - t)
    L_q norm         ||f||_q    = (sum_x |f(x)|^q)^(1/q),  ||f||_inf = max |f|

Integer convolutions have one kernel, which multiplies any number m of
integer vectors at once: ``convolve_int`` folds the product mod p and
``linear_convolve_int`` returns the linear convolution.  Small inputs, where
the (m - 1) p^2 multiply-adds of direct integer convolution cost less than
FFT calls, are convolved directly.  Larger ones take one zero-padded ``rfft``
per distinct vector at a 5-smooth length n (n = 2^a 3^b 5^c, where numpy's
FFTs are fastest) and one ``irfft``, rounded to integers.  The FFT runs only
while bound * log2(n) * 2^-53, a rough estimate of its worst absolute error
from an a-priori bound on the entries, stays below FFT_ERROR_MARGIN; its
output is then accepted when every entry lies within ROUNDING_RESIDUAL_LIMIT
of an integer.  Otherwise the product is recomputed by direct integer
arithmetic.  Neither test is a certified error bound.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .cyclic import PrimeCyclicGroup, ResidueSet

#: Largest per-entry distance from an integer tolerated on the FFT fast path.
ROUNDING_RESIDUAL_LIMIT = 0.1

#: Largest estimated FFT error, bound * log2(n) * 2^-53, for which the FFT runs.
FFT_ERROR_MARGIN = 0.05

#: Direct integer convolution of m length-p vectors takes (m - 1) p^2
#: multiply-adds; up to this many it is faster than the FFT's call overhead.
DIRECT_WORK_LIMIT = 2**16

#: Entries must stay below this to be held exactly in int64.
INT64_LIMIT = 2**63

#: Inclusive tolerance for the large-spectrum threshold, relative to |X|.
SPECTRUM_BOUNDARY_TOL = 1e-9


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class GroupFunction:
    """A real-valued function on Z/pZ, stored as a length-p array."""

    group: PrimeCyclicGroup
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != (self.group.p,):
            raise ValueError(f"expected {self.group.p} values, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("values must be finite")
        object.__setattr__(self, "values", _readonly(v))

    def is_integer_valued(self) -> bool:
        return bool(np.all(self.values == np.rint(self.values)))


@dataclass(frozen=True)
class FourierCoefficients:
    """Fourier coefficients indexed by frequency t in [0, p)."""

    group: PrimeCyclicGroup
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.complex128)
        if v.shape != (self.group.p,):
            raise ValueError(f"expected {self.group.p} coefficients, got shape {v.shape}")
        object.__setattr__(self, "values", _readonly(v))


@dataclass(frozen=True)
class Spectrum:
    """Frequencies where an indicator's Fourier coefficient is large."""

    threshold: float
    frequencies: frozenset[int]


def dft(f: GroupFunction) -> FourierCoefficients:
    """Forward transform fhat(t) = sum_x f(x) exp(-2 pi i t x / p)."""
    return FourierCoefficients(f.group, np.fft.fft(f.values))


def inverse_dft(F: FourierCoefficients) -> GroupFunction:
    """Inverse transform under the fixed (1/p)-normalization convention."""
    vals = np.fft.ifft(F.values)
    return GroupFunction(F.group, vals.real)


def _convolve_exact_int(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cyclic convolution by direct integer arithmetic (linear conv + fold)."""
    p = len(a)
    lin = np.convolve(a.astype(np.int64), b.astype(np.int64))
    out = lin[:p].copy()
    out[: p - 1] += lin[p:]
    return out


def convolve(f: GroupFunction, g: GroupFunction) -> GroupFunction:
    """(f*g)(x) = sum_t f(t) g(x-t); integer-valued operands go through ``convolve_int``."""
    if f.group != g.group:
        raise ValueError("operands live in different groups")
    if f.is_integer_valued() and g.is_integer_valued():
        return GroupFunction(f.group, convolve_int([_as_int64(f), _as_int64(g)]).astype(np.float64))
    return GroupFunction(f.group, np.fft.ifft(np.fft.fft(f.values) * np.fft.fft(g.values)).real)


def _as_int64(f: GroupFunction) -> np.ndarray:
    if np.max(np.abs(f.values)) >= INT64_LIMIT:
        raise ValueError("integer values beyond int64")
    return f.values.astype(np.int64)


@functools.lru_cache(maxsize=1024)
def _fft_length(length: int) -> int:
    """Smallest n >= length of the form 2^a 3^b 5^c."""
    best = 1 << (length - 1).bit_length()
    odd5 = 1
    while odd5 < best:
        odd = odd5
        while odd < best:
            n = odd
            while n < length:
                n *= 2
            best = min(best, n)
            odd *= 3
        odd5 *= 5
    return best


def _int_operands(vectors: Sequence[np.ndarray]) -> tuple[list[np.ndarray], int]:
    """The vectors in int64 and the bound B = min_j max|v_j| prod_{i != j} sum|v_i|
    on every entry of their product, taking |v| once per distinct vector.
    Raises ValueError when B reaches INT64_LIMIT."""
    if not vectors:
        raise ValueError("need at least one vector")
    distinct = {id(v): np.asarray(v, dtype=np.int64) for v in vectors}
    if any(v.ndim != 1 or v.size == 0 for v in distinct.values()):
        raise ValueError("vectors must be non-empty and one-dimensional")
    stats = {}
    for key, v in distinct.items():
        absolute = np.abs(v)
        stats[key] = (int(absolute.sum()), int(absolute.max()))
    total = math.prod(stats[key][0] for key in map(id, vectors))
    bound = min(peak * total // s for s, peak in stats.values()) if total else 0
    if bound >= INT64_LIMIT:
        raise ValueError(f"convolution entries may reach {bound}, beyond int64")
    return [distinct[id(v)] for v in vectors], bound


def _fft_linear(vs: list[np.ndarray], bound: int) -> Optional[np.ndarray]:
    """The linear convolution of vs as rounded float64, or None where direct
    integer convolution applies: small inputs, an error estimate past the
    margin, or a failed residual check.  A vector passed more than once is
    transformed once."""
    length = sum(map(len, vs)) - len(vs) + 1
    if bound == 0:
        return np.zeros(length)
    if (len(vs) - 1) * max(map(len, vs)) ** 2 <= DIRECT_WORK_LIMIT:
        return None
    n = _fft_length(length)
    if bound * math.log2(n) * 2.0**-53 >= FFT_ERROR_MARGIN:
        return None
    # Keep only the spectra of vectors passed more than once.
    repeats = Counter(map(id, vs))
    spectra: dict[int, np.ndarray] = {}
    product = None
    for v in vs:
        spec = spectra.get(id(v))
        if spec is None:
            spec = np.fft.rfft(v, n)
            if repeats[id(v)] > 1:
                spectra[id(v)] = spec
        product = spec if product is None else product * spec
    raw = np.fft.irfft(product, n)[:length]
    del product, spectra
    rounded = np.rint(raw)
    # In place: at large p each length-n temporary is tens of megabytes.
    residual = np.abs(np.subtract(raw, rounded, out=raw), out=raw)
    return rounded if np.max(residual) < ROUNDING_RESIDUAL_LIMIT else None


def convolve_int(vectors: Sequence[np.ndarray]) -> np.ndarray:
    """Cyclic convolution v_1 * ... * v_m of integer vectors of one length p,
    as an int64 array: the linear convolution folded mod p.  Raises
    ValueError when its entries may reach INT64_LIMIT."""
    vs, bound = _int_operands(vectors)
    p = len(vs[0])
    if any(len(v) != p for v in vs):
        raise ValueError("vectors must share one length")
    linear = _fft_linear(vs, bound)
    if linear is None:
        return functools.reduce(_convolve_exact_int, vs[1:], vs[0].copy())
    folded = linear[:p].astype(np.int64)
    for start in range(p, len(linear), p):
        chunk = linear[start : start + p]
        folded[: len(chunk)] += chunk.astype(np.int64)
    return folded


def linear_convolve_int(vectors: Sequence[np.ndarray]) -> np.ndarray:
    """Linear convolution v_1 * ... * v_m of integer vectors, of length
    sum(len(v_i)) - m + 1, as an int64 array; the direct path chains int64
    ``np.convolve``.  Raises ValueError when its entries may reach
    INT64_LIMIT."""
    vs, bound = _int_operands(vectors)
    linear = _fft_linear(vs, bound)
    if linear is None:
        return functools.reduce(np.convolve, vs[1:], vs[0].copy())
    return linear.astype(np.int64)


def multi_convolve(f: GroupFunction, k: int) -> GroupFunction:
    """k-fold convolution f * f * ... * f (f appears k times); one ``convolve_int``
    product when f is integer-valued."""
    if k < 1:
        raise ValueError("fold count must be positive")
    if f.is_integer_valued():
        return GroupFunction(f.group, convolve_int([_as_int64(f)] * k).astype(np.float64))
    out = f
    for _ in range(k - 1):
        out = convolve(out, f)
    return out


def lp_norm(f: GroupFunction, q: float) -> float:
    """||f||_q over counting measure; q may be math.inf."""
    absv = np.abs(f.values)
    if q == math.inf:
        return float(np.max(absv)) if absv.size else 0.0
    if q < 1:
        raise ValueError(f"norm exponent must be >= 1, got {q}")
    if q == 1:
        return float(np.sum(absv))
    if q == 2:
        return float(math.sqrt(np.sum(absv * absv)))
    return float(np.sum(absv**q) ** (1.0 / q))


def expectation(f: GroupFunction) -> float:
    """(1/p) sum_x f(x)."""
    return float(np.mean(f.values))


def indicator(A: ResidueSet) -> GroupFunction:
    v = np.zeros(A.group.p)
    if len(A):
        v[np.asarray(A.elements)] = 1.0
    return GroupFunction(A.group, v)


def normalized_indicator(A: ResidueSet) -> GroupFunction:
    """mu_A = 1_A / |A|, a probability measure on the group."""
    if len(A) == 0:
        raise ValueError("cannot normalize the indicator of an empty set")
    v = np.zeros(A.group.p)
    v[np.asarray(A.elements)] = 1.0 / len(A)
    return GroupFunction(A.group, v)


def spectrum(X: ResidueSet, delta: float) -> Spectrum:
    """Frequencies t with |indicator_hat(t)| >= delta * |X|.

    Boundary comparisons are inclusive within SPECTRUM_BOUNDARY_TOL * |X|.
    """
    if len(X) == 0:
        raise ValueError("spectrum of an empty set is undefined")
    if not 0 < delta <= 1:
        raise ValueError(f"threshold must lie in (0, 1], got {delta}")
    coeffs = dft(indicator(X)).values
    cut = delta * len(X) - SPECTRUM_BOUNDARY_TOL * len(X)
    freqs = frozenset(int(t) for t in np.nonzero(np.abs(coeffs) >= cut)[0])
    return Spectrum(delta, freqs)
