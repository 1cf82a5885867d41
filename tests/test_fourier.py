"""Transforms, convolutions, norms, and the large spectrum, all checked
against direct O(p^2) oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invariant_eq_lab.bohr import BohrSet, dilate, enumerate_members, find_regular_dilate
from invariant_eq_lab.cyclic import PrimeCyclicGroup, ResidueSet
from invariant_eq_lab.fourier import (
    GroupFunction,
    convolve,
    convolve_int,
    dft,
    expectation,
    inverse_dft,
    linear_convolve_int,
    lp_norm,
    multi_convolve,
    normalized_indicator,
    spectrum,
)


def dft_oracle(values, p):
    """Direct O(p^2) character sum."""
    out = np.zeros(p, dtype=complex)
    for t in range(p):
        out[t] = sum(values[x] * np.exp(-2j * np.pi * t * x / p) for x in range(p))
    return out


def convolve_oracle(f, g, p):
    out = np.zeros(p)
    for x in range(p):
        out[x] = sum(f[t] * g[(x - t) % p] for t in range(p))
    return out


def gf(p, values):
    return GroupFunction(PrimeCyclicGroup(p), np.asarray(values, dtype=float))


class TestDft:
    def test_delta_function(self):
        f = gf(7, [1, 0, 0, 0, 0, 0, 0])
        assert np.allclose(dft(f).values, np.ones(7))

    def test_constant_function(self):
        f = gf(7, np.ones(7))
        coeffs = dft(f).values
        assert coeffs[0] == pytest.approx(7)
        assert np.allclose(coeffs[1:], 0, atol=1e-12)

    def test_matches_direct_transform(self):
        rng = np.random.default_rng(7)
        values = rng.integers(-5, 6, size=31).astype(float)
        f = gf(31, values)
        assert np.allclose(dft(f).values, dft_oracle(values, 31), rtol=1e-9, atol=1e-9)

    def test_inverse_recovers(self):
        rng = np.random.default_rng(8)
        values = rng.normal(size=31)
        f = gf(31, values)
        back = inverse_dft(dft(f))
        assert np.allclose(back.values, values, rtol=1e-9, atol=1e-12)

    def test_zero_coefficient_is_total_mass(self):
        rng = np.random.default_rng(9)
        values = rng.integers(-9, 10, size=101).astype(float)
        f = gf(101, values)
        coeffs = dft(f).values
        assert abs(coeffs[0] - values.sum()) <= 1e-9 * np.abs(values).sum() + 1e-12


class TestConvolve:
    def test_identity_element(self):
        delta = gf(7, [1, 0, 0, 0, 0, 0, 0])
        g = gf(7, [3, 1, 4, 1, 5, 9, 2])
        assert np.array_equal(convolve(delta, g).values, g.values)

    def test_small_direct_sum(self):
        f = gf(7, [1, 1, 0, 0, 0, 0, 0])
        assert convolve(f, f).values.tolist() == [1, 2, 1, 0, 0, 0, 0]

    def test_matches_schoolbook_oracle(self):
        rng = np.random.default_rng(11)
        f = rng.integers(0, 2, size=101).astype(float)
        g = rng.integers(0, 2, size=101).astype(float)
        got = convolve(gf(101, f), gf(101, g)).values
        assert np.array_equal(got, convolve_oracle(f, g, 101))

    def test_integer_exactness(self):
        rng = np.random.default_rng(12)
        for p in (31, 101):
            f = rng.integers(0, 2, size=p).astype(float)
            g = rng.integers(0, 2, size=p).astype(float)
            vals = convolve(gf(p, f), gf(p, g)).values
            assert np.array_equal(vals, np.rint(vals))
            assert np.all(vals >= 0)

    def test_multi_convolve_matches_repeated(self):
        rng = np.random.default_rng(13)
        f = gf(31, rng.integers(0, 2, size=31).astype(float))
        step = convolve(convolve(f, f), f)
        assert np.array_equal(multi_convolve(f, 3).values, step.values)
        assert np.array_equal(multi_convolve(f, 1).values, f.values)
        with pytest.raises(ValueError):
            multi_convolve(f, 0)

    def test_multi_convolve_full_group_past_float_range(self):
        # Every entry of the 6-fold convolution of 1 on Z/2003 is 2003^5 > 2^53;
        # chained FFT convolutions returned 23 less at 0.
        f = gf(2003, np.ones(2003))
        assert multi_convolve(f, 6).values.tolist() == [float(2003**5)] * 2003

    def test_real_valued_operands_use_the_fft(self):
        rng = np.random.default_rng(15)
        f = rng.random(31)
        g = rng.integers(-3, 4, size=31).astype(float)
        got = convolve(gf(31, f), gf(31, g)).values
        assert np.allclose(got, convolve_oracle(f, g, 31), rtol=1e-12, atol=1e-12)
        assert np.allclose(multi_convolve(gf(31, f), 2).values, convolve_oracle(f, f, 31))

    def test_rejects_integer_values_beyond_int64(self):
        f = gf(7, [2.0**63, 0, 0, 0, 0, 0, 0])
        with pytest.raises(ValueError, match="int64"):
            convolve(f, f)

    def test_exact_fallback_agrees_with_fast_path(self):
        from invariant_eq_lab.fourier import _convolve_exact_int

        rng = np.random.default_rng(21)
        f = rng.integers(0, 2, size=101)
        g = rng.integers(0, 2, size=101)
        exact = _convolve_exact_int(f, g)
        fast = convolve(gf(101, f.astype(float)), gf(101, g.astype(float))).values
        assert np.array_equal(exact.astype(float), fast)

    def test_convolution_theorem(self):
        rng = np.random.default_rng(14)
        f = gf(31, rng.integers(-3, 4, size=31).astype(float))
        g = gf(31, rng.integers(-3, 4, size=31).astype(float))
        lhs = dft(convolve(f, g)).values
        rhs = dft(f).values * dft(g).values
        assert np.allclose(lhs, rhs, rtol=1e-9, atol=1e-9)


def cyclic_convolve_oracle(vectors, p):
    """Schoolbook cyclic convolution in Python integers."""
    out = [int(v) for v in vectors[0]]
    for vec in vectors[1:]:
        out = [sum(out[t] * int(vec[(x - t) % p]) for t in range(p)) for x in range(p)]
    return out


def compositions(m, n, s):
    """Ordered m-tuples of integers in [0, n) summing to s, by inclusion-exclusion."""
    return sum(
        (-1) ** j * math.comb(m, j) * math.comb(s - j * n + m - 1, m - 1)
        for j in range(m + 1)
        if s >= j * n
    )


def linear_convolve_oracle(vectors):
    """Schoolbook linear convolution in Python integers."""
    out = [int(v) for v in vectors[0]]
    for vec in vectors[1:]:
        acc = [0] * (len(out) + len(vec) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(vec):
                acc[i + j] += a * int(b)
        out = acc
    return out


class TestConvolveInt:
    @pytest.mark.parametrize("path", ["direct", "fft"])
    def test_matches_oracle(self, path, monkeypatch):
        import invariant_eq_lab.fourier as fourier

        if path == "fft":
            monkeypatch.setattr(fourier, "DIRECT_WORK_LIMIT", 0)
            monkeypatch.setattr(fourier, "_convolve_exact_int", None)
        rng = np.random.default_rng(31)
        for p in (5, 31, 101):
            f = rng.integers(0, 2, size=p)
            g = rng.integers(-3, 4, size=p)
            for vectors in ([f], [f, g], [f, g, f], [g, g, g, f]):
                got = convolve_int(vectors)
                assert got.dtype == np.int64
                assert got.tolist() == cyclic_convolve_oracle(vectors, p)
                linear = linear_convolve_int(vectors)
                assert linear.dtype == np.int64
                assert linear.tolist() == linear_convolve_oracle(vectors)

    def test_entries_beyond_float_range_are_exact(self, monkeypatch):
        # The entry bound is 147 * 2^54, past 2^53: the FFT is skipped for
        # direct integer arithmetic.
        import invariant_eq_lab.fourier as fourier

        calls = []
        exact = fourier._convolve_exact_int
        monkeypatch.setattr(fourier, "_convolve_exact_int", lambda a, b: calls.append(1) or exact(a, b))
        p = 7
        big = np.full(p, 2**18, dtype=np.int64)
        vectors = [big, np.arange(p) * 2**18, big]
        assert convolve_int(vectors).tolist() == cyclic_convolve_oracle(vectors, p)
        assert len(calls) == 2

    def test_skips_fft_past_error_margin(self, monkeypatch):
        # Five all-ones vectors at p = 9601: linear entries reach 5.1e15, past
        # 2^52, where every float64 is an integer and the residual check is
        # blind; the error estimate keeps the FFT out.
        import invariant_eq_lab.fourier as fourier

        calls = []
        exact = fourier._convolve_exact_int
        monkeypatch.setattr(fourier, "_convolve_exact_int", lambda a, b: calls.append(1) or exact(a, b))
        p = 9601
        ones = np.ones(p, dtype=np.int64)
        assert convolve_int([ones] * 5).tolist() == [p**4] * p
        assert len(calls) == 4

    def test_linear_entries_past_2_52_are_exact(self):
        # Six folds of ones(5000): entries reach about 1.7e18, past 2^52,
        # where every float64 is an integer and the residual check is blind.
        got = linear_convolve_int([np.ones(5000, dtype=np.int64)] * 6)
        assert len(got) == 6 * 4999 + 1
        for s in range(0, len(got), 997):
            assert int(got[s]) == compositions(6, 5000, s)

    def test_rejects_entries_beyond_int64(self):
        big = np.full(7, 2**18, dtype=np.int64)
        with pytest.raises(ValueError, match="int64"):
            convolve_int([big, big, big, -big])

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            convolve_int([])
        with pytest.raises(ValueError):
            convolve_int([np.ones(5), np.ones(7)])

    def test_zero_vector(self):
        assert convolve_int([np.zeros(5), np.ones(5)]).tolist() == [0] * 5

    def test_fft_length_is_smallest_5_smooth(self):
        from invariant_eq_lab.fourier import _fft_length

        def smooth(n):
            for q in (2, 3, 5):
                while n % q == 0:
                    n //= q
            return n == 1

        for length in (1, 2, 7, 73, 2001, 20013, 200005):
            n = _fft_length(length)
            assert n >= length and smooth(n)
            assert not any(smooth(m) for m in range(length, n))


class TestNorms:
    def test_single_point_mass(self):
        f = gf(7, [0, 0, 0, 1, 0, 0, 0])
        for q in (1, 1.5, 2, 3, math.inf):
            assert lp_norm(f, q) == pytest.approx(1.0)

    def test_constant(self):
        f = gf(11, np.full(11, 2.5))
        assert lp_norm(f, 1) == pytest.approx(11 * 2.5)
        assert expectation(f) == pytest.approx(2.5)

    def test_matches_direct_definition(self):
        rng = np.random.default_rng(15)
        values = rng.normal(size=31)
        f = gf(31, values)
        assert lp_norm(f, 2) == pytest.approx(math.sqrt(sum(v * v for v in values)), abs=1e-12)

    def test_rejects_q_below_one(self):
        with pytest.raises(ValueError):
            lp_norm(gf(7, np.ones(7)), 0.5)


def test_parseval_random_integer_functions():
    rng = np.random.default_rng(16)
    for p in (31, 101, 1009):
        values = rng.integers(-10, 11, size=p).astype(float)
        f = gf(p, values)
        lhs = float(np.sum(np.abs(dft(f).values) ** 2))
        rhs = p * float(np.sum(values**2))
        assert lhs == pytest.approx(rhs, rel=1e-9)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_young_inequality(data):
    p = data.draw(st.sampled_from([7, 31, 101]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    f = gf(p, rng.uniform(0, 3, size=p))
    g = gf(p, rng.uniform(0, 3, size=p))
    for q in (1, 1.5, 2, 3, math.inf):
        assert lp_norm(convolve(f, g), q) <= lp_norm(f, q) * lp_norm(g, 1) * (1 + 1e-9)


class TestNormalizedIndicator:
    def test_point_mass(self):
        g = PrimeCyclicGroup(7)
        mu = normalized_indicator(ResidueSet(g, (5,)))
        assert mu.values[5] == 1.0 and mu.values.sum() == 1.0

    def test_full_group(self):
        g = PrimeCyclicGroup(7)
        mu = normalized_indicator(ResidueSet(g, tuple(range(7))))
        assert np.allclose(mu.values, 1 / 7)

    def test_three_points(self):
        g = PrimeCyclicGroup(7)
        mu = normalized_indicator(ResidueSet(g, (1, 2, 4)))
        expected = np.zeros(7)
        expected[[1, 2, 4]] = 1 / 3
        assert np.allclose(mu.values, expected)
        assert lp_norm(mu, 1) == pytest.approx(1.0)

    def test_empty_rejected(self):
        g = PrimeCyclicGroup(7)
        with pytest.raises(ValueError):
            normalized_indicator(ResidueSet(g, ()))


class TestSpectrum:
    def test_point_set_has_full_spectrum(self):
        g = PrimeCyclicGroup(11)
        spec = spectrum(ResidueSet(g, (0,)), 1.0)
        assert spec.frequencies == frozenset(range(11))

    def test_full_group_spectrum_is_zero_frequency(self):
        g = PrimeCyclicGroup(11)
        spec = spectrum(ResidueSet(g, tuple(range(11))), 0.5)
        assert spec.frequencies == frozenset({0})

    def test_interval_in_z31_against_character_sums(self):
        g = PrimeCyclicGroup(31)
        X = ResidueSet(g, (0, 1, 2, 3, 4))
        spec = spectrum(X, 0.9)
        direct = {
            t
            for t in range(31)
            if abs(sum(np.exp(-2j * np.pi * t * x / 31) for x in X.elements)) >= 0.9 * 5 - 1e-9 * 5
        }
        assert spec.frequencies == frozenset(direct) == frozenset({0, 1, 30})

    def test_zero_always_included(self):
        g = PrimeCyclicGroup(31)
        for elems in [(3,), (1, 5, 9), tuple(range(10))]:
            assert 0 in spectrum(ResidueSet(g, elems), 1.0).frequencies

    def test_empty_set_rejected(self):
        g = PrimeCyclicGroup(7)
        with pytest.raises(ValueError):
            spectrum(ResidueSet(g, ()), 0.5)


def test_regular_convolution_smoothing_sampled():
    """||mu_B * mu_B' - mu_B||_1 <= eps whenever B is regular of dimension d,
    B' = B_delta with delta <= eps / (24 d)."""
    rng = np.random.default_rng(17)
    done = 0
    while done < 10:
        p = int(rng.choice([101, 199, 331]))
        g = PrimeCyclicGroup(p)
        d = int(rng.integers(1, 3))
        freqs = tuple(int(t) for t in rng.choice(np.arange(1, p), size=d, replace=False))
        base = BohrSet(g, freqs, float(rng.uniform(0.3, 1.6)))
        B = dilate(base, find_regular_dilate(base))
        eps = float(rng.uniform(0.05, 0.5))
        Bp = dilate(B, eps / (24 * B.dimension))
        mu_b = normalized_indicator(enumerate_members(B))
        mu_bp = normalized_indicator(enumerate_members(Bp))
        diff = convolve(mu_b, mu_bp).values - mu_b.values
        assert float(np.abs(diff).sum()) <= eps + 1e-9
        done += 1
