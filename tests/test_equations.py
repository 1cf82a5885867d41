"""Solution counting, triviality predicates, and Sidon checking."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invariant_eq_lab import fourier
from invariant_eq_lab.cyclic import IntervalSet, PrimeCyclicGroup, ResidueSet, translate_set, dilate_set
from invariant_eq_lab.equations import (
    InvariantEquation,
    SolutionCount,
    TrivialityPredicate,
    count_solutions_bruteforce,
    count_solutions_fast,
    has_nontrivial_solution,
    is_sidon,
    solution_density_report,
)


def count_oracle(elements, coeffs, p=None):
    """Literal enumeration of all k-tuples."""
    total = 0
    for tup in itertools.product(elements, repeat=len(coeffs)):
        v = sum(a * x for a, x in zip(coeffs, tup))
        if (v % p if p else v) == 0:
            total += 1
    return total


class TestEquationValidation:
    def test_accepts_invariant(self):
        eq = InvariantEquation((1, 1, -2))
        assert eq.arity == 3

    def test_rejects_short(self):
        with pytest.raises(ValueError):
            InvariantEquation((1, -1))

    def test_rejects_zero_coefficient(self):
        with pytest.raises(ValueError):
            InvariantEquation((1, 0, -1))

    def test_rejects_nonzero_sum(self):
        with pytest.raises(ValueError):
            InvariantEquation((1, 1, -1))


def test_solution_count_consistency():
    with pytest.raises(ValueError):
        SolutionCount(2, 3)
    assert SolutionCount(5, 2).nontrivial == 3


class TestBruteForce:
    def test_full_group(self):
        g = PrimeCyclicGroup(5)
        A = ResidueSet(g, tuple(range(5)))
        count = count_solutions_bruteforce(A, InvariantEquation((1, 1, -2)))
        assert count.total == 25 and count.trivial == 5

    def test_single_point(self):
        g = PrimeCyclicGroup(7)
        A = ResidueSet(g, (0,))
        for coeffs in [(1, 1, -2), (1, 2, -3), (1, 1, 1, -3)]:
            count = count_solutions_bruteforce(A, InvariantEquation(coeffs))
            assert count.total == 1 and count.trivial == 1

    def test_interval_in_z31(self):
        g = PrimeCyclicGroup(31)
        A = ResidueSet(g, (1, 2, 3, 4, 5))
        count = count_solutions_bruteforce(A, InvariantEquation((1, 1, -2)))
        assert count.total == 13 and count.trivial == 5

    def test_matches_literal_enumeration(self):
        g = PrimeCyclicGroup(13)
        A = ResidueSet(g, (0, 1, 3, 7))
        eq = InvariantEquation((2, -1, -1))
        assert count_solutions_bruteforce(A, eq).total == count_oracle(A.elements, eq.coeffs, 13)

    def test_integer_interval(self):
        A = IntervalSet(5, (1, 2, 3, 4, 5))
        eq = InvariantEquation((1, 1, -2))
        assert count_solutions_bruteforce(A, eq).total == count_oracle(A.elements, eq.coeffs)

    def test_degenerate_coefficient_mod_p(self):
        g = PrimeCyclicGroup(5)
        A = ResidueSet(g, (1, 2))
        with pytest.raises(ValueError, match="degenerates"):
            count_solutions_bruteforce(A, InvariantEquation((5, 1, -6)))


class TestFastPath:
    def test_matches_oracle_on_named_instances(self):
        eq = InvariantEquation((1, 1, -2))
        for p, elems in [(5, tuple(range(5))), (7, (0,)), (31, (1, 2, 3, 4, 5))]:
            A = ResidueSet(PrimeCyclicGroup(p), elems)
            assert count_solutions_fast(A, eq) == count_solutions_bruteforce(A, eq)

    def test_empty_set(self):
        g = PrimeCyclicGroup(7)
        A = ResidueSet(g, ())
        assert count_solutions_fast(A, InvariantEquation((1, 1, -2))).total == 0

    def test_behrend_embedded_instance(self):
        members = (1, 5, 26, 30, 51, 55, 76, 80, 101, 105)
        g = PrimeCyclicGroup(751)
        A = ResidueSet(g, members)
        count = count_solutions_fast(A, InvariantEquation((1, 1, 1, -3)))
        assert count.total == 82
        assert count.trivial == 10


def full_group(p):
    return ResidueSet(PrimeCyclicGroup(p), tuple(range(p)))


def half_product_reference(vectors, p):
    """Cyclic convolution by chained int64 np.convolve and a fold mod p."""
    out = vectors[0]
    for v in vectors[1:]:
        lin = np.convolve(out, v)
        out = lin[:p].copy()
        out[: p - 1] += lin[p:]
    return out


class TestFastPathLargeCounts:
    """Counts whose k-fold convolution passes 2^53, where a float64 FFT
    chained over all k indicators loses exactness."""

    @pytest.mark.parametrize("p, k", [(2003, 6), (211, 8), (8501, 5)])
    def test_full_group_identity(self, p, k):
        eq = InvariantEquation((1,) * (k - 1) + (-(k - 1),))
        count = count_solutions_fast(full_group(p), eq)
        assert count.total == p ** (k - 1)
        assert count.trivial == p

    def test_full_group_beyond_int64(self):
        # 1009^7 > 2^63, so the final sum runs in Python integers.
        assert 1009**7 >= 2**63
        eq = InvariantEquation((1, 2, 1, -1, 3, -2, 1, -5))
        assert count_solutions_fast(full_group(1009), eq).total == 1009**7

    def test_full_group_halves_past_2_52(self):
        # Each half multiplies five all-ones vectors; its linear entries
        # reach 5.1e15, past 2^52, where the residual check cannot see FFT
        # error, so the half must come from the exact fallback.
        eq = InvariantEquation((1, 2, -3, 1, 1, -1, 2, -1, -1, -1))
        assert count_solutions_fast(full_group(9601), eq).total == 9601**9

    def test_halves_beyond_int64_fail_loudly(self):
        # |A|^5 = 7001^5 > 2^63: a half of six vectors may not fit in int64.
        eq = InvariantEquation((1,) * 11 + (-11,))
        with pytest.raises(ValueError, match="int64"):
            count_solutions_fast(full_group(7001), eq)

    def test_dense_arity_six_against_reference(self):
        p = 9239
        rng = np.random.default_rng(9239)
        elems = np.sort(rng.choice(p, size=p // 2, replace=False))
        eq = InvariantEquation((1, -2, 3, 2, -3, -1))
        A = ResidueSet(PrimeCyclicGroup(p), tuple(elems.tolist()))
        vectors = []
        for a in eq.coeffs:
            v = np.zeros(p, dtype=np.int64)
            v[(a * elems) % p] = 1
            vectors.append(v)
        r = half_product_reference(vectors[:3], p)
        r_prime = half_product_reference(vectors[3:], p)
        want = sum(int(r[y]) * int(r_prime[-y % p]) for y in range(p))
        assert want > 2**53
        assert count_solutions_fast(A, eq).total == want

    def test_exact_fallback_matches_bruteforce(self, monkeypatch):
        calls = []
        exact = fourier._convolve_exact_int

        def spy(a, b):
            calls.append(len(a))
            return exact(a, b)

        monkeypatch.setattr(fourier, "ROUNDING_RESIDUAL_LIMIT", 0.0)
        monkeypatch.setattr(fourier, "_convolve_exact_int", spy)
        rng = np.random.default_rng(41)
        # p = 263 is large enough for the FFT path, which the patch makes fail.
        A = ResidueSet(PrimeCyclicGroup(263), tuple(int(v) for v in rng.choice(263, size=9, replace=False)))
        for coeffs in [(1, 1, -2), (1, 2, -1, -2), (2, 1, 1, -1, -3)]:
            eq = InvariantEquation(coeffs)
            assert count_solutions_fast(A, eq) == count_solutions_bruteforce(A, eq)
        assert calls and set(calls) == {263}


@st.composite
def random_instance(draw):
    p = draw(st.sampled_from([5, 7, 11, 13, 31, 101]))
    g = PrimeCyclicGroup(p)
    size = draw(st.integers(1, min(12, p)))
    elems = draw(st.lists(st.integers(0, p - 1), min_size=size, max_size=size, unique=True))
    k = draw(st.integers(3, 5))
    coeffs = draw(
        st.lists(st.integers(-3, 3).filter(lambda c: c != 0), min_size=k - 1, max_size=k - 1)
    )
    last = -sum(coeffs)
    if last == 0 or last % p == 0 or any(c % p == 0 for c in coeffs):
        coeffs = [1] * (k - 1)
        last = -(k - 1)
    return ResidueSet(g, tuple(elems)), InvariantEquation(tuple(coeffs) + (last,))


@given(random_instance())
@settings(max_examples=80, deadline=None)
def test_fast_equals_bruteforce(instance):
    A, eq = instance
    assert count_solutions_fast(A, eq) == count_solutions_bruteforce(A, eq)


@given(random_instance(), st.data())
@settings(max_examples=40, deadline=None)
def test_translation_and_dilation_invariance(instance, data):
    A, eq = instance
    p = A.group.p
    x = data.draw(st.integers(0, p - 1))
    u = data.draw(st.integers(1, p - 1))
    base = count_solutions_bruteforce(A, eq).total
    assert count_solutions_bruteforce(translate_set(A, x), eq).total == base
    assert count_solutions_bruteforce(dilate_set(A, u), eq).total == base


@given(random_instance())
@settings(max_examples=30, deadline=None)
def test_trivial_count_is_set_size(instance):
    A, eq = instance
    assert count_solutions_bruteforce(A, eq).trivial == len(A)


class TestNontrivialDetection:
    def test_single_point_has_none(self):
        g = PrimeCyclicGroup(7)
        A = ResidueSet(g, (0,))
        assert not has_nontrivial_solution(A, InvariantEquation((1, 1, -2)))

    def test_explicit_witness(self):
        g = PrimeCyclicGroup(13)
        A = ResidueSet(g, (1, 2, 3))
        assert has_nontrivial_solution(A, InvariantEquation((1, 1, -2)))

    def test_behrend_set_within_group(self):
        members = (1, 5, 26, 30, 51, 55, 76, 80, 101, 105)
        A = ResidueSet(PrimeCyclicGroup(751), members)
        eq = InvariantEquation((1, 1, 1, -3))
        brute = count_solutions_bruteforce(A, eq)
        assert has_nontrivial_solution(A, eq) == (brute.nontrivial > 0)

    def test_agrees_with_counts_randomly(self):
        rng = np.random.default_rng(5)
        eq = InvariantEquation((1, 1, -2))
        g = PrimeCyclicGroup(31)
        for _ in range(25):
            size = int(rng.integers(1, 10))
            elems = tuple(int(v) for v in rng.choice(31, size=size, replace=False))
            A = ResidueSet(g, elems)
            expected = count_solutions_bruteforce(A, eq).nontrivial > 0
            assert has_nontrivial_solution(A, eq) == expected

    def test_sidon_predicate_restricted(self):
        A = IntervalSet(5, (1, 2, 3))
        with pytest.raises(ValueError):
            has_nontrivial_solution(A, InvariantEquation((1, 1, -2)), TrivialityPredicate.SIDON_MULTISET)
        eq = InvariantEquation((1, 1, -1, -1))
        assert has_nontrivial_solution(A, eq, TrivialityPredicate.SIDON_MULTISET)
        assert not has_nontrivial_solution(
            IntervalSet(11, (1, 2, 5, 11)), eq, TrivialityPredicate.SIDON_MULTISET
        )


def sidon_oracle(elements, p=None):
    for quad in itertools.product(elements, repeat=4):
        x1, y1, x2, y2 = quad
        s1, s2 = x1 + y1, x2 + y2
        if p:
            s1, s2 = s1 % p, s2 % p
        if s1 == s2 and sorted((x1, y1)) != sorted((x2, y2)):
            return False
    return True


class TestSidon:
    def test_degenerate_sets(self):
        assert is_sidon(IntervalSet(5, ()))
        assert is_sidon(IntervalSet(5, (3,)))

    def test_named_examples(self):
        assert not is_sidon(IntervalSet(3, (1, 2, 3)))
        assert is_sidon(IntervalSet(11, (1, 2, 5, 11)))

    def test_wraparound_matters_for_residues(self):
        # {0, 1, 3} is Sidon over Z but 0+1 = 3+5 mod 7 breaks it mod 7.
        assert is_sidon(IntervalSet(5, (1, 2, 4)))
        g = PrimeCyclicGroup(7)
        assert not is_sidon(ResidueSet(g, (0, 1, 3, 5)))

    def test_matches_quadruple_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            n = int(rng.integers(0, 8))
            elems = tuple(sorted(int(v) for v in rng.choice(30, size=n, replace=False) + 1))
            S = IntervalSet(30, elems)
            assert is_sidon(S) == sidon_oracle(elems)
        g = PrimeCyclicGroup(31)
        for _ in range(20):
            n = int(rng.integers(0, 8))
            elems = tuple(int(v) for v in rng.choice(31, size=n, replace=False))
            assert is_sidon(ResidueSet(g, elems)) == sidon_oracle(elems, p=31)


class TestDensityReport:
    def test_full_group(self):
        g = PrimeCyclicGroup(5)
        rep = solution_density_report(ResidueSet(g, tuple(range(5))), InvariantEquation((1, 1, -2)))
        assert rep.normalized == pytest.approx(1.0)
        assert rep.alpha == pytest.approx(1.0)

    def test_single_point_arity_four(self):
        g = PrimeCyclicGroup(7)
        rep = solution_density_report(ResidueSet(g, (0,)), InvariantEquation((1, 1, 1, -3)))
        assert rep.total == 1
        assert rep.normalized == pytest.approx(1 / 7**3)

    def test_random_instance_matches_oracle(self):
        rng = np.random.default_rng(7)
        g = PrimeCyclicGroup(101)
        elems = tuple(int(v) for v in rng.choice(101, size=12, replace=False))
        A = ResidueSet(g, elems)
        eq = InvariantEquation((1, 1, 1, -3))
        rep = solution_density_report(A, eq)
        brute = count_solutions_bruteforce(A, eq)
        assert rep.total == brute.total
        assert rep.trivial == brute.trivial
        assert rep.nontrivial == brute.nontrivial
        assert rep.normalized == pytest.approx(brute.total / 101**3)
