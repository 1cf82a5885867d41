"""Modular set algebra and the interval embedding."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invariant_eq_lab.cyclic import (
    IntervalSet,
    PrimeCyclicGroup,
    ResidueSet,
    dilate_set,
    embed_interval,
    is_prime,
    iterated_sumset,
    next_prime_above,
    sumset,
    translate_set,
)
from invariant_eq_lab.equations import InvariantEquation, count_solutions_bruteforce

PRIMES = [3, 5, 7, 11, 13, 31, 101]


def test_is_prime_small_values():
    known = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in known)


def test_is_prime_larger():
    assert is_prime(1009)
    assert is_prime(751)
    assert not is_prime(1001)  # 7 * 11 * 13
    assert is_prime(2**31 - 1)


def test_next_prime_above():
    assert next_prime_above(12) == 13
    assert next_prime_above(13) == 17
    assert next_prime_above(60) == 61


def test_group_requires_odd_prime():
    with pytest.raises(ValueError):
        PrimeCyclicGroup(4)
    with pytest.raises(ValueError):
        PrimeCyclicGroup(2)
    with pytest.raises(ValueError):
        PrimeCyclicGroup(1)


def test_residue_set_canonical_form():
    g = PrimeCyclicGroup(7)
    A = ResidueSet(g, (5, 1, 1, 3))
    assert A.elements == (1, 3, 5)
    assert len(A) == 3
    assert A.density() == 3 / 7
    with pytest.raises(ValueError):
        ResidueSet(g, (7,))
    with pytest.raises(ValueError):
        ResidueSet(g, (-1,))


def test_membership_inside_and_outside_range():
    g = PrimeCyclicGroup(13)
    A = ResidueSet(g, (0, 4, 7, 12))
    assert [x for x in range(13) if x in A] == [0, 4, 7, 12]
    # Only canonical representatives are members: no reduction mod p.
    for x in (-1, -13, 13, 17, 25, 10**20):
        assert x not in A
    assert 0 not in ResidueSet(g, ())


def test_interval_set_bounds():
    A = IntervalSet(10, (3, 1, 1))
    assert A.elements == (1, 3)
    with pytest.raises(ValueError):
        IntervalSet(5, (6,))
    with pytest.raises(ValueError):
        IntervalSet(5, (0,))


class TestEmbedInterval:
    def test_small_example(self):
        eq = InvariantEquation((1, 1, -2))
        group, image = embed_interval(IntervalSet(3, (1, 2, 3)), eq)
        assert group.p == 13
        assert image.elements == (1, 2, 3)

    def test_arity_below_three_rejected_at_equation(self):
        with pytest.raises(ValueError):
            InvariantEquation((1, -1))

    def test_counts_agree_after_embedding(self):
        eq = InvariantEquation((1, 1, 1, -3))
        A = IntervalSet(10, tuple(range(1, 11)))
        group, image = embed_interval(A, eq)
        assert group.p == 61
        assert count_solutions_bruteforce(A, eq).total == count_solutions_bruteforce(image, eq).total

    def test_empty_set_rejected(self):
        eq = InvariantEquation((1, 1, -2))
        with pytest.raises(ValueError):
            embed_interval(IntervalSet(3, ()), eq)


class TestDilate:
    def test_identity(self):
        g = PrimeCyclicGroup(13)
        A = ResidueSet(g, (1, 2))
        assert dilate_set(A, 1).elements == (1, 2)

    def test_negation(self):
        g = PrimeCyclicGroup(13)
        A = ResidueSet(g, (1, 2))
        assert dilate_set(A, -1).elements == (11, 12)

    def test_by_three(self):
        g = PrimeCyclicGroup(13)
        A = ResidueSet(g, (1, 2, 3))
        assert dilate_set(A, 3).elements == (3, 6, 9)

    def test_degenerate(self):
        g = PrimeCyclicGroup(13)
        with pytest.raises(ValueError, match="degenerate"):
            dilate_set(ResidueSet(g, (1,)), 13)


def test_translate_examples():
    g7 = PrimeCyclicGroup(7)
    assert translate_set(ResidueSet(g7, (0,)), 0).elements == (0,)
    assert translate_set(ResidueSet(g7, (0, 1)), 6).elements == (0, 6)
    g13 = PrimeCyclicGroup(13)
    assert translate_set(ResidueSet(g13, (1, 2, 3)), 11).elements == (0, 1, 12)


class TestSumsets:
    def test_singleton(self):
        g = PrimeCyclicGroup(7)
        A = ResidueSet(g, (0,))
        assert iterated_sumset(A, 5).elements == (0,)

    def test_interval_growth(self):
        g = PrimeCyclicGroup(101)
        A = ResidueSet(g, (0, 1))
        assert iterated_sumset(A, 3).elements == (0, 1, 2, 3)

    def test_pair_sums(self):
        g = PrimeCyclicGroup(11)
        A = ResidueSet(g, (0, 2, 5))
        assert sumset(A, A).elements == (0, 2, 4, 5, 7, 10)

    def test_mixed_groups_rejected(self):
        A = ResidueSet(PrimeCyclicGroup(7), (0,))
        B = ResidueSet(PrimeCyclicGroup(11), (0,))
        with pytest.raises(ValueError):
            sumset(A, B)


@st.composite
def residue_sets(draw, min_size=0, max_size=12):
    p = draw(st.sampled_from(PRIMES))
    g = PrimeCyclicGroup(p)
    size = draw(st.integers(min_size, min(max_size, p)))
    elems = draw(st.lists(st.integers(0, p - 1), min_size=size, max_size=size, unique=True))
    return ResidueSet(g, tuple(elems))


@given(residue_sets(min_size=1), st.data())
@settings(max_examples=60, deadline=None)
def test_dilate_preserves_cardinality_and_round_trips(A, data):
    p = A.group.p
    a = data.draw(st.integers(1, p - 1))
    dilated = dilate_set(A, a)
    assert len(dilated) == len(A)
    assert dilate_set(dilated, pow(a, -1, p)).elements == A.elements


@given(residue_sets(min_size=1, max_size=6), st.integers(1, 4), st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_iterated_sumset_is_additive(A, w1, w2):
    lhs = iterated_sumset(A, w1 + w2)
    rhs = sumset(iterated_sumset(A, w1), iterated_sumset(A, w2))
    assert lhs.elements == rhs.elements


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_embedding_preserves_counts_on_random_instances(data):
    N = data.draw(st.integers(2, 12))
    size = data.draw(st.integers(1, N))
    elems = data.draw(st.lists(st.integers(1, N), min_size=size, max_size=size, unique=True))
    coeffs = data.draw(st.sampled_from([(1, 1, -2), (1, -2, 1), (2, -1, -1), (1, 1, 1, -3)]))
    eq = InvariantEquation(coeffs)
    A = IntervalSet(N, tuple(elems))
    _, image = embed_interval(A, eq)
    assert count_solutions_bruteforce(A, eq).total == count_solutions_bruteforce(image, eq).total
