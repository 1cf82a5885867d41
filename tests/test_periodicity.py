"""Almost-periods, the increment lemmas, popular sums, containment checks,
and the density-increment driver."""

import math
import re

import numpy as np
import pytest

from invariant_eq_lab import periodicity
from invariant_eq_lab.bohr import BohrSet, dilate, enumerate_members, find_regular_dilate, size
from invariant_eq_lab.cyclic import (
    PrimeCyclicGroup,
    ResidueSet,
    dilate_set,
    intersect,
    iterated_sumset,
    sumset,
    translate_set,
)
from invariant_eq_lab.equations import InvariantEquation
from invariant_eq_lab.errors import LemmaHypothesisError
from invariant_eq_lab.fourier import GroupFunction, convolve, indicator, normalized_indicator
from invariant_eq_lab.periodicity import (
    BOUNDARY_TOL,
    DriverConfig,
    IncrementStep,
    IncrementWitness,
    TerminalReason,
    TranslateFamily,
    almost_periods,
    bohr_in_sumset_check,
    coefficient_translates,
    dense_translate,
    increment_driver,
    increment_from_periods,
    multi_almost_periods,
    popular_sums,
    shift_deviation,
    verify_bohr_periods,
)
from invariant_eq_lab.periodicity import (
    _counts_on_translates,
    _deviation_profile,
    _midpoint_width,
    _search_general_increment,
    _search_singleton_increment,
    _width_grid,
)


def deviation_oracle(values, t, q):
    p = len(values)
    shifted = [values[(x + t) % p] for x in range(p)]
    diffs = [abs(a - b) for a, b in zip(shifted, values)]
    if q == math.inf:
        return max(diffs)
    return sum(d**q for d in diffs) ** (1 / q)


def roll_profile(values, q):
    """The deviation profile by one np.roll per shift: the reference for the
    blocked and autocorrelation evaluations."""
    p = len(values)
    dev = np.zeros(p)
    for t in range(1, p // 2 + 1):
        diff = np.roll(values, -t) - values
        if q == math.inf:
            d = float(np.max(np.abs(diff)))
        elif q == 1:
            d = float(np.sum(np.abs(diff)))
        else:
            d = float(np.sum(np.abs(diff) ** q) ** (1.0 / q))
        dev[t] = d
        dev[p - t] = d
    return dev


def convolution_values(p, rng):
    g = PrimeCyclicGroup(p)
    A = ResidueSet(g, tuple(int(v) for v in rng.choice(p, size=max(1, p // 4), replace=False)))
    start, length = int(rng.integers(p)), max(1, p // 10)
    L = ResidueSet(g, tuple((start + i) % p for i in range(length)))
    return convolve(indicator(A), indicator(L)).values


class TestDeviationProfile:
    # p // 2 is not a multiple of the rows per block: 2^17 // 1009 = 129 rows
    # for 504 shifts, and 707 // 101 = 7 rows for 50 shifts.
    @pytest.mark.parametrize("q", [1, 2, 3, math.inf])
    @pytest.mark.parametrize("p, block", [(2, None), (3, None), (31, None), (101, 707), (1009, None)])
    def test_integer_inputs_equal_roll_loop(self, monkeypatch, q, p, block):
        if block is not None:
            monkeypatch.setattr(periodicity, "BLOCK_ENTRIES", block)
        rng = np.random.default_rng(p)
        signed = rng.integers(-50, 51, size=p).astype(float)
        # Z/2 is no group here, but the profile of a length-2 array is defined.
        for values in [signed] + ([convolution_values(p, rng)] if p > 2 else []):
            assert np.array_equal(_deviation_profile(values, q), roll_profile(values, q))

    @pytest.mark.parametrize("q", [1, 2, 3, math.inf])
    def test_float_inputs_match_roll_loop(self, monkeypatch, q):
        monkeypatch.setattr(periodicity, "BLOCK_ENTRIES", 707)
        values = np.random.default_rng(8).normal(size=101)
        assert _deviation_profile(values, q) == pytest.approx(roll_profile(values, q), rel=1e-12)

    @pytest.mark.parametrize("q", [1, 2, math.inf])
    def test_integers_past_int32_take_the_float_path(self, q):
        # 2 sum|v| passes 2^31, and for q = 2 the autocorrelation entries
        # (about 2^87) would be past int64: no ValueError, same profile.
        values = np.random.default_rng(9).integers(0, 2**40, size=211).astype(float)
        assert _deviation_profile(values, q) == pytest.approx(roll_profile(values, q), rel=1e-12)

    def test_shift_deviation_is_one_shift_of_the_profile(self):
        rng = np.random.default_rng(10)
        f = GroupFunction(PrimeCyclicGroup(31), rng.integers(-9, 10, size=31).astype(float))
        for q in (1, 2, 3, math.inf):
            profile = roll_profile(f.values, q)
            for t in (-40, -1, 0, 1, 15, 16, 30, 31, 77):
                assert shift_deviation(f, t, q) == profile[t % 31]

    def test_norm_exponent_below_one_rejected(self):
        f = GroupFunction(PrimeCyclicGroup(7), np.arange(7, dtype=float))
        for q in (0.5, math.nan):
            with pytest.raises(ValueError, match="norm exponent"):
                shift_deviation(f, 1, q)


class TestShiftDeviation:
    def test_zero_shift(self):
        f = GroupFunction(PrimeCyclicGroup(7), np.arange(7, dtype=float))
        assert shift_deviation(f, 0, 2) == 0.0

    def test_constant_function(self):
        f = GroupFunction(PrimeCyclicGroup(7), np.full(7, 3.0))
        for t in range(7):
            assert shift_deviation(f, t, 1) == 0.0

    def test_indicator_l1(self):
        f = indicator(ResidueSet(PrimeCyclicGroup(7), (0, 1)))
        assert shift_deviation(f, 1, 1) == pytest.approx(2.0)

    def test_matches_oracle(self):
        rng = np.random.default_rng(0)
        f = GroupFunction(PrimeCyclicGroup(31), rng.normal(size=31))
        for t in (1, 5, 17):
            for q in (1, 2, math.inf):
                assert shift_deviation(f, t, q) == pytest.approx(
                    deviation_oracle(f.values, t, q)
                )


class TestAlmostPeriods:
    def test_full_group_everything_is_a_period(self):
        g = PrimeCyclicGroup(11)
        full = ResidueSet(g, tuple(range(11)))
        result = almost_periods(full, full, 0.1, 1)
        assert result.periods.elements == tuple(range(11))

    def test_zero_always_included_and_symmetric(self):
        rng = np.random.default_rng(1)
        for _ in range(15):
            p = int(rng.choice([31, 101]))
            g = PrimeCyclicGroup(p)
            A = ResidueSet(g, tuple(int(v) for v in rng.choice(p, size=5, replace=False)))
            L = ResidueSet(g, tuple(int(v) for v in rng.choice(p, size=3, replace=False)))
            q = float(rng.choice([1.0, 2.0, np.inf]))
            result = almost_periods(A, L, 0.4, q)
            periods = set(result.periods.elements)
            assert 0 in periods
            assert periods == {(p - t) % p for t in periods}

    def test_small_explicit_instance(self):
        g = PrimeCyclicGroup(7)
        A = ResidueSet(g, (0, 1))
        L = ResidueSet(g, (0,))
        result = almost_periods(A, L, 0.5, 1)
        assert result.periods.elements == (0,)

    def test_pairwise_sums_are_double_periods(self):
        g = PrimeCyclicGroup(31)
        rng = np.random.default_rng(2)
        A = ResidueSet(g, tuple(int(v) for v in rng.choice(31, size=6, replace=False)))
        L = ResidueSet(g, tuple(int(v) for v in rng.choice(31, size=4, replace=False)))
        eps, q = 0.25, 1
        conv = convolve(indicator(A), indicator(L))
        periods = almost_periods(A, L, eps, q).periods.elements
        double_bound = 2 * eps * len(A) * len(L) ** (1 / q)
        for t1 in periods:
            for t2 in periods:
                dev = deviation_oracle(conv.values, (t1 + t2) % 31, q)
                assert dev <= double_bound + 1e-9

    def test_empty_inputs_rejected(self):
        g = PrimeCyclicGroup(7)
        with pytest.raises(ValueError):
            almost_periods(ResidueSet(g, ()), ResidueSet(g, (0,)), 0.5, 1)

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -1.0])
    def test_bad_eps_rejected(self, eps):
        g = PrimeCyclicGroup(7)
        with pytest.raises(ValueError, match="eps must be finite and non-negative"):
            almost_periods(ResidueSet(g, (0, 1)), ResidueSet(g, (0,)), eps, 1)

    def test_nan_norm_rejected(self):
        g = PrimeCyclicGroup(7)
        with pytest.raises(ValueError, match="norm exponent"):
            almost_periods(ResidueSet(g, (0, 1)), ResidueSet(g, (0,)), 0.5, math.nan)


class TestMultiAlmostPeriods:
    def test_full_groups(self):
        g = PrimeCyclicGroup(7)
        full = ResidueSet(g, tuple(range(7)))
        result = multi_almost_periods([full], full, full, 0.1)
        assert result.periods.elements == tuple(range(7))

    def test_zero_included(self):
        g = PrimeCyclicGroup(31)
        rng = np.random.default_rng(3)
        sets = [ResidueSet(g, tuple(int(v) for v in rng.choice(31, size=4, replace=False)))]
        M = ResidueSet(g, tuple(int(v) for v in rng.choice(31, size=3, replace=False)))
        L = ResidueSet(g, tuple(int(v) for v in rng.choice(31, size=5, replace=False)))
        assert 0 in multi_almost_periods(sets, M, L, 0.3).periods.elements

    def test_direct_evaluation_oracle(self):
        g = PrimeCyclicGroup(31)
        rng = np.random.default_rng(4)
        A1 = ResidueSet(g, tuple(int(v) for v in rng.choice(31, size=4, replace=False)))
        M = ResidueSet(g, tuple(int(v) for v in rng.choice(31, size=3, replace=False)))
        L = ResidueSet(g, tuple(int(v) for v in rng.choice(31, size=6, replace=False)))
        eps = 0.2
        conv = convolve(convolve(indicator(A1), indicator(M)), indicator(L))
        bound = eps * len(A1) * len(M)
        expected = tuple(
            t for t in range(31) if deviation_oracle(conv.values, t, math.inf) <= bound + 1e-9
        )
        assert multi_almost_periods([A1], M, L, eps).periods.elements == expected


    @pytest.mark.parametrize("eps", [math.nan, math.inf, -1.0])
    def test_bad_eps_rejected(self, eps):
        g = PrimeCyclicGroup(7)
        full = ResidueSet(g, tuple(range(7)))
        with pytest.raises(ValueError, match="eps must be finite and non-negative"):
            multi_almost_periods([full], full, full, eps)


class TestVerifyBohrPeriods:
    def test_singleton_candidate_always_passes(self):
        g = PrimeCyclicGroup(31)
        rng = np.random.default_rng(5)
        sets = [ResidueSet(g, tuple(int(v) for v in rng.choice(31, size=4, replace=False)))]
        M = ResidueSet(g, tuple(int(v) for v in rng.choice(31, size=3, replace=False)))
        L = ResidueSet(g, tuple(int(v) for v in rng.choice(31, size=5, replace=False)))
        tiny = BohrSet(g, (1,), 0.9 * 2 * math.sin(math.pi / 31))
        assert enumerate_members(tiny).elements == (0,)
        assert verify_bohr_periods(tiny, sets, M, L, 0.05)

    def test_full_group_with_coarse_bound(self):
        g = PrimeCyclicGroup(31)
        rng = np.random.default_rng(6)
        sets = [ResidueSet(g, tuple(int(v) for v in rng.choice(31, size=4, replace=False)))]
        M = ResidueSet(g, tuple(int(v) for v in rng.choice(31, size=3, replace=False)))
        L = ResidueSet(g, tuple(int(v) for v in rng.choice(31, size=5, replace=False)))
        assert verify_bohr_periods(BohrSet(g, (1,), 2.0), sets, M, L, 2.0)

    def test_matches_pointwise_check(self):
        g = PrimeCyclicGroup(31)
        rng = np.random.default_rng(7)
        sets = [ResidueSet(g, tuple(int(v) for v in rng.choice(31, size=5, replace=False)))]
        M = ResidueSet(g, tuple(int(v) for v in rng.choice(31, size=4, replace=False)))
        L = ResidueSet(g, tuple(int(v) for v in rng.choice(31, size=6, replace=False)))
        eps = 0.4
        period_set = set(multi_almost_periods(sets, M, L, eps).periods.elements)
        for width in (0.3, 0.7, 1.2):
            candidate = BohrSet(g, (2,), width)
            expected = set(enumerate_members(candidate).elements) <= period_set
            assert verify_bohr_periods(candidate, sets, M, L, eps) == expected


def bohr_of_periods(g, conv_values, eps):
    """Largest single-frequency Bohr set whose members all shift conv by at
    most eps in sup norm."""
    p = g.p
    good = {t for t in range(p) if deviation_oracle(conv_values, t, math.inf) <= eps}
    best = BohrSet(g, (1,), 0.9 * 2 * math.sin(math.pi / p))
    for t in range(1, (p - 1) // 2 + 1):
        for j in range((p - 1) // 2, 0, -1):
            width = 2 * math.sin(math.pi * j / p) * 1.0000001
            candidate = BohrSet(g, (t,), min(2.0, width))
            members = enumerate_members(candidate)
            if set(members.elements) <= good:
                if len(members) > size(best):
                    best = candidate
                break
    return best


class TestIncrementFromPeriods:
    def test_point_bohr_set(self):
        g = PrimeCyclicGroup(7)
        A = ResidueSet(g, (0, 1, 2))
        f = normalized_indicator(ResidueSet(g, (0,)))
        B = BohrSet(g, (1,), 0.9 * 2 * math.sin(math.pi / 7))
        x, density = increment_from_periods(f, A, B, 0.0)
        assert density == 1.0
        assert density >= 2 * A.density()

    def test_full_group_breaks_mass_precondition(self):
        g = PrimeCyclicGroup(7)
        A = ResidueSet(g, tuple(range(7)))
        f = normalized_indicator(dilate_set(A, -1))
        B = BohrSet(g, (1,), 0.9 * 2 * math.sin(math.pi / 7))
        with pytest.raises(ValueError, match="L1 mass"):
            increment_from_periods(f, A, B, 0.25)

    def test_value_at_zero_precondition(self):
        g = PrimeCyclicGroup(7)
        A = ResidueSet(g, (0, 2))
        f = normalized_indicator(ResidueSet(g, (1,)))
        B = BohrSet(g, (1,), 0.9 * 2 * math.sin(math.pi / 7))
        with pytest.raises(ValueError, match="value at zero"):
            increment_from_periods(f, A, B, 0.1)

    def test_deviation_precondition(self):
        g = PrimeCyclicGroup(7)
        A = ResidueSet(g, (0, 1))
        f = normalized_indicator(dilate_set(A, -1))
        B = BohrSet(g, (1,), 2.0)
        with pytest.raises(ValueError, match="shift deviation"):
            increment_from_periods(f, A, B, 0.05)

    def test_deviation_precondition_names_first_failing_shift(self):
        g = PrimeCyclicGroup(31)
        A = ResidueSet(g, (0, 1, 2, 5, 9, 14))
        f = normalized_indicator(dilate_set(A, -1))
        conv = convolve(f, indicator(A)).values
        B = BohrSet(g, (1,), 2.0)  # the whole group, in ascending order
        devs = {t: float(np.max(np.abs(np.roll(conv, -t) - conv))) for t in range(31)}
        eps = max(devs[1], devs[2]) + 0.001
        t = next(t for t in range(31) if devs[t] > eps + 1e-12)
        assert t > 2
        expected = f"(t={t} gives {devs[t]:.6g} > eps={eps:.6g})"
        with pytest.raises(ValueError, match=re.escape(expected)):
            increment_from_periods(f, A, B, eps)

    def test_constructed_instance_meets_lemma_bound(self):
        g = PrimeCyclicGroup(31)
        A = enumerate_members(BohrSet(g, (1,), 2 * math.sin(3.5 * math.pi / 31)))
        assert len(A) == 7
        alpha = A.density()
        assert alpha <= 0.5
        f = normalized_indicator(dilate_set(A, -1))
        eps = 0.3
        conv = convolve(f, indicator(A))
        B = bohr_of_periods(g, conv.values, eps)
        x, density = increment_from_periods(f, A, B, eps)
        assert density >= 2 * alpha * (1 - 2 * eps) - 1e-9
        # Exhaustive oracle over every translate.
        members = set(enumerate_members(B).elements)
        best = max(
            sum(1 for a in A.elements if (x0 + a) % 31 in members) for x0 in range(31)
        )
        assert density == pytest.approx(best / len(members))


def make_regular(g, freqs, rho):
    base = BohrSet(g, freqs, rho)
    return dilate(base, find_regular_dilate(base))


class TestDenseTranslate:
    def test_full_density(self):
        g = PrimeCyclicGroup(101)
        B = make_regular(g, (1,), 1.2)
        A = enumerate_members(B)
        delta = 1 / 260
        x, density = dense_translate(A, B, delta)
        assert density == 1.0

    def test_empty_set_rejected(self):
        g = PrimeCyclicGroup(101)
        B = make_regular(g, (1,), 1.2)
        A = ResidueSet(g, ())
        with pytest.raises(ValueError):
            dense_translate(A, B, 0.001)

    def test_random_subset_matches_oracle(self):
        g = PrimeCyclicGroup(101)
        rng = np.random.default_rng(8)
        B = make_regular(g, (1,), 1.4)
        members = enumerate_members(B)
        picked = rng.choice(members.elements, size=max(2, len(members) // 2), replace=False)
        A = ResidueSet(g, tuple(int(v) for v in picked))
        alpha = len(A) / len(members)
        delta = alpha / (240 * B.dimension)
        while size(dilate(B, 1 + delta)) > 1.01 * len(members):
            delta /= 2
        x, density = dense_translate(A, B, delta)
        assert density >= 0.9 * alpha - 1e-9
        assert x in set(members.elements)
        small = set(enumerate_members(dilate(B, delta)).elements)
        counts = {
            x0: sum(1 for a in A.elements if a in {(x0 + s) % 101 for s in small})
            for x0 in members.elements
        }
        assert counts[x] == max(counts.values())
        assert density == pytest.approx(counts[x] / len(small))

    def test_subset_precondition(self):
        g = PrimeCyclicGroup(101)
        B = make_regular(g, (1,), 1.2)
        outside = ResidueSet(g, (50,))
        with pytest.raises(ValueError, match="subset"):
            dense_translate(outside, B, 0.0001)


class TestCoefficientTranslates:
    def test_arity_validation(self):
        g = PrimeCyclicGroup(101)
        B = BohrSet(g, (1,), 2.0)
        A = enumerate_members(B)
        with pytest.raises(ValueError):
            coefficient_translates(A, B, (1, -1), (1.0, 1.0))

    def test_full_set_gives_translate_family(self):
        g = PrimeCyclicGroup(7)
        B = BohrSet(g, (1,), 2.0)
        A = enumerate_members(B)
        result = coefficient_translates(A, B, (1, 1, -2), (1.0, 1.0, 1.0))
        assert isinstance(result, TranslateFamily)
        assert all(d == 1.0 for d in result.densities)

    def test_family_guarantees_with_nontrivial_carriers(self):
        # Large enough modulus that the lemma's epsilon-width carrier sets
        # contain more than the origin.
        from invariant_eq_lab.cyclic import next_prime_above

        p = next_prime_above(7300)
        g = PrimeCyclicGroup(p)
        B = BohrSet(g, (1,), 2.0)
        A = enumerate_members(B)
        result = coefficient_translates(A, B, (1, 1, -2), (1.0, 1.0, 1.0))
        assert isinstance(result, TranslateFamily)
        assert any(size(c) > 1 for c in result.carriers)
        alpha = 1.0
        for i, (subset, carrier) in enumerate(zip(result.subsets, result.carriers)):
            carrier_members = set(enumerate_members(carrier).elements)
            assert set(subset.elements) <= carrier_members
            assert result.densities[i] == len(subset) / len(carrier_members)
            assert result.densities[i] >= (7 / 8) * alpha - 1e-9
            # Dilating by the coefficient lands inside the dilated image set.
            image_members = set(
                enumerate_members(dilate(result.image, result.dilations[i])).elements
            )
            dilated = dilate_set(subset, (1, 1, -2)[i]) if len(subset) else subset
            assert set(dilated.elements) <= image_members

    def test_witness_branch_verified_by_counting(self):
        g = PrimeCyclicGroup(101)
        B = make_regular(g, (3,), 1.4)
        members = enumerate_members(B)
        A = ResidueSet(g, members.elements[:: 3])
        alpha = len(A) / len(members)
        result = coefficient_translates(A, B, (1, 1, -2), (1.0, 1.0, 1.0))
        k = 3
        if isinstance(result, IncrementWitness):
            carrier_members = enumerate_members(result.carrier)
            recount = intersect(translate_set(A, -result.translate), carrier_members)
            assert recount.elements == result.subset.elements
            assert result.density == len(recount) / len(carrier_members)
            assert result.density >= (1 + 1 / (16 * k)) * alpha - 1e-9
        else:
            assert all(d >= (7 / 8) * alpha - 1e-9 for d in result.densities)

    def test_hypothesis_error_when_set_too_sparse(self):
        # A single point cannot average to (k - 1/16) alpha over a large
        # regular Bohr set once the witness branch is out of reach, so the
        # construction must report the hypothesis failure rather than
        # fabricate a conclusion.
        g = PrimeCyclicGroup(101)
        B = make_regular(g, (1,), 1.9)
        members = enumerate_members(B)
        # Density high enough that the increment threshold exceeds 1.
        A = ResidueSet(g, members.elements)
        sparse = ResidueSet(g, members.elements[:1])
        try:
            coefficient_translates(sparse, B, (1, 1, -2), (1.0, 1.0, 1.0))
        except LemmaHypothesisError:
            pass  # acceptable outcome for a sparse set
        result = coefficient_translates(A, B, (1, 1, -2), (1.0, 1.0, 1.0))
        assert isinstance(result, (TranslateFamily, IncrementWitness))


class TestPopularSums:
    def test_full_groups(self):
        g = PrimeCyclicGroup(7)
        full = ResidueSet(g, tuple(range(7)))
        result = popular_sums([full, full], 1.0)
        assert result.points.elements == tuple(range(7))
        assert result.threshold == pytest.approx(7 / 8)

    def test_singletons(self):
        g = PrimeCyclicGroup(13)
        result = popular_sums([ResidueSet(g, (3,)), ResidueSet(g, (4,))], 0.5)
        assert result.points.elements == (7,)
        assert result.threshold == pytest.approx(0.5 / 8)

    def test_explicit_example(self):
        g = PrimeCyclicGroup(13)
        A = ResidueSet(g, (0, 1, 2))
        result = popular_sums([A, A], 0.5)
        assert result.threshold == pytest.approx(0.1875)
        assert result.points.elements == (0, 1, 2, 3, 4)

    def test_mass_bound_outside_popular_set(self):
        g = PrimeCyclicGroup(31)
        rng = np.random.default_rng(9)
        sets = [
            ResidueSet(g, tuple(int(v) for v in rng.choice(31, size=5, replace=False)))
            for _ in range(3)
        ]
        result = popular_sums(sets, 0.4)
        outside = [x for x in range(31) if x not in set(result.points.elements)]
        mass = sum(result.convolution.values[x] for x in outside)
        assert mass <= result.threshold * 31 + 1e-9

    def test_threshold_membership_definition(self):
        g = PrimeCyclicGroup(31)
        rng = np.random.default_rng(10)
        sets = [
            ResidueSet(g, tuple(int(v) for v in rng.choice(31, size=4, replace=False)))
            for _ in range(2)
        ]
        result = popular_sums(sets, 0.7)
        for x in range(31):
            inside = x in set(result.points.elements)
            assert inside == (result.convolution.values[x] >= result.threshold - 1e-9)


class TestBohrInSumset:
    def test_full_group_contains_everything(self):
        g = PrimeCyclicGroup(31)
        A = ResidueSet(g, tuple(range(31)))
        assert bohr_in_sumset_check(BohrSet(g, (1,), 1.0), A, 1)

    def test_single_point(self):
        g = PrimeCyclicGroup(31)
        A = ResidueSet(g, (0,))
        tiny = BohrSet(g, (1,), 0.9 * 2 * math.sin(math.pi / 31))
        assert bohr_in_sumset_check(tiny, A, 1)
        assert not bohr_in_sumset_check(BohrSet(g, (1,), 1.0), A, 1)

    def test_matches_direct_membership(self):
        g = PrimeCyclicGroup(101)
        A = ResidueSet(g, (0, 1, 5))
        m = 1
        w = 3 ** (m + 1)
        reach = iterated_sumset(A, w)
        diff = set(sumset(reach, dilate_set(reach, -1)).elements)
        for width in (0.2, 0.5, 1.1):
            candidate = BohrSet(g, (7,), width)
            expected = set(enumerate_members(candidate).elements) <= diff
            assert bohr_in_sumset_check(candidate, A, m) == expected


class TestIncrementDriver:
    def test_full_group_caps_immediately(self):
        g = PrimeCyclicGroup(31)
        A = ResidueSet(g, tuple(range(31)))
        trace = increment_driver(A, InvariantEquation((1, 1, -2)), DriverConfig())
        assert trace.terminal_reason is TerminalReason.DENSITY_CAP
        assert len(trace.steps) == 1  # nothing beyond the initial state

    def test_single_point_finds_floor(self):
        g = PrimeCyclicGroup(31)
        A = ResidueSet(g, (0,))
        trace = increment_driver(A, InvariantEquation((1, 1, -2)), DriverConfig(max_steps=10))
        assert trace.terminal_reason in (
            TerminalReason.NO_INCREMENT_FOUND,
            TerminalReason.SIZE_FLOOR,
        )

    def test_steps_verified_and_deterministic(self):
        g = PrimeCyclicGroup(101)
        rng = np.random.default_rng(11)
        A = ResidueSet(g, tuple(int(v) for v in rng.choice(101, size=20, replace=False)))
        eq = InvariantEquation((1, 1, -2))
        config = DriverConfig(max_dim=1, min_size=5, max_steps=8, width_grid=8)
        trace = increment_driver(A, eq, config)
        again = increment_driver(A, eq, config)
        assert trace.to_dict() == again.to_dict()
        factor = 1 + 1 / (16 * eq.arity)
        for prev, step in zip(trace.steps, trace.steps[1:]):
            assert step.mechanism in ("coefficient-translates", "bohr-search")
            members = enumerate_members(step.bohr_set)
            assert set(step.dense_set.elements) <= set(members.elements)
            recount = len(step.dense_set) / len(members)
            assert step.density == pytest.approx(recount)
            assert recount >= factor * prev.density - 1e-9

    def test_empty_set_rejected(self):
        g = PrimeCyclicGroup(31)
        with pytest.raises(ValueError):
            increment_driver(ResidueSet(g, ()), InvariantEquation((1, 1, -2)), DriverConfig())

    def test_behrend_set_in_large_group(self):
        # The ten-point extremal set placed in Z/1511, comfortably above the
        # no-wraparound modulus; every accepted step re-verified by direct
        # intersection counting.
        g = PrimeCyclicGroup(1511)
        A = ResidueSet(g, (1, 5, 26, 30, 51, 55, 76, 80, 101, 105))
        eq = InvariantEquation((1, 1, 1, -3))
        config = DriverConfig(max_dim=1, max_steps=16)
        trace = increment_driver(A, eq, config)
        factor = 1 + 1 / (16 * eq.arity)
        assert len(trace.steps) >= 2
        for prev, step in zip(trace.steps, trace.steps[1:]):
            members = set(enumerate_members(step.bohr_set).elements)
            dens = len(set(step.dense_set.elements) & members) / len(members)
            assert dens == pytest.approx(step.density)
            assert dens >= factor * prev.density - 1e-9
        assert increment_driver(A, eq, config).to_dict() == trace.to_dict()

    def test_general_search_helper_finds_valid_steps(self):
        from invariant_eq_lab.periodicity import _search_general_increment

        g = PrimeCyclicGroup(31)
        A = ResidueSet(g, (0, 1, 2, 3, 28, 29, 30))
        config = DriverConfig(max_dim=2, min_size=3, width_grid=6)
        step = _search_general_increment(A, need_density=0.5, config=config)
        assert step is not None
        members = enumerate_members(step.bohr_set)
        assert step.bohr_set.dimension == 2
        assert len(members) >= 3
        assert set(step.dense_set.elements) <= set(members.elements)
        assert step.density == len(step.dense_set) / len(members)
        assert step.density >= 0.5
        again = _search_general_increment(A, need_density=0.5, config=config)
        assert step == again


def reference_singleton_search(A, need_density, config):
    """The singleton search with one cumsum per (frequency, width) pair: the
    reference for the blocked search."""
    p = A.group.p
    elements = np.asarray(A.elements)
    js = _width_grid(p, config)
    arange = np.arange(p)
    for t in range(1, (p - 1) // 2 + 1):
        pos = (t * elements) % p
        arr = np.zeros(p, dtype=np.int64)
        arr[pos] = 1
        for j in js:
            size_b = 2 * j + 1
            if size_b < config.min_size:
                continue
            ext = np.concatenate([arr, arr[: 2 * j]])
            csum = np.concatenate([[0], np.cumsum(ext)])
            window = csum[2 * j + 1 :] - csum[: -(2 * j + 1)]
            counts_y = window[(arange - j) % p]
            need = need_density * size_b - BOUNDARY_TOL
            qual = np.nonzero(counts_y >= need)[0]
            if qual.size == 0:
                continue
            x = int(((qual * pow(t, -1, p)) % p).min())
            candidate = BohrSet(A.group, (t,), _midpoint_width(p, j))
            new_set = intersect(translate_set(A, -x), enumerate_members(candidate))
            return IncrementStep(new_set, candidate, len(new_set) / size_b, "bohr-search")
    return None


def reference_general_search(A, need_density, config):
    """The general search with one BohrSet, enumeration and convolution per
    candidate width: the reference for the blocked search."""
    from itertools import combinations

    p = A.group.p
    for dim in range(2, config.max_dim + 1):
        for gamma in combinations(range(1, p), dim):
            radii = periodicity.bohr_mod._radii(p, gamma)
            uniq = np.unique(np.sort(radii))
            n = max(1, min(config.width_grid, len(uniq) - 1))
            picks = np.unique(np.linspace(1, len(uniq) - 1, n).astype(int))
            seen_sizes = set()
            for idx in picks:
                w = float((uniq[idx] + (uniq[idx + 1] if idx + 1 < len(uniq) else 2.0)) / 2)
                candidate = BohrSet(A.group, gamma, min(w, 2.0))
                members = enumerate_members(candidate)
                if len(members) < config.min_size or len(members) in seen_sizes:
                    continue
                seen_sizes.add(len(members))
                counts = _counts_on_translates(A, members)
                need = need_density * len(members) - BOUNDARY_TOL
                qual = np.nonzero(counts >= need)[0]
                if qual.size == 0:
                    continue
                x = int(qual.min())
                new_set = intersect(translate_set(A, -x), members)
                return IncrementStep(new_set, candidate, len(new_set) / len(members), "bohr-search")
    return None


def random_set(g, rng, lo, hi):
    size = int(rng.integers(lo, hi))
    return ResidueSet(g, tuple(int(v) for v in rng.choice(g.p, size=size, replace=False)))


class TestBlockedSearches:
    @pytest.mark.parametrize("p", [101, 211, 1009])
    def test_singleton_search_matches_reference(self, p):
        g = PrimeCyclicGroup(p)
        rng = np.random.default_rng(p)
        for _ in range(2 if p > 500 else 4):
            A = random_set(g, rng, 3, p // 4)
            alpha = len(A) / p
            config = DriverConfig(
                max_dim=1, min_size=int(rng.integers(3, 12)), width_grid=int(rng.integers(2, 17))
            )
            # The last two needs exceed every density: no hit.
            for need in ((1 + 1 / 48) * alpha, 3 * alpha, 0.5, 1.01):
                step = _search_singleton_increment(A, need, config)
                assert step == reference_singleton_search(A, need, config)
            assert _search_singleton_increment(A, 1.01, config) is None

    def test_singleton_search_hit_in_a_late_block(self, monkeypatch):
        # t0 A is an interval for a large frequency t0, so the only hit lies
        # many blocks into the scan (t A with step 2 reaches density 35/69).
        monkeypatch.setattr(periodicity, "BLOCK_ENTRIES", 3000)
        p, t0 = 1009, 480
        g = PrimeCyclicGroup(p)
        c = pow(t0, -1, p)
        A = ResidueSet(g, tuple(sorted((c * i) % p for i in range(40))))
        config = DriverConfig(max_dim=1)
        step = _search_singleton_increment(A, 0.55, config)
        assert step is not None and step.bohr_set.frequencies == (t0,)
        assert step == reference_singleton_search(A, 0.55, config)

    @pytest.mark.parametrize("p", [31, 37])
    def test_general_search_matches_reference(self, p):
        g = PrimeCyclicGroup(p)
        rng = np.random.default_rng(p)
        for trial in range(3):
            A = random_set(g, rng, 4, 13)
            alpha = len(A) / p
            config = DriverConfig(
                max_dim=2, min_size=int(rng.integers(3, 9)), width_grid=int(rng.integers(4, 17))
            )
            needs = [(1 + 1 / 48) * alpha, 2.5 * alpha] + ([1.01] if trial == 0 else [])
            for need in needs:
                step = _search_general_increment(A, need, config)
                assert step == reference_general_search(A, need, config)
                if need > 1:
                    assert step is None
