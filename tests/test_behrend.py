"""Digit maps, the extremal construction, its verification harness, and
parameter selection."""

import itertools
import math
import time

import pytest

from invariant_eq_lab.behrend import (
    BehrendParams,
    ParamChoice,
    build_behrend,
    choose_params,
    digit_map,
    verify_behrend,
)


class TestDigitMap:
    def test_zero(self):
        assert digit_map(0, 5, 2) == (0, 0)

    def test_seven_base_five(self):
        assert digit_map(7, 5, 2) == (2, 1)

    def test_repunit(self):
        assert digit_map(124, 5, 3) == (4, 4, 4)

    def test_truncates_to_low_digits(self):
        assert digit_map(124, 5, 2) == (4, 4)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            digit_map(-1, 5, 2)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            BehrendParams(1, 2, 1, 4)
        with pytest.raises(ValueError):
            BehrendParams(5, 0, 1, 4)
        with pytest.raises(ValueError):
            BehrendParams(5, 2, -1, 4)
        with pytest.raises(ValueError):
            BehrendParams(5, 2, 1, 3)

    def test_N(self):
        assert BehrendParams(5, 2, 1, 4).N == 125


class TestBuild:
    def test_reference_instance(self):
        out = build_behrend(BehrendParams(5, 2, 1, 4))
        assert out.N == 125
        assert out.T_size == 20
        assert out.r == 1
        assert out.members == (1, 5, 26, 30, 51, 55, 76, 80, 101, 105)
        assert out.interval_set.elements == tuple(m + 1 for m in out.members)

    def test_matches_full_enumeration(self):
        params = BehrendParams(5, 2, 1, 4)
        out = build_behrend(params)
        # Independent oracle: scan all of [0, N).
        allowed = {v for v in range(params.M) if v * params.k < params.M}
        survivors = [
            n
            for n in range(params.N)
            if all(d in allowed for d in digit_map(n, params.M, params.d))
        ]
        assert len(survivors) == out.T_size
        norms = {}
        for n in survivors:
            r = sum(d * d for d in digit_map(n, params.M, params.d))
            norms.setdefault(r, []).append(n)
        best = max(
            (r for r in range(1, params.d * params.M**2 + 1) if norms.get(r)),
            key=lambda r: (len(norms[r]), -r),
        )
        assert out.r == best
        assert out.members == tuple(sorted(norms[best]))

    def test_degenerate_parameters(self):
        with pytest.raises(ValueError, match="no sphere"):
            build_behrend(BehrendParams(2, 1, 0, 4))
        with pytest.raises(ValueError, match="no sphere"):
            build_behrend(BehrendParams(5, 2, 1, 5))

    def test_members_share_norm_and_digit_cap(self):
        for params in [BehrendParams(8, 3, 2, 4), BehrendParams(7, 2, 1, 5)]:
            out = build_behrend(params)
            for x in out.members:
                digits = digit_map(x, params.M, params.d)
                assert all(v * params.k < params.M for v in digits)
                assert sum(v * v for v in digits) == out.r

    def test_pigeonhole_size(self):
        for params in [
            BehrendParams(5, 2, 1, 4),
            BehrendParams(7, 3, 1, 5),
            BehrendParams(8, 2, 2, 4),
        ]:
            out = build_behrend(params)
            assert len(out.members) * params.d * params.M**2 >= out.T_size


def compositions(m, n, s):
    """Ordered m-tuples of integers in [0, n) summing to s, by inclusion-exclusion."""
    return sum(
        (-1) ** j * math.comb(m, j) * math.comb(s - j * n + m - 1, m - 1)
        for j in range(m + 1)
        if s >= j * n
    )


def brute_force_solutions(members, k):
    """All tuples with x_1 + ... + x_{k-1} = (k-1) x_k, by literal loops."""
    member_set = set(members)
    hits = []
    for tup in itertools.product(members, repeat=k - 1):
        target = sum(tup)
        if target % (k - 1) == 0 and target // (k - 1) in member_set:
            hits.append(tup + (target // (k - 1),))
    return hits


class TestVerify:
    def test_reference_counts(self):
        params = BehrendParams(5, 2, 1, 4)
        out = build_behrend(params)
        v = verify_behrend(out, params)
        assert v.count == 82
        assert v.bound == 10 * 25
        assert v.diagonal_ok

    def test_counts_match_literal_bruteforce(self):
        params = BehrendParams(5, 2, 1, 4)
        out = build_behrend(params)
        sols = brute_force_solutions(out.members, params.k)
        assert verify_behrend(out, params).count == len(sols)
        block = params.M**params.d
        assert all(len({x % block for x in sol}) == 1 for sol in sols)

    def test_tiny_set(self):
        params = BehrendParams(5, 1, 0, 4)
        out = build_behrend(params)
        assert len(out.members) == 1
        v = verify_behrend(out, params)
        assert v.count == 1 and v.diagonal_ok

    def test_convolution_path_agrees_with_enumeration(self):
        import invariant_eq_lab.behrend as behrend_mod

        params = BehrendParams(7, 2, 2, 4)
        out = build_behrend(params)
        direct = behrend_mod._count_by_enumeration(out)
        total, diagonal = behrend_mod._count_by_convolution(out)
        assert total == direct[0]
        assert (total == diagonal) == direct[1]

    def test_larger_instance_uses_convolution(self):
        params = BehrendParams(8, 3, 2, 5)
        out = build_behrend(params)
        assert len(out.members) ** (params.k - 1) > 2 * 10**7
        v = verify_behrend(out, params)
        assert v.diagonal_ok
        assert v.count <= v.bound

    def test_count_past_int64_is_exact(self):
        # |A| = 729 = 9^3 and every member has constrained digit 1, so the
        # solutions are the 7-tuples of free parts f_i in [0, 729) with
        # sum = 7 f, counted by inclusion-exclusion.  The total passes 2^63.
        params = BehrendParams(9, 1, 3, 8)
        out = build_behrend(params)
        assert len(out.members) == 729
        start = time.perf_counter()
        v = verify_behrend(out, params)
        elapsed = time.perf_counter() - start
        assert v.count == sum(compositions(7, 729, 7 * f) for f in range(729))
        assert v.count >= 2**63
        assert v.diagonal_ok
        # The object-array fallback this path replaced took about 20 s here.
        assert elapsed < 5

    def test_entries_past_int64_are_rejected(self):
        params = BehrendParams(13, 1, 2, 12)
        with pytest.raises(ValueError, match="int64"):
            verify_behrend(build_behrend(params), params)


class TestChooseParams:
    def test_large_alpha_has_no_parameters(self):
        with pytest.raises(ValueError, match="no valid parameters"):
            choose_params(0.5, 4)

    def test_alpha_001(self):
        choice = choose_params(0.01, 4)
        assert isinstance(choice, ParamChoice)
        out = build_behrend(choice.params)
        assert out.density() == pytest.approx(choice.measured_density)
        assert choice.measured_density >= 0.01

    def test_alpha_0001_k5(self):
        choice = choose_params(0.001, 5)
        out = build_behrend(choice.params)
        assert out.density() >= 0.001
        v = verify_behrend(out, choice.params)
        assert v.diagonal_ok

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            choose_params(0.0, 4)
        with pytest.raises(ValueError):
            choose_params(0.01, 3)
