import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from kstep_lln.constructions import (
    BlockProcess,
    binomial_upper_tail,
    binomial_upper_tail_exact,
    block_deviation_tail,
    deviation_count_threshold,
    imbalance_prob,
    imbalance_prob_exact,
    imbalance_threshold,
    min_imbalance_prob,
    sample_block_process,
    verify_mv_bound,
)
from kstep_lln.constructions import _COMB_MAX, _pmf_float
from kstep_lln.trees import block_process_tree, exact_tail


class TestBinomialUpperTail:
    def test_headline_constant(self):
        assert binomial_upper_tail(6, 5) == 7 / 64
        assert binomial_upper_tail_exact(6, 5) == Fraction(7, 64)

    def test_by_hand_sum(self):
        # C(8,5)+C(8,6)+C(8,7)+C(8,8) = 56+28+8+1 = 93
        assert binomial_upper_tail(8, 5) == pytest.approx(93 / 256, rel=1e-14)
        assert binomial_upper_tail_exact(8, 5) == Fraction(93, 256)

    def test_full_support_and_empty_tail(self):
        assert binomial_upper_tail(4, 0) == 1.0
        assert binomial_upper_tail(4, -3) == 1.0
        assert binomial_upper_tail(4, 5) == 0.0
        assert binomial_upper_tail_exact(4, 0) == 1
        assert binomial_upper_tail_exact(4, 5) == 0

    def test_matches_exact_rational_path(self):
        # Every (m, k0) with m <= 200, deep tails included: 1e-13 relative and 1e-14 absolute.
        for m in range(1, 201):
            for k0 in range(-1, m + 2):
                exact = binomial_upper_tail_exact(m, k0)
                err = abs(Fraction(binomial_upper_tail(m, k0)) - exact)
                assert err <= min(Fraction(1e-13) * exact, Fraction(1e-14)), (m, k0)

    @given(st.integers(1, 64), st.integers(0, 65))
    @settings(max_examples=200)
    def test_complement_identity(self, m, k0):
        # P(>= k0) + P(<= k0 - 1) = 1; the lower tail goes through the
        # mirrored upper tail, a different evaluation path.
        upper = binomial_upper_tail(m, k0)
        lower = binomial_upper_tail(m, m - k0 + 1)
        assert upper + lower == pytest.approx(1.0, abs=1e-12)

    @given(st.integers(1, 5000), st.data())
    @settings(max_examples=150, deadline=None)
    def test_against_scipy_survival(self, m, data):
        k0 = data.draw(st.integers(0, m))
        ours = binomial_upper_tail(m, k0)
        ref = float(scipy.stats.binom.sf(k0 - 1, m, 0.5))
        if ref > 1e-300:
            assert ours == pytest.approx(ref, rel=1e-10)

    def test_large_m_frozen_high_precision_values(self):
        # 40-digit references computed independently with mpmath
        assert binomial_upper_tail(10**6, 500500) == pytest.approx(
            0.15889734568165276856, rel=1e-12
        )
        assert binomial_upper_tail(10**6, 502000) == pytest.approx(
            3.1804668750412442632e-05, rel=1e-12
        )
        assert binomial_upper_tail(999999, 500500) == pytest.approx(
            0.15865513294604034842, rel=1e-12
        )

    @pytest.mark.parametrize("side", [0, 1])
    def test_both_sides_of_the_integer_start_match_40_digit_references(self, side):
        m = _COMB_MAX + side
        # The deepest k0 keeps the tail a normal float (it is about 1e-290).
        for k0 in (m // 2 + 1, m // 2 + 20, m // 2 + 60, m // 2 + 300, m - 40):
            with mpmath.workdps(40):
                ref = mpmath.fsum(mpmath.binomial(m, k) for k in range(k0, m + 1)) / mpmath.mpf(2) ** m
                pmf = mpmath.binomial(m, k0) / mpmath.mpf(2) ** m
                assert abs(binomial_upper_tail(m, k0) - ref) <= 1e-13 * ref, k0
                assert abs(_pmf_float(m, k0) - pmf) <= 2.0**-52 * pmf, k0  # the start itself

    def test_last_term_is_exact(self):
        for m in (1, 64, 1074, _COMB_MAX + 1, 5000):
            assert _pmf_float(m, m) == math.ldexp(1.0, -m)  # 2^-m, or 0.0 below the subnormals
        assert binomial_upper_tail(1074, 1074) == 2.0**-1074

    def test_rejects_nonpositive_m(self):
        with pytest.raises(ValueError):
            binomial_upper_tail(0, 0)


class TestImbalance:
    @given(st.integers(1, 2000))
    @settings(max_examples=200)
    def test_threshold_matches_integer_brute_force(self, m):
        def brute(m):
            for k in range(m + 2):
                d = 2 * k - m
                if d >= 0 and d * d >= m:
                    return k

        assert imbalance_threshold(m) == brute(m)

    def test_single_sign(self):
        assert imbalance_prob(1) == 0.5

    def test_minimizer(self):
        assert imbalance_prob(6) == 7 / 64
        assert imbalance_prob_exact(6) == Fraction(7, 64)

    def test_min_scan(self):
        assert min_imbalance_prob(6) == (6, 7 / 64)
        assert min_imbalance_prob(100) == (6, 7 / 64)

    def test_min_scan_rejects_tiny_range(self):
        with pytest.raises(ValueError):
            min_imbalance_prob(5)

    def test_gaussian_limit_direction(self):
        # moderate m already sits near the limiting survival value
        assert imbalance_prob(10_000) == pytest.approx(0.158655, abs=0.004)


class TestBlockProcess:
    def test_shape_and_block_constancy(self):
        proc = sample_block_process(4, 2, seed=123)
        assert proc.m == 2
        assert len(proc.values) == 4
        assert proc.values[0] == proc.values[1]
        assert proc.values[2] == proc.values[3]
        assert set(proc.values) <= {-1, 1}

    def test_deterministic_given_seed(self):
        a = sample_block_process(6, 3, seed=99)
        b = sample_block_process(6, 3, seed=99)
        assert a == b

    def test_rejects_ragged_blocks(self):
        with pytest.raises(ValueError):
            sample_block_process(7, 2, seed=0)

    def test_validation_catches_broken_blocks(self):
        with pytest.raises(ValueError, match="within its block"):
            BlockProcess(N=4, K=2, values=(1, -1, 1, 1))
        with pytest.raises(ValueError, match="-1 or \\+1"):
            BlockProcess(N=2, K=1, values=(1, 0))

    def test_mean_deviation_clt_sanity(self):
        # Mean of sum(values) over many seeds should be 0 within 3 sigma,
        # sigma = K sqrt(m / n_seeds).
        N, K, n_seeds = 6, 2, 20_000
        m = N // K
        total = sum(sample_block_process(N, K, seed=s).deviation() for s in range(n_seeds))
        assert abs(total / n_seeds) <= 3 * K * math.sqrt(m / n_seeds)


class TestBlockDeviationTail:
    def test_specializes_to_imbalance(self):
        assert block_deviation_tail(6, 1, math.sqrt(6)) == 7 / 64

    def test_frozen_instance(self):
        # P(Z >= 34) for 64 fair signs; reference from exact rational sum
        got = block_deviation_tail(64, 1, 4.0)
        assert got == pytest.approx(0.35399037706738199, rel=1e-13)
        assert got == pytest.approx(float(binomial_upper_tail_exact(64, 34)), abs=1e-15)

    def test_zero_threshold_by_hand(self):
        # m=4, need Z >= 2: (6+4+1)/16
        assert block_deviation_tail(8, 2, 0.0) == pytest.approx(11 / 16, rel=1e-14)

    def test_rejects_ragged_blocks(self):
        with pytest.raises(ValueError):
            block_deviation_tail(10, 3, 1.0)

    @pytest.mark.parametrize(
        "C, sided, match",
        [(math.nan, "upper", "finite"), (math.inf, "two_sided", "finite"),
         (-math.inf, "upper", "finite"), (1.0, "lower", "sided")],
    )
    def test_rejects_bad_threshold_or_side(self, C, sided, match):
        with pytest.raises(ValueError, match=match):
            block_deviation_tail(8, 2, C, sided=sided)

    @pytest.mark.parametrize("m, K", [(m, K) for m in range(1, 9) for K in (1, 2, 3)])
    def test_two_sided_against_tree_enumeration(self, m, K):
        # C runs over lattice points (2j - m) K, midpoints between them and
        # values outside the range; none lies within the 1e-9 snap of a
        # lattice point without being one.
        tree, seq = block_process_tree(m * K, K)
        for C in [-1.0, 0.0, 0.25 * K] + [K * (h / 2.0) for h in range(1, 2 * m + 2)]:
            enumerated = exact_tail(tree, seq, K, C, sided="two_sided")
            got = block_deviation_tail(m * K, K, C, sided="two_sided")
            assert got == pytest.approx(enumerated, abs=1e-15), C

    @pytest.mark.parametrize("K", [1, 2])
    def test_two_sided_at_64_blocks_doubles_the_upper_tail(self, K):
        # 2^64 leaves: checked against the exact rational tail, never enumerated.
        for C, k0 in [(3.0, 34), (4.0, 34), (8.5, 37), (40.0, 52)]:
            want = 2 * float(binomial_upper_tail_exact(64, k0))
            got = block_deviation_tail(64 * K, K, C * K, sided="two_sided")
            assert got == pytest.approx(want, rel=1e-13)
        assert block_deviation_tail(64 * K, K, 0.0, sided="two_sided") == 1.0

    @given(st.integers(1, 10), st.integers(1, 4), st.floats(-5.0, 25.0))
    @settings(max_examples=200)
    def test_against_exhaustive_sign_enumeration(self, m, K, C):
        N = m * K
        hit = sum(
            1
            for signs in itertools.product((-1, 1), repeat=m)
            if K * sum(signs) >= C - 1e-9  # same lattice snap as the implementation
        )
        assert block_deviation_tail(N, K, C) == pytest.approx(hit / 2**m, abs=1e-12)

    def test_lattice_snap_keeps_boundary_points(self):
        # 4 + float dust (from 0.5*sqrt(64*ln(e)) style arithmetic) must
        # still count the lattice point at 4.
        assert block_deviation_tail(64, 1, 4.0 + 5e-16) == block_deviation_tail(64, 1, 4.0)

    @pytest.mark.parametrize("K", [1, 3, 8])
    def test_lattice_snap_is_1e9_in_units_of_the_deviation(self, K):
        # two blocks: S = 0 with probability 1/2, S = 2K with probability 1/4
        assert block_deviation_tail(2 * K, K, 0.9e-9) == 0.75
        assert block_deviation_tail(2 * K, K, 1.1e-9) == 0.25
        assert block_deviation_tail(2 * K, K, 5.134547871976749e-09) == 0.25

    def test_invariant_under_block_length_rescaling(self):
        # With m fixed, scaling C by K leaves the tail unchanged.
        base = block_deviation_tail(8, 1, 2.0)
        for K in (2, 3, 5):
            assert block_deviation_tail(8 * K, K, 2.0 * K) == pytest.approx(base, abs=1e-15)

    @given(st.integers(1, 200))
    @settings(max_examples=100)
    def test_sqrt_kn_tail_is_at_least_one_tenth(self, m):
        for K in (1, 3):
            N = m * K
            assert block_deviation_tail(N, K, math.sqrt(K * N)) >= 0.1

    @given(st.integers(1, 3), st.integers(1, 8), st.integers(1, 8))
    @settings(max_examples=100)
    def test_valid_inverse_bound_triples_reach_their_budget(self, K, half_m, t8):
        # Every applicable (N, K, eps) triple of the inverse bound must see
        # the block process put at least eps of mass past the threshold.
        from kstep_lln.bounds import HorizonParams, mv_threshold

        m = 8 * half_m
        t = min(t8, m // 8)
        eps = math.exp(-16.0 * t * t / m) / 15.0
        res = mv_threshold(HorizonParams(N=m * K, K=K, epsilon=eps))
        assert res.valid, res.violations
        assert block_deviation_tail(m * K, K, res.threshold) >= eps


class TestMvAudit:
    def test_minimal_range_by_hand(self):
        report = verify_mv_bound(8)
        assert report.ok
        # even m in {2,4,6,8}; t=0 four times plus (8,1)
        assert report.pairs_checked == 5
        assert report.min_slack_at == (8, 1)
        expected = 93 / 256 - math.exp(-2) / 15
        assert report.min_slack == pytest.approx(expected, rel=1e-12)

    def test_larger_scan_clean(self):
        report = verify_mv_bound(200)
        assert report.ok
        assert not report.violations

    def test_rejects_tiny_range(self):
        with pytest.raises(ValueError):
            verify_mv_bound(7)
