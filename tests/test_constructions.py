import hashlib
import itertools
import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from kstep_lln import constructions
from kstep_lln.bounds import mv_lower_bound
from kstep_lln.constructions import (
    binomial_upper_tail,
    binomial_upper_tail_exact,
    block_deviation_tail,
    imbalance_prob,
    imbalance_prob_exact,
    imbalance_threshold,
    min_imbalance_prob,
    sample_block_process,
    verify_mv_bound,
)
from kstep_lln.constructions import (
    _COMB_MAX,
    _EXACT_SUM_MIN,
    _F,
    _IMBALANCE_M_MAX,
    _LN2,
    _TAIL_M_MAX,
    _TWO_PI,
    _exact_sum,
    _pmf_float,
)
from kstep_lln.trees import block_process_tree, exact_tail


def _reference_exact_sum(x):
    """`_exact_sum` as first written: the extraction with max(x) read from x."""
    n = len(x)
    top = (n + 2) * float(x.max()) if n >= _EXACT_SUM_MIN else 0.0
    if not 2.0**-800 <= top <= 2.0**1000:
        return math.fsum(x.tolist())
    sigma = math.ldexp(1.0, math.frexp(top)[1])
    q = x + sigma
    q -= sigma
    hi = float(q.sum())
    lo = float(np.subtract(x, q, out=q).sum())
    err = n * n * sigma * 2.0**-104
    total = hi + math.nextafter(lo - err, -math.inf)
    if total == hi + math.nextafter(lo + err, math.inf):
        return total
    return math.fsum(x.tolist())


def _reference_tail(m, k0):
    """`binomial_upper_tail` for 0 < k0 <= m as first written: the window from one arange of k."""
    if 2 * k0 <= m:
        return 1.0 - _reference_tail(m, m - k0 + 1)
    ks = np.arange(k0 - 1, min(m, k0 + 6 * math.isqrt(m) + 6), dtype=np.float64)
    terms = m - ks
    terms /= ks + 1.0
    terms[0] = 1.0
    np.cumprod(terms, out=terms)
    terms *= _pmf_float(m, k0)
    return _reference_exact_sum(terms)


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

    @given(st.one_of(st.integers(1, 2 * _COMB_MAX), st.integers(1, 10**6)), st.data())
    @settings(max_examples=300, deadline=None)
    def test_same_bits_as_the_reference_window(self, m, data):
        # Both halves, central and deep tails, and both pmf starts: the integer
        # ratio (m <= 600 or a short side of at most 64) and the fixed-point one.
        k0 = data.draw(st.one_of(
            st.floats(-10.0, 10.0).map(lambda z: round(m / 2 + z * math.sqrt(m) / 2)),
            st.integers(0, 80).map(lambda j: m - j),
            st.integers(1, 80),
        ))
        k0 = min(max(k0, 1), m)
        assert binomial_upper_tail(m, k0).hex() == _reference_tail(m, k0).hex(), (m, k0)

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

    def test_long_windows_match_40_digit_references(self):
        # For even m, P(Z >= m/2 + 1) = (1 - C(m, m/2) / 2^m) / 2, evaluated
        # independently with mpmath to 40 digits.  Each window runs more than
        # 5000 ratio steps from its single start.
        refs = {
            900_000: 0.4995794780298083146023569949967643356169,
            10**6: 0.4996010578193341249554563772015435027011,
            10**7: 0.4998738433770529076106888919996325742410,
        }
        for m, ref in refs.items():
            assert binomial_upper_tail(m, m // 2 + 1) == pytest.approx(ref, rel=1e-13), m

    @pytest.mark.parametrize("m, k0", [(40, 30), (1200, 601), (900_000, 450_001), (10**6, 500_001)])
    def test_one_pmf_start_per_tail(self, monkeypatch, m, k0):
        starts = []

        def counted(*args):
            starts.append(args)
            return _pmf_float(*args)

        monkeypatch.setattr(constructions, "_pmf_float", counted)
        binomial_upper_tail(m, k0)
        assert starts == [(m, k0)]

    @pytest.mark.parametrize("side", [0, 1])
    def test_both_sides_of_the_integer_start_match_40_digit_references(self, side):
        m = _COMB_MAX + side
        # The deepest k0 keeps the tail a normal float.
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

    def test_start_is_the_correctly_rounded_integer_ratio(self):
        # Both sides of _COMB_MAX and of the short side j = 64/65, central and
        # random k up to m = 5000, and subnormal starts at m = 2000.
        rng = np.random.default_rng(13)
        grid = [(2000, k) for k in range(1786, 1803)] + [(10**7, 10**7 - 65)]  # the last is 0.0
        for m in (_COMB_MAX, _COMB_MAX + 1, 1200, 1201, 2001, 3000, 4999, 5000):
            grid += [(m, m // 2), (m, m // 2 + 1), (m, m - 64), (m, m - 65), (m, 64), (m, 65)]
            grid += [(m, int(k)) for k in rng.integers(0, m + 1, size=40)]
        for m, k in grid:
            assert _pmf_float(m, k) == math.comb(m, k) / (1 << m), (m, k)

    @pytest.mark.parametrize("short", [0, 1, 2, 3, 10, 64])
    def test_integer_start_at_the_underflow_edge(self, short):
        # The ratio is returned as 0.0 without dividing once comb(m, k) has at
        # most m - 1075 bits; around that edge it must equal the division.
        m = next(m for m in itertools.count(1000) if math.comb(m, short).bit_length() - m == -1075)
        edge = []
        for mm in range(m - 3, m + 4):
            for k in (short, mm - short):
                want = math.comb(mm, k) / (1 << mm)
                assert _pmf_float(mm, k) == want, (mm, k)
                edge.append(want)
        assert 0.0 in edge and (short == 0 or 2.0**-1074 in edge)

    def test_extreme_short_sides_do_not_build_two_to_the_m(self):
        m = _TAIL_M_MAX
        tracemalloc.start()
        try:
            assert binomial_upper_tail(m, m - 10) == 0.0
            assert binomial_upper_tail(m, 11) == 1.0
            assert _pmf_float(10**8, 64) == 0.0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16  # 2^m alone would take 125 MB

    def test_central_tail_memory_at_the_largest_m(self):
        m = _TAIL_M_MAX
        tracemalloc.start()
        try:
            binomial_upper_tail(m, m // 2 + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 << 20  # 4.6 MB measured: three arrays of the 189,739-term window

    def test_tails_match_their_recorded_digest(self):
        # 3096 tails over m = 2 .. 10^6: central and deep k0, windows on both
        # sides of _EXACT_SUM_MIN, and short sides of 64 and 65.  The digest
        # pins every bit of them across versions of the code.
        pairs = []
        for m in sorted({int(x) for x in np.geomspace(2, 10**6, 620)}):
            r = math.isqrt(m)
            for k0 in (m // 2 - r, m // 2 + 1, m // 2 + r, m // 2 + 3 * r, 65, m - 64):
                pairs.append((m, k0))
        text = " ".join(binomial_upper_tail(m, k0).hex() for m, k0 in pairs)
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == "167b6d2dc464d09400a04d209cf8f682824f4d61bb58e22725f9f8e8994eda43"

    def test_fixed_point_constants_match_50_digits(self):
        with mpmath.workdps(50):
            assert _LN2 == int(mpmath.floor(mpmath.log(2) * mpmath.mpf(2) ** _F))
            assert _TWO_PI == int(mpmath.floor(2 * mpmath.pi * mpmath.mpf(2) ** _F))

    def test_rejects_nonpositive_m(self):
        with pytest.raises(ValueError):
            binomial_upper_tail(0, 0)

    def test_exact_tail_is_the_comb_sum(self):
        for m in range(1, 65):
            for k0 in range(-1, m + 2):
                count = sum(math.comb(m, k) for k in range(max(k0, 0), m + 1))
                assert binomial_upper_tail_exact(m, k0) == Fraction(count, 2**m), (m, k0)

    def test_exact_tail_walks_the_short_side(self, monkeypatch):
        m, starts = 200, []
        walk = constructions._tail_counts

        def spy(m, k_lo, k_hi):
            starts.append(k_lo)
            return walk(m, k_lo, k_hi)

        monkeypatch.setattr(constructions, "_tail_counts", spy)
        for k0 in range(1, m + 1):
            binomial_upper_tail_exact(m, k0)
        assert len(starts) == m and all(2 * k_lo > m for k_lo in starts)

    def test_tail_count_windows(self):
        for m in range(1, 31):
            counts = [sum(math.comb(m, j) for j in range(k, m + 1)) for k in range(m + 1)]
            for lo, hi in itertools.combinations_with_replacement(range(1, m + 1), 2):
                assert constructions._tail_counts(m, lo, hi) == counts[lo:hi + 1], (m, lo, hi)

    @pytest.mark.parametrize("m", [_IMBALANCE_M_MAX + 1, 10**30])
    def test_exact_tail_refuses_m_above_the_limit_before_the_walk(self, m):
        # At 10^30 the walk would never end; the refusal comes at once.
        for k0 in (1, m // 2 + 1, m):
            with pytest.raises(ValueError, match=f"at most {_IMBALANCE_M_MAX} .* got {m}$"):
                binomial_upper_tail_exact(m, k0)
        assert [binomial_upper_tail_exact(m, k0) for k0 in (-1, 0, m + 1)] == [1, 1, 0]
        assert binomial_upper_tail_exact(_IMBALANCE_M_MAX, _IMBALANCE_M_MAX) == Fraction(
            1, 2**_IMBALANCE_M_MAX
        )

    @pytest.mark.parametrize("m", [_TAIL_M_MAX + 1, 10**11, 10**30])
    def test_refuses_m_above_the_limit_before_allocating(self, m):
        assert _TAIL_M_MAX >= 10**7  # the 40-digit references go up to m = 10^7
        tracemalloc.start()
        try:
            for k0 in (1, m // 4, m // 2 + 1, m):
                with pytest.raises(ValueError, match=f"at most {_TAIL_M_MAX} .* got {m}"):
                    binomial_upper_tail(m, k0)
            # The trivial tails are exact and allocate nothing, so they stay.
            assert [binomial_upper_tail(m, k0) for k0 in (-1, 0, m + 1)] == [1.0, 1.0, 0.0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16


def _fsum_lengths(monkeypatch):
    """Record the length of every list `math.fsum` is given."""
    lengths = []
    real = math.fsum

    def spy(xs):
        lengths.append(len(xs))
        return real(xs)

    monkeypatch.setattr(math, "fsum", spy)
    return lengths


# Entries whose sums land on or near rounding midpoints of 1.0.
_TIES = st.lists(st.sampled_from([2.0**-53, 2.0**-54, 2.0**-106, 0.0]), max_size=2 * _EXACT_SUM_MIN)


class TestExactSum:
    @given(st.one_of(
        st.lists(st.floats(min_value=0.0, max_value=1e300), max_size=3 * _EXACT_SUM_MIN),
        st.lists(st.floats(min_value=0.0, max_value=1e-300), min_size=_EXACT_SUM_MIN - 5,
                 max_size=_EXACT_SUM_MIN + 5),
        st.lists(st.floats(min_value=0.0, max_value=2.0**-1000), max_size=2 * _EXACT_SUM_MIN),
        _TIES.map(lambda xs: [1.0, *xs]),
    ))
    @settings(max_examples=150, deadline=None)
    def test_equals_fsum_bit_for_bit(self, xs):
        # Empty and single entries, zeros, subnormals, lengths on both sides of
        # the gate and ties at 1 + 2^-53.
        want = math.fsum(xs)
        got = _exact_sum(np.array(xs, dtype=np.float64))
        assert got.hex() == want.hex()

    def test_equals_fsum_on_tail_shaped_arrays(self):
        rng = np.random.default_rng(19)
        for n in rng.integers(0, 3000, size=400).tolist():
            x = np.exp(-rng.exponential(30.0, size=n)) * 10.0 ** rng.uniform(-300, 0)
            assert _exact_sum(x) == math.fsum(x.tolist()), n

    def test_a_sum_on_a_rounding_midpoint_falls_back_to_fsum(self, monkeypatch):
        # 1 + 2^-53 lies halfway between 1 and its successor, so the certified
        # interval straddles a rounding boundary and cannot decide it.
        x = np.zeros(_EXACT_SUM_MIN + 100)
        x[:2] = 1.0, 2.0**-53
        lengths = _fsum_lengths(monkeypatch)
        assert _exact_sum(x) == 1.0
        assert lengths == [len(x)]

    @pytest.mark.parametrize("k0", [1501, 1540, 1600, 1700])
    def test_tail_windows_past_the_gate_take_the_extraction(self, monkeypatch, k0):
        # m = 3000 is the median tail of the benchmark: a 331-term window.
        lengths = _fsum_lengths(monkeypatch)
        binomial_upper_tail(3000, k0)
        assert lengths == []


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

    @pytest.mark.parametrize("m_max", [6, 7, 50, 300])
    def test_min_scan_is_first_exact_argmin(self, m_max):
        probs = [float(imbalance_prob_exact(m)) for m in range(1, m_max + 1)]
        best = min(probs)
        assert min_imbalance_prob(m_max) == (probs.index(best) + 1, best)

    def test_min_scan_rejects_tiny_range(self):
        with pytest.raises(ValueError):
            min_imbalance_prob(5)

    def test_gaussian_limit_direction(self):
        # moderate m already sits near the limiting survival value
        assert imbalance_prob(10_000) == pytest.approx(0.158655, abs=0.004)


class TestBlockProcess:
    def test_shape_and_block_constancy(self):
        values = sample_block_process(4, 2, seed=123)
        assert isinstance(values, tuple) and len(values) == 4
        assert values[0] == values[1]
        assert values[2] == values[3]
        assert set(values) <= {-1, 1}

    def test_deterministic_given_seed(self):
        a = sample_block_process(6, 3, seed=99)
        b = sample_block_process(6, 3, seed=99)
        assert a == b

    @pytest.mark.parametrize("N, K", [(1, 1), (6, 3), (12, 4), (64, 8)])
    def test_values_are_signs_held_over_each_block(self, N, K):
        for seed in range(5):
            values = sample_block_process(N, K, seed)
            assert len(values) == N and set(values) <= {-1, 1}
            assert all(values[n] == values[n - n % K] for n in range(N))

    def test_rejects_ragged_blocks(self):
        with pytest.raises(ValueError):
            sample_block_process(7, 2, seed=0)

    def test_refuses_paths_longer_than_the_limit_before_sampling(self):
        with pytest.raises(ValueError, match=r"^N must be at most 1000000 for a sampled path"):
            sample_block_process(10**6 + 1, 1, seed=0)

    def test_mean_deviation_clt_sanity(self):
        # Mean of sum(values) over many seeds should be 0 within 3 sigma,
        # sigma = K sqrt(m / n_seeds).
        N, K, n_seeds = 6, 2, 20_000
        m = N // K
        total = sum(sum(sample_block_process(N, K, seed=s)) for s in range(n_seeds))
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
        # C runs over lattice points (2j - m) K, midpoints between them,
        # values outside the range, and each lattice point's two float
        # neighbours, where the block tail and the enumeration must count
        # the same event; on both sides.
        tree, seq = block_process_tree(m * K, K)
        lattice = [float((2 * j - m) * K) for j in range(-1, m + 2)]
        neighbours = [math.nextafter(L, d) for L in lattice for d in (-math.inf, math.inf)]
        grid = [-1.0, 0.0, 0.25 * K] + [K * (h / 2.0) for h in range(1, 2 * m + 2)]
        for C in grid + lattice + neighbours:
            for sided in ("upper", "two_sided"):
                enumerated = exact_tail(tree, seq, K, C, sided=sided)
                got = block_deviation_tail(m * K, K, C, sided=sided)
                assert got == pytest.approx(enumerated, abs=1e-15), (C, sided)

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
            if K * sum(signs) >= C
        )
        assert block_deviation_tail(N, K, C) == pytest.approx(hit / 2**m, abs=1e-12)

    @pytest.mark.parametrize("K", [1, 3, 8])
    def test_counts_the_lattice_point_and_nothing_one_ulp_above(self, K):
        # two blocks: S = -2K, 0, 2K with probabilities 1/4, 1/2, 1/4
        top = float(2 * K)
        assert block_deviation_tail(2 * K, K, math.nextafter(0.0, -1.0)) == 0.75
        assert block_deviation_tail(2 * K, K, 0.0) == 0.75
        assert block_deviation_tail(2 * K, K, math.nextafter(0.0, 1.0)) == 0.25
        assert block_deviation_tail(2 * K, K, top) == 0.25
        assert block_deviation_tail(2 * K, K, math.nextafter(top, math.inf)) == 0.0

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
        assert (report.pairs_checked, report.violations) == (1325, ())
        assert (report.min_slack, report.min_slack_at) == (0.0002497132432088767, (200, 25))

    def test_rejects_tiny_range(self):
        with pytest.raises(ValueError):
            verify_mv_bound(7)

    def test_min_slack_is_exact_tail_minus_bound(self):
        # At (400, 50) the float tail path is 1 ulp off the correctly rounded tail.
        count = sum(math.comb(400, k) for k in range(250, 401))
        lower = mv_lower_bound(400, 50)
        report = verify_mv_bound(400)
        assert report.min_slack_at == (400, 50)
        assert report.min_slack == float(Fraction(count, 2**400)) - lower


def test_scans_use_no_float_tail(monkeypatch):
    def boom(*args):
        raise AssertionError("float tail path called")

    monkeypatch.setattr(constructions, "binomial_upper_tail", boom)
    monkeypatch.setattr(constructions, "_pmf_float", boom)
    assert min_imbalance_prob(2000) == (6, 7 / 64)
    report = verify_mv_bound(200)
    assert (report.pairs_checked, len(report.violations)) == (1325, 0)
    assert report.min_slack_at == (200, 25)


@pytest.mark.parametrize(
    "scan, limit",
    [
        (min_imbalance_prob, 10**5),
        (lambda m_max: list(constructions._imbalance_probs(m_max)), 10**5),
        (verify_mv_bound, 3200),
    ],
)
def test_scans_refuse_past_their_limit_before_any_work(scan, limit):
    # At 10^9 either scan would run for years; the refusal comes at once.
    for m_max in (limit + 1, 10**9):
        with pytest.raises(ValueError) as err:
            scan(m_max)
        assert str(err.value) == f"m_max must be at most {limit}, got {m_max}"
