import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from kstep_lln.bounds import (
    AggregationParams,
    HorizonParams,
    _objective,
    aggregation_bound,
    dominance_rows,
    gaussian_survival,
    kr_threshold,
    midpoint_bound,
    mv_lower_bound,
    mv_threshold,
    suitable_x_check,
    deviation_threshold,
)
from kstep_lln import constructions, decision, sampling, trees
from kstep_lln.constructions import block_deviation_tail


class TestHorizonParams:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            HorizonParams(N=0, K=1, epsilon=0.1)
        with pytest.raises(ValueError):
            HorizonParams(N=3, K=0, epsilon=0.1)
        with pytest.raises(ValueError):
            HorizonParams(N=3, K=1, epsilon=1.2)
        with pytest.raises(ValueError):
            HorizonParams(N=3, K=1, epsilon=0.0)


class TestDeviationThreshold:
    def test_unit_log_case(self):
        # ln(1/eps) = 1, so the threshold is 4*sqrt(1*4*1) = 8
        assert deviation_threshold(HorizonParams(3, 1, math.exp(-1))) == 8.0

    def test_frozen_value(self):
        # 4*sqrt(5*105*ln 20), high-precision reference 158.63212504992021
        got = deviation_threshold(HorizonParams(100, 5, 0.05))
        assert got == pytest.approx(158.63212504992021, abs=1e-9)

    def test_rejects_epsilon_outside_valid_range(self):
        with pytest.raises(ValueError, match=r"\(0, 0.7\)"):
            deviation_threshold(HorizonParams(100, 5, 0.75))
        with pytest.raises(ValueError):
            deviation_threshold(HorizonParams(100, 5, 0.7))

    def test_monotone_in_each_parameter(self):
        for K in (1, 2, 5):
            ns = [deviation_threshold(HorizonParams(N, K, 0.1)) for N in (2, 5, 20, 100)]
            assert all(a < b for a, b in zip(ns, ns[1:]))
        for N in (10, 50):
            ks = [deviation_threshold(HorizonParams(N, K, 0.1)) for K in (1, 2, 3, 7)]
            assert all(a < b for a, b in zip(ks, ks[1:]))
            es = [deviation_threshold(HorizonParams(N, 2, e)) for e in (0.05, 0.2, 0.5, 0.69)]
            assert all(a > b for a, b in zip(es, es[1:]))


class TestGaussianSurvival:
    def test_symmetry_at_zero(self):
        assert gaussian_survival(0.0) == 0.5

    def test_frozen_values(self):
        assert gaussian_survival(1.0) == pytest.approx(0.15865525393145705, abs=1e-12)
        assert gaussian_survival(3.0) == pytest.approx(0.0013498980316300945, abs=1e-12)

    @given(st.floats(-8, 8))
    def test_complement(self, z):
        assert gaussian_survival(z) + gaussian_survival(-z) == pytest.approx(1.0, abs=1e-14)


def _reference_objective(ap, t, relaxed=False):
    """The objective as an erfc difference evaluated in full at every t, s and w included."""
    s = math.sqrt(ap.a)
    hi = math.inf if relaxed else ap.C - (ap.K - 1) * t
    tail = math.erfc(s * max(t, 0.0)) - math.erfc(s * hi)
    integral = max(0.0, -t) + math.sqrt(math.pi / (4.0 * ap.a)) * tail
    return ap.K * integral / (ap.C - ap.K * t)


def _reference_bound(ap, relaxed=False):
    """`aggregation_bound`'s grid and golden-section search over `_reference_objective`."""
    f = lambda t: _reference_objective(ap, t, relaxed)  # noqa: E731
    T = ap.C / ap.K
    delta = 1e-5 * T
    left = -ap.C
    candidates = [left + (T - delta - left) * i / 48.0 for i in range(49)]
    gap = T - left
    while gap > delta:
        gap *= 0.5
        candidates.append(T - gap)
    candidates += [T - delta, ap.C / (2.0 * ap.K)]
    candidates = sorted(set(c for c in candidates if left <= c <= T - delta))
    values = [f(t) for t in candidates]
    best = min(range(len(values)), key=values.__getitem__)
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = candidates[max(best - 1, 0)], candidates[min(best + 1, len(candidates) - 1)]
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(60):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
        if (b - a) <= 1e-9 * max(1.0, abs(a), abs(b)):
            break
    value = min(values[best], f(0.5 * (a + b)))
    if not relaxed:
        value = min(value, ap.K * math.exp(-ap.a * T * T))
    return min(1.0, max(0.0, value))


class TestAggregationBound:
    def test_single_summand_collapses_to_marginal_tail(self):
        # For K=1 the infimum is the limit toward the right endpoint, where
        # the windowed average degenerates to the integrand at C.
        for a, C in ((1.0, 2.0), (0.3, 1.5), (0.05, 6.0)):
            got = aggregation_bound(AggregationParams(C=C, K=1, a=a))
            assert got == pytest.approx(math.exp(-a * C * C), abs=1e-6)

    def test_against_fine_grid_minimization(self):
        ap = AggregationParams(C=4.0, K=2, a=1.0)
        for relaxed in (False, True):
            T = ap.C / ap.K
            grid = np.linspace(-ap.C, T - 1e-9 * T, 20001)
            objective = _objective(ap, relaxed)
            grid_min = min(objective(float(t)) for t in grid)
            got = aggregation_bound(ap, relaxed)
            assert got <= grid_min + 1e-9
            assert got >= 0.0

    def test_relaxed_dominates_exact(self):
        ap = AggregationParams(C=4.0, K=2, a=1.0)
        assert aggregation_bound(ap, relaxed=True) >= aggregation_bound(ap, relaxed=False)

    @staticmethod
    def grid():
        # N = K m and C = r sqrt(K N), as on the criterion 4 grid, with F(x) = min(1, exp(-a x^2))
        for K in (1, 2, 3, 4, 5, 8):
            for m in (1, 2, 8, 32):
                for r in (0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 8.0, 12.0):
                    N = K * m
                    C = r * math.sqrt(K * N)
                    ap = AggregationParams.from_horizon(C, N, K)
                    yield ap, min(1.0, math.exp(-ap.a * (C / K) ** 2))

    def test_never_below_the_comonotone_value(self):
        # K comonotone summands reach C exactly when each reaches C/K, so no bound is lower
        for ap, tail in self.grid():
            for relaxed in (False, True):
                got = aggregation_bound(ap, relaxed)
                assert tail * (1 - 1e-12) <= got <= 1.0, (ap, relaxed)

    def test_exact_at_most_the_endpoint_limit(self):
        for ap, tail in self.grid():
            assert aggregation_bound(ap) <= min(1.0, ap.K * tail) * (1 + 1e-12), ap

    def test_sharp_for_one_and_two_summands(self):
        # K = 1 is the marginal tail itself; K = 2 is Makarov's sharp value min(1, 2 F(C/2))
        for ap, tail in self.grid():
            if ap.K <= 2:
                want = min(1.0, ap.K * tail)
                assert aggregation_bound(ap) == pytest.approx(want, rel=1e-12, abs=0), ap

    def test_deep_tail_is_not_zero(self):
        ap = AggregationParams.from_horizon(8.0 * math.sqrt(2.0), 2, 1)
        assert aggregation_bound(ap) == pytest.approx(math.exp(-32.0), rel=1e-12, abs=0)
        ap = AggregationParams.from_horizon(38.45, 1, 1)  # a subnormal tail, 9.3e-322
        assert aggregation_bound(ap) == pytest.approx(math.exp(-ap.a * ap.C**2), rel=1e-12, abs=0)

    def test_chain_holds_on_the_grid(self):
        for ap, _ in self.grid():
            exact = aggregation_bound(ap, relaxed=False)
            relaxed = aggregation_bound(ap, relaxed=True)
            N = round(ap.K / (2 * ap.a))
            assert exact <= relaxed + 1e-9 and relaxed <= midpoint_bound(ap.C, ap.K, N) + 1e-9, ap

    def test_single_summand_is_the_marginal_tail_on_a_sweep(self):
        # At K = 1 the bound is exp(-a C^2); small s C once cancelled it to 0, and
        # where exp(-a C^2) is subnormal (N = 1, C near 38.45) the erfc difference
        # underflowed to 0.0 before the comonotone floor held it up.
        for N in (1, 4, 16, 64, 1000):
            for C in np.geomspace(1e-4, 50.0, 2000).tolist():
                ap = AggregationParams.from_horizon(C, N, 1)
                want = math.exp(-ap.a * C * C)
                got = aggregation_bound(ap)
                assert abs(got - want) <= 1e-12 * want, (N, C, got)

    @pytest.mark.parametrize("ap", [
        AggregationParams.from_horizon(1e-12, 1, 1),
        AggregationParams.from_horizon(1e-12, 9, 3),
        AggregationParams(C=3.0, K=2, a=1e-300),
    ])
    def test_vanishing_rate_or_level_gives_one(self, ap):
        assert aggregation_bound(ap) == pytest.approx(1.0, rel=1e-12, abs=0)

    @pytest.mark.parametrize("C, K, a", [
        (1e-12, 1, 0.5), (1e-12, 3, 1 / 6), (3.0, 2, 2e-309), (0.05, 2, 0.25),
        (0.5, 4, 0.01), (0.124, 1, 0.25), (0.126, 1, 0.25), (0.06, 3, 0.1),
    ])
    def test_small_argument_objective_matches_quadrature(self, C, K, a):
        # Both sides of s u = 1/16 and both signs of t, away from t = C/K, where
        # the reference's own C - K t and u - t part by more than 1e-12.
        ap = AggregationParams(C=C, K=K, a=a)
        objective = _objective(ap, relaxed=False)
        T = C / K
        for t in np.linspace(-C, T * (1 - 1e-3), 41).tolist():
            u = C - (K - 1) * t
            lo = max(t, 0.0)
            integral, _ = quad(lambda x: math.exp(-a * x * x), lo, u, epsabs=0.0, epsrel=1e-13)
            want = K * (max(0.0, -t) + integral) / (C - K * t)
            got = objective(t)
            assert got == pytest.approx(want, rel=1e-12, abs=0), (t, math.sqrt(a) * u)

    @given(st.integers(1, 8), st.integers(1, 64), st.floats(0.1, 12.0))
    @settings(max_examples=100, deadline=None)
    def test_same_bits_as_the_reference_on_criterion_4_shapes(self, K, m, r):
        # N = K m and C = r sqrt(K N) keep s u above r / sqrt 2 >= 0.07, on the
        # erfc side of the series threshold 1/16.
        ap = AggregationParams.from_horizon(r * math.sqrt(K * K * m), K * m, K)
        assert math.sqrt(ap.a) * ap.C / ap.K >= 1 / 16
        for relaxed in (False, True):
            assert aggregation_bound(ap, relaxed) == _reference_bound(ap, relaxed)

    def test_dominance_rows_keep_their_bits_on_criterion_4s_full_grid(self):
        ks, ms = [1, 2, 3, 4, 5], [2, 4, 8, 16, 32]
        rows = dominance_rows(ks, ms, [0.25, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 12.0])
        assert len(rows) == 200
        for row in rows:
            ap = AggregationParams.from_horizon(row["C"], row["N"], row["K"])
            assert row["exact"] == _reference_bound(ap, relaxed=False), row
            assert row["relaxed"] == _reference_bound(ap, relaxed=True), row
            assert row["midpoint"] == midpoint_bound(row["C"], row["K"], row["N"]), row

    def test_objective_clips_the_survival_at_one(self):
        # below 0 the integrand is 1: [-2, 0] adds its length 2 to int_0^inf exp(-x^2) dx
        ap = AggregationParams(C=1.0, K=1, a=1.0)
        assert _objective(ap, relaxed=True)(-2.0) == pytest.approx(
            (2.0 + math.sqrt(math.pi) / 2.0) / 3.0, rel=1e-15
        )

    def test_objective_stays_finite_where_pi_over_4a_overflows(self):
        # pi/(4a) overflows at a = 2e-309, so w = sqrt(pi)/(2 sqrt a) there; the objective
        # read NaN at t = 2.5e159 and inf at t = -1e160, and the relaxed bound 1.0.
        ap = AggregationParams(C=1e160, K=2, a=2e-309)
        want = 2 * (1e160 + math.sqrt(math.pi) / (2 * math.sqrt(ap.a))) / 3e160
        for relaxed in (False, True):
            objective = _objective(ap, relaxed)
            assert math.isfinite(objective(2.5e159))
            assert objective(-1e160) == pytest.approx(want, rel=1e-12, abs=0)
        assert aggregation_bound(ap, relaxed=False) <= aggregation_bound(ap, relaxed=True)

    def test_midpoint_evaluation_closed_form(self):
        # At t = C/(2K) the relaxed objective has the survival-function form
        # (2K/C) sqrt(2 pi / (2a)) * survival(sqrt(2a) C / (2K)).
        K, N, C = 4, 64, 40.0
        ap = AggregationParams.from_horizon(C, N, K)
        t = C / (2 * K)
        lhs = _objective(ap, relaxed=True)(t)
        rhs = (
            (2 * K / C)
            * math.sqrt(2 * math.pi / (2 * ap.a))
            * gaussian_survival(math.sqrt(2 * ap.a) * C / (2 * K))
        )
        assert lhs == pytest.approx(rhs, abs=1e-10)
        # independent quadrature of the same objective
        integral, err = quad(lambda x: math.exp(-ap.a * x * x), t, np.inf)
        assert lhs == pytest.approx(K * integral / (C - K * t), abs=1e-9)

    def test_from_horizon_rate(self):
        ap = AggregationParams.from_horizon(10.0, 64, 4)
        assert ap.a == 4 / 128

    def test_from_horizon_rate_follows_the_longest_chain(self):
        # N = 10, K = 4: the chains have 3, 3, 2 and 2 terms, so the rate is 1/6, not 4/20.
        assert AggregationParams.from_horizon(10.0, 10, 4).a == 1 / 6
        assert AggregationParams.from_horizon(10.0, 3, 5).a == 1 / 2

    def test_from_horizon_rate_keeps_its_bits_when_K_divides_N(self):
        # Criterion 4's full grid, N = K m.
        for K in (1, 2, 3, 4, 5):
            for m in (2, 4, 8, 16, 32):
                N = K * m
                a = AggregationParams.from_horizon(1.0, N, K).a
                assert a.hex() == (K / (2.0 * N)).hex(), (N, K)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            AggregationParams(C=-1.0, K=2, a=1.0)
        with pytest.raises(ValueError):
            AggregationParams(C=1.0, K=2, a=0.0)


class TestMidpointBound:
    def test_by_hand(self):
        assert midpoint_bound(2.0, 1, 1) == pytest.approx(math.exp(-0.5), rel=1e-14)

    def test_threshold_substitution_identity(self):
        # With C^2 = 16 K N ln(1/eps) the bound simplifies to eps^2/(4 ln(1/eps)).
        K, N, eps = 2, 50, 0.1
        C = 4.0 * math.sqrt(K * N * math.log(1 / eps))
        expected = eps * eps / (4 * math.log(1 / eps))
        assert midpoint_bound(C, K, N) == pytest.approx(expected, rel=1e-12)
        assert midpoint_bound(C, K, N) == pytest.approx(0.001085736204758130, rel=1e-12)

    def test_vanishes_for_large_deviations(self):
        vals = [midpoint_bound(C, 2, 10) for C in (10.0, 20.0, 50.0, 200.0, 1000.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-300 or vals[-1] < 1e-12

    def test_dominates_relaxed_objective_at_midpoint(self):
        for K, N, C in ((1, 8, 6.0), (2, 16, 10.0), (4, 64, 40.0)):
            ap = AggregationParams.from_horizon(C, N, K)
            assert midpoint_bound(C, K, N) > _objective(ap, relaxed=True)(C / (2 * K))

    def test_dominance_chain(self):
        for K in (1, 2, 3):
            for m in (2, 8, 32):
                N = K * m
                for r in (0.5, 1.0, 3.0):
                    C = r * math.sqrt(K * N)
                    ap = AggregationParams.from_horizon(C, N, K)
                    exact = aggregation_bound(ap, relaxed=False)
                    relaxed = aggregation_bound(ap, relaxed=True)
                    assert exact <= relaxed + 1e-9
                    assert relaxed <= midpoint_bound(C, K, N) + 1e-9


@pytest.mark.parametrize(
    "call",
    [
        lambda: midpoint_bound(math.nan, 1, 1),
        lambda: midpoint_bound(math.inf, 1, 1),
        lambda: AggregationParams.from_horizon(math.inf, 8, 2),
        lambda: AggregationParams(C=math.nan, K=2, a=1.0),
        lambda: AggregationParams(C=1.0, K=2, a=math.inf),
        lambda: AggregationParams(C=1.0, K=2, a=math.nan),
    ],
    ids=["midpoint-C-nan", "midpoint-C-inf", "from-horizon-C-inf", "aggregation-C-nan",
         "aggregation-a-inf", "aggregation-a-nan"],
)
def test_non_finite_inputs_fail_validation(call):
    # NaN slips past a bare "> 0" check, and infinity makes the bounds 0 or NaN
    with pytest.raises(ValueError, match="finite"):
        call()


class TestSuitableXCheck:
    def test_half(self):
        assert suitable_x_check(0.5, 2.0)  # 0.5 < 2 ln 2

    def test_brackets_the_cutoff(self):
        assert suitable_x_check(0.70, 2.0)
        assert not suitable_x_check(0.71, 2.0)

    @pytest.mark.parametrize("eps", [0.0, 1.0, math.nan])
    def test_rejects_epsilon_outside_the_open_unit_interval(self, eps):
        with pytest.raises(ValueError) as err:
            suitable_x_check(eps, 2.0)
        assert str(err.value) == f"epsilon must lie in (0, 1), got {eps!r}"

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_x(self, x):
        with pytest.raises(ValueError) as err:
            suitable_x_check(0.5, x)
        assert str(err.value) == f"x must be finite, got {x!r}"

    def test_equality_case_is_strict(self):
        # At eps = 1/e, x = 1: both sides equal 1, strict inequality fails.
        assert not suitable_x_check(math.exp(-1), 1.0)

    @given(st.floats(0.001, 0.699))
    @settings(max_examples=200)
    def test_holds_below_cutoff_with_x_two(self, eps):
        assert suitable_x_check(eps, 2.0)


class TestSubnormalEpsilon:
    @pytest.mark.parametrize("eps", [1e-310, 5e-324])
    def test_thresholds_are_finite(self, eps):
        p = HorizonParams(64, 1, eps)
        assert deviation_threshold(p) == 4.0 * math.sqrt(65 * -math.log(eps))
        assert math.isfinite(mv_threshold(p).threshold)
        assert math.isfinite(kr_threshold(p))
        assert suitable_x_check(eps, 2.0)

    @given(st.floats(2.3e-308, 0.699))
    @settings(max_examples=200)
    def test_normal_epsilon_keeps_its_bits(self, eps):
        p = HorizonParams(10, 2, eps)
        assert deviation_threshold(p) == 4.0 * math.sqrt(2 * 12 * math.log(1.0 / eps))


class TestThresholdCheck:
    def test_worked_instance(self):
        eps = math.exp(-1) / 15
        res = mv_threshold(HorizonParams(64, 1, eps))
        assert res.valid
        assert res.violations == ()
        assert res.threshold == pytest.approx(4.0, abs=1e-12)

    def test_non_integer_root_violation(self):
        res = mv_threshold(HorizonParams(64, 1, 0.05))
        assert not res.valid
        assert any("multiple of 4" in v for v in res.violations)

    def test_threshold_too_large_violation(self):
        res = mv_threshold(HorizonParams(8, 4, math.exp(-2) / 15))
        assert not res.valid
        assert res.threshold == pytest.approx(4.0, abs=1e-12)
        assert any("exceeds N/4" in v for v in res.violations)
        assert len(res.violations) >= 2  # the integrality condition fails too

    def test_rejects_large_epsilon(self):
        with pytest.raises(ValueError, match="15"):
            mv_threshold(HorizonParams(64, 1, 0.1))

    @given(st.integers(1, 4), st.integers(1, 8), st.integers(1, 8))
    @settings(max_examples=100)
    def test_threshold_is_twice_kt_on_constructed_instances(self, K, half_m, t8):
        # Build (N, K, eps) from integers m, t >= 1 so every validity
        # condition holds (t = 0 would need eps = 1/15, outside the domain).
        m = 8 * half_m
        t = min(t8, m // 8)
        eps = math.exp(-16.0 * t * t / m) / 15.0
        res = mv_threshold(HorizonParams(N=m * K, K=K, epsilon=eps))
        assert res.valid, res.violations
        assert res.threshold == pytest.approx(2.0 * K * t, abs=1e-6)


class TestKrThreshold:
    def test_frozen_value(self):
        got = kr_threshold(HorizonParams(100, 1, 0.01))
        assert got == pytest.approx(10.643119179939154, abs=1e-9)

    def test_vanishes_at_range_edge(self):
        eps = 1 / 4.3 - 1e-12
        assert kr_threshold(HorizonParams(100, 1, eps)) == pytest.approx(0.0, abs=1e-3)
        with pytest.raises(ValueError, match="4.3"):
            kr_threshold(HorizonParams(100, 1, 0.25))

    def test_dominates_basic_threshold_at_worked_instance(self):
        # At (N=64, K=1, eps=e^-1/15) the sharper constants give the larger
        # threshold: 7.1991 vs 4.0.  No pointwise ordering is claimed in
        # general; this records the comparison at one point.
        p = HorizonParams(64, 1, math.exp(-1) / 15)
        kr = kr_threshold(p)
        assert kr == pytest.approx(7.199096228721912, abs=1e-9)
        assert kr > mv_threshold(p).threshold

    @pytest.mark.parametrize("K", [1, 2, 3, 5])
    def test_block_process_reaches_it(self, K):
        # As a lower-bound threshold, the block process's exact upper tail at
        # kr_threshold is at least eps; the tightest point, tail/eps = 1.087,
        # is (K, m, eps) = (1, 2, 0.23).
        misses = [
            (m, eps)
            for m in range(2, 401)
            for eps in (0.001, 0.01, 0.05, 0.1, 0.2, 0.23)
            if block_deviation_tail(K * m, K, kr_threshold(HorizonParams(K * m, K, eps))) < eps
        ]
        assert misses == []


class TestMvLowerBound:
    def test_zero_deviation(self):
        assert mv_lower_bound(8, 0) == pytest.approx(1 / 15, rel=1e-14)

    def test_by_hand(self):
        got = mv_lower_bound(8, 1)
        assert got == pytest.approx(0.009022352215774179, rel=1e-12)

    def test_rejects_t_outside_range(self):
        with pytest.raises(ValueError, match=r"\[0, m/8\]"):
            mv_lower_bound(8, 2)
        with pytest.raises(ValueError, match=r"\[0, m/8\]"):
            mv_lower_bound(8, -1)

    def test_rejects_odd_m(self):
        with pytest.raises(ValueError, match="even"):
            mv_lower_bound(9, 1)


def _arrays(arrays) -> list:
    return [a.tolist() for a in arrays]


def _tree_lists(tree_and_seq) -> tuple:
    tree, seq = tree_and_seq
    return _arrays(tree.parents), _arrays(tree.branch_probs), _arrays(seq.values)


def _expected_losses(n, d):
    tree, _ = trees.random_tree(3, 2, seed=1)
    counts = tree.node_counts
    tables = tuple((np.full(counts[k + 1], 0.25), np.full(counts[k + 1], 0.5)) for k in (1, 2))
    loss = decision.LossSpec(decision.DecisionSpace(("a", "b")), 1, tables)
    return decision.expected_losses(tree, loss, n, d).tolist()


# Every public function that takes a count, size, lag or index: its integer arguments
# (named as its error messages name them) with valid values, and a call on them.
INTEGER_CALLS = {
    "HorizonParams": ({"N": 100, "K": 5}, lambda a: HorizonParams(a["N"], a["K"], 0.1)),
    "AggregationParams": ({"K": 3}, lambda a: AggregationParams(C=2.0, K=a["K"], a=0.25)),
    "from_horizon": (
        {"N": 100, "K": 3}, lambda a: AggregationParams.from_horizon(20.0, a["N"], a["K"])
    ),
    "midpoint_bound": ({"K": 3, "N": 100}, lambda a: midpoint_bound(20.0, a["K"], a["N"])),
    "mv_lower_bound": ({"m": 64, "t": 2}, lambda a: mv_lower_bound(a["m"], a["t"])),
    "binomial_upper_tail": (
        {"m": 100, "k0": 60}, lambda a: constructions.binomial_upper_tail(a["m"], a["k0"])
    ),
    "binomial_upper_tail_exact": (
        {"m": 10, "k0": 6}, lambda a: constructions.binomial_upper_tail_exact(a["m"], a["k0"])
    ),
    "imbalance_threshold": ({"m": 100}, lambda a: constructions.imbalance_threshold(a["m"])),
    "imbalance_prob": ({"m": 100}, lambda a: constructions.imbalance_prob(a["m"])),
    "min_imbalance_prob": ({"m_max": 50}, lambda a: constructions.min_imbalance_prob(a["m_max"])),
    "verify_mv_bound": ({"m_max": 16}, lambda a: constructions.verify_mv_bound(a["m_max"])),
    "block_deviation_tail": (
        {"N": 250, "K": 1}, lambda a: block_deviation_tail(a["N"], a["K"], 20.0)
    ),
    "sample_block_process": (
        {"N": 12, "K": 3}, lambda a: constructions.sample_block_process(a["N"], a["K"], seed=7)
    ),
    "block_deviation_sampler": (
        {"N": 200, "K": 2},
        lambda a: sampling.block_deviation_sampler(a["N"], a["K"])(7, np.arange(64)).tolist(),
    ),
    "block_process_tree": (
        {"N": 8, "K": 2}, lambda a: _tree_lists(trees.block_process_tree(a["N"], a["K"]))
    ),
    "random_tree": (
        {"depth": 3, "max_branching": 3},
        lambda a: _tree_lists(trees.random_tree(a["depth"], a["max_branching"], seed=1)),
    ),
    "deviation_per_leaf": (
        {"lag": 2},
        lambda a: trees.deviation_per_leaf(*trees.random_tree(3, 2, seed=1), a["lag"]).tolist(),
    ),
    "node_probabilities": (
        {"depth": 2},
        lambda a: trees.random_tree(3, 2, seed=1)[0].node_probabilities(a["depth"]).tolist(),
    ),
    "verify_deviation_bound": (
        {"lag": 2},
        lambda a: trees.verify_deviation_bound(*trees.random_tree(3, 2, seed=1), a["lag"], 0.1),
    ),
    "LossSpec": (
        {"impact horizon": 1},
        lambda a: decision.LossSpec(
            decision.DecisionSpace(("a",)), a["impact horizon"], ((np.full(4, 0.5),),)
        ).horizon,
    ),
    "expected_losses": (
        {"step n": 2, "decision index": 1},
        lambda a: _expected_losses(a["step n"], a["decision index"]),
    ),
    "clopper_pearson": (
        {"hits": 3, "trials": 10}, lambda a: sampling.clopper_pearson(a["hits"], a["trials"])
    ),
    "mc_tail": (
        {"trials": 200, "workers": 2},
        lambda a: sampling.mc_tail(
            sampling.block_deviation_sampler(8, 2), 2.0, sided="upper",
            trials=a["trials"], seed=3, workers=a["workers"],
        ),
    ),
}


class TestIntegerRule:
    """One rule for every integer argument: any Python or numpy integer, never a bool or float."""

    @pytest.mark.parametrize("name", INTEGER_CALLS)
    @pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint8])
    def test_numpy_integers_give_the_int_result(self, name, kind):
        # Unconverted, numpy integers made 2^m overflow: binomial tails of inf, an
        # exact tail dividing by 0, an OverflowError in block_deviation_tail at
        # uint8 and wrong block-sampler deviations at int32 and uint8.
        args, call = INTEGER_CALLS[name]
        expected = call(args)
        # repr: a numpy integer kept in a result would show, as would inf for a float.
        assert repr(call({k: kind(v) for k, v in args.items()})) == repr(expected)

    @pytest.mark.parametrize(
        "name, arg", [(name, arg) for name, (args, _) in INTEGER_CALLS.items() for arg in args]
    )
    @pytest.mark.parametrize("bad", [True, 2.0, np.float64(2.0), "2"], ids=repr)
    def test_refuses_a_non_integer_naming_the_argument(self, name, arg, bad):
        args, call = INTEGER_CALLS[name]
        with pytest.raises(ValueError) as err:
            call({**args, arg: bad})
        assert str(err.value).startswith(f"{arg} must be ")
        assert str(err.value).endswith(f", got {bad!r}")
