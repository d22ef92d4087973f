"""Closed-form thresholds and tail bounds for lagged forecast deviations.

Everything here is a pure function of its arguments.  The central object is
the deviation statistic S = sum_{n=1}^N (Y_n - E(Y_n | F_{n-K})) for a
sequence bounded by 1, whose upper tail is controlled by

    P(|S| >= 4 sqrt(K (N+K) ln(1/eps))) < eps        for eps in (0, 0.7),

and nearly matched from below by block-sign constructions (see the
`constructions` module).  The proof route goes marginal Hoeffding tails ->
worst-case-dependence aggregation of K interleaved sums -> a Gaussian
survival bound, and each link in that chain is exposed as its own function
so it can be checked numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "EPSILON_CUTOFF",
    "HorizonParams",
    "AggregationParams",
    "LowerBoundParams",
    "ThresholdCheck",
    "deviation_threshold",
    "hoeffding_marginal_tail",
    "gaussian_survival",
    "feller_upper",
    "aggregation_objective",
    "aggregation_bound",
    "midpoint_bound",
    "suitable_x_check",
    "coefficient_feasible",
    "mv_threshold",
    "kr_threshold",
    "mv_lower_bound",
]

SQRT_2PI = math.sqrt(2.0 * math.pi)

#: Upper end of the epsilon range on which the main threshold is valid.
#: It is where eps < 2 ln(1/eps) stops holding (between 0.70 and 0.71),
#: which is exactly what discharges the final step of the bound.
EPSILON_CUTOFF = 0.7


@dataclass(frozen=True)
class HorizonParams:
    """Problem size triple: N steps, prediction horizon K, tail budget epsilon."""

    N: int
    K: int
    epsilon: float

    def __post_init__(self) -> None:
        if not isinstance(self.N, int) or self.N < 1:
            raise ValueError(f"N must be a positive integer, got {self.N!r}")
        if not isinstance(self.K, int) or self.K < 1:
            raise ValueError(f"K must be a positive integer, got {self.K!r}")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon!r}")


@dataclass(frozen=True)
class AggregationParams:
    """Sub-Gaussian aggregation setup: K summands with P(X >= x) = exp(-a x^2).

    When derived from a horizon problem the rate is a = K/(2N), the Hoeffding
    rate of each of the K interleaved partial sums.
    """

    C: float
    K: int
    a: float

    def __post_init__(self) -> None:
        if not self.C > 0:
            raise ValueError(f"deviation level C must be positive, got {self.C!r}")
        if not isinstance(self.K, int) or self.K < 1:
            raise ValueError(f"K must be a positive integer, got {self.K!r}")
        if not self.a > 0:
            raise ValueError(f"rate a must be positive, got {self.a!r}")

    @classmethod
    def from_horizon(cls, C: float, N: int, K: int) -> "AggregationParams":
        """Aggregation parameters for an N-step problem: a = K/(2N) exactly."""
        if N < 1 or K < 1:
            raise ValueError("N and K must be positive integers")
        return cls(C=C, K=K, a=K / (2.0 * N))


@dataclass(frozen=True)
class LowerBoundParams:
    """Binomial large-deviation lower bound inputs: m fair signs, deviation t."""

    m: int
    t: int


@dataclass(frozen=True)
class ThresholdCheck:
    """Inverse-bound threshold with its applicability verdict."""

    threshold: float
    valid: bool
    violations: tuple[str, ...]


def deviation_threshold(p: HorizonParams) -> float:
    """Deviation level 4 sqrt(K (N+K) ln(1/eps)) whose two-sided tail is < eps.

    The one-sided tail at the same level is < eps/2.  Only valid for
    epsilon below EPSILON_CUTOFF; larger budgets are rejected.
    """
    if not 0.0 < p.epsilon < EPSILON_CUTOFF:
        raise ValueError(
            "epsilon must lie in (0, 0.7) for the upper-bound threshold, "
            f"got {p.epsilon!r}"
        )
    return 4.0 * math.sqrt(p.K * (p.N + p.K) * math.log(1.0 / p.epsilon))


def hoeffding_marginal_tail(C: float, N: int, K: int) -> float:
    """Hoeffding tail exp(-C^2 K / (2N)) of one interleaved sum of N/K terms.

    Each of the K interleaved sums has N/K increments bounded by 2 in
    magnitude, hence the sub-Gaussian rate K/(2N).  Requires K | N; callers
    with ragged N round up to ceil(N/K)*K first (the (N+K) factor in
    `deviation_threshold` absorbs that rounding once and for all).
    Nonpositive C yields the vacuous bound 1.
    """
    if N < 1 or K < 1:
        raise ValueError("N and K must be positive integers")
    if N % K != 0:
        raise ValueError(f"N must be divisible by K at this level, got N={N}, K={K}")
    if C <= 0:
        return 1.0
    return min(1.0, math.exp(-C * C * K / (2.0 * N)))


def gaussian_survival(z: float) -> float:
    """Standard Gaussian survival function, accurate to ~1e-15 absolute."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def feller_upper(z: float) -> float:
    """Classic upper bound phi(z)/z for the Gaussian survival function, z > 0."""
    if z <= 0:
        raise ValueError(f"z must be positive, got {z!r}")
    return math.exp(-0.5 * z * z) / (z * SQRT_2PI)


def _survival_integral(a: float, lo: float, hi: float) -> float:
    """Closed form of int_lo^hi min(1, exp(-a x^2)) dx, for lo < hi and hi > 0.

    The part of [lo, hi] below 0 contributes its length.  Above 0 the
    difference of complementary error functions keeps deep tails from
    cancelling to 0, as a difference of error functions would.  hi may be
    infinite.
    """
    s = math.sqrt(a)
    tail = math.erfc(s * max(lo, 0.0)) - math.erfc(s * hi)
    return max(0.0, -lo) + math.sqrt(math.pi / (4.0 * a)) * tail


def aggregation_objective(ap: AggregationParams, t: float, relaxed: bool = False) -> float:
    """Worst-case-dependence objective K * int_t^u min(1, exp(-a x^2)) dx / (C - K t).

    The integrand is the marginal survival bound clipped at 1, since no
    survival function exceeds 1; it equals exp(-a x^2) for x >= 0.  The
    upper limit u is C - (K-1) t, or infinity under the relaxed flag.
    Defined for t < C/K.
    """
    if t >= ap.C / ap.K:
        raise ValueError(f"t must be below C/K = {ap.C / ap.K!r}, got {t!r}")
    hi = math.inf if relaxed else ap.C - (ap.K - 1) * t
    return ap.K * _survival_integral(ap.a, t, hi) / (ap.C - ap.K * t)


def _golden_section(f, lo: float, hi: float, iterations: int = 60) -> tuple[float, float]:
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iterations):
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
    x = 0.5 * (a + b)
    return x, f(x)


def aggregation_bound(ap: AggregationParams, relaxed: bool = False) -> float:
    """Infimum of `aggregation_objective` over t in (-inf, C/K), clamped to [0, 1].

    This is the dual bound of Embrechts & Puccetti (Finance Stoch. 2006) on
    P(X_1 + ... + X_K >= C) over all dependence structures of K summands
    with survival min(1, exp(-a x^2)); at K = 2 it is sharp (Makarov 1981).
    The search runs on [-C, C/K - delta] with delta = 1e-5 * C/K: a coarse
    uniform grid plus a geometric ladder of points approaching C/K from
    below, always including the midpoint t = C/(2K).  The best grid point
    is then refined by golden-section between its neighbours.  The exact
    objective tends to K exp(-a (C/K)^2) as t -> C/K, a limit that is not
    attained; it is taken in closed form, since closer to C/K than delta
    the error-function difference loses most of its digits.
    """
    T = ap.C / ap.K
    delta = 1e-5 * T
    left = -ap.C
    candidates = [left + (T - delta - left) * i / 48.0 for i in range(49)]
    gap = T - left
    while gap > delta:
        gap *= 0.5
        candidates.append(T - gap)
    candidates.append(T - delta)
    candidates.append(ap.C / (2.0 * ap.K))
    candidates = sorted(set(c for c in candidates if left <= c <= T - delta))

    values = [aggregation_objective(ap, t, relaxed) for t in candidates]
    best = min(range(len(values)), key=values.__getitem__)
    lo = candidates[max(best - 1, 0)]
    hi = candidates[min(best + 1, len(candidates) - 1)]
    _, refined = _golden_section(lambda t: aggregation_objective(ap, t, relaxed), lo, hi)
    value = min(values[best], refined)
    if not relaxed:
        value = min(value, ap.K * math.exp(-ap.a * T * T))
    return min(1.0, max(0.0, value))


def midpoint_bound(C: float, K: int, N: int) -> float:
    """Closed-form bound (4KN/C^2) exp(-C^2/(8KN)).

    This is the relaxed aggregation objective at the midpoint t = C/(2K)
    with rate a = K/(2N), further relaxed through `feller_upper`; it
    dominates `aggregation_bound(relaxed=True)` for those parameters.
    """
    if C <= 0:
        raise ValueError(f"C must be positive, got {C!r}")
    if N < 1 or K < 1:
        raise ValueError("N and K must be positive integers")
    q = C * C / (K * N)
    return (4.0 / q) * math.exp(-q / 8.0)


def suitable_x_check(epsilon: float, x: float) -> bool:
    """Whether eps^(x-1) < x ln(1/eps), the condition that closes the bound.

    With x = 2 this holds exactly for eps below the 0.7 cutoff, which is
    where the threshold's epsilon range comes from.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    return epsilon ** (x - 1.0) < x * math.log(1.0 / epsilon)


def coefficient_feasible(c: float, epsilon: float) -> bool:
    """Dimension-free sufficient check that coefficient c works at budget eps.

    True iff 8 eps^(c^2/8 - 1) < c^2 ln(1/eps), which is equivalent to
    `midpoint_bound` evaluated at C = c sqrt(K N ln(1/eps)) being below
    eps/2 for every K and N.  Note this sufficient condition alone does
    not certify coefficients near sqrt(2) on any epsilon range; it is a
    feasibility checker, not a sharpness result.
    """
    if c <= 0:
        raise ValueError(f"c must be positive, got {c!r}")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    q = c * c / 8.0
    return 8.0 * epsilon ** (q - 1.0) < c * c * math.log(1.0 / epsilon)


#: Tolerance for deciding that a floating-point quantity is an exact integer
#: when checking the inverse-bound applicability conditions.
_INTEGER_TOL = 1e-9


def mv_threshold(p: HorizonParams) -> ThresholdCheck:
    """Inverse-bound threshold 0.5 sqrt(K N ln(1/(15 eps))) with validity check.

    The block-sign construction attains tail probability >= eps at this
    threshold provided: the block count m = N/K is an even integer,
    sqrt(m ln(1/(15 eps))) is an integer multiple of 4 (so the binomial
    deviation t is an integer), and the threshold does not exceed N/4.
    All failed conditions are reported in `violations`.
    """
    if 15.0 * p.epsilon >= 1.0:
        raise ValueError(
            f"requires 15*epsilon < 1 (log argument positive), got epsilon={p.epsilon!r}"
        )
    log_term = math.log(1.0 / (15.0 * p.epsilon))
    threshold = 0.5 * math.sqrt(p.K * p.N * log_term)

    violations = []
    if p.N % p.K != 0 or (p.N // p.K) % 2 != 0:
        violations.append("block count N/K is not an even integer")
    root = math.sqrt((p.N / p.K) * log_term)
    if abs(root - round(root)) > _INTEGER_TOL or round(root) % 4 != 0:
        violations.append("sqrt(m ln(1/(15 eps))) is not an integer multiple of 4")
    if threshold > p.N / 4.0 + _INTEGER_TOL:
        violations.append("threshold exceeds N/4")

    return ThresholdCheck(threshold=threshold, valid=not violations, violations=tuple(violations))


def kr_threshold(p: HorizonParams) -> float:
    """Sharper inverse-bound threshold 0.6 sqrt(K N ln(1/(4.3 eps)))."""
    if 4.3 * p.epsilon >= 1.0:
        raise ValueError(
            f"requires 4.3*epsilon < 1 (log argument positive), got epsilon={p.epsilon!r}"
        )
    return 0.6 * math.sqrt(p.K * p.N * math.log(1.0 / (4.3 * p.epsilon)))


def mv_lower_bound(lb: LowerBoundParams) -> float:
    """Binomial large-deviation lower bound (1/15) exp(-16 t^2 / m).

    Valid for even m and integer t in [0, m/8]; P(Z >= m/2 + t) is at
    least this value for Z ~ Binomial(m, 1/2).
    """
    if not isinstance(lb.m, int) or lb.m < 1:
        raise ValueError(f"m must be a positive integer, got {lb.m!r}")
    if lb.m % 2 != 0:
        raise ValueError(f"m must be even, got {lb.m}")
    if not isinstance(lb.t, int):
        raise ValueError(f"t must be an integer, got {lb.t!r}")
    if lb.t < 0 or 8 * lb.t > lb.m:
        raise ValueError(f"t must lie in [0, m/8] = [0, {lb.m / 8}], got {lb.t}")
    return math.exp(-16.0 * lb.t * lb.t / lb.m) / 15.0
