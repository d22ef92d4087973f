"""Closed-form thresholds and tail bounds for lagged forecast deviations.

Everything here is a pure function of its arguments.  The central object is
the deviation statistic S = sum_{n=1}^N (Y_n - E(Y_n | F_{n-K})) for a
sequence bounded by 1, whose upper tail is controlled by

    P(|S| >= 4 sqrt(K (N+K) ln(1/eps))) < eps        for eps in (0, 0.7),

and nearly matched from below by block-sign constructions (see the
`constructions` module).  The proof route goes worst-case-dependence
aggregation of the marginal Hoeffding tails of K interleaved sums (rate
1/(2 ceil(N/K)), which is K/(2N) when K divides N, set in
`AggregationParams.from_horizon`) -> a Gaussian survival
bound -> the epsilon-cutoff condition.  The links are `aggregation_bound`,
the infimum of the private objective `_objective`, then `gaussian_survival`,
`midpoint_bound` and `suitable_x_check`.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

__all__ = [
    "EPSILON_CUTOFF",
    "HorizonParams",
    "AggregationParams",
    "ThresholdCheck",
    "deviation_threshold",
    "gaussian_survival",
    "aggregation_bound",
    "midpoint_bound",
    "suitable_x_check",
    "mv_threshold",
    "kr_threshold",
    "mv_lower_bound",
    "dominance_rows",
]

#: Upper end of the epsilon range on which the main threshold is valid.
#: It is where eps < 2 ln(1/eps) stops holding (between 0.70 and 0.71),
#: which is exactly what discharges the final step of the bound.
EPSILON_CUTOFF = 0.7


def _integer(name: str, x, lo: float = 1, hi: float = math.inf) -> int:
    """x as a Python int if it is a Python or numpy integer in [lo, hi], else a ValueError.

    A bool or a float (even 2.0) is refused.  The message names the argument and
    the limit failed.  A Python int costs one type test and one chained comparison.
    """
    if type(x) is int:
        if lo <= x <= hi:
            return x
    elif isinstance(x, numbers.Integral) and not isinstance(x, bool):
        return _integer(name, int(x), lo, hi)
    if lo == 1 and hi == math.inf:
        raise ValueError(f"{name} must be a positive integer, got {x!r}")
    limit = "an integer" if type(x) is not int else f"at least {lo}" if x < lo else f"at most {hi}"
    raise ValueError(f"{name} must be {limit}, got {x!r}")


@dataclass(frozen=True)
class HorizonParams:
    """Problem size triple: N steps, prediction horizon K, tail budget epsilon."""

    N: int
    K: int
    epsilon: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "N", _integer("N", self.N))
        object.__setattr__(self, "K", _integer("K", self.K))
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon!r}")


@dataclass(frozen=True)
class AggregationParams:
    """Sub-Gaussian aggregation setup: K summands with P(X >= x) = exp(-a x^2).

    When derived from a horizon problem the rate is a = 1/(2 ceil(N/K)), the
    Hoeffding rate of the longest of the K interleaved partial sums.
    """

    C: float
    K: int
    a: float

    def __post_init__(self) -> None:
        if not 0 < self.C < math.inf:
            raise ValueError(f"deviation level C must be positive and finite, got {self.C!r}")
        object.__setattr__(self, "K", _integer("K", self.K))
        if not 0 < self.a < math.inf:
            raise ValueError(f"rate a must be positive and finite, got {self.a!r}")

    @classmethod
    def from_horizon(cls, C: float, N: int, K: int) -> "AggregationParams":
        """Aggregation parameters for an N-step problem: a = 1/(2 ceil(N/K)).

        Each of the K interleaved sums has at most ceil(N/K) increments
        bounded by 2 in magnitude, so Hoeffding gives its tail
        exp(-x^2 / (2 ceil(N/K))).  When K divides N the rate is K/(2N), and
        the double is the same as `K / (2.0 * N)`'s: both are one correctly
        rounded quotient of the same rational.
        """
        N, K = _integer("N", N), _integer("K", K)
        return cls(C=C, K=K, a=1 / (2 * -(-N // K)))


@dataclass(frozen=True)
class ThresholdCheck:
    """Inverse-bound threshold with its applicability verdict."""

    threshold: float
    violations: tuple[str, ...]

    @property
    def valid(self) -> bool:
        return not self.violations


def _log_inverse(x: float) -> float:
    """ln(1/x) for x in (0, 1), finite also for subnormal x, where 1/x overflows."""
    return math.log(1.0 / x) if x >= sys.float_info.min else -math.log(x)


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
    return 4.0 * math.sqrt(p.K * (p.N + p.K) * _log_inverse(p.epsilon))


def gaussian_survival(z: float) -> float:
    """Standard Gaussian survival function, accurate to ~1e-15 absolute."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


# Below s u = 1/16 (s = sqrt(a), u the upper limit) erfc(s t) - erfc(s u) cancels, both
# near 1; criterion-4-shaped grids (N = K m, C = r sqrt(K N)) have s u > r/sqrt 2 >= 0.177.
_SERIES_MAX = 1.0 / 16.0
_SERIES = tuple((-1) ** n / (math.factorial(n) * (2 * n + 1)) for n in range(6))


def _objective(ap: AggregationParams, relaxed: bool):
    """t -> K int_t^u min(1, exp(-a x^2)) dx / (C - K t) for t < C/K, s and w computed once.

    The integrand is the marginal survival bound clipped at 1, since no survival function
    exceeds 1; u is C - (K-1) t, or infinity when relaxed.  For y = s u >= `_SERIES_MAX`
    (s = sqrt(a)) the integral above 0 is w (erfc(x) - erfc(y)), x = s max(t, 0),
    w = sqrt(pi/(4a)); erfc(0) = 1 and erfc(inf) = 0 are not called.  Below, it is
    (u - max(t, 0)) sum_n (-1)^n h_2n / (n! (2n+1)), h_k = sum_j x^j y^(k-j), the terms past
    n = 5 below 1e-17 relative; for t >= 0 that factor is C - K t, so nothing cancels.
    """
    C, K, K1 = ap.C, ap.K, ap.K - 1
    s, w = math.sqrt(ap.a), math.sqrt(math.pi / (4.0 * ap.a))

    def f(t: float) -> float:
        u = math.inf if relaxed else C - K1 * t
        if s * u < _SERIES_MAX:
            x, y, h, total = s * max(t, 0.0), s * u, 1.0, 0.0
            for n, c in enumerate(_SERIES):  # h = h_2n, and h_2n+2 = y^2 h_2n + x^(2n+1) (x + y)
                total, h = total + c * h, y * y * h + x ** (2 * n + 1) * (x + y)
            return K * total if t >= 0 else K * (u * total - t) / (C - K * t)
        tail = (math.erfc(s * t) if t > 0 else 1.0) - (0.0 if relaxed else math.erfc(s * u))
        return K * (w * tail if t > 0 else -t + w * tail) / (C - K * t)

    return f


def _golden_section(f, a: float, b: float) -> float:
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
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
    return f(0.5 * (a + b))


def aggregation_bound(ap: AggregationParams, relaxed: bool = False) -> float:
    """Infimum of the objective `_objective` over t < C/K, clamped to [exp(-a (C/K)^2), 1].

    This is the dual bound of Embrechts & Puccetti (Finance Stoch. 2006) on
    P(X_1 + ... + X_K >= C) over all dependence structures of K summands with
    survival min(1, exp(-a x^2)): sharp at K = 2 (Makarov 1981), and at K = 1
    the marginal tail exp(-a C^2) to within 1e-12.  It is never below the
    comonotone tail exp(-a (C/K)^2), which every objective value bounds.  The
    search on [-C, C/K - delta], delta = 1e-5 C/K, takes a uniform grid, a
    geometric ladder towards C/K and t = C/(2K), then golden-section between the
    best point's neighbours.  The limit K exp(-a (C/K)^2) as t -> C/K, not
    attained, is taken in closed form, since closer to C/K than delta the
    error-function difference loses most of its digits.
    """
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

    objective = _objective(ap, relaxed)
    values = [objective(t) for t in candidates]
    best = min(range(len(values)), key=values.__getitem__)
    lo, hi = candidates[max(best - 1, 0)], candidates[min(best + 1, len(candidates) - 1)]
    value = min(values[best], _golden_section(objective, lo, hi))
    comonotone = math.exp(-ap.a * T * T)
    if not relaxed:
        value = min(value, ap.K * comonotone)
    return min(1.0, max(comonotone, value))


def midpoint_bound(C: float, K: int, N: int) -> float:
    """Closed-form bound (4KN/C^2) exp(-C^2/(8KN)).

    This is the relaxed aggregation objective at the midpoint t = C/(2K)
    with rate a = K/(2N), further relaxed through Feller's bound
    phi(z)/z on the Gaussian survival function; it
    dominates `aggregation_bound(relaxed=True)` at that rate, which is the
    rate `AggregationParams.from_horizon` gives when K divides N.
    """
    if not 0 < C < math.inf:
        raise ValueError(f"C must be positive and finite, got {C!r}")
    N, K = _integer("N", N), _integer("K", K)
    q = C * C / (K * N)
    return (4.0 / q) * math.exp(-q / 8.0)


def suitable_x_check(epsilon: float, x: float) -> bool:
    """Whether eps^(x-1) < x ln(1/eps), the condition that closes the bound.

    With x = 2 this holds exactly for eps below the 0.7 cutoff, which is
    where the threshold's epsilon range comes from.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    return epsilon ** (x - 1.0) < x * _log_inverse(epsilon)


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
    log_term = _log_inverse(15.0 * p.epsilon)
    threshold = 0.5 * math.sqrt(p.K * p.N * log_term)

    violations = []
    if p.N % p.K != 0 or (p.N // p.K) % 2 != 0:
        violations.append("block count N/K is not an even integer")
    root = math.sqrt((p.N / p.K) * log_term)
    if abs(root - round(root)) > _INTEGER_TOL or round(root) % 4 != 0:
        violations.append("sqrt(m ln(1/(15 eps))) is not an integer multiple of 4")
    if threshold > p.N / 4.0 + _INTEGER_TOL:
        violations.append("threshold exceeds N/4")

    return ThresholdCheck(threshold=threshold, violations=tuple(violations))


def kr_threshold(p: HorizonParams) -> float:
    """Sharper inverse-bound threshold 0.6 sqrt(K N ln(1/(4.3 eps)))."""
    if 4.3 * p.epsilon >= 1.0:
        raise ValueError(
            f"requires 4.3*epsilon < 1 (log argument positive), got epsilon={p.epsilon!r}"
        )
    return 0.6 * math.sqrt(p.K * p.N * _log_inverse(4.3 * p.epsilon))


def mv_lower_bound(m: int, t: int) -> float:
    """Binomial large-deviation lower bound (1/15) exp(-16 t^2 / m).

    Valid for even m and integer t in [0, m/8]; P(Z >= m/2 + t) is at
    least this value for Z ~ Binomial(m, 1/2).
    """
    m, t = _integer("m", m), _integer("t", t, lo=-math.inf)
    if m % 2 != 0:
        raise ValueError(f"m must be even, got {m}")
    if t < 0 or 8 * t > m:
        raise ValueError(f"t must lie in [0, m/8] = [0, {m / 8}], got {t}")
    return math.exp(-16.0 * t * t / m) / 15.0


def dominance_rows(ks, ms, ratios) -> list[dict]:
    """One row per grid point: the exact <= relaxed <= midpoint chain at N = K m, C = r sqrt(K N)."""
    rows = []
    for K in ks:
        for m in ms:
            N = K * m
            for r in ratios:
                C = r * math.sqrt(K * N)
                ap = AggregationParams.from_horizon(C, N, K)
                exact = aggregation_bound(ap, relaxed=False)
                relaxed = aggregation_bound(ap, relaxed=True)
                mid = midpoint_bound(C, K, N)
                rows.append(
                    {
                        "N": N, "K": K, "C": C, "a": ap.a,
                        "exact": exact, "relaxed": relaxed, "midpoint": mid,
                        "chain_ok": exact <= relaxed + 1e-9 and relaxed <= mid + 1e-9,
                    }
                )
    return rows
