"""Block-sign lower-bound processes and exact fair-coin tail arithmetic.

The construction that nearly inverts the deviation bound is simple: draw
m = N/K independent fair signs and hold each one constant over a block of
K consecutive steps.  A forecaster looking K steps back never sees the
current block's sign, so every lagged conditional mean vanishes and the
cumulative deviation collapses to (2Z - m) K, where Z counts the +1 blocks.
Everything about the construction therefore reduces to exact fair-binomial
tail probabilities, which this module computes two ways: a float path good
to ~1e-13 relative up to m = 10^6, and an exact rational path for small m.
The float path starts from a pmf value (the correctly rounded integer ratio
C(m, k)/2^m for moderate m, 30-digit log-gamma beyond), runs the ratio
recurrence in blocks, drops each block's suffix once its terms fall below
2^-110 of the block's first (they cannot move the rounded sum), and totals
the rest with compensated summation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np

__all__ = [
    "BlockProcess",
    "MvAuditReport",
    "sample_block_process",
    "binomial_upper_tail",
    "binomial_upper_tail_exact",
    "imbalance_threshold",
    "imbalance_prob",
    "imbalance_prob_exact",
    "min_imbalance_prob",
    "deviation_count_threshold",
    "block_deviation_tail",
    "verify_mv_bound",
]

# Restart the pmf recurrence from a fresh high-precision value this often,
# so rounding cannot accumulate across long tails.
_RESTART = 4096

# Up to this m an exact integer pmf start, comb(m, k) / 2^m, costs less than
# the 30-digit log-gamma one (about equal near m = 1200 on CPython 3.11).
_COMB_MAX = 1200

# A recurrence block's terms below this fraction of its first term are cut:
# fewer than _RESTART of them add under 2^-98 of the tail, far below an ulp.
_NEGLIGIBLE = 2.0**-110

# Lattice snap for thresholds that are mathematically integral but arrive
# with floating-point dust (e.g. 0.5*sqrt(64*ln e) = 4 + 1 ulp).
_LATTICE_TOL = 1e-9


def _block_count(N: int, K: int) -> int:
    """m = N/K, the number of K-step blocks in N steps; K must divide N."""
    if N < 1 or K < 1 or N % K != 0:
        raise ValueError(f"need K | N with both positive, got N={N}, K={K}")
    return N // K


def _tail_event(C: float, sided: str):
    """The tail event {|S| >= C} (two_sided) or {S >= C} (upper) as a mask of S values.

    Raises for a non-finite threshold or an unknown side, before any tail work.
    """
    if sided not in ("two_sided", "upper"):
        raise ValueError(f"sided must be 'two_sided' or 'upper', got {sided!r}")
    if not math.isfinite(C):
        raise ValueError(f"threshold C must be finite, got {C!r}")
    if sided == "two_sided":
        return lambda s: np.abs(s) >= C
    return lambda s: s >= C


def _pmf_float(m: int, k: int) -> float:
    """P(Binomial(m, 1/2) = k) as a float.

    Correctly rounded from integers up to m = _COMB_MAX, and from a
    30-digit log-gamma value beyond.
    """
    if m <= _COMB_MAX:
        return math.comb(m, k) / (1 << m)
    with mpmath.workdps(30):
        lg = (
            mpmath.loggamma(m + 1)
            - mpmath.loggamma(k + 1)
            - mpmath.loggamma(m - k + 1)
            - m * mpmath.log(2)
        )
        return float(mpmath.e**lg)


def binomial_upper_tail(m: int, k0: int) -> float:
    """Exact P(Binomial(m, 1/2) >= k0) to ~1e-13 relative error for m <= 10^6.

    The tail is summed in the decreasing direction starting from a
    high-precision pmf value, advancing by the exact ratio recurrence
    pmf(k+1) = pmf(k) (m-k)/(k+1) and totalled with compensated summation;
    a block's suffix below 2^-110 of its first term is left out.
    k0 may lie outside [0, m]; the lower half is handled through the
    symmetry complement so the summed tail is always the short one.
    """
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m!r}")
    if k0 <= 0:
        return 1.0
    if k0 > m:
        return 0.0
    if 2 * k0 <= m:
        # P(>= k0) = 1 - P(<= k0-1) = 1 - P(>= m-k0+1) by coin symmetry.
        return 1.0 - binomial_upper_tail(m, m - k0 + 1)

    term = _pmf_float(m, k0)
    if term == 0.0:
        return 0.0
    pieces = [term]
    total = term
    k = k0
    while k < m:
        hi = min(m, k + _RESTART)
        ks = np.arange(k, hi, dtype=np.float64)
        block = term * np.cumprod((m - ks) / (ks + 1.0))
        total += float(block.sum())
        term = float(block[-1])
        cut = block[0] * _NEGLIGIBLE
        # The terms decrease, so the kept ones are a prefix; a cut block's
        # last term is below total * 1e-18, so the stop below ends the loop.
        keep = block if term >= cut else block[: np.count_nonzero(block >= cut)]
        pieces.extend(keep.tolist())
        k = hi
        if term < total * 1e-18:
            break
        term = _pmf_float(m, k)  # restart to cap rounding accumulation
        pieces[-1] = term
    return math.fsum(pieces)


def binomial_upper_tail_exact(m: int, k0: int) -> Fraction:
    """Exact rational P(Binomial(m, 1/2) >= k0); intended for small m."""
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m!r}")
    if k0 <= 0:
        return Fraction(1)
    if k0 > m:
        return Fraction(0)
    return Fraction(sum(math.comb(m, k) for k in range(k0, m + 1)), 1 << m)


@dataclass(frozen=True)
class BlockProcess:
    """One sampled block-sign path: N steps, K-step blocks, values in {-1, +1}."""

    N: int
    K: int
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        _block_count(self.N, self.K)
        if len(self.values) != self.N:
            raise ValueError(f"expected {self.N} values, got {len(self.values)}")
        if any(v not in (-1, 1) for v in self.values):
            raise ValueError("values must be -1 or +1")
        for n in range(self.N):
            if self.values[n] != self.values[(n // self.K) * self.K]:
                raise ValueError(f"value at step {n + 1} differs within its block")

    @property
    def m(self) -> int:
        """Number of blocks."""
        return self.N // self.K

    def deviation(self) -> int:
        """Cumulative deviation sum(values) = (2Z - m) K for Z = #(+1 blocks)."""
        return sum(self.values)


def sample_block_process(N: int, K: int, seed: int) -> BlockProcess:
    """Draw m = N/K independent fair signs and expand them into K-step blocks."""
    rng = np.random.default_rng(seed)
    signs = 2 * rng.integers(0, 2, size=_block_count(N, K)) - 1
    return BlockProcess(N=N, K=K, values=tuple(int(s) for s in np.repeat(signs, K)))


def imbalance_threshold(m: int) -> int:
    """Smallest count k0 such that 2 k0 - m >= sqrt(m), computed exactly."""
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m!r}")
    s = math.isqrt(m)
    # For non-square m the integer 2k-m clears sqrt(m) iff it clears s+1.
    root_ceil = s if s * s == m else s + 1
    return (m + root_ceil + 1) // 2


def imbalance_prob(m: int) -> float:
    """P(sign imbalance of m fair signs >= sqrt(m)) = P(Z >= ceil((m+sqrt m)/2))."""
    return binomial_upper_tail(m, imbalance_threshold(m))


def imbalance_prob_exact(m: int) -> Fraction:
    """Rational-arithmetic version of `imbalance_prob` for small m."""
    return binomial_upper_tail_exact(m, imbalance_threshold(m))


def min_imbalance_prob(m_max: int) -> tuple[int, float]:
    """Exhaustive minimum of `imbalance_prob` over 1 <= m <= m_max.

    The minimum is 7/64, attained at m = 6; the limit as m grows is the
    Gaussian survival value at 1 (about 0.1587).
    """
    if m_max < 6:
        raise ValueError(f"m_max must be at least 6, got {m_max!r}")
    best_m, best_p = 1, imbalance_prob(1)
    for m in range(2, m_max + 1):
        p = imbalance_prob(m)
        if p < best_p:
            best_m, best_p = m, p
    return best_m, best_p


def deviation_count_threshold(m: int, C: float, K: int) -> int:
    """Smallest k0 with (2 k0 - m) K >= C, snapping near-integer boundaries.

    The deviation of a block process lives on the lattice {(2j - m) K}; the
    event {S >= C} is the event {Z >= k0} for this k0.  A C at most 1e-9
    above a lattice point counts that point, whatever K is, which keeps
    exactly-constructed thresholds (which arrive with float dust) on their
    intended lattice point.
    """
    x = (m + C / K) / 2.0
    return max(0, math.ceil(x - _LATTICE_TOL / (2 * K)))


def block_deviation_tail(N: int, K: int, C: float, sided: str = "upper") -> float:
    """Exact P(S >= C) (upper) or P(|S| >= C) (two_sided) for the block process.

    The lagged conditional means vanish (each block's sign is revealed
    strictly after every step that forecasts it from K steps back), so the
    deviation S equals (2Z - m) K and the tail is a fair-binomial tail.  By
    coin symmetry P(S <= -C) = P(Z >= k0), the upper tail's count, and the
    two events are disjoint unless 2 k0 - m <= 0, where {|S| >= C} is sure.
    """
    _tail_event(C, sided)  # rejects a non-finite C or an unknown side
    m = _block_count(N, K)
    k0 = deviation_count_threshold(m, C, K)
    if sided == "upper":
        return binomial_upper_tail(m, k0)
    return 1.0 if 2 * k0 - m <= 0 else 2.0 * binomial_upper_tail(m, k0)


@dataclass(frozen=True)
class MvAuditReport:
    """Result of auditing the binomial lower bound against exact tails."""

    m_max: int
    pairs_checked: int
    violations: tuple[tuple[int, int], ...]
    min_slack: float
    min_slack_at: tuple[int, int]

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_mv_bound(m_max: int) -> MvAuditReport:
    """Check P(Z >= m/2 + t) >= (1/15) exp(-16 t^2/m) on its whole domain.

    Scans every even m <= m_max and every integer t in [0, m/8].  Any
    violation would falsify the lower-bound constant pair (1/15, 16), so
    violations are collected rather than raised; `ok` reports the verdict.
    """
    from .bounds import LowerBoundParams, mv_lower_bound

    if m_max < 8:
        raise ValueError(f"m_max must be at least 8, got {m_max!r}")
    violations = []
    min_slack = math.inf
    min_at = (0, 0)
    checked = 0
    for m in range(2, m_max + 1, 2):
        for t in range(0, m // 8 + 1):
            tail = binomial_upper_tail(m, m // 2 + t)
            lower = mv_lower_bound(LowerBoundParams(m=m, t=t))
            slack = tail - lower
            checked += 1
            if slack < min_slack:
                min_slack, min_at = slack, (m, t)
            if slack < 0:
                violations.append((m, t))
    return MvAuditReport(
        m_max=m_max,
        pairs_checked=checked,
        violations=tuple(violations),
        min_slack=min_slack,
        min_slack_at=min_at,
    )
