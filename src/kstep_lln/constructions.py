"""Block-sign lower-bound processes and exact fair-coin tail arithmetic.

The construction that nearly inverts the deviation bound is simple: draw
m = N/K independent fair signs and hold each one constant over a block of
K consecutive steps.  A forecaster looking K steps back never sees the
current block's sign, so every lagged conditional mean vanishes and the
cumulative deviation collapses to (2Z - m) K, where Z counts the +1 blocks.
Everything about the construction therefore reduces to exact fair-binomial
tail probabilities, which this module computes three ways: a float path for
single tails, good to ~1e-13 relative up to m = 10^6 and refused above
m = 10^9 (its window grows as sqrt(m); a central tail at 10^9 peaks at
4.6 MB); for one m (the `*_exact` functions and `verify_mv_bound`), exact
integer tail counts from one walk down from k = m, `_tail_counts`; and,
for the scans over a whole family of m (`_imbalance_probs`), exact counts
carried from one m to the next by Pascal's rule.  An exact tail is then
the count over 2^m, as a Fraction or as one correctly rounded division.

The float path starts once, from a pmf value: the correctly rounded integer
ratio C(m, k)/2^m for moderate m or a short side of at most 64, and beyond
that Loader's saddle-point decomposition in 128-bit fixed-point integers,
rounded once to the float the integer ratio gives.  It runs the ratio
recurrence over at most 6 isqrt(m) + 7 terms, past which no term can move
the rounded sum, and totals them to the correctly rounded sum by
`_exact_sum`: an exact split of each term, two numpy sums and an error
bound that certifies the rounding, with `math.fsum` where it cannot.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bounds import _integer, mv_lower_bound

__all__ = [
    "MvAuditReport",
    "sample_block_process",
    "binomial_upper_tail",
    "binomial_upper_tail_exact",
    "imbalance_threshold",
    "imbalance_prob",
    "imbalance_prob_exact",
    "min_imbalance_prob",
    "block_deviation_tail",
    "verify_mv_bound",
]

# Up to this m, or while k or m - k is at most 64, the pmf start is the
# integer ratio comb(m, k) / 2^m; beyond, the fixed-point one.  The two cost
# about the same, 15 us, for central k at m = 600 on CPython 3.11.
_COMB_MAX = 600

# Largest m `binomial_upper_tail` takes: its window grows as sqrt(m).
_TAIL_M_MAX = 10**9

# Largest m of an exact tail, and m_max of the exact scans; their work grows as
# m^2 and, for the mv audit, about m_max^3.  On a 2-core x86 box (CPython 3.11)
# min_imbalance_prob took 0.06, 0.4 and 3.8 s at 10^4, 3 * 10^4 and 10^5,
# binomial_upper_tail_exact 0.015 and 1.3 s at (10^4, 5050) and (10^5, 50159),
# and verify_mv_bound 0.19 and 1.2 s at 1600 and 3200.
_IMBALANCE_M_MAX = 10**5
_MV_AUDIT_M_MAX = 3200

# Largest N of a sampled block-sign path.  `construct --N` holds about 330 bytes a
# step (values and rows): its peak RSS read 67 and 364 MB at 10^5 and 10^6 (2-core x86).
_SAMPLE_N_MAX = 10**6

# Below this many entries `_exact_sum` is `math.fsum` itself: on CPython 3.11
# with numpy 2.4 the extraction's fixed cost, about 6 us, is fsum's at 200.
_EXACT_SUM_MIN = 200

# Fraction bits of the fixed-point pmf start, and floor(ln 2 * 2^_F) and
# floor(2 pi * 2^_F) in them.
_F = 128
_ONE = 1 << _F
_LN2 = 0xB17217F7D1CF79ABC9E3B39803F2F6AF
_TWO_PI = 0x6487ED5110B4611A62633145C06E0E689


def _block_shape(N: int, K: int) -> tuple[int, int, int]:
    """N, K and m = N/K, the number of K-step blocks, as Python ints; K must divide N."""
    N, K = _integer("N", N, lo=-math.inf), _integer("K", K, lo=-math.inf)
    if N < 1 or K < 1 or N % K != 0:
        raise ValueError(f"need K | N with both positive, got N={N}, K={K}")
    return N, K, N // K


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


def _ln_fixed(num: int, den: int) -> int:
    """ln(num/den) * 2^_F, to within about 2^-120, for positive integers."""
    e = num.bit_length() - den.bit_length()
    a, b = (num, den << e) if e >= 0 else (num << -e, den)
    # a/b now lies in (1/2, 2); move it into [1/sqrt 2, sqrt 2].
    if a * a > 2 * b * b:
        b <<= 1
        e += 1
    elif 2 * a * a < b * b:
        a <<= 1
        e -= 1
    # ln(a/b) = 2 atanh(y) for y = (a - b)/(a + b), |y| <= 3 - 2 sqrt 2 < 0.172.
    # The series runs on |y|: a floor shift of a negative term never reaches 0.
    y = (abs(a - b) << _F) // (a + b)
    y2 = y * y >> _F
    total = term = y
    i = 1
    while term:
        term = term * y2 >> _F
        i += 2
        total += term // i
    return e * _LN2 + (2 * total if a >= b else -2 * total)


def _stirlerr_fixed(n: int) -> int:
    """ln(n!) - ln(sqrt(2 pi n) (n/e)^n), times 2^_F, for n >= 65.

    The Stirling series through n^-13: its first two terms are exact integer
    quotients, the rest (below 7e-13) a float.  The float's rounding and the
    omitted n^-15 term together stay below 2^-90.
    """
    n2 = float(n) * n
    rest = 1 / 1260 - (1 / 1680 - (1 / 1188 - (691 / 360360 - 1 / 156 / n2) / n2) / n2) / n2
    return _ONE // (12 * n) - _ONE // (360 * n**3) + int(math.ldexp(rest / (n2 * n2 * n), _F))


def _pmf_float(m: int, k: int) -> float:
    """P(Binomial(m, 1/2) = k) as a float.

    The integer ratio comb(m, k) / 2^m, correctly rounded, up to
    m = _COMB_MAX or while min(k, m - k) <= 64; 0.0 without dividing once
    the ratio is below 2^-1075, half the least subnormal.  Beyond, Loader's
    decomposition with j = m - k,

        ln pmf = stirlerr(m) - stirlerr(k) - stirlerr(j)
                 - k ln(2k/m) - j ln(2j/m) + ln sqrt(m / (2 pi k j)),

    in 128-bit fixed-point integers, rounded to a float once.  Before that
    rounding the relative error is below about 2^-85 (three stirlerr
    values, under 2^-90 each, dominate it), so the float is the correctly
    rounded pmf unless the exact value lies that close to a rounding
    midpoint, and it is never more than 1 ulp off.
    """
    j = m - k
    if m <= _COMB_MAX or min(k, j) <= 64:
        c = math.comb(m, k)
        # Below 2^-1075 the ratio rounds to 0.0: return it without building 2^m.
        return 0.0 if c.bit_length() - m <= -1075 else c / (1 << m)
    log = (
        _stirlerr_fixed(m) - _stirlerr_fixed(k) - _stirlerr_fixed(j)
        - k * _ln_fixed(2 * k, m) - j * _ln_fixed(2 * j, m)
    )
    # exp(log) = 2^n exp(r) with r in [0, ln 2); exp(r) = exp(r/256)^256.
    n, r = divmod(log, _LN2)
    if n < -1100:  # the pmf is below 2^(n+1), which rounds to 0.0
        return 0.0
    x = r >> 8
    e = term = _ONE
    i = 0
    while term:
        i += 1
        term = (term * x >> _F) // i
        e += term
    for _ in range(8):
        e = e * e >> _F
    root = math.isqrt((m << 3 * _F) // (_TWO_PI * k * j))  # sqrt(m / (2 pi k j)) * 2^_F
    # One correctly rounded int / int division, subnormal results included.
    return e * root / (1 << (2 * _F - n))


def binomial_upper_tail(m: int, k0: int) -> float:
    """Exact P(Binomial(m, 1/2) >= k0) to ~1e-13 relative error for m <= 10^6.

    The tail is summed in the decreasing direction from one correctly
    rounded pmf value (`_pmf_float`), advancing by the exact ratio recurrence
    pmf(k+1) = pmf(k) (m-k)/(k+1) over at most 6 isqrt(m) + 7 terms (the
    rest lie below 2^-104 of the first), and their correctly rounded sum is
    the float `math.fsum` would give (`_exact_sum`).  k0 may lie outside
    [0, m]; the lower half is handled through the symmetry complement so
    the summed tail is always the short one.

    Past the trivial tails (k0 <= 0 or k0 > m), m above `_TAIL_M_MAX` = 10^9
    is refused with ValueError before anything is allocated: the summed
    window grows as sqrt(m), and at 10^9 a central tail peaks at 4.6 MB
    (tracemalloc), one with k0 = m - 10 at 1 KB.
    """
    m, k0 = _integer("m", m), _integer("k0", k0, lo=-math.inf)
    if k0 <= 0:
        return 1.0
    if k0 > m:
        return 0.0
    if m > _TAIL_M_MAX:
        raise ValueError(f"m must be at most {_TAIL_M_MAX} for a binomial tail, got {m!r}")
    # P(>= k0) = 1 - P(<= k0-1) = 1 - P(>= m-k0+1) by coin symmetry.
    return 1.0 - _upper_tail(m, m - k0 + 1) if 2 * k0 <= m else _upper_tail(m, k0)


def _upper_tail(m: int, k0: int) -> float:
    """`binomial_upper_tail(m, k0)` for m/2 < k0 <= m, its arguments already checked."""
    term = _pmf_float(m, k0)
    # With k0 > m/2, step i leaves from k >= m/2 + i + 1/2, where the ratio
    # (m-k)/(k+1) is below (1-y)/(1+y) <= e^{-2y} for y = 2(k - m/2)/m; so the
    # term j steps on is below e^{-2j^2/m} of the first.  Past 6 sqrt(m) steps
    # that is under e^{-72} ~ 2^-104, so every later term, and their sum, is
    # far below an ulp of the tail.  terms[i] is pmf(k0 + i): the ratio into
    # k0 is set to 1, so the window starts at term itself, its largest entry.
    stop = min(m, k0 + 6 * math.isqrt(m) + 6)
    terms = np.arange(m - k0 + 1, m - stop, -1, dtype=np.float64)
    terms /= np.arange(k0, stop + 1, dtype=np.float64)
    terms[0] = 1.0
    np.multiply.accumulate(terms, out=terms)
    terms *= term
    return _exact_sum(terms, term)


def _exact_sum(x: np.ndarray, top: float | None = None) -> float:
    """math.fsum(x.tolist()) for a 1-D array of non-negative finite floats, `top` max(x) if known.

    The extraction step of Rump, Ogita & Oishi (SIAM J. Sci. Comput. 31,
    2008) splits each entry at a power of two sigma >= (n + 2) max(x):
    q = (x + sigma) - sigma and r = x - q are exact, every q is a multiple
    of ulp(sigma), so sum(q) is exact in any order, and |r| <= ulp(sigma)/2,
    so numpy's sum(r) is within n^2 sigma 2^-104 of the true sum (4 times
    the worst case of any order).  Both ends of that interval, each widened
    by one ulp, go through one correctly rounded addition; if they round to
    the same float, so does the exact total, which is the float fsum gives.
    Otherwise, and for fewer than _EXACT_SUM_MIN entries or a sigma near
    the underflow or overflow range, it is fsum itself.
    """
    n = len(x)
    top = (n + 2) * (top or float(np.maximum.reduce(x))) if n >= _EXACT_SUM_MIN else 0.0
    if not 2.0**-800 <= top <= 2.0**1000:
        return math.fsum(x.tolist())
    sigma = math.ldexp(1.0, math.frexp(top)[1])  # a power of two >= top
    q = x + sigma
    q -= sigma
    hi = float(np.add.reduce(q))
    lo = float(np.add.reduce(np.subtract(x, q, out=q)))
    err = n * n * sigma * 2.0**-104
    total = hi + math.nextafter(lo - err, -math.inf)
    if total == hi + math.nextafter(lo + err, math.inf):
        return total
    return math.fsum(x.tolist())


def _tail_counts(m: int, k_lo: int, k_hi: int) -> list[int]:
    """[sum_{j >= k} C(m, j) for k_lo <= k <= k_hi] from one walk down from k = m (k_lo >= 1)."""
    c, count, counts = 1, 0, []  # at k = m: C(m, k) and sum_{j > k} C(m, j); the kept counts
    for k in range(m, k_lo - 1, -1):
        count += c
        if k <= k_hi:
            counts.append(count)
        c = c * k // (m - k + 1)  # C(m, k - 1), an exact division
    return counts[::-1]


def binomial_upper_tail_exact(m: int, k0: int) -> Fraction:
    """Exact rational P(Binomial(m, 1/2) >= k0); past the trivial tails, m <= `_IMBALANCE_M_MAX`."""
    m, k0 = _integer("m", m), _integer("k0", k0, lo=-math.inf)
    if k0 <= 0:
        return Fraction(1)
    if k0 > m:
        return Fraction(0)
    if m > _IMBALANCE_M_MAX:
        raise ValueError(f"m must be at most {_IMBALANCE_M_MAX} for an exact tail, got {m!r}")
    if 2 * k0 <= m:  # walk the short side: P(Z >= k0) = 1 - P(Z >= m - k0 + 1)
        return 1 - binomial_upper_tail_exact(m, m - k0 + 1)
    return Fraction(_tail_counts(m, k0, k0)[0], 1 << m)


def sample_block_process(N: int, K: int, seed: int) -> tuple[int, ...]:
    """One block-sign path: m = N/K independent fair signs, each held over K steps.

    Returns the N values in {-1, +1}, N at most `_SAMPLE_N_MAX`; their sum is (2Z - m) K.
    """
    N, K, m = _block_shape(N, K)
    if N > _SAMPLE_N_MAX:
        raise ValueError(f"N must be at most {_SAMPLE_N_MAX} for a sampled path, got {N!r}")
    rng = np.random.default_rng(seed)
    signs = 2 * rng.integers(0, 2, size=m) - 1
    return tuple(int(s) for s in np.repeat(signs, K))


def imbalance_threshold(m: int) -> int:
    """Smallest count k0 such that 2 k0 - m >= sqrt(m), computed exactly."""
    m = _integer("m", m)
    s = math.isqrt(m)
    # For non-square m the integer 2k-m clears sqrt(m) iff it clears s+1.
    root_ceil = s if s * s == m else s + 1
    return (m + root_ceil + 1) // 2


def imbalance_prob(m: int) -> float:
    """P(sign imbalance of m fair signs >= sqrt(m)) = P(Z >= ceil((m+sqrt m)/2))."""
    return binomial_upper_tail(m, imbalance_threshold(m))


def imbalance_prob_exact(m: int) -> Fraction:
    """Rational-arithmetic version of `imbalance_prob`, for m up to `_IMBALANCE_M_MAX`."""
    return binomial_upper_tail_exact(m, imbalance_threshold(m))


def _imbalance_probs(m_max: int):
    """Yield (m, k0, P(Z >= k0)) for 1 <= m <= m_max, with k0 = imbalance_threshold(m).

    Each probability is the correctly rounded exact value: the tail count is
    carried from m to m + 1 in integers by Pascal's rule.  m_max must lie in
    [1, `_IMBALANCE_M_MAX`], checked before the first row.
    """
    m_max = _integer("m_max", m_max, hi=_IMBALANCE_M_MAX)
    # At m: k = imbalance_threshold(m), c = C(m, k), tail = sum_{j >= k} C(m, j).
    k = c = tail = 1
    yield 1, k, tail / 2
    for m in range(1, m_max):
        prev = c * k // (m - k + 1)  # C(m, k-1), an exact division
        tail = 2 * tail + prev  # Pascal's rule, summed over j >= k
        c += prev
        # ceil(sqrt(m)) rises by at most 1 per step, so the threshold does too.
        if imbalance_threshold(m + 1) > k:
            tail -= c
            c = c * (m + 1 - k) // (k + 1)
            k += 1
        yield m + 1, k, tail / (1 << (m + 1))


def min_imbalance_prob(m_max: int) -> tuple[int, float]:
    """Exhaustive minimum of the sqrt(m)-imbalance probability over 1 <= m <= m_max.

    Each m's probability is the correctly rounded exact value from
    `_imbalance_probs`.  Returns the first minimiser.  The minimum is 7/64,
    attained at m = 6; the limit as m grows is the Gaussian survival value
    at 1 (about 0.1587).  m_max must lie in [6, `_IMBALANCE_M_MAX`].
    """
    m, _, p = min(_imbalance_probs(_integer("m_max", m_max, lo=6)), key=lambda row: row[2])
    return m, p


def block_deviation_tail(N: int, K: int, C: float, sided: str = "upper") -> float:
    """Exact P(S >= C) (upper) or P(|S| >= C) (two_sided) for the block process.

    The lagged conditional means vanish (each block's sign is revealed
    strictly after every step that forecasts it from K steps back), so the
    deviation S equals (2Z - m) K and the tail is a fair-binomial tail:
    {S >= C} is {Z >= k0} for the smallest count k0 whose lattice point
    (2 k0 - m) K is at least C, the integer compared with the float C
    exactly.  It is the event `exact_tail` and `mc_tail` count, with no
    tolerance either way.  By coin symmetry P(S <= -C) = P(Z >= k0), the
    upper tail's count, and the two events are disjoint unless
    2 k0 - m <= 0, where {|S| >= C} is sure.
    """
    _tail_event(C, sided)  # rejects a non-finite C or an unknown side
    _, K, m = _block_shape(N, K)
    k0 = bisect_left(range(m + 1), True, key=lambda k: (2 * k - m) * K >= C)
    if sided == "upper":
        return binomial_upper_tail(m, k0)
    return 1.0 if 2 * k0 - m <= 0 else 2.0 * binomial_upper_tail(m, k0)


@dataclass(frozen=True)
class MvAuditReport:
    """Result of auditing the binomial lower bound against exact tails."""

    pairs_checked: int
    violations: tuple[tuple[int, int], ...]
    min_slack: float
    min_slack_at: tuple[int, int]

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_mv_bound(m_max: int) -> MvAuditReport:
    """Check P(Z >= m/2 + t) >= (1/15) exp(-16 t^2/m) on its whole domain.

    Scans every even m <= m_max and every integer t in [0, m/8], comparing
    the correctly rounded exact tail (a `_tail_counts` count over 2^m) with
    the bound.  Any violation would falsify the lower-bound constant pair
    (1/15, 16), so violations are collected rather than raised; `ok` reports
    the verdict.  m_max must lie in [8, `_MV_AUDIT_M_MAX`].
    """
    m_max = _integer("m_max", m_max, 8, _MV_AUDIT_M_MAX)
    violations = []
    min_slack = math.inf
    min_at = (0, 0)
    checked = 0
    for m in range(2, m_max + 1, 2):
        for t, count in enumerate(_tail_counts(m, m // 2, m // 2 + m // 8)):
            slack = count / (1 << m) - mv_lower_bound(m, t)
            checked += 1
            if slack < min_slack:
                min_slack, min_at = slack, (m, t)
            if slack < 0:
                violations.append((m, t))
    return MvAuditReport(
        pairs_checked=checked,
        violations=tuple(violations),
        min_slack=min_slack,
        min_slack_at=min_at,
    )
