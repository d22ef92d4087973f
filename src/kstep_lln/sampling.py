"""Reproducible Monte Carlo tails with exact binomial confidence intervals.

Every random draw is a pure function of (master seed, trial index, draw
index) through the splitmix64 finalizer, a published counter-based mixing
function.  Trials therefore carry their own streams: splitting them into
chunks, reordering the chunks, or resuming mid-run cannot change any
estimate, and the chunks run in turn on one thread.  The block sampler
spends one bit per sign: a trial's m signs are the low m bits of its first
ceil(m/64) 64-bit words, keyed by word index, and its +1 count is their
popcount, summed over slabs of at most 2^14 words (columns x trials), each
with its own columns' word offsets, so memory grows with the trial count
only.  The tree sampler spends one uniform per trial on an inverse-CDF draw
of a leaf from the tree's stored leaf probabilities.  It sorts a chunk's
keys once and searches them in order: a binary search over keys in random
order mispredicts its branches (65-80 ns a trial on a 2-core x86 machine).
Its draws come back in the order of their keys, not of their trials; every
caller only counts hits, and a count does not depend on order.  splitmix64
runs in place on a fresh array with one scratch buffer.  Intervals are exact
99% Clopper-Pearson, not normal-approximate, because small tail
probabilities are precisely the quantity of interest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .constructions import _block_count, _tail_event
from .trees import AdaptedSequence, ProbabilityTree, deviation_per_leaf

__all__ = [
    "TailEstimate",
    "counter_seeds",
    "derive_seed",
    "clopper_pearson",
    "block_deviation_sampler",
    "tree_deviation_sampler",
    "mc_tail",
]

# splitmix64 constants (Steele, Lea & Flood; Stafford's mix 13 finalizer).
_SPLITMIX = (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB)
_GOLDEN, _MIX1, _MIX2 = map(np.uint64, _SPLITMIX)
_MASK64 = (1 << 64) - 1
_CHUNK = 1 << 15
# Words per slab of the block sampler (128 KB).  Slabs of 2^15 and 2^16 words
# were slower than one column at a time at 10^4 and 2^15 trials (2-core x86,
# numpy 2.4); below 2^14 trials a slab holds several columns.
_SLAB_WORDS = 1 << 14
#: Confidence level of every Monte Carlo interval.
_CONFIDENCE = 0.99


def _mix(z: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer, computed in place: z must be a fresh array."""
    t = np.empty_like(z)
    np.right_shift(z, np.uint64(30), out=t)
    z ^= t
    z *= _MIX1
    np.right_shift(z, np.uint64(27), out=t)
    z ^= t
    z *= _MIX2
    np.right_shift(z, np.uint64(31), out=t)
    z ^= t
    return z


def counter_seeds(master_seed: int, counters: np.ndarray) -> np.ndarray:
    """Per-counter 64-bit stream keys: mix(master + (counter + 1) * golden)."""
    base = np.uint64(master_seed & 0xFFFFFFFFFFFFFFFF)
    z = np.asarray(counters, dtype=np.uint64) + np.uint64(1)  # fresh: never the caller's array
    z *= _GOLDEN
    z += base
    return _mix(z)


def derive_seed(master_seed: int, *path: int) -> int:
    """Independent sub-seed for a labelled branch of a master seed.

    Each label p takes one splitmix64 step, the value of
    `counter_seeds(key, [p])`, in Python integers masked to 64 bits.
    """
    golden, mix1, mix2 = _SPLITMIX
    key = master_seed
    for p in path:
        if not 0 <= p <= _MASK64:
            raise OverflowError(f"path label {p} is out of range for uint64")
        z = (key + (p + 1) * golden) & _MASK64
        z = ((z ^ (z >> 30)) * mix1) & _MASK64
        z = ((z ^ (z >> 27)) * mix2) & _MASK64
        key = z ^ (z >> 31)
    return key


def clopper_pearson(hits: int, trials: int) -> tuple[float, float]:
    """Exact two-sided 99% binomial confidence interval for hits out of trials."""
    if trials < 1 or not 0 <= hits <= trials:
        raise ValueError(f"need 0 <= hits <= trials with trials >= 1, got {hits}/{trials}")
    # Imported here so that exact-only callers never load scipy.
    from scipy.special import betaincinv

    alpha = 1.0 - _CONFIDENCE
    # Beta quantiles, the same values as scipy.stats.beta.ppf without loading scipy.stats.
    lo = 0.0 if hits == 0 else float(betaincinv(hits, trials - hits + 1, alpha / 2.0))
    hi = 1.0 if hits == trials else float(betaincinv(hits + 1, trials - hits, 1.0 - alpha / 2.0))
    return lo, hi


@dataclass(frozen=True)
class TailEstimate:
    """Monte Carlo tail probability with its exact 99% Clopper-Pearson interval."""

    trials: int
    hits: int
    ci_low: float
    ci_high: float

    @property
    def p_hat(self) -> float:
        return self.hits / self.trials

    def __post_init__(self) -> None:
        if not self.ci_low <= self.p_hat <= self.ci_high:
            raise ValueError("interval must contain the point estimate")

    def contains(self, p: float) -> bool:
        return self.ci_low <= p <= self.ci_high


# A sampler maps (master_seed, trial index array) to deviation values, one
# per trial, each a pure function of (master_seed, trial index).  The values
# may come back in any order: only their multiset is part of the contract.
Sampler = Callable[[int, np.ndarray], np.ndarray]


def block_deviation_sampler(N: int, K: int) -> Sampler:
    """Sampler of the block-process deviation (2Z - m) K.

    Z is the popcount of a trial's first m stream bits: ceil(m/64) words,
    the last one masked to the low bits that remain.
    """
    m = _block_count(N, K)
    columns = -(-m // 64)
    last_mask = np.uint64((1 << (m - 64 * (columns - 1))) - 1)

    def sample(master_seed: int, trials: np.ndarray) -> np.ndarray:
        keys = counter_seeds(master_seed, trials)
        z = np.zeros(len(trials), dtype=np.uint64)
        # Slabs of columns x trials words, at most _SLAB_WORDS of them (one
        # column a slab when the trials alone fill that).  Word column j is
        # mix(key + (j + 1) * golden).
        step = max(1, _SLAB_WORDS // max(1, len(trials)))
        for j in range(0, columns, step):
            stop = min(j + step, columns)
            offsets = np.arange(j + 1, stop + 1, dtype=np.uint64)[:, None] * _GOLDEN
            words = _mix(offsets + keys[None, :])
            if stop == columns:
                words[-1] &= last_mask
            counts = np.bitwise_count(words)
            # A one-column slab skips the reduction: its uint8 -> uint64 cast
            # made full chunks about 10% slower than adding the row.
            z += counts[0] if len(counts) == 1 else counts.sum(axis=0)
        return (2.0 * z - m) * K

    return sample


def tree_deviation_sampler(tree: ProbabilityTree, seq: AdaptedSequence, lag: int) -> Sampler:
    """Sampler of the tree deviation statistic: draw a leaf, read off S.

    The leaves are the depth-n nodes, n the sequence length.  Each trial
    spends its stream's first uniform on an inverse-CDF draw over their
    stored probabilities.  The uniform is scaled by the cumulative total and
    searched among the first L - 1 partial sums, so every index is in range
    however the sum rounds.  The search runs over the chunk's sorted keys,
    and the draws come back in the keys' order; see `_inverse_cdf_draw`.
    """
    dev = deviation_per_leaf(tree, seq, lag)
    cdf = np.cumsum(tree.node_probabilities(seq.n_steps))

    def sample(master_seed: int, trials: np.ndarray) -> np.ndarray:
        # Word 0 of each trial's stream, as a 53-bit uniform times the total.
        words = _mix(counter_seeds(master_seed, trials) + _GOLDEN)
        words >>= np.uint64(11)
        x = words.astype(np.float64)
        x *= 2.0**-53 * cdf[-1]
        return _inverse_cdf_draw(dev, cdf, x)

    return sample


def _inverse_cdf_draw(values: np.ndarray, cdf: np.ndarray, x: np.ndarray) -> np.ndarray:
    """values[bisect_right(cdf[:-1], x_i)] for each key x_i, in sorted-key order.

    `cdf` is non-decreasing.  The keys are sorted once.  With fewer leaves
    than keys, each leaf's first key is found among the sorted keys (one
    search a leaf, not one a key) and the leaf's value repeated over its
    run; otherwise the sorted keys are searched among the partial sums.
    """
    xs = np.sort(x)
    if len(cdf) < len(x):
        # Keys below cdf[j] are exactly those whose leaf is at most j.
        starts = np.searchsorted(xs, cdf[:-1], side="left")
        return np.repeat(values, np.diff(starts, prepend=0, append=len(x)))
    return values[np.searchsorted(cdf[:-1], xs, side="right")]


def mc_tail(
    sampler: Sampler,
    C: float,
    *,
    sided: str = "two_sided",
    trials: int,
    seed: int,
    workers: int = 1,
) -> TailEstimate:
    """Estimate P(|S| >= C) or P(S >= C) from `trials` independent paths.

    Chunks of 2^15 trials run in turn on the calling thread, their integer
    hit counts added as they go; each trial's draws are keyed by its own
    index.  `workers` has no effect but must be at least 1: the benchmark's
    `numerics` workload passes `workers=2`, until ROADMAP item 9 deletes it.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    event = _tail_event(C, sided)
    hits = 0
    for start in range(0, trials, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, trials), dtype=np.uint64)
        try:
            dev = sampler(seed, idx)
        except Exception as exc:
            raise RuntimeError(f"sampler failed in trials [{int(idx[0])}, {int(idx[-1])}]") from exc
        if len(dev) != len(idx):
            raise RuntimeError(f"sampler returned {len(dev)} values for {len(idx)} trials")
        hits += int(event(dev).sum())

    lo, hi = clopper_pearson(hits, trials)
    return TailEstimate(trials=trials, hits=hits, ci_low=lo, ci_high=hi)
