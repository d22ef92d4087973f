"""Reproducible Monte Carlo tails with exact binomial confidence intervals.

Every random draw is a pure function of (master seed, trial index, draw
index) through the splitmix64 finalizer, a published counter-based mixing
function.  Trials therefore carry their own streams: partitioning them
across threads, reordering chunks, or resuming mid-run cannot change any
estimate.  The block sampler spends one bit per sign: a trial's m signs are
the low m bits of its first ceil(m/64) 64-bit words, keyed by word index,
and its +1 count is their popcount.  The tree sampler spends one uniform
per depth.  Intervals are exact Clopper-Pearson, not normal-approximate,
because small tail probabilities are precisely the quantity of interest.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import betaincinv

from .constructions import _block_count, _tail_event
from .trees import AdaptedSequence, ProbabilityTree, deviation_per_leaf

__all__ = [
    "TailEstimate",
    "counter_seeds",
    "counter_uniforms",
    "derive_seed",
    "clopper_pearson",
    "block_deviation_sampler",
    "tree_deviation_sampler",
    "mc_tail",
]

# splitmix64 constants (Steele, Lea & Flood; Stafford's mix 13 finalizer).
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_CHUNK = 1 << 15


def _mix(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def counter_seeds(master_seed: int, counters: np.ndarray) -> np.ndarray:
    """Per-counter 64-bit stream keys: mix(master + (counter + 1) * golden)."""
    base = np.uint64(master_seed & 0xFFFFFFFFFFFFFFFF)
    c = np.asarray(counters, dtype=np.uint64)
    return _mix(base + (c + np.uint64(1)) * _GOLDEN)


def _counter_words(keys: np.ndarray, n_draws: int) -> np.ndarray:
    """Matrix of 64-bit words: row k, column j is mix(keys[k] + (j + 1) * golden)."""
    j = (np.arange(n_draws, dtype=np.uint64) + np.uint64(1)) * _GOLDEN
    return _mix(np.asarray(keys, dtype=np.uint64)[:, None] + j[None, :])


def counter_uniforms(keys: np.ndarray, n_draws: int) -> np.ndarray:
    """Matrix of uniforms in [0, 1): row k, column j depends only on (keys[k], j)."""
    return (_counter_words(keys, n_draws) >> np.uint64(11)).astype(np.float64) * 2.0**-53


def derive_seed(master_seed: int, *path: int) -> int:
    """Independent sub-seed for a labelled branch of a master seed."""
    key = master_seed
    for p in path:
        key = int(counter_seeds(key, np.array([p], dtype=np.uint64))[0])
    return key


def clopper_pearson(hits: int, trials: int, confidence: float = 0.99) -> tuple[float, float]:
    """Exact two-sided binomial confidence interval for hits out of trials."""
    if trials < 1 or not 0 <= hits <= trials:
        raise ValueError(f"need 0 <= hits <= trials with trials >= 1, got {hits}/{trials}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence!r}")
    alpha = 1.0 - confidence
    # Beta quantiles, the same values as scipy.stats.beta.ppf without loading scipy.stats.
    lo = 0.0 if hits == 0 else float(betaincinv(hits, trials - hits + 1, alpha / 2.0))
    hi = 1.0 if hits == trials else float(betaincinv(hits + 1, trials - hits, 1.0 - alpha / 2.0))
    return lo, hi


@dataclass(frozen=True)
class TailEstimate:
    """Monte Carlo tail probability with its exact 99% Clopper-Pearson interval."""

    p_hat: float
    trials: int
    seed: int
    ci_low: float
    ci_high: float
    hits: int
    confidence: float = 0.99
    method: str = "clopper_pearson"

    def __post_init__(self) -> None:
        if not self.ci_low <= self.p_hat <= self.ci_high:
            raise ValueError("interval must contain the point estimate")

    def contains(self, p: float) -> bool:
        return self.ci_low <= p <= self.ci_high


# A sampler maps (master_seed, trial index array) to deviation values, one
# per trial, each a pure function of (master_seed, trial index).
Sampler = Callable[[int, np.ndarray], np.ndarray]


def block_deviation_sampler(N: int, K: int) -> Sampler:
    """Sampler of the block-process deviation (2Z - m) K.

    Z is the popcount of a trial's first m stream bits: ceil(m/64) words,
    the last one masked to the low bits that remain.
    """
    m = _block_count(N, K)
    n_words = -(-m // 64)
    tail_mask = np.uint64((1 << (m - 64 * (n_words - 1))) - 1)

    def sample(master_seed: int, trials: np.ndarray) -> np.ndarray:
        words = _counter_words(counter_seeds(master_seed, trials), n_words)
        words[:, -1] &= tail_mask
        z = np.bitwise_count(words).sum(axis=1, dtype=np.int64)
        return (2.0 * z - m) * K

    return sample


def tree_deviation_sampler(tree: ProbabilityTree, seq: AdaptedSequence, lag: int) -> Sampler:
    """Sampler of the tree deviation statistic: walk a path, read off S.

    Deviation values per terminal node are precomputed once; each trial
    spends one uniform per depth to choose a child by inverse CDF.
    """
    dev = deviation_per_leaf(tree, seq, lag)
    depth = seq.n_steps
    # Per depth: children regrouped by parent, with within-parent cumulative
    # probabilities embedded into a single global monotone array so that one
    # searchsorted resolves every trial's transition at once.
    levels = []
    for d in range(1, depth + 1):
        par = tree.parents[d - 1]
        pr = tree.branch_probs[d - 1]
        n_par = tree.node_counts[d - 1]
        order = np.argsort(par, kind="stable")
        counts = np.bincount(par, minlength=n_par)
        cum = np.cumsum(pr[order])
        group_ends = np.cumsum(counts) - 1
        prev = np.concatenate(([0.0], cum))[np.concatenate(([0], group_ends[:-1] + 1))]
        within = cum - np.repeat(prev, counts)
        within[group_ends] = 1.0
        grid = within + np.repeat(np.arange(n_par, dtype=np.float64), counts)
        levels.append((grid, order.astype(np.int64)))

    def sample(master_seed: int, trials: np.ndarray) -> np.ndarray:
        u = counter_uniforms(counter_seeds(master_seed, trials), depth)
        cur = np.zeros(len(trials), dtype=np.int64)
        for d, (grid, order) in enumerate(levels):
            pick = np.searchsorted(grid, cur + u[:, d], side="right")
            cur = order[pick]
        return dev[cur]

    return sample


def _check_workers(workers: int) -> None:
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")


def _map_ordered(fn: Callable, items, workers: int) -> list:
    """`fn(x)` for each x of `items`, in order; threaded when workers > 1."""
    _check_workers(workers)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    return [fn(x) for x in items]


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

    Results are identical for any `workers` value: each trial's draws are
    keyed by its own index, and only integer hit counts are merged.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    event = _tail_event(C, sided)
    starts = range(0, trials, _CHUNK)

    def run_chunk(start: int) -> int:
        idx = np.arange(start, min(start + _CHUNK, trials), dtype=np.uint64)
        try:
            dev = sampler(seed, idx)
        except Exception as exc:
            raise RuntimeError(f"sampler failed in trials [{int(idx[0])}, {int(idx[-1])}]") from exc
        if len(dev) != len(idx):
            raise RuntimeError(f"sampler returned {len(dev)} values for {len(idx)} trials")
        return int(event(dev).sum())

    hits = sum(_map_ordered(run_chunk, starts, workers))

    lo, hi = clopper_pearson(hits, trials)
    return TailEstimate(
        p_hat=hits / trials, trials=trials, seed=seed, ci_low=lo, ci_high=hi, hits=hits
    )
