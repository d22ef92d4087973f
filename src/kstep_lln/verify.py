"""End-to-end verification suite: every headline claim, checked numerically.

Each criterion is a standalone function returning a `CriterionResult`; the
CLI `verify-all` command and the test suite both run them.  The full tier
runs at publication scale; the quick tier shrinks grids and trial counts
(and, where a tolerance is tied to scale, relaxes it accordingly).

Criteria 7-9 also emit CSV artifacts.  Their computations key every random
choice off (master seed, criterion, instance), so rerunning with a
different worker count reproduces the artifacts byte for byte.  Criterion
10 checks exactly that: the artifacts this run wrote are reproduced at
another worker count.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import bounds, constructions
from .decision import (
    DecisionSpace,
    LossSpec,
    adversarial_strategy,
    bayesian_strategy,
    expected_losses,
    random_strategy,
    regret_tail,
    shifted_deviation_check,
)
from .output import format_csv
from .sampling import block_deviation_sampler, derive_seed, mc_tail, tree_deviation_sampler
from .trees import deviation_per_leaf, exact_tail, random_tree, verify_deviation_bound

__all__ = ["CriterionResult", "DEFAULT_SEED", "CRITERIA", "dominance_rows", "run_all"]

#: Master seed used by the CLI when none is given.
DEFAULT_SEED = 1729


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    elapsed: float
    artifact: str | None = None

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[criterion {self.number:2d}] {status}  {self.name}: {self.detail} ({self.elapsed:.2f}s)"


def _result(number, name, passed, detail, t0, artifact=None) -> CriterionResult:
    return CriterionResult(number, name, passed, detail, time.perf_counter() - t0, artifact)


def criterion_1_min_imbalance(quick: bool = False, seed: int = DEFAULT_SEED, workers: int = 1):
    """Smallest sqrt(m)-imbalance probability is 7/64, at m = 6."""
    t0 = time.perf_counter()
    m_max = 200 if quick else 10_000
    m_star, p_star = constructions.min_imbalance_prob(m_max)
    exact = constructions.imbalance_prob_exact(m_star)
    target = Fraction(7, 64)
    rel = abs(p_star - float(target)) / float(target)
    passed = m_star == 6 and exact == target and rel <= 1e-12
    detail = f"min over m<={m_max} is {p_star!r} at m={m_star}; rational path {exact}; log-path rel err {rel:.2e}"
    return _result(1, "min-imbalance", passed, detail, t0)


def criterion_2_imbalance_limit(quick: bool = False, seed: int = DEFAULT_SEED, workers: int = 1):
    """Large-m imbalance probability approaches the Gaussian survival value at 1."""
    t0 = time.perf_counter()
    m, tol = (10_000, 0.005) if quick else (1_000_000, 0.002)
    p = constructions.imbalance_prob(m)
    limit = bounds.gaussian_survival(1.0)
    diff = abs(p - limit)
    passed = diff <= tol
    detail = f"imbalance_prob({m}) = {p:.6f}, |diff from {limit:.6f}| = {diff:.2e} <= {tol}"
    return _result(2, "imbalance-limit", passed, detail, t0)


def criterion_3_epsilon_cutoff(quick: bool = False, seed: int = DEFAULT_SEED, workers: int = 1):
    """The x = 2 closing condition holds on (0, 0.70] and fails at 0.71."""
    t0 = time.perf_counter()
    grid_ok = all(bounds.suitable_x_check(i / 100.0, 2.0) for i in range(1, 71))
    above = bounds.suitable_x_check(0.71, 2.0)
    passed = grid_ok and not above
    detail = f"true on eps = 0.01..0.70 (step 0.01): {grid_ok}; false at 0.71: {not above}"
    return _result(3, "epsilon-cutoff", passed, detail, t0)


def dominance_rows(ks, ms, ratios) -> list[dict]:
    """One row per grid point: the exact <= relaxed <= midpoint chain at N = K m, C = r sqrt(K N)."""
    rows = []
    for K in ks:
        for m in ms:
            N = K * m
            for r in ratios:
                C = r * math.sqrt(K * N)
                ap = bounds.AggregationParams.from_horizon(C, N, K)
                exact = bounds.aggregation_bound(ap, relaxed=False)
                relaxed = bounds.aggregation_bound(ap, relaxed=True)
                mid = bounds.midpoint_bound(C, K, N)
                rows.append(
                    {
                        "N": N, "K": K, "C": C, "a": ap.a,
                        "exact": exact, "relaxed": relaxed, "midpoint": mid,
                        "chain_ok": exact <= relaxed + 1e-9 and relaxed <= mid + 1e-9,
                    }
                )
    return rows


def criterion_4_dominance_chain(quick: bool = False, seed: int = DEFAULT_SEED, workers: int = 1):
    """Exact <= relaxed <= midpoint on a parameter grid; midpoint discharge < eps/2."""
    t0 = time.perf_counter()
    ks = [1, 2, 3, 4, 5]
    ms = [2, 4, 8, 16, 32]
    ratios = [0.25, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 12.0]
    if quick:
        ks, ms, ratios = [1, 2, 4], [2, 8, 32], [0.5, 1.0, 3.0, 8.0]
    rows = dominance_rows(ks, ms, ratios)
    chain_bad = [r for r in rows if not r["chain_ok"]]
    discharge_bad = []
    for eps in (0.05, 0.2, 0.5, 0.69):
        for K in ks:
            for m in ms:
                N = K * m
                C = 4.0 * math.sqrt(K * N * math.log(1.0 / eps))
                if not bounds.midpoint_bound(C, K, N) < eps / 2.0:
                    discharge_bad.append((N, K, eps))
    passed = not chain_bad and not discharge_bad
    detail = (
        f"{len(rows)} (N,K,C) triples, chain violations: {len(chain_bad)}; "
        f"midpoint >= eps/2 cases: {len(discharge_bad)}"
    )
    return _result(4, "dominance-chain", passed, detail, t0)


def criterion_5_mv_audit(quick: bool = False, seed: int = DEFAULT_SEED, workers: int = 1):
    """Exact binomial tails dominate the (1/15, 16) lower bound everywhere."""
    t0 = time.perf_counter()
    m_max = 64 if quick else 200
    report = constructions.verify_mv_bound(m_max)
    detail = (
        f"m <= {m_max}: {report.pairs_checked} (m,t) pairs, {len(report.violations)} violations, "
        f"min slack {report.min_slack:.6f} at {report.min_slack_at}"
    )
    return _result(5, "mv-audit", report.ok, detail, t0)


def criterion_6_inverse_bound_instance(quick: bool = False, seed: int = DEFAULT_SEED, workers: int = 1):
    """The worked inverse-bound instance: N=64, K=1, eps = e^-1/15."""
    t0 = time.perf_counter()
    eps = math.exp(-1.0) / 15.0
    res = bounds.mv_threshold(bounds.HorizonParams(N=64, K=1, epsilon=eps))
    tail = constructions.block_deviation_tail(64, 1, res.threshold)
    exact = constructions.binomial_upper_tail_exact(64, 34)
    passed = (
        res.valid
        and abs(res.threshold - 4.0) <= 1e-9
        and abs(tail - float(exact)) <= 1e-12
        and tail >= eps
    )
    detail = (
        f"threshold {res.threshold!r} (valid={res.valid}), tail P(Z>=34) = {tail:.6f} "
        f"= {exact}, >= eps = {eps:.6f}"
    )
    return _result(6, "inverse-bound-instance", passed, detail, t0)


def _map_instances(one, n: int, workers: int) -> list:
    """`one(i)` for i in range(n), in instance order; threaded when workers > 1."""
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(one, range(n)))
    return [one(i) for i in range(n)]


def _deviation_rows(n_trees: int, seed: int, workers: int) -> list[dict]:
    eps_grid = (0.05, 0.3, 0.69)

    def one(i: int) -> dict:
        pick = np.random.default_rng(derive_seed(seed, 7, i))
        depth = int(pick.integers(4, 11))
        branching = int(pick.integers(2, 4))
        lag = int(pick.integers(1, 4))
        eps = float(eps_grid[int(pick.integers(0, len(eps_grid)))])
        tree, seq = random_tree(depth, branching, derive_seed(seed, 7, i, 1))
        check = verify_deviation_bound(tree, seq, lag, eps)
        one_sided = exact_tail(tree, seq, lag, check.threshold, sided="upper")
        return {
            "instance": i,
            "depth": depth,
            "leaves": tree.node_counts[-1],
            "K": lag,
            "epsilon": eps,
            "threshold": check.threshold,
            "two_sided_tail": check.tail,
            "one_sided_tail": one_sided,
            "ok": bool(check.holds and one_sided < eps / 2.0),
        }

    return _map_instances(one, n_trees, workers)


def criterion_7_deviation_suite(quick: bool = False, seed: int = DEFAULT_SEED, workers: int = 1):
    """Random trees never breach the two-sided bound, nor eps/2 one-sided."""
    t0 = time.perf_counter()
    n_trees = 100 if quick else 1000
    rows = _deviation_rows(n_trees, seed, workers)
    bad = [r for r in rows if not r["ok"]]
    csv = format_csv(
        rows,
        ["instance", "depth", "leaves", "K", "epsilon", "threshold", "two_sided_tail", "one_sided_tail", "ok"],
        {"criterion": 7, "trees": n_trees, "seed": seed},
    )
    detail = f"{n_trees} random trees, violations: {len(bad)}"
    return _result(7, "deviation-bound-suite", not bad, detail, t0, artifact=csv)


def _mc_rows(n_instances: int, trials: int, seed: int, workers: int) -> list[dict]:
    rows = []
    for i in range(n_instances):
        pick = np.random.default_rng(derive_seed(seed, 8, i))
        if i % 2 == 0:
            m = 2 * int(pick.integers(2, 33))
            lag = int(pick.choice([1, 2, 4]))
            N = m * lag
            C = float(pick.choice([0.5, 1.0, 1.5])) * math.sqrt(lag * N)
            exact = constructions.block_deviation_tail(N, lag, C)
            sampler = block_deviation_sampler(N, lag)
            sided = "upper"
            kind = f"block(N={N},K={lag})"
        else:
            depth = int(pick.integers(5, 9))
            lag = int(pick.integers(1, 4))
            tree, seq = random_tree(depth, int(pick.integers(2, 4)), derive_seed(seed, 8, i, 1))
            spread = float(np.quantile(np.abs(deviation_per_leaf(tree, seq, lag)), 0.9))
            C = spread if spread > 0 else 0.5
            exact = exact_tail(tree, seq, lag, C, sided="two_sided")
            sampler = tree_deviation_sampler(tree, seq, lag)
            sided = "two_sided"
            kind = f"tree(depth={depth},K={lag})"
        est = mc_tail(
            sampler, C, sided=sided, trials=trials, seed=derive_seed(seed, 8, i, 2), workers=workers
        )
        rows.append(
            {
                "instance": i,
                "kind": kind,
                "C": C,
                "exact": exact,
                "p_hat": est.p_hat,
                "ci_low": est.ci_low,
                "ci_high": est.ci_high,
                "contained": est.contains(exact),
            }
        )
    return rows


def criterion_8_mc_coverage(quick: bool = False, seed: int = DEFAULT_SEED, workers: int = 1):
    """Exact tails sit inside the Monte Carlo 99% intervals (coverage test)."""
    t0 = time.perf_counter()
    n_instances, trials, need = (12, 20_000, 11) if quick else (50, 100_000, 47)
    rows = _mc_rows(n_instances, trials, seed, workers)
    contained = sum(1 for r in rows if r["contained"])
    csv = format_csv(
        rows,
        ["instance", "kind", "C", "exact", "p_hat", "ci_low", "ci_high", "contained"],
        {"criterion": 8, "instances": n_instances, "trials": trials, "seed": seed},
    )
    detail = f"{contained}/{n_instances} intervals contain the exact tail (need >= {need})"
    return _result(8, "mc-coverage", contained >= need, detail, t0, artifact=csv)


def _corollary_rows(n_trees: int, seed: int, workers: int) -> list[dict]:
    eps_grid = (0.1, 0.3, 0.69)

    def one(i: int) -> dict:
        pick = np.random.default_rng(derive_seed(seed, 9, i))
        n_steps = int(pick.integers(2, 5))
        horizon = int(pick.integers(1, 3))
        depth = n_steps + horizon
        tree, _ = random_tree(depth, int(pick.integers(2, 4)), derive_seed(seed, 9, i, 1))
        n_dec = int(pick.integers(2, 4))
        space = DecisionSpace(labels=tuple(f"d{j}" for j in range(n_dec)))
        counts = tree.node_counts
        loss_rng = np.random.default_rng(derive_seed(seed, 9, i, 2))
        tables = tuple(
            tuple(loss_rng.uniform(0.0, 1.0, size=counts[n + horizon]) for _ in range(n_dec))
            for n in range(1, n_steps + 1)
        )
        loss = LossSpec(space=space, horizon=horizon, tables=tables)
        if i % 2 == 0:
            alt = random_strategy(tree, loss, derive_seed(seed, 9, i, 3))
            alt_kind = "random"
        else:
            alt = adversarial_strategy(tree, loss)
            alt_kind = "adversarial"

        bayes = bayesian_strategy(tree, loss)
        dominance_ok = True
        for n in range(1, n_steps + 1):
            per_d = np.stack([expected_losses(tree, loss, n, d) for d in range(n_dec)])
            chosen = per_d[bayes.choices[n - 1], np.arange(counts[n])]
            if np.any(chosen > per_d.min(axis=0) + 1e-12):
                dominance_ok = False
        shift = shifted_deviation_check(tree, loss, alt)
        regret_ok = True
        worst_margin = math.inf
        for eps in eps_grid:
            thr = bounds.deviation_threshold(
                bounds.HorizonParams(N=n_steps, K=horizon, epsilon=eps)
            )
            tail = regret_tail(tree, loss, alt, thr)
            worst_margin = min(worst_margin, eps / 2.0 - tail)
            if not tail < eps / 2.0:
                regret_ok = False
        return {
            "instance": i,
            "steps": n_steps,
            "K": horizon,
            "decisions": n_dec,
            "alt": alt_kind,
            "dominance_ok": dominance_ok,
            "shift_ok": shift.passed,
            "regret_ok": regret_ok,
            "worst_margin": worst_margin,
            "ok": bool(dominance_ok and shift.passed and regret_ok),
        }

    return _map_instances(one, n_trees, workers)


def criterion_9_corollary_suite(quick: bool = False, seed: int = DEFAULT_SEED, workers: int = 1):
    """Bayesian dominance, the shifted-sequence checks, and the regret tail bound."""
    t0 = time.perf_counter()
    n_trees = 60 if quick else 500
    rows = _corollary_rows(n_trees, seed, workers)
    bad = [r for r in rows if not r["ok"]]
    csv = format_csv(
        rows,
        ["instance", "steps", "K", "decisions", "alt", "dominance_ok", "shift_ok", "regret_ok", "worst_margin", "ok"],
        {"criterion": 9, "trees": n_trees, "seed": seed},
    )
    detail = f"{n_trees} decision trees, violations: {len(bad)}"
    return _result(9, "regret-bound-suite", not bad, detail, t0, artifact=csv)


def criterion_10_determinism(
    prior: list[CriterionResult], quick: bool = False, seed: int = DEFAULT_SEED, workers: int = 1
):
    """This run's criterion 7-9 artifacts (`prior`, made at `workers`) recur at another worker count."""
    t0 = time.perf_counter()
    given = {r.number: r.artifact for r in prior}
    other = 1 if workers > 1 else 3
    # Resolved at call time, so wrappers installed on this module see the reruns.
    reruns = {7: criterion_7_deviation_suite, 8: criterion_8_mc_coverage, 9: criterion_9_corollary_suite}
    same = [fn(quick=quick, seed=seed, workers=other).artifact == given[n] for n, fn in reruns.items()]
    passed = all(same)
    detail = f"criteria 7-9 rerun with {workers} vs {other} workers: byte-identical = {same}"
    return _result(10, "determinism", passed, detail, t0)


CRITERIA = {
    1: criterion_1_min_imbalance,
    2: criterion_2_imbalance_limit,
    3: criterion_3_epsilon_cutoff,
    4: criterion_4_dominance_chain,
    5: criterion_5_mv_audit,
    6: criterion_6_inverse_bound_instance,
    7: criterion_7_deviation_suite,
    8: criterion_8_mc_coverage,
    9: criterion_9_corollary_suite,
    10: criterion_10_determinism,
}


def run_all(quick: bool = False, seed: int = DEFAULT_SEED, workers: int = 1):
    """Criteria 1-9 in order, then criterion 10 on this run's criterion 7-9 results."""
    results = [CRITERIA[n](quick=quick, seed=seed, workers=workers) for n in range(1, 10)]
    results.append(CRITERIA[10](results[6:9], quick=quick, seed=seed, workers=workers))
    return results
