"""End-to-end verification suite: every headline claim, checked numerically.

Each criterion is a standalone function returning a `CriterionResult`; the
CLI `verify-all` command and the test suite both run them.  The full tier
runs at publication scale; the quick tier shrinks grids and trial counts
(and, where a tolerance is tied to scale, relaxes it accordingly).  Each
criterion takes only what it reads: criteria 3 and 6 take nothing, 1, 2, 4
and 5 the tier (`quick`), and 7-10 the tier and the master `seed`.

Criteria 7-9 also emit CSV artifacts, one row per instance.  Every random
choice of an instance is keyed off (master seed, criterion, instance), and
a Monte Carlo trial's draws off its own index, so no instance may depend
on another or on the order they run in.  Criterion 10 checks exactly that:
it rebuilds every criterion 7-9 instance in reverse order, last instance
first, and compares the result byte for byte with this run's artifacts.
State that one instance leaves behind for the next, such as a cache keyed
on less than the instance's inputs, changes the rows in one order and not
in the other.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import numpy as np

from . import DEFAULT_SEED, bounds, constructions
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
from .sampling import block_deviation_sampler, derive_seed
from .sampling import mc_tail, tree_deviation_sampler
from .trees import deviation_per_leaf, exact_tail, random_tree, verify_deviation_bound

__all__ = ["CriterionResult", "DEFAULT_SEED", "run_all"]


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


def criterion_1_min_imbalance(quick: bool = False):
    """Smallest sqrt(m)-imbalance probability is 7/64, at m = 6."""
    t0 = time.perf_counter()
    m_max = 200 if quick else 10_000
    m_star, p_star = constructions.min_imbalance_prob(m_max)
    exact = constructions.imbalance_prob_exact(m_star)
    target = Fraction(7, 64)
    # p_star is the correctly rounded exact tail, so check the float path here.
    rel = abs(constructions.imbalance_prob(m_star) - float(target)) / float(target)
    passed = m_star == 6 and exact == target and rel <= 1e-12
    detail = f"min over m<={m_max} is {p_star!r} at m={m_star}; rational path {exact}; float-path rel err {rel:.2e}"
    return _result(1, "min-imbalance", passed, detail, t0)


def criterion_2_imbalance_limit(quick: bool = False):
    """Large-m imbalance probability approaches the Gaussian survival value at 1."""
    t0 = time.perf_counter()
    m, tol = (10_000, 0.005) if quick else (1_000_000, 0.002)
    p = constructions.imbalance_prob(m)
    limit = bounds.gaussian_survival(1.0)
    diff = abs(p - limit)
    passed = diff <= tol
    detail = f"imbalance_prob({m}) = {p:.6f}, |diff from {limit:.6f}| = {diff:.2e} <= {tol}"
    return _result(2, "imbalance-limit", passed, detail, t0)


def criterion_3_epsilon_cutoff():
    """The x = 2 closing condition holds on (0, 0.70] and fails at 0.71."""
    t0 = time.perf_counter()
    grid_ok = all(bounds.suitable_x_check(i / 100.0, 2.0) for i in range(1, 71))
    above = bounds.suitable_x_check(0.71, 2.0)
    passed = grid_ok and not above
    detail = f"true on eps = 0.01..0.70 (step 0.01): {grid_ok}; false at 0.71: {not above}"
    return _result(3, "epsilon-cutoff", passed, detail, t0)


def criterion_4_dominance_chain(quick: bool = False):
    """Exact <= relaxed <= midpoint on a parameter grid; midpoint discharge < eps/2."""
    t0 = time.perf_counter()
    ks = [1, 2, 3, 4, 5]
    ms = [2, 4, 8, 16, 32]
    ratios = [0.25, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 12.0]
    if quick:
        ks, ms, ratios = [1, 2, 4], [2, 8, 32], [0.5, 1.0, 3.0, 8.0]
    rows = bounds.dominance_rows(ks, ms, ratios)
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


def criterion_5_mv_audit(quick: bool = False):
    """Exact binomial tails dominate the (1/15, 16) lower bound everywhere."""
    t0 = time.perf_counter()
    m_max = 64 if quick else 200
    report = constructions.verify_mv_bound(m_max)
    detail = (
        f"m <= {m_max}: {report.pairs_checked} (m,t) pairs, {len(report.violations)} violations, "
        f"min slack {report.min_slack:.6f} at {report.min_slack_at}"
    )
    return _result(5, "mv-audit", report.ok, detail, t0)


def criterion_6_inverse_bound_instance():
    """The worked inverse-bound instance: N=64, K=1, eps = e^-1/15."""
    t0 = time.perf_counter()
    eps = math.exp(-1.0) / 15.0
    res = bounds.mv_threshold(bounds.HorizonParams(N=64, K=1, epsilon=eps))
    # The tail at the lattice point the threshold certifies (within
    # mv_threshold's integer tolerance), not at a float an ulp off it.
    tail = constructions.block_deviation_tail(64, 1, round(res.threshold))
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


def _deviation_row(seed: int, i: int) -> dict:
    """Criterion 7, instance i: a seeded random tree checked at its threshold."""
    eps_grid = (0.05, 0.3, 0.69)
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


def criterion_7_deviation_suite(quick: bool = False, seed: int = DEFAULT_SEED):
    """Random trees never breach the two-sided bound, nor eps/2 one-sided."""
    t0 = time.perf_counter()
    row, n_trees, config = _seeded_suites(quick, seed)[7]
    rows = [row(i) for i in range(n_trees)]
    bad = [r for r in rows if not r["ok"]]
    detail = f"{n_trees} random trees, violations: {len(bad)}"
    return _result(7, "deviation-bound-suite", not bad, detail, t0, artifact=format_csv(rows, config))


def _mc_row(seed: int, trials: int, i: int) -> dict:
    """Criterion 8, instance i: an exact tail against its Monte Carlo interval."""
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
    est = mc_tail(sampler, C, sided=sided, trials=trials, seed=derive_seed(seed, 8, i, 2))
    return {
        "instance": i,
        "kind": kind,
        "C": C,
        "exact": exact,
        "p_hat": est.p_hat,
        "ci_low": est.ci_low,
        "ci_high": est.ci_high,
        "contained": est.contains(exact),
    }


def criterion_8_mc_coverage(quick: bool = False, seed: int = DEFAULT_SEED):
    """Exact tails sit inside the Monte Carlo 99% intervals (coverage test)."""
    t0 = time.perf_counter()
    row, n_instances, config = _seeded_suites(quick, seed)[8]
    need = 11 if quick else 47
    rows = [row(i) for i in range(n_instances)]
    contained = sum(1 for r in rows if r["contained"])
    detail = f"{contained}/{n_instances} intervals contain the exact tail (need >= {need})"
    return _result(8, "mc-coverage", contained >= need, detail, t0, artifact=format_csv(rows, config))


def _corollary_row(seed: int, i: int) -> dict:
    """Criterion 9, instance i: a seeded decision tree with random losses."""
    eps_grid = (0.1, 0.3, 0.69)
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
        tuple(loss_rng.random(counts[n + horizon]) for _ in range(n_dec))
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
        per_d = np.array([expected_losses(tree, loss, n, d) for d in range(n_dec)])
        chosen = per_d[bayes.choices[n - 1], np.arange(counts[n])]
        if (chosen > per_d.min(axis=0) + 1e-12).any():
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


def criterion_9_corollary_suite(quick: bool = False, seed: int = DEFAULT_SEED):
    """Bayesian dominance, the shifted-sequence checks, and the regret tail bound."""
    t0 = time.perf_counter()
    row, n_trees, config = _seeded_suites(quick, seed)[9]
    rows = [row(i) for i in range(n_trees)]
    bad = [r for r in rows if not r["ok"]]
    detail = f"{n_trees} decision trees, violations: {len(bad)}"
    return _result(9, "regret-bound-suite", not bad, detail, t0, artifact=format_csv(rows, config))


def _seeded_suites(quick: bool, seed: int) -> dict:
    """Criteria 7-9, by number: (instance row builder, instance count, artifact config)."""
    n7, n8, n9, trials = (100, 12, 60, 20_000) if quick else (1000, 50, 500, 100_000)
    config_8 = {"criterion": 8, "instances": n8, "trials": trials, "seed": seed}
    return {
        7: (partial(_deviation_row, seed), n7, {"criterion": 7, "trees": n7, "seed": seed}),
        8: (partial(_mc_row, seed, trials), n8, config_8),
        9: (partial(_corollary_row, seed), n9, {"criterion": 9, "trees": n9, "seed": seed}),
    }


def criterion_10_determinism(prior: list[CriterionResult], quick: bool = False, seed: int = DEFAULT_SEED):
    """This run's criterion 7-9 artifacts (`prior`) recur with every instance rebuilt last first."""
    t0 = time.perf_counter()
    given = {r.number: r.artifact for r in prior}
    same = []
    for number, (row, n, config) in _seeded_suites(quick, seed).items():
        rows = [row(i) for i in reversed(range(n))]
        same.append(format_csv(rows[::-1], config) == given[number])
    detail = f"criteria 7-9 rebuilt in reverse instance order: byte-identical = {same}"
    return _result(10, "determinism", all(same), detail, t0)


def run_all(quick: bool = False, seed: int = DEFAULT_SEED):
    """Criteria 1-9 in order, then criterion 10 on this run's criterion 7-9 results."""
    # Resolved at call time, so wrappers installed on this module see every criterion.
    results = [
        criterion_1_min_imbalance(quick),
        criterion_2_imbalance_limit(quick),
        criterion_3_epsilon_cutoff(),
        criterion_4_dominance_chain(quick),
        criterion_5_mv_audit(quick),
        criterion_6_inverse_bound_instance(),
        criterion_7_deviation_suite(quick, seed),
        criterion_8_mc_coverage(quick, seed),
        criterion_9_corollary_suite(quick, seed),
    ]
    results.append(criterion_10_determinism(results[6:9], quick, seed))
    return results
