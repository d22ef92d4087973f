"""Acceptance suite: one test per criterion, each printing its verdict line.

Runs the full (publication-scale) tier of the verification runner that
also backs `kstep-lln verify-all --full`.
"""

import csv
import dataclasses

import pytest

from kstep_lln import verify


@pytest.fixture(scope="module")
def seed():
    return verify.DEFAULT_SEED


def report(result):
    print(result.line())
    assert result.passed, result.detail
    return result


def test_criterion_1_min_imbalance_constant(seed):
    # minimum over m <= 10^4 is exactly 7/64, attained at m = 6
    report(verify.criterion_1_min_imbalance(quick=False, seed=seed))


def test_criterion_2_imbalance_gaussian_limit(seed):
    # imbalance probability at m = 10^6 within 0.002 of the survival value at 1
    report(verify.criterion_2_imbalance_limit(quick=False, seed=seed))


def test_criterion_3_epsilon_cutoff_location(seed):
    # closing condition true on 0.01..0.70 grid, false at 0.71
    report(verify.criterion_3_epsilon_cutoff(quick=False, seed=seed))


def test_criterion_4_bound_chain_dominance(seed):
    # exact <= relaxed <= midpoint on 200 triples; midpoint discharge < eps/2
    report(verify.criterion_4_dominance_chain(quick=False, seed=seed))


def test_criterion_5_lower_bound_audit(seed):
    # zero violations of the (1/15, 16) lower bound up to m = 200
    report(verify.criterion_5_mv_audit(quick=False, seed=seed))


def test_criterion_6_inverse_bound_instance(seed):
    # (N=64, K=1, eps=e^-1/15): threshold 4, valid, tail >= eps, exact arithmetic
    report(verify.criterion_6_inverse_bound_instance(quick=False, seed=seed))


@pytest.fixture(scope="module")
def criterion_7(seed):
    return verify.criterion_7_deviation_suite(quick=False, seed=seed, workers=1)


@pytest.fixture(scope="module")
def criterion_8(seed):
    return verify.criterion_8_mc_coverage(quick=False, seed=seed, workers=1)


@pytest.fixture(scope="module")
def criterion_9(seed):
    return verify.criterion_9_corollary_suite(quick=False, seed=seed, workers=1)


def test_criterion_7_deviation_bound_on_random_trees(criterion_7):
    # 1000 seeded trees: two-sided tail < eps, one-sided < eps/2, at threshold
    report(criterion_7)


def test_criterion_8_monte_carlo_oracle_equivalence(criterion_8):
    # >= 47 of 50 exact tails inside their 99% intervals at 10^5 trials
    report(criterion_8)


def test_criterion_8_artifact_rows_parse_to_its_header(criterion_8):
    # the kind cell, block(N=..,K=..), holds a comma and must come back as one field
    header, *rows = csv.reader(criterion_8.artifact.splitlines()[1:])
    assert len(rows) == 50 and all(len(row) == len(header) for row in rows)
    assert {row[1].split("(")[0] for row in rows} == {"block", "tree"}


def test_criterion_9_regret_bound_suite(criterion_9):
    # 500 decision trees: dominance, shifted-sequence checks, regret tails
    report(criterion_9)


def test_criterion_10_thread_count_determinism(seed, criterion_7, criterion_8, criterion_9):
    # rerunning criteria 7-9 with 3 workers reproduces the artifacts of the
    # 1-worker results above byte for byte
    result = report(
        verify.criterion_10_determinism([criterion_7, criterion_8, criterion_9], quick=False, seed=seed)
    )
    assert result.detail == "criteria 7-9 rerun with 1 vs 3 workers: byte-identical = [True, True, True]"


def test_criterion_10_fails_on_one_changed_artifact_byte(seed):
    prior = [
        verify.criterion_7_deviation_suite(quick=True, seed=seed),
        verify.criterion_8_mc_coverage(quick=True, seed=seed),
        verify.criterion_9_corollary_suite(quick=True, seed=seed),
    ]
    art = prior[1].artifact
    i = len(art) - 2  # the last character of the last row
    flipped = art[:i] + ("0" if art[i] != "0" else "1") + art[i + 1:]
    assert len(flipped.encode()) == len(art.encode()) and flipped != art
    prior[1] = dataclasses.replace(prior[1], artifact=flipped)
    result = verify.criterion_10_determinism(prior, quick=True, seed=seed)
    assert not result.passed
    assert result.detail.endswith("byte-identical = [True, False, True]")
