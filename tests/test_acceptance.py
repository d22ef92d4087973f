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


def test_criterion_1_min_imbalance_constant():
    # minimum over m <= 10^4 is exactly 7/64, attained at m = 6
    report(verify.criterion_1_min_imbalance(quick=False))


def test_criterion_2_imbalance_gaussian_limit():
    # imbalance probability at m = 10^6 within 0.002 of the survival value at 1
    report(verify.criterion_2_imbalance_limit(quick=False))


def test_criterion_3_epsilon_cutoff_location():
    # closing condition true on 0.01..0.70 grid, false at 0.71
    report(verify.criterion_3_epsilon_cutoff())


def test_criterion_4_bound_chain_dominance():
    # exact <= relaxed <= midpoint on 200 triples; midpoint discharge < eps/2
    report(verify.criterion_4_dominance_chain(quick=False))


def test_criterion_5_lower_bound_audit():
    # zero violations of the (1/15, 16) lower bound up to m = 200
    report(verify.criterion_5_mv_audit(quick=False))


def test_criterion_6_inverse_bound_instance():
    # (N=64, K=1, eps=e^-1/15): threshold 4, valid, tail >= eps, exact arithmetic
    report(verify.criterion_6_inverse_bound_instance())


@pytest.fixture(scope="module")
def criterion_7(seed):
    return verify.criterion_7_deviation_suite(quick=False, seed=seed)


@pytest.fixture(scope="module")
def criterion_8(seed):
    return verify.criterion_8_mc_coverage(quick=False, seed=seed)


@pytest.fixture(scope="module")
def criterion_9(seed):
    return verify.criterion_9_corollary_suite(quick=False, seed=seed)


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


def test_criterion_10_reverse_order_determinism(seed, criterion_7, criterion_8, criterion_9):
    # rebuilding every criterion 7-9 instance last first reproduces the
    # artifacts of the in-order results above byte for byte
    result = report(
        verify.criterion_10_determinism([criterion_7, criterion_8, criterion_9], quick=False, seed=seed)
    )
    assert result.detail == (
        "criteria 7-9 rebuilt in reverse instance order: byte-identical = [True, True, True]"
    )


def test_criterion_10_rebuilds_every_seeded_tree_in_reverse_order(monkeypatch):
    # criteria 7-9 build 100, 6 and 60 random trees in instance order;
    # criterion 10 builds each of them once more, each criterion's last first
    calls = []
    random_tree = verify.random_tree

    def recording(*args, **kwargs):
        calls.append(args)
        return random_tree(*args, **kwargs)

    monkeypatch.setattr(verify, "random_tree", recording)
    verify.run_all(quick=True)
    assert len(calls) == 2 * (100 + 6 + 60)
    first, rerun = calls[:166], calls[166:]
    assert rerun == first[:100][::-1] + first[100:106][::-1] + first[106:][::-1]


def test_criterion_10_fails_when_an_instance_reads_state_left_by_the_last(monkeypatch):
    # A one-slot cache keyed by (depth, branching), not by seed, hands an
    # instance the previous instance's tree whenever their shapes agree.
    # The in-order reruns repeat its wrong rows; the reverse order does not.
    slot = {}
    random_tree = verify.random_tree

    def leaky(depth, max_branching, seed):
        if (depth, max_branching) not in slot:
            slot.clear()
            slot[depth, max_branching] = random_tree(depth, max_branching, seed)
        return slot[depth, max_branching]

    monkeypatch.setattr(verify, "random_tree", leaky)
    assert not verify.run_all(quick=True)[9].passed


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
