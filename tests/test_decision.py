import gc
import itertools
import math
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kstep_lln import decision
from kstep_lln.bounds import HorizonParams, deviation_threshold
from kstep_lln.decision import (
    DecisionSpace,
    LossSpec,
    Strategy,
    adversarial_strategy,
    bayesian_strategy,
    expected_losses,
    random_strategy,
    regret_tail,
    shifted_deviation_check,
    shifted_sequence,
)
from kstep_lln.treefile import TreeBundle, TreeFileError, bundle_from_dict, bundle_to_dict
from kstep_lln.trees import ProbabilityTree, exact_tail, random_tree


def uniform_binary_tree(depth):
    parents, probs = [], []
    n = 1
    for _ in range(depth):
        parents.append(np.repeat(np.arange(n), 2))
        probs.append(np.full(2 * n, 0.5))
        n *= 2
    return ProbabilityTree(parents=tuple(parents), branch_probs=tuple(probs))


def realized_totals(tree, loss, strategy):
    """Realized N-step total loss per depth-(N+K) node (read-only), as `regret_tail` compares them."""
    return decision._problem(tree, loss).realized(loss, strategy)[2]


def random_loss(tree, n_steps, horizon, n_decisions, seed):
    rng = np.random.default_rng(seed)
    counts = tree.node_counts
    return LossSpec(
        space=DecisionSpace(tuple(f"d{i}" for i in range(n_decisions))),
        horizon=horizon,
        tables=tuple(
            tuple(rng.uniform(0, 1, size=counts[n + horizon]) for _ in range(n_decisions))
            for n in range(1, n_steps + 1)
        ),
    )


class TestValidation:
    def test_decision_space(self):
        with pytest.raises(ValueError):
            DecisionSpace(())
        with pytest.raises(ValueError):
            DecisionSpace(("a", "a"))

    def test_loss_range(self):
        tree = uniform_binary_tree(2)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            LossSpec(
                space=DecisionSpace(("a",)),
                horizon=1,
                tables=((np.array([0.5, 1.2, 0.0, 0.1]),),),
            )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_losses(self, bad):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            LossSpec(
                space=DecisionSpace(("a",)),
                horizon=1,
                tables=((np.array([0.5, bad, 0.0, 0.1]),),),
            )

    def test_tree_too_shallow(self):
        tree = uniform_binary_tree(2)
        loss = random_loss(uniform_binary_tree(3), 2, 1, 2, seed=0)
        with pytest.raises(ValueError, match="too shallow"):
            bayesian_strategy(tree, loss)


def two_decision_tables(n_steps):
    """Horizon-1 loss tables of 0.5 on a binary tree: step n has 2^(n+1) entries."""
    return [[np.full(2 ** (n + 1), 0.5) for _ in range(2)] for n in range(1, n_steps + 1)]


class TestValidationMessages:
    """One fault per input, at the first step, the last, and in an array of 8192 entries."""

    @pytest.mark.parametrize("n_steps, at, d", [(4, 1, 0), (4, 4, 1), (12, 1, 1), (12, 12, 1)])
    # The range is exact: 1e-12 outside [0, 1] is refused.
    @pytest.mark.parametrize("bad", [1.5, -0.25, math.nan, 1.000000000001, -1e-12])
    def test_loss_out_of_range(self, n_steps, at, d, bad):
        tables = two_decision_tables(n_steps)
        tables[at - 1][d][-1] = bad
        message = f"step {at}, decision {d}: losses must lie in [0, 1]"
        with pytest.raises(ValueError) as direct:
            LossSpec(space=DecisionSpace(("a", "b")), horizon=1, tables=tuple(map(tuple, tables)))
        assert str(direct.value) == message
        if math.isnan(bad):  # JSON has no NaN
            return
        doc = bundle_to_dict(TreeBundle(tree=uniform_binary_tree(n_steps + 1)))
        doc["losses"] = {
            "decisions": ["a", "b"],
            "impact_horizon": 1,
            "tables": [[tab.tolist() for tab in per_decision] for per_decision in tables],
        }
        with pytest.raises(TreeFileError) as via_file:
            bundle_from_dict(doc)
        assert str(via_file.value) == f"invalid losses block: {message}"

    @pytest.mark.parametrize("n_steps, at", [(4, 1), (4, 4), (13, 1), (13, 13)])
    @pytest.mark.parametrize("bad", [2, -1])
    def test_decision_index_out_of_range(self, n_steps, at, bad):
        tree = uniform_binary_tree(n_steps + 1)
        loss = LossSpec(
            space=DecisionSpace(("a", "b")),
            horizon=1,
            tables=tuple(map(tuple, two_decision_tables(n_steps))),
        )
        choices = [np.zeros(2**n, dtype=np.int64) for n in range(1, n_steps + 1)]
        choices[at - 1][-1] = bad
        with pytest.raises(ValueError) as err:
            regret_tail(tree, loss, Strategy(choices=tuple(choices)), 0.0)
        assert str(err.value) == f"step {at}: decision index out of range"


    def test_dtype_fault_is_reported_before_a_shallower_range_fault(self):
        tables = two_decision_tables(2)
        tables[0][0][0] = 1.5
        tables[1][1] = tables[1][1].astype(complex)
        with pytest.raises(ValueError) as err:
            LossSpec(space=DecisionSpace(("a", "b")), horizon=1, tables=tuple(map(tuple, tables)))
        assert str(err.value) == "step 2, decision 1: losses must be a 1-D real array"
        tree = uniform_binary_tree(3)
        loss = random_loss(tree, 2, 1, 2, seed=0)
        with pytest.raises(ValueError) as err:
            regret_tail(tree, loss, Strategy(choices=(np.array([2, 0]), np.zeros(4))), 0.0)
        assert str(err.value) == "step 2: choices must be a 1-D integer array"


class TestMalformedInputs:
    @pytest.mark.parametrize(
        "horizon, shown",
        [
            (1.5, "1.5"), (True, "True"), (0, "0"), (np.int64(0), "0"),
            (np.float64(1.0), "np.float64(1.0)"),
        ],
    )
    def test_horizon_must_be_a_positive_int(self, horizon, shown):
        with pytest.raises(ValueError) as err:
            LossSpec(space=DecisionSpace(("a",)), horizon=horizon, tables=((np.full(4, 0.5),),))
        assert str(err.value) == f"impact horizon must be a positive integer, got {shown}"

    @pytest.mark.parametrize("bad", [np.full((1, 4), 0.5), [0.5] * 4])
    def test_tables_must_be_1d_arrays(self, bad):
        with pytest.raises(ValueError) as err:
            LossSpec(space=DecisionSpace(("a", "b")), horizon=1, tables=((np.full(4, 0.5), bad),))
        assert str(err.value) == "step 1, decision 1: losses must be a 1-D real array"

    @pytest.mark.parametrize(
        "bad",
        [np.full(4, 0.5 + 0.5j), np.full(4, "0.5"), np.full(4, 0.5, dtype=object)],
        ids=["complex", "string", "object"],
    )
    def test_tables_must_be_real(self, bad):
        with pytest.raises(ValueError) as err:
            LossSpec(space=DecisionSpace(("a", "b")), horizon=1, tables=((np.full(4, 0.5), bad),))
        assert str(err.value) == "step 1, decision 1: losses must be a 1-D real array"

    @pytest.mark.parametrize(
        "space, tables, message",
        [
            (("a",), (), "loss spec must cover at least one step"),
            (("a", "b"), ((np.full(4, 0.5),),), "step 1: expected 2 decision tables"),
        ],
    )
    def test_loss_spec_shape(self, space, tables, message):
        with pytest.raises(ValueError) as err:
            LossSpec(space=DecisionSpace(space), horizon=1, tables=tables)
        assert str(err.value) == message

    def test_loss_table_must_fit_its_depth(self):
        loss = LossSpec(space=DecisionSpace(("a",)), horizon=1, tables=((np.full(3, 0.5),),))
        with pytest.raises(ValueError) as err:
            bayesian_strategy(uniform_binary_tree(2), loss)
        assert str(err.value) == "step 1, decision 0: 3 losses for 4 depth-2 nodes"

    @pytest.mark.parametrize(
        "choices, message",
        [
            ((np.zeros(2, dtype=int),), "strategy covers 1 steps, losses 2"),
            ((np.zeros(3, dtype=int), np.zeros(4, dtype=int)), "step 1: 3 choices for 2 depth-1 nodes"),
        ],
    )
    def test_strategy_must_fit_the_problem(self, choices, message):
        tree = uniform_binary_tree(3)
        loss = random_loss(tree, 2, 1, 2, seed=0)
        with pytest.raises(ValueError) as err:
            regret_tail(tree, loss, Strategy(choices=choices), 0.0)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "bad", [np.zeros(4), np.zeros((1, 4), dtype=int), np.zeros(4, dtype=bool), [0, 0, 0, 0]]
    )
    def test_choices_must_be_1d_integer_arrays(self, bad):
        tree = uniform_binary_tree(3)
        loss = random_loss(tree, 2, 1, 2, seed=0)
        with pytest.raises(ValueError) as err:
            regret_tail(tree, loss, Strategy(choices=(np.zeros(2, dtype=int), bad)), 0.0)
        assert str(err.value) == "step 2: choices must be a 1-D integer array"


class TestExpectedLoss:
    def test_constant_tables(self):
        tree = uniform_binary_tree(3)
        loss = LossSpec(
            space=DecisionSpace(("a", "b")),
            horizon=1,
            tables=tuple(
                (np.full(tree.node_counts[n + 1], 0.3), np.full(tree.node_counts[n + 1], 0.8))
                for n in (1, 2)
            ),
        )
        np.testing.assert_allclose(expected_losses(tree, loss, 1, 0), [0.3, 0.3], atol=1e-15)
        np.testing.assert_allclose(expected_losses(tree, loss, 2, 1), np.full(4, 0.8), atol=1e-15)

    def test_two_leaf_average(self):
        tree = uniform_binary_tree(2)
        loss = LossSpec(
            space=DecisionSpace(("a",)),
            horizon=1,
            tables=((np.array([0.0, 1.0, 0.0, 1.0]),),),
        )
        np.testing.assert_allclose(expected_losses(tree, loss, 1, 0), [0.5, 0.5], atol=1e-15)

    def test_three_branch_dot_product(self):
        # probs (0.2, 0.3, 0.5) against losses (1, 0, 0.4) -> 0.4
        tree = ProbabilityTree(
            parents=(np.array([0]), np.array([0, 0, 0])),
            branch_probs=(np.array([1.0]), np.array([0.2, 0.3, 0.5])),
        )
        loss = LossSpec(
            space=DecisionSpace(("a",)), horizon=1, tables=((np.array([1.0, 0.0, 0.4]),),)
        )
        assert expected_losses(tree, loss, 1, 0)[0] == pytest.approx(0.4, abs=1e-15)

    def test_index_validation(self):
        tree = uniform_binary_tree(2)
        loss = random_loss(tree, 1, 1, 2, seed=1)
        with pytest.raises(ValueError):
            expected_losses(tree, loss, 2, 0)
        with pytest.raises(ValueError):
            expected_losses(tree, loss, 1, 5)


class TestBayesianStrategy:
    def test_ties_go_to_first_decision(self):
        tree = uniform_binary_tree(2)
        tab = np.full(4, 0.5)
        loss = LossSpec(
            space=DecisionSpace(("a", "b", "c")),
            horizon=1,
            tables=((tab.copy(), tab.copy(), tab.copy()),),
        )
        bayes = bayesian_strategy(tree, loss)
        assert np.all(bayes.choices[0] == 0)

    def test_picks_smaller_expected_loss(self):
        tree = uniform_binary_tree(2)
        loss = LossSpec(
            space=DecisionSpace(("a", "b")),
            horizon=1,
            tables=((np.full(4, 0.3), np.full(4, 0.7)),),
        )
        assert np.all(bayesian_strategy(tree, loss).choices[0] == 0)

    def test_exhaustive_strategy_enumeration(self):
        # Depth-3 binary tree, two steps with one-step impact, two decisions:
        # 2^(2+4) rival strategies; the per-node dominance inequality must
        # hold against all of them, at every node, and so must the expected
        # total loss ordering.
        tree = uniform_binary_tree(3)
        loss = random_loss(tree, 2, 1, 2, seed=2024)
        bayes = bayesian_strategy(tree, loss)
        cond = {
            n: np.stack([expected_losses(tree, loss, n, d) for d in (0, 1)]) for n in (1, 2)
        }
        probs = tree.node_probabilities(tree.depth)
        bayes_expected_total = float(np.dot(probs, realized_totals(tree, loss, bayes)))
        counts = tree.node_counts
        for bits1 in itertools.product((0, 1), repeat=counts[1]):
            for bits2 in itertools.product((0, 1), repeat=counts[2]):
                rival = Strategy(
                    choices=(np.array(bits1, dtype=int), np.array(bits2, dtype=int))
                )
                for n in (1, 2):
                    mine = cond[n][bayes.choices[n - 1], np.arange(counts[n])]
                    theirs = cond[n][rival.choices[n - 1], np.arange(counts[n])]
                    assert np.all(mine <= theirs + 1e-12)
                rival_total = float(np.dot(probs, realized_totals(tree, loss, rival)))
                assert bayes_expected_total <= rival_total + 1e-12

    def test_reordering_decisions_moves_the_tie_break(self):
        tree = uniform_binary_tree(2)
        rng = np.random.default_rng(5)
        tab = rng.uniform(0, 1, size=4)
        # two identical decisions under different orderings
        loss_ab = LossSpec(
            space=DecisionSpace(("a", "b")), horizon=1, tables=((tab, tab.copy()),)
        )
        assert np.all(bayesian_strategy(tree, loss_ab).choices[0] == 0)
        other = rng.uniform(0, 1, size=4)
        loss_mixed = LossSpec(
            space=DecisionSpace(("a", "b")), horizon=1, tables=((other, tab),)
        )
        loss_swapped = LossSpec(
            space=DecisionSpace(("b", "a")), horizon=1, tables=((tab, other),)
        )
        orig = bayesian_strategy(tree, loss_mixed).choices[0]
        swapped = bayesian_strategy(tree, loss_swapped).choices[0]
        # same decisions, permuted indices: choices flip 0 <-> 1 wherever
        # the expected losses differ
        np.testing.assert_array_equal(orig, 1 - swapped)


class TestTotalLoss:
    def test_zero_losses(self):
        tree = uniform_binary_tree(3)
        loss = LossSpec(
            space=DecisionSpace(("a",)),
            horizon=1,
            tables=tuple((np.zeros(tree.node_counts[n + 1]),) for n in (1, 2)),
        )
        strat = Strategy(choices=(np.zeros(2, int), np.zeros(4, int)))
        np.testing.assert_allclose(realized_totals(tree, loss, strat), np.zeros(8), atol=1e-15)

    def test_single_step(self):
        tree = uniform_binary_tree(2)
        loss = LossSpec(
            space=DecisionSpace(("a",)),
            horizon=1,
            tables=((np.array([0.25, 0.5, 0.75, 1.0]),),),
        )
        strat = Strategy(choices=(np.zeros(2, int),))
        assert realized_totals(tree, loss, strat)[0] == 0.25

    def test_two_step_table_lookups_by_hand(self):
        tree = uniform_binary_tree(3)
        rng = np.random.default_rng(9)
        t1 = (rng.uniform(0, 1, 4), rng.uniform(0, 1, 4))
        t2 = (rng.uniform(0, 1, 8), rng.uniform(0, 1, 8))
        loss = LossSpec(space=DecisionSpace(("a", "b")), horizon=1, tables=(t1, t2))
        strat = Strategy(
            choices=(np.array([0, 1]), np.array([1, 0, 0, 1]))
        )
        # Leaf 5 = binary 101: depth-1 ancestor 1, depth-2 ancestor 2.
        # Step 1 decision at node 1 is 1, loss read at depth-2 node 2;
        # step 2 decision at node 2 is 0, loss read at depth-3 node 5.
        expected = t1[1][2] + t2[0][5]
        assert realized_totals(tree, loss, strat)[5] == pytest.approx(expected, abs=1e-15)

    @given(st.integers(0, 5000))
    @settings(max_examples=50, deadline=None)
    def test_loss_range_bounds(self, seed):
        tree, _ = random_tree(4, 3, seed=seed)
        loss = random_loss(tree, 2, 2, 2, seed=seed + 1)
        strat = random_strategy(tree, loss, seed=seed + 2)
        totals = realized_totals(tree, loss, strat)
        assert np.all(totals >= 0.0) and np.all(totals <= 2.0 + 1e-12)


class TestRegretTail:
    def test_zero_against_itself(self):
        tree = uniform_binary_tree(3)
        loss = random_loss(tree, 2, 1, 2, seed=11)
        bayes = bayesian_strategy(tree, loss)
        assert regret_tail(tree, loss, bayes, 1e-9) == 0.0

    def test_zero_beyond_loss_range(self):
        tree = uniform_binary_tree(3)
        loss = random_loss(tree, 2, 1, 2, seed=12)
        alt = random_strategy(tree, loss, seed=13)
        assert regret_tail(tree, loss, alt, loss.n_steps + 0.1) == 0.0

    @pytest.mark.parametrize("C", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_threshold(self, C):
        tree = uniform_binary_tree(3)
        loss = random_loss(tree, 2, 1, 2, seed=14)
        with pytest.raises(ValueError, match="must be finite"):
            regret_tail(tree, loss, adversarial_strategy(tree, loss), C)

    @given(st.integers(0, 2000))
    @settings(max_examples=60, deadline=None)
    def test_bounded_by_threshold_guarantee(self, seed):
        tree, _ = random_tree(4, 3, seed=seed)
        loss = random_loss(tree, 2, 2, 3, seed=seed + 1)
        alt = adversarial_strategy(tree, loss)
        for eps in (0.1, 0.3, 0.69):
            thr = deviation_threshold(HorizonParams(N=2, K=2, epsilon=eps))
            assert regret_tail(tree, loss, alt, thr) < eps / 2


class TestShiftedSequence:
    def test_identical_strategies_give_zero_sequence(self):
        tree = uniform_binary_tree(3)
        loss = random_loss(tree, 2, 1, 2, seed=21)
        bayes = bayesian_strategy(tree, loss)
        seq = shifted_sequence(tree, loss, bayes)
        assert all(np.allclose(v, 0.0) for v in seq.values)
        report = shifted_deviation_check(tree, loss, bayes)
        assert report.passed
        assert report.max_sum_identity_error < 1e-15

    def test_decision_independent_losses_give_zero_sequence(self):
        tree = uniform_binary_tree(3)
        rng = np.random.default_rng(22)
        shared = tuple(rng.uniform(0, 1, size=tree.node_counts[n + 1]) for n in (1, 2))
        loss = LossSpec(
            space=DecisionSpace(("a", "b")),
            horizon=1,
            tables=tuple((t, t.copy()) for t in shared),
        )
        alt = random_strategy(tree, loss, seed=23)
        seq = shifted_sequence(tree, loss, alt)
        assert all(np.allclose(v, 0.0) for v in seq.values)

    @staticmethod
    def dyadic_problem():
        """Two steps at K = 1; decision b costs 0.5 more below depth-1 node 1 at step 1, else a tie.

        Every loss and sum is a dyadic rational, so the reports' values are exact.
        """
        tree = uniform_binary_tree(3)
        loss = LossSpec(
            space=DecisionSpace(("a", "b")),
            horizon=1,
            tables=(
                (np.full(4, 0.25), np.array([0.25, 0.25, 0.75, 0.75])),
                (np.full(8, 0.25), np.full(8, 0.25)),
            ),
        )
        always_b = Strategy(choices=(np.ones(2, dtype=int), np.ones(4, dtype=int)))
        return tree, loss, always_b

    def test_reports_a_non_dominant_strategy_in_the_bayesian_slot(self):
        tree, loss, always_b = self.dyadic_problem()
        bayes = bayesian_strategy(tree, loss)
        prob = decision._problem(tree, loss)
        prob.bayes = (always_b, *prob._realize(loss.horizon, always_b))
        report = shifted_deviation_check(tree, loss, bayes)
        assert report.failures == ("conditional mean 0.5 > 0 at step 1, depth-1 node 1",)
        assert (report.max_conditional_mean, report.max_sum_identity_error) == (0.5, 0.0)

    def test_reports_realized_totals_off_their_path_sums(self):
        tree, loss, always_b = self.dyadic_problem()
        prob = decision._problem(tree, loss)
        bayes, steps, totals = prob.bayes
        off = totals.copy()
        off[5] += 0.5
        prob.bayes = (bayes, steps, off)
        report = shifted_deviation_check(tree, loss, always_b)
        assert report.failures == ("path sum differs from realized regret by 0.5 at leaf 5",)
        assert (report.max_conditional_mean, report.max_sum_identity_error) == (0.0, 0.5)

    @given(st.integers(0, 3000))
    @settings(max_examples=100, deadline=None)
    def test_checks_pass_on_random_instances(self, seed):
        tree, _ = random_tree(4, 3, seed=seed)
        loss = random_loss(tree, 2, 2, 2, seed=seed + 1)
        alt = random_strategy(tree, loss, seed=seed + 2)
        report = shifted_deviation_check(tree, loss, alt)
        assert report.passed, report.failures
        assert report.max_conditional_mean <= 1e-9

    @given(st.integers(0, 2000))
    @settings(max_examples=40, deadline=None)
    def test_one_sided_deviation_tail_within_budget(self, seed):
        tree, _ = random_tree(5, 2, seed=seed)
        loss = random_loss(tree, 3, 2, 2, seed=seed + 1)
        alt = adversarial_strategy(tree, loss)
        seq = shifted_sequence(tree, loss, alt)
        for eps in (0.1, 0.69):
            thr = deviation_threshold(HorizonParams(N=3, K=2, epsilon=eps))
            assert exact_tail(tree, seq, 2, thr, sided="upper") < eps / 2


class TestBaselines:
    def test_adversarial_maximizes_per_node(self):
        tree = uniform_binary_tree(3)
        loss = random_loss(tree, 2, 1, 2, seed=31)
        adv = adversarial_strategy(tree, loss)
        bayes = bayesian_strategy(tree, loss)
        for n in (1, 2):
            table = np.stack([expected_losses(tree, loss, n, d) for d in (0, 1)])
            idx = np.arange(tree.node_counts[n])
            assert np.all(table[adv.choices[n - 1], idx] >= table[bayes.choices[n - 1], idx])

    def test_random_strategy_is_deterministic_per_seed(self):
        tree = uniform_binary_tree(3)
        loss = random_loss(tree, 2, 1, 3, seed=32)
        a = random_strategy(tree, loss, seed=7)
        b = random_strategy(tree, loss, seed=7)
        assert all(np.array_equal(x, y) for x, y in zip(a.choices, b.choices))


def decision_results(tree, loss, alt):
    """Every cached quantity of (tree, loss), as plain values for comparison."""
    bayes = bayesian_strategy(tree, loss)
    return {
        "expected": [
            expected_losses(tree, loss, n, d).tolist()
            for n in range(1, loss.n_steps + 1)
            for d in range(len(loss.space))
        ],
        "bayes": [c.tolist() for c in bayes.choices],
        "adversarial": [c.tolist() for c in adversarial_strategy(tree, loss).choices],
        "bayes_totals": realized_totals(tree, loss, bayes).tolist(),
        "alt_totals": realized_totals(tree, loss, alt).tolist(),
        "shift": shifted_deviation_check(tree, loss, alt),
        "tails": [regret_tail(tree, loss, alt, C) for C in (0.0, 0.25, 0.5, 1.0)],
    }


def fresh(loss):
    """The same loss tables in a new spec, which has nothing cached yet."""
    return LossSpec(space=loss.space, horizon=loss.horizon, tables=loss.tables)


class TestCachedQuantities:
    def test_repeated_calls_agree(self):
        tree, _ = random_tree(4, 3, seed=41)
        loss = random_loss(tree, 2, 2, 3, seed=42)
        alt = random_strategy(tree, loss, seed=43)
        assert bayesian_strategy(tree, loss) is bayesian_strategy(tree, loss)
        first = decision_results(tree, loss, alt)
        assert decision_results(tree, loss, alt) == first
        assert first == decision_results(tree, fresh(loss), alt)

    def test_cached_arrays_are_read_only(self):
        tree, _ = random_tree(4, 2, seed=44)
        loss = random_loss(tree, 2, 1, 2, seed=45)
        alt = random_strategy(tree, loss, seed=46)
        bayes = bayesian_strategy(tree, loss)
        arrays = [
            expected_losses(tree, loss, 1, 0),
            realized_totals(tree, loss, alt),
            realized_totals(tree, loss, bayes),
            bayes.choices[0],
            tree.node_probabilities(tree.depth),
        ]
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0
        assert decision_results(tree, loss, alt) == decision_results(tree, fresh(loss), alt)

    def test_each_strategy_validated_once(self, monkeypatch):
        # Patched before the first call on the pair: the rival is validated
        # once across the criterion-9 call pattern, and the Bayesian
        # strategy, built with the problem, never.
        tree, _ = random_tree(4, 3, seed=51)
        loss = random_loss(tree, 2, 2, 3, seed=52)
        checked = []
        check = decision._check_strategy
        monkeypatch.setattr(
            decision, "_check_strategy", lambda t, l, s: (checked.append(s), check(t, l, s))[1]
        )
        alt = random_strategy(tree, loss, seed=53)
        decision_results(tree, loss, alt)
        decision_results(tree, loss, alt)
        assert [id(s) for s in checked] == [id(alt)]

    def test_dropped_trees_and_rivals_are_collected(self):
        # A long-lived loss spec keeps only the last tree's problem and the
        # last rival, so trees and strategies dropped after use are freed.
        loss = random_loss(uniform_binary_tree(3), 2, 1, 2, seed=54)
        refs = []
        for seed in range(5):
            tree, _ = random_tree(3, 2, seed=seed)
            for k in range(3):
                alt = random_strategy(tree, loss, seed=10 * seed + k)
                decision_results(tree, loss, alt)
                refs.append(weakref.ref(alt))
            refs.append(weakref.ref(tree))
        del tree, alt
        last = uniform_binary_tree(3)
        decision_results(last, loss, random_strategy(last, loss, seed=99))
        gc.collect()
        assert [r() for r in refs] == [None] * len(refs)

    def test_one_loss_spec_across_trees(self):
        # Same-shaped binary trees with different probabilities share one
        # loss spec; each must get its own results.  Trees built and dropped
        # in a loop may also reuse an earlier tree's id.
        first = uniform_binary_tree(3)
        loss = random_loss(first, 2, 1, 2, seed=47)
        alt = random_strategy(first, loss, seed=48)
        before = decision_results(first, loss, alt)
        for seed in range(6):
            tree, _ = random_tree(3, 2, seed=seed)
            got = decision_results(tree, loss, alt)
            assert got == decision_results(tree, fresh(loss), alt)
            assert got["expected"] != before["expected"]
        assert decision_results(first, loss, alt) == before

    def test_threads_filling_one_pair_agree(self):
        tree, _ = random_tree(5, 3, seed=49)
        base = random_loss(tree, 3, 2, 3, seed=50)
        alt = adversarial_strategy(tree, base)
        expected = decision_results(tree, fresh(base), alt)
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                loss = fresh(base)  # every round races on empty caches
                barrier = threading.Barrier(4)
                results = [None] * 4

                def work(k):
                    barrier.wait(timeout=30)
                    results[k] = decision_results(tree, loss, alt)

                threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                assert results == [expected] * 4
        finally:
            sys.setswitchinterval(old_interval)
