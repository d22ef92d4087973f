import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kstep_lln.constructions import block_deviation_tail
from kstep_lln.treefile import TreeFileError, bundle_from_dict
from kstep_lln.trees import (
    AdaptedSequence,
    ProbabilityTree,
    block_process_tree,
    conditional_expectation,
    deviation_per_leaf,
    exact_tail,
    random_tree,
    verify_deviation_bound,
)


def two_level_tree():
    """Root splits (0.25, 0.75); children split (0.5, 0.5) and (0.1, 0.9)."""
    return ProbabilityTree(
        parents=(np.array([0, 0]), np.array([0, 0, 1, 1])),
        branch_probs=(np.array([0.25, 0.75]), np.array([0.5, 0.5, 0.1, 0.9])),
    )


def path_sums(tree, seq):
    """Per-leaf sums of the raw values (no conditional-mean subtraction)."""
    acc = np.zeros(1)
    for d in range(1, seq.n_steps + 1):
        acc = acc[tree.parents[d - 1]] + seq.values[d - 1]
    return acc


class TestProbabilityTree:
    def test_rejects_bad_probability_sums(self):
        with pytest.raises(ValueError, match="sum"):
            ProbabilityTree(parents=(np.array([0, 0]),), branch_probs=(np.array([0.5, 0.6]),))

    def test_rejects_nonpositive_probabilities(self):
        with pytest.raises(ValueError, match="positive"):
            ProbabilityTree(parents=(np.array([0, 0]),), branch_probs=(np.array([1.0, 0.0]),))

    @pytest.mark.parametrize("bad, message", [(math.nan, "positive"), (math.inf, "sum to")])
    def test_rejects_non_finite_probabilities(self, bad, message):
        with pytest.raises(ValueError, match=message):
            ProbabilityTree(parents=(np.array([0, 0]),), branch_probs=(np.array([0.5, bad]),))

    def test_rejects_dangling_parent(self):
        with pytest.raises(ValueError, match="parent"):
            ProbabilityTree(
                parents=(np.array([0, 0]), np.array([0, 5])),
                branch_probs=(np.array([0.5, 0.5]), np.array([1.0, 1.0])),
            )

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ProbabilityTree(parents=(), branch_probs=())

    def test_node_probabilities(self):
        tree = two_level_tree()
        assert tree.depth == 2
        assert tree.node_counts == (1, 2, 4)
        np.testing.assert_allclose(tree.node_probabilities(1), [0.25, 0.75])
        np.testing.assert_allclose(tree.node_probabilities(tree.depth), [0.125, 0.125, 0.075, 0.675])
        assert math.fsum(tree.node_probabilities(tree.depth).tolist()) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("excess, ok", [(9e-13, False), (4e-13, True)])
    def test_leaf_total_backstops_per_parent_sums(self, excess, ok):
        # Every parent's sum is within 1e-12 of 1, but over 2000 levels the
        # excess compounds to a leaf total of about 1 + 2000 * excess.
        depth = 2000
        parents = (np.zeros(1, dtype=np.int64),) * depth
        probs = (np.array([1.0 + excess]),) * depth
        if ok:
            assert ProbabilityTree(parents=parents, branch_probs=probs).depth == depth
        else:
            with pytest.raises(ValueError, match="leaf probabilities sum to"):
                ProbabilityTree(parents=parents, branch_probs=probs)

    def test_rejects_depth_out_of_range(self):
        with pytest.raises(ValueError):
            two_level_tree().node_probabilities(3)

    def test_leaf_probabilities_are_cached_read_only(self):
        tree = two_level_tree()
        probs = tree.node_probabilities(2)
        assert tree.node_probabilities(tree.depth) is probs
        with pytest.raises(ValueError, match="read-only"):
            probs[0] = 0.5
        np.testing.assert_allclose(tree.node_probabilities(2), [0.125, 0.125, 0.075, 0.675])


def binary_levels(depth):
    """Mutable (parents, probs) lists of a uniform binary tree; depth 13 has 8192 leaves."""
    parents = [np.repeat(np.arange(2 ** (d - 1)), 2) for d in range(1, depth + 1)]
    probs = [np.full(2**d, 0.5) for d in range(1, depth + 1)]
    return parents, probs


def tree_doc(parents, probs, values=None):
    doc = {
        "depth": len(parents),
        "nodes": [
            [{"parent": int(p), "prob": float(q)} for p, q in zip(par, pr)]
            for par, pr in zip(parents, probs)
        ],
    }
    if values is not None:
        doc["Y"] = [v.tolist() for v in values]
    return doc


# (tree depth, faulty depth): depth 1, the deepest level of a small tree, and
# a level of 8192 entries, above the size that validation reduces in groups.
FAULT_PLACES = [(5, 1), (5, 5), (13, 1), (13, 13)]
SUM_11 = repr(np.float64(0.5) + 0.6)  # the message shows the numpy scalar's repr


class TestConstructionMessages:
    """One fault per input; the message names where it is, directly and via a tree file."""

    @staticmethod
    def assert_rejected(parents, probs, message):
        with pytest.raises(ValueError) as direct:
            ProbabilityTree(parents=tuple(parents), branch_probs=tuple(probs))
        assert str(direct.value) == message
        with pytest.raises(TreeFileError) as via_file:
            bundle_from_dict(tree_doc(parents, probs))
        assert str(via_file.value) == f"invalid tree: {message}"

    @pytest.mark.parametrize("depth, at", FAULT_PLACES)
    @pytest.mark.parametrize("bad", [0.0, -0.5])
    def test_non_positive_probability(self, depth, at, bad):
        parents, probs = binary_levels(depth)
        probs[at - 1][-1] = bad
        self.assert_rejected(parents, probs, f"depth {at}: branch probabilities must be positive")

    @pytest.mark.parametrize("depth, at", FAULT_PLACES)
    def test_parent_sum_off_one(self, depth, at):
        parents, probs = binary_levels(depth)
        probs[at - 1][-1] = 0.6
        last = 2 ** (at - 1) - 1
        self.assert_rejected(
            parents, probs, f"depth {at}: branch probabilities at parent {last} sum to {SUM_11}"
        )

    @pytest.mark.parametrize("depth, at", FAULT_PLACES)
    @pytest.mark.parametrize("where", ["negative", "past the end"])
    def test_parent_index_out_of_range(self, depth, at, where):
        parents, probs = binary_levels(depth)
        parents[at - 1][-1] = -1 if where == "negative" else 2 ** (at - 1)
        self.assert_rejected(parents, probs, f"depth {at}: parent index out of range")

    def test_shallower_value_fault_is_reported_before_a_deeper_structural_one(self):
        parents, probs = binary_levels(13)
        probs[2][0] = 0.0
        parents[12][-1] = 5000
        self.assert_rejected(parents, probs, "depth 3: branch probabilities must be positive")
        parents, probs = binary_levels(13)
        probs[2][-1] = 0.6
        probs[12][0] = 0.0
        self.assert_rejected(
            parents, probs, f"depth 3: branch probabilities at parent 3 sum to {SUM_11}"
        )

    @pytest.mark.parametrize("step_count, at", FAULT_PLACES)
    @pytest.mark.parametrize("bad", [1.5, -2.0, math.nan])
    def test_value_out_of_bounds(self, step_count, at, bad):
        parents, probs = binary_levels(step_count)
        values = [np.zeros(2**n) for n in range(1, step_count + 1)]
        values[at - 1][-1] = bad
        message = f"step {at}: values must be finite and bounded by 1 in absolute value"
        with pytest.raises(ValueError) as direct:
            AdaptedSequence(values=tuple(values))
        assert str(direct.value) == message
        if not math.isnan(bad):  # JSON has no NaN
            with pytest.raises(TreeFileError) as via_file:
                bundle_from_dict(tree_doc(parents, probs, values))
            assert str(via_file.value) == f"invalid Y values: {message}"

    @pytest.mark.parametrize(
        "s", [1.0 - 1e-12, math.nextafter(1.0 - 1e-12, 0.0), math.nextafter(1.0 + 1e-12, 0.0),
              1.0 + 1e-12, math.nextafter(1.0 + 1e-12, 2.0)],
    )
    def test_sum_tolerance_boundary_is_abs_difference(self, s):
        # A parent sum s passes exactly when abs(s - 1.0) <= 1e-12 in floats.
        args = dict(parents=(np.array([0]),), branch_probs=(np.array([s]),))
        if abs(s - 1.0) <= 1e-12:
            assert ProbabilityTree(**args).node_counts == (1, 1)
        else:
            with pytest.raises(ValueError, match="sum to"):
                ProbabilityTree(**args)


class TestMalformedArrays:
    @pytest.mark.parametrize(
        "parents, probs, message",
        [
            ((np.array([0.0, 0.0]),), (np.array([0.5, 0.5]),), "parents must be a 1-D integer array"),
            (([0, 0],), (np.array([0.5, 0.5]),), "parents must be a 1-D integer array"),
            ((np.array([[0, 0]]),), (np.array([0.5, 0.5]),), "parents must be a 1-D integer array"),
            ((np.array([0, 0]),), ([0.5, 0.5],), "branch probabilities must be a 1-D array"),
            ((np.array([0, 0]),), (np.array([[0.5, 0.5]]),), "branch probabilities must be a 1-D array"),
        ],
    )
    def test_tree_levels(self, parents, probs, message):
        with pytest.raises(ValueError) as err:
            ProbabilityTree(parents=(np.array([0]),) + parents, branch_probs=(np.array([1.0]),) + probs)
        assert str(err.value) == f"depth 2: {message}"

    @pytest.mark.parametrize("bad", [np.array([[0.1, 0.2]]), [0.1, 0.2]])
    def test_sequence_steps(self, bad):
        with pytest.raises(ValueError) as err:
            AdaptedSequence(values=(np.array([0.5]), bad))
        assert str(err.value) == "step 2: values must be a 1-D array"


class TestAdaptedSequence:
    def test_rejects_values_above_one(self):
        with pytest.raises(ValueError, match="bounded by 1"):
            AdaptedSequence(values=(np.array([0.5, 1.5]),))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_values(self, bad):
        with pytest.raises(ValueError, match="finite"):
            AdaptedSequence(values=(np.array([0.5, bad]),))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            AdaptedSequence(values=())

    def test_empty_step_passes_the_bound(self):
        assert AdaptedSequence(values=(np.array([0.5]), np.array([]))).n_steps == 2


class TestConditionalExpectation:
    def test_balanced_signs_average_to_zero_at_root(self):
        tree, _ = block_process_tree(2, 1)
        seq = AdaptedSequence(values=(np.array([1.0, -1.0]), np.array([1.0, -1.0, 1.0, -1.0])))
        for n in (1, 2):
            out = conditional_expectation(tree, seq, n, lag=5)
            assert out.shape == (1,)
            assert out[0] == pytest.approx(0.0, abs=1e-15)

    def test_constants_are_predictable(self):
        tree = two_level_tree()
        seq = AdaptedSequence(values=(np.array([0.2, 0.2]), np.full(4, 0.7)))
        out = conditional_expectation(tree, seq, 2, lag=1)
        np.testing.assert_allclose(out, [0.7, 0.7], atol=1e-15)

    def test_leaf_probability_dot_product_by_hand(self):
        # leaves (0.125, 0.125, 0.075, 0.675) dot (1, -1, 1, -1) = -0.6
        tree = two_level_tree()
        seq = AdaptedSequence(values=(np.zeros(2), np.array([1.0, -1.0, 1.0, -1.0])))
        out = conditional_expectation(tree, seq, 2, lag=2)
        assert out.shape == (1,)
        assert out[0] == pytest.approx(-0.6, abs=1e-15)

    def test_rejects_step_out_of_range(self):
        tree = two_level_tree()
        seq = AdaptedSequence(values=(np.zeros(2), np.zeros(4)))
        with pytest.raises(ValueError, match="step n"):
            conditional_expectation(tree, seq, 3, lag=1)
        with pytest.raises(ValueError, match="lag"):
            conditional_expectation(tree, seq, 2, lag=0)

    @given(st.integers(0, 10_000), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_tower_property(self, seed, lag):
        tree, seq = random_tree(depth=5, max_branching=3, seed=seed)
        for n in (1, 3, 5):
            d = max(n - lag, 0)
            cond = conditional_expectation(tree, seq, n, lag)
            averaged = float(np.dot(tree.node_probabilities(d), cond))
            plain = float(np.dot(tree.node_probabilities(n), seq.values[n - 1]))
            assert averaged == pytest.approx(plain, abs=1e-9)

    def test_lag_past_start_gives_root_mean(self):
        tree, seq = random_tree(depth=4, max_branching=3, seed=11)
        for n in (1, 2, 3):
            out = conditional_expectation(tree, seq, n, lag=n + 2)
            assert out.shape == (1,)
            plain = float(np.dot(tree.node_probabilities(n), seq.values[n - 1]))
            assert out[0] == pytest.approx(plain, abs=1e-12)


class TestDeviationPerLeaf:
    @given(st.integers(0, 10_000), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_matches_sum_of_conditional_expectations(self, seed, lag):
        # Reference: push every Y_n - E(Y_n | F_{n-lag}) down to the leaves.
        tree, seq = random_tree(depth=5, max_branching=3, seed=seed)
        ref = np.zeros(tree.node_counts[-1])
        for n in range(1, seq.n_steps + 1):
            cond = conditional_expectation(tree, seq, n, lag)
            for d in range(max(n - lag, 0) + 1, n + 1):
                cond = cond[tree.parents[d - 1]]
            term = seq.values[n - 1] - cond
            for d in range(n + 1, seq.n_steps + 1):
                term = term[tree.parents[d - 1]]
            ref += term
        np.testing.assert_allclose(deviation_per_leaf(tree, seq, lag), ref, atol=1e-12)

    def test_zero_process(self):
        tree = two_level_tree()
        seq = AdaptedSequence(values=(np.zeros(2), np.zeros(4)))
        np.testing.assert_allclose(deviation_per_leaf(tree, seq, 1), np.zeros(4), atol=1e-15)

    def test_fresh_signs_reduce_to_plain_sums(self):
        # One new fair sign per step: all lag-1 conditional means vanish,
        # so the deviation is just the path sum of the signs.
        tree, seq = block_process_tree(6, 1)
        dev = deviation_per_leaf(tree, seq, 1)
        np.testing.assert_allclose(dev, path_sums(tree, seq), atol=1e-12)

    def test_block_pair_enumeration(self):
        tree, seq = block_process_tree(4, 2)
        dev = deviation_per_leaf(tree, seq, 2)
        assert sorted(dev.tolist()) == [-4.0, 0.0, 0.0, 4.0]
        np.testing.assert_allclose(tree.node_probabilities(tree.depth), np.full(4, 0.25))

    def test_computed_once_per_tree_and_lag_and_read_only(self, monkeypatch):
        import kstep_lln.trees as trees_mod

        tree, seq = random_tree(depth=6, max_branching=3, seed=11)
        pulls = []
        real = trees_mod._pull_back

        def counted(*args):
            pulls.append(args)
            return real(*args)

        monkeypatch.setattr(trees_mod, "_pull_back", counted)
        check = verify_deviation_bound(tree, seq, 2, 0.3)
        exact_tail(tree, seq, 2, check.threshold, sided="upper")
        dev = deviation_per_leaf(tree, seq, 2)
        assert len(pulls) == seq.n_steps  # one backward induction per step, one pass in all
        assert deviation_per_leaf(tree, seq, 2) is dev
        assert not dev.flags.writeable
        with pytest.raises(ValueError):
            dev[0] = 0.0
        # Another lag, or another tree, is a new computation with its own value.
        other = deviation_per_leaf(tree, seq, 1)
        assert other is not dev and len(pulls) == 2 * seq.n_steps
        twin = ProbabilityTree(parents=tree.parents, branch_probs=tree.branch_probs)
        again = deviation_per_leaf(twin, seq, 2)
        assert again is not dev and len(pulls) == 3 * seq.n_steps
        np.testing.assert_array_equal(again, dev)


class TestExactTail:
    def test_zero_process_upper_at_zero(self):
        tree = two_level_tree()
        seq = AdaptedSequence(values=(np.zeros(2), np.zeros(4)))
        assert exact_tail(tree, seq, 1, 0.0, sided="upper") == 1.0

    def test_block_pair_upper_tail(self):
        tree, seq = block_process_tree(4, 2)
        assert exact_tail(tree, seq, 2, 4.0, sided="upper") == 0.25

    def test_beyond_range_is_zero(self):
        tree, seq = random_tree(depth=4, max_branching=2, seed=3)
        assert exact_tail(tree, seq, 2, 2 * 4 + 0.5) == 0.0

    def test_rejects_unknown_sided(self):
        tree, seq = random_tree(depth=2, max_branching=2, seed=3)
        with pytest.raises(ValueError, match="sided"):
            exact_tail(tree, seq, 1, 0.5, sided="lower")

    @pytest.mark.parametrize("C", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_threshold(self, C):
        tree, seq = random_tree(depth=2, max_branching=2, seed=3)
        for sided in ("two_sided", "upper"):
            with pytest.raises(ValueError, match="must be finite"):
                exact_tail(tree, seq, 1, C, sided=sided)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_monotone_nonincreasing_in_threshold(self, seed):
        tree, seq = random_tree(depth=5, max_branching=3, seed=seed)
        tails = [exact_tail(tree, seq, 2, C) for C in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0)]
        assert all(a >= b for a, b in zip(tails, tails[1:]))

    @given(st.integers(1, 8), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_reproduces_exact_binomial_on_block_trees(self, m, K):
        tree, seq = block_process_tree(m * K, K)
        for q in (0.0, 0.5, 1.0, 1.7):
            C = q * math.sqrt(K * m * K)
            engine = exact_tail(tree, seq, K, C, sided="upper")
            closed = block_deviation_tail(m * K, K, C)
            assert engine == pytest.approx(closed, abs=1e-12)

    def test_centered_sequences_match_plain_sum_tails(self):
        # Build a sequence with vanishing lagged conditional means by
        # centering and halving; the deviation tail must equal the tail of
        # the plain sum.
        lag = 2
        tree, raw = random_tree(depth=5, max_branching=3, seed=77)
        centered = []
        for n in range(1, raw.n_steps + 1):
            cond = conditional_expectation(tree, raw, n, lag)
            d = max(n - lag, 0)
            pushed = cond
            for dd in range(d + 1, n + 1):
                pushed = pushed[tree.parents[dd - 1]]
            centered.append(0.5 * (raw.values[n - 1] - pushed))
        seq = AdaptedSequence(values=tuple(centered))
        for n in range(1, seq.n_steps + 1):
            assert np.max(np.abs(conditional_expectation(tree, seq, n, lag))) < 1e-12
        sums = path_sums(tree, seq)
        probs = tree.node_probabilities(tree.depth)
        for C in (0.1, 0.4, 0.9):
            expected = math.fsum(probs[np.abs(sums) >= C].tolist())
            assert exact_tail(tree, seq, lag, C) == pytest.approx(expected, abs=1e-12)


class TestVerifyDeviationBound:
    def test_vacuous_regime_holds_with_zero_tail(self):
        # Threshold above 2N forces an empty tail event.
        tree, seq = random_tree(depth=3, max_branching=2, seed=1)
        check = verify_deviation_bound(tree, seq, 2, 0.05)
        assert check.threshold > 2 * seq.n_steps
        assert check.tail == 0.0
        assert check.holds

    def test_block_instance(self):
        tree, seq = block_process_tree(6, 1)
        check = verify_deviation_bound(tree, seq, 1, 0.2)
        assert check.holds
        assert check.tail < 0.2

    @given(st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_bound_holds_on_random_trees(self, seed):
        tree, seq = random_tree(depth=6, max_branching=3, seed=seed)
        for lag in (1, 3):
            for eps in (0.05, 0.69):
                check = verify_deviation_bound(tree, seq, lag, eps)
                assert check.holds
                one = exact_tail(tree, seq, lag, check.threshold, sided="upper")
                assert one < eps / 2


class TestGenerators:
    @given(st.integers(0, 100_000))
    @settings(max_examples=100, deadline=None)
    def test_random_tree_invariants(self, seed):
        # Construction runs the full validator; touch the leaf mass too.
        tree, seq = random_tree(depth=4, max_branching=3, seed=seed)
        assert abs(math.fsum(tree.node_probabilities(tree.depth).tolist()) - 1.0) < 1e-9
        assert seq.n_steps == tree.depth

    def test_random_tree_deterministic(self):
        t1, s1 = random_tree(5, 3, seed=8)
        t2, s2 = random_tree(5, 3, seed=8)
        for a, b in zip(t1.branch_probs, t2.branch_probs):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(s1.values, s2.values):
            np.testing.assert_array_equal(a, b)

    def test_single_step_tree(self):
        tree, seq = random_tree(1, 2, seed=0)
        assert tree.node_counts == (1, 2)

    def test_random_tree_rejects_bad_args(self):
        with pytest.raises(ValueError):
            random_tree(0, 2, seed=0)
        with pytest.raises(ValueError):
            random_tree(3, 1, seed=0)

    def test_block_tree_structure(self):
        tree, seq = block_process_tree(6, 3)
        assert tree.node_counts == (1, 2, 2, 2, 4, 4, 4)
        # deviation equals K * (sum of block signs) read off the leaf index bits
        dev = deviation_per_leaf(tree, seq, 3)
        signs = {0: (1, 1), 1: (1, -1), 2: (-1, 1), 3: (-1, -1)}
        for leaf, (s1, s2) in signs.items():
            assert dev[leaf] == pytest.approx(3 * (s1 + s2), abs=1e-12)

    def test_block_tree_rejects_ragged(self):
        with pytest.raises(ValueError):
            block_process_tree(7, 2)
