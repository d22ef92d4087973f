import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kstep_lln.constructions import block_deviation_tail
from kstep_lln.decision import (
    DecisionSpace, LossSpec, _problem, bayesian_strategy, random_strategy,
)
from kstep_lln.sampling import tree_deviation_sampler
from kstep_lln.treefile import TreeFileError, bundle_from_dict
from kstep_lln.trees import (
    AdaptedSequence,
    ProbabilityTree,
    _pull_back,
    block_process_tree,
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
SUM_11 = repr(0.5 + 0.6)


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
    @pytest.mark.parametrize("bad", [0.0, -0.5, math.nan])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.float16])
    def test_non_positive_probability(self, depth, at, bad, dtype):
        # The positivity bound must not round to 0.0 in a narrower float dtype.
        parents, probs = binary_levels(depth)
        probs[at - 1] = probs[at - 1].astype(dtype)
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

    @pytest.mark.parametrize("at, bad", [(0, -1), (-1, 8192), (-1, 8190)])
    def test_pass_through_level_index_fault(self, at, bad):
        # Depth 14 passes each of 8192 nodes through, but for one index.
        parents, probs = binary_levels(13)
        parents.append(np.arange(8192))
        probs.append(np.ones(8192))
        parents[-1][at] = bad
        if bad == 8190:  # parent 8190 has two children, 8191 none
            message = "branch probabilities at parent 8190 sum to 2.0"
        else:
            message = "parent index out of range"
        self.assert_rejected(parents, probs, f"depth 14: {message}")

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

    def test_large_value_fault_is_reported_before_a_deeper_structural_one(self):
        # Depth 13 has 8192 nodes, above the size that validation reduces in groups.
        parents, probs = binary_levels(14)
        probs[12][0] = 0.0
        parents[13][-1] = 2**13
        self.assert_rejected(parents, probs, "depth 13: branch probabilities must be positive")

    def test_dtype_fault_is_reported_before_a_shallower_range_fault(self):
        with pytest.raises(ValueError) as err:
            AdaptedSequence(values=(np.array([1.5, 0.0]), np.zeros(4, dtype=complex)))
        assert str(err.value) == "step 2: values must be a 1-D real array"

    @pytest.mark.parametrize("step_count, at", FAULT_PLACES)
    @pytest.mark.parametrize(
        "bad", [1.5, -2.0, math.nan, math.nextafter(1.0, 2.0), -math.nextafter(1.0, 2.0)]
    )
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

    @pytest.mark.parametrize("depth, at", FAULT_PLACES)
    @pytest.mark.parametrize("fault", ["zero", "nan", "sum", "negative parent", "parent past the end"])
    def test_read_only_levels_get_the_same_message(self, depth, at, fault):
        # Large read-only levels are reduced by min and max.  A probability fault leaves
        # a level of fan-out 2, summed by columns; a parent fault leaves one for np.bincount.
        parents, probs = binary_levels(depth)
        if fault in ("zero", "nan", "sum"):
            probs[at - 1][-1] = {"zero": 0.0, "nan": math.nan, "sum": 0.6}[fault]
        else:
            parents[at - 1][-1] = -1 if fault == "negative parent" else 2 ** (at - 1)
        with pytest.raises(ValueError) as writeable:
            ProbabilityTree(parents=tuple(parents), branch_probs=tuple(probs))
        for a in (*parents, *probs):
            a.flags.writeable = False
        with pytest.raises(ValueError) as read_only:
            ProbabilityTree(parents=tuple(parents), branch_probs=tuple(probs))
        assert str(read_only.value) == str(writeable.value)

    @pytest.mark.parametrize("bad", [1.5, math.nan, -math.nextafter(1.0, 2.0)])
    def test_read_only_values_get_the_same_message(self, bad):
        values = [np.zeros(2**n) for n in range(1, 14)]
        values[12][-1] = bad
        for v in values:
            v.flags.writeable = False
        with pytest.raises(ValueError, match="^step 13: values must be finite"):
            AdaptedSequence(values=tuple(values))

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
            ((np.array([0, 0]),), ([0.5, 0.5],), "branch probabilities must be a 1-D real array"),
            (
                (np.array([0, 0]),),
                (np.array([[0.5, 0.5]]),),
                "branch probabilities must be a 1-D real array",
            ),
        ],
    )
    def test_tree_levels(self, parents, probs, message):
        with pytest.raises(ValueError) as err:
            ProbabilityTree(parents=(np.array([0]),) + parents, branch_probs=(np.array([1.0]),) + probs)
        assert str(err.value) == f"depth 2: {message}"

    @pytest.mark.parametrize(
        "parents, probs, message",
        [
            ((np.array([0, 0]),), (), "parents and branch_probs must cover the same depths"),
            (
                (np.array([0, 0]),),
                (np.array([1.0]),),
                "depth 1: parent and probability arrays differ in length",
            ),
            ((np.array([], dtype=int),), (np.array([]),), "depth 1: empty level"),
        ],
    )
    def test_tree_shape(self, parents, probs, message):
        with pytest.raises(ValueError) as err:
            ProbabilityTree(parents=parents, branch_probs=probs)
        assert str(err.value) == message

    def test_sequence_longer_than_the_tree(self):
        seq = AdaptedSequence(values=(np.zeros(2), np.zeros(4), np.zeros(4)))
        with pytest.raises(ValueError) as err:
            deviation_per_leaf(two_level_tree(), seq, 1)
        assert str(err.value) == "sequence has 3 steps but tree depth is 2"

    @pytest.mark.parametrize("bad", [np.array([[0.1, 0.2]]), [0.1, 0.2]])
    def test_sequence_steps(self, bad):
        with pytest.raises(ValueError) as err:
            AdaptedSequence(values=(np.array([0.5]), bad))
        assert str(err.value) == "step 2: values must be a 1-D real array"

    # Each would pass the range checks, or raise TypeError, if taken as it is: numpy
    # orders complex numbers by their real part first.
    NON_REAL = {
        "complex": np.array([0.5 + 0.9j, 0.5 - 0.9j]),
        "string": np.array(["0.5", "0.5"]),
        "object": np.array([0.5, 0.5], dtype=object),
    }

    @pytest.mark.parametrize("kind", NON_REAL)
    def test_branch_probabilities_must_be_real(self, kind):
        with pytest.raises(ValueError) as err:
            ProbabilityTree(
                parents=(np.array([0]), np.array([0, 0])),
                branch_probs=(np.array([1.0]), self.NON_REAL[kind]),
            )
        assert str(err.value) == "depth 2: branch probabilities must be a 1-D real array"

    @pytest.mark.parametrize("kind", NON_REAL)
    def test_sequence_values_must_be_real(self, kind):
        with pytest.raises(ValueError) as err:
            AdaptedSequence(values=(np.array([0.5]), self.NON_REAL[kind]))
        assert str(err.value) == "step 2: values must be a 1-D real array"

    @pytest.mark.parametrize("dtype", [bool, np.int8, np.uint16, np.float32])
    def test_other_real_dtypes_are_accepted(self, dtype):
        one = np.ones(1, dtype=dtype)
        assert ProbabilityTree(parents=(np.array([0]),), branch_probs=(one,)).node_counts == (1, 1)
        assert AdaptedSequence(values=(one,)).n_steps == 1


class TestAdaptedSequence:
    def test_rejects_values_above_one(self):
        with pytest.raises(ValueError, match="bounded by 1"):
            AdaptedSequence(values=(np.array([0.5, 1.5]),))

    def test_accepts_exactly_plus_and_minus_one(self):
        values = (np.array([1.0, -1.0]), np.array([1.0, -1.0, -1.0, 1.0]))
        assert AdaptedSequence(values=values).n_steps == 2
        parents, probs = binary_levels(2)
        bundle = bundle_from_dict(tree_doc(parents, probs, list(values)))
        assert [v.tolist() for v in bundle.sequence.values] == [v.tolist() for v in values]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_values(self, bad):
        with pytest.raises(ValueError, match="finite"):
            AdaptedSequence(values=(np.array([0.5, bad]),))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            AdaptedSequence(values=())

    def test_empty_step_passes_the_bound(self):
        assert AdaptedSequence(values=(np.array([0.5]), np.array([]))).n_steps == 2


class TestPullBack:
    # `_pull_back(tree, seq.values[n - 1], n, d)` is E(Y_n | F_d), one value per depth-d node.
    def test_balanced_signs_average_to_zero_at_root(self):
        tree, _ = block_process_tree(2, 1)
        seq = AdaptedSequence(values=(np.array([1.0, -1.0]), np.array([1.0, -1.0, 1.0, -1.0])))
        for n in (1, 2):
            out = _pull_back(tree, seq.values[n - 1], n, 0)
            assert out.shape == (1,)
            assert out[0] == pytest.approx(0.0, abs=1e-15)

    def test_constants_are_predictable(self):
        tree = two_level_tree()
        seq = AdaptedSequence(values=(np.array([0.2, 0.2]), np.full(4, 0.7)))
        out = _pull_back(tree, seq.values[1], 2, 1)
        np.testing.assert_allclose(out, [0.7, 0.7], atol=1e-15)

    def test_leaf_probability_dot_product_by_hand(self):
        # leaves (0.125, 0.125, 0.075, 0.675) dot (1, -1, 1, -1) = -0.6
        tree = two_level_tree()
        seq = AdaptedSequence(values=(np.zeros(2), np.array([1.0, -1.0, 1.0, -1.0])))
        out = _pull_back(tree, seq.values[1], 2, 0)
        assert out.shape == (1,)
        assert out[0] == pytest.approx(-0.6, abs=1e-15)

    @given(st.integers(0, 10_000), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_tower_property(self, seed, lag):
        tree, seq = random_tree(depth=5, max_branching=3, seed=seed)
        for n in (1, 3, 5):
            d = max(n - lag, 0)
            cond = _pull_back(tree, seq.values[n - 1], n, d)
            averaged = float(np.dot(tree.node_probabilities(d), cond))
            plain = float(np.dot(tree.node_probabilities(n), seq.values[n - 1]))
            assert averaged == pytest.approx(plain, abs=1e-9)
            root = _pull_back(tree, seq.values[n - 1], n, 0)
            assert root.shape == (1,)
            assert root[0] == pytest.approx(plain, abs=1e-12)


class TestDeviationPerLeaf:
    @given(st.integers(0, 10_000), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_matches_sum_of_conditional_expectations(self, seed, lag):
        # Reference: push every Y_n - E(Y_n | F_{n-lag}) down to the leaves.
        tree, seq = random_tree(depth=5, max_branching=3, seed=seed)
        ref = np.zeros(tree.node_counts[-1])
        for n in range(1, seq.n_steps + 1):
            cond = _pull_back(tree, seq.values[n - 1], n, max(n - lag, 0))
            for d in range(max(n - lag, 0) + 1, n + 1):
                cond = cond[tree.parents[d - 1]]
            term = seq.values[n - 1] - cond
            for d in range(n + 1, seq.n_steps + 1):
                term = term[tree.parents[d - 1]]
            ref += term
        np.testing.assert_allclose(deviation_per_leaf(tree, seq, lag), ref, atol=1e-12)

    @given(st.integers(0, 10_000), st.integers(1, 8), st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_bits_match_a_pass_with_zero_filled_depths(self, seed, depth, lag):
        # The same forward pass with every depth's pending mean started from zeros.
        tree, seq = random_tree(depth=depth, max_branching=3, seed=seed)
        pending = [np.zeros(c) for c in tree.node_counts]
        for n in range(1, depth + 1):
            d = max(n - lag, 0)
            mean = _pull_back(tree, seq.values[n - 1], n, d)
            pending[d] = pending[d] + mean
        ref = -pending[0]
        for d in range(1, depth + 1):
            ref = ref[tree.parents[d - 1]] + seq.values[d - 1] - pending[d]
        assert deviation_per_leaf(tree, seq, lag).tobytes() == ref.tobytes()

    def test_root_negates_the_sum_of_its_means(self):
        # Root means 0.5 and -0.5: -(0.5 + -0.5) is -0.0, where (-0.5) - -0.5
        # would be +0.0, and -0.0 values carry that sign down to two leaves.
        tree = ProbabilityTree(
            parents=(np.array([0, 0]), np.array([0, 0, 1, 1])),
            branch_probs=(np.full(2, 0.5), np.full(4, 0.5)),
        )
        seq = AdaptedSequence(values=(np.array([-0.0, 1.0]), np.array([-0.0, -0.0, -1.0, -1.0])))
        dev = deviation_per_leaf(tree, seq, 2)
        assert dev.tolist() == [0.0, 0.0, 0.0, 0.0]
        assert np.signbit(dev).tolist() == [True, True, False, False]

    def test_zero_process(self):
        tree = two_level_tree()
        seq = AdaptedSequence(values=(np.zeros(2), np.zeros(4)))
        np.testing.assert_allclose(deviation_per_leaf(tree, seq, 1), np.zeros(4), atol=1e-15)

    @pytest.mark.parametrize("lag", [0, 1.5, 2.0, np.float64(2.0)], ids=repr)
    def test_rejects_a_lag_that_is_not_a_positive_integer(self, lag):
        tree = two_level_tree()
        seq = AdaptedSequence(values=(np.zeros(2), np.zeros(4)))
        deviation_per_leaf(tree, seq, 2)  # a cached lag of 2 must not answer for 2.0
        message = f"lag must be a positive integer, got {lag!r}"
        for call in (
            lambda: deviation_per_leaf(tree, seq, lag),
            lambda: exact_tail(tree, seq, lag, 1.0),
            lambda: tree_deviation_sampler(tree, seq, lag),
        ):
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == message

    def test_numpy_integer_lag_matches_int(self):
        tree, seq = random_tree(depth=4, max_branching=3, seed=11)
        expected = deviation_per_leaf(tree, seq, 2).copy()
        fresh = AdaptedSequence(values=seq.values)
        np.testing.assert_array_equal(deviation_per_leaf(tree, fresh, np.int64(2)), expected)
        assert exact_tail(tree, fresh, np.int64(2), 1.0) == exact_tail(tree, seq, 2, 1.0)

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
            d = max(n - lag, 0)
            cond = _pull_back(tree, raw.values[n - 1], n, d)
            pushed = cond
            for dd in range(d + 1, n + 1):
                pushed = pushed[tree.parents[dd - 1]]
            centered.append(0.5 * (raw.values[n - 1] - pushed))
        seq = AdaptedSequence(values=tuple(centered))
        for n in range(1, seq.n_steps + 1):
            cond = _pull_back(tree, seq.values[n - 1], n, max(n - lag, 0))
            assert np.max(np.abs(cond)) < 1e-12
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


def block_levels_one_by_one(N, K):
    """The block tree's level arrays, each allocated on its own."""
    parents, branch_probs, values = [], [], []
    n_nodes = 1
    for n in range(1, N + 1):
        if (n - 1) % K == 0:
            parents.append(np.repeat(np.arange(n_nodes), 2))
            branch_probs.append(np.full(2 * n_nodes, 0.5))
            n_nodes *= 2
        else:
            parents.append(np.arange(n_nodes))
            branch_probs.append(np.ones(n_nodes))
        values.append(1.0 - 2.0 * (np.arange(n_nodes) % 2))
    return parents, branch_probs, values


def owner(a):
    while a.base is not None:
        a = a.base
    return a


# The general walks, with no knowledge of level shapes: np.bincount up, fancy indexing down.
def general_pull_back(tree, x, depth, target):
    for d in range(depth, target, -1):
        weights = tree.branch_probs[d - 1] * x
        x = np.bincount(tree.parents[d - 1], weights=weights, minlength=tree.node_counts[d - 1])
    return x


def general_probabilities(tree, depth):
    probs = np.ones(1)
    for d in range(1, depth + 1):
        probs = probs[tree.parents[d - 1]] * tree.branch_probs[d - 1]
    return probs


def general_deviation(tree, seq, lag):
    N, values = seq.n_steps, seq.values
    root = general_pull_back(tree, values[0], 1, 0)
    for n in range(2, min(lag, N) + 1):
        root = root + general_pull_back(tree, values[n - 1], n, 0)
    acc = -root
    for d in range(1, N + 1):
        acc = acc[tree.parents[d - 1]] + values[d - 1]
        if d + lag <= N:
            acc = acc - general_pull_back(tree, values[d + lag - 1], d + lag, d)
    return acc


def general_totals(tree, loss, strategy):
    K = loss.horizon
    acc = np.zeros(tree.node_counts[K])
    for n, choice in enumerate(strategy.choices, start=1):
        for d in range(n + 1, n + K + 1):
            choice = choice[tree.parents[d - 1]]
        step = np.stack(loss.tables[n - 1])[choice, np.arange(len(choice))]
        acc = acc[tree.parents[n + K - 1]] + step
    return acc


def regular_tree(fan_outs, seed):
    """A random tree whose depth-d nodes each have fan_outs[d - 1] children."""
    rng = np.random.default_rng(seed)
    parents, probs, values = [], [], []
    n = 1
    for b in fan_outs:
        par = np.repeat(np.arange(n), b)
        weights = rng.exponential(size=n * b) + 1e-6
        parents.append(par)
        probs.append(weights / np.bincount(par, weights=weights)[par])
        n *= b
        values.append(rng.uniform(-1.0, 1.0, size=n))
    return list(parents), list(probs), list(values)


def near_miss(kind):
    """A valid 13-level binary tree whose last level (8192 nodes) is not quite of fan-out 2."""
    parents, probs, values = regular_tree((2,) * 13, seed=5)
    par, pr = parents[-1].copy(), probs[-1].copy()
    j = 1000  # children 2j..2j+3 belong to parents j and j + 1
    if kind == "three and one":
        par[2 * j + 2] = j
        pr[2 * j : 2 * j + 4] = (0.25, 0.25, 0.5, 1.0)
    else:  # "swapped": parents j and j + 1 trade their two children
        par[2 * j : 2 * j + 4] = (j + 1, j + 1, j, j)
    parents[-1], probs[-1] = par, pr
    return parents, probs, values


def built(levels):
    parents, probs, values = levels
    tree = ProbabilityTree(parents=tuple(parents), branch_probs=tuple(probs))
    return tree, AdaptedSequence(values=tuple(values))


# name: (K, tree and sequence); each is checked at lags 1..K+1 and impact horizon K.
FAN_OUT_TREES = {
    "block(16, 1)": (1, lambda: block_process_tree(16, 1)),
    "block(12, 4)": (4, lambda: block_process_tree(12, 4)),
    "block(40, 2)": (2, lambda: block_process_tree(40, 2)),
    "random binary": (1, lambda: random_tree(13, max_branching=2, seed=3)),
    "fan-out 3": (1, lambda: built(regular_tree((3,) * 8 + (1,), seed=4))),
    "three and one": (1, lambda: built(near_miss("three and one"))),
    "swapped": (1, lambda: built(near_miss("swapped"))),
}


def two_decision_loss(tree, horizon, seed):
    rng = np.random.default_rng(seed)
    tables = tuple(tuple(rng.uniform(0, 1, (2, c))) for c in tree.node_counts[horizon + 1 :])
    return LossSpec(space=DecisionSpace(("a", "b")), horizon=horizon, tables=tables)


BLOCK_SHAPES = [(1, 1), (2, 1), (6, 3), (12, 4), (16, 1), (40, 2)]


class TestBlockTreeSharedLevels:
    @staticmethod
    def assert_same(a, b):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("N, K", BLOCK_SHAPES)
    def test_levels_and_derived_arrays_match_one_by_one_levels(self, N, K):
        tree, seq = block_process_tree(N, K)
        parents, branch_probs, values = block_levels_one_by_one(N, K)
        ref_tree = ProbabilityTree(parents=tuple(parents), branch_probs=tuple(branch_probs))
        ref_seq = AdaptedSequence(values=tuple(values))
        for got, want in zip(
            (tree.parents, tree.branch_probs, seq.values), (parents, branch_probs, values)
        ):
            assert len(got) == len(want) == N
            for a, b in zip(got, want):
                self.assert_same(a, b)
        assert tree.node_counts == ref_tree.node_counts
        self.assert_same(tree.node_probabilities(N), general_probabilities(ref_tree, N))
        for lag in range(1, K + 2):
            want = general_deviation(ref_tree, ref_seq, lag)
            self.assert_same(deviation_per_leaf(tree, seq, lag), want)

    @pytest.mark.parametrize("N, K", BLOCK_SHAPES)
    def test_levels_share_at_most_five_leaf_sized_buffers(self, N, K):
        tree, seq = block_process_tree(N, K)
        owners = {id(o): o for o in map(owner, (*tree.parents, *tree.branch_probs, *seq.values))}
        assert len(owners) <= (3 if K == 1 else 5)
        assert sum(o.nbytes for o in owners.values()) <= 5 * 8 * 2 ** (N // K)

    def test_read_only_levels_give_the_same_bits(self):
        # Levels past 4096 entries of no fan-out: np.bincount copies them when read-only.
        tree, seq = random_tree(depth=10, max_branching=4, seed=11)
        assert tree.node_counts[-2] > 4096
        frozen = [[a.copy() for a in arrays] for arrays in (tree.parents, tree.branch_probs, seq.values)]
        for a in (x for arrays in frozen for x in arrays):
            a.flags.writeable = False
        ro_tree = ProbabilityTree(parents=tuple(frozen[0]), branch_probs=tuple(frozen[1]))
        ro_seq = AdaptedSequence(values=tuple(frozen[2]))
        self.assert_same(ro_tree.node_probabilities(10), tree.node_probabilities(10))
        for lag in (1, 2, 3):
            self.assert_same(deviation_per_leaf(ro_tree, ro_seq, lag), deviation_per_leaf(tree, seq, lag))

    @pytest.mark.parametrize("N, K", BLOCK_SHAPES[:-1])
    def test_every_level_is_read_only(self, N, K):
        tree, seq = block_process_tree(N, K)
        levels = (*tree.parents, *tree.branch_probs, *seq.values)
        for a in levels:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = a[-1]
        # The refused writes changed nothing.
        for a, b in zip(levels, (x for arrays in block_levels_one_by_one(N, K) for x in arrays)):
            self.assert_same(a, b)


class TestFanOutLevels:
    """Levels of more than 4096 nodes with a fan-out are walked without gather or scatter."""

    @staticmethod
    def assert_same(a, b):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("name", FAN_OUT_TREES)
    def test_walks_give_the_bits_of_the_general_walk(self, name):
        K, build = FAN_OUT_TREES[name]
        tree, seq = build()
        N = tree.depth
        for d in (1, N // 2, N - 1, N):
            self.assert_same(tree.node_probabilities(d), general_probabilities(tree, d))
        for lag in range(1, K + 2):
            self.assert_same(deviation_per_leaf(tree, seq, lag), general_deviation(tree, seq, lag))
        negative_zeros = np.full(tree.node_counts[N], -0.0)  # 0.0 + -0.0 is 0.0, -0.0 + -0.0 is not
        for n, x in [(N - 1, seq.values[N - 2]), (N, seq.values[N - 1]), (N, negative_zeros)]:
            for target in (0, n - 2, n - 1):
                self.assert_same(_pull_back(tree, x, n, target), general_pull_back(tree, x, n, target))
        if tree.node_counts[-1] > 2**16:
            return  # a loss spec on every level of the 2^20-leaf tree takes ~100 MB
        loss = two_decision_loss(tree, K, seed=9)
        for strategy in (bayesian_strategy(tree, loss), random_strategy(tree, loss, seed=10)):
            totals = _problem(tree, loss).realized(loss, strategy)[2]
            self.assert_same(totals, general_totals(tree, loss, strategy))

    def test_fan_outs_are_found_on_large_levels_only(self):
        tree, _ = block_process_tree(28, 2)
        assert tree._fan_outs == tuple(
            (2 if d % 2 else 1) if n > 4096 else 0 for d, n in enumerate(tree.node_counts[1:], 1)
        )
        # The last two levels; a binary tree's depth-12 level has only 4096 nodes.
        for name, last_two in [("random binary", (0, 2)), ("fan-out 3", (3, 1)),
                               ("three and one", (0, 0)), ("swapped", (0, 0))]:
            assert FAN_OUT_TREES[name][1]()[0]._fan_outs[-2:] == last_two
        # Past fan-out 16, one numpy call per column costs more than np.bincount.
        for b, found in [(16, 16), (17, 0)]:
            tree, _ = built(regular_tree((257, b), seed=6))
            assert tree._fan_outs == (0, found)

    def test_no_bincount_on_a_large_level(self, monkeypatch):
        sizes = []
        real = np.bincount

        def counted(x, *args, **kwargs):
            sizes.append(len(x))
            return real(x, *args, **kwargs)

        monkeypatch.setattr(np, "bincount", counted)
        tree, seq = block_process_tree(28, 2)
        for d in range(tree.depth + 1):
            tree.node_probabilities(d)
        for lag in (1, 2, 3):
            deviation_per_leaf(tree, seq, lag)
        loss = two_decision_loss(tree, 2, seed=1)
        strategy = random_strategy(tree, loss, seed=2)
        _problem(tree, loss).realized(loss, strategy)
        assert sizes and max(sizes) <= 4096
