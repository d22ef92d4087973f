import json
import math

import numpy as np
import pytest

from kstep_lln.decision import DecisionSpace, LossSpec
from kstep_lln.treefile import (
    TreeBundle,
    TreeFileError,
    bundle_from_dict,
    bundle_to_dict,
    load_tree,
    save_tree,
)
from kstep_lln.trees import AdaptedSequence, ProbabilityTree, block_process_tree, random_tree


def full_bundle(seed=17):
    tree, seq = random_tree(depth=4, max_branching=3, seed=seed)
    rng = np.random.default_rng(seed + 1)
    counts = tree.node_counts
    losses = LossSpec(
        space=DecisionSpace(("hold", "move")),
        horizon=2,
        tables=tuple(
            tuple(rng.uniform(0, 1, size=counts[n + 2]) for _ in range(2)) for n in (1, 2)
        ),
    )
    return TreeBundle(tree=tree, sequence=seq, losses=losses)


class TestRoundTrip:
    def test_arrays_survive_exactly(self, tmp_path):
        bundle = full_bundle()
        path = tmp_path / "tree.json"
        save_tree(path, bundle)
        back = load_tree(path)
        for a, b in zip(bundle.tree.parents, back.tree.parents):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(bundle.tree.branch_probs, back.tree.branch_probs):
            np.testing.assert_array_equal(a, b)  # bitwise, not approximate
        for a, b in zip(bundle.sequence.values, back.sequence.values):
            np.testing.assert_array_equal(a, b)
        assert back.losses.space.labels == ("hold", "move")
        assert back.losses.horizon == 2
        for ta, tb in zip(bundle.losses.tables, back.losses.tables):
            for a, b in zip(ta, tb):
                np.testing.assert_array_equal(a, b)

    def test_serialization_is_stable(self, tmp_path):
        bundle = full_bundle()
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_tree(p1, bundle)
        save_tree(p2, load_tree(p1))
        assert p1.read_text() == p2.read_text()

    def test_tree_only_document(self, tmp_path):
        tree, _ = random_tree(depth=2, max_branching=2, seed=3)
        path = tmp_path / "bare.json"
        save_tree(path, TreeBundle(tree=tree))
        back = load_tree(path)
        assert back.sequence is None
        assert back.losses is None


def per_scalar_dict(bundle):
    """The document built one numpy scalar at a time, with int() and float()."""
    doc = {
        "depth": bundle.tree.depth,
        "nodes": [
            [{"parent": int(p), "prob": float(q)} for p, q in zip(par, pr)]
            for par, pr in zip(bundle.tree.parents, bundle.tree.branch_probs)
        ],
    }
    if bundle.sequence is not None:
        doc["Y"] = [[float(v) for v in level] for level in bundle.sequence.values]
    if bundle.losses is not None:
        doc["losses"] = {
            "decisions": list(bundle.losses.space.labels),
            "impact_horizon": bundle.losses.horizon,
            "tables": [
                [[float(v) for v in tab] for tab in per_decision]
                for per_decision in bundle.losses.tables
            ],
        }
    return doc


def narrow_bundle():
    """int32 parents, float32 and integer branch probabilities, float32 and integer values."""
    tree = ProbabilityTree(
        parents=(np.array([0, 0], np.int32), np.array([0, 1], np.int16), np.array([0, 0, 1, 1], np.int32)),
        branch_probs=(
            np.array([0.25, 0.75], np.float32),
            np.array([1, 1]),
            np.array([0.125, 0.875, 0.5, 0.5], np.float32),
        ),
    )
    seq = AdaptedSequence(
        values=(np.array([0.1, -0.7], np.float32), np.array([1, -1]), np.array([0.3, 0, -1, 1], np.float32))
    )
    losses = LossSpec(
        space=DecisionSpace(("a", "b")),
        horizon=1,
        tables=(
            (np.array([0.2, 0.9], np.float32), np.array([0, 1])),
            (np.array([0.2, 0.9, 1, 0], np.float32), np.array([0, 1, 1, 0])),
        ),
    )
    return TreeBundle(tree=tree, sequence=seq, losses=losses)


class TestSavedBytes:
    @pytest.mark.parametrize(
        "make",
        [full_bundle, narrow_bundle, lambda: TreeBundle(*block_process_tree(6, 3))],
        ids=["random", "narrow-dtypes", "block"],
    )
    def test_same_bytes_as_per_scalar_conversion(self, tmp_path, make):
        bundle = make()
        path = tmp_path / "t.json"
        save_tree(path, bundle)
        assert path.read_text() == json.dumps(per_scalar_dict(bundle), indent=1) + "\n"


class TestIdentity:
    def test_array_holding_types_compare_and_hash_by_identity(self):
        bundle, twin = full_bundle(), full_bundle()
        tree = bundle.tree
        assert tree != twin.tree and tree not in [twin.tree]
        assert tree == tree and tree in [twin.tree, tree]
        assert bundle != twin and bundle.losses != twin.losses
        assert bundle.sequence != twin.sequence
        keys = {tree: 0, bundle.losses: 1, bundle: 2, twin.tree: 3}
        assert [keys[k] for k in (tree, bundle.losses, bundle, twin.tree)] == [0, 1, 2, 3]


class TestErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(TreeFileError, match="cannot read"):
            load_tree(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(TreeFileError, match="not valid JSON"):
            load_tree(path)

    def test_missing_fields(self):
        with pytest.raises(TreeFileError, match="missing required field"):
            bundle_from_dict({"depth": 2})

    def test_wrong_level_count(self):
        with pytest.raises(TreeFileError, match="levels"):
            bundle_from_dict({"depth": 2, "nodes": [[{"parent": 0, "prob": 1.0}]]})

    def test_inconsistent_probabilities(self):
        doc = {
            "depth": 1,
            "nodes": [[{"parent": 0, "prob": 0.5}, {"parent": 0, "prob": 0.6}]],
        }
        with pytest.raises(TreeFileError, match="invalid tree"):
            bundle_from_dict(doc)

    def test_bad_adapted_values(self):
        doc = bundle_to_dict(full_bundle())
        doc["Y"][0] = [4.0] * len(doc["Y"][0])
        with pytest.raises(TreeFileError, match="invalid Y"):
            bundle_from_dict(doc)

    def test_bad_losses(self):
        doc = bundle_to_dict(full_bundle())
        doc["losses"]["tables"][0][0][0] = 9.0
        with pytest.raises(TreeFileError, match="invalid losses"):
            bundle_from_dict(doc)

    def test_malformed_node_record(self):
        doc = {"depth": 1, "nodes": [[{"prob": 1.0}]]}
        with pytest.raises(TreeFileError, match="malformed node record"):
            bundle_from_dict(doc)

    @pytest.mark.parametrize(
        "doc",
        [
            {"depth": 1, "nodes": [[{"parent": 0, "prob": "0.5"}, {"parent": 0, "prob": 0.5}]]},
            {"depth": 1, "nodes": [[{"parent": 0.7, "prob": 0.5}, {"parent": 0, "prob": 0.5}]]},
            {"depth": 1, "nodes": [[{"parent": 2**70, "prob": 1.0}]]},
            {"depth": 1, "nodes": [[{"parent": 0, "prob": True}]]},
            {"depth": 1, "nodes": 5},
            {"depth": "1", "nodes": [[{"parent": 0, "prob": 1.0}]]},
        ],
    )
    def test_wrong_types_are_refused_not_coerced(self, doc):
        with pytest.raises(TreeFileError):
            bundle_from_dict(doc)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "0.5", [0.5]])
    def test_bad_numbers_in_y_and_losses(self, bad):
        doc = bundle_to_dict(full_bundle())
        doc["Y"][0][0] = bad
        with pytest.raises(TreeFileError, match="invalid Y"):
            bundle_from_dict(json.loads(json.dumps(doc)))
        doc = bundle_to_dict(full_bundle())
        doc["losses"]["tables"][0][0][0] = bad
        with pytest.raises(TreeFileError, match="invalid losses"):
            bundle_from_dict(json.loads(json.dumps(doc)))

    def test_values_inconsistent_with_the_tree(self):
        doc = bundle_to_dict(full_bundle())
        doc["Y"][0].append(0.0)
        with pytest.raises(TreeFileError, match="invalid Y"):
            bundle_from_dict(doc)
        doc = bundle_to_dict(full_bundle())
        doc["losses"]["impact_horizon"] = 3  # two steps need depth 5
        with pytest.raises(TreeFileError, match="too shallow"):
            bundle_from_dict(doc)
        doc["losses"]["impact_horizon"] = 2.0
        message = "invalid losses block: impact horizon must be a positive integer, got 2.0"
        with pytest.raises(TreeFileError, match=message):
            bundle_from_dict(doc)

    @pytest.mark.parametrize(
        "content", [b"\xff\xfe not utf-8", b"[" * 100_000 + b"]" * 100_000]
    )
    def test_undecodable_or_deeply_nested_file(self, tmp_path, content):
        path = tmp_path / "odd.json"
        path.write_bytes(content)
        with pytest.raises(TreeFileError):
            load_tree(path)
