"""JSON tree files: probability trees with optional adapted values and losses.

Schema (all probabilities/values are plain JSON numbers; round-trip is
exact because floats are serialized with shortest-repr):

    {
      "depth": D,
      "nodes": [                      # one list per depth 1..D
        [{"parent": 0, "prob": 0.25}, {"parent": 0, "prob": 0.75}],
        ...
      ],
      "Y": [[...], ...],              # optional: values per depth 1..N
      "losses": {                     # optional: decision-problem tables
        "decisions": ["hold", "move"],
        "impact_horizon": 2,
        "tables": [                   # one entry per step n = 1..N
          [[...], [...]],             # per decision: values on depth-(n+K) nodes
          ...
        ]
      }
    }
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .decision import DecisionSpace, LossSpec, _problem
from .trees import AdaptedSequence, ProbabilityTree, _check_consistent

__all__ = ["TreeFileError", "TreeBundle", "bundle_to_dict", "bundle_from_dict", "save_tree", "load_tree"]


class TreeFileError(ValueError):
    """Raised when a tree document is missing, malformed, or inconsistent."""


@dataclass(frozen=True, eq=False)
class TreeBundle:
    tree: ProbabilityTree
    sequence: AdaptedSequence | None = None
    losses: LossSpec | None = None


def _floats(a: np.ndarray) -> list[float]:
    """An array as a list of Python floats, each the value `float(a[i])` gives."""
    return a.astype(np.float64, copy=False).tolist()


def bundle_to_dict(bundle: TreeBundle) -> dict:
    tree = bundle.tree
    doc: dict = {
        "depth": tree.depth,
        "nodes": [
            [{"parent": p, "prob": q} for p, q in zip(par.tolist(), _floats(pr))]
            for par, pr in zip(tree.parents, tree.branch_probs)
        ],
    }
    if bundle.sequence is not None:
        doc["Y"] = [_floats(level) for level in bundle.sequence.values]
    if bundle.losses is not None:
        doc["losses"] = {
            "decisions": list(bundle.losses.space.labels),
            "impact_horizon": bundle.losses.horizon,
            "tables": [[_floats(tab) for tab in per_decision] for per_decision in bundle.losses.tables],
        }
    return doc


def _array(items, dtype: type, what: str) -> np.ndarray:
    """A JSON list of integers (int64) or of numbers (float64) as a 1-D array.

    Booleans, strings and nested lists are refused here rather than coerced;
    finiteness and ranges are checked by the tree types themselves.
    """
    integral = dtype is np.int64
    allowed = {int} if integral else {int, float}  # exact types: a bool is not a number here
    if not isinstance(items, list) or not set(map(type, items)) <= allowed:
        raise TreeFileError(f"{what} must be a list of {'integers' if integral else 'numbers'}")
    try:
        return np.array(items, dtype=dtype)
    except OverflowError as exc:
        raise TreeFileError(f"{what}: {exc}") from exc


def bundle_from_dict(doc: dict) -> TreeBundle:
    try:
        depth = doc["depth"]
        levels = doc["nodes"]
    except (KeyError, TypeError) as exc:
        raise TreeFileError(f"missing required field: {exc}") from exc
    if type(depth) is not int or not isinstance(levels, list) or len(levels) != depth:
        raise TreeFileError(f"'nodes' must be a list of 'depth' = {depth!r} levels")
    parents, branch_probs = [], []
    for d, level in enumerate(levels, start=1):
        if not isinstance(level, list) or not all(isinstance(n, dict) for n in level):
            raise TreeFileError(f"malformed node record: depth {d} must list node objects")
        try:
            parents.append(_array([n["parent"] for n in level], np.int64, f"depth {d} parents"))
            branch_probs.append(_array([n["prob"] for n in level], np.float64, f"depth {d} probs"))
        except (KeyError, TreeFileError) as exc:
            raise TreeFileError(f"malformed node record: {exc}") from exc
    try:
        tree = ProbabilityTree(parents=tuple(parents), branch_probs=tuple(branch_probs))
    except ValueError as exc:
        raise TreeFileError(f"invalid tree: {exc}") from exc

    sequence = None
    if doc.get("Y") is not None:
        try:
            if not isinstance(doc["Y"], list):
                raise TreeFileError("'Y' must be a list of levels")
            sequence = AdaptedSequence(
                values=tuple(
                    _array(level, np.float64, f"step {n}")
                    for n, level in enumerate(doc["Y"], start=1)
                )
            )
            _check_consistent(tree, sequence)
        except ValueError as exc:
            raise TreeFileError(f"invalid Y values: {exc}") from exc

    losses = None
    if doc.get("losses") is not None:
        block = doc["losses"]
        try:
            labels, horizon, tables = block["decisions"], block["impact_horizon"], block["tables"]
            if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
                raise TreeFileError("'decisions' must be a list of strings")
            losses = LossSpec(
                space=DecisionSpace(labels=tuple(labels)),
                horizon=horizon,
                tables=tuple(
                    tuple(_array(tab, np.float64, f"step {n} table") for tab in per_decision)
                    for n, per_decision in enumerate(tables, start=1)
                ),
            )
            _problem(tree, losses)  # checks the tables against the tree, once
        except (KeyError, TypeError, ValueError) as exc:
            raise TreeFileError(f"invalid losses block: {exc}") from exc
    return TreeBundle(tree=tree, sequence=sequence, losses=losses)


def save_tree(path: str | Path, bundle: TreeBundle) -> None:
    Path(path).write_text(json.dumps(bundle_to_dict(bundle), indent=1) + "\n")


def load_tree(path: str | Path) -> TreeBundle:
    p = Path(path)
    try:
        text = p.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise TreeFileError(f"cannot read tree file {p}: {exc}") from exc
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise TreeFileError(f"tree file {p} is not valid JSON: {exc}") from exc
    return bundle_from_dict(doc)
