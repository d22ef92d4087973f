"""Sequential decisions with a limited impact horizon on a probability tree.

At each step n a decision is chosen from a fixed finite menu; its loss in
[0, 1] becomes determined K steps later (it is a function of the
depth-(n+K) node).  The Bayesian strategy picks, at every depth-n node,
the first decision minimizing the conditional expected loss, which makes
it dominant node by node and therefore, through the deviation bound
applied to the shifted difference sequence, nearly unbeatable in total
loss over N steps: any rival's lead at the usual threshold has probability
below eps/2.  Decisions never influence the tree's dynamics.

A loss spec, like a tree, is immutable after construction.  Each (tree,
loss) pair is validated once, and its stacked loss tables, expected-loss
stacks and Bayesian strategy are computed once and cached on the loss
spec, as is, for each strategy seen, its validation and its per-step and
total realized losses; strategies passed in must therefore not be
modified either.  Arrays handed out from that cache are read-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .trees import AdaptedSequence, ProbabilityTree, _pull_back

__all__ = [
    "DecisionSpace",
    "LossSpec",
    "Strategy",
    "ShiftedDeviationReport",
    "expected_losses",
    "expected_loss",
    "bayesian_strategy",
    "total_losses",
    "total_loss",
    "regret_tail",
    "shifted_sequence",
    "shifted_deviation_check",
    "random_strategy",
    "adversarial_strategy",
]

_COND_TOL = 1e-9
_LOSS_TOL = 1e-12


@dataclass(frozen=True)
class DecisionSpace:
    """Finite ordered menu of decisions; the order breaks argmin ties."""

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.labels:
            raise ValueError("decision space must be nonempty")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("decision labels must be distinct")

    def __len__(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class LossSpec:
    """Loss tables: `tables[n-1][d]` holds step-n losses of decision d on depth-(n+K) nodes."""

    space: DecisionSpace
    horizon: int
    tables: tuple[tuple[np.ndarray, ...], ...]

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ValueError(f"impact horizon must be a positive integer, got {self.horizon}")
        if not self.tables:
            raise ValueError("loss spec must cover at least one step")
        for n, per_decision in enumerate(self.tables, start=1):
            if len(per_decision) != len(self.space):
                raise ValueError(f"step {n}: expected {len(self.space)} decision tables")
            for d, tab in enumerate(per_decision):
                if not np.all((tab >= -_LOSS_TOL) & (tab <= 1.0 + _LOSS_TOL)):  # rejects NaN
                    raise ValueError(f"step {n}, decision {d}: losses must lie in [0, 1]")
        # Derived quantities per tree, keyed by id(tree); see `_problem`.
        object.__setattr__(self, "_problems", {})

    @property
    def n_steps(self) -> int:
        return len(self.tables)


@dataclass(frozen=True)
class Strategy:
    """`choices[n-1][i]` is the decision index taken at depth-n node i."""

    choices: tuple[np.ndarray, ...]

    @property
    def n_steps(self) -> int:
        return len(self.choices)


def _check_decision_inputs(tree: ProbabilityTree, loss: LossSpec) -> None:
    if loss.n_steps + loss.horizon > tree.depth:
        raise ValueError(
            f"tree depth {tree.depth} too shallow for {loss.n_steps} steps "
            f"with impact horizon {loss.horizon}"
        )
    counts = tree.node_counts
    for n, per_decision in enumerate(loss.tables, start=1):
        for d, tab in enumerate(per_decision):
            if len(tab) != counts[n + loss.horizon]:
                raise ValueError(
                    f"step {n}, decision {d}: {len(tab)} losses for "
                    f"{counts[n + loss.horizon]} depth-{n + loss.horizon} nodes"
                )


class _Problem:
    """Cached quantities of one validated (tree, loss) pair, each filled on first use.

    Every slot is published by one assignment of a finished value, so two
    threads filling the same slot at once both compute it and one copy stays.
    """

    __slots__ = ("tree", "tables", "stacks", "bayes", "realized")

    def __init__(self, tree: ProbabilityTree) -> None:
        self.tree = tree  # holding the tree keeps its id from being reused
        self.tables: tuple[np.ndarray, ...] | None = None  # per step: (decisions, depth-(n+K) nodes)
        self.stacks: tuple[np.ndarray, ...] | None = None  # per step: (decisions, depth-n nodes)
        self.bayes: Strategy | None = None
        self.realized: dict[int, tuple[Strategy, tuple[np.ndarray, ...], np.ndarray]] = {}


def _problem(tree: ProbabilityTree, loss: LossSpec) -> _Problem:
    """The cache entry of (tree, loss), created after the pair is validated."""
    prob = loss._problems.get(id(tree))
    if prob is None:
        _check_decision_inputs(tree, loss)
        prob = loss._problems.setdefault(id(tree), _Problem(tree))
    return prob


def _loss_stacks(tree: ProbabilityTree, loss: LossSpec) -> tuple[np.ndarray, ...]:
    """Per step n, E(step-n loss of each decision | F_n): (decisions, depth-n nodes)."""
    prob = _problem(tree, loss)
    if prob.stacks is None:
        stacks = []
        for n in range(1, loss.n_steps + 1):
            table = np.stack(
                [_pull_back(tree, tab, n + loss.horizon, n) for tab in loss.tables[n - 1]]
            )
            table.flags.writeable = False
            stacks.append(table)
        prob.stacks = tuple(stacks)
    return prob.stacks


def _check_strategy(tree: ProbabilityTree, loss: LossSpec, strategy: Strategy) -> None:
    if strategy.n_steps != loss.n_steps:
        raise ValueError(f"strategy covers {strategy.n_steps} steps, losses {loss.n_steps}")
    counts = tree.node_counts
    for n, ch in enumerate(strategy.choices, start=1):
        if len(ch) != counts[n]:
            raise ValueError(f"step {n}: {len(ch)} choices for {counts[n]} depth-{n} nodes")
        if np.any(ch < 0) or np.any(ch >= len(loss.space)):
            raise ValueError(f"step {n}: decision index out of range")


def expected_losses(tree: ProbabilityTree, loss: LossSpec, n: int, d: int) -> np.ndarray:
    """E(loss of decision d at step n | F_n), one value per depth-n node (read-only)."""
    stacks = _loss_stacks(tree, loss)
    if not 1 <= n <= loss.n_steps:
        raise ValueError(f"step n must lie in [1, {loss.n_steps}], got {n}")
    if not 0 <= d < len(loss.space):
        raise ValueError(f"decision index must lie in [0, {len(loss.space)}), got {d}")
    return stacks[n - 1][d]


def expected_loss(tree: ProbabilityTree, loss: LossSpec, n: int, d: int, node: int) -> float:
    """Conditional expected loss of decision d at one depth-n node."""
    vals = expected_losses(tree, loss, n, d)
    if not 0 <= node < len(vals):
        raise ValueError(f"node index must lie in [0, {len(vals)}), got {node}")
    return float(vals[node])


def bayesian_strategy(tree: ProbabilityTree, loss: LossSpec) -> Strategy:
    """Per node, the first decision minimizing conditional expected loss.

    Dominance holds by construction: at every depth-n node the chosen
    decision's conditional expected loss is <= that of any decision, hence
    of any rival strategy's choice there.  Computed once per (tree, loss);
    its choice arrays are read-only.
    """
    prob = _problem(tree, loss)
    if prob.bayes is None:
        choices = []
        for table in _loss_stacks(tree, loss):
            ch = np.argmin(table, axis=0)  # argmin takes the first minimizer
            ch.flags.writeable = False
            choices.append(ch)
        prob.bayes = Strategy(choices=tuple(choices))
    return prob.bayes


def _realized(
    tree: ProbabilityTree, loss: LossSpec, strategy: Strategy
) -> tuple[Strategy, tuple[np.ndarray, ...], np.ndarray]:
    """A strategy's realized losses: per step n on the depth-(n+K) nodes, and their path totals.

    The decision made at a depth-n node is carried down to its depth-(n+K)
    descendants, where the step-n table rows live.  Validated and computed
    once per (tree, loss, strategy).
    """
    prob = _problem(tree, loss)
    hit = prob.realized.get(id(strategy))
    if hit is None:
        _check_strategy(tree, loss, strategy)
        if prob.tables is None:
            tables = tuple(np.stack(per_decision) for per_decision in loss.tables)
            for table in tables:
                table.flags.writeable = False
            prob.tables = tables
        steps = []
        for n, choice in enumerate(strategy.choices, start=1):
            for d in range(n, n + loss.horizon):
                choice = choice[tree.parents[d]]
            step = prob.tables[n - 1][choice, np.arange(len(choice))]
            step.flags.writeable = False
            steps.append(step)
        acc = np.zeros(1)
        for d in range(1, loss.n_steps + loss.horizon + 1):
            acc = acc[tree.parents[d - 1]]
            if d > loss.horizon:
                acc = acc + steps[d - loss.horizon - 1]
        acc.flags.writeable = False
        # The entry holds the strategy, so its id cannot be reused while cached.
        hit = prob.realized.setdefault(id(strategy), (strategy, tuple(steps), acc))
    return hit


def total_losses(tree: ProbabilityTree, loss: LossSpec, strategy: Strategy) -> np.ndarray:
    """Realized N-step total loss per depth-(N+K) node (read-only; cached per strategy)."""
    return _realized(tree, loss, strategy)[2]


def total_loss(tree: ProbabilityTree, loss: LossSpec, strategy: Strategy, leaf: int) -> float:
    """Total loss along the path to one depth-(N+K) node."""
    totals = total_losses(tree, loss, strategy)
    if not 0 <= leaf < len(totals):
        raise ValueError(f"leaf index must lie in [0, {len(totals)}), got {leaf}")
    return float(totals[leaf])


def regret_tail(tree: ProbabilityTree, loss: LossSpec, alt: Strategy, C: float) -> float:
    """Exact P(Loss(Bayesian) - Loss(alt) >= C) by leaf enumeration."""
    bayes = bayesian_strategy(tree, loss)
    regret = total_losses(tree, loss, bayes) - total_losses(tree, loss, alt)
    probs = tree.node_probabilities(loss.n_steps + loss.horizon)
    return math.fsum(probs[regret >= C].tolist())


def shifted_sequence(tree: ProbabilityTree, loss: LossSpec, alt: Strategy) -> AdaptedSequence:
    """The adapted difference sequence: step n+K carries loss(B_n) - loss(A_n).

    Steps 1..K are zero; the step-(n+K) value is a function of the
    depth-(n+K) node because both losses are, so the sequence is adapted by
    construction and bounded by 1 since losses live in [0, 1].
    """
    bayes_steps = _realized(tree, loss, bayesian_strategy(tree, loss))[1]
    alt_steps = _realized(tree, loss, alt)[1]
    counts = tree.node_counts
    values = [np.zeros(counts[d]) for d in range(1, loss.horizon + 1)]
    values += [b - a for b, a in zip(bayes_steps, alt_steps)]
    return AdaptedSequence(values=tuple(values))


@dataclass(frozen=True)
class ShiftedDeviationReport:
    """Outcome of checking the difference sequence behind the regret bound."""

    passed: bool
    max_conditional_mean: float
    max_sum_identity_error: float
    failures: tuple[str, ...]


def shifted_deviation_check(
    tree: ProbabilityTree, loss: LossSpec, alt: Strategy
) -> ShiftedDeviationReport:
    """Verify the three facts the regret bound rests on.

    The shifted difference sequence must be adapted (structural here), its
    step-(n+K) conditional mean given F_n must be <= 0 at every depth-n
    node (Bayesian dominance), and its path sum must reproduce
    Loss(B) - Loss(alt) leaf by leaf.  Violations are reported with their
    coordinates rather than raised.
    """
    seq = shifted_sequence(tree, loss, alt)
    bayes = bayesian_strategy(tree, loss)
    N, K = loss.n_steps, loss.horizon
    failures: list[str] = []

    max_cond = -math.inf
    for n in range(1, N + 1):
        cond = _pull_back(tree, seq.values[n + K - 1], n + K, n)
        worst = float(cond.max())
        max_cond = max(max_cond, worst)
        if worst > _COND_TOL:
            node = int(np.argmax(cond))
            failures.append(
                f"conditional mean {worst!r} > 0 at step {n}, depth-{n} node {node}"
            )

    path_sums = np.zeros(1)
    for d in range(1, N + K + 1):
        path_sums = path_sums[tree.parents[d - 1]] + seq.values[d - 1]
    regret = total_losses(tree, loss, bayes) - total_losses(tree, loss, alt)
    err = np.abs(path_sums - regret)
    max_err = float(err.max())
    if max_err > _COND_TOL:
        leaf = int(np.argmax(err))
        failures.append(f"path sum differs from realized regret by {max_err!r} at leaf {leaf}")

    return ShiftedDeviationReport(
        passed=not failures,
        max_conditional_mean=max_cond,
        max_sum_identity_error=max_err,
        failures=tuple(failures),
    )


def random_strategy(tree: ProbabilityTree, loss: LossSpec, seed: int) -> Strategy:
    """Uniform random decision at every node; deterministic given the seed."""
    _problem(tree, loss)
    rng = np.random.default_rng(seed)
    counts = tree.node_counts
    return Strategy(
        choices=tuple(
            rng.integers(0, len(loss.space), size=counts[n]) for n in range(1, loss.n_steps + 1)
        )
    )


def adversarial_strategy(tree: ProbabilityTree, loss: LossSpec) -> Strategy:
    """Per node, the first decision maximizing conditional expected loss."""
    return Strategy(choices=tuple(np.argmax(table, axis=0) for table in _loss_stacks(tree, loss)))

