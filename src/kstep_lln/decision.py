"""Sequential decisions with a limited impact horizon on a probability tree.

At each step n a decision is chosen from a fixed finite menu; its loss in
[0, 1] (exactly: any difference of two losses is then a value in [-1, 1])
becomes determined K steps later, as a function of the depth-(n+K) node.
The Bayesian strategy picks, at every depth-n node,
the first decision minimizing the conditional expected loss, which makes
it dominant node by node and therefore, through the deviation bound
applied to the shifted difference sequence, nearly unbeatable in total
loss over N steps: any rival's lead at the usual threshold has probability
below eps/2.  Decisions never influence the tree's dynamics.

A loss spec, like a tree, is immutable after construction.  Its losses,
and a strategy's choices, pass the per-step rule of `trees`: losses real
in [0, 1], choices integer menu indices.  Each (tree, loss) pair becomes
one decision problem, validated and built in one step: its stacked loss
tables, expected-loss stacks, Bayesian strategy and that strategy's
realized losses.  The loss spec caches the last tree's problem, the
Bayesian strategy and the last rival: the rival is validated once and its
per-step and total realized losses are kept until another rival or tree is
used, so strategies passed in must not be modified either.  Arrays handed
out from that cache are read-only.  Sums over the tree use the two walks
of `trees`: `_pull_back` for expected losses, `_path_sums` for totals;
choices are carried down by their level step, `_step_down`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import _integer
from .constructions import _exact_sum, _tail_event
from .trees import (
    _REAL_KINDS, AdaptedSequence, ProbabilityTree, _check_steps, _path_sums, _pull_back,
    _step_down,
)

__all__ = [
    "DecisionSpace",
    "LossSpec",
    "Strategy",
    "ShiftedDeviationReport",
    "expected_losses",
    "bayesian_strategy",
    "regret_tail",
    "shifted_sequence",
    "shifted_deviation_check",
    "random_strategy",
    "adversarial_strategy",
]

_COND_TOL = 1e-9


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


@dataclass(frozen=True, eq=False)
class LossSpec:
    """Loss tables: `tables[n-1][d]` holds step-n losses of decision d on depth-(n+K) nodes."""

    space: DecisionSpace
    horizon: int
    tables: tuple[tuple[np.ndarray, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "horizon", _integer("impact horizon", self.horizon))
        if not self.tables:
            raise ValueError("loss spec must cover at least one step")
        k = len(self.space)
        for n, per_decision in enumerate(self.tables, start=1):
            if len(per_decision) != k:
                raise ValueError(f"step {n}: expected {k} decision tables")
        _check_steps(
            [tab for per_decision in self.tables for tab in per_decision],
            lambda i: f"step {i // k + 1}, decision {i % k}", _REAL_KINDS, 0.0, 1.0,
            "losses must be a 1-D real array", "losses must lie in [0, 1]",
        )
        # The decision problem of the last tree used with this spec; see `_problem`.
        object.__setattr__(self, "_last", None)

    @property
    def n_steps(self) -> int:
        return len(self.tables)


@dataclass(frozen=True, eq=False)
class Strategy:
    """`choices[n-1][i]` is the decision index taken at depth-n node i."""

    choices: tuple[np.ndarray, ...]

    @property
    def n_steps(self) -> int:
        return len(self.choices)


def _frozen(arrays) -> tuple[np.ndarray, ...]:
    out = tuple(arrays)
    for arr in out:
        arr.flags.writeable = False
    return out


class _Problem:
    """One validated (tree, loss) pair and all it derives, built in one step.

    Holds, per step, the stacked loss tables (decisions, depth-(n+K) nodes)
    and expected-loss stacks (decisions, depth-n nodes); the Bayesian
    strategy and the last rival seen, each as (strategy, per-step realized
    losses, path totals).  The rival slot is replaced by one assignment of
    a finished tuple, so it never pairs one strategy with another's losses:
    a reader sees the old entry or the new one whole.
    """

    __slots__ = ("tree", "tables", "stacks", "bayes", "rival")

    def __init__(self, tree: ProbabilityTree, loss: LossSpec) -> None:
        K = loss.horizon
        if loss.n_steps + K > tree.depth:
            raise ValueError(
                f"tree depth {tree.depth} too shallow for {loss.n_steps} steps "
                f"with impact horizon {K}"
            )
        counts = tree.node_counts
        for n, per_decision in enumerate(loss.tables, start=1):
            for d, tab in enumerate(per_decision):
                if len(tab) != counts[n + K]:
                    raise ValueError(
                        f"step {n}, decision {d}: {len(tab)} losses for "
                        f"{counts[n + K]} depth-{n + K} nodes"
                    )
        self.tree = tree
        self.tables = _frozen(np.stack(per_decision) for per_decision in loss.tables)
        self.stacks = _frozen(
            np.stack([_pull_back(tree, tab, n + K, n) for tab in loss.tables[n - 1]])
            for n in range(1, loss.n_steps + 1)
        )
        # argmin takes the first minimizer
        bayes = Strategy(choices=_frozen(np.argmin(table, axis=0) for table in self.stacks))
        self.bayes = self.rival = (bayes, *self._realize(K, bayes))

    def _realize(self, K: int, strategy: Strategy) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
        """Per step n the realized losses on the depth-(n+K) nodes, and their path totals.

        The decision made at a depth-n node is carried down to its
        depth-(n+K) descendants, where the step-n table rows live.
        """
        steps = []
        for n, choice in enumerate(strategy.choices, start=1):
            for d in range(n + 1, n + K + 1):
                choice = _step_down(self.tree, d, choice)
            steps.append(self.tables[n - 1][choice, np.arange(len(choice))])
        totals = _path_sums(self.tree, steps, K + 1)
        totals.flags.writeable = False
        return _frozen(steps), totals

    def realized(
        self, loss: LossSpec, strategy: Strategy
    ) -> tuple[Strategy, tuple[np.ndarray, ...], np.ndarray]:
        """(strategy, per-step realized losses, totals); a new rival is validated once."""
        for hit in (self.bayes, self.rival):
            if hit[0] is strategy:
                return hit
        _check_strategy(self.tree, loss, strategy)
        hit = self.rival = (strategy, *self._realize(loss.horizon, strategy))
        return hit


def _problem(tree: ProbabilityTree, loss: LossSpec) -> _Problem:
    """The problem of (tree, loss): the spec's last one if built for this tree, else a new one."""
    prob = loss._last
    if prob is None or prob.tree is not tree:
        prob = _Problem(tree, loss)
        object.__setattr__(loss, "_last", prob)
    return prob


def _check_strategy(tree: ProbabilityTree, loss: LossSpec, strategy: Strategy) -> None:
    if strategy.n_steps != loss.n_steps:
        raise ValueError(f"strategy covers {strategy.n_steps} steps, losses {loss.n_steps}")
    _check_steps(
        strategy.choices, lambda i: f"step {i + 1}", "iu", 0, len(loss.space) - 1,
        "choices must be a 1-D integer array", "decision index out of range",
    )
    counts = tree.node_counts
    for n, ch in enumerate(strategy.choices, start=1):
        if len(ch) != counts[n]:
            raise ValueError(f"step {n}: {len(ch)} choices for {counts[n]} depth-{n} nodes")


def expected_losses(tree: ProbabilityTree, loss: LossSpec, n: int, d: int) -> np.ndarray:
    """E(loss of decision d at step n | F_n), one value per depth-n node (read-only)."""
    stacks = _problem(tree, loss).stacks
    n = _integer("step n", n, 1, loss.n_steps)
    d = _integer("decision index", d, 0, len(loss.space) - 1)
    return stacks[n - 1][d]


def bayesian_strategy(tree: ProbabilityTree, loss: LossSpec) -> Strategy:
    """Per node, the first decision minimizing conditional expected loss.

    Dominance holds by construction: at every depth-n node the chosen
    decision's conditional expected loss is <= that of any decision, hence
    of any rival strategy's choice there.  Built with the (tree, loss)
    problem; its choice arrays are read-only.
    """
    return _problem(tree, loss).bayes[0]


def _regret(tree: ProbabilityTree, loss: LossSpec, alt: Strategy) -> np.ndarray:
    """Loss(Bayesian) - Loss(alt) per depth-(N+K) node."""
    prob = _problem(tree, loss)
    return prob.bayes[2] - prob.realized(loss, alt)[2]


def regret_tail(tree: ProbabilityTree, loss: LossSpec, alt: Strategy, C: float) -> float:
    """Exact P(Loss(Bayesian) - Loss(alt) >= C) by leaf enumeration.

    The tail is the correctly rounded sum of the probabilities of the
    depth-(N+K) nodes in the event (`constructions._exact_sum`).
    """
    event = _tail_event(C, "upper")
    probs = tree.node_probabilities(loss.n_steps + loss.horizon)
    return _exact_sum(probs[event(_regret(tree, loss, alt))])


def shifted_sequence(tree: ProbabilityTree, loss: LossSpec, alt: Strategy) -> AdaptedSequence:
    """The adapted difference sequence: step n+K carries loss(B_n) - loss(A_n).

    Steps 1..K are zero; the step-(n+K) value is a function of the
    depth-(n+K) node because both losses are, so the sequence is adapted by
    construction and bounded by 1 since losses live in [0, 1].
    """
    prob = _problem(tree, loss)
    counts = tree.node_counts
    values = [np.zeros(counts[d]) for d in range(1, loss.horizon + 1)]
    values += [b - a for b, a in zip(prob.bayes[1], prob.realized(loss, alt)[1])]
    return AdaptedSequence(values=tuple(values))


@dataclass(frozen=True)
class ShiftedDeviationReport:
    """Outcome of checking the difference sequence behind the regret bound."""

    max_conditional_mean: float
    max_sum_identity_error: float
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


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

    err = np.abs(_path_sums(tree, seq.values, 1) - _regret(tree, loss, alt))
    max_err = float(err.max())
    if max_err > _COND_TOL:
        leaf = int(np.argmax(err))
        failures.append(f"path sum differs from realized regret by {max_err!r} at leaf {leaf}")

    return ShiftedDeviationReport(
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
    stacks = _problem(tree, loss).stacks
    return Strategy(choices=tuple(np.argmax(table, axis=0) for table in stacks))

