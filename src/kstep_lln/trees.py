"""Finite probability trees: adapted values, lagged conditional means, exact tails.

A tree of depth D realizes a filtration on a finite sample space: the
depth-d nodes are the time-d information sets, a leaf is a full outcome,
and the trivial information available before time 1 is the root.  An
adapted sequence attaches one value to every node of each depth, which is
exactly what measurability with respect to the depth-d partition means.
Conditional expectations are computed by exact backward induction, so tail
probabilities of the deviation statistic

    S = sum_{n=1}^N (Y_n - E(Y_n | F_{n-K}))

come out exact up to float accumulation, and serve as the oracle against
which Monte Carlo estimates (see `sampling`) are judged.

Construction validates each input once.  A tree checks every level: the
parents are a 1-D integer array and the branch probabilities a 1-D array of
the same nonzero length, every parent index names a node one level up (the
per-parent `bincount` the check needs anyway serves as this range check),
every branch probability is positive, and each parent's branch
probabilities sum to 1 within 1e-12; the same level loop forms the leaf
probabilities, whose total must be 1 within 1e-9.  An adapted sequence
checks that each step is a 1-D array of finite values bounded by 1 in
absolute value.  The value checks are grouped: every array of at most
`_GROUP_MAX` = 4096 entries is concatenated into one and reduced once,
because each numpy call costs about a microsecond however small its array,
while a larger array is reduced on its own, because copying it costs more
than the calls saved.  Only a failed check looks at the arrays one by one,
so an error names the first faulty depth or step.

Trees and loss specs (see `decision`) are immutable after construction,
and their arrays must not be modified once built: derived quantities are
cached on them.  A tree keeps the node counts and leaf probabilities its
validation computes; an adapted sequence keeps its deviation per leaf for
the last (tree, lag) it was evaluated on; a loss spec keeps the last
tree's problem, the Bayesian strategy and the last rival.  Arrays handed
out from a cache are read-only.  Desk scale is about 10^6 leaves for exact
enumeration; beyond that, sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import HorizonParams, deviation_threshold
from .constructions import _block_count, _tail_event

__all__ = [
    "ProbabilityTree",
    "AdaptedSequence",
    "DeviationBoundCheck",
    "conditional_expectation",
    "deviation_per_leaf",
    "exact_tail",
    "verify_deviation_bound",
    "random_tree",
    "block_process_tree",
]

_PROB_SUM_TOL = 1e-12
_LEAF_SUM_TOL = 1e-9
_VALUE_TOL = 1e-12
# A per-parent sum s passes when abs(s - 1.0) <= _PROB_SUM_TOL; s - 1.0 is exact
# near 1, so that is s in [_SUM_LO, _SUM_HI].  1.0 + 1e-12 rounds up past it.
_SUM_LO = 1.0 - _PROB_SUM_TOL
_SUM_HI = math.nextafter(1.0 + _PROB_SUM_TOL, 0.0)
# Validation reduces arrays of at most this many entries together.  Each numpy
# call costs about 1 us however small its array, so one concatenate and two
# reductions beat two reductions per level; past a few thousand entries the
# copy costs more than the calls it saves.  On a 2-core x86 box the trees and
# sequences of the `tree-exact` benchmark took 62 us apiece checked one array
# at a time and 48 us grouped at this size, while grouping every level slowed
# the construction of `block_process_tree(40, 2)` (2^20 leaves) from 33 to 57 ms.
_GROUP_MAX = 4096
# Integer dtypes that bincount and indexing take without a cast (uint64 is not one).
_INDEX_CODES = "".join(c for c in np.typecodes["AllInteger"] if np.can_cast(c, np.intp))


def _inside(a: np.ndarray, lo, hi) -> bool:
    # a[a.argmin()] is a.min(), NaN included, at a third of its cost on small arrays.
    return bool(lo <= a[a.argmin()] and a[a.argmax()] <= hi)  # NaN fails both


def _first_outside(arrays, lo, hi) -> int | None:
    """Index of the first array with an entry outside [lo, hi] (NaN is outside).

    Empty arrays pass.  Arrays of at most `_GROUP_MAX` entries are reduced as
    one, larger ones on their own; only when a check fails are the arrays
    scanned one by one to find the first offender.
    """
    small = []
    for a in arrays:
        if a.size > _GROUP_MAX:
            if not _inside(a, lo, hi):
                break
        elif a.size:
            small.append(a)
    else:
        if not small or _inside(np.concatenate(small) if len(small) > 1 else small[0], lo, hi):
            return None
    return next(i for i, a in enumerate(arrays) if a.size and not _inside(a, lo, hi))


def _level_fault(par, pr) -> str | None:
    """What is wrong with one level's array types and lengths, if anything."""
    if not (isinstance(par, np.ndarray) and par.ndim == 1 and par.dtype.char in _INDEX_CODES):
        return "parents must be a 1-D integer array"
    if not (isinstance(pr, np.ndarray) and pr.ndim == 1):
        return "branch probabilities must be a 1-D array"
    if len(par) != len(pr):
        return "parent and probability arrays differ in length"
    if len(par) == 0:
        return "empty level"
    return None


def _value_fault(levels) -> str | None:
    """The shallowest non-positive branch probability or parent sum off 1, as a message.

    `levels` holds (depth, branch probabilities, per-parent sums) in depth order;
    at one depth a non-positive probability is reported before its sums.
    """
    # math.ulp(0.0) is the least positive double, so [ulp, inf] means "> 0".
    pos = _first_outside([pr for _, pr, _ in levels], math.ulp(0.0), math.inf)
    off = _first_outside([sums for _, _, sums in levels], _SUM_LO, _SUM_HI)
    if pos is not None and (off is None or pos <= off):
        return f"depth {levels[pos][0]}: branch probabilities must be positive"
    if off is None:
        return None
    d, _, sums = levels[off]
    bad = int(np.argmax(np.abs(sums - 1.0)))
    return f"depth {d}: branch probabilities at parent {bad} sum to {sums[bad]!r}"


@dataclass(frozen=True)
class ProbabilityTree:
    """Rooted tree with branch probabilities; depth-d arrays index depth-d nodes.

    `parents[d-1][i]` is the depth-(d-1) parent of depth-d node i, and
    `branch_probs[d-1][i]` the probability of reaching it from that parent.
    The root (depth 0) is implicit and unique.
    """

    parents: tuple[np.ndarray, ...]
    branch_probs: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if len(self.parents) != len(self.branch_probs):
            raise ValueError("parents and branch_probs must cover the same depths")
        if not self.parents:
            raise ValueError("tree must have depth at least 1")
        counts = [1]
        leaves = np.ones(1)
        small = []  # (depth, branch probabilities, per-parent sums) left for the grouped check
        for d, (par, pr) in enumerate(zip(self.parents, self.branch_probs), start=1):
            fault = _level_fault(par, pr)
            if fault is None:
                # A negative index raises; one past the parent level lengthens the sums.
                try:
                    sums = np.bincount(par, weights=pr, minlength=counts[-1])
                except (ValueError, MemoryError):
                    sums = None
                if sums is None or len(sums) > counts[-1]:
                    fault = "parent index out of range"
            if fault is not None:
                raise ValueError(_value_fault(small) or f"depth {d}: {fault}")
            leaves = leaves[par] * pr
            counts.append(len(par))
            if len(par) <= _GROUP_MAX:
                small.append((d, pr, sums))
            elif fault := _value_fault([(d, pr, sums)]):
                raise ValueError(_value_fault(small) or fault)
        if fault := _value_fault(small):
            raise ValueError(fault)
        leaf_total = float(leaves.sum())  # pairwise: ~1e-14 off at 2^20 leaves
        if abs(leaf_total - 1.0) > _LEAF_SUM_TOL:
            raise ValueError(f"leaf probabilities sum to {leaf_total!r}")
        leaves.flags.writeable = False
        object.__setattr__(self, "_node_counts", tuple(counts))
        object.__setattr__(self, "_leaf_probs", leaves)

    @property
    def depth(self) -> int:
        return len(self.parents)

    @property
    def node_counts(self) -> tuple[int, ...]:
        return self._node_counts

    def node_probabilities(self, depth: int) -> np.ndarray:
        """Unconditional probabilities of the depth-d nodes (read-only at the leaves)."""
        if not 0 <= depth <= self.depth:
            raise ValueError(f"depth must lie in [0, {self.depth}], got {depth}")
        if depth == self.depth:
            return self._leaf_probs
        return self._probabilities(depth)

    def _probabilities(self, depth: int) -> np.ndarray:
        probs = np.ones(1)
        for d in range(1, depth + 1):
            probs = probs[self.parents[d - 1]] * self.branch_probs[d - 1]
        return probs


@dataclass(frozen=True)
class AdaptedSequence:
    """One value per node, per step: `values[n-1]` lives on the depth-n nodes.

    All values are finite and bounded by 1 in absolute value; adaptedness is
    structural (a step-n value is a function of the depth-n node and nothing
    else).
    """

    values: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("sequence must cover at least one step")
        for n, v in enumerate(self.values, start=1):
            if not (isinstance(v, np.ndarray) and v.ndim == 1):
                raise ValueError(f"step {n}: values must be a 1-D array")
        bad = _first_outside(self.values, -1.0 - _VALUE_TOL, 1.0 + _VALUE_TOL)
        if bad is not None:
            raise ValueError(
                f"step {bad + 1}: values must be finite and bounded by 1 in absolute value"
            )
        # (tree, lag, deviation per leaf) of the last `deviation_per_leaf` call.
        object.__setattr__(self, "_deviation", (None, 0, None))

    @property
    def n_steps(self) -> int:
        return len(self.values)


def _check_consistent(tree: ProbabilityTree, seq: AdaptedSequence) -> None:
    if seq.n_steps > tree.depth:
        raise ValueError(f"sequence has {seq.n_steps} steps but tree depth is {tree.depth}")
    counts = tree.node_counts
    for n, v in enumerate(seq.values, start=1):
        if len(v) != counts[n]:
            raise ValueError(f"step {n}: {len(v)} values for {counts[n]} depth-{n} nodes")


def _pull_back(tree: ProbabilityTree, values: np.ndarray, depth: int, target: int) -> np.ndarray:
    """Backward induction of node values from `depth` to `target` <= depth."""
    out = values
    for d in range(depth, target, -1):
        out = np.bincount(
            tree.parents[d - 1],
            weights=tree.branch_probs[d - 1] * out,
            minlength=tree.node_counts[d - 1],
        )
    return out


def conditional_expectation(
    tree: ProbabilityTree, seq: AdaptedSequence, n: int, lag: int
) -> np.ndarray:
    """E(Y_n | F_{n-lag}) as one value per depth-max(n-lag, 0) node.

    When the lag reaches past the start of time the conditioning collapses
    to the trivial information set and the result is the single root value,
    the unconditional mean of Y_n.
    """
    _check_consistent(tree, seq)
    if not 1 <= n <= seq.n_steps:
        raise ValueError(f"step n must lie in [1, {seq.n_steps}], got {n}")
    if lag < 1:
        raise ValueError(f"lag must be a positive integer, got {lag}")
    return _pull_back(tree, seq.values[n - 1], n, max(n - lag, 0))


def deviation_per_leaf(tree: ProbabilityTree, seq: AdaptedSequence, lag: int) -> np.ndarray:
    """Deviation S = sum_n (Y_n - E(Y_n|F_{n-lag})), one value per depth-N node.

    N is the sequence length; each of the N terms has magnitude at most 2.
    The result is cached on `seq` for the last (tree, lag) and read-only.
    """
    last_tree, last_lag, last = seq._deviation
    if last_tree is tree and last_lag == lag:
        return last
    _check_consistent(tree, seq)
    if lag < 1:
        raise ValueError(f"lag must be a positive integer, got {lag}")
    N = seq.n_steps
    counts = tree.node_counts
    # Conditional means are subtracted where they become known, then pushed
    # down to depth N along with the Y values in a single forward pass.
    pending = [np.zeros(counts[d]) for d in range(N + 1)]
    for n in range(1, N + 1):
        d = max(n - lag, 0)
        pending[d] = pending[d] + _pull_back(tree, seq.values[n - 1], n, d)
    acc = -pending[0]
    for d in range(1, N + 1):
        acc = acc[tree.parents[d - 1]] + seq.values[d - 1] - pending[d]
    acc.flags.writeable = False
    object.__setattr__(seq, "_deviation", (tree, lag, acc))
    return acc


def exact_tail(
    tree: ProbabilityTree,
    seq: AdaptedSequence,
    lag: int,
    C: float,
    sided: str = "two_sided",
) -> float:
    """Exact P(|S| >= C) (two_sided) or P(S >= C) (upper) by leaf enumeration."""
    event = _tail_event(C, sided)
    dev = deviation_per_leaf(tree, seq, lag)
    probs = tree.node_probabilities(seq.n_steps)
    return math.fsum(probs[event(dev)].tolist())


@dataclass(frozen=True)
class DeviationBoundCheck:
    holds: bool
    tail: float
    threshold: float
    epsilon: float


def verify_deviation_bound(
    tree: ProbabilityTree, seq: AdaptedSequence, lag: int, epsilon: float
) -> DeviationBoundCheck:
    """Compare the exact two-sided deviation tail against its guaranteed bound.

    `holds` must come back True on every valid input; a False return would
    falsify either the bound or this engine.
    """
    threshold = deviation_threshold(HorizonParams(N=seq.n_steps, K=lag, epsilon=epsilon))
    tail = exact_tail(tree, seq, lag, threshold, sided="two_sided")
    return DeviationBoundCheck(holds=tail < epsilon, tail=tail, threshold=threshold, epsilon=epsilon)


def random_tree(
    depth: int, max_branching: int, seed: int
) -> tuple[ProbabilityTree, AdaptedSequence]:
    """Seeded random tree with Dirichlet-ish branch weights and Y uniform in [-1, 1].

    Branching per node is uniform on {2, ..., max_branching}; children are
    laid out parent-contiguously.  Deterministic given the seed.
    """
    if depth < 1:
        raise ValueError(f"depth must be at least 1, got {depth}")
    if max_branching < 2:
        raise ValueError(f"max_branching must be at least 2, got {max_branching}")
    rng = np.random.default_rng(seed)
    parents: list[np.ndarray] = []
    branch_probs: list[np.ndarray] = []
    values: list[np.ndarray] = []
    n_nodes = 1
    for _ in range(depth):
        branching = rng.integers(2, max_branching + 1, size=n_nodes)
        par = np.repeat(np.arange(n_nodes), branching)
        weights = rng.exponential(size=len(par)) + 1e-6
        sums = np.bincount(par, weights=weights, minlength=n_nodes)
        parents.append(par)
        branch_probs.append(weights / sums[par])
        n_nodes = len(par)
        values.append(rng.uniform(-1.0, 1.0, size=n_nodes))
    tree = ProbabilityTree(parents=tuple(parents), branch_probs=tuple(branch_probs))
    return tree, AdaptedSequence(values=tuple(values))


def block_process_tree(N: int, K: int) -> tuple[ProbabilityTree, AdaptedSequence]:
    """The law of the block-sign process as an explicit tree of depth N.

    A fresh fair sign is revealed at each block start (a binary split with
    equal probabilities); all other steps are deterministic pass-throughs.
    Node index bit 0 encodes the newest block's sign: 0 is +1, 1 is -1.
    """
    _block_count(N, K)
    parents: list[np.ndarray] = []
    branch_probs: list[np.ndarray] = []
    values: list[np.ndarray] = []
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
    tree = ProbabilityTree(parents=tuple(parents), branch_probs=tuple(branch_probs))
    return tree, AdaptedSequence(values=tuple(values))
