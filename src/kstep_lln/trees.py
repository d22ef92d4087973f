"""Finite probability trees: adapted values, lagged conditional means, exact tails.

A tree of depth D realizes a filtration on a finite sample space: the
depth-d nodes are the time-d information sets, a leaf is a full outcome,
and the trivial information available before time 1 is the root.  An
adapted sequence attaches one value to every node of each depth, which is
exactly what measurability with respect to the depth-d partition means.
The two walks that sum over a tree live here, each written once.  The
backward walk `_pull_back` takes a value up to its conditioning depth by
backward induction.  The forward walk `_path_sums` sums values down every
root-to-node path; `deviation_per_leaf` makes the same walk with each
conditional mean subtracted at the depth where it becomes known.
Conditional expectations stay internal, and tail probabilities of

    S = sum_{n=1}^N (Y_n - E(Y_n | F_{n-K}))

come out exact up to float accumulation, and serve as the oracle against
which Monte Carlo estimates (see `sampling`) are judged.

Construction validates each input once.  A tree checks each level as it
reads it, shallowest first, and keeps none of its per-parent sums: the
parents are a 1-D integer array and the branch probabilities a 1-D real
array of the same nonzero length, every parent index names a node one
level up (the per-parent `bincount` the check needs anyway serves as this
range check, and a fan-out level, below, is in range by construction),
every branch probability is positive, and each parent's branch
probabilities sum to 1 within 1e-12; then the leaf probabilities, formed
once, must total 1 within 1e-9.  Sequences, loss specs (see `decision`)
and strategies pass one per-step rule, `_check_steps`: each step is a 1-D
array, real for values and losses and integer for choices, with every
entry in range (a value finite and bounded by 1 in absolute value).  An
error names the first faulty depth or step, a dtype fault before a range
fault.  Against a tree, their lengths pass one size rule, `_check_sizes`:
one entry per node of the array's depth.

Trees and loss specs (see `decision`) are immutable after construction,
and their arrays must not be modified once built: derived quantities are
cached on them.  Block trees enforce this: their levels are read-only
views of shared arrays, so a write raises.  Validation also finds every
level of more than `_GROUP_MAX` nodes whose parents are 0, ..., 0, 1, ...,
1, and so on, each repeated b <= 16 times: a level of fan-out b (b = 1
passes each node through to one child).  The walks step down such a level
by np.repeat, or not at all, and sum it per parent by columns, so they
never gather or scatter through its parent array; every large level of a
block tree is one.  A large read-only level of any other shape is summed
by bincount, copy and all.  A tree keeps the node counts, fan-outs and
leaf probabilities its validation computes; an adapted sequence keeps its
deviation per leaf for the last (tree, lag) it was evaluated on; a loss
spec keeps the last tree's problem, the Bayesian strategy and the last
rival.  Arrays handed out from a cache are read-only.  Desk scale is
about 10^6 leaves for exact enumeration; beyond that, sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import HorizonParams, _integer, deviation_threshold
from .constructions import _block_shape, _exact_sum, _tail_event

__all__ = [
    "ProbabilityTree",
    "AdaptedSequence",
    "DeviationBoundCheck",
    "deviation_per_leaf",
    "exact_tail",
    "verify_deviation_bound",
    "random_tree",
    "block_process_tree",
]

_PROB_SUM_TOL = 1e-12
_LEAF_SUM_TOL = 1e-9
# A per-parent sum s passes when abs(s - 1.0) <= _PROB_SUM_TOL; s - 1.0 is exact
# near 1, so that is s in [_SUM_LO, _SUM_HI].  1.0 + 1e-12 rounds up past it.
_SUM_LO = 1.0 - _PROB_SUM_TOL
_SUM_HI = math.nextafter(1.0 + _PROB_SUM_TOL, 0.0)
# math.ulp(0.0) is the least positive double, so [ulp, inf] means "> 0"; a float64
# scalar, as numpy rounds a Python float to 0.0 in a float16 or float32 array's dtype.
_POSITIVE = np.float64(math.ulp(0.0))
# Validation reduces per-step arrays (sequence values, loss tables, choices) of at
# most this many entries together.  Each numpy call costs about 1 us however small
# its array, so one concatenate and two reductions beat two reductions per step;
# past a few thousand entries the copy costs more than the calls it saves.  On a
# 2-core x86 box a criterion-7-shaped sequence took 7.2 us checked grouped and 9.9 us
# one array at a time.  Tree levels are not grouped: each already costs a bincount,
# beside which its own reductions are not measurable.  Above this size a level or
# step is reduced by min and max, and a tree level may get a fan-out.
_GROUP_MAX = 4096
# Integer dtypes that bincount and indexing take without a cast (uint64 is not one).
_INDEX_CODES = "".join(c for c in np.typecodes["AllInteger"] if np.can_cast(c, np.intp))
# The largest fan-out summed by columns, one numpy call per column: on a 2-core x86
# box that beat bincount up to fan-out 16 (15 -> 8 us at 8192 nodes of fan-out 2)
# and lost from 32 on (53 against 35 us at fan-out 64).
_FAN_OUT_MAX = 16
# dtype kinds of real arrays (bool, int, uint, float): numpy orders complex numbers
# by their real part first, so a range check would pass 0.5 + 0.9j as within [-1, 1].
_REAL_KINDS = "biuf"


def _inside(a: np.ndarray, lo, hi) -> bool:
    # NaN fails lo <= min.  a[a.argmin()] is a.min(), NaN included, at a third of its
    # cost on small arrays; but argmin copies a read-only array first, which tripled
    # its cost on a 2^20-entry block-tree level.
    if a.size > _GROUP_MAX:
        return bool(lo <= a.min() and a.max() <= hi)
    return bool(lo <= a[a.argmin()] and a[a.argmax()] <= hi)


def _first_outside(arrays, lo, hi) -> int | None:
    """Index of the first array with an entry outside [lo, hi] (NaN is outside).

    Empty arrays pass.  Arrays of at most `_GROUP_MAX` entries are reduced as
    one, larger ones on their own; only when a check fails are the arrays
    scanned one by one to find the first offender.  Only `_check_steps` groups:
    checked one step at a time, a sequence took about 2.7 us more.
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


def _check_steps(arrays, where, kinds: str, lo, hi, not_array: str, outside: str) -> None:
    """Refuse the first array not 1-D of a kind in `kinds`, then the first outside [lo, hi].

    An error is `where(i)`, naming array i, then `not_array` or `outside`.
    """
    for i, a in enumerate(arrays):
        if not (isinstance(a, np.ndarray) and a.ndim == 1 and a.dtype.kind in kinds):
            raise ValueError(f"{where(i)}: {not_array}")
    bad = _first_outside(arrays, lo, hi)
    if bad is not None:
        raise ValueError(f"{where(bad)}: {outside}")


def _check_sizes(tree: ProbabilityTree, arrays, depth, where, noun: str) -> None:
    """Refuse the first array i not one `noun` a node at depth `depth(i)`, named by `where(i)`."""
    counts = tree.node_counts
    for i, a in enumerate(arrays):
        d = depth(i)
        if len(a) != counts[d]:
            raise ValueError(f"{where(i)}: {len(a)} {noun} for {counts[d]} depth-{d} nodes")


def _level_fault(par, pr) -> str | None:
    """What is wrong with one level's array types and lengths, if anything."""
    if not (isinstance(par, np.ndarray) and par.ndim == 1 and par.dtype.char in _INDEX_CODES):
        return "parents must be a 1-D integer array"
    if not (isinstance(pr, np.ndarray) and pr.ndim == 1 and pr.dtype.kind in _REAL_KINDS):
        return "branch probabilities must be a 1-D real array"
    if len(par) != len(pr):
        return "parent and probability arrays differ in length"
    if len(par) == 0:
        return "empty level"
    return None


def _fan_out(par: np.ndarray, n_parents: int) -> int:
    """b if `par` is 0, ..., 0, 1, ..., 1, ..., n_parents - 1, each b times; else 0.

    Only b <= `_FAN_OUT_MAX` is looked for.  The test reads the level once
    and allocates only booleans: column 0 of par.reshape(n_parents, b) runs
    from 0 to n_parents - 1 strictly increasing, and every other column
    equals it.
    """
    n = len(par)
    if n % n_parents or n > _FAN_OUT_MAX * n_parents:
        return 0
    b = n // n_parents
    cols = par.reshape(n_parents, b)
    first = cols[:, 0]
    if not (first[0] == 0 and first[-1] == n_parents - 1 and (first[1:] > first[:-1]).all()):
        return 0
    return b if b == 1 or (cols[:, 1:] == first[:, None]).all() else 0


def _parent_sums(par: np.ndarray, weights: np.ndarray, n_parents: int, fan_out: int) -> np.ndarray:
    """np.bincount(par, weights=weights, minlength=n_parents), in the same bits.

    np.bincount adds 0.0 + w_0 + w_1 + ... per parent in index order, in
    float64.  A level of fan-out b (see `_fan_out`) is summed in that order
    by columns of weights.reshape(n_parents, b), without reading `par`,
    which np.bincount would copy first when read-only (8.7 ms at 2^20
    entries on a 2-core x86 box, against 2.8 ms for the count).  At fan-out
    1 the sums are weights + 0.0, formed in place when `weights` is float64,
    so a caller passes fresh weights there.
    """
    if not fan_out:
        return np.bincount(par, weights=weights, minlength=n_parents)
    if fan_out == 1 and weights.dtype == np.float64:
        weights += 0.0
        return weights
    cols = weights.reshape(n_parents, fan_out)
    sums = np.add(cols[:, 0], 0.0, dtype=np.float64)
    for j in range(1, fan_out):
        sums += cols[:, j]
    return sums


def _step_down(tree: ProbabilityTree, d: int, x: np.ndarray) -> np.ndarray:
    """x[tree.parents[d - 1]]: depth-(d-1) node values carried to the depth-d nodes.

    A level of fan-out 1 hands back `x` itself, so a caller writes into the
    result only when `x` is its own scratch array.
    """
    b = tree._fan_outs[d - 1]
    if not b:
        return x[tree.parents[d - 1]]
    return x if b == 1 else np.repeat(x, b)


@dataclass(frozen=True, eq=False)
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
        counts, fan_outs = [1], []
        for d, (par, pr) in enumerate(zip(self.parents, self.branch_probs), start=1):
            if fault := _level_fault(par, pr):
                raise ValueError(f"depth {d}: {fault}")
            # Only levels of more than `_GROUP_MAX` nodes get a fan-out, whose indices
            # are in range by construction.  Elsewhere np.bincount raises on a negative
            # index and lengthens the sums for one past the parent level.
            large = len(par) > _GROUP_MAX
            b = _fan_out(par, counts[-1]) if large else 0
            try:
                sums = pr if b == 1 else _parent_sums(par, pr, counts[-1], b)
            except (ValueError, MemoryError):
                sums = None
            if sums is None or len(sums) > counts[-1]:
                raise ValueError(f"depth {d}: parent index out of range")
            # The level's extremes, reduced as `_inside` reduces them; NaN fails every test.
            if large:
                lo, hi = sums.min(), sums.max()
                least = lo if b == 1 else pr.min()
            else:
                lo, hi, least = sums[sums.argmin()], sums[sums.argmax()], pr[pr.argmin()]
            if not _POSITIVE <= least:
                raise ValueError(f"depth {d}: branch probabilities must be positive")
            if not (_SUM_LO <= lo and hi <= _SUM_HI):
                bad = int(np.argmax(np.abs(sums - 1.0)))
                raise ValueError(
                    f"depth {d}: branch probabilities at parent {bad} sum to {float(sums[bad])!r}"
                )
            counts.append(len(par))
            fan_outs.append(b)
        object.__setattr__(self, "_node_counts", tuple(counts))
        object.__setattr__(self, "_fan_outs", tuple(fan_outs))
        leaves = self._probabilities(self.depth)
        leaf_total = float(leaves.sum())  # pairwise: ~1e-14 off at 2^20 leaves
        if abs(leaf_total - 1.0) > _LEAF_SUM_TOL:
            raise ValueError(f"leaf probabilities sum to {leaf_total!r}")
        leaves.flags.writeable = False
        object.__setattr__(self, "_leaf_probs", leaves)

    @property
    def depth(self) -> int:
        return len(self.parents)

    @property
    def node_counts(self) -> tuple[int, ...]:
        return self._node_counts

    def node_probabilities(self, depth: int) -> np.ndarray:
        """Unconditional probabilities of the depth-d nodes (read-only at the leaves)."""
        depth = _integer("depth", depth, 0, self.depth)
        if depth == self.depth:
            return self._leaf_probs
        return self._probabilities(depth)

    def _probabilities(self, depth: int) -> np.ndarray:
        probs = np.ones(1)
        for d in range(1, depth + 1):
            probs = _step_down(self, d, probs)
            probs *= self.branch_probs[d - 1]
        return probs


@dataclass(frozen=True, eq=False)
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
        _check_steps(
            self.values, lambda i: f"step {i + 1}", _REAL_KINDS, -1.0, 1.0,
            "values must be a 1-D real array",
            "values must be finite and bounded by 1 in absolute value",
        )
        # (tree, lag, deviation per leaf) of the last `deviation_per_leaf` call.
        object.__setattr__(self, "_deviation", (None, 0, None))

    @property
    def n_steps(self) -> int:
        return len(self.values)


def _check_consistent(tree: ProbabilityTree, seq: AdaptedSequence) -> None:
    if seq.n_steps > tree.depth:
        raise ValueError(f"sequence has {seq.n_steps} steps but tree depth is {tree.depth}")
    _check_sizes(tree, seq.values, lambda i: i + 1, lambda i: f"step {i + 1}", "values")


def _pull_back(tree: ProbabilityTree, values: np.ndarray, depth: int, target: int) -> np.ndarray:
    """Backward induction of node values from `depth` to `target` <= depth."""
    out = values
    for d in range(depth, target, -1):
        if out is values:
            out = tree.branch_probs[d - 1] * out
        else:  # a fresh float64 array of this walk's own
            out *= tree.branch_probs[d - 1]
        par, b = tree.parents[d - 1], tree._fan_outs[d - 1]
        out = _parent_sums(par, out, tree.node_counts[d - 1], b)
    return out


def deviation_per_leaf(tree: ProbabilityTree, seq: AdaptedSequence, lag: int) -> np.ndarray:
    """Deviation S = sum_n (Y_n - E(Y_n|F_{n-lag})), one value per depth-N node.

    N is the sequence length; each of the N terms has magnitude at most 2.
    The result is cached on `seq` for the last (tree, lag) and read-only.
    """
    # Checked before the cache, where a lag of 2.0 would equal a cached 2.
    lag = _integer("lag", lag)
    last_tree, last_lag, last = seq._deviation
    if last_tree is tree and last_lag == lag:
        return last
    _check_consistent(tree, seq)
    N, values = seq.n_steps, seq.values
    # Each conditional mean is subtracted at the depth where it becomes known,
    # on the way down to depth N with the Y values.  Depth d >= 1 knows one,
    # E(Y_{d+lag} | F_d); the root knows the first `lag`, negated only once
    # summed, since -(m1 + m2) and (-m1) - m2 can differ in the sign of a zero.
    root = _pull_back(tree, values[0], 1, 0)
    for n in range(2, min(lag, N) + 1):
        root += _pull_back(tree, values[n - 1], n, 0)
    acc = -root
    for d in range(1, N + 1):
        acc = _step_down(tree, d, acc)
        acc += values[d - 1]
        if d + lag <= N:
            acc -= _pull_back(tree, values[d + lag - 1], d + lag, d)
    acc.flags.writeable = False
    object.__setattr__(seq, "_deviation", (tree, lag, acc))
    return acc


def _path_sums(tree: ProbabilityTree, steps, first: int) -> np.ndarray:
    """Sums of `steps` down every root-to-node path, `steps[i]` on the depth-(first + i) nodes."""
    acc = np.zeros(tree.node_counts[first - 1])
    for d, step in enumerate(steps, start=first):
        acc = _step_down(tree, d, acc)
        acc += step
    return acc


def exact_tail(
    tree: ProbabilityTree,
    seq: AdaptedSequence,
    lag: int,
    C: float,
    sided: str = "two_sided",
) -> float:
    """Exact P(|S| >= C) (two_sided) or P(S >= C) (upper) by leaf enumeration.

    The tail is the correctly rounded sum of the probabilities of the leaves
    in the event, the float `math.fsum` gives (`constructions._exact_sum`).
    """
    event = _tail_event(C, sided)
    dev = deviation_per_leaf(tree, seq, lag)
    probs = tree.node_probabilities(seq.n_steps)
    return _exact_sum(probs[event(dev)])


@dataclass(frozen=True)
class DeviationBoundCheck:
    tail: float
    threshold: float
    epsilon: float

    @property
    def holds(self) -> bool:
        return self.tail < self.epsilon


def verify_deviation_bound(
    tree: ProbabilityTree, seq: AdaptedSequence, lag: int, epsilon: float
) -> DeviationBoundCheck:
    """Compare the exact two-sided deviation tail against its guaranteed bound.

    `holds` must come back True on every valid input; a False return would
    falsify either the bound or this engine.
    """
    lag = _integer("lag", lag)  # refused as `lag`, before HorizonParams would call it K
    threshold = deviation_threshold(HorizonParams(N=seq.n_steps, K=lag, epsilon=epsilon))
    tail = exact_tail(tree, seq, lag, threshold, sided="two_sided")
    return DeviationBoundCheck(tail=tail, threshold=threshold, epsilon=epsilon)


def random_tree(
    depth: int, max_branching: int, seed: int
) -> tuple[ProbabilityTree, AdaptedSequence]:
    """Seeded random tree with Dirichlet-ish branch weights and Y uniform in [-1, 1].

    Children are laid out parent-contiguously.  Each level draws, in order, per-node branching
    uniform on {2, ..., max_branching} by `integers` (no draw when max_branching is 2: a range
    of one value draws nothing), the exponential weights, and the values by `uniform`.
    """
    depth, max_branching = _integer("depth", depth), _integer("max_branching", max_branching, lo=2)
    rng = np.random.default_rng(seed)
    parents, branch_probs, values = [], [], []
    n_nodes = 1
    for _ in range(depth):
        branching = rng.integers(2, max_branching + 1, size=n_nodes) if max_branching > 2 else 2
        par = np.arange(n_nodes).repeat(branching)
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
    Every level array is a read-only prefix of one of at most five shared
    arrays of 2^m entries (m = N/K): pass-through parents 0, 1, 2, ...,
    split parents 0, 0, 1, 1, ..., probabilities 1 and 0.5, and the
    alternating signs.  Its levels take at most 40 * 2^m bytes in all (the
    2^20-leaf tree 40 MiB, against 96 MiB when each level had its own array).
    """
    N, K, m = _block_shape(N, K)
    leaves = 1 << m
    split_parents = np.repeat(np.arange(leaves // 2), 2)
    halves = np.full(leaves, 0.5)
    signs = np.ones(leaves)
    signs[1::2] = -1.0
    shared = [split_parents, halves, signs]
    if K > 1:
        through_parents, ones = np.arange(leaves), np.ones(leaves)
        shared += [through_parents, ones]
    for a in shared:
        a.flags.writeable = False
    parents: list[np.ndarray] = []
    branch_probs: list[np.ndarray] = []
    values: list[np.ndarray] = []
    n_nodes = 1
    for n in range(1, N + 1):
        if (n - 1) % K == 0:
            n_nodes *= 2
            parents.append(split_parents[:n_nodes])
            branch_probs.append(halves[:n_nodes])
        else:
            parents.append(through_parents[:n_nodes])
            branch_probs.append(ones[:n_nodes])
        values.append(signs[:n_nodes])
    tree = ProbabilityTree(parents=tuple(parents), branch_probs=tuple(branch_probs))
    return tree, AdaptedSequence(values=tuple(values))
