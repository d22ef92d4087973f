import bisect
import hashlib
import itertools
import math
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from kstep_lln import sampling
from kstep_lln.constructions import block_deviation_tail
from kstep_lln.sampling import (
    TailEstimate,
    block_deviation_sampler,
    clopper_pearson,
    counter_seeds,
    derive_seed,
    mc_tail,
    tree_deviation_sampler,
)
from kstep_lln.sampling import _CHUNK, _inverse_cdf_draw, _mix
from kstep_lln.treefile import bundle_from_dict
from kstep_lln.trees import (
    AdaptedSequence,
    block_process_tree,
    deviation_per_leaf,
    exact_tail,
    random_tree,
)


class TestCounterStreams:
    def test_seeds_are_pure_functions_of_inputs(self):
        idx = np.arange(10, dtype=np.uint64)
        np.testing.assert_array_equal(counter_seeds(42, idx), counter_seeds(42, idx))
        assert not np.array_equal(counter_seeds(42, idx), counter_seeds(43, idx))

    def test_derive_seed_distinct_branches(self):
        assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)
        assert derive_seed(1, 2) != derive_seed(2, 2)

    def test_derive_seed_is_the_counter_seeds_chain(self):
        # The integer splitmix64 step against the numpy one it replaces.
        def chain(master, path):
            key = master
            for p in path:
                key = int(counter_seeds(key, np.array([p], dtype=np.uint64))[0])
            return key

        rng = np.random.default_rng(2024)
        for _ in range(10_000):
            # Masters of either sign; labels small, as the criteria use them, or any uint64.
            master = int(rng.integers(0, 2**64, dtype=np.uint64)) - 2**63
            high = 12 if rng.random() < 0.5 else 2**64
            path = [int(p) for p in rng.integers(0, high, size=int(rng.integers(0, 5)), dtype=np.uint64)]
            assert derive_seed(master, *path) == chain(master, path), (master, path)
        assert derive_seed(5, 2**64 - 1) == chain(5, [2**64 - 1])

    def test_derive_seed_rejects_negative_label(self):
        with pytest.raises(OverflowError):
            derive_seed(1, 2, -1)

    def test_callers_arrays_are_left_unchanged(self):
        # splitmix64 runs in place on fresh arrays; np.asarray would hand back the caller's own.
        a = np.arange(2**40, 2**40 + 300, dtype=np.uint64)
        want = a.copy()
        keys = counter_seeds(9, a)
        assert not np.shares_memory(keys, a)
        np.testing.assert_array_equal(a, want)
        tree, seq = random_tree(depth=4, max_branching=3, seed=5)
        for sampler in (block_deviation_sampler(130, 2), tree_deviation_sampler(tree, seq, 2)):
            sampler(9, a)
            np.testing.assert_array_equal(a, want)


class TestClopperPearson:
    def test_degenerate_ends(self):
        lo, hi = clopper_pearson(0, 100)
        assert lo == 0.0 and hi < 0.06
        lo, hi = clopper_pearson(100, 100)
        assert hi == 1.0 and lo > 0.94

    @given(st.integers(1, 2000), st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_scipy_binomtest(self, trials, data):
        hits = data.draw(st.integers(0, trials))
        lo, hi = clopper_pearson(hits, trials)
        ref = scipy.stats.binomtest(hits, trials).proportion_ci(
            confidence_level=0.99, method="exact"
        )
        assert lo == pytest.approx(ref.low, abs=1e-9)
        assert hi == pytest.approx(ref.high, abs=1e-9)

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            clopper_pearson(5, 4)

    @given(st.integers(1, 200_000), st.data())
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_beta_ppf(self, trials, data):
        hits = data.draw(st.integers(0, trials))
        lo, hi = clopper_pearson(hits, trials)
        beta, half = scipy.stats.beta, (1.0 - 0.99) / 2.0
        assert lo == (0.0 if hits == 0 else float(beta.ppf(half, hits, trials - hits + 1)))
        assert hi == (1.0 if hits == trials else float(beta.ppf(1.0 - half, hits + 1, trials - hits)))

    def test_import_does_not_load_scipy_stats(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        code = "import sys, kstep_lln.cli; print('scipy.stats' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={"PYTHONPATH": src}, timeout=60,
        )
        assert out.stdout.strip() == "False"

    def test_submodule_imports_load_only_their_dependencies(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        code = (
            "import sys, kstep_lln.bounds; print(*(m in sys.modules for m in ('numpy', 'scipy', 'mpmath')));"
            "import kstep_lln.constructions; print('mpmath' in sys.modules);"
            "import kstep_lln.trees; print('scipy' in sys.modules, 'mpmath' in sys.modules);"
            "import kstep_lln.decision, kstep_lln.treefile;"
            "print('scipy' in sys.modules, 'mpmath' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={"PYTHONPATH": src}, timeout=60,
        )
        assert out.stdout.splitlines() == [
            "False False False", "False", "False False", "False False"
        ]


class TestTailEstimate:
    def test_interval_must_contain_point(self):
        with pytest.raises(ValueError):
            TailEstimate(trials=10, hits=5, ci_low=0.6, ci_high=0.9)

    def test_contains(self):
        est = TailEstimate(trials=10, hits=5, ci_low=0.2, ci_high=0.8)
        assert est.p_hat == 0.5
        assert est.contains(0.3)
        assert not est.contains(0.9)


class TestMcTail:
    BOTH_SAMPLERS = pytest.mark.parametrize(
        "sampler, C",
        [
            (block_deviation_sampler(12, 3), 6.0),
            (tree_deviation_sampler(*random_tree(depth=6, max_branching=3, seed=404), 2), 1.75),
        ],
        ids=["block", "tree"],
    )

    def test_impossible_event_gives_zero_with_zero_lower_end(self):
        sampler = block_deviation_sampler(4, 2)
        est = mc_tail(sampler, 100.0, sided="upper", trials=5000, seed=1)
        assert est.p_hat == 0.0
        assert est.ci_low == 0.0
        assert est.hits == 0

    def test_block_instance_covers_exact_value(self):
        est = mc_tail(
            block_deviation_sampler(6, 1),
            math.sqrt(6),
            sided="upper",
            trials=100_000,
            seed=31,
        )
        assert est.contains(7 / 64)

    @BOTH_SAMPLERS
    def test_identical_across_worker_counts(self, sampler, C):
        kwargs = dict(sided="two_sided", trials=70_001, seed=5)  # three chunks
        one, *more = (mc_tail(sampler, C, workers=w, **kwargs) for w in (1, 2, 3, 4))
        assert 0 < one.hits < one.trials
        assert all(est == one for est in more)

    @BOTH_SAMPLERS
    def test_identical_across_chunk_sizes(self, monkeypatch, sampler, C):
        # 70_001 trials: three chunks of 2^15, or eighteen of 2^12, the last
        # one partial either way; each trial's draws are keyed by its index.
        kwargs = dict(sided="two_sided", trials=70_001, seed=5)
        assert _CHUNK == 1 << 15
        est = mc_tail(sampler, C, **kwargs)
        monkeypatch.setattr(sampling, "_CHUNK", 1 << 12)
        assert 0 < est.hits < est.trials
        assert mc_tail(sampler, C, **kwargs) == est

    @pytest.mark.parametrize("workers", [1, 3])
    def test_estimates_do_not_depend_on_the_order_a_sampler_returns(self, workers):
        sampler = tree_deviation_sampler(*random_tree(depth=6, max_branching=3, seed=404), 2)

        def reversed_chunks(master_seed, trials):
            return sampler(master_seed, trials)[::-1]

        kwargs = dict(sided="two_sided", trials=70_001, seed=5, workers=workers)  # three chunks
        est = mc_tail(sampler, 1.75, **kwargs)
        assert 0 < est.hits < est.trials
        assert mc_tail(reversed_chunks, 1.75, **kwargs) == est

    def test_every_chunk_runs_on_calling_thread(self):
        threads = []

        def recording(master_seed, trials):
            threads.append(threading.get_ident())
            return np.zeros(len(trials))

        mc_tail(recording, 0.5, sided="upper", trials=32_769, seed=0, workers=2)  # two chunks
        assert threads == [threading.get_ident()] * 2

    def test_tree_sampler_agrees_with_exact_enumeration(self):
        tree, seq = random_tree(depth=6, max_branching=3, seed=404)
        lag = 2
        dev = deviation_per_leaf(tree, seq, lag)
        C = float(np.quantile(np.abs(dev), 0.85))
        exact = exact_tail(tree, seq, lag, C)
        est = mc_tail(
            tree_deviation_sampler(tree, seq, lag), C, sided="two_sided", trials=80_000, seed=2
        )
        assert est.contains(exact)

    @pytest.mark.parametrize("kind", ["block", "tree"])
    def test_samplers_agree_with_the_block_tail_one_ulp_above_a_lattice_point(self, kind):
        # N = 8, K = 1, C = 2 + 1 ulp: the event is S >= 4, not S >= 2.
        C = math.nextafter(2.0, 3.0)
        tree, seq = block_process_tree(8, 1)
        exact = block_deviation_tail(8, 1, C, sided="upper")
        assert exact == exact_tail(tree, seq, 1, C, sided="upper") == 37 / 256
        if kind == "block":
            sampler = block_deviation_sampler(8, 1)
        else:
            sampler = tree_deviation_sampler(tree, seq, 1)
        est = mc_tail(sampler, C, sided="upper", trials=50_000, seed=8)
        assert est.contains(exact)
        assert not est.contains(block_deviation_tail(8, 1, 2.0, sided="upper"))

    def test_sampler_failure_reports_chunk_range(self):
        calls = []

        def broken(master_seed, trials):
            calls.append(len(trials))
            if 70_000 in trials:
                raise RuntimeError("boom")
            return np.zeros(len(trials))

        with pytest.raises(RuntimeError, match=r"trials \[65536, 98303\]"):
            mc_tail(broken, 0.5, sided="upper", trials=100_000, seed=0)
        assert calls == [32768, 32768, 32768]  # the failing chunk is not rerun per trial

    def test_sampler_returning_the_wrong_count(self):
        with pytest.raises(RuntimeError) as err:
            mc_tail(lambda seed, trials: np.zeros(3), 0.5, sided="upper", trials=10, seed=0)
        assert str(err.value) == "sampler returned 3 values for 10 trials"

    def test_rejects_bad_arguments(self):
        sampler = block_deviation_sampler(4, 2)
        with pytest.raises(ValueError):
            mc_tail(sampler, 1.0, sided="upper", trials=0, seed=0)
        with pytest.raises(ValueError):
            mc_tail(sampler, 1.0, sided="middle", trials=10, seed=0)
        for C in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="must be finite"):
                mc_tail(sampler, C, sided="upper", trials=10, seed=0)
        with pytest.raises(ValueError, match="workers must be a positive integer, got 0"):
            mc_tail(sampler, 1.0, sided="upper", trials=10, seed=0, workers=0)

    def test_rejects_seeds_that_would_alias_before_sampling(self):
        # Seeds become 64-bit stream keys: 2^64 + 12345 would draw what 12345 draws.
        def never(seed, trials):
            raise AssertionError("sampler called")

        refused = ((-1, "at least 0"), (2**64 + 12345, f"at most {2**64 - 1}"), (1.5, "an integer"))
        for seed, limit in refused:
            with pytest.raises(ValueError, match=f"seed must be {limit}"):
                mc_tail(never, 0.5, sided="upper", trials=10, seed=seed)
        sampler = tree_deviation_sampler(*random_tree(3, 2, seed=1), 1)
        kwargs = dict(sided="upper", trials=2000)
        assert mc_tail(sampler, 0.5, seed=np.uint64(12345), **kwargs) == mc_tail(
            sampler, 0.5, seed=12345, **kwargs
        )
        assert mc_tail(sampler, 0.5, seed=2**64 - 1, **kwargs).trials == 2000

    def test_coverage_over_repeated_seeds(self):
        # 99% intervals of a conservative exact method must contain the true
        # value nearly always; 194/200 allows more than 4 sigma of slack.
        exact = block_deviation_tail(8, 1, math.sqrt(8))
        sampler = block_deviation_sampler(8, 1)
        contained = sum(
            mc_tail(sampler, math.sqrt(8), sided="upper", trials=5000, seed=s).contains(exact)
            for s in range(200)
        )
        assert contained >= 194

    def test_block_sampler_distribution_matches_exact_tails(self):
        # Single big sample; compare hit rates at several thresholds at once.
        sampler = block_deviation_sampler(16, 2)
        for C in (0.0, 4.0, 8.0):
            exact = block_deviation_tail(16, 2, C)
            est = mc_tail(sampler, C, sided="upper", trials=60_000, seed=99)
            assert est.contains(exact)

    def test_samplers_reject_ragged_blocks(self):
        with pytest.raises(ValueError):
            block_deviation_sampler(7, 2)


def _splitmix_word(key: int, j: int) -> int:
    """Word j of a stream keyed by `key`, in plain integer arithmetic."""
    mask = (1 << 64) - 1
    z = (key + (j + 1) * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def _tree_reference_draws(tree, seq, lag, seed, trials):
    """Each trial's tree draw, one trial at a time, in trial order."""
    dev = deviation_per_leaf(tree, seq, lag)
    cdf = list(itertools.accumulate(tree.node_probabilities(seq.n_steps).tolist()))
    out = []
    for t in trials.tolist():
        key = int(counter_seeds(seed, np.array([t], dtype=np.uint64))[0])
        u = (_splitmix_word(key, 0) >> 11) * 2.0**-53
        out.append(dev[bisect.bisect_right(cdf[:-1], u * cdf[-1])])
    return np.array(out, dtype=np.float64)


class TestBlockSampler:
    BLOCKS = (1, 63, 64, 65, 128, 1024)

    @pytest.mark.parametrize("m", BLOCKS)
    def test_counts_lie_on_the_lattice_with_binomial_moments(self, m):
        K = 3
        n = 1 << 16
        dev = block_deviation_sampler(m * K, K)(2024, np.arange(n, dtype=np.uint64))
        z = (dev / K + m) / 2.0
        assert np.array_equal(z, np.round(z))  # on the lattice {(2j - m) K}
        assert z.min() >= 0 and z.max() <= m  # the masked last word adds no signs
        mean, var = m / 2.0, m / 4.0
        # Var of the unbiased sample variance: (mu4 - (n-3)/(n-1) var^2) / n, where
        # a Binomial(m, 1/2) count has fourth central moment var (1 + 3 (m-2)/4).
        mu4 = var * (1.0 + 3.0 * (m - 2) / 4.0)
        var_sd = math.sqrt((mu4 - (n - 3) / (n - 1) * var**2) / n)
        assert abs(z.mean() - mean) <= 5.0 * math.sqrt(var / n)
        assert abs(z.var(ddof=1) - var) <= 5.0 * var_sd

    @pytest.mark.parametrize("m", BLOCKS)
    def test_counts_are_the_popcount_of_the_first_m_stream_bits(self, m):
        trials = np.array([0, 1, 7, 2**40 + 3], dtype=np.uint64)
        dev = block_deviation_sampler(m, 1)(99, trials)
        for t, d in zip(trials, dev):
            key = int(counter_seeds(99, np.array([t], dtype=np.uint64))[0])
            bits = sum(_splitmix_word(key, j) << (64 * j) for j in range(-(-m // 64)))
            assert d == 2 * bin(bits & ((1 << m) - 1)).count("1") - m

    @given(st.sampled_from(BLOCKS + (None,)), st.integers(0, 2**63), st.data())
    @settings(max_examples=30, deadline=None)
    def test_each_trial_depends_only_on_its_index(self, m, seed, data):
        # m = None stands for the tree sampler, which keys its one uniform the same way.
        # Its tree has 43 leaves, so up to 100 trials reach both of its searches.
        size = 50 if m is not None else 100
        idx = np.array(data.draw(st.lists(st.integers(0, 2**40), min_size=1, max_size=size)),
                       dtype=np.uint64)
        sel = np.array(data.draw(st.lists(st.booleans(), min_size=len(idx), max_size=len(idx))))
        if m is not None:
            sampler = block_deviation_sampler(2 * m, 2)
            np.testing.assert_array_equal(sampler(seed, idx)[sel], sampler(seed, idx[sel]))
        else:
            # The tree sampler returns a chunk's draws in key order, not trial order:
            # compare each set of trials' sorted draws with its sorted references.
            tree, seq = random_tree(depth=4, max_branching=3, seed=5)
            sampler = tree_deviation_sampler(tree, seq, 2)
            want = _tree_reference_draws(tree, seq, 2, seed, idx)
            for trials, ref in ((idx, want), (idx[sel], want[sel])):
                np.testing.assert_array_equal(np.sort(sampler(seed, trials)), np.sort(ref))

    @pytest.mark.parametrize("columns, trials", [
        (1, 1), (63, 1), (64, 1), (65, 1),
        (1, _CHUNK), (63, _CHUNK), (64, _CHUNK), (65, _CHUNK),
        (65, 1000), (4096, 7),  # several columns a slab, the last slab short
    ])
    def test_slabs_match_one_word_column_at_a_time(self, columns, trials):
        m = 64 * columns - 5  # the last word masked to 59 bits
        idx = np.arange(trials, dtype=np.uint64) * np.uint64(3) + np.uint64(11)
        keys = counter_seeds(5, idx)
        masks = np.full(columns, np.uint64((1 << 64) - 1))
        masks[-1] = (1 << 59) - 1
        z = np.zeros(trials, dtype=np.int64)
        for j, mask in enumerate(masks):  # word column j is mix(key + (j + 1) * golden)
            z += np.bitwise_count(_mix(keys + ((j + 1) * 0x9E3779B97F4A7C15 & (1 << 64) - 1)) & mask)
        dev = block_deviation_sampler(2 * m, 2)(5, idx)
        np.testing.assert_array_equal(dev, (2.0 * z - m) * 2)

    def test_a_long_block_on_one_trial_is_its_stream_popcount(self):
        # 10^5 word columns, 2^14 of them a slab.
        columns = 100_000
        m = 64 * columns - 5
        trial = np.array([11], dtype=np.uint64)
        key = int(counter_seeds(5, trial)[0])
        ones = sum(_splitmix_word(key, j).bit_count() for j in range(columns - 1))
        ones += (_splitmix_word(key, columns - 1) & ((1 << 59) - 1)).bit_count()
        assert block_deviation_sampler(m, 1)(5, trial).tolist() == [2 * ones - m]

    def test_memory_does_not_grow_with_the_block_length(self):
        # Built and run under the trace: a trials x m/64 word matrix would take
        # 32 MiB at N = 65536, and a table of all m/64 word offsets 12.5 MB at
        # N = 10^8.
        for N, trials in ((65536, 4096), (10**8, 1)):
            tracemalloc.start()
            try:
                block_deviation_sampler(N, 1)(3, np.arange(trials, dtype=np.uint64))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20, N


def _shuffled_tree_file(seed):
    """A random tree and sequence, nodes shuffled within each level, read back as a tree file."""
    tree, seq = random_tree(depth=5, max_branching=3, seed=seed)
    rng = np.random.default_rng(seed)
    new_of_old = np.zeros(1, dtype=np.int64)
    nodes, values = [], []
    for par, pr, y in zip(tree.parents, tree.branch_probs, seq.values):
        perm = rng.permutation(len(par))  # new node k is old node perm[k]
        nodes.append([{"parent": int(new_of_old[par[k]]), "prob": float(pr[k])} for k in perm])
        values.append(y[perm].tolist())
        new_of_old = np.argsort(perm)
    bundle = bundle_from_dict({"depth": tree.depth, "nodes": nodes, "Y": values})
    assert any(np.any(np.diff(p) < 0) for p in bundle.tree.parents)
    return bundle.tree, bundle.sequence


class TestTreeSampler:
    @given(st.integers(1, 6), st.integers(2, 4), st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_leaf_probabilities_are_exact_path_products(self, depth, branching, seed):
        tree, _ = random_tree(depth=depth, max_branching=branching, seed=seed)
        self._assert_path_products(tree)

    def test_tree_file_leaf_probabilities_are_exact_path_products(self):
        self._assert_path_products(_shuffled_tree_file(8)[0])

    @staticmethod
    def _assert_path_products(tree):
        for leaf, stored in enumerate(tree.node_probabilities(tree.depth)):
            chain, node = [], leaf
            for d in range(tree.depth, 0, -1):
                chain.append(tree.branch_probs[d - 1][node])
                node = tree.parents[d - 1][node]
            product = 1.0
            for branch in reversed(chain):  # root first, as the leaf draw's law is built
                product *= branch
            assert product == stored

    def test_each_trial_draws_the_leaf_its_first_stream_word_picks(self):
        tree, seq = _shuffled_tree_file(3)
        trials = np.array([0, 1, 2, 99, 2**40 + 3], dtype=np.uint64)
        drawn = tree_deviation_sampler(tree, seq, 2)(77, trials)
        want = _tree_reference_draws(tree, seq, 2, 77, trials)
        np.testing.assert_array_equal(np.sort(drawn), np.sort(want))

    def test_draw_frequencies_match_the_leaf_law(self):
        tree, seq = _shuffled_tree_file(11)
        dev = deviation_per_leaf(tree, seq, 1)
        probs = tree.node_probabilities(tree.depth)
        n = 1 << 16
        drawn = tree_deviation_sampler(tree, seq, 1)(4, np.arange(n, dtype=np.uint64))
        for value in np.unique(dev):
            p = math.fsum(probs[dev == value].tolist())
            hits = int(np.count_nonzero(drawn == value))
            assert abs(hits - n * p) <= 5.0 * math.sqrt(n * p * (1.0 - p))

    @pytest.mark.parametrize("n_leaves, n_keys", [
        (7, 200), (300, 40), (50, 50), (1, 1), (1, 9), (5, 0), (9, 1), (40, 2**15), (2**16, 2**15),
    ])
    def test_sorted_search_matches_bisect_right(self, n_leaves, n_keys):
        # Fewer leaves than keys, more, as many; one leaf; one key, no keys; a whole
        # chunk, whose positions fill 15 low bits.  Zero-probability leaves repeat a
        # partial sum, and half the keys sit exactly on a partial sum.
        rng = np.random.default_rng(n_leaves * 1000 + n_keys)
        probs = rng.random(n_leaves) * (rng.random(n_leaves) < 0.8)
        probs[0] += 0.1
        cdf = np.cumsum(probs)
        x = rng.random(n_keys) * cdf[-1]
        on_edge = rng.random(n_keys) < 0.5
        x[on_edge] = rng.choice(cdf, size=int(on_edge.sum()))
        values = np.arange(n_leaves) * 1.5 - 2.0
        edges = cdf[:-1].tolist()
        want = [values[bisect.bisect_right(edges, key)] for key in sorted(x.tolist())]
        got = _inverse_cdf_draw(values, cdf, x)
        assert got.dtype == values.dtype and got.tolist() == want

    def test_short_sequence_draws_from_its_last_step(self):
        tree, seq = random_tree(depth=6, max_branching=3, seed=21)
        short = AdaptedSequence(values=seq.values[:4])
        dev = deviation_per_leaf(tree, short, 2)
        C = float(np.quantile(np.abs(dev), 0.7))
        est = mc_tail(
            tree_deviation_sampler(tree, short, 2), C, sided="two_sided", trials=40_000, seed=6
        )
        assert est.contains(exact_tail(tree, short, 2, C))


class TestGoldenDraws:
    """The samplers' raw output, pinned by sha256 across versions of the code.

    Criterion 10 compares draws across worker counts only; these digests
    compare them with the draws of the code that recorded them.  The tree
    sampler's output order is not part of its contract, so its digests are
    of each chunk's draws sorted by value, recorded from trial-order output
    sorted the same way.
    """

    @pytest.mark.parametrize("depth, lag, n_leaves, digest", [
        # A whole chunk takes the leaf-run search.
        (8, 2, 2093, "6c4b46f656cddf72329c905e876e1bc9f818bca6efd2083615d9189eba92cc09"),
        # More leaves than a chunk's trials: the key search into the partial sums.
        (12, 3, 82269, "53604ca47cd4a84ae6ae5be1528f49bf2826d443dea2f1c19cc37f92676e45ae"),
    ], ids=["tree", "wide-tree"])
    def test_tree_draws_match_their_recorded_digest(self, depth, lag, n_leaves, digest):
        tree, seq = random_tree(depth=depth, max_branching=3, seed=17)
        assert len(tree.parents[-1]) == n_leaves
        sampler = tree_deviation_sampler(tree, seq, lag)
        self._assert_digest(lambda seed, idx: np.sort(sampler(seed, idx)), digest)

    def test_block_draws_match_their_recorded_digest(self):
        # m = 65: two words a trial, the second masked to its lowest bit.
        self._assert_digest(
            block_deviation_sampler(130, 2),
            "9af10061d848ea8d3992b268ff50a47f82464487135b72b4f8c4e06cf6fc6849",
        )

    @staticmethod
    def _assert_digest(sampler, digest):
        trials = _CHUNK + 1  # two chunks, split as `mc_tail` splits them
        out = np.concatenate([
            sampler(1729, np.arange(start, min(start + _CHUNK, trials), dtype=np.uint64))
            for start in range(0, trials, _CHUNK)
        ])
        assert out.dtype == np.float64 and len(out) == trials
        assert hashlib.sha256(out.tobytes()).hexdigest() == digest
