"""The three benchmark workloads, each a closed loop over generated inputs.

A workload's constructor is its set-up: it imports the library and builds
every input from the seed (arrays, tree-file documents or CLI arguments).
`run` is one timed pass: it issues each operation only after the previous
one returned, through the public functions of the layers, and returns the
canonical result rows.  `check` runs after every pass, outside the timing,
and judges those rows.

Instance designs are balanced (every shape combination appears a fixed
number of times) and the seed only drives the random content of each
instance, so the amount of work in a pass barely depends on the seed.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import re
import resource
import shutil
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path
from time import perf_counter

from .tracer import TARGETS, NullTracer, Tracer

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


@dataclass
class PassOut:
    """What one pass produced: result rows and the numbers measured around them."""

    rows: list = field(default_factory=list)
    op_ms: list = field(default_factory=list)  # every operation, in issue order
    # For each operation, the index of the instance it belongs to (None: not
    # part of the latency population).  An instance may span several operations.
    op_instance: list = field(default_factory=list)
    instances: int = 0
    attempted: int = 0
    errors: list = field(default_factory=list)
    work: float = 0.0
    extra: dict = field(default_factory=dict)


def canonical(rows) -> str:
    """sha256 of the rows in instance order, floats written with repr."""
    h = hashlib.sha256()
    for row in rows:
        h.update(",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row).encode())
        h.update(b"\n")
    return h.hexdigest()


class Workload:
    name = ""
    workers = 1
    op_base = 0  # added to operation ids, so the parts of a workload do not share ids

    def _op(self, out: PassOut, tr, op_id: int, kind: str, fn, sample: bool = True):
        """Run one operation; an exception fails the op and the loop goes on."""
        out.attempted += 1
        t0 = perf_counter()
        try:
            with tr.op(self.op_base + op_id, kind):
                row = fn()
        except Exception as exc:  # a failed operation is counted, not fatal
            out.errors.append(f"{kind} {op_id}: {exc!r}")
            row = (kind, op_id, "error", repr(exc))
        out.op_ms.append((perf_counter() - t0) * 1e3)
        out.op_instance.append(out.instances if sample else None)
        out.instances += sample
        if row is not None:  # None: a step that is not the operation's last
            out.rows.append(row)
        return row

    def warm_up(self) -> None:
        pass

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def layer_extras(self, out: PassOut) -> dict[str, float]:
        return {}


class TreeExact(Workload):
    """Criterion-7-shaped deviation instances and criterion-9-shaped decisions."""

    name = "tree-exact"
    work_unit = "leaves"
    DEC_EPS = (0.1, 0.3, 0.69)

    def __init__(self, seed: int, size: str):
        import numpy as np

        from kstep_lln import decision, treefile, trees

        n_dev, n_dec = (1000, 500) if size == "full" else (40, 20)
        rng = np.random.default_rng([seed, 7])
        combos = list(product(range(4, 11), (2, 3), (1, 2, 3), (0.05, 0.3, 0.69)))
        self.dev = []
        for i in rng.permutation(n_dev):
            depth, branching, lag, eps = combos[i % len(combos)]
            tree, seq = trees.random_tree(depth, branching, int(rng.integers(2**62)))
            self.dev.append((tree.parents, tree.branch_probs, seq.values, lag, eps))

        combos = list(product((2, 3, 4), (1, 2), (2, 3), (2, 3), ("random", "adversarial")))
        self.dec = []
        for j in rng.permutation(n_dec):
            n_steps, horizon, branching, n_dec_, alt = combos[j % len(combos)]
            tree, _ = trees.random_tree(n_steps + horizon, branching, int(rng.integers(2**62)))
            counts = tree.node_counts
            loss = decision.LossSpec(
                space=decision.DecisionSpace(labels=tuple(f"d{k}" for k in range(n_dec_))),
                horizon=horizon,
                tables=tuple(
                    tuple(rng.uniform(0.0, 1.0, size=counts[n + horizon]) for _ in range(n_dec_))
                    for n in range(1, n_steps + 1)
                ),
            )
            doc = json.dumps(treefile.bundle_to_dict(treefile.TreeBundle(tree=tree, losses=loss)))
            self.dec.append((doc, alt, int(rng.integers(2**62))))

    def warm_up(self) -> None:
        keep = self.dev, self.dec
        self.dev, self.dec = self.dev[:3], self.dec[:2]
        try:
            self.run(NullTracer())
        finally:
            self.dev, self.dec = keep

    def run(self, tr) -> PassOut:
        import numpy as np

        from kstep_lln import bounds, decision, treefile, trees

        out = PassOut()

        def deviation(i, parents, probs, values, lag, eps):
            tree = trees.ProbabilityTree(parents=parents, branch_probs=probs)
            seq = trees.AdaptedSequence(values=values)
            check = trees.verify_deviation_bound(tree, seq, lag, eps)
            one = trees.exact_tail(tree, seq, lag, check.threshold, sided="upper")
            return ("deviation", i, len(parents[-1]), lag, eps, check.threshold, check.tail, one)

        def choose(j, doc, alt_kind, alt_seed):
            bundle = treefile.bundle_from_dict(json.loads(doc))
            tree, loss = bundle.tree, bundle.losses
            if alt_kind == "random":
                alt = decision.random_strategy(tree, loss, alt_seed)
            else:
                alt = decision.adversarial_strategy(tree, loss)
            bayes = decision.bayesian_strategy(tree, loss)
            counts = tree.node_counts
            gap = -math.inf
            for n in range(1, loss.n_steps + 1):
                per_d = np.stack(
                    [decision.expected_losses(tree, loss, n, d) for d in range(len(loss.space))]
                )
                chosen = per_d[bayes.choices[n - 1], np.arange(counts[n])]
                gap = max(gap, float((chosen - per_d.min(axis=0)).max()))
            shift = decision.shifted_deviation_check(tree, loss, alt)
            tails = []
            for eps in self.DEC_EPS:
                params = bounds.HorizonParams(N=loss.n_steps, K=loss.horizon, epsilon=eps)
                thr = bounds.deviation_threshold(params)
                tails.append(decision.regret_tail(tree, loss, alt, thr))
            return ("decision", j, alt_kind, counts[-1], gap, shift.passed,
                    shift.max_conditional_mean, *tails)

        for i, inst in enumerate(self.dev):
            row = self._op(out, tr, i, "deviation", lambda: deviation(i, *inst))
            if row[2] != "error":
                out.work += row[2]
        tr.count("trees.leaves", out.work)
        for j, inst in enumerate(self.dec):
            tr.count("treefile.bytes", len(inst[0]))
            row = self._op(out, tr, len(self.dev) + j, "decision", lambda: choose(j, *inst))
            if row[2] != "error":
                out.work += row[3]
        return out

    def check(self, out: PassOut):
        failed, slack, margin = len(out.errors), math.inf, math.inf
        for row in out.rows:
            if row[2] == "error":
                continue
            if row[0] == "deviation":
                *_, eps, _, two, one = row
                slack = min(slack, eps - two)
                failed += not (two < eps and one < eps / 2.0)
            else:
                gap, shift_ok, tails = row[4], row[5], row[7:]
                margin = min(margin, *(eps / 2.0 - t for eps, t in zip(self.DEC_EPS, tails)))
                failed += not (
                    gap <= 1e-12 and shift_ok and all(t < e / 2.0 for e, t in zip(self.DEC_EPS, tails))
                )
        problems = [f"{failed} of {out.attempted} instances failed"] if failed else []
        return failed, problems, {"trees.min_slack": slack, "decision.min_margin": margin}


class MonteCarlo(Workload):
    """Criterion-8-shaped estimates plus one large block and one large tree estimate.

    The first part of `numerics`.
    """

    COVERAGE = 47 / 50  # criterion 8's acceptance rate

    def __init__(self, seed: int, size: str):
        import numpy as np

        from kstep_lln import trees

        self.workers = min(2, len(os.sched_getaffinity(0)))
        full = size == "full"
        # Sized so a pass takes about 1.5 s: every operation then repeats
        # a dozen times in a run, and the small estimates are many.
        n_small, small_trials = (100, 10_000) if full else (8, 5_000)
        big_block = (4096, 4, 10_000) if full else (256, 4, 5_000)
        big_tree = (40, 2, 50_000) if full else (16, 2, 5_000)
        rng = np.random.default_rng([seed, 8])
        tree_combos = list(product(range(5, 9), (2, 3), (1, 2, 3)))
        self.ops = []
        n_block = (n_small + 1) // 2
        for i in range(n_small):
            mc_seed = int(rng.integers(2**62))
            if i % 2 == 0:
                b = i // 2
                m = 2 * (2 + (b * 30) // max(n_block - 1, 1))  # even m from 4 to 64
                lag = int(rng.choice([1, 2, 4]))
                C = float(rng.choice([0.5, 1.0, 1.5])) * math.sqrt(lag * m * lag)
                self.ops.append(("block", m * lag, lag, C, small_trials, mc_seed))
            else:
                depth, branching, lag = tree_combos[(i // 2) % len(tree_combos)]
                tree, seq = trees.random_tree(depth, branching, int(rng.integers(2**62)))
                dev = np.abs(trees.deviation_per_leaf(tree, seq, lag))
                spread = float(np.quantile(dev, 0.9))
                C = spread if spread > 0 else 0.5
                arrays = (tree.parents, tree.branch_probs, seq.values)
                self.ops.append(("tree", arrays, lag, C, small_trials, mc_seed))
        self.n_small = n_small
        N, K, trials = big_block
        self.ops.append(("block", N, K, math.sqrt(K * N), trials, int(rng.integers(2**62))))
        N, K, trials = big_tree
        tree, seq = trees.block_process_tree(N, K)
        arrays = (tree.parents, tree.branch_probs, seq.values)
        self.ops.append(("tree", arrays, K, 2.0 * math.sqrt(K * N), trials, int(rng.integers(2**62))))

    def warm_up(self) -> None:
        keep, self.ops = self.ops, self.ops[:2]
        try:
            self.run(NullTracer())
        finally:
            self.ops = keep

    def run(self, tr) -> PassOut:
        from kstep_lln import constructions, sampling, trees

        out = PassOut()

        # Each function yields between its steps and yields its result last.
        # A small estimate is one operation; each step of a large one is an
        # operation of its own, so that no operation lasts long.
        def block(N, K, C, trials, mc_seed):
            exact = constructions.block_deviation_tail(N, K, C)
            sampler = sampling.block_deviation_sampler(N, K)
            yield
            est = sampling.mc_tail(
                sampler, C, sided="upper", trials=trials, seed=mc_seed, workers=self.workers
            )
            tr.count("sampling.sign_draws", trials * (N // K))
            yield exact, est

        def tree(arrays, K, C, trials, mc_seed):
            parents, probs, values = arrays
            t = trees.ProbabilityTree(parents=parents, branch_probs=probs)
            seq = trees.AdaptedSequence(values=values)
            yield
            sampler = sampling.tree_deviation_sampler(t, seq, K)
            yield
            est = sampling.mc_tail(
                sampler, C, sided="two_sided", trials=trials, seed=mc_seed, workers=self.workers
            )
            tr.count("trees.leaves", len(parents[-1]))
            yield
            yield trees.exact_tail(t, seq, K, C, sided="two_sided"), est

        for i, (kind, size, K, C, trials, mc_seed) in enumerate(self.ops):
            steps = (block if kind == "block" else tree)(size, K, C, trials, mc_seed)
            small = i < self.n_small

            def op():
                result = next(steps)
                while small and result is None:
                    result = next(steps)
                if result is None:
                    return None
                exact, est = result
                tr.count("sampling.trials", est.trials)
                return (i, kind, K, C, exact, est.p_hat, est.ci_low, est.ci_high, est.trials,
                        est.contains(exact))

            row = None
            while row is None:
                row = self._op(out, tr, i, kind, op, sample=small)
            if row[2] != "error":
                out.work += row[8]
        return out

    def check(self, out: PassOut):
        failed, contained, estimates = len(out.errors), 0, 0
        for row in out.rows:
            if row[2] == "error":
                continue
            _, _, _, _, exact, p_hat, lo, hi, trials, inside = row
            estimates += 1
            contained += inside
            failed += not (0.0 <= exact <= 1.0 and lo <= p_hat <= hi and trials > 0)
        coverage = contained / estimates if estimates else 0.0
        problems = [f"{failed} of {out.attempted} estimates failed"] if failed else []
        if coverage < self.COVERAGE:
            problems.append(f"coverage {contained}/{estimates} below {self.COVERAGE!r}")
        return failed, problems, {"sampling.coverage": coverage}


class BinomialScan(Workload):
    """Fair-binomial tails: the criterion-1 scan, seeded tails, the mv audit, the dominance grid.

    The second part of `numerics`.
    """

    EXACT_M = 1000  # seeded tails up to this m are checked against rational arithmetic

    def __init__(self, seed: int, size: str):
        import numpy as np

        import kstep_lln  # noqa: F401  (importing the library is part of set-up)

        full = size == "full"
        # The criterion-1 scan runs to m = 2000, not 10^4: at 10^4 it is one
        # 2.7 s call, too few repeats in a run for a steady fastest time.
        self.m_max, self.mv_max = (2_000, 200) if full else (200, 64)
        n_pairs, top = (2000, 6.0) if full else (40, 4.0)
        rng = np.random.default_rng([seed, 1])
        self._exact: dict[tuple[int, int], float] = {}
        self.pairs = []
        for i in range(n_pairs):
            # Stratified in log m, so every seed covers 10 .. 10^top evenly.
            m = int(10.0 ** (1.0 + (top - 1.0) * (i + rng.random()) / n_pairs))
            if i % 2 == 0:
                self.pairs.append(("imbalance", m, 0))
            else:
                z = rng.uniform(-4.0, 4.0)
                self.pairs.append(("tail", m, int(round(m / 2 + z * math.sqrt(m) / 2))))

    def warm_up(self) -> None:
        from kstep_lln import constructions

        constructions.min_imbalance_prob(50)
        constructions.binomial_upper_tail(10**6, 10**6 // 2 + 500)

    @staticmethod
    def dominance_grid(bounds) -> list:
        """Criterion 4's grid, unchanged: 200 (N, K, C) triples and 100 discharges."""
        ks, ms = [1, 2, 3, 4, 5], [2, 4, 8, 16, 32]
        ratios = [0.25, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 12.0]
        rows = []
        for K in ks:
            for m in ms:
                N = K * m
                for r in ratios:
                    C = r * math.sqrt(K * N)
                    ap = bounds.AggregationParams.from_horizon(C, N, K)
                    exact = bounds.aggregation_bound(ap, relaxed=False)
                    relaxed = bounds.aggregation_bound(ap, relaxed=True)
                    mid = bounds.midpoint_bound(C, K, N)
                    rows.append(("chain", N, K, C, exact, relaxed, mid))
        for eps in (0.05, 0.2, 0.5, 0.69):
            for K in ks:
                for m in ms:
                    N = K * m
                    C = 4.0 * math.sqrt(K * N * math.log(1.0 / eps))
                    rows.append(("discharge", N, K, eps, bounds.midpoint_bound(C, K, N)))
        return rows

    def run(self, tr) -> PassOut:
        from kstep_lln import bounds, constructions

        out = PassOut()
        op_id = 0

        def scan():
            return ("min_imbalance", *constructions.min_imbalance_prob(self.m_max))

        self._op(out, tr, op_id, "min_imbalance", scan, sample=False)
        for kind, m, k0 in self.pairs:
            op_id += 1
            if kind == "imbalance":
                fn = lambda: ("imbalance", m, 0, constructions.imbalance_prob(m))  # noqa: E731
            else:
                fn = lambda: ("tail", m, k0, constructions.binomial_upper_tail(m, k0))  # noqa: E731
            self._op(out, tr, op_id, kind, fn)

        def audit():
            r = constructions.verify_mv_bound(self.mv_max)
            return ("mv", r.pairs_checked, len(r.violations), r.min_slack, *r.min_slack_at)

        op_id += 1
        row = self._op(out, tr, op_id, "mv_audit", audit, sample=False)
        mv_pairs = row[1] if row[2] != "error" else 0

        def grid():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", RuntimeWarning)
                rows = self.dominance_grid(bounds)
            hits = sum("left search boundary" in str(w.message) for w in caught)
            return ("grid", hits, rows)

        op_id += 1
        row = self._op(out, tr, op_id, "grid", grid, sample=False)
        if row[2] != "error":
            out.rows[-1] = ("grid", row[1])
            out.rows.extend(row[2])
            tr.count("bounds.aggregation_bound.boundary_hits", row[1])
        out.work = self.m_max + len(self.pairs) + mv_pairs
        return out

    def check(self, out: PassOut):
        from kstep_lln import constructions

        failed, grid_ok, mv_slack = len(out.errors), True, 0.0
        for row in out.rows:
            if len(row) > 2 and row[2] == "error":
                continue
            kind = row[0]
            if kind == "min_imbalance":
                ok = row[1] == 6 and abs(row[2] - 7 / 64) <= 1e-12
            elif kind in ("imbalance", "tail"):
                _, m, k0, value = row
                ok = 0.0 <= value <= 1.0
                if m <= self.EXACT_M:
                    k = constructions.imbalance_threshold(m) if kind == "imbalance" else k0
                    if (m, k) not in self._exact:  # the reference depends on the input only
                        self._exact[m, k] = float(constructions.binomial_upper_tail_exact(m, k))
                    exact = self._exact[m, k]
                    ok = ok and abs(value - exact) <= 1e-12 * exact
            elif kind == "mv":
                ok, mv_slack = row[2] == 0, row[3]
            elif kind == "chain":  # the grid is one operation
                exact, relaxed, mid = row[4:]
                grid_ok &= exact <= relaxed + 1e-9 and relaxed <= mid + 1e-9
                continue
            elif kind == "discharge":
                grid_ok &= row[4] < row[3] / 2.0
                continue
            else:
                continue
            failed += not ok
        failed += not grid_ok
        problems = [f"{failed} of {out.attempted} operations failed"] if failed else []
        return failed, problems, {"constructions.mv_min_slack": mv_slack}


class Numerics(Workload):
    """The Monte Carlo estimates, then the fair-binomial tails, in one pass.

    The two parts keep their own inputs and checks.  Their instances form
    one population: the seeded tails set the median, the slowest Monte Carlo
    estimates the 99th percentile.
    """

    name = "numerics"
    work_unit = "Monte Carlo trials"

    def __init__(self, seed: int, size: str):
        self.parts = (MonteCarlo(seed, size), BinomialScan(seed, size))
        self.parts[1].op_base = len(self.parts[0].ops)
        self.workers = self.parts[0].workers

    def warm_up(self) -> None:
        for part in self.parts:
            part.warm_up()

    def run(self, tr) -> PassOut:
        out = PassOut()
        outs = out.extra["parts"] = [part.run(tr) for part in self.parts]
        for o in outs:
            out.rows += o.rows
            out.errors += o.errors
            out.attempted += o.attempted
            out.op_ms += o.op_ms
            out.op_instance += [None if i is None else i + out.instances for i in o.op_instance]
            out.instances += o.instances
        out.work = outs[0].work
        return out

    def check(self, out: PassOut):
        failed, problems, health = 0, [], {}
        for part, o in zip(self.parts, out.extra["parts"]):
            f, p, h = part.check(o)
            failed += f
            problems += p
            health.update(h)
        return failed, problems, health


class VerifyAll(Workload):
    """`kstep-lln verify-all --quick`, through the CLI entry point `kstep_lln.cli.main`.

    The CLI runs in the benchmark process, so its import is set-up and each
    pass is one call.  That call is the one instance of the workload.  It is
    timed by stage: every call the CLI makes on its own thread into a
    criterion or a traced library function (`STAGES`), each counted
    without its nested calls, and the rest of the call, which parses the
    arguments, prints the verdicts and writes the artifacts.  The calls come
    in the same order on every pass, so each stage is an operation and the
    call's time is built from the fastest repeat of each stage.  Per-criterion
    times for the trace come from the verdict lines.
    """

    name = "verify-all"
    work_unit = "criterion 7-9 instances"
    LINE = re.compile(r"^\[criterion\s+(\d+)\] (PASS|FAIL)\s+(\S+): (.*) \(([0-9.]+)s\)$")
    ARTIFACTS = ("criterion_7.csv", "criterion_8.csv", "criterion_9.csv")
    # `expected_losses` is left out: it is called about 6700 times a pass for
    # 6 us each, and timing it would add more time than it resolves.
    STAGES = [t for t in TARGETS if t[2] != "decision.expected_losses"]

    def __init__(self, seed: int, size: str):
        import kstep_lln.cli  # noqa: F401  (the set-up a CLI user pays)

        # The suite draws its own instance shapes from its seed, and at the
        # quick tier the work of one seed is up to a third above another's.
        # The suite therefore always runs at its default seed, as a user runs
        # it, and the workload seed does not reach it.
        self.seed = kstep_lln.cli.DEFAULT_SEED
        # Both sizes run the quick tier: a --full call takes about 15 s, so a
        # run would hold one or two calls and their time would be noise.
        self.tier = "--quick"

    def run(self, tr) -> PassOut:
        from kstep_lln import cli

        out = PassOut()
        art = OUT / f"verify-all-{os.getpid()}"
        shutil.rmtree(art, ignore_errors=True)
        art.mkdir(parents=True)
        argv = ["verify-all", self.tier, "--seed", str(self.seed), "--artifact-dir", str(art)]
        text, err = io.StringIO(), io.StringIO()
        stages = Tracer(self.STAGES)
        stages.install()
        try:
            with redirect_stdout(text), redirect_stderr(err):
                self._op(out, tr, 0, "verify-all", lambda: ("verify-all", self.seed, cli.main(argv)))
            self._read(out, text.getvalue(), art)
        finally:
            stages.uninstall()
            shutil.rmtree(art, ignore_errors=True)
        out.extra["returncode"] = out.rows[0][2]
        out.extra["stderr"] = err.getvalue()[-2000:]
        # Stages in the order the calls returned; the rest of the call is last.
        call_ms = out.op_ms[0]
        out.op_ms = [span[6] * 1e3 for span in stages.spans]
        out.op_ms.append(call_ms - sum(out.op_ms))
        out.op_instance = [0] * len(out.op_ms)
        return out

    def _read(self, out: PassOut, text: str, art: Path) -> None:
        verdicts = out.extra["verdicts"] = {}
        for line in text.splitlines():
            m = self.LINE.match(line)
            if m:
                verdicts[int(m[1])] = m[2]
                out.rows.append((int(m[1]), m[2], m[3], m[4]))
                out.extra[f"verify.criterion_{m[1]}_s"] = float(m[5])
            else:
                out.rows.append(("line", line))
        size = 0
        for f in sorted(art.glob("criterion_*.csv")):
            data = f.read_bytes()
            size += len(data)
            out.rows.append(("artifact", f.name, hashlib.sha256(data).hexdigest()))
            if f.name in self.ARTIFACTS:
                out.work += sum(1 for ln in data.splitlines()[2:] if ln)
        out.extra["output.artifact_bytes"] = size

    def check(self, out: PassOut):
        verdicts = out.extra.get("verdicts", {})
        passed = sum(1 for v in verdicts.values() if v == "PASS")
        problems = [] if passed == 10 else [f"{passed}/10 criteria passed {out.errors}"]
        if out.extra.get("returncode") != 0:
            problems.append(f"exit code {out.extra.get('returncode')}: {out.extra.get('stderr', '')}")
        if ("line", "10/10 criteria passed") not in out.rows:
            problems.append("summary line '10/10 criteria passed' missing")
        return int(bool(problems)), problems, {}

    def layer_extras(self, out: PassOut) -> dict[str, float]:
        return {k: v for k, v in out.extra.items() if k.startswith(("verify.", "output."))}


WORKLOADS = {w.name: w for w in (TreeExact, Numerics, VerifyAll)}
