"""In-memory spans around calls into the kstep_lln layers, recorded from outside.

`Tracer.install()` replaces selected public functions (and the constructors
of the tree types) with wrappers that record one span per call: name, start,
end, parent span and operation id.  Every binding of a wrapped function is
replaced, in every loaded `kstep_lln` module and in the dispatch tables those
modules hold (such as `verify.CRITERIA`), so calls between modules are seen
as well; `uninstall()` restores the originals.  Nothing under `src/` is
edited.  Only calls on the thread that installed the tracer are recorded:
the worker threads of `mc_tail` run sampler closures, which are not wrapped.

`NullTracer` has the same counting interface and does nothing, so untraced
passes run the exact same workload code.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


def _tail_terms(m, k0, *_, **__) -> int:
    """Length of the short side of the fair-binomial tail P(Z >= k0)."""
    if k0 <= 0 or k0 > m:
        return 0
    return m - max(k0, m - k0 + 1) + 1


# (module, attribute, span name, optional counter: name -> fn(args) -> count).
# Attributes of the form "Class.__init__" wrap a constructor.
TARGETS = [
    ("trees", "ProbabilityTree.__init__", "trees.build", None),
    ("trees", "AdaptedSequence.__init__", "trees.build", None),
    ("trees", "verify_deviation_bound", "trees.verify_deviation_bound", None),
    ("trees", "exact_tail", "trees.exact_tail", None),
    ("trees", "deviation_per_leaf", "trees.deviation_per_leaf", None),
    ("decision", "bayesian_strategy", "decision.bayesian_strategy", None),
    ("decision", "random_strategy", "decision.alt_strategy", None),
    ("decision", "adversarial_strategy", "decision.alt_strategy", None),
    ("decision", "expected_losses", "decision.expected_losses", None),
    ("decision", "shifted_deviation_check", "decision.shifted_deviation_check", None),
    ("decision", "regret_tail", "decision.regret_tail", None),
    ("treefile", "bundle_from_dict", "treefile.bundle_from_dict", None),
    ("sampling", "block_deviation_sampler", "sampling.sampler_build", None),
    ("sampling", "tree_deviation_sampler", "sampling.sampler_build", None),
    ("sampling", "mc_tail", "sampling.mc_tail", None),
    ("constructions", "min_imbalance_prob", "constructions.min_imbalance_prob", None),
    (
        "constructions",
        "binomial_upper_tail",
        "constructions.binomial_upper_tail",
        ("constructions.tail_terms", _tail_terms),
    ),
    ("constructions", "verify_mv_bound", "constructions.verify_mv_bound", None),
    ("constructions", "block_deviation_tail", "constructions.block_deviation_tail", None),
    ("bounds", "aggregation_bound", "bounds.aggregation_bound", None),
]

# The acceptance criteria, which `verify.run_all` reaches through the
# `verify.CRITERIA` table and criterion 10 through the module's own names.
VERIFY_TARGETS = [
    ("verify", f"criterion_{n}_{name}", f"verify.criterion_{n}", None)
    for n, name in enumerate(
        ("min_imbalance", "imbalance_limit", "epsilon_cutoff", "dominance_chain", "mv_audit",
         "inverse_bound_instance", "deviation_suite", "mc_coverage", "corollary_suite",
         "determinism"),
        start=1,
    )
]
TARGETS += VERIFY_TARGETS


class NullTracer:
    """Tracing off: the counting calls of the workloads cost nothing."""

    def count(self, name: str, value: float) -> None:
        pass

    @contextmanager
    def op(self, op_id: int, kind: str):
        yield


class Tracer:
    """Spans kept in memory; `dump_spans` writes them out once the run is over."""

    def __init__(self, targets=TARGETS) -> None:
        self.targets = targets
        self.spans: list[tuple] = []  # (id, name, start, end, parent, op, self_s)
        self.counts: dict[str, float] = defaultdict(float)
        self.op_kinds: dict[int, str] = {}
        self._stack: list[list] = []  # [span id, child time, name]
        self._op = -1
        self._ids = itertools.count()
        self._thread = threading.get_ident()
        self._saved: list[tuple] = []

    def count(self, name: str, value: float) -> None:
        self.counts[name] += value

    @contextmanager
    def op(self, op_id: int, kind: str):
        self.op_kinds[op_id] = kind
        prev, self._op = self._op, op_id
        try:
            yield
        finally:
            self._op = prev

    def _wrap(self, fn, name: str, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != self._thread:
                return fn(*args, **kwargs)
            if counter is not None and not any(f[2] == name for f in self._stack):
                self.counts[counter[0]] += counter[1](*args, **kwargs)
            span_id = next(self._ids)
            parent = self._stack[-1][0] if self._stack else -1
            frame = [span_id, 0.0, name]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                dur = end - start
                if self._stack:
                    self._stack[-1][1] += dur
                self.spans.append((span_id, name, start, end, parent, self._op, dur - frame[1]))

        return wrapper

    def install(self) -> None:
        for mod_name, *_ in self.targets:
            importlib.import_module(f"kstep_lln.{mod_name}")
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "kstep_lln"]
        # Module namespaces, and the dispatch tables that modules hold.
        owners = [vars(m) for m in modules]
        owners += [v for ns in owners for v in list(ns.values()) if isinstance(v, dict)]
        for mod_name, attr, name, counter in self.targets:
            mod = sys.modules[f"kstep_lln.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._saved.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(orig, name, counter))
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(orig, name, counter)
            for ns in owners:
                for key, val in list(ns.items()):
                    if val is orig:
                        self._saved.append((ns, key, orig))
                        ns[key] = wrapped

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._saved):
            if isinstance(owner, dict):
                owner[key] = orig
            else:
                setattr(owner, key, orig)
        self._saved.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.op_kinds.clear()

    def totals(self) -> tuple[dict[str, int], dict[str, float]]:
        """Calls and self time per span name; mc_tail is also split by op kind."""
        calls: dict[str, int] = defaultdict(int)
        busy: dict[str, float] = defaultdict(float)
        for _, name, _, _, _, op, self_s in self.spans:
            keys = [name]
            if name == "sampling.mc_tail":
                keys.append(f"{name}.{self.op_kinds.get(op, 'other')}")
            for key in keys:
                calls[key] += 1
                busy[key] += self_s
        return calls, busy

    def self_time_sum(self) -> float:
        return sum(s[6] for s in self.spans)


def dump_spans(path, spans: list[tuple]) -> None:
    """Write spans as JSON lines."""
    keys = ("id", "name", "start", "end", "parent", "op", "self_s")
    with open(path, "w") as fh:
        for span in spans:
            fh.write(json.dumps(dict(zip(keys, span))) + "\n")
