"""kstep-lln benchmark: one workload, timed passes, checked outputs, one JSON line.

    python3 perfbench/run.py --workload tree-exact --seed 1729 --seconds 30 --trace 0

Run from the root of a checkout of the repository; the library is imported
from its `src/`.  With `--trace 0` the last line of stdout carries the
end-to-end metrics of BENCHMARK.json; with `--trace 1` it carries the
per-layer metrics, from passes traced by `tracer.Tracer`, and the tracing
overhead against untraced passes run in the same process.  Set-up time is
the median over fresh processes, each started with `--setup-probe`, from
spawn to the line "ready".  A run record (versions, digests, sample counts)
and, when traced, the spans are written under `.bench_out/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

if __package__ in (None, ""):  # run as a script: make `perfbench` importable
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.tracer import NullTracer, Tracer, dump_spans
from perfbench.workloads import OUT, ROOT, SRC, WORKLOADS, canonical

DEFAULT_SEED = 1729
SETUP_PROBES = 5
MIN_PASSES = 2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0,
                   help="measure passes for about this long (at least two passes run)")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=["full", "smoke"], default="full",
                   help="smoke: reduced inputs, for the benchmark's own test")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def probe_setup(args) -> float:
    """Seconds from spawning a fresh interpreter to its workload being ready to time."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--setup-probe"]
    t0 = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def run_pass(wl, tracer):
    tr = tracer if tracer is not None else NullTracer()
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        t0 = perf_counter()
        out = wl.run(tr)
        wall = perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    failed, problems, health = wl.check(out)
    rec = {"traced": tracer is not None, "wall": wall, "out": out, "failed": failed,
           "problems": problems, "digest": canonical(out.rows)}
    if tracer is not None:
        calls, busy = tracer.totals()
        layer = {f"{k}.calls": v for k, v in calls.items()}
        layer.update({f"{k}.busy_s": v for k, v in busy.items()})
        layer.update(tracer.counts)
        layer.update({k: (0.0 if math.isinf(v) else v) for k, v in health.items()})
        layer.update(wl.layer_extras(out))
        rec.update(layer=layer, spans=list(tracer.spans), self_s=tracer.self_time_sum())
        if rec["self_s"] > wall:
            problems.append(f"span self times sum to {rec['self_s']!r} s, above wall {wall!r} s")
    return rec


def git_sha():
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, check=True).stdout.split()
    except (OSError, subprocess.CalledProcessError):
        return None
    return top[1] if Path(top[0]).resolve() == ROOT else None


def src_sha256() -> str:
    h = hashlib.sha256()
    for f in sorted((SRC / "kstep_lln").rglob("*.py")):
        h.update(f.relative_to(SRC).as_posix().encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def best_of(per_pass: list[list[float]]) -> list[float]:
    """Each operation's fastest time over the passes (operations align across passes).

    Contention from other tenants of a shared machine only ever adds time,
    so the fastest repeat of an operation is its least disturbed measurement.
    """
    return [min(times) for times in zip(*per_pass, strict=True)]


def best_wall(passes) -> float:
    """Seconds for one pass built from every operation's fastest repeat."""
    return sum(best_of([p["out"].op_ms for p in passes])) / 1e3


def best_latencies(passes) -> list[float]:
    """Each instance's latency (ms), summed over its operations' fastest repeats."""
    lat = [0.0] * passes[0]["out"].instances
    for ms, inst in zip(best_of([p["out"].op_ms for p in passes]), passes[0]["out"].op_instance):
        if inst is not None:
            lat[inst] += ms
    return lat


def quantile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "kstep_lln").is_dir():
        print(f"error: no library sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    cls = WORKLOADS[args.workload]
    if args.setup_probe:
        cls(args.seed, args.size).warm_up()
        print("ready", flush=True)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = cls(args.seed, args.size)
    wl.warm_up()
    tracer = Tracer() if args.trace else None
    passes, setup = [], []
    probes = 0 if args.trace else SETUP_PROBES
    measured = 0.0
    # Rounds (an untraced pass, then a traced one when tracing) repeat while
    # another round is expected to keep the measured time within --seconds,
    # and until there are at least MIN_PASSES passes, so every operation has
    # a repeat to compare.  The set-up probes run between rounds, spread over
    # the run, so the passes span more of the machine's slow and quiet phases.
    while True:
        t_round = perf_counter()
        passes.append(run_pass(wl, None))
        if tracer is not None:
            passes.append(run_pass(wl, tracer))
        took = perf_counter() - t_round
        measured += took
        while len(setup) < probes and measured >= (len(setup) + 1) * args.seconds / (probes + 1):
            setup.append(probe_setup(args))
        if len(passes) >= MIN_PASSES and measured + took > args.seconds:
            break
    while len(setup) < probes:
        setup.append(probe_setup(args))

    plain = [p for p in passes if not p["traced"]]
    wall = best_wall(plain)
    lat = best_latencies(plain)
    attempted = sum(p["out"].attempted for p in passes)
    failed = sum(p["failed"] for p in passes)
    problems = [msg for p in passes for msg in p["problems"]]
    digests = sorted({p["digest"] for p in passes})
    if len(digests) > 1:
        problems.append(f"passes disagree on the output digest: {digests}")

    if args.trace:
        traced = [p for p in passes if p["traced"]]
        values = {
            m["name"]: statistics.median(p["layer"].get(m["name"], 0.0) for p in traced)
            for m in spec["per_layer"]
        }
        values["trace.overhead_frac"] = (best_wall(traced) - wall) / wall
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
        dump_spans(spans_path, traced[-1]["spans"])  # the last traced pass
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "work_per_s": plain[0]["out"].work / wall,
            "instance_p50_ms": quantile(lat, 50),
            "instance_p99_ms": quantile(lat, 99),
            "peak_rss_mb": wl.peak_rss_mb(),
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    fail_frac = failed / attempted if attempted else 1.0
    correct = failed == 0 and not problems and attempted > 0

    import mpmath
    import numpy
    import scipy

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "size": args.size,
        "seconds": args.seconds,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
        "workers": wl.workers,
        "work_unit": wl.work_unit,
        "passes": {"untraced": len(plain), "traced": len(passes) - len(plain)},
        "samples": {"setup_s": len(setup), "wall_s": len(plain), "work_per_s": len(plain),
                    "instance_p50_ms": len(lat), "instance_p99_ms": len(lat)},
        "pass_walls_s": {"untraced": [p["wall"] for p in plain],
                         "traced": [p["wall"] for p in passes if p["traced"]]},
        "median_pass_wall_s": statistics.median(p["wall"] for p in plain),
        "digest": digests[0],
        "artifact_digests": {r[1]: r[2] for r in passes[0]["out"].rows if r[0] == "artifact"},
        "attempted": attempted,
        "failed": failed,
        "fail_frac": fail_frac,
        "problems": problems,
        "metrics": metrics,
    }
    if args.trace:
        record["spans_file"] = str(spans_path.relative_to(ROOT))
        record["span_self_s"] = [p["self_s"] for p in passes if p["traced"]]
    OUT.mkdir(exist_ok=True)
    rec_path = OUT / f"record-{args.workload}-{args.seed}-trace{args.trace}.json"
    rec_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
          f"work unit: {wl.work_unit}  correct {correct}")
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']!r} {m['unit']}")
    print(f"  {'fail_frac':42s} {fail_frac!r} ratio")
    for msg in problems:
        print(f"  problem: {msg}")
    print(f"record {rec_path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
