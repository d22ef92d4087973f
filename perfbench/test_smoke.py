"""Smoke test of the benchmark itself, on reduced inputs (`--size smoke`).

    python3 -m pytest perfbench/test_smoke.py -q

It lives outside the tier-1 `testpaths`, so the library's own suite does
not run it.  Each workload must finish with no failed operation and print
every metric of BENCHMARK.json by name with its unit; a traced run must
write spans whose self times add up to no more than the traced pass.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1729",
           "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def printed(lines, name, unit):
    return any(ln.split()[:1] == [name] and ln.endswith(f" {unit}") for ln in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    proc = run(ROOT, workload, 0)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
        assert printed(lines, m["name"], m["unit"])
    assert any(ln.split() == ["fail_frac", "0.0", "ratio"] for ln in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_spans_fit_inside_the_pass(workload):
    proc = run(ROOT, workload, 1)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert printed(lines, m["name"], m["unit"])
    record = json.loads((ROOT / lines[-2].split()[1]).read_text())
    spans = [json.loads(ln) for ln in (ROOT / record["spans_file"]).read_text().splitlines()]
    walls = record["pass_walls_s"]["traced"]
    assert spans and sum(s["self_s"] for s in spans) <= walls[-1]
    assert all(self_s <= wall for self_s, wall in zip(record["span_self_s"], walls, strict=True))


def test_refuses_to_run_without_the_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
