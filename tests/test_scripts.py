"""The experiment scripts under `scripts/`, each run once at a small size."""

import runpy
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, argv, monkeypatch, capsys):
    """Run one script as `__main__` and return its CSV rows as dicts, plus the config line."""
    monkeypatch.setattr(sys, "argv", [name, *argv])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    config, header, *rows = capsys.readouterr().out.splitlines()
    return config, [dict(zip(header.split(","), row.split(","))) for row in rows]


def test_imbalance_curve(monkeypatch, capsys):
    _, rows = run_script("imbalance_curve.py", ["--m-max", "8"], monkeypatch, capsys)
    assert [r["m"] for r in rows] == [str(m) for m in range(1, 9)]
    assert rows[5]["probability"] == "0.109375"  # 7/64 at m = 6


def test_mc_convergence(monkeypatch, capsys):
    config, rows = run_script("mc_convergence.py", ["--N", "4", "--K", "2"], monkeypatch, capsys)
    # two fair blocks of length 2 reach sqrt(8) only when both are +1
    assert '"exact": 0.25' in config
    assert '"seed": 1729' in config
    assert [int(r["trials"]) for r in rows] == [1000 * 2**j for j in range(10)]


def test_threshold_table(monkeypatch, capsys):
    _, rows = run_script("threshold_table.py", [], monkeypatch, capsys)
    assert len(rows) == 96
    first = rows[0]
    assert (first["N"], first["K"], first["epsilon"]) == ("64", "1", "0.01")
    assert first["upper"] == "69.20532489214696"  # 4 sqrt(65 ln 100)
