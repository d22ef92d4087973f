import csv
import dataclasses
import io
import json
import math
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import write_tree
from kstep_lln import bounds, cli, constructions, decision, verify
from kstep_lln.bounds import gaussian_survival
from kstep_lln.cli import EXIT_OK, EXIT_TREEFILE, EXIT_USAGE, EXIT_VERIFY, main
from kstep_lln.constructions import binomial_upper_tail, imbalance_prob_exact
from kstep_lln.decision import DecisionSpace, LossSpec
from kstep_lln.treefile import TreeBundle, bundle_to_dict
from kstep_lln.trees import random_tree
from tests.test_treefile import full_bundle


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def readme_tree_file(tmp_path) -> str:
    """Writes the JSON block under README.md's `## Tree files` heading; returns its path."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    path = tmp_path / "readme.json"
    path.write_text(readme.split("\n## Tree files\n")[1].split("```json\n")[1].split("```")[0])
    return str(path)


def records(out):
    """The config comment line and the CSV rows below it, parsed as a CSV reader would."""
    config, body = out.split("\n", 1)
    return config, list(csv.DictReader(io.StringIO(body, newline="")))


class TestBound:
    def test_csv_row_and_config_comment(self, capsys):
        code, out, _ = run(capsys, "bound", "--N", "100", "--K", "5", "--epsilon", "0.05")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0].startswith("# config: ")
        assert lines[1].split(",")[:4] == ["N", "K", "epsilon", "threshold"]
        threshold = float(lines[2].split(",")[3])
        assert threshold == pytest.approx(158.63212504992021, abs=1e-6)

    def test_output_flags_accepted_after_subcommand(self, capsys):
        code, out, _ = run(
            capsys, "bound", "--N", "3", "--K", "1", "--epsilon", repr(math.exp(-1)),
            "--format", "json",
        )
        assert code == EXIT_OK
        assert json.loads(out)["result"][0]["threshold"] == 8.0

    def test_rejects_out_of_range_epsilon(self, capsys):
        code, _, err = run(capsys, "bound", "--N", "100", "--K", "5", "--epsilon", "0.75")
        assert code == EXIT_USAGE
        assert "0.7" in err

    def test_unexpected_exception_is_an_internal_error(self, capsys, monkeypatch):
        def boom(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "cmd_bound", boom)
        code, out, err = run(capsys, "bound", "--N", "100", "--K", "5", "--epsilon", "0.05")
        assert (code, out, err) == (1, "", "internal error: boom\n")


class TestInvert:
    def test_worked_instance(self, capsys):
        eps = math.exp(-1) / 15
        code, out, _ = run(capsys, "invert", "--N", "64", "--K", "1", "--epsilon", repr(eps))
        assert code == EXIT_OK
        row = out.strip().splitlines()[2].split(",")
        header = out.strip().splitlines()[1].split(",")
        rec = dict(zip(header, row))
        assert float(rec["threshold"]) == pytest.approx(4.0, abs=1e-9)
        assert rec["valid"] == "true"
        assert float(rec["kr_threshold"]) == pytest.approx(7.199096228721912, abs=1e-9)

    def test_rejects_epsilon_out_of_domain(self, capsys):
        code, _, err = run(capsys, "invert", "--N", "64", "--K", "1", "--epsilon", "0.2")
        assert code == EXIT_USAGE

    def test_upper_threshold_in_the_same_row(self, capsys):
        code, out, _ = run(capsys, "invert", "--N", "64", "--K", "1", "--epsilon", "0.01")
        assert code == EXIT_OK
        (rec,) = records(out)[1]
        assert rec["upper_threshold"] == "69.20532489214696"  # 4 sqrt(65 ln 100)
        _, out, _ = run(capsys, "bound", "--N", "64", "--K", "1", "--epsilon", "0.01")
        assert records(out)[1][0]["threshold"] == rec["upper_threshold"]
        assert list(rec) == [
            "N", "K", "epsilon", "threshold", "valid", "violations", "upper_threshold", "kr_threshold"
        ]

    def test_direct_binomial_query(self, capsys):
        code, out, _ = run(capsys, "invert", "--m", "8", "--t", "1")
        assert code == EXIT_OK
        header, row = [line.split(",") for line in out.strip().splitlines()[1:3]]
        rec = dict(zip(header, row))
        assert float(rec["lower_bound"]) == pytest.approx(0.009022352215774179, rel=1e-12)
        assert float(rec["exact_tail"]) == pytest.approx(93 / 256, rel=1e-12)

    def test_direct_query_rejects_out_of_range_t(self, capsys):
        code, _, err = run(capsys, "invert", "--m", "8", "--t", "2")
        assert code == EXIT_USAGE
        assert "m/8" in err

    def test_incomplete_arguments_rejected(self, capsys):
        code, _, err = run(capsys, "invert", "--m", "8")
        assert code == EXIT_USAGE
        code, _, err = run(capsys, "invert", "--N", "64")
        assert code == EXIT_USAGE


class TestConstruct:
    def test_min_imbalance_scan(self, capsys):
        code, out, _ = run(capsys, "construct", "--min-imbalance", "--m-max", "100")
        assert code == EXIT_OK
        header, row = out.strip().splitlines()[1:3]
        rec = dict(zip(header.split(","), row.split(",")))
        assert rec["m_star"] == "6"
        assert float(rec["p_star"]) == 0.109375
        assert rec["p_star_exact"] == "7/64"

    def test_single_imbalance(self, capsys):
        code, out, _ = run(capsys, "construct", "--imbalance", "6")
        assert code == EXIT_OK
        assert "0.109375" in out

    def test_single_imbalance_prints_the_scan_row(self, capsys):
        # Above 10^4 too, where the float tail differs from the scan's row at most M.
        above = (10_001, 10_004, 12_345, 17_389, 20_000)
        for m_max, ms in ((500, range(1, 501)), (20_000, above)):
            code, out, _ = run(capsys, "scan", "--what", "imbalance", "--m-max", str(m_max))
            assert code == EXIT_OK
            scan = records(out)[1]
            for m in ms:
                code, out, _ = run(capsys, "construct", "--imbalance", str(m))
                assert code == EXIT_OK
                (row,) = records(out)[1]
                assert row == {k: scan[m - 1][k] for k in ("m", "count_threshold", "probability")}
        for m, prob in (("59", "0.14879760414221435"), ("10004", "0.15629598533628353")):
            code, out, _ = run(capsys, "construct", "--imbalance", m)
            assert records(out)[1][0]["probability"] == prob

    def test_single_imbalance_above_the_scan_limit_uses_the_float_tail(self, capsys):
        code, out, _ = run(capsys, "construct", "--imbalance", "100001")
        assert code == EXIT_OK
        (row,) = records(out)[1]
        assert float(row["probability"]) == binomial_upper_tail(100001, int(row["count_threshold"]))

    def test_block_sample_deterministic(self, capsys):
        code1, out1, _ = run(capsys, "construct", "--N", "6", "--K", "3", "--seed", "11")
        code2, out2, _ = run(capsys, "construct", "--N", "6", "--K", "3", "--seed", "11")
        assert code1 == code2 == EXIT_OK
        assert out1 == out2
        values = [int(line.split(",")[1]) for line in out1.strip().splitlines()[2:]]
        assert values[0] == values[1] == values[2]
        assert values[3] == values[4] == values[5]

    def test_requires_a_mode(self, capsys):
        code, _, err = run(capsys, "construct")
        assert code == EXIT_USAGE


class TestScan:
    def test_mv_audit(self, capsys):
        code, out, _ = run(capsys, "scan", "--what", "mv-audit", "--m-max", "16")
        assert code == EXIT_OK
        assert "violations" in out

    def test_imbalance_curve(self, capsys):
        code, out, _ = run(capsys, "scan", "--what", "imbalance", "--m-max", "8")
        assert code == EXIT_OK
        rows = records(out)[1]
        assert list(rows[0]) == ["m", "count_threshold", "probability", "gap_to_limit"]
        assert [r["m"] for r in rows] == [str(m) for m in range(1, 9)]
        assert [r["count_threshold"] for r in rows] == ["1", "2", "3", "3", "4", "5", "5", "6"]
        assert rows[5]["probability"] == "0.109375"  # 7/64 at m = 6
        for r in rows:
            assert float(r["gap_to_limit"]) == float(r["probability"]) - 0.15865525393145707
        assert gaussian_survival(1.0) == 0.15865525393145707

    def test_imbalance_curve_is_correctly_rounded(self, capsys):
        code, out, _ = run(capsys, "scan", "--what", "imbalance", "--m-max", "300")
        assert code == EXIT_OK
        rows = records(out)[1]
        assert [float(r["probability"]) for r in rows] == [
            float(imbalance_prob_exact(m)) for m in range(1, 301)
        ]

    def test_dominance(self, capsys):
        code, out, _ = run(capsys, "scan", "--what", "dominance")
        assert code == EXIT_OK
        rows = out.strip().splitlines()[2:]
        assert len(rows) == 125
        assert all(row.endswith("true") for row in rows)


class TestSimulate:
    def test_block_exact_only(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--N", "6", "--K", "1", "--C", repr(math.sqrt(6))
        )
        assert code == EXIT_OK
        rec = dict(zip(*[line.split(",") for line in out.strip().splitlines()[1:3]]))
        assert float(rec["exact_tail"]) == 0.109375

    def test_block_with_monte_carlo(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--N", "6", "--K", "1", "--C", repr(math.sqrt(6)),
            "--trials", "20000",
        )
        assert code == EXIT_OK
        rec = dict(zip(*[line.split(",") for line in out.strip().splitlines()[1:3]]))
        assert rec["ci_contains_exact"] == "true"

    def test_readme_tree_file(self, capsys, tmp_path):
        # |S| >= 0.5 on the leaves where S = 1.525 (probability 0.125) and 1.625 (0.075)
        code, out, _ = run(
            capsys, "simulate", "--tree-file", readme_tree_file(tmp_path), "--K", "1", "--C", "0.5",
            "--sided", "two_sided", "--trials", "20000",
        )
        assert code == EXIT_OK
        (rec,) = records(out)[1]
        assert (rec["exact_tail"], rec["ci_contains_exact"]) == ("0.2", "true")

    def test_block_exact_tail_and_seed_in_config(self, capsys):
        # two fair blocks of length 2 reach sqrt(8) only when both are +1
        code, out, _ = run(capsys, "simulate", "--N", "4", "--K", "2", "--C", "2.8284271247461903")
        assert code == EXIT_OK
        config, (rec,) = records(out)
        assert rec["exact_tail"] == "0.25"
        assert '"seed": 1729' in config

    def test_one_rung_of_the_trial_ladder_is_pinned(self, capsys):
        # N = 64, K = 2, C = sqrt(K N) at 2000 trials, default seed
        code, out, _ = run(
            capsys, "simulate", "--N", "64", "--K", "2", "--C", "11.313708498984761",
            "--trials", "2000",
        )
        assert code == EXIT_OK
        (rec,) = records(out)[1]
        assert rec["exact_tail"] == "0.18854279373772442"
        assert (rec["trials"], rec["p_hat"]) == ("2000", "0.2075")
        assert (rec["ci_low"], rec["ci_high"]) == ("0.1846154744464951", "0.23179470671024954")

    def test_block_two_sided_without_enumeration(self, capsys):
        # 2^64 sign paths: the tail comes from the binomial count, not a tree.
        code, out, _ = run(
            capsys, "simulate", "--N", "64", "--K", "1", "--C", "3", "--sided", "two_sided"
        )
        assert code == EXIT_OK
        rec = dict(zip(*[line.split(",") for line in out.strip().splitlines()[1:3]]))
        assert float(rec["exact_tail"]) == 2 * binomial_upper_tail(64, 34)

    @pytest.mark.parametrize("sided", ["upper", "two_sided"])
    def test_block_tail_one_ulp_above_a_lattice_point(self, capsys, sided):
        # C = 4 + 1 ulp: S = 2Z - 64 must reach 6, so the exact tail is
        # P(Z >= 35), the event the sampler counts, and the interval holds it.
        code, out, _ = run(
            capsys, "simulate", "--N", "64", "--K", "1", "--C", "4.000000000000001",
            "--sided", sided, "--trials", "100000",
        )
        assert code == EXIT_OK
        (rec,) = records(out)[1]
        want = binomial_upper_tail(64, 35)
        assert float(rec["exact_tail"]) == (2 * want if sided == "two_sided" else want)
        assert rec["ci_contains_exact"] == "true"

    def test_tree_file_two_sided(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        write_tree(path, full_bundle())
        code, out, _ = run(
            capsys, "simulate", "--tree-file", str(path), "--K", "2", "--C", "1.0",
            "--sided", "two_sided",
        )
        assert code == EXIT_OK
        assert "exact_tail" in out

    def test_unreadable_tree_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "simulate", "--tree-file", str(tmp_path / "missing.json"),
            "--K", "1", "--C", "1.0",
        )
        assert code == EXIT_TREEFILE

    def test_tree_without_values_rejected(self, capsys, tmp_path):
        tree, _ = random_tree(2, 2, seed=1)
        path = tmp_path / "bare.json"
        write_tree(path, TreeBundle(tree=tree))
        code, _, err = run(
            capsys, "simulate", "--tree-file", str(path), "--K", "1", "--C", "1.0"
        )
        assert code == EXIT_TREEFILE
        assert "no Y values" in err


class TestDecide:
    def test_regret_report(self, capsys, tmp_path):
        path = tmp_path / "d.json"
        write_tree(path, full_bundle())
        code, out, _ = run(capsys, "decide", "--tree-file", str(path), "--epsilon", "0.3")
        assert code == EXIT_OK
        header, row = [line.split(",") for line in out.strip().splitlines()[1:3]]
        rec = dict(zip(header, row))
        assert rec["bound_holds"] == "true"
        assert rec["shift_check_passed"] == "true"

    @pytest.mark.parametrize("label", ["move, now", 'say "go"\nnow', "a\rb", "a\r\nb"])
    def test_label_with_separator_stays_in_its_cell(self, capsys, tmp_path, label):
        bundle = full_bundle()
        counts = bundle.tree.node_counts
        cheap_second = tuple(
            (np.ones(counts[n + 2]), np.zeros(counts[n + 2])) for n in (1, 2)
        )
        losses = LossSpec(space=DecisionSpace(("hold", label)), horizon=2, tables=cheap_second)
        path = tmp_path / "labels.json"
        write_tree(path, TreeBundle(tree=bundle.tree, sequence=bundle.sequence, losses=losses))
        code, out, _ = run(capsys, "decide", "--tree-file", str(path))
        assert code == EXIT_OK
        (rec,) = records(out)[1]
        assert len(rec) == 10 and None not in rec
        assert rec["bayes_first_choice"] == label

    def test_losses_just_outside_the_unit_interval_are_refused_at_load(self, capsys, tmp_path):
        # Losses 1e-12 outside [0, 1] would make shifted differences of 1 + 2e-12,
        # outside the [-1, 1] the regret bound assumes.
        doc = {
            "depth": 2,
            "nodes": [
                [{"parent": 0, "prob": 0.5}, {"parent": 0, "prob": 0.5}],
                [{"parent": 0, "prob": 0.4}, {"parent": 0, "prob": 0.6},
                 {"parent": 1, "prob": 0.5}, {"parent": 1, "prob": 0.5}],
            ],
            "losses": {
                "decisions": ["a", "b"],
                "impact_horizon": 1,
                "tables": [[[1.000000000001, -1e-12, 0.5, 0.5], [-1e-12, 1.000000000001, 0.5, 0.5]]],
            },
        }
        path = tmp_path / "edge.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "decide", "--tree-file", str(path), "--alt", "adversarial")
        assert (code, out) == (EXIT_TREEFILE, "")
        assert err.endswith(
            "invalid losses block: step 1, decision 0: losses must lie in [0, 1]\n"
        )

    @pytest.mark.parametrize("alt", ["adversarial", "random"])
    def test_readme_tree_file(self, capsys, tmp_path, alt):
        code, out, _ = run(capsys, "decide", "--tree-file", readme_tree_file(tmp_path), "--alt", alt)
        assert code == EXIT_OK
        (rec,) = records(out)[1]
        assert (rec["bound_holds"], rec["shift_check_passed"]) == ("true", "true")

    def test_missing_losses(self, capsys, tmp_path):
        tree, seq = random_tree(3, 2, seed=2)
        path = tmp_path / "nolosses.json"
        write_tree(path, TreeBundle(tree=tree, sequence=seq))
        code, _, err = run(capsys, "decide", "--tree-file", str(path))
        assert code == EXIT_TREEFILE
        assert "no losses" in err


class TestOutputHandling:
    def test_byte_identical_reruns(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for target in (a, b):
            code, _, _ = run(
                capsys, "simulate", "--N", "12", "--K", "2", "--C", "4.0", "--trials", "5000",
                "--output", str(target),
            )
            assert code == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_output_dir_environment_variable(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("KSTEP_LLN_OUTPUT_DIR", str(tmp_path))
        code, _, _ = run(capsys, "bound", "--N", "10", "--K", "1", "--epsilon", "0.1",
                         "--output", "row.csv")
        assert code == EXIT_OK
        assert (tmp_path / "row.csv").exists()

    def test_unknown_command_exits_with_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == EXIT_USAGE


class TestErrorPath:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["bound", "--N", "0", "--K", "1", "--epsilon", "0.1"],
             "N must be a positive integer, got 0"),
            (["bound", "--N", "100", "--K", "5", "--epsilon", "0.75"],
             "epsilon must lie in (0, 0.7) for the upper-bound threshold, got 0.75"),
            (["invert", "--m", "8", "--t", "2"],
             "t must lie in [0, m/8] = [0, 1.0], got 2"),
            (["invert", "--N", "64", "--K", "1", "--epsilon", "0.2"],
             "requires 15*epsilon < 1 (log argument positive), got epsilon=0.2"),
            (["construct", "--N", "5", "--K", "2"],
             "need K | N with both positive, got N=5, K=2"),
            (["scan", "--what", "mv-audit", "--m-max", "1"],
             "m_max must be at least 8, got 1"),
            (["scan", "--what", "imbalance", "--m-max", "0"],
             "m_max must be at least 1, got 0"),
            (["scan", "--what", "imbalance", "--m-max=-5"],
             "m_max must be at least 1, got -5"),
            # One past each exact scan's limit: refused before any work.
            (["construct", "--min-imbalance", "--m-max", "100001"],
             "m_max must be at most 100000, got 100001"),
            (["scan", "--what", "imbalance", "--m-max", "100001"],
             "m_max must be at most 100000, got 100001"),
            (["scan", "--what", "mv-audit", "--m-max", "3201"],
             "m_max must be at most 3200, got 3201"),
            (["simulate", "--K", "1", "--C", "1"],
             "simulate requires --tree-file or --N"),
            (["bound", "--N", "10", "--K", "1", "--epsilon", "0.1", "--output", "TMP"],
             "cannot write TMP: [Errno 21] Is a directory: 'TMP'"),
            (["bound", "--N", "10", "--K", "1", "--epsilon", "0.1", "--output", "TMP/file/x.csv"],
             "cannot write TMP/file/x.csv: [Errno 17] File exists: 'TMP/file'"),
            (["verify-all", "--quick", "--artifact-dir", "TMP/file"],
             "cannot write TMP/file: [Errno 17] File exists: 'TMP/file'"),
            (["simulate", "--tree-file", "TMP/file", "--N", "64", "--K", "2", "--C", "6"],
             "simulate takes --tree-file or --N, not both"),
            (["invert", "--m", "8", "--t", "1", "--N", "64", "--K", "1", "--epsilon", "0.01"],
             "invert takes --m and --t, or --N, --K and --epsilon, not both"),
            (["construct", "--min-imbalance", "--imbalance", "5", "--N", "8", "--K", "2"],
             "construct takes one of --min-imbalance, --imbalance M, or --N and --K"),
            (["construct", "--N", "8", "--K", "2", "--m-max", "5"],
             "construct takes --m-max only with --min-imbalance"),
            (["construct", "--imbalance", "50", "--m-max", "5"],
             "construct takes --m-max only with --min-imbalance"),
            (["scan", "--what", "dominance", "--m-max", "5"],
             "scan takes --m-max only with --what mv-audit or imbalance"),
        ],
    )
    def test_invalid_parameter_exits_with_usage_error(self, capsys, tmp_path, argv, message):
        # TMP is an existing directory holding one regular file, TMP/file.
        (tmp_path / "file").write_text("")
        argv = [a.replace("TMP", str(tmp_path)) for a in argv]
        message = message.replace("TMP", str(tmp_path))
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: {message}\n"


    @pytest.mark.parametrize(
        "argv, message",
        [
            (["simulate", "--N", "8", "--K", "0", "--C", "1"],
             "need K | N with both positive, got N=8, K=0"),
            (["simulate", "--N", "8", "--K", "2", "--C", "inf"],
             "threshold C must be finite, got inf"),
            (["simulate", "--N", "8", "--K", "2", "--C=-inf", "--sided", "two_sided"],
             "threshold C must be finite, got -inf"),
            (["simulate", "--tree-file", "TREE", "--K", "1", "--C", "nan"],
             "threshold C must be finite, got nan"),
            (["simulate", "--tree-file", "TREE", "--K", "1", "--C", "nan", "--trials", "100"],
             "threshold C must be finite, got nan"),
        ],
    )
    def test_invalid_run_parameter_exits_before_any_output(self, capsys, tmp_path, argv, message):
        path = tmp_path / "t.json"
        write_tree(path, full_bundle())
        code, out, err = run(capsys, *[str(path) if a == "TREE" else a for a in argv])
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: {message}\n"

    # Edits of `full_bundle()`'s document, whose depths 1-4 hold 3, 9, 23 and 54 nodes.
    TREE_FILE_EDITS = {
        "node": lambda doc: doc["nodes"].__setitem__(0, [1, 2]),
        "Y": lambda doc: doc.update(Y=5),
        "steps": lambda doc: doc["Y"].append(doc["Y"][-1]),
        "decisions": lambda doc: doc["losses"].update(decisions=["hold", 1]),
        "table": lambda doc: doc["losses"]["tables"][0][1].pop(),
    }

    @pytest.mark.parametrize(
        "command, edit, message",
        [
            ("simulate", "node", "malformed node record: depth 1 must list node objects"),
            ("simulate", "Y", "invalid Y values: 'Y' must be a list of levels"),
            ("simulate", "steps", "invalid Y values: sequence has 5 steps but tree depth is 4"),
            ("decide", "decisions", "invalid losses block: 'decisions' must be a list of strings"),
            ("decide", "table",
             "invalid losses block: step 1, decision 1: 22 losses for 23 depth-3 nodes"),
        ],
    )
    def test_refused_tree_file_exits_3(self, capsys, tmp_path, command, edit, message):
        doc = bundle_to_dict(full_bundle())
        self.TREE_FILE_EDITS[edit](doc)
        path = tmp_path / "t.json"
        path.write_text(json.dumps(doc))
        argv = [command, "--tree-file", str(path)]
        if command == "simulate":
            argv += ["--K", "1", "--C", "1"]
        code, out, err = run(capsys, *argv)
        assert code == EXIT_TREEFILE
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--N", "8", "--K", "2", "--C", "1", "--trials", "100", "--workers", "1"],
            ["verify-all", "--quick", "--workers", "1"],
        ],
    )
    def test_workers_option_is_gone(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == EXIT_USAGE
        assert out == ""
        assert "unrecognized arguments: --workers 1" in err

    @pytest.mark.parametrize(
        "argv, rejected",
        [
            (["verify-all", "--quick", "--format", "json"], "unrecognized arguments: --format json"),
            (["verify-all", "--quick", "--output", "x.csv"], "unrecognized arguments: --output x.csv"),
            (["--format", "json", "bound", "--N", "3", "--K", "1", "--epsilon", "0.3"],
             "argument --format: goes after the command name, as in 'kstep-lln COMMAND ... --format json'"),
            (["--output", "x.csv", "bound", "--N", "3", "--K", "1", "--epsilon", "0.3"],
             "argument --output: goes after the command name, as in 'kstep-lln COMMAND ... --output x.csv'"),
        ],
    )
    def test_output_options_only_after_a_row_writing_command(
        self, capsys, tmp_path, monkeypatch, argv, rejected
    ):
        # verify-all has neither option, and no command takes them before its name.
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("KSTEP_LLN_OUTPUT_DIR", raising=False)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == EXIT_USAGE
        assert out == ""
        assert rejected in err
        assert list(tmp_path.iterdir()) == []


class TestSeedRange:
    # Every command that takes --seed, with the arguments of a short run.
    COMMANDS = {
        "construct": ["construct", "--N", "4", "--K", "2"],
        "simulate": ["simulate", "--N", "8", "--K", "2", "--C", "1", "--trials", "100"],
        "decide": ["decide", "--tree-file", "TREE", "--alt", "random"],
        "verify-all": ["verify-all", "--quick"],
    }

    @pytest.fixture
    def argv(self, tmp_path, request):
        path = tmp_path / "t.json"
        write_tree(path, full_bundle())
        return [str(path) if a == "TREE" else a for a in self.COMMANDS[request.param]]

    @pytest.mark.parametrize("argv", list(COMMANDS), indirect=True)
    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_exits_before_any_output(self, capsys, argv, seed):
        with pytest.raises(SystemExit) as exc:
            main([*argv, f"--seed={seed}"])
        out, err = capsys.readouterr()
        assert exc.value.code == EXIT_USAGE
        assert out == ""
        assert f"argument --seed: seed must be an integer in [0, 2**64 - 1], got {seed}\n" in err

    @pytest.mark.parametrize("argv", list(COMMANDS), indirect=True)
    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_seed_at_either_end_of_64_bits_is_taken_as_given(self, capsys, monkeypatch, argv, seed):
        # verify-all's suite is replaced by one that records its seed: this
        # checks the range, and the suite runs at the default seed elsewhere.
        seeds = []
        monkeypatch.setattr(verify, "run_all", lambda quick, seed: seeds.append(seed) or [])
        code, out, err = run(capsys, *argv, "--seed", str(seed))
        assert (code, err) == (EXIT_OK, "")
        if argv[0] == "verify-all":
            assert seeds == [seed]
        else:
            assert f'"seed": {seed}' in records(out)[0]


class TestExtremeParameters:
    @pytest.mark.parametrize("eps", ["1e-310", "5e-324"])
    def test_subnormal_epsilon_gives_finite_thresholds(self, capsys, tmp_path, eps):
        path = tmp_path / "d.json"
        write_tree(path, full_bundle())
        for argv, columns in [
            (["bound", "--N", "10", "--K", "1"], ["threshold"]),
            (["invert", "--N", "64", "--K", "1"], ["threshold", "upper_threshold", "kr_threshold"]),
            (["decide", "--tree-file", str(path)], ["threshold"]),
        ]:
            code, out, err = run(capsys, *argv, "--epsilon", eps)
            assert (code, err) == (EXIT_OK, ""), argv
            (rec,) = records(out)[1]
            assert all(math.isfinite(float(rec[c])) for c in columns), rec

    @pytest.mark.parametrize(
        "argv",
        [
            ["bound", "--N", "10", "--K", str(10**300), "--epsilon", "0.1"],
            ["invert", "--N", "10", "--K", str(10**300), "--epsilon", "0.01"],
            ["construct", "--N", str(10**300), "--K", str(10**300)],
            # Binomial tails refuse m above 10^9 before allocating anything.
            ["construct", "--imbalance", str(10**11)],
            ["construct", "--imbalance", str(10**30)],
            ["invert", "--m", str(10**30), "--t", "0"],
        ],
    )
    def test_parameter_too_large_to_compute_with_exits_with_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("N, K", [(10**6 + 1, 1), (10**300, 10**300)], ids=["limit+1", "10^300"])
    def test_construct_refuses_a_path_above_the_sampling_limit(self, capsys, N, K):
        code, out, err = run(capsys, "construct", "--N", str(N), "--K", str(K))
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: N must be at most 1000000 for a sampled path, got ")

    def test_trivial_tail_above_the_binomial_limit_is_exact(self, capsys):
        # C above the largest |S| = N needs no window, so the m limit does not apply.
        code, out, err = run(capsys, "simulate", "--N", str(2 * 10**9), "--K", "1", "--C", "3e9")
        assert (code, err) == (EXIT_OK, "")
        (row,) = records(out)[1]
        assert float(row["exact_tail"]) == 0.0


class TestVerifyAllQuick:
    def test_quick_tier_passes_and_writes_artifacts(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "verify-all", "--quick", "--artifact-dir", str(tmp_path)
        )
        assert code == EXIT_OK
        lines = [l for l in out.splitlines() if l.startswith("[criterion")]
        assert len(lines) == 10
        assert all("PASS" in l for l in lines)
        assert "criteria 7-9 rebuilt in reverse instance order: byte-identical = [True, True, True]" in lines[9]
        assert (tmp_path / "criterion_7.csv").exists()
        assert (tmp_path / "criterion_8.csv").exists()
        assert (tmp_path / "criterion_9.csv").exists()

    def test_relative_artifact_dir_resolves_against_output_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("KSTEP_LLN_OUTPUT_DIR", str(tmp_path / "out"))
        monkeypatch.chdir(tmp_path)
        code, _, _ = run(capsys, "verify-all", "--quick", "--artifact-dir", "arts")
        assert code == EXIT_OK
        assert sorted(p.name for p in (tmp_path / "out" / "arts").iterdir()) == [
            "criterion_7.csv", "criterion_8.csv", "criterion_9.csv"
        ]
        assert not (tmp_path / "arts").exists()


class TestVerificationFailureExit:
    """A falsified invariant in any one layer exits with code 4, rows still written."""

    @staticmethod
    def break_mv_bound_at(monkeypatch, pair):
        # The lower bound rises to 1 at one (m, t): exactly one audit violation.
        bound = constructions.mv_lower_bound
        monkeypatch.setattr(
            constructions, "mv_lower_bound", lambda m, t: 1.0 if (m, t) == pair else bound(m, t)
        )

    def test_verify_all_with_one_failing_criterion(self, capsys, monkeypatch):
        self.break_mv_bound_at(monkeypatch, (8, 1))
        code, out, _ = run(capsys, "verify-all", "--quick")
        assert code == EXIT_VERIFY
        lines = out.splitlines()
        (failed,) = [l for l in lines if " FAIL " in l]
        assert failed.startswith("[criterion  5] FAIL  mv-audit: ")
        assert lines[-1] == "9/10 criteria passed"

    def test_scan_mv_audit_with_one_violation(self, capsys, monkeypatch):
        self.break_mv_bound_at(monkeypatch, (8, 1))
        code, out, _ = run(capsys, "scan", "--what", "mv-audit", "--m-max", "16")
        assert code == EXIT_VERIFY
        (row,) = records(out)[1]
        assert row["violations"] == "1"

    def test_scan_dominance_with_one_violation(self, capsys, monkeypatch):
        # The midpoint bound drops to 0 at the first grid point only.
        midpoint = bounds.midpoint_bound
        calls = []

        def first_zero(C, K, N):
            calls.append(C)
            return 0.0 if len(calls) == 1 else midpoint(C, K, N)

        monkeypatch.setattr(bounds, "midpoint_bound", first_zero)
        code, out, _ = run(capsys, "scan", "--what", "dominance")
        assert code == EXIT_VERIFY
        assert [r["chain_ok"] for r in records(out)[1]].count("false") == 1

    @pytest.mark.parametrize("layer", ["regret_tail", "shifted_deviation_check"])
    def test_decide_with_a_failing_check(self, capsys, monkeypatch, tmp_path, layer):
        if layer == "regret_tail":
            monkeypatch.setattr(decision, "regret_tail", lambda *args: 1.0)
        else:
            check = decision.shifted_deviation_check
            monkeypatch.setattr(
                decision, "shifted_deviation_check",
                lambda *args: dataclasses.replace(check(*args), failures=("forced",)),
            )
        path = tmp_path / "d.json"
        write_tree(path, full_bundle())
        code, out, _ = run(capsys, "decide", "--tree-file", str(path))
        assert code == EXIT_VERIFY
        (rec,) = records(out)[1]
        expected = ("false", "true") if layer == "regret_tail" else ("true", "false")
        assert (rec["bound_holds"], rec["shift_check_passed"]) == expected


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def mutated_tree_documents(draw):
    """A valid tree document with up to three values replaced by any JSON value, or deleted."""
    doc = bundle_to_dict(full_bundle(seed=draw(st.integers(0, 50))))
    for _ in range(draw(st.integers(1, 3))):
        parent, key = None, None
        node = doc
        while isinstance(node, (dict, list)) and node and draw(st.booleans()):
            parent = node
            key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
            node = node[key]
        if parent is None:
            continue
        if draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = draw(json_values)
    return doc


class TestTreeFileFuzz:
    @given(st.one_of(json_values, mutated_tree_documents()))
    @settings(max_examples=150, deadline=None)
    def test_any_document_exits_ok_or_treefile_error(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "doc.json"
            path.write_text(json.dumps(doc))
            for argv in (
                ["simulate", "--tree-file", str(path), "--K", "1", "--C", "0.5",
                 "--sided", "two_sided", "--trials", "64"],
                ["decide", "--tree-file", str(path)],
            ):
                err = io.StringIO()
                with redirect_stdout(io.StringIO()), redirect_stderr(err):
                    code = main(argv)
                assert code in (EXIT_OK, EXIT_TREEFILE), (argv[0], code, err.getvalue())


def test_pure_commands_load_no_numeric_library():
    # bound, invert from (N, K, epsilon) and the dominance scan are pure Python
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        "import sys, io, contextlib; from kstep_lln.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(['bound', '--N', '100', '--K', '5', '--epsilon', '0.05']),\n"
        "             main(['invert', '--N', '64', '--K', '1', '--epsilon', '0.02']),\n"
        "             main(['scan', '--what', 'dominance'])]\n"
        "print(codes, *(m in sys.modules for m in ('numpy', 'scipy', 'mpmath')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={"PYTHONPATH": src}, timeout=60,
    )
    assert out.stdout.strip() == "[0, 0, 0] False False False"


def test_exact_only_simulate_loads_no_scipy():
    # scipy serves only the Monte Carlo confidence interval
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        "import sys, io, contextlib; from kstep_lln.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['simulate', '--N', '64', '--K', '2', '--C', '3'])\n"
        "print(code, 'scipy' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={"PYTHONPATH": src}, timeout=60,
    )
    assert out.stdout.strip() == "0 False"
