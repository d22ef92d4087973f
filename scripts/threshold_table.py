#!/usr/bin/env python3
"""Tabulate the upper-bound threshold against the inverse-bound thresholds.

For a sweep of (N, K, eps) triples, emits the guaranteed deviation level,
the two lower-bound construction levels (where applicable), and their
ratios.  The ratio column shows how far the constant 4 sits from the
constructions' 0.5 and 0.6.

Usage: PYTHONPATH=src python scripts/threshold_table.py [--output table.csv]
"""

import argparse

from kstep_lln.bounds import HorizonParams, kr_threshold, mv_threshold, deviation_threshold
from kstep_lln.output import format_csv, write_output

EPSILONS = [0.01, 0.02, 0.05, 0.1, 0.2, 0.5]
HORIZONS = [1, 2, 4, 8]
STEPS = [64, 256, 1024, 4096]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default=None)
    args = parser.parse_args()

    rows = []
    for N in STEPS:
        for K in HORIZONS:
            for eps in EPSILONS:
                p = HorizonParams(N=N, K=K, epsilon=eps)
                upper = deviation_threshold(p)
                row = {"N": N, "K": K, "epsilon": eps, "upper": upper}
                if 15 * eps < 1:
                    res = mv_threshold(p)
                    row["lower"] = res.threshold
                    row["lower_valid"] = res.valid
                    row["ratio"] = upper / res.threshold
                else:
                    row["lower"] = float("nan")
                    row["lower_valid"] = False
                    row["ratio"] = float("nan")
                row["lower_kr"] = kr_threshold(p) if 4.3 * eps < 1 else float("nan")
                rows.append(row)

    columns = ["N", "K", "epsilon", "upper", "lower", "lower_valid", "lower_kr", "ratio"]
    config = {"script": "threshold_table", "steps": STEPS, "horizons": HORIZONS, "epsilons": EPSILONS}
    write_output(format_csv(rows, columns, config), args.output)


if __name__ == "__main__":
    main()
