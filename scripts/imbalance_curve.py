#!/usr/bin/env python3
"""Trace the sign-imbalance probability from m = 1 to its Gaussian limit.

Emits the exact P(imbalance >= sqrt(m)) per m together with the limiting
survival value at 1, making the dip to 7/64 at m = 6 and the slow climb
back toward 0.1587 visible in one table.

Usage: PYTHONPATH=src python scripts/imbalance_curve.py --m-max 500 [--output curve.csv]
"""

import argparse

from kstep_lln.bounds import gaussian_survival
from kstep_lln.constructions import imbalance_prob, imbalance_threshold
from kstep_lln.output import format_csv, write_output


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--m-max", type=int, default=500)
    parser.add_argument("--output", default=None)
    args = parser.parse_args()

    limit = gaussian_survival(1.0)
    rows = [
        {
            "m": m,
            "count_threshold": imbalance_threshold(m),
            "probability": imbalance_prob(m),
            "gap_to_limit": imbalance_prob(m) - limit,
        }
        for m in range(1, args.m_max + 1)
    ]
    config = {"script": "imbalance_curve", "m_max": args.m_max, "limit": limit}
    write_output(format_csv(rows, ["m", "count_threshold", "probability", "gap_to_limit"], config), args.output)


if __name__ == "__main__":
    main()
