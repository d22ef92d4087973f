#!/usr/bin/env python3
"""Watch Monte Carlo tail estimates tighten around an exact block-process tail.

Doubles the trial count from 1k to 512k on one (N, K, C) instance and
reports the estimate, its exact 99% interval, the interval width, and
whether the exact value is covered at each size.

Usage: PYTHONPATH=src python scripts/mc_convergence.py --N 64 --K 2 [--output conv.csv]
"""

import argparse
import math

from kstep_lln.constructions import block_deviation_tail
from kstep_lln.output import format_csv, write_output
from kstep_lln.sampling import block_deviation_sampler, mc_tail
from kstep_lln.verify import DEFAULT_SEED


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--N", type=int, default=64)
    parser.add_argument("--K", type=int, default=2)
    parser.add_argument("--C", type=float, default=None, help="default: sqrt(K N)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--output", default=None)
    args = parser.parse_args()

    C = args.C if args.C is not None else math.sqrt(args.K * args.N)
    exact = block_deviation_tail(args.N, args.K, C)
    sampler = block_deviation_sampler(args.N, args.K)

    rows = []
    trials = 1000
    while trials <= 512_000:
        est = mc_tail(sampler, C, sided="upper", trials=trials, seed=args.seed)
        rows.append(
            {
                "trials": trials,
                "p_hat": est.p_hat,
                "ci_low": est.ci_low,
                "ci_high": est.ci_high,
                "ci_width": est.ci_high - est.ci_low,
                "abs_error": abs(est.p_hat - exact),
                "covers_exact": est.contains(exact),
            }
        )
        trials *= 2

    config = {
        "script": "mc_convergence", "N": args.N, "K": args.K, "C": C,
        "exact": exact, "seed": args.seed,
    }
    columns = ["trials", "p_hat", "ci_low", "ci_high", "ci_width", "abs_error", "covers_exact"]
    write_output(format_csv(rows, columns, config), args.output)


if __name__ == "__main__":
    main()
