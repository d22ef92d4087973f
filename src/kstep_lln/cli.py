"""Command-line surface: thresholds, constructions, scans, simulation, decisions.

Exit codes: 0 success, 2 invalid command or parameter (one too large to
compute with included), 3 unreadable or inconsistent tree file,
4 falsified invariant or failed verification, 1 unexpected internal
error.  All commands are deterministic; the master seed defaults to 1729
and lies in [0, 2**64 - 1], and every emitted CSV records its resolved
configuration on a leading comment line.  Each command imports the layers
it calls when it runs, so the pure-Python commands (`bound`, `invert` with
--N/--K/--epsilon, `scan --what dominance`) load no numpy, scipy or mpmath.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import DEFAULT_SEED, bounds
from .output import format_csv, format_json, make_output_dir, write_output

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_TREEFILE = 3
EXIT_VERIFY = 4

class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


def _emit(rows, config, args) -> None:
    if args.format == "json":
        write_output(format_json(rows, config), args.output)
    else:
        write_output(format_csv(rows, config), args.output)


def cmd_bound(args) -> int:
    p = bounds.HorizonParams(N=args.N, K=args.K, epsilon=args.epsilon)
    threshold = bounds.deviation_threshold(p)
    row = {
        "N": p.N,
        "K": p.K,
        "epsilon": p.epsilon,
        "threshold": threshold,
        "one_sided_budget": p.epsilon / 2.0,
        "midpoint_bound_at_threshold": bounds.midpoint_bound(threshold, p.K, p.N + p.K),
    }
    config = {"command": "bound", "N": p.N, "K": p.K, "epsilon": p.epsilon}
    _emit([row], config, args)
    return EXIT_OK


def cmd_invert(args) -> int:
    if args.m is not None or args.t is not None:
        if (args.N, args.K, args.epsilon) != (None, None, None):
            raise CliError("invert takes --m and --t, or --N, --K and --epsilon, not both")
        if args.m is None or args.t is None:
            raise CliError("the binomial lower-bound query needs both --m and --t")
        from .constructions import binomial_upper_tail

        lower = bounds.mv_lower_bound(args.m, args.t)
        tail = binomial_upper_tail(args.m, args.m // 2 + args.t)
        row = {
            "m": args.m,
            "t": args.t,
            "lower_bound": lower,
            "exact_tail": tail,
            "slack": tail - lower,
        }
        _emit([row], {"command": "invert", "m": args.m, "t": args.t}, args)
        return EXIT_OK
    if args.N is None or args.K is None or args.epsilon is None:
        raise CliError("invert needs --N, --K and --epsilon (or --m and --t)")
    p = bounds.HorizonParams(N=args.N, K=args.K, epsilon=args.epsilon)
    res = bounds.mv_threshold(p)
    row = {
        "N": p.N,
        "K": p.K,
        "epsilon": p.epsilon,
        "threshold": res.threshold,
        "valid": res.valid,
        "violations": ";".join(res.violations),
        "upper_threshold": bounds.deviation_threshold(p),
    }
    if 4.3 * p.epsilon < 1.0:
        row["kr_threshold"] = bounds.kr_threshold(p)
    config = {"command": "invert", "N": p.N, "K": p.K, "epsilon": p.epsilon}
    _emit([row], config, args)
    return EXIT_OK


def cmd_construct(args) -> int:
    from . import constructions

    if sum((args.min_imbalance, args.imbalance is not None, (args.N, args.K) != (None, None))) > 1:
        raise CliError("construct takes one of --min-imbalance, --imbalance M, or --N and --K")
    if args.m_max is not None and not args.min_imbalance:
        raise CliError("construct takes --m-max only with --min-imbalance")
    config = {"command": "construct", "seed": args.seed}
    if args.min_imbalance:
        m_max = config["m_max"] = 10_000 if args.m_max is None else args.m_max
        m_star, p_star = constructions.min_imbalance_prob(m_max)
        row = {"m_star": m_star, "p_star": p_star,
               "p_star_exact": str(constructions.imbalance_prob_exact(m_star))}
        _emit([row], config, args)
        return EXIT_OK
    if args.imbalance is not None:
        m = config["m"] = args.imbalance
        k0 = constructions.imbalance_threshold(m)
        if m <= constructions._IMBALANCE_M_MAX:
            # Correctly rounded, the value the row of `scan --what imbalance` prints.
            prob = float(constructions.imbalance_prob_exact(m))
        else:
            prob = constructions.imbalance_prob(m)
        row = {"m": m, "count_threshold": k0, "probability": prob}
        _emit([row], config, args)
        return EXIT_OK
    if args.N is None or args.K is None:
        raise CliError("construct requires --min-imbalance, --imbalance M, or --N and --K")
    config.update({"N": args.N, "K": args.K})
    values = constructions.sample_block_process(args.N, args.K, args.seed)
    rows = [{"step": n + 1, "value": v} for n, v in enumerate(values)]
    _emit(rows, config, args)
    return EXIT_OK


def cmd_scan(args) -> int:
    if args.what == "dominance":
        if args.m_max is not None:
            raise CliError("scan takes --m-max only with --what mv-audit or imbalance")
        rows = bounds.dominance_rows((1, 2, 3, 4, 5), (2, 4, 8, 16, 32), (0.5, 1.0, 2.0, 4.0, 8.0))
        _emit(rows, {"command": "scan", "what": "dominance"}, args)
        return EXIT_OK if all(r["chain_ok"] for r in rows) else EXIT_VERIFY
    from . import constructions

    m_max = 200 if args.m_max is None else args.m_max
    if args.what == "mv-audit":
        report = constructions.verify_mv_bound(m_max)
        rows = [
            {
                "m_max": m_max,
                "pairs_checked": report.pairs_checked,
                "violations": len(report.violations),
                "min_slack": report.min_slack,
                "min_slack_m": report.min_slack_at[0],
                "min_slack_t": report.min_slack_at[1],
            }
        ]
        _emit(rows, {"command": "scan", "what": "mv-audit", "m_max": m_max}, args)
        return EXIT_OK if report.ok else EXIT_VERIFY
    limit = bounds.gaussian_survival(1.0)
    rows = [{"m": m, "count_threshold": k, "probability": prob, "gap_to_limit": prob - limit}
            for m, k, prob in constructions._imbalance_probs(m_max)]
    _emit(rows, {"command": "scan", "what": "imbalance", "m_max": m_max}, args)
    return EXIT_OK


def _load_bundle(path: str):
    from .treefile import TreeFileError, load_tree

    try:
        return load_tree(path)
    except TreeFileError as exc:
        raise CliError(str(exc), code=EXIT_TREEFILE) from exc


def cmd_simulate(args) -> int:
    from .constructions import block_deviation_tail
    from .sampling import block_deviation_sampler, mc_tail, tree_deviation_sampler
    from .trees import exact_tail

    if args.tree_file and args.N is not None:
        raise CliError("simulate takes --tree-file or --N, not both")
    config = {
        "command": "simulate", "K": args.K, "C": args.C, "sided": args.sided,
        "trials": args.trials, "seed": args.seed,
    }
    if args.tree_file:
        bundle = _load_bundle(args.tree_file)
        if bundle.sequence is None:
            raise CliError(f"tree file {args.tree_file} has no Y values", code=EXIT_TREEFILE)
        config["tree_file"] = args.tree_file
        exact = exact_tail(bundle.tree, bundle.sequence, args.K, args.C, sided=args.sided)
        sampler = tree_deviation_sampler(bundle.tree, bundle.sequence, args.K) if args.trials else None
    elif args.N is not None:
        config["N"] = args.N
        exact = block_deviation_tail(args.N, args.K, args.C, sided=args.sided)
        sampler = block_deviation_sampler(args.N, args.K) if args.trials else None
    else:
        raise CliError("simulate requires --tree-file or --N")
    row = {"K": args.K, "C": args.C, "sided": args.sided, "exact_tail": exact}
    if args.trials:
        est = mc_tail(sampler, args.C, sided=args.sided, trials=args.trials, seed=args.seed)
        row.update(
            trials=est.trials, p_hat=est.p_hat, ci_low=est.ci_low, ci_high=est.ci_high,
            ci_contains_exact=est.contains(exact),
        )
    _emit([row], config, args)
    return EXIT_OK


def cmd_decide(args) -> int:
    from .decision import adversarial_strategy, bayesian_strategy, random_strategy, regret_tail
    from .decision import shifted_deviation_check

    bundle = _load_bundle(args.tree_file)
    if bundle.losses is None:
        raise CliError(f"tree file {args.tree_file} has no losses block", code=EXIT_TREEFILE)
    tree, loss = bundle.tree, bundle.losses
    if args.alt == "random":
        alt = random_strategy(tree, loss, args.seed)
    else:
        alt = adversarial_strategy(tree, loss)
    bayes = bayesian_strategy(tree, loss)
    shift = shifted_deviation_check(tree, loss, alt)
    p = bounds.HorizonParams(N=loss.n_steps, K=loss.horizon, epsilon=args.epsilon)
    threshold = bounds.deviation_threshold(p)
    tail = regret_tail(tree, loss, alt, threshold)
    row = {
        "steps": loss.n_steps,
        "impact_horizon": loss.horizon,
        "decisions": len(loss.space),
        "alt": args.alt,
        "epsilon": args.epsilon,
        "threshold": threshold,
        "regret_tail": tail,
        # tail < eps/2, exact also where eps/2 would round (a subnormal eps)
        "bound_holds": 2.0 * tail < args.epsilon,
        "shift_check_passed": shift.passed,
        "bayes_first_choice": loss.space.labels[int(bayes.choices[0][0])],
    }
    config = {
        "command": "decide", "tree_file": args.tree_file, "alt": args.alt,
        "epsilon": args.epsilon, "seed": args.seed,
    }
    _emit([row], config, args)
    if not shift.passed or not row["bound_holds"]:
        return EXIT_VERIFY
    return EXIT_OK


def cmd_verify_all(args) -> int:
    from .verify import run_all

    # An unusable artifact directory fails here, not after the whole suite has run.
    if args.artifact_dir:
        make_output_dir(args.artifact_dir)
    results = run_all(quick=args.quick, seed=args.seed)
    for res in results:
        print(res.line())
        if res.artifact and args.artifact_dir:
            write_output(res.artifact, os.path.join(args.artifact_dir, f"criterion_{res.number}.csv"))
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return EXIT_VERIFY if failed else EXIT_OK


def _seed(text: str) -> int:
    """Parse --seed.  Seeds become 64-bit stream keys, so a larger or negative one would alias."""
    if not text.isdecimal() or int(text) >= 1 << 64:
        raise argparse.ArgumentTypeError(f"seed must be an integer in [0, 2**64 - 1], got {text}")
    return int(text)


def _add_output_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--output", help="output path (see KSTEP_LLN_OUTPUT_DIR); stdout if absent")


class _AfterCommand(argparse.Action):
    """Refuses an output option given before the command name; it sets nothing."""

    def __call__(self, parser, namespace, values, option_string=None):
        example = f"kstep-lln COMMAND ... {option_string} {values}"
        raise argparse.ArgumentError(self, f"goes after the command name, as in '{example}'")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kstep-lln",
        description="Deviation bounds for K-steps-ahead forecasts: compute, invert, verify.",
    )
    for option in ("--format", "--output"):
        parser.add_argument(
            option, action=_AfterCommand, default=argparse.SUPPRESS, help=argparse.SUPPRESS
        )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", help="upper-bound threshold for (N, K, epsilon)")
    p_bound.add_argument("--N", type=int, required=True)
    p_bound.add_argument("--K", type=int, required=True)
    p_bound.add_argument("--epsilon", type=float, required=True)
    _add_output_options(p_bound)
    p_bound.set_defaults(fn=cmd_bound)

    p_inv = sub.add_parser(
        "invert", help="lower-bound thresholds for (N, K, epsilon), or one (m, t) tail bound"
    )
    p_inv.add_argument("--N", type=int)
    p_inv.add_argument("--K", type=int)
    p_inv.add_argument("--epsilon", type=float)
    p_inv.add_argument("--m", type=int, help="fair-sign count for a direct lower-bound query")
    p_inv.add_argument("--t", type=int, help="deviation for a direct lower-bound query")
    _add_output_options(p_inv)
    p_inv.set_defaults(fn=cmd_invert)

    p_con = sub.add_parser("construct", help="block-sign processes and imbalance scans")
    p_con.add_argument("--min-imbalance", action="store_true")
    p_con.add_argument("--m-max", type=int, help="--min-imbalance scan limit (default 10000)")
    p_con.add_argument("--imbalance", type=int, metavar="M")
    p_con.add_argument("--N", type=int)
    p_con.add_argument("--K", type=int)
    p_con.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    _add_output_options(p_con)
    p_con.set_defaults(fn=cmd_construct)

    p_scan = sub.add_parser("scan", help="grid scans: dominance chain, mv-audit, imbalance")
    p_scan.add_argument("--what", choices=["dominance", "mv-audit", "imbalance"], default="dominance")
    p_scan.add_argument("--m-max", type=int, help="mv-audit or imbalance limit (default 200)")
    _add_output_options(p_scan)
    p_scan.set_defaults(fn=cmd_scan)

    p_sim = sub.add_parser("simulate", help="exact and Monte Carlo deviation tails")
    p_sim.add_argument("--tree-file")
    p_sim.add_argument("--N", type=int, help="block process length (alternative to --tree-file)")
    p_sim.add_argument("--K", type=int, required=True)
    p_sim.add_argument("--C", type=float, required=True)
    p_sim.add_argument("--sided", choices=["two_sided", "upper"], default="upper")
    p_sim.add_argument("--trials", type=int, default=0, help="Monte Carlo trials (0: exact only)")
    p_sim.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    _add_output_options(p_sim)
    p_sim.set_defaults(fn=cmd_simulate)

    p_dec = sub.add_parser("decide", help="Bayesian strategy and regret tail on a tree file")
    p_dec.add_argument("--tree-file", required=True)
    p_dec.add_argument("--alt", choices=["random", "adversarial"], default="adversarial")
    p_dec.add_argument("--epsilon", type=float, default=0.3)
    p_dec.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    _add_output_options(p_dec)
    p_dec.set_defaults(fn=cmd_decide)

    p_ver = sub.add_parser("verify-all", help="run the acceptance criteria")
    tier = p_ver.add_mutually_exclusive_group()
    tier.add_argument("--quick", action="store_true", help="reduced grid sizes")
    tier.add_argument("--full", action="store_true", help="publication scale (default)")
    p_ver.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    p_ver.add_argument("--artifact-dir", help="criterion CSV directory (see KSTEP_LLN_OUTPUT_DIR)")
    p_ver.set_defaults(fn=cmd_verify_all)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (ValueError, OverflowError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # pragma: no cover - last-resort diagnostics
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
