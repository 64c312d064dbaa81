"""Command-line front end.

Subcommands: train, sweep-k, analyze-chain, hitting-time, optimal-k,
reproduce-appendix-b. Exit codes: 0 success, 2 configuration or argument
error or a file the command cannot read or write, 3 divergence during
training, 4 numerical or structural failure (non-convergence, non-ergodic
chain, an input over its cap, or an allocation that runs out of memory).
"""

import argparse
import sys
from dataclasses import replace

from . import chain_analysis as chains, harness
from .compressors import BANLAST, KAWASAKI, RAND, SPARSIFYING_KINDS
from .errors import (ConfigError, DivergenceError, InvalidArgumentError,
                     NonErgodicError, NumericalError, ParseError, TooLargeError)


def _parse_k_list(text):
    values = []
    for seg in text.split(","):
        seg = seg.strip()
        if not seg:
            continue
        try:
            if "-" in seg[1:]:
                lo, _, hi = seg.partition("-")
                lo, hi = int(lo), int(hi)
                if hi < lo:
                    raise InvalidArgumentError(f"reversed K range {seg!r}")
                values.extend(range(lo, hi + 1))
            else:
                values.append(int(seg))
        except ValueError:
            raise InvalidArgumentError(f"bad K value {seg!r} in {text!r}") from None
    if not values:
        raise InvalidArgumentError(f"no K values in {text!r}")
    return values


def _ratio(d, m):
    # alpha = d/m, checked before the division
    if m < 1:
        raise InvalidArgumentError(f"need m >= 1, got m={m}")
    return d / m


def build_parser():
    parser = argparse.ArgumentParser(
        prog="markosparse",
        description="Markov-chain coordinate sparsifiers for distributed training",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run one experiment from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--output", help="override the CSV output path")

    p = sub.add_parser("sweep-k", help="one run per history size K")
    p.add_argument("--config", required=True)
    p.add_argument("--k", required=True, help="comma list and/or ranges, e.g. 0,1,4-8")

    p = sub.add_parser("analyze-chain", help="exact stationary/mixing analysis")
    p.add_argument("--kind", required=True, choices=SPARSIFYING_KINDS)
    p.add_argument("--d", required=True, type=int)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--K", type=int, default=1)
    p.add_argument("--b", type=float, default=50.0)
    p.add_argument("--activation", default="normalize")
    p.add_argument("--eps", type=float, default=0.05, help="mixing-time accuracy")
    p.add_argument("--t-max", type=int, default=200, dest="t_max")
    p.add_argument("--output", help="write the deviation curve as CSV")

    p = sub.add_parser("hitting-time", help="formulas and Monte-Carlo estimate")
    p.add_argument("--kind", default=BANLAST, choices=SPARSIFYING_KINDS)
    p.add_argument("--d", required=True, type=int)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--K", type=int, default=0)
    p.add_argument("--b", type=float, default=50.0)
    p.add_argument("--activation", default="normalize")
    p.add_argument("--target", type=int, default=0)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("optimal-k", help="history size minimizing the hitting bound")
    p.add_argument("--alpha", type=float, help="d/m ratio")
    p.add_argument("--d", type=int)
    p.add_argument("--m", type=int, help="default 1")
    p.add_argument("--k-max", type=int, dest="k_max")

    p = sub.add_parser("reproduce-appendix-b",
                       help="alpha-grid table of optimal K and hitting times")
    p.add_argument("--output", help="CSV path")
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=2024)

    return parser


def _cmd_train(args):
    cfg = harness.load_config(args.config)
    if args.output:
        cfg = replace(cfg, output=args.output)
    harness.run_experiment(cfg)
    return 0


def _cmd_sweep_k(args):
    ks = _parse_k_list(args.k)
    harness.sweep_k(harness.load_config(args.config), ks)
    return 0


def _cmd_analyze_chain(args):
    if args.output:
        harness._check_output(args.output)
    chain = chains.build_transition_matrix(
        args.kind, args.d, args.m, args.K, b=args.b, activation=args.activation)
    result = chains.stationary_distribution(chain)
    # before any output, so a bad --t-max or --eps prints nothing
    chains._check_t_max(args.t_max)
    tau = chains.mixing_time(chain, args.eps)
    pi_class = result.pi[result.recurrent]
    marginal = chains.newest_mask_marginal(chain, result.pi)
    bound, bound_line = None, None
    try:
        if args.kind == BANLAST:
            bound = chains.rho_bound_banlast(args.d, args.m, args.K)
        elif args.kind == KAWASAKI and args.activation == "normalize":
            bound = chains.rho_bound_kawasaki_normalize(args.d, args.m, args.K, args.b)
    except InvalidArgumentError as err:
        bound_line = f"ergodicity bound: not applicable ({err})"
    if bound is not None:
        bound_line = (f"ergodicity bound: rho={bound.rho:.10f} C={bound.C:.10f} "
                      f"gap={bound.gap:.10e}")
    # the CSV before the report, so an output that cannot be written
    # prints nothing
    if args.output:
        ts = range(args.t_max + 1)
        columns = [ts, chains.deviation_curve(chain, args.t_max)]
        if bound:
            columns.append([bound.C * bound.rho ** t for t in ts])
        harness.write_text(args.output, harness.csv_text(
            "t,deviation" + (",bound" if bound else ""), columns))
    print(f"states: {chain.n_states}")
    print(f"recurrent class: {len(result.recurrent)} states "
          f"({result.n_unreachable} unreachable)")
    print(f"start orbits: {len(chain.starts)}")
    print(f"stationary range: [{pi_class.min():.10f}, {pi_class.max():.10f}] "
          f"(uniform would be {1 / len(result.recurrent):.10f})")
    print(f"column-sum defect on the recurrent class: "
          f"{chains.column_sum_defect(chain, result.recurrent):.10f}")
    print(f"newest-mask marginal range: [{marginal.min():.10f}, {marginal.max():.10f}] "
          f"(m/d = {args.m / args.d:.10f})")
    print(f"mixing time (eps={args.eps:g}): {tau}")
    if bound_line:
        print(bound_line)
    return 0


def _cmd_hitting_time(args):
    alpha = _ratio(args.d, args.m)
    # the Monte Carlo checks every argument, so a refused one prints nothing
    mean, stderr = chains.monte_carlo_hitting_time(
        args.kind, args.d, m=args.m, K=args.K, b=args.b,
        activation=args.activation, target=args.target,
        trials=args.trials, seed=args.seed)
    print(f"alpha = d/m = {alpha:g}")
    print(f"rand expected hitting time: {chains.expected_hitting_time_randm(alpha)!r}")
    if args.kind == BANLAST:
        try:
            print(f"banlast closed-form estimate: "
                  f"{chains.expected_hitting_time_banlast(alpha, args.K)!r}")
            print(f"banlast exact process mean:  "
                  f"{chains.banlast_hitting_time_exact(alpha, args.K)!r}")
        except InvalidArgumentError as err:
            print(f"banlast formulas: not applicable ({err})")
    print(f"monte carlo ({args.trials} trials): {mean!r} +/- {stderr:.6f}")
    return 0


def _cmd_optimal_k(args):
    if args.alpha is None:
        if args.d is None:
            raise InvalidArgumentError("give --alpha or --d/--m")
        alpha = _ratio(args.d, 1 if args.m is None else args.m)
    elif args.d is not None or args.m is not None:
        raise InvalidArgumentError("give --alpha or --d/--m, not both")
    else:
        alpha = args.alpha
    k_star = chains.optimal_history_size(alpha, K_max=args.k_max)
    print(f"alpha: {alpha:g}")
    print(f"optimal K: {k_star}")
    print(f"hitting estimate at K*: {chains.expected_hitting_time_banlast(alpha, k_star)!r}")
    print(f"rand baseline: {chains.expected_hitting_time_randm(alpha)!r}")
    return 0


def _cmd_reproduce(args):
    harness.reproduce_hitting_table(trials=args.trials, seed=args.seed,
                                    output=args.output)
    return 0


_DISPATCH = {
    "train": _cmd_train,
    "sweep-k": _cmd_sweep_k,
    "analyze-chain": _cmd_analyze_chain,
    "hitting-time": _cmd_hitting_time,
    "optimal-k": _cmd_optimal_k,
    "reproduce-appendix-b": _cmd_reproduce,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except (ConfigError, ParseError, InvalidArgumentError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except DivergenceError as err:
        print(f"divergence: {err}", file=sys.stderr)
        return 3
    except (NumericalError, NonErgodicError, TooLargeError) as err:
        print(f"failure: {err}", file=sys.stderr)
        return 4
    except MemoryError as err:  # numpy's names the allocation, a bare one nothing
        print(f"failure: out of memory{f' ({err})' if str(err) else ''}", file=sys.stderr)
        return 4
    except OSError as err:
        # a file the command itself cannot read or write
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
