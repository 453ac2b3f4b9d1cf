"""Command-line interface.

Subcommands: simulate, fit, forecast, acf, depmeas, experiment, panel.
Global flags --seed, --threads and --out apply to every subcommand; all
outputs are CSV/JSON files with fixed column orders (see io module).  A file
that cannot be read or written, or a JSON input that does not parse, ends
the command with one line naming the file.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import sys

import numpy as np

from . import io as nio
from .depmeas import estimate_delta_network, estimate_delta_x
from .estimate import FAMILIES, EstimationError, _fit_by_bic
from .forecast import HoldLast, Known, PerEdgeMarkov, forecast_h
from .harness import (CONFIG_SCHEMA, ExperimentAborted, config_from_json, ingest_panel,
                      run_experiment, run_rolling_forecast)
from .model import LnarSpec, simulate_lnar, simulate_nar
from .moments import sample_acf
from .netdyn import NeighborhoodFn


def _parse_g(text: str) -> NeighborhoodFn:
    """Compact descriptor syntax: transpose | identity | rownorm |
    sign_poly:K | k_stage:K | identity_plus:<inner> | a JSON file path."""
    if os.path.exists(text):
        return NeighborhoodFn.from_json(nio._read_json(text))
    name, _, arg = text.partition(":")
    if name == "transpose":
        return NeighborhoodFn.transpose()
    if name == "identity":
        return NeighborhoodFn.identity()
    if name == "rownorm":
        return NeighborhoodFn.row_normalized_transpose()
    if name == "sign_poly":
        return NeighborhoodFn.sign_poly(int(arg))
    if name == "k_stage":
        return NeighborhoodFn.k_stage(int(arg))
    if name == "identity_plus":
        return NeighborhoodFn.identity_plus(_parse_g(arg))
    raise argparse.ArgumentTypeError(f"cannot parse neighborhood descriptor {text!r}")


def _out_path(args, name: str) -> str:
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _load_network_model(path):
    return nio.network_model_from_json(nio._read_json(path))


def cmd_simulate(args) -> int:
    spec, innov = nio.read_model_spec(args.model)
    sim = simulate_lnar if isinstance(spec, LnarSpec) else simulate_nar
    rng = np.random.default_rng(args.seed)
    if args.network:
        ads = _load_network_model(args.network).simulate(args.burn_in + args.n, seed=rng)
    else:
        ads = nio.read_adjacency(args.ads)
    try:  # a process that fails its stationarity check, or that does not fit its network
        x = sim(spec, ads, innov, n=args.n, burn_in=args.burn_in, seed=rng)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    nio.write_series_csv(_out_path(args, "series.csv"), x)
    nio.write_adjacency_csv(_out_path(args, "network.csv"), ads.drop_first(args.burn_in))
    print(f"wrote series.csv ({x.shape[0]}x{x.shape[1]}) and network.csv to {args.out}")
    return 0


def cmd_fit(args) -> int:
    for flag, value in (("--ads", args.ads), ("--g", args.g)):
        if args.family != "var" and not value:
            raise SystemExit(f"nar/lnar fitting needs {flag}")
    if args.family == "var" and args.g:
        raise SystemExit("--g applies to nar and lnar fits: netar fit has no network-masked var")
    for flag, value, least in (("--pmax", args.pmax, 1), ("--p", args.p, 0)):
        if value is not None and value < least:
            raise SystemExit(f"{flag} must be at least {least}, got {value}")
    x = nio.read_series_csv(args.series)
    ads = nio.read_adjacency(args.ads) if args.ads else None
    g = _parse_g(args.g) if args.g else None
    (outcome,) = _fit_by_bic([(args.family, g, False)], x, ads, args.pmax, p=args.p)
    if isinstance(outcome, EstimationError):
        raise outcome
    fit, sel = outcome
    if sel is not None:
        print(f"BIC selected p={sel.p} " + " ".join(f"p{q}={v:.2f}" for q, v in sel.table.items()))
    nio.write_fit_json(_out_path(args, "fit.json"), fit)
    print(f"family={fit.family} p={fit.p} d={fit.d}")
    print(f"{'comp':>4} {'term':>10} {'estimate':>12} {'std.err':>10}")
    for c in fit.components:
        print(f"{c.r + 1:>4} {'intercept':>10} {c.mu:>12.5f} {'':>10}")
        ses = c.std_errors
        for pos, flat in enumerate(c.members):
            if fit.family == "lnar":
                j, kind = pos // 2 + 1, ("alpha" if pos % 2 == 0 else "beta")
                term = f"{kind}[{j}]"
            else:
                term = f"lag{flat // fit.d + 1} x{flat % fit.d + 1}"
            print(f"{c.r + 1:>4} {term:>10} {c.w[pos]:>12.5f} {ses[pos]:>10.5f}")
    print(f"wrote fit.json to {args.out}")
    return 0


def cmd_forecast(args) -> int:
    fit = nio.read_fit_json(args.fit)
    x = nio.read_series_csv(args.series)
    ads = nio.read_adjacency(args.ads) if args.ads else None
    if args.policy == "holdlast":
        policy = HoldLast()
    elif args.policy == "markov":
        policy = PerEdgeMarkov(laplace_alpha=args.laplace_alpha,
                               freeze_first=args.freeze_markov)
    elif args.policy.startswith("known:"):
        policy = Known(nio.read_adjacency(args.policy.split(":", 1)[1]))
    elif args.policy == "none":
        policy = None
    else:
        raise SystemExit(f"unknown policy {args.policy!r}")
    truth = None
    if args.truth:
        truth = nio.read_series_csv(args.truth)
    fc = forecast_h(fit, x, ads, policy, args.h, truth=truth)
    nio.write_forecast_csv(_out_path(args, "forecast.csv"), fc)
    print(f"wrote forecast.csv ({fit.d} components x {args.h} horizons) to {args.out}")
    return 0


def cmd_acf(args) -> int:
    x = nio.read_series_csv(args.series)
    est = sample_acf(x, args.max_lag)
    nio.write_acf_csv(_out_path(args, "acf.csv"), est)
    print(f"wrote acf.csv (lags 0..{args.max_lag}) to {args.out}")
    return 0


def cmd_depmeas(args) -> int:
    for flag, value, least in (("--reps", args.reps, 2), ("--max-lag", args.max_lag, 0)):
        if value < least:
            raise SystemExit(f"{flag} must be at least {least}, got {value}")
    if not args.q > 0:
        raise SystemExit(f"--q must be positive, got {args.q}")
    model = _load_network_model(args.network)
    if args.process:
        spec, innov = nio.read_model_spec(args.process)
        try:  # a process whose dimension differs from its innovations' or the network's
            run = estimate_delta_x(spec, model, innov, q=args.q, max_lag=args.max_lag,
                                   reps=args.reps, seed=args.seed, mode=args.mode)
        except ValueError as exc:
            raise SystemExit(str(exc)) from None
    else:
        run = estimate_delta_network(model, q=args.q, max_lag=args.max_lag,
                                     reps=args.reps, seed=args.seed)
    nio.write_coupling_csv(_out_path(args, "delta.csv"), run)
    nio.write_decay_json(_out_path(args, "decay.json"), run)
    print(f"delta_total={run.delta_total:.4f} decay_ratio={run.decay_ratio:.4f} "
          f"r2={run.decay_r2:.4f}; wrote delta.csv, decay.json to {args.out}")
    return 0


def cmd_experiment(args) -> int:
    if args.print_schema:
        json.dump(CONFIG_SCHEMA, sys.stdout, indent=2)
        print()
        return 0
    if args.threads < 1:
        raise SystemExit(f"--threads must be at least 1, got {args.threads}")
    doc = nio._read_json(args.config)
    if args.seed is not None:
        doc["seed"] = args.seed
    try:  # a bad config, a process failing its check on the network, a run aborted
        report = run_experiment(config_from_json(doc), threads=args.threads, out_dir=args.out)
    except (ValueError, ExperimentAborted) as exc:
        raise SystemExit(str(exc)) from None
    for n in report.sample_sizes:
        for lbl in report.method_labels:
            vals = " ".join(f"{v:.4g}" for v in report.mse[(n, lbl)])
            print(f"n={n} {lbl}: {vals}")
    if args.out:
        print(f"reports written to {args.out}")
    return 0


def cmd_panel(args) -> int:
    weights = {}
    for path in sorted(glob.glob(os.path.join(args.weights_dir, "weights_*.csv"))):
        m = re.search(r"weights_(\d{4})\.csv$", path)
        if m:
            weights[int(m.group(1))] = path
    panel = ingest_panel(args.levels, weights)
    if not panel.rows_stochastic:
        print("note: normalized weights are not row-stochastic everywhere", file=sys.stderr)
    result = run_rolling_forecast(panel, methods=tuple(args.methods.split(",")),
                                  h=args.h, p_max=args.pmax, out_dir=args.out)
    totals = result.total_errors()
    print("method,total_squared,total_absolute,order")
    for m in result.methods:
        sq, ab = totals[m]
        print(f"{m},{sq:.6g},{ab:.6g},{result.orders[m]}")
    print(f"reports written to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netar",
        description="Simulate, estimate and forecast autoregressive time series on dynamic networks.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="root seed")
    common.add_argument("--threads", type=int, default=1, help="worker processes for replicates")
    common.add_argument("--out", default=".", help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[common], help="simulate a model path")
    p.add_argument("--model", required=True, help="model spec JSON")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--network", help="network model JSON (generates the snapshots)")
    source.add_argument("--ads", help="existing network series CSV/JSON instead of generating")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--burn-in", type=int, default=500, dest="burn_in")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", parents=[common], help="least-squares fit")
    p.add_argument("--series", required=True)
    p.add_argument("--ads")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--g", help="neighborhood descriptor (e.g. transpose, rownorm, sign_poly:2)")
    p.add_argument("--p", type=int, help="fixed lag order (default: BIC up to --pmax)")
    p.add_argument("--pmax", type=int, default=3)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("forecast", parents=[common], help="h-step recursive forecast")
    p.add_argument("--fit", required=True, help="fit JSON from the fit subcommand")
    p.add_argument("--series", required=True)
    p.add_argument("--ads")
    p.add_argument("--policy", default="holdlast",
                   help="none | holdlast | markov | known:<future network file>")
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--truth", help="series CSV of realized future values")
    p.add_argument("--laplace-alpha", type=float, default=1.0, dest="laplace_alpha")
    p.add_argument("--freeze-markov", action="store_true", dest="freeze_markov")
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("acf", parents=[common], help="sample autocovariance matrices")
    p.add_argument("--series", required=True)
    p.add_argument("--max-lag", type=int, required=True, dest="max_lag")
    p.set_defaults(func=cmd_acf)

    p = sub.add_parser("depmeas", parents=[common],
                       help="coupled physical-dependence coefficients")
    p.add_argument("--network", required=True, help="network model JSON")
    p.add_argument("--process", help="model spec JSON (couple the induced series)")
    p.add_argument("--q", type=float, default=2.0)
    p.add_argument("--max-lag", type=int, default=20, dest="max_lag")
    p.add_argument("--reps", type=int, default=2000)
    p.add_argument("--mode", choices=("joint", "network_only"), default="joint")
    p.set_defaults(func=cmd_depmeas)

    p = sub.add_parser("experiment", parents=[common],
                       help="run a config-driven Monte Carlo benchmark")
    p.add_argument("--config", help="experiment config JSON")
    p.add_argument("--print-schema", action="store_true",
                   help="print the config schema and exit")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("panel", parents=[common],
                       help="difference/fit/forecast/integrate a panel dataset")
    p.add_argument("--levels", required=True, help="quarterly levels CSV")
    p.add_argument("--weights-dir", required=True, dest="weights_dir",
                   help="directory of weights_<year>.csv trade matrices")
    p.add_argument("--h", type=int, default=8)
    p.add_argument("--methods", default="var,lnar,nar")
    p.add_argument("--pmax", type=int, default=3)
    p.set_defaults(func=cmd_panel)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "experiment" and not args.print_schema and not args.config:
        parser.error("experiment needs --config (or --print-schema)")
    try:
        return args.func(args)
    except (OSError, json.JSONDecodeError) as exc:
        name = getattr(exc, "filename", None)  # a JSON error has one from io._read_json
        if name is None:
            raise
        why = (exc.strerror if isinstance(exc, OSError) else
               f"not valid JSON ({exc.msg} at line {exc.lineno}, column {exc.colno})")
        raise SystemExit(f"{name}: {why}") from None


if __name__ == "__main__":
    sys.exit(main())
