"""Command line interface.

Subcommands: simulate, fit, impute, tune, benchmark.  A JSON config file can
supply any long-flag value (keys use underscores; false fits only an on/off
flag); explicit flags override the config.  Exit codes: 0 success, 2 usage
problems, 3 data problems, 4 numerical failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import io as mio
from .benchmark import METHODS, check_run_args, run_benchmark, tune_benchmark_taus
from .errors import InvalidInput, SurveyMCError, check_int
from .families import CategoryLayout, mean_from_natural
from .response_model import DEFAULT_P_FLOOR, estimate_response_probs
from .simulator import PopulationSpec, simulate_survey
from .solver import SolverConfig, fit_completion, tune_tau

# the tau grid flags' default; parse_tau_grid(DEFAULT_GRID) is solver.DEFAULT_TAU_GRID
DEFAULT_GRID = "2^-15..2^-1,1,2"

_LABELS = {2: "usage error", 3: "data error", 4: "numerical failure"}


def _parse_blocks(text: str, sigma: float) -> CategoryLayout:
    specs = []
    for token in text.split(","):
        token = token.strip()
        try:
            kind, count = token.split(":")
            specs.append((kind.strip(), int(count)))
        except ValueError as exc:
            raise InvalidInput(f"bad block token {token!r}, expected family:count") from exc
    return CategoryLayout.of(*specs, sigma=sigma)


def _spec_from_args(args) -> PopulationSpec:
    return PopulationSpec(n_strata=args.strata, m1=args.m1, m2=args.m2,
                          layout=_parse_blocks(args.blocks, args.sigma),
                          xi=args.xi, n_covariates=args.covariates)


def _meta(args, extra: dict | None = None) -> dict:
    doc = {k: v for k, v in vars(args).items() if k not in ("func", "config")}
    doc.update(extra or {})
    return doc


def _stage_one(probs) -> dict:
    """meta.json counts of the stage-one cells that degenerated (all 0 or
    all 1), fell back to a ridge or stopped at the IRLS cap."""
    return {"degenerate_cells": len(probs.degenerate_cells),
            "fallback_cells": len(probs.fallback_cells),
            "nonconverged_cells": len(probs.nonconverged_cells)}


def _load(args):
    """The dataset, with --population-size (if given) as its population size,
    and its stage-one fit."""
    dataset = mio.load_dataset(args.data, args.schema, standardize=args.standardize)
    if args.population_size is not None:
        dataset = dataclasses.replace(dataset, population_size=args.population_size)
    return dataset, estimate_response_probs(dataset, p_floor=args.p_floor,
                                            use_design_weights=args.design_weighted)


def _config(args) -> SolverConfig:
    """The solver settings of --iterations and --clamp."""
    return SolverConfig(iterations=args.iterations, clamp=args.clamp)


def _fit(args):
    """Load, run stage one and fit at --tau; write z_hat.csv, p_hat.csv,
    trace.csv and meta.json into --out, and print how the loop stopped."""
    dataset, probs = _load(args)
    result = fit_completion(dataset, probs.p_hat, args.tau, _config(args))
    mio.save_matrix_csv(result.Z_hat, os.path.join(args.out, "z_hat.csv"), prefix="z")
    mio.write_trace_csv(result, os.path.join(args.out, "trace.csv"))
    mio.save_matrix_csv(probs.p_hat, os.path.join(args.out, "p_hat.csv"), prefix="p")
    mio.write_meta_json(_meta(args, {"diagnostics": result.diagnostics,
                                     "iterations_run": result.iterations_run,
                                     "stage_one": _stage_one(probs)}),
                        os.path.join(args.out, "meta.json"))
    stop = "a fixed point" if result.diagnostics["stop"] == "fixed_point" else "the cap"
    print(f"final objective {mio.fmt(result.objective_trace[-1])} after "
          f"{result.iterations_run} iterations, stopped at {stop}")
    return dataset, result


def cmd_simulate(args) -> int:
    spec = _spec_from_args(args)
    check_int("seed", args.seed, 0)
    _, sample = simulate_survey(spec, np.random.default_rng(args.seed))
    mio.save_dataset(sample.dataset, os.path.join(args.out, "data.csv"),
                     os.path.join(args.out, "schema.json"))
    mio.save_matrix_csv(sample.truth_Z, os.path.join(args.out, "truth_z.csv"), prefix="z")
    mio.save_matrix_csv(sample.true_p, os.path.join(args.out, "truth_p.csv"), prefix="p")
    mio.write_meta_json(_meta(args, {"n_rows": sample.dataset.n,
                                     "response_rate": float(sample.dataset.R.mean())}),
                        os.path.join(args.out, "meta.json"))
    print(f"wrote {sample.dataset.n} rows to {args.out}")
    return 0


def cmd_fit(args) -> int:
    _fit(args)
    return 0


def cmd_impute(args) -> int:
    """fit's files, plus imputed.csv on the data file's scale."""
    dataset, result = _fit(args)
    means = mean_from_natural(result.Z_hat, dataset.layout)
    if dataset.standardization is not None:
        for j, (mean, scale) in dataset.standardization.response.items():
            means[:, j] = means[:, j] * scale + mean
        # the observed entries as read, which y * scale + mean misses in the last bit
        dataset = mio.load_dataset(args.data, args.schema)
    imputed = np.where(dataset.R, dataset.Y, means)
    mio.save_matrix_csv(imputed, os.path.join(args.out, "imputed.csv"), prefix="y")
    print(f"imputed {int((~dataset.R).sum())} missing entries")
    return 0


def cmd_tune(args) -> int:
    dataset, probs = _load(args)
    result = tune_tau(dataset, probs.p_hat, grid=mio.parse_tau_grid(args.grid), folds=args.folds,
                      seed=args.seed, config=_config(args))
    mio.write_tau_scores(result, os.path.join(args.out, "tau_scores.csv"))
    mio.write_meta_json(_meta(args, {"best_tau": result.best_tau,
                                     "stage_one": _stage_one(probs)}),
                        os.path.join(args.out, "meta.json"))
    print(f"best tau {mio.fmt(result.best_tau)}")
    return 0


def cmd_benchmark(args) -> int:
    spec = _spec_from_args(args)
    methods = check_run_args([m.strip() for m in args.methods.split(",")],
                             args.replicates, args.seed)
    check_int("threads", args.threads, 1)
    config = _config(args)
    if args.tau is not None:
        taus = {m: args.tau for m in methods}
    else:
        taus = tune_benchmark_taus(spec, methods, grid=mio.parse_tau_grid(args.grid),
                                   base_seed=args.seed, config=config,
                                   p_floor=args.p_floor)
    summary = run_benchmark(spec, methods, n_replicates=args.replicates, taus=taus,
                            base_seed=args.seed, config=config, p_floor=args.p_floor)
    mio.write_benchmark_csvs(summary, os.path.join(args.out, "summary.csv"),
                             os.path.join(args.out, "replicates.csv"))
    mio.write_meta_json(_meta(args, {"taus": taus, "n_failures": summary.n_failures}),
                        os.path.join(args.out, "meta.json"))
    for method in methods:
        agg = summary.aggregate.get(method, {})
        if "overall" in agg:
            mean, se, count = agg["overall"]
            print(f"{method}: overall RE {mean:.4f} +/- {se:.4f} ({count} replicates)")
        else:
            print(f"{method}: all replicates failed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="surveymc", allow_abbrev=False,
        description="Low-rank completion of mixed survey responses under "
                    "informative sampling.")
    parser.add_argument("--config", default=None,
                        help="JSON file supplying flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)
    simulate = sub.add_parser("simulate", help="draw a synthetic survey sample")
    fit = sub.add_parser("fit", help="fit the completion model to a dataset")
    impute = sub.add_parser("impute", help="fit, and impute means on the data file's scale")
    tune = sub.add_parser("tune", help="cross-validate tau on a dataset")
    bench = sub.add_parser("benchmark", help="Monte Carlo method comparison")

    for p in (simulate, bench):  # the simulated design
        p.add_argument("--strata", type=int, default=9, help="number of strata H")
        p.add_argument("--m1", type=int, default=5, help="clusters drawn per stratum")
        p.add_argument("--m2", type=int, default=20, help="elements drawn per cluster")
        p.add_argument("--covariates", type=int, default=3, help="covariate count D")
        p.add_argument("--blocks", default="gaussian:30,poisson:30,bernoulli:30",
                       help="response blocks as family:count, comma separated")
        p.add_argument("--sigma", type=float, default=1.0, help="gaussian scale")
        p.add_argument("--xi", type=float, default=0.3,
                       help="missingness intercept location")
    for p in (fit, impute, tune):  # a dataset read from files
        p.add_argument("--data", required=True, help="dataset CSV")
        p.add_argument("--schema", required=True, help="schema JSON")
        p.add_argument("--standardize", action="store_true",
                       help="standardize covariates and gaussian responses at load")
        p.add_argument("--design-weighted", action="store_true",
                       help="use 1/pi weights when fitting response probabilities")
        p.add_argument("--population-size", type=float, default=None,
                       help="population size N, overriding the schema's "
                            "(default: stored or Horvitz-Thompson)")
    for p in (fit, impute):
        p.add_argument("--tau", type=float, required=True, help="nuclear-norm weight")
    simulate.add_argument("--seed", type=int, default=0)
    tune.add_argument("--folds", type=int, default=5)
    tune.add_argument("--seed", type=int, default=0, help="fold assignment seed")
    bench.add_argument("--methods", default=",".join(METHODS))
    bench.add_argument("--replicates", type=int, default=20)
    bench.add_argument("--seed", type=int, default=1)
    bench.add_argument("--tau", type=float, default=None,
                       help="fixed tau for every method (default: tune on a "
                            "validation replicate)")
    bench.add_argument("--threads", type=int, default=1,
                       help="ignored, replicates run in order; kept so old command lines parse")
    for p in (tune, bench):
        p.add_argument("--grid", default=DEFAULT_GRID, help="tau grid to tune over")
    for p in (fit, impute, tune, bench):  # the two stages
        p.add_argument("--p-floor", type=float, default=DEFAULT_P_FLOOR,
                       help="lower clamp for fitted response probabilities")
        p.add_argument("--iterations", type=int, default=SolverConfig.iterations,
                       help="iteration cap")
        p.add_argument("--clamp", type=float, default=SolverConfig.clamp,
                       help="natural-parameter clamp box half-width")
    for p, func in ((simulate, cmd_simulate), (fit, cmd_fit), (impute, cmd_impute),
                    (tune, cmd_tune), (bench, cmd_benchmark)):
        p.add_argument("--out", required=True, help="output directory")
        p.set_defaults(func=func)
    return parser


def _apply_config(argv: list[str]) -> tuple[list[str], list[str]]:
    """Fold config-file values in as defaults by injecting them before argv;
    explicit flags win because argparse takes the last occurrence.  Also
    return the keys set to false, which inject nothing."""
    # "--config=PATH" means "--config PATH"; the parser takes no abbreviation like "--conf"
    argv = [t for a in argv for t in (a.split("=", 1) if a.startswith("--config=") else [a])]
    if "--config" not in argv:
        return argv, []
    i = argv.index("--config")
    if i + 1 >= len(argv):
        raise InvalidInput("--config needs a path")
    path = argv[i + 1]
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidInput(f"cannot read config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise InvalidInput("config file must hold a JSON object")
    injected: list[str] = []
    off: list[str] = []
    for key, value in doc.items():
        flag = "--" + key.replace("_", "-")
        if value is False:
            off.append(key)
        elif value is True:
            injected.append(flag)
        else:
            injected.extend([flag, str(value)])
    head = argv[:i] + argv[i + 2:]
    if not head:
        raise InvalidInput("config file cannot supply the subcommand")
    # injected defaults go right after the subcommand name
    return head[:1] + injected + head[1:], off


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv, off = _apply_config(argv)
        args = parser.parse_args(argv)
        for key in off:  # false leaves an on/off flag off, whose parsed value is a bool
            if not isinstance(getattr(args, key.replace("-", "_"), None), bool):
                raise InvalidInput(f"config key {key!r} is false, but {args.command} "
                                   "has no on/off flag of that name")
        os.makedirs(args.out, exist_ok=True)
        return args.func(args)
    except SurveyMCError as exc:
        code, err = exc.exit_code, exc
    except OSError as exc:  # an unreadable or unwritable file is a data problem
        code, err = 3, exc
    detail = str(err) if code == 2 else f"{type(err).__name__}: {err}"
    print(f"{_LABELS[code]}: {detail}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
