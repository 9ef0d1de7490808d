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
from .dataset import MixedDataset
from .errors import InvalidInput, SurveyMCError, check_int
from .families import CategoryLayout, mean_from_natural
from .response_model import estimate_response_probs
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


def _solver_config(args, tau: float) -> SolverConfig:
    return SolverConfig(tau=tau, iterations=args.iterations, clamp=args.clamp)


def _outdir(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


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


def _load(args) -> MixedDataset:
    """The dataset, with --population-size (if given) as its population size."""
    dataset = mio.load_dataset(args.data, args.schema, standardize=args.standardize)
    if args.population_size is None:
        return dataset
    return dataclasses.replace(dataset, population_size=args.population_size)


def _fit(args, dataset: MixedDataset):
    probs = estimate_response_probs(dataset, p_floor=args.p_floor,
                                    use_design_weights=args.design_weighted)
    result = fit_completion(dataset, probs, _solver_config(args, args.tau))
    return probs, result


def cmd_simulate(args) -> int:
    out = _outdir(args)
    spec = _spec_from_args(args)
    check_int("seed", args.seed, 0)
    _, sample = simulate_survey(spec, np.random.default_rng(args.seed))
    mio.save_dataset(sample.dataset, os.path.join(out, "data.csv"),
                     os.path.join(out, "schema.json"))
    mio.save_matrix_csv(sample.truth_Z, os.path.join(out, "truth_z.csv"), prefix="z")
    mio.save_matrix_csv(sample.true_p, os.path.join(out, "truth_p.csv"), prefix="p")
    mio.write_meta_json(_meta(args, {"n_rows": sample.dataset.n,
                                     "response_rate": float(sample.dataset.R.mean())}),
                        os.path.join(out, "meta.json"))
    print(f"wrote {sample.dataset.n} rows to {out}")
    return 0


def cmd_fit(args) -> int:
    out = _outdir(args)
    dataset = _load(args)
    probs, result = _fit(args, dataset)
    mio.save_matrix_csv(result.Z_hat, os.path.join(out, "z_hat.csv"), prefix="z")
    mio.save_matrix_csv(probs.p_hat, os.path.join(out, "p_hat.csv"), prefix="p")
    mio.write_trace_csv(result, os.path.join(out, "trace.csv"))
    mio.write_meta_json(_meta(args, {"diagnostics": result.diagnostics,
                                     "iterations_run": result.iterations_run,
                                     "stage_one": _stage_one(probs)}),
                        os.path.join(out, "meta.json"))
    stop = "a fixed point" if result.diagnostics["stop"] == "fixed_point" else "the cap"
    print(f"final objective {mio.fmt(result.objective_trace[-1])} after "
          f"{result.iterations_run} iterations, stopped at {stop}")
    return 0


def cmd_impute(args) -> int:
    out = _outdir(args)
    dataset = _load(args)
    probs, result = _fit(args, dataset)
    means = mean_from_natural(result.Z_hat, dataset.layout)
    imputed = np.where(dataset.R, dataset.Y, means)
    if args.original_scale and dataset.standardization is not None:
        imputed = imputed.copy()
        for j, (mean, scale) in dataset.standardization.response.items():
            imputed[:, j] = imputed[:, j] * scale + mean
    mio.save_matrix_csv(imputed, os.path.join(out, "imputed.csv"), prefix="y")
    mio.save_matrix_csv(result.Z_hat, os.path.join(out, "z_hat.csv"), prefix="z")
    mio.write_trace_csv(result, os.path.join(out, "trace.csv"))
    mio.write_meta_json(_meta(args, {"diagnostics": result.diagnostics,
                                     "stage_one": _stage_one(probs)}),
                        os.path.join(out, "meta.json"))
    print(f"imputed {int((~dataset.R).sum())} missing entries")
    return 0


def cmd_tune(args) -> int:
    out = _outdir(args)
    dataset = _load(args)
    probs = estimate_response_probs(dataset, p_floor=args.p_floor,
                                    use_design_weights=args.design_weighted)
    grid = mio.parse_tau_grid(args.grid)
    result = tune_tau(dataset, probs, grid=grid, folds=args.folds, seed=args.seed,
                      base_config=_solver_config(args, grid[0]))
    mio.write_tau_scores(result, os.path.join(out, "tau_scores.csv"))
    mio.write_meta_json(_meta(args, {"best_tau": result.best_tau,
                                     "stage_one": _stage_one(probs)}),
                        os.path.join(out, "meta.json"))
    print(f"best tau {mio.fmt(result.best_tau)}")
    return 0


def cmd_benchmark(args) -> int:
    out = _outdir(args)
    spec = _spec_from_args(args)
    methods = check_run_args([m.strip() for m in args.methods.split(",")],
                             args.replicates, args.seed)
    check_int("threads", args.threads, 1)
    config = _solver_config(args, 2.0**-10)
    if args.tau is not None:
        taus = {m: args.tau for m in methods}
    else:
        taus = tune_benchmark_taus(spec, methods, grid=mio.parse_tau_grid(args.grid),
                                   base_seed=args.seed, config=config,
                                   p_floor=args.p_floor)
    summary = run_benchmark(spec, methods, n_replicates=args.replicates, taus=taus,
                            base_seed=args.seed, config=config, p_floor=args.p_floor)
    scenario = f"xi={args.xi:g}"
    mio.write_benchmark_csvs(summary, scenario, os.path.join(out, "summary.csv"),
                             os.path.join(out, "replicates.csv"))
    mio.write_meta_json(_meta(args, {"taus": taus, "n_failures": summary.n_failures}),
                        os.path.join(out, "meta.json"))
    for method in methods:
        agg = summary.aggregate.get(method, {})
        if "overall" in agg:
            mean, se, count = agg["overall"]
            print(f"{method}: overall RE {mean:.4f} +/- {se:.4f} ({count} replicates)")
        else:
            print(f"{method}: all replicates failed")
    return 0


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--iterations", type=int, default=200, help="iteration cap")
    p.add_argument("--clamp", type=float, default=30.0,
                   help="natural-parameter clamp box half-width")


def _add_fit_flags(p: argparse.ArgumentParser) -> None:
    """Flags of the subcommands that fit one dataset at one tau."""
    _add_data_flags(p)
    p.add_argument("--tau", type=float, required=True, help="nuclear-norm weight")
    _add_solver_flags(p)
    _add_population_flag(p)


def _add_population_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--population-size", type=float, default=None,
                   help="population size N, overriding the schema's "
                        "(default: stored or Horvitz-Thompson)")


def _add_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="dataset CSV")
    p.add_argument("--schema", required=True, help="schema JSON")
    p.add_argument("--standardize", action="store_true",
                   help="standardize covariates and gaussian responses at load")
    p.add_argument("--p-floor", type=float, default=0.01,
                   help="lower clamp for fitted response probabilities")
    p.add_argument("--design-weighted", action="store_true",
                   help="use 1/pi weights when fitting response probabilities")


def _add_design_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--strata", type=int, default=9, help="number of strata H")
    p.add_argument("--m1", type=int, default=5, help="clusters drawn per stratum")
    p.add_argument("--m2", type=int, default=20, help="elements drawn per cluster")
    p.add_argument("--covariates", type=int, default=3, help="covariate count D")
    p.add_argument("--blocks", default="gaussian:30,poisson:30,bernoulli:30",
                   help="response blocks as family:count, comma separated")
    p.add_argument("--sigma", type=float, default=1.0, help="gaussian scale")
    p.add_argument("--xi", type=float, default=0.3,
                   help="missingness intercept location")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="surveymc", allow_abbrev=False,
        description="Low-rank completion of mixed survey responses under "
                    "informative sampling.")
    parser.add_argument("--config", default=None,
                        help="JSON file supplying flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="draw a synthetic survey sample")
    _add_design_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="fit the completion model to a dataset")
    _add_fit_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("impute", help="fit and write mean-scale imputations")
    _add_fit_flags(p)
    p.add_argument("--original-scale", action="store_true",
                   help="undo load-time standardization in the imputed file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_impute)

    p = sub.add_parser("tune", help="cross-validate tau on a dataset")
    _add_data_flags(p)
    p.add_argument("--grid", default=DEFAULT_GRID, help="tau grid")
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--seed", type=int, default=0, help="fold assignment seed")
    _add_solver_flags(p)
    _add_population_flag(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("benchmark", help="Monte Carlo method comparison")
    _add_design_flags(p)
    p.add_argument("--methods", default=",".join(METHODS))
    p.add_argument("--replicates", type=int, default=20)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--tau", type=float, default=None,
                   help="fixed tau for every method (default: tune on a "
                        "validation replicate)")
    p.add_argument("--grid", default=DEFAULT_GRID, help="tuning grid")
    _add_solver_flags(p)
    p.add_argument("--p-floor", type=float, default=0.01)
    p.add_argument("--threads", type=int, default=1,
                   help="ignored, replicates run in order; kept so old command lines parse")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_benchmark)
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
