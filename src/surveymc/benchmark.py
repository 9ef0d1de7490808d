"""Monte Carlo benchmark: repeated simulate / fit / score cycles.

Each replicate r (ids start at 1) draws its own population, sample, and
missingness from a stream seeded by base_seed XOR r, runs every requested
method, and scores relative Frobenius error against the sampled rows of the
true natural-parameter matrix, overall and per family block.  The overall
squared error is the sum of the per-block squared errors, so the block
decomposition identity holds exactly.

Replicate id 0 is reserved for the validation replicate used to tune tau.
Wall times are kept in memory only so that rerunning with the same seed
reproduces output files byte for byte.
"""

from __future__ import annotations

import time
from collections import namedtuple
from dataclasses import dataclass, replace

import numpy as np

from .baselines import collective_unweighted, hot_deck, soft_impute
from .errors import DegenerateTruth, InvalidInput, ShapeError, SurveyMCError, check_int
from .families import mean_from_natural
from .response_model import estimate_response_probs
from .simulator import PopulationSpec, simulate_survey
from .solver import DEFAULT_TAU_GRID, SolverConfig, fit_completion, grid_search

__all__ = ["ReplicationReport", "BenchmarkSummary", "relative_error",
           "block_relative_errors", "check_run_args", "run_benchmark",
           "tune_benchmark_taus", "METHODS"]


def relative_error(estimate, reference) -> float:
    """||estimate - reference||_F / ||reference||_F."""
    est = np.asarray(estimate, dtype=np.float64)
    ref = np.asarray(reference, dtype=np.float64)
    if est.shape != ref.shape:
        raise ShapeError(f"shape mismatch {est.shape} vs {ref.shape}")
    denom = float(np.linalg.norm(ref))
    if denom == 0.0:
        raise DegenerateTruth("reference matrix is identically zero")
    return float(np.linalg.norm(est - ref)) / denom


def block_relative_errors(estimate, reference, layout) -> dict[str, float]:
    """Overall and per-block relative errors, in that order, with the overall
    squared error computed as the sum of block squared errors."""
    est = np.asarray(estimate, dtype=np.float64)
    ref = np.asarray(reference, dtype=np.float64)
    if est.shape != ref.shape:
        raise ShapeError(f"shape mismatch {est.shape} vs {ref.shape}")
    total_num = total_den = 0.0
    blocks: dict[str, float] = {}
    for i, (fam, sl) in enumerate(layout.slices()):
        num = float(np.sum((est[:, sl] - ref[:, sl]) ** 2))
        den = float(np.sum(ref[:, sl] ** 2))
        if den == 0.0:
            raise DegenerateTruth(f"reference block {i + 1} is identically zero")
        blocks[f"block{i + 1}_{fam.kind}"] = float(np.sqrt(num / den))
        total_num += num
        total_den += den
    return {"overall": float(np.sqrt(total_num / total_den)), **blocks}


@dataclass(frozen=True)
class ReplicationReport:
    replicate: int
    seed: int
    response_rate: float
    wall_time: float
    re: dict[str, dict[str, float]]        # method -> block label -> RE
    failures: dict[str, str]               # method -> error message


@dataclass(frozen=True)
class BenchmarkSummary:
    spec: PopulationSpec
    methods: tuple[str, ...]
    taus: dict[str, float]
    base_seed: int
    reports: tuple[ReplicationReport, ...]
    aggregate: dict[str, dict[str, tuple[float, float, int]]]  # mean, se, count
    n_failures: dict[str, int]


def _data_rng(base_seed: int, r: int) -> np.random.Generator:
    return np.random.default_rng([base_seed ^ r, 0])


def _method_rng(base_seed: int, r: int) -> np.random.Generator:
    return np.random.default_rng([base_seed ^ r, 1])


# Each method maps (dataset, probs, tau, config, rng) to its natural-parameter
# estimate.  The solvers are looked up by module-global name at call time so
# that rebinding fit_completion and the baselines here reaches every fit.


def _ipw(ds, probs, tau, config, rng):
    return fit_completion(ds, probs, replace(config, tau=tau)).Z_hat


def _collective_unweighted(ds, probs, tau, config, rng):
    return collective_unweighted(ds, replace(config, tau=tau)).Z_hat_natural


def _soft_impute(ds, probs, tau, config, rng):
    return soft_impute(ds, replace(config, tau=tau)).Z_hat_natural


def _hot_deck(ds, probs, tau, config, rng):
    return hot_deck(ds, rng, clamp=config.clamp).Z_hat_natural


_Method = namedtuple("_Method", "fit tuned")     # tuned False: the method takes no tau

_REGISTRY = {
    "ipw": _Method(_ipw, tuned=True),
    "collective_unweighted": _Method(_collective_unweighted, tuned=True),
    "soft_impute": _Method(_soft_impute, tuned=True),
    "hot_deck": _Method(_hot_deck, tuned=False),
}

METHODS = tuple(_REGISTRY)


def check_run_args(methods, n_replicates: int = 2, base_seed: int = 0) -> tuple[str, ...]:
    """Reject unknown or repeated methods, replicates < 2 (a standard error
    needs two) or a negative seed before any fit."""
    methods = tuple(methods)
    for name in methods:
        if name not in _REGISTRY:
            raise InvalidInput(f"unknown method {name!r}, expected subset of {METHODS}")
    if len(set(methods)) != len(methods):
        raise InvalidInput(f"methods {methods} name a method more than once")
    check_int("replicates", n_replicates, 2)
    check_int("base_seed", base_seed, 0)
    return methods


def _draw_replicate(spec: PopulationSpec, methods, base_seed: int, r: int, p_floor: float):
    """Replicate r's dataset, true Z and stage-one model (None unless ipw runs)."""
    _, sample = simulate_survey(spec, _data_rng(base_seed, r))
    probs = estimate_response_probs(sample.dataset, p_floor=p_floor) if "ipw" in methods else None
    return sample.dataset, sample.truth_Z, probs


def _one_replicate(spec: PopulationSpec, methods, taus, base_seed: int, r: int,
                   config: SolverConfig, p_floor: float) -> ReplicationReport:
    t0 = time.perf_counter()
    ds, truth_Z, probs = _draw_replicate(spec, methods, base_seed, r, p_floor)
    re: dict[str, dict[str, float]] = {}
    failures: dict[str, str] = {}
    for name in methods:
        try:
            Z_hat = _REGISTRY[name].fit(ds, probs, taus.get(name, config.tau), config,
                                        _method_rng(base_seed, r))
            scores = block_relative_errors(Z_hat, truth_Z, ds.layout)
            scores["overall_mean_scale"] = relative_error(
                mean_from_natural(Z_hat, ds.layout),
                mean_from_natural(truth_Z, ds.layout))
            re[name] = scores
        except SurveyMCError as exc:
            failures[name] = f"{type(exc).__name__}: {exc}"
    return ReplicationReport(replicate=r, seed=base_seed ^ r,
                             response_rate=float(ds.R.mean()),
                             wall_time=time.perf_counter() - t0,
                             re=re, failures=failures)


def run_benchmark(spec: PopulationSpec, methods=METHODS, n_replicates: int = 20,
                  taus: dict[str, float] | None = None, base_seed: int = 1,
                  config: SolverConfig | None = None, p_floor: float = 0.01) -> BenchmarkSummary:
    """Run the Monte Carlo replicates in order, in the calling thread, and
    aggregate mean and standard error.

    taus maps method name to its tuning parameter; missing entries fall back
    to config.tau.  Failures are recorded per replicate and excluded from the
    aggregate, never silently dropped.
    """
    methods = check_run_args(methods, n_replicates, base_seed)
    config = config or SolverConfig(tau=2.0**-10)
    taus = dict(taus or {})

    reports = [_one_replicate(spec, methods, taus, base_seed, r, config, p_floor)
               for r in range(1, n_replicates + 1)]

    aggregate: dict[str, dict[str, tuple[float, float, int]]] = {}
    n_failures: dict[str, int] = {}
    for name in methods:
        ok = [rep.re[name] for rep in reports if name in rep.re]
        n_failures[name] = n_replicates - len(ok)
        aggregate[name] = {}
        for lab in ok[0] if ok else ():
            vals = np.array([s[lab] for s in ok])
            se = float(vals.std(ddof=1) / np.sqrt(vals.size)) if vals.size > 1 else float("nan")
            aggregate[name][lab] = (float(vals.mean()), se, int(vals.size))
    return BenchmarkSummary(spec=spec, methods=methods, taus=taus, base_seed=base_seed,
                            reports=tuple(reports), aggregate=aggregate,
                            n_failures=n_failures)


def tune_benchmark_taus(spec: PopulationSpec, methods=METHODS, grid=DEFAULT_TAU_GRID,
                        base_seed: int = 1, config: SolverConfig | None = None,
                        p_floor: float = 0.01) -> dict[str, float]:
    """Tune each method's tau once on the reserved validation replicate.

    The validation replicate (id 0) is generated independently of the
    benchmark replicates.  Every tuned method fits it once per tau in the
    grid and scores the relative error against the validation truth; ties
    break toward the larger tau.  Methods without a tau are left out.
    """
    methods = check_run_args(methods, base_seed=base_seed)
    config = config or SolverConfig(tau=2.0**-10)
    ds, truth_Z, probs = _draw_replicate(spec, methods, base_seed, 0, p_floor)
    out: dict[str, float] = {}
    for name in methods:
        method = _REGISTRY[name]
        if method.tuned:
            out[name] = grid_search(grid, lambda t: relative_error(
                method.fit(ds, probs, t, config, _method_rng(base_seed, 0)),
                truth_Z)).best_tau
    return out
