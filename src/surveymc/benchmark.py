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
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .baselines import collective_unweighted, hot_deck, soft_impute
from .errors import (DegenerateTruth, InvalidInput, ShapeError, SurveyMCError, check_int,
                     check_real, check_type, real_array)
from .families import CategoryLayout, mean_from_natural
from .response_model import DEFAULT_P_FLOOR, estimate_response_probs
from .simulator import PopulationSpec, simulate_survey
from .solver import DEFAULT_TAU_GRID, SolverConfig, fit_completion, grid_search

__all__ = ["ReplicationReport", "BenchmarkSummary", "relative_error",
           "block_relative_errors", "check_run_args", "run_benchmark",
           "tune_benchmark_taus", "METHODS"]


def _pair(estimate, reference) -> tuple[np.ndarray, np.ndarray]:
    est, ref = real_array("estimate", estimate, 2), real_array("reference", reference, 2)
    if est.shape != ref.shape:
        raise ShapeError(f"shape mismatch {est.shape} vs {ref.shape}")
    return est, ref


def relative_error(estimate, reference) -> float:
    """||estimate - reference||_F / ||reference||_F of two matrices.  np.sum
    adds the squares: a BLAS dot (np.linalg.norm) moves its last bits with
    the thread count."""
    est, ref = _pair(estimate, reference)
    den = float(np.sum(ref ** 2))
    if den == 0.0:
        raise DegenerateTruth("reference matrix is identically zero")
    return float(np.sqrt(np.sum((est - ref) ** 2) / den))


def block_relative_errors(estimate, reference, layout) -> dict[str, float]:
    """Overall and per-block relative errors, in that order, with the overall
    squared error computed as the sum of block squared errors."""
    check_type("layout", layout, CategoryLayout)
    est, ref = _pair(layout.matrix("estimate", estimate), reference)
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
    reports: tuple[ReplicationReport, ...]

    @property
    def failures(self) -> dict[str, dict[int, str]]:
        """method -> replicate id -> error message, of each failed fit."""
        return {name: {rep.replicate: rep.failures[name] for rep in self.reports
                       if name in rep.failures} for name in self.methods}

    @property
    def n_failures(self) -> dict[str, int]:
        """method -> replicates on which it failed."""
        return {name: len(failed) for name, failed in self.failures.items()}

    @property
    def aggregate(self) -> dict[str, dict[str, tuple[float, float, int]]]:
        """method -> score label -> (mean, standard error, count) over the
        replicates the method did not fail on; one replicate's se is NaN."""
        aggregate: dict[str, dict[str, tuple[float, float, int]]] = {}
        for name in self.methods:
            ok = [rep.re[name] for rep in self.reports if name in rep.re]
            aggregate[name] = {}
            for lab in ok[0] if ok else ():
                vals = np.array([s[lab] for s in ok])
                se = float(vals.std(ddof=1) / np.sqrt(vals.size)) if vals.size > 1 else float("nan")
                aggregate[name][lab] = (float(vals.mean()), se, int(vals.size))
        return aggregate


def _data_rng(base_seed: int, r: int) -> np.random.Generator:
    return np.random.default_rng([base_seed ^ r, 0])


def _method_rng(base_seed: int, r: int) -> np.random.Generator:
    return np.random.default_rng([base_seed ^ r, 1])


# Each method maps (dataset, p_hat, tau, config, rng) to its natural-parameter
# estimate; p_hat, stage one's estimate, is None unless ipw runs.  The solvers
# are looked up by module-global name at call time so that rebinding
# fit_completion and the baselines here reaches every fit.


def _ipw(ds, p_hat, tau, config, rng):
    return fit_completion(ds, p_hat, tau, config).Z_hat


def _collective_unweighted(ds, p_hat, tau, config, rng):
    return collective_unweighted(ds, tau, config).Z_hat_natural


def _soft_impute(ds, p_hat, tau, config, rng):
    return soft_impute(ds, tau, config).Z_hat_natural


def _hot_deck(ds, p_hat, tau, config, rng):
    return hot_deck(ds, rng, clamp=config.clamp).Z_hat_natural


_Method = namedtuple("_Method", "fit tuned")     # tuned False: the method takes no tau

_REGISTRY = {
    "ipw": _Method(_ipw, tuned=True),
    "collective_unweighted": _Method(_collective_unweighted, tuned=True),
    "soft_impute": _Method(_soft_impute, tuned=True),
    "hot_deck": _Method(_hot_deck, tuned=False),
}

METHODS = tuple(_REGISTRY)


def _check_methods(methods) -> tuple[str, ...]:
    """methods as a tuple of distinct names from METHODS, at least one, else
    InvalidInput."""
    if isinstance(methods, str) or not isinstance(methods, Sequence):  # a str holds letters
        raise InvalidInput(f"methods must be a sequence of method names, got {methods!r}")
    methods = tuple(methods)
    if not methods:
        raise InvalidInput(f"methods must name at least one of {METHODS}")
    for name in methods:
        if not isinstance(name, str) or name not in METHODS:
            raise InvalidInput(f"unknown method {name!r} in methods, expected names from "
                               f"{METHODS}")
    if len(set(methods)) != len(methods):
        raise InvalidInput(f"methods {methods} name a method more than once")
    return methods


def check_run_args(methods, n_replicates: int, base_seed: int,
                   taus: dict[str, float] | None = None) -> tuple[str, ...]:
    """Reject, before any draw or fit, methods other than one or more distinct
    names from METHODS, replicates < 2, a negative seed and, given taus, a tuned method without a
    valid tau, a tau for a method not requested, or any invalid tau."""
    methods = _check_methods(methods)
    check_int("replicates", n_replicates, 2)
    check_int("base_seed", base_seed, 0)
    check_type("taus", taus, dict, type(None))
    for name in methods:
        if taus is not None and _REGISTRY[name].tuned:  # a missing tau reads as None
            check_real(f"taus[{name!r}]", taus.get(name), 0.0)
    for name, tau in (taus or {}).items():
        if name not in methods:
            raise InvalidInput(f"taus names {name!r}, which is not one of the methods {methods}")
        check_real(f"taus[{name!r}]", tau, 0.0)
    return methods


def _draw_replicate(spec: PopulationSpec, methods, base_seed: int, r: int, p_floor: float):
    """Replicate r's dataset, true Z and stage-one p_hat (None unless ipw runs)."""
    _, sample = simulate_survey(spec, _data_rng(base_seed, r))
    ds = sample.dataset
    p_hat = estimate_response_probs(ds, p_floor=p_floor).p_hat if "ipw" in methods else None
    return ds, sample.truth_Z, p_hat


def _one_replicate(spec: PopulationSpec, methods, taus, base_seed: int, r: int,
                   config: SolverConfig, p_floor: float) -> ReplicationReport:
    t0 = time.perf_counter()
    ds, truth_Z, p_hat = _draw_replicate(spec, methods, base_seed, r, p_floor)
    re: dict[str, dict[str, float]] = {}
    failures: dict[str, str] = {}
    for name in methods:
        try:
            Z_hat = _REGISTRY[name].fit(ds, p_hat, taus.get(name), config,
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


def run_benchmark(spec: PopulationSpec, methods=METHODS, n_replicates: int = 20, *,
                  taus: dict[str, float], base_seed: int = 1,
                  config: SolverConfig = SolverConfig(),
                  p_floor: float = DEFAULT_P_FLOOR) -> BenchmarkSummary:
    """Run the Monte Carlo replicates in order, in the calling thread; the
    summary aggregates their mean and standard error.

    taus is required and maps every tuned method to its tau; a run of
    hot_deck alone passes {}.  Failures are recorded per replicate and
    excluded from the aggregate, never silently dropped.
    """
    check_type("spec", spec, PopulationSpec)
    check_type("config", config, SolverConfig)
    check_type("taus", taus, dict)
    check_real("p_floor", p_floor, 0.0, 1.0)
    methods = check_run_args(methods, n_replicates, base_seed, taus)

    reports = tuple(_one_replicate(spec, methods, taus, base_seed, r, config, p_floor)
                    for r in range(1, n_replicates + 1))
    return BenchmarkSummary(spec=spec, methods=methods, reports=reports)


def tune_benchmark_taus(spec: PopulationSpec, methods=METHODS, grid=DEFAULT_TAU_GRID,
                        base_seed: int = 1, config: SolverConfig = SolverConfig(),
                        p_floor: float = DEFAULT_P_FLOOR) -> dict[str, float]:
    """Tune each method's tau once on the reserved validation replicate.

    The validation replicate (id 0) is generated independently of the
    benchmark replicates.  Every tuned method fits it once per tau that
    grid_search's descending scan reaches and scores the relative error
    against the validation truth; ties break toward the larger tau.  Methods
    without a tau are left out.
    """
    check_type("spec", spec, PopulationSpec)
    check_type("config", config, SolverConfig)
    check_real("p_floor", p_floor, 0.0, 1.0)
    methods = _check_methods(methods)
    check_int("base_seed", base_seed, 0)
    ds, truth_Z, p_hat = _draw_replicate(spec, methods, base_seed, 0, p_floor)
    out: dict[str, float] = {}
    for name in methods:
        method = _REGISTRY[name]
        if method.tuned:
            out[name] = grid_search(grid, lambda t: relative_error(
                method.fit(ds, p_hat, t, config, _method_rng(base_seed, 0)),
                truth_Z)).best_tau
    return out
