"""Comparison methods: soft-impute, stratified hot deck, and the unweighted
variant of the main solver.

Every baseline keeps observed entries exactly in Y_imputed and also reports a
natural-parameter matrix so all methods can be scored on a common scale.
Soft-impute maps its low-rank matrix through each family's inverse mean
function; the hot deck, which has no model matrix, maps the imputed
observation matrix itself.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dataset import MixedDataset
from .errors import ColumnEmpty, InvalidInput, ShapeError
from .families import CategoryLayout, mean_from_natural, natural_from_mean
from .linalg import svt_factors
from .response_model import ResponseProbModel
from .solver import SolverConfig, fit_completion

__all__ = ["BaselineResult", "soft_impute", "hot_deck", "collective_unweighted"]


@dataclass(frozen=True)
class BaselineResult:
    method: str
    Y_imputed: np.ndarray
    Z_hat_natural: np.ndarray
    notes: dict


def _check_pair(Y, R):
    Y = np.asarray(Y, dtype=np.float64)
    R = np.asarray(R, dtype=bool)
    if Y.ndim != 2 or R.shape != Y.shape:
        raise ShapeError(f"Y and R must be matching 2-d arrays, got {Y.shape} and {R.shape}")
    if not np.isfinite(Y[R]).all():
        raise InvalidInput("observed entries must be finite")
    return Y, R


def soft_impute(Y, R, tau: float, max_iter: int = 200, tol: float = 1e-6,
                *, layout: CategoryLayout, clamp: float = 30.0) -> BaselineResult:
    """Iterate M <- svt(P_obs(Y) + P_miss(M), tau) to a fixed point.

    Majorization-minimization on 0.5 ||P_obs(Y - M)||_F^2 + tau ||M||_*, so
    the recorded objective trace is nonincreasing.  Stops when the relative
    change of M drops below tol.
    """
    Y, R = _check_pair(Y, R)
    if not (np.isfinite(tau) and tau >= 0):
        raise InvalidInput(f"tau must be finite and >= 0, got {tau}")
    Yf = np.where(R, Y, 0.0)
    M = np.zeros_like(Yf)
    trace = []
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        f = svt_factors(np.where(R, Yf, M), tau)
        M_new = f.reconstruct()
        trace.append(0.5 * float(np.sum(((Y - M_new)[R]) ** 2)) + tau * float(f.s.sum()))
        delta = np.linalg.norm(M_new - M) / max(np.linalg.norm(M), 1.0)
        M = M_new
        if delta <= tol:
            converged = True
            break
    Y_imputed = np.where(R, Y, M)
    return BaselineResult(
        method="soft_impute",
        Y_imputed=Y_imputed,
        Z_hat_natural=natural_from_mean(M, layout, clamp),
        notes={"iterations": it, "converged": converged,
               "objective_trace": np.asarray(trace)},
    )


def hot_deck(Y, R, strata, rng: np.random.Generator,
             *, layout: CategoryLayout, clamp: float = 30.0) -> BaselineResult:
    """Fill each missing entry with a uniformly drawn observed donor from the
    same column and stratum, falling back to the whole column when a
    (column, stratum) cell has no donor.

    Raises ColumnEmpty when a column has no observed entry in any stratum.
    """
    Y, R = _check_pair(Y, R)
    strata = np.asarray(strata, dtype=np.int64)
    if strata.shape[0] != Y.shape[0]:
        raise ShapeError("strata must have one label per row")
    Y_imputed = np.where(R, Y, np.nan)
    fallback_cells = 0
    for j in range(Y.shape[1]):
        col_pool = Y[R[:, j], j]
        if col_pool.size == 0:
            raise ColumnEmpty(f"column {j} has no observed entries")
        for h in np.unique(strata):
            in_h = strata == h
            need = in_h & ~R[:, j]
            k = int(np.count_nonzero(need))
            if k == 0:
                continue
            pool = Y[in_h & R[:, j], j]
            if pool.size == 0:
                pool = col_pool
                fallback_cells += 1
            Y_imputed[need, j] = pool[rng.integers(0, pool.size, size=k)]
    return BaselineResult(
        method="hot_deck",
        Y_imputed=Y_imputed,
        Z_hat_natural=natural_from_mean(Y_imputed, layout, clamp),
        notes={"fallback_cells": fallback_cells},
    )


def collective_unweighted(dataset: MixedDataset, tau: float, iterations: int = 200,
                          *, config: SolverConfig | None = None) -> BaselineResult:
    """Main solver with all weights switched off.

    Inclusion and response probabilities are set to one, the population size
    to the sample size, and the covariate augmentation is dropped, so the
    penalty is the plain nuclear norm of Z.
    """
    n, L = dataset.Y.shape
    flat = replace(dataset, pi=np.ones(n), population_size=float(n))
    probs = ResponseProbModel.constant(n, L, 1.0)
    cfg = config or SolverConfig(tau=tau, iterations=iterations)
    if cfg.tau != tau:
        cfg = replace(cfg, tau=tau)
    res = fit_completion(flat, probs, cfg, X=None)
    means = mean_from_natural(res.Z_hat, dataset.layout)
    return BaselineResult(
        method="collective_unweighted",
        Y_imputed=np.where(dataset.R, dataset.Y, means),
        Z_hat_natural=res.Z_hat,
        notes={"diagnostics": res.diagnostics,
               "objective_trace": res.objective_trace,
               "iterations_run": res.iterations_run},
    )
