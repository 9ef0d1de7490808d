"""Comparison methods: soft-impute, stratified hot deck, and the unweighted
variant of the main solver.

Soft-impute (Mazumder, Hastie & Tibshirani 2010) and the unweighted variant
are both the main solver with every weight switched off: inclusion and
response probabilities one, population size n, fit to a copy of the dataset
with no covariates (X is n x 0), so the penalty is the nuclear norm of Z.  The
unweighted variant keeps the dataset's families.  Soft-impute treats every
column as gaussian with sigma 1, so the solver's objective times n*L is
0.5 ||P_obs(Y - M)||_F^2 + n*L*tau ||M||_*, fit on the mean scale inside the
clamp box; it stops like the solver and obeys config.iterations.

Every baseline keeps observed entries exactly in Y_imputed and also reports a
natural-parameter matrix so all methods can be scored on a common scale.
Soft-impute maps its mean-scale matrix through each family's inverse mean
function; the hot deck, which has no model matrix, maps the imputed
observation matrix itself.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dataset import MixedDataset
from .errors import ColumnEmpty, check_real, check_type
from .families import DEFAULT_CLAMP, CategoryLayout, mean_from_natural, natural_from_mean
from .solver import SolverConfig, fit_completion

__all__ = ["BaselineResult", "soft_impute", "hot_deck", "collective_unweighted"]


@dataclass(frozen=True)
class BaselineResult:
    Y_imputed: np.ndarray
    Z_hat_natural: np.ndarray
    notes: dict


def _unweighted_fit(dataset: MixedDataset, tau: float, config: SolverConfig,
                    layout: CategoryLayout) -> tuple[np.ndarray, dict]:
    """fit_completion on a copy with no covariates, pi = 1, N = n and p_hat = 1,
    the columns read under `layout`; returns Z_hat and the notes of the fit."""
    n, L = dataset.Y.shape
    flat = replace(dataset, X=np.empty((n, 0)), pi=np.ones(n), population_size=float(n),
                   layout=layout)
    res = fit_completion(flat, np.ones((n, L)), tau, config)
    return res.Z_hat, {"diagnostics": res.diagnostics,
                       "objective_trace": res.objective_trace,
                       "iterations": res.iterations_run}


def soft_impute(dataset: MixedDataset, tau: float,
                config: SolverConfig = SolverConfig()) -> BaselineResult:
    """Soft-impute at lam = n*L*tau: the unweighted fit with every column
    gaussian (sigma 1), so Z_hat estimates the means directly."""
    check_type("dataset", dataset, MixedDataset)
    layout = CategoryLayout.of(("gaussian", dataset.n_responses))
    M, notes = _unweighted_fit(dataset, tau, config, layout)
    return BaselineResult(
        Y_imputed=np.where(dataset.R, dataset.Y, M),
        Z_hat_natural=natural_from_mean(M, dataset.layout, config.clamp),
        notes=notes,
    )


def hot_deck(dataset: MixedDataset, rng: np.random.Generator,
             *, clamp: float = DEFAULT_CLAMP) -> BaselineResult:
    """Fill each missing entry with a uniformly drawn observed donor from the
    same column and stratum, falling back to the whole column when a
    (column, stratum) cell has no donor.

    Raises ColumnEmpty when a column has no observed entry in any stratum.
    """
    check_type("dataset", dataset, MixedDataset)
    check_type("rng", rng, np.random.Generator)
    check_real("clamp", clamp, 0.0, inf_ok=True)
    Y, R, strata = dataset.Y, dataset.R, dataset.strata
    Y_imputed = Y.copy()  # missing entries are NaN until drawn
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
        Y_imputed=Y_imputed,
        Z_hat_natural=natural_from_mean(Y_imputed, dataset.layout, clamp),
        notes={"fallback_cells": fallback_cells},
    )


def collective_unweighted(dataset: MixedDataset, tau: float,
                          config: SolverConfig = SolverConfig()) -> BaselineResult:
    """Main solver at tau with all weights switched off and the dataset's
    families.  The penalty is the plain nuclear norm of Z."""
    check_type("dataset", dataset, MixedDataset)
    Z, notes = _unweighted_fit(dataset, tau, config, dataset.layout)
    means = mean_from_natural(Z, dataset.layout)
    return BaselineResult(
        Y_imputed=np.where(dataset.R, dataset.Y, means),
        Z_hat_natural=Z,
        notes=notes,
    )
