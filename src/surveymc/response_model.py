"""Stage one: response-probability estimation from missingness indicators.

For every (response column, stratum) cell a logistic model

    P(observed | x) = exp(eta) / (1 + exp(eta)),   eta = (1, x^T) zeta

is fit by iteratively reweighted least squares on the 0/1 response
indicators.  The cells of one stratum share their features, so their IRLS
runs are batched: one einsum gives every cell's Hessian and one stacked
solve every cell's step, while each cell keeps its own stopping rule and
ridge ladder.  Ridge escalation (0 -> 1e-4 -> 1e-2) rescues separated or
singular cells; all-0 / all-1 cells get an intercept-only fit at a clamped
logit, and a dataset without covariates fits intercepts only.  Fitted
probabilities are floored away from zero so inverse weights stay bounded.

The fits are kept as stratum x column arrays on ResponseProbModel: the
coefficients, the IRLS iteration counts, and the degenerate and
ridge-fallback flags of every cell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import MixedDataset
from .errors import NumericalFailure, StratumTooSmall, check_real, check_type
from .families import expit, logit

__all__ = ["ResponseProbModel", "estimate_response_probs", "DEFAULT_P_FLOOR"]

# default floor of the fitted response probabilities (stage one, benchmark, CLI)
DEFAULT_P_FLOOR = 0.01

# ridges tried in turn: the plain fit, then escalation when a cell is
# separated or singular
_RIDGE_LADDER = (0.0, 1e-4, 1e-2)

# IRLS iteration cap and sup-norm score tolerance
_MAX_ITER = 100
_TOL = 1e-8

# coefficient sup-norm beyond which we declare separation
_SEPARATION_BOUND = 30.0

# clamp for the empirical mean in degenerate all-0 / all-1 cells
_DEGENERATE_EPS = 1e-6


@dataclass(frozen=True)
class ResponseProbModel:
    """Per-cell logistic fits and the assembled n x L probability matrix.

    The cell arrays are stratum x column: row h-1 holds stratum h, so
    coefficients[h-1, j] (intercept first) is the fit of cell (h, j).
    iterations counts IRLS steps (0 for a degenerate cell, _MAX_ITER for
    one stopped at the cap); degenerate marks all-0 / all-1 cells and
    fallback the cells that needed a ridge.  p_hat entries always lie in
    [p_floor, 1], p_floor the argument of estimate_response_probs.
    """

    coefficients: np.ndarray
    iterations: np.ndarray
    degenerate: np.ndarray
    fallback: np.ndarray
    p_hat: np.ndarray

    @property
    def degenerate_cells(self) -> np.ndarray:
        """(stratum, column) pairs of the all-0 / all-1 cells, stratum-major."""
        return _cells(self.degenerate)

    @property
    def fallback_cells(self) -> np.ndarray:
        """(stratum, column) pairs of the cells that needed a ridge, stratum-major."""
        return _cells(self.fallback)

    @property
    def nonconverged_cells(self) -> np.ndarray:
        """(stratum, column) pairs of the cells whose IRLS hit the iteration
        cap, stratum-major."""
        return _cells(self.iterations >= _MAX_ITER)


def _cells(mask: np.ndarray) -> np.ndarray:
    """(stratum label, column) of each set entry of a stratum x column mask."""
    return np.argwhere(mask) + (1, 0)


@np.errstate(over="ignore", invalid="ignore")  # overflow shows as a non-finite beta
def _irls(features: np.ndarray, Y: np.ndarray, row_weights: np.ndarray, ridge: float):
    """IRLS at a fixed ridge for every column of Y at once (the cells share
    features and row weights), each column run by the per-cell rule.

    Returns (betas, iterations, failed) per column.  A column stops at the
    first iterate whose score is within _TOL, so it converged iff its
    iterations are below _MAX_ITER; a failed column separated, overflowed
    or hit a singular system, and the caller should escalate its ridge.
    The sums are einsum's, not BLAS's, so the result does not depend on
    the BLAS thread count.
    """
    p_dim = features.shape[1]
    L = Y.shape[1]
    betas = np.zeros((L, p_dim))
    failed = np.zeros(L, dtype=bool)
    iterations = np.full(L, _MAX_ITER)
    active = np.arange(L)
    diag = np.arange(p_dim)
    for it in range(1, _MAX_ITER + 1):
        beta = betas[active]
        p = expit(np.einsum("mp,lp->ml", features, beta))
        grad = (np.einsum("mp,ml->lp", features, row_weights[:, None] * (Y[:, active] - p))
                - ridge * beta)
        done = np.max(np.abs(grad), axis=1) <= _TOL
        iterations[active[done]] = it - 1
        active, beta, p, grad = active[~done], beta[~done], p[:, ~done], grad[~done]
        if not active.size:
            break
        w = row_weights[:, None] * np.clip(p * (1.0 - p), 1e-10, None)
        H = np.einsum("mp,ml,mq->lpq", features, w, features)
        H[:, diag, diag] += ridge
        beta = beta + _solve_each(H, grad)
        bad = ~np.isfinite(beta).all(axis=1) | (np.max(np.abs(beta), axis=1) > _SEPARATION_BOUND)
        failed[active[bad]] = True
        active = active[~bad]
        betas[active] = beta[~bad]
    return betas, iterations, failed


def _solve_each(H: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve each system H[l] x = rhs[l]; a singular one gives NaN."""
    try:
        return np.linalg.solve(H, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:  # find which systems are singular
        out = np.full_like(rhs, np.nan)
        for k in range(len(H)):
            try:
                out[k] = np.linalg.solve(H[k], rhs[k])
            except np.linalg.LinAlgError:
                pass
        return out


def _fit_cells(features: np.ndarray, Y: np.ndarray, row_weights: np.ndarray):
    """Fit the logistic cells of the columns of Y, which share features and
    row weights; return per column (coefficients, iterations, degenerate,
    fallback).

    All-0 or all-1 columns get an intercept-only fit at the clamped logit of
    the empirical mean; the others run IRLS up the ridge ladder, a cell
    moving to the next ridge only when it failed at this one.  Rank-deficient
    features skip the plain fit, whose singular system fails only by round-off,
    and their ridge fits are projected onto the features' row space, where the
    exact ridge solution lies: off it, IRLS keeps only round-off times 1/ridge.
    """
    L = Y.shape[1]
    coefficients = np.zeros((L, features.shape[1]))
    iterations = np.zeros(L, dtype=np.int64)
    fallback = np.zeros(L, dtype=bool)
    means = Y.mean(axis=0)
    degenerate = (means == 0.0) | (means == 1.0)
    coefficients[degenerate, 0] = logit(np.clip(means[degenerate], _DEGENERATE_EPS,
                                                1.0 - _DEGENERATE_EPS))
    todo = np.flatnonzero(~degenerate)
    _, s, Vt = np.linalg.svd(features, full_matrices=False)
    row_space = Vt[s > s[0] * max(features.shape) * np.finfo(float).eps]  # matrix_rank's tolerance
    full_rank = len(row_space) == features.shape[1]
    for ridge in _RIDGE_LADDER if full_rank else _RIDGE_LADDER[1:]:
        if not todo.size:
            break
        betas, steps, failed = _irls(features, Y[:, todo], row_weights, ridge)
        done = todo[~failed]
        coefficients[done] = betas[~failed]
        iterations[done] = steps[~failed]
        fallback[done] = ridge > 0
        todo = todo[failed]
    if todo.size:
        raise NumericalFailure("IRLS failed even at the largest ridge")
    if not full_rank:
        coefficients[~degenerate] = coefficients[~degenerate] @ row_space.T @ row_space
    return coefficients, iterations, degenerate, fallback


def estimate_response_probs(dataset: MixedDataset, *, p_floor: float = DEFAULT_P_FLOOR,
                            use_design_weights: bool = False) -> ResponseProbModel:
    """Fit every (column, stratum) cell and assemble the clamped p_hat matrix."""
    check_type("dataset", dataset, MixedDataset)
    check_real("p_floor", p_floor, 0.0, 1.0)
    n, L = dataset.Y.shape
    H, D = dataset.n_strata, dataset.n_covariates
    coefficients = np.empty((H, L, D + 1))
    iterations = np.empty((H, L), dtype=np.int64)
    degenerate = np.empty((H, L), dtype=bool)
    fallback = np.empty((H, L), dtype=bool)
    p_hat = np.empty((n, L))

    for h in range(1, H + 1):
        rows = np.flatnonzero(dataset.strata == h)
        if rows.size < D + 2:
            raise StratumTooSmall(f"stratum {h} has {rows.size} rows; need at least {D + 2}")
        features = np.column_stack([np.ones(rows.size), dataset.X[rows]])
        rw = 1.0 / dataset.pi[rows] if use_design_weights else np.ones(rows.size)
        (coefficients[h - 1], iterations[h - 1], degenerate[h - 1],
         fallback[h - 1]) = _fit_cells(features, dataset.R[rows].astype(np.float64), rw)
        p_hat[rows] = np.clip(expit(np.einsum("mp,lp->ml", features, coefficients[h - 1])),
                              p_floor, 1.0)

    return ResponseProbModel(coefficients=coefficients, iterations=iterations,
                             degenerate=degenerate, fallback=fallback, p_hat=p_hat)
