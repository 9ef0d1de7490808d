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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit, logit

from .dataset import MixedDataset
from .errors import (InvalidInput, NumericalFailure, ShapeError, StratumTooSmall,
                     check_int, check_real)

__all__ = ["LogisticFit", "ResponseProbModel", "fit_logistic", "predict_p", "estimate_response_probs"]

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
class LogisticFit:
    """Coefficients (intercept first) plus convergence diagnostics."""

    coefficients: np.ndarray
    converged: bool
    iterations: int
    separation_fallback: bool
    degenerate: bool = False


@dataclass(frozen=True)
class ResponseProbModel:
    """Per-cell logistic fits and the assembled n x L probability matrix.

    fits is keyed by (block index, column offset within block, stratum label)
    in stratum-major order.  p_hat entries always lie in [p_floor, 1].
    """

    fits: dict[tuple[int, int, int], LogisticFit]
    p_hat: np.ndarray
    p_floor: float

    @property
    def degenerate_cells(self) -> tuple[tuple[int, int, int], ...]:
        """Keys of the all-0 / all-1 cells, in the order of fits."""
        return tuple(key for key, fit in self.fits.items() if fit.degenerate)

    @property
    def fallback_cells(self) -> tuple[tuple[int, int, int], ...]:
        """Keys of the cells that needed a ridge, in the order of fits."""
        return tuple(key for key, fit in self.fits.items() if fit.separation_fallback)

    @property
    def nonconverged_cells(self) -> tuple[tuple[int, int, int], ...]:
        """Keys of the cells whose IRLS hit the iteration cap, in the order of fits."""
        return tuple(key for key, fit in self.fits.items() if not fit.converged)

    @classmethod
    def constant(cls, n: int, n_cols: int) -> "ResponseProbModel":
        """Degenerate model with every probability 1 (and p_floor 1): the
        unweighted variant of the solver."""
        check_int("n", n, 1)
        check_int("n_cols", n_cols, 1)
        return cls(fits={}, p_hat=np.ones((n, n_cols)), p_floor=1.0)


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


def _fit_cells(features: np.ndarray, Y: np.ndarray, row_weights: np.ndarray) -> list[LogisticFit]:
    """Fit the logistic cells of the columns of Y, which share features and
    row weights.  All-0 or all-1 columns get an intercept-only fit at the
    clamped logit of the empirical mean; the others run IRLS up the ridge
    ladder, a cell moving to the next ridge only when it failed at this one.
    """
    fits: list[LogisticFit | None] = [None] * Y.shape[1]
    means = Y.mean(axis=0)
    for j in np.flatnonzero((means == 0.0) | (means == 1.0)):
        coef = np.zeros(features.shape[1])
        coef[0] = logit(np.clip(means[j], _DEGENERATE_EPS, 1.0 - _DEGENERATE_EPS))
        fits[j] = LogisticFit(coef, converged=True, iterations=0,
                              separation_fallback=False, degenerate=True)
    todo = np.flatnonzero((means > 0.0) & (means < 1.0))
    for attempt, ridge in enumerate(_RIDGE_LADDER):
        if not todo.size:
            break
        betas, iterations, failed = _irls(features, Y[:, todo], row_weights, ridge)
        for k in np.flatnonzero(~failed):
            fits[todo[k]] = LogisticFit(betas[k], converged=bool(iterations[k] < _MAX_ITER),
                                        iterations=int(iterations[k]),
                                        separation_fallback=attempt > 0)
        todo = todo[failed]
    if todo.size:
        raise NumericalFailure("IRLS failed even at the largest ridge")
    return fits


def fit_logistic(features, indicators, *, row_weights=None) -> LogisticFit:
    """Fit one logistic cell by IRLS.

    features must carry a leading ones column; indicators are 0/1.  Optional
    row_weights turn the score into a weighted quasi-likelihood (used for the
    design-weighted variant).  All-0 or all-1 indicators yield an
    intercept-only fit at the clamped logit of the empirical mean.
    """
    F = np.asarray(features, dtype=np.float64)
    y = np.asarray(indicators, dtype=np.float64)
    if F.ndim != 2 or y.ndim != 1 or F.shape[0] != y.shape[0]:
        raise ShapeError(f"incompatible shapes {F.shape} vs {y.shape}")
    if F.shape[0] < F.shape[1] + 1:
        raise StratumTooSmall(f"{F.shape[0]} rows cannot identify {F.shape[1]} coefficients")
    if not np.isfinite(F).all():
        raise InvalidInput("features contain non-finite entries")
    if np.any((y != 0.0) & (y != 1.0)):
        raise InvalidInput("indicators must be 0 or 1")
    if not np.allclose(F[:, 0], 1.0):
        raise InvalidInput("features must have a leading ones column")
    if row_weights is None:
        rw = np.ones_like(y)
    else:
        rw = np.asarray(row_weights, dtype=np.float64)
        if rw.shape != y.shape or np.any(rw <= 0) or not np.isfinite(rw).all():
            raise InvalidInput("row_weights must be positive and finite per row")
    return _fit_cells(F, y[:, None], rw)[0]


def predict_p(fit: LogisticFit, x) -> np.ndarray:
    """Response probability for covariate row(s) x (without the ones column)."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != fit.coefficients.shape[0] - 1:
        raise ShapeError(f"expected {fit.coefficients.shape[0] - 1} covariates, got {x.shape[1]}")
    eta = fit.coefficients[0] + x @ fit.coefficients[1:]
    return expit(eta)


def estimate_response_probs(dataset: MixedDataset, *, p_floor: float = 0.01,
                            use_design_weights: bool = False) -> ResponseProbModel:
    """Fit every (column, stratum) cell and assemble the clamped p_hat matrix."""
    check_real("p_floor", p_floor, 0.0, 1.0)
    n, L = dataset.Y.shape
    D = dataset.n_covariates
    p_hat = np.empty((n, L))
    fits: dict[tuple[int, int, int], LogisticFit] = {}

    col_keys = [dataset.layout.block_of_col(j) for j in range(L)]
    for h in range(1, dataset.n_strata + 1):
        rows = np.flatnonzero(dataset.strata == h)
        if rows.size < D + 2:
            raise StratumTooSmall(f"stratum {h} has {rows.size} rows; need at least {D + 2}")
        features = np.column_stack([np.ones(rows.size), dataset.X[rows]])
        rw = 1.0 / dataset.pi[rows] if use_design_weights else np.ones(rows.size)
        cells = _fit_cells(features, dataset.R[rows].astype(np.float64), rw)
        for j, fit in enumerate(cells):
            fits[(*col_keys[j], h)] = fit
        coefs = np.array([fit.coefficients for fit in cells])
        p_hat[rows] = np.clip(expit(np.einsum("mp,lp->ml", features, coefs)), p_floor, 1.0)

    return ResponseProbModel(fits=fits, p_hat=p_hat, p_floor=p_floor)
