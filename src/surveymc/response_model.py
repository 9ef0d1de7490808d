"""Stage one: response-probability estimation from missingness indicators.

For every (response column, stratum) cell a logistic model

    P(observed | x) = exp(eta) / (1 + exp(eta)),   eta = (1, x^T) zeta

is fit by iteratively reweighted least squares on the 0/1 response
indicators.  Ridge escalation (0 -> 1e-4 -> 1e-2) rescues separated or
singular cells; all-0 / all-1 cells get an intercept-only fit at a clamped
logit.  Fitted probabilities are floored away from zero so inverse weights
stay bounded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit, logit

from .dataset import MixedDataset
from .errors import InvalidInput, NumericalFailure, ShapeError, StratumTooSmall

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

    @classmethod
    def constant(cls, n: int, n_cols: int, value: float = 1.0) -> "ResponseProbModel":
        """Degenerate model with every probability equal to `value`.

        Used by the unweighted variant of the solver where p_hat is 1.
        """
        if not 0 < value <= 1:
            raise InvalidInput(f"constant probability must be in (0, 1], got {value}")
        return cls(fits={}, p_hat=np.full((n, n_cols), value), p_floor=value)


def _irls(features: np.ndarray, y: np.ndarray, row_weights: np.ndarray, ridge: float):
    """One IRLS run at a fixed ridge.

    Returns (beta, converged, iterations) or None when the run separated or
    hit a singular system and the caller should escalate the ridge.
    """
    p_dim = features.shape[1]
    beta = np.zeros(p_dim)
    for it in range(1, _MAX_ITER + 1):
        eta = features @ beta
        p = expit(eta)
        grad = features.T @ (row_weights * (y - p)) - ridge * beta
        if np.max(np.abs(grad)) <= _TOL:
            return beta, True, it - 1
        w = row_weights * np.clip(p * (1.0 - p), 1e-10, None)
        H = (features * w[:, None]).T @ features
        H[np.diag_indices(p_dim)] += ridge
        try:
            step = np.linalg.solve(H, grad)
        except np.linalg.LinAlgError:
            return None
        beta = beta + step
        if not np.isfinite(beta).all() or np.max(np.abs(beta)) > _SEPARATION_BOUND:
            return None
    return beta, False, _MAX_ITER


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

    mean = float(y.mean())
    if mean == 0.0 or mean == 1.0:
        coef = np.zeros(F.shape[1])
        coef[0] = logit(np.clip(mean, _DEGENERATE_EPS, 1.0 - _DEGENERATE_EPS))
        return LogisticFit(coef, converged=True, iterations=0,
                           separation_fallback=False, degenerate=True)

    for attempt, ridge in enumerate(_RIDGE_LADDER):
        out = _irls(F, y, rw, ridge)
        if out is not None:
            beta, converged, iterations = out
            return LogisticFit(beta, converged=converged, iterations=iterations,
                               separation_fallback=attempt > 0)
    raise NumericalFailure("IRLS failed even at the largest ridge")


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
    if not 0 < p_floor < 1:
        raise InvalidInput(f"p_floor must be in (0, 1), got {p_floor}")
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
        rw = 1.0 / dataset.pi[rows] if use_design_weights else None
        for j in range(L):
            fit = fit_logistic(features, dataset.R[rows, j].astype(np.float64),
                               row_weights=rw)
            fits[(*col_keys[j], h)] = fit
            p_hat[rows, j] = np.clip(expit(features @ fit.coefficients), p_floor, 1.0)

    return ResponseProbModel(fits=fits, p_hat=p_hat, p_floor=p_floor)
