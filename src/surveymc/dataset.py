"""Container for a mixed-type survey sample.

Rows are sampled elements; columns split into D fully observed covariates and
L response columns grouped by family.  Missing responses are NaN in Y with a
matching 0 in the response indicator R.  pi holds first-order inclusion
probabilities; strata labels are the contiguous integers 1..H.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvalidInput, ShapeError, WeightError
from .families import CategoryLayout

__all__ = ["MixedDataset", "Standardization"]


@dataclass(frozen=True)
class Standardization:
    """Per-column affine transform records: col -> (mean, scale).

    Stored values are on the standardized scale; original = std * scale + mean.
    """

    covariate: dict[int, tuple[float, float]] = field(default_factory=dict)
    response: dict[int, tuple[float, float]] = field(default_factory=dict)


@dataclass(frozen=True)
class MixedDataset:
    Y: np.ndarray
    R: np.ndarray
    X: np.ndarray
    strata: np.ndarray
    pi: np.ndarray
    layout: CategoryLayout
    population_size: float | None = None
    standardization: Standardization | None = None

    def __post_init__(self):
        Y = np.asarray(self.Y, dtype=np.float64)
        R = np.asarray(self.R, dtype=bool)
        X = np.asarray(self.X, dtype=np.float64)
        strata = np.asarray(self.strata, dtype=np.int64)
        pi = np.asarray(self.pi, dtype=np.float64)
        for name, arr, ndim in (("Y", Y, 2), ("R", R, 2), ("X", X, 2), ("strata", strata, 1), ("pi", pi, 1)):
            if arr.ndim != ndim:
                raise ShapeError(f"{name} must be {ndim}-dimensional, got {arr.ndim}")
        n, L = Y.shape
        if n < 1 or L < 1:
            raise ShapeError(f"Y must be nonempty, got {Y.shape}")
        if R.shape != (n, L):
            raise ShapeError(f"R shape {R.shape} differs from Y shape {Y.shape}")
        if X.shape[0] != n or X.shape[1] < 1:
            raise ShapeError(f"X shape {X.shape} incompatible with n={n}")
        if strata.shape[0] != n or pi.shape[0] != n:
            raise ShapeError("strata and pi must have one entry per row")
        if L != self.layout.n_cols:
            raise ShapeError(f"layout covers {self.layout.n_cols} columns, Y has {L}")
        if not np.isfinite(X).all():
            raise InvalidInput("X contains non-finite entries")
        if np.any(R != ~np.isnan(Y)):
            raise InvalidInput("R must equal the non-NaN indicator of Y exactly")
        if not np.isfinite(Y[R]).all():
            raise InvalidInput("observed Y entries must be finite")
        if not np.isfinite(pi).all() or np.any(pi <= 0) or np.any(pi > 1):
            raise WeightError("inclusion probabilities must lie in (0, 1]")
        labels = np.unique(strata)
        if labels[0] != 1 or labels[-1] != labels.size:
            raise InvalidInput("strata labels must be the contiguous integers 1..H")
        if self.population_size is not None and not (np.isfinite(self.population_size)
                                                     and self.population_size > 0):
            raise InvalidInput(f"population_size must be positive and finite, "
                               f"got {self.population_size}")
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "strata", strata)
        object.__setattr__(self, "pi", pi)

    # -- basic shape accessors -------------------------------------------

    @property
    def n(self) -> int:
        return self.Y.shape[0]

    @property
    def n_responses(self) -> int:
        return self.Y.shape[1]

    @property
    def n_covariates(self) -> int:
        return self.X.shape[1]

    @property
    def n_strata(self) -> int:
        return int(self.strata.max())

    # -- derived quantities ------------------------------------------------

    def ht_population_size(self) -> float:
        """Horvitz-Thompson population size estimate: sum of 1/pi."""
        return float(np.sum(1.0 / self.pi))

    def resolve_population_size(self) -> float:
        """The stored population size N, else the HT estimate."""
        if self.population_size is not None:
            return float(self.population_size)
        return self.ht_population_size()

    def with_mask(self, keep: np.ndarray) -> "MixedDataset":
        """Copy with response entries outside `keep` re-marked as missing.

        keep must be a subset of the current R; used to hold out folds.
        """
        keep = np.asarray(keep, dtype=bool)
        if keep.shape != self.R.shape:
            raise ShapeError("mask shape differs from R")
        if np.any(keep & ~self.R):
            raise InvalidInput("mask keeps entries that were never observed")
        Y = self.Y.copy()
        Y[~keep] = np.nan
        return replace(self, Y=Y, R=keep)
