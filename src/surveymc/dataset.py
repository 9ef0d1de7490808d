"""Container for a mixed-type survey sample.

Rows are sampled elements; columns split into D >= 0 fully observed covariates
(X, n x D: the only covariates either stage uses) and L response columns
grouped by family.  A missing response is NaN in Y; the response indicator
R = ~isnan(Y) is derived from it, never passed in.  pi holds first-order
inclusion probabilities; strata labels are the contiguous integers 1..H
(integer-valued numbers of any dtype; a fractional label is an error).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvalidInput, ShapeError, WeightError, check_real, check_type, real_array
from .families import CategoryLayout

__all__ = ["MixedDataset"]


@dataclass(frozen=True)
class MixedDataset:
    Y: np.ndarray
    X: np.ndarray
    strata: np.ndarray
    pi: np.ndarray
    layout: CategoryLayout
    population_size: float | None = None
    # standardized gaussian response j -> (mean, scale): original = Y[:, j] * scale + mean
    standardization: dict[int, tuple[float, float]] | None = None
    R: np.ndarray = field(init=False, repr=False)  # ~isnan(Y)

    def __post_init__(self):
        check_type("layout", self.layout, CategoryLayout)
        Y = self.layout.matrix("Y", self.Y)
        X, labels, pi = (real_array(name, getattr(self, name), ndim)
                         for name, ndim in (("X", 2), ("strata", 1), ("pi", 1)))
        n = Y.shape[0]
        if n < 1:
            raise ShapeError(f"Y must be nonempty, got {Y.shape}")
        if X.shape[0] != n:
            raise ShapeError(f"X shape {X.shape} incompatible with n={n}")
        if labels.shape[0] != n or pi.shape[0] != n:
            raise ShapeError("strata and pi must have one entry per row")
        if not np.isfinite(X).all():
            raise InvalidInput("X contains non-finite entries")
        R = ~np.isnan(Y)
        if not np.isfinite(Y[R]).all():
            raise InvalidInput("observed Y entries must be finite")
        if not np.all((pi > 0) & (pi <= 1)):  # NaN fails it too
            raise WeightError("inclusion probabilities must lie in (0, 1]")
        # compared as floats before the cast, which would truncate a fraction
        uniq = np.unique(labels)
        if not np.array_equal(uniq, np.arange(1, uniq.size + 1)):
            raise InvalidInput("strata labels must be the contiguous integers 1..H")
        if self.population_size is not None:
            check_real("population_size", self.population_size, 0.0)
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "strata", labels.astype(np.int64))
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

        keep (nonzero: kept) must be a subset of the current R; used to hold out folds.
        """
        keep = real_array("mask", keep, 2) != 0
        if keep.shape != self.R.shape:
            raise ShapeError("mask shape differs from R")
        if np.any(keep & ~self.R):
            raise InvalidInput("mask keeps entries that were never observed")
        Y = self.Y.copy()
        Y[~keep] = np.nan
        return replace(self, Y=Y)
