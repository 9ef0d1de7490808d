"""Dense matrix kernels: thin SVD, rank-1 approximation, singular value
thresholding, singular values and the nuclear norm.

All operations take and return plain float64 ndarrays.  Inputs are validated
once at the boundary; numerically suspect results raise
:class:`~surveymc.errors.NumericalFailure` rather than propagating NaNs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, NumericalFailure, check_real, real_array

__all__ = [
    "SvdFactors",
    "as_matrix",
    "svd_thin",
    "rank1_approx",
    "svt",
    "svt_factors",
    "singular_values",
    "nuclear_norm",
]


@dataclass(frozen=True)
class SvdFactors:
    """Thin singular value decomposition M = U @ diag(s) @ V.T.

    U is rows x r, s is length r nonincreasing and nonnegative, V is cols x r;
    r is min(rows, cols) from svd_thin and the retained rank from svt_factors.
    """

    U: np.ndarray
    s: np.ndarray
    V: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.U * self.s) @ self.V.T


def as_matrix(M, name: str = "matrix") -> np.ndarray:
    """Validate and return M as a finite 2-d float64 array.

    Raises InvalidInput for entries that are not real numbers, wrong
    dimensionality, empty axes, or non-finite entries.
    """
    A = real_array(name, M, 2)
    if A.shape[0] < 1 or A.shape[1] < 1:
        raise InvalidInput(f"{name} must have at least one row and column, got {A.shape}")
    if not np.isfinite(A).all():
        raise InvalidInput(f"{name} contains non-finite entries")
    return A


def _svd(A: np.ndarray, **kwargs):
    """np.linalg.svd(A, **kwargs), its LinAlgError a NumericalFailure."""
    try:
        return np.linalg.svd(A, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"SVD did not converge: {exc}") from exc


def svd_thin(M) -> SvdFactors:
    """Thin SVD with singular values sorted nonincreasing.

    Deterministic for a fixed input on a fixed platform (LAPACK backend).
    Raises NumericalFailure if the backend does not converge.
    """
    U, s, Vt = _svd(as_matrix(M), full_matrices=False)
    return SvdFactors(U=U, s=s, V=Vt.T)


def rank1_approx(M) -> np.ndarray:
    """Best rank-1 approximation sigma_1 * u_1 v_1^T (Frobenius-optimal)."""
    f = svd_thin(M)
    return f.s[0] * np.outer(f.U[:, 0], f.V[:, 0])


def svt_factors(M, tau: float) -> SvdFactors:
    """Factors (U_k, s_k - tau, V_k) of the k >= 0 singular triplets of M
    above tau, whose product is svt(M, tau).  If tau >= c ||M||_F (c = 1e-3)
    they come from the SVD of B^T B = W diag(s^2) W^T (ROADMAP item 5 weighs
    eigh), B = M or M^T whichever is tall (m x n), and
    B W / s.  That SVD is exact for B^T B + E, ||E|| <= (m + p(n)) u ||M||_F^2
    (u = 2^-53), so the result moves by O(||E|| / tau) <= O((m + p(n)) u / c)
    ||M||_F, about 1e-10 ||M||_F at m = 10^3.  Below the guard, e.g. tau = 0,
    svd_thin of M gives them.  Raises InvalidInput or NumericalFailure."""
    check_real("tau", tau, 0.0, low_ok=True)
    A = as_matrix(M)
    # below c ||M||_F: no Gram path; einsum, not a BLAS dot, sums the squares
    if tau < 1e-3 * np.sqrt(np.einsum("ij,ij->", A, A)):
        f = svd_thin(A)
        k = int(np.count_nonzero(f.s > tau))
        return SvdFactors(U=f.U[:, :k], s=f.s[:k] - tau, V=f.V[:, :k])
    wide = A.shape[0] < A.shape[1]
    B = A.T if wide else A
    _, lam, Wt = _svd(B.T @ B)
    s = np.sqrt(lam)
    k = int(np.count_nonzero(s > tau))
    W = Wt[:k].T
    P = (B @ W) / s[:k]
    U, V = (W, P) if wide else (P, W)
    return SvdFactors(U=U, s=s[:k] - tau, V=V)


def svt(M, tau: float) -> np.ndarray:
    """Singular value thresholding: U diag((s - tau)_+) V^T.

    This is the proximal operator of tau * nuclear norm.  tau = 0 returns M
    up to SVD round-off; tau >= s_1 returns the zero matrix.
    """
    return svt_factors(M, tau).reconstruct()


def singular_values(M) -> np.ndarray:
    """Singular values, nonincreasing, without forming the factors."""
    return _svd(as_matrix(M), compute_uv=False)


def nuclear_norm(M) -> float:
    """Sum of singular values, without forming the factors."""
    return float(np.sum(singular_values(M)))

