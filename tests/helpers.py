"""Shared test utilities.

The loss oracle here is an independent reimplementation of the weighted
quasi-likelihood in 80-bit extended precision, used to validate the package's
float64 loss and gradient by central finite differences.  The slow dense
per-block loss and gradient and the per-cell IRLS loop are the references
for the package's observed-entry kernel and batched stage one.
"""

import numpy as np
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import expit, logit

import surveymc as smc
from surveymc.errors import NumericalFailure

LD = np.longdouble


def mixed_layout(sigma: float = 1.0) -> smc.CategoryLayout:
    """Small layout touching all four families."""
    return smc.CategoryLayout.of(
        ("gaussian", 3), ("poisson", 3), ("bernoulli", 3), ("exponential", 3),
        sigma=sigma)


@st.composite
def nan_masks(draw, shape):
    """A boolean mask of `shape` (where Y gets NaN) whose columns are each
    all True, all False or drawn entry by entry."""
    n, L = shape
    column = st.one_of(st.just(np.ones(n, bool)), st.just(np.zeros(n, bool)), arrays(bool, n))
    return np.column_stack([draw(column) for _ in range(L)])


def draw_natural(layout, rng, n):
    """In-domain natural parameters; exponential blocks stay negative."""
    Z = rng.uniform(-2.0, 2.0, (n, layout.n_cols))
    for fam, sl in layout.slices():
        if fam.kind == "exponential":
            Z[:, sl] = rng.uniform(-2.0, -0.5, (n, sl.stop - sl.start))
    return Z


def sample_responses(layout, Z, rng):
    Y = np.empty_like(Z)
    for fam, sl in layout.slices():
        Y[:, sl] = fam.sample(Z[:, sl], rng)
    return Y


def random_problem(rng, n=20, layout=None, miss=0.3, pi_lo=0.05, p_lo=0.2):
    """Dataset plus a synthetic response-probability matrix p_hat for loss tests."""
    layout = layout or mixed_layout()
    L = layout.n_cols
    Z = draw_natural(layout, rng, n)
    Y = sample_responses(layout, Z, rng)
    R = rng.random((n, L)) >= miss
    R[0] = True  # keep every column nonempty
    ds = smc.MixedDataset(
        Y=np.where(R, Y, np.nan), X=rng.uniform(size=(n, 2)),
        strata=np.ones(n, dtype=np.int64), pi=rng.uniform(pi_lo, 1.0, n),
        layout=layout)
    return ds, rng.uniform(p_lo, 1.0, (n, L)), Z


# a three-block layout and a 72-row design small enough for a whole benchmark run
TINY = smc.CategoryLayout.of(("gaussian", 4), ("poisson", 4), ("bernoulli", 4))


def tiny_spec():
    return smc.PopulationSpec(n_strata=3, m1=3, m2=8, layout=TINY, xi=0.3,
                              n_covariates=2)


def g_ld(kind, z, sigma=1.0):
    """Cumulant functions written directly in extended precision."""
    z = np.asarray(z, dtype=LD)
    if kind == "bernoulli":
        # stable piecewise log(1 + e^z)
        return np.where(z > 0, z + np.log1p(np.exp(-np.abs(z))),
                        np.log1p(np.exp(-np.abs(z))))
    if kind == "poisson":
        return np.exp(z)
    if kind == "gaussian":
        return LD(sigma) ** 2 * z * z / 2
    return -np.log(-z)


def loss_oracle(Z, Y, R, pi, p_hat, layout, N):
    """Extended-precision weighted loss, one block at a time."""
    Zl = np.asarray(Z, dtype=LD)
    Yl = np.where(R, np.nan_to_num(np.asarray(Y)), 0.0).astype(LD)
    W = np.where(R, 1.0 / (np.asarray(pi)[:, None].astype(LD)
                           * np.asarray(p_hat).astype(LD)), LD(0.0))
    total = LD(0.0)
    for fam, sl in layout.slices():
        zb = Zl[:, sl]
        term = -Yl[:, sl] * zb + np.where(R[:, sl], g_ld(fam.kind, zb, fam.sigma), LD(0.0))
        total += np.sum(W[:, sl] * term)
    return total / (LD(N) * LD(layout.n_cols))


def fd_gradient(Z, Y, R, pi, p_hat, layout, N, h=1e-6):
    """Central finite differences of the oracle loss, entry by entry."""
    Z = np.asarray(Z, dtype=np.float64)
    G = np.zeros_like(Z)
    for i in range(Z.shape[0]):
        for j in range(Z.shape[1]):
            Zp = Z.copy()
            Zp[i, j] += h
            Zm = Z.copy()
            Zm[i, j] -= h
            up = loss_oracle(Zp, Y, R, pi, p_hat, layout, N)
            dn = loss_oracle(Zm, Y, R, pi, p_hat, layout, N)
            G[i, j] = float((up - dn) / (2 * LD(h)))
    return G


def build_missingness_dataset(zeta, strata, X, rng):
    """Dataset whose R follows the per (column, stratum) logistic law."""
    from scipy.special import expit

    n = X.shape[0]
    H, L, _ = zeta.shape
    eta = np.empty((n, L))
    for h in range(1, H + 1):
        rows = strata == h
        F = np.column_stack([np.ones(rows.sum()), X[rows]])
        eta[rows] = F @ zeta[h - 1].T
    R = rng.random((n, L)) < expit(eta)
    R[:, R.sum(axis=0) == 0] = True  # keep columns nonempty
    Y = np.where(R, 0.0, np.nan)
    return smc.MixedDataset(Y=Y, X=X, strata=strata,
                            pi=np.full(n, 0.5),
                            layout=smc.CategoryLayout.of(("gaussian", L))), expit(eta)


def trace_is_monotone(result) -> bool:
    """Exact nonincrease, plus strict decrease exactly on accepted steps."""
    t = result.objective_trace
    if np.any(np.diff(t) > 0):
        return False
    for k, acc in enumerate(result.accepted, start=1):
        if acc and not t[k] < t[k - 1]:
            return False
        if not acc and t[k] != t[k - 1]:
            return False
    return True


def soft_impute_mm(Y, R, lam, tol=1e-12, max_iter=200_000):
    """Slow reference soft-impute (Mazumder, Hastie & Tibshirani 2010):
    M <- svt(P_obs(Y) + P_miss(M), lam) from M = 0, a majorization-
    minimization step of soft_impute_objective, until the relative change
    of M is at most tol."""
    Yf = np.where(R, Y, 0.0)
    M = np.zeros_like(Yf)
    for _ in range(max_iter):
        U, s, Vt = np.linalg.svd(np.where(R, Yf, M), full_matrices=False)
        M_new = (U * np.maximum(s - lam, 0.0)) @ Vt
        delta = np.linalg.norm(M_new - M) / max(np.linalg.norm(M), 1.0)
        M = M_new
        if delta <= tol:
            break
    return M


def soft_impute_objective(M, Y, R, lam):
    """0.5 ||P_obs(Y - M)||_F^2 + lam ||M||_*."""
    return (0.5 * float(np.sum((Y - M)[R] ** 2))
            + lam * float(np.linalg.svd(M, compute_uv=False).sum()))


def dense_loss_and_grad(Z, dataset, p_hat):
    """Weighted loss and gradient over every entry of each family block,
    with W = 0 where unobserved: the slow reference for the solver's
    observed-entry kernel.  Also returns the scales of their round-off:
    the sum of the loss terms' magnitudes and W (|g'| + |y|) per entry."""
    Z = np.asarray(Z, dtype=np.float64)
    N = dataset.resolve_population_size()
    W = np.where(dataset.R, 1.0 / (N * dataset.n_responses * dataset.pi[:, None]
                                   * p_hat), 0.0)
    Yf = np.where(dataset.R, np.nan_to_num(dataset.Y), 0.0)
    total, loss_scale = 0.0, 0.0
    G, grad_scale = np.empty_like(Z), np.empty_like(Z)
    for fam, sl in dataset.layout.slices():
        zb, wb, yb = Z[:, sl], W[:, sl], Yf[:, sl]
        g, g_prime = fam.g(zb), fam.g_prime(zb)
        total += float(np.sum(wb * (-yb * zb + g)))
        loss_scale += float(np.sum(wb * (np.abs(yb * zb) + np.abs(g))))
        G[:, sl] = wb * (g_prime - yb)
        grad_scale[:, sl] = wb * (np.abs(g_prime) + np.abs(yb))
    return total, G, loss_scale, grad_scale


# the per-cell IRLS rules: ridge ladder, iteration cap, score tolerance,
# separation bound and degenerate clamp
RIDGE_LADDER = (0.0, 1e-4, 1e-2)
IRLS_MAX_ITER = 100
IRLS_TOL = 1e-8
SEPARATION_BOUND = 30.0
DEGENERATE_EPS = 1e-6


def irls_one_cell(F, y, rw, ridge):
    """One cell's IRLS at a fixed ridge: (beta, iterations), iterations being
    IRLS_MAX_ITER when the cap stopped it, or None when it separated,
    overflowed or hit a singular system."""
    beta = np.zeros(F.shape[1])
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, IRLS_MAX_ITER + 1):
            p = expit(F @ beta)
            grad = F.T @ (rw * (y - p)) - ridge * beta
            if np.max(np.abs(grad)) <= IRLS_TOL:
                return beta, it - 1
            w = rw * np.clip(p * (1.0 - p), 1e-10, None)
            H = (F * w[:, None]).T @ F
            H[np.diag_indices(F.shape[1])] += ridge
            try:
                step = np.linalg.solve(H, grad)
            except np.linalg.LinAlgError:
                return None
            beta = beta + step
            if not np.isfinite(beta).all() or np.max(np.abs(beta)) > SEPARATION_BOUND:
                return None
    return beta, IRLS_MAX_ITER


def fit_one_cell(F, y, rw):
    """The per-cell stage-one fit, one cell at a time: (coefficients,
    iterations, degenerate, fallback).  Rank-deficient features skip the
    plain fit, start at the first nonzero ridge and keep the fit's
    projection onto the row space of F (of matrix_rank's rank)."""
    mean = float(y.mean())
    if mean == 0.0 or mean == 1.0:
        coef = np.zeros(F.shape[1])
        coef[0] = logit(np.clip(mean, DEGENERATE_EPS, 1.0 - DEGENERATE_EPS))
        return coef, 0, True, False
    _, s, Vt = np.linalg.svd(F, full_matrices=False)
    V = Vt[s > s[0] * max(F.shape) * np.finfo(float).eps]
    full_rank = len(V) == F.shape[1]
    for ridge in RIDGE_LADDER if full_rank else RIDGE_LADDER[1:]:
        out = irls_one_cell(F, y, rw, ridge)
        if out is not None:
            beta, iterations = out
            return (beta if full_rank else beta @ V.T @ V), iterations, False, ridge > 0
    raise NumericalFailure("IRLS failed even at the largest ridge")


def estimate_per_cell(dataset, p_floor=0.01, use_design_weights=False):
    """The ResponseProbModel of estimate_response_probs, fit one cell at a time."""
    (n, L), H = dataset.Y.shape, dataset.n_strata
    coefficients = np.empty((H, L, dataset.n_covariates + 1))
    iterations = np.empty((H, L), dtype=np.int64)
    degenerate, fallback = np.empty((H, L), dtype=bool), np.empty((H, L), dtype=bool)
    p_hat = np.empty((n, L))
    for h in range(1, H + 1):
        rows = np.flatnonzero(dataset.strata == h)
        F = np.column_stack([np.ones(rows.size), dataset.X[rows]])
        rw = 1.0 / dataset.pi[rows] if use_design_weights else np.ones(rows.size)
        for j in range(L):
            cell = fit_one_cell(F, dataset.R[rows, j].astype(np.float64), rw)
            (coefficients[h - 1, j], iterations[h - 1, j],
             degenerate[h - 1, j], fallback[h - 1, j]) = cell
            p_hat[rows, j] = np.clip(expit(F @ cell[0]), p_floor, 1.0)
    return smc.ResponseProbModel(coefficients=coefficients, iterations=iterations,
                                 degenerate=degenerate, fallback=fallback,
                                 p_hat=p_hat, p_floor=p_floor)
