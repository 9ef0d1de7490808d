"""Stage two: weighted low-rank completion of the natural-parameter matrix.

The estimate minimizes

    (1/(N L)) sum_i (1/pi_i) sum_j (r_ij / p_ij) (-y_ij z_ij + g_j(z_ij))
        + tau * || [X, Z] ||_*

over Z, where g_j is the cumulant of column j's family, pi are inclusion
probabilities, and p_ij are fitted response probabilities.  The loop is an
accelerated proximal gradient method: momentum blend, gradient step, singular
value thresholding of the covariate-augmented matrix, and a descent guard
that only accepts a candidate when it lowers the objective, which makes the
recorded objective trace nonincreasing by construction (monotone FISTA, Beck
& Teboulle 2009).  With the automatic step size every step meets the
quadratic majorant, so a rejection restarts the momentum (O'Donoghue &
Candes 2015) and the next step is a plain prox-gradient step from the
iterate.  If that is rejected too and the next iteration would start from
the same step size, every later iteration repeats it: the loop stops at this
fixed point (diagnostics["stop"] is "fixed_point", else "cap") with the Z_hat
and objective the ``iterations`` cap would give, and the trace ends there.
A fixed step_size and ``as_printed`` need not descend: their momentum
extrapolates through rejected candidates and they run to the cap.

Two gradient-step modes are supported.  ``standard_prox`` (default) takes
T = Q - eta * grad with an automatic, backtracked step size; ``as_printed``
takes T = Q - (1/tau) * svt(grad, tau) verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dataset import MixedDataset
from .errors import ColumnEmpty, FoldError, InvalidInput, NumericalFailure, ShapeError
from .families import CategoryLayout, mean_from_natural
from .linalg import (SvdFactors, concat_cols, nuclear_norm, rank1_approx,
                     singular_values, svt, svt_factors)
from .response_model import ResponseProbModel

__all__ = [
    "SolverConfig",
    "CompletionResult",
    "TuneResult",
    "weighted_loss",
    "objective",
    "gradient",
    "fit_completion",
    "tune_tau",
    "grid_search",
    "DEFAULT_TAU_GRID",
]

# default tau grid for tuning: 2^-15 .. 2^-1, then 1 and 2
DEFAULT_TAU_GRID = tuple(2.0**k for k in range(-15, 0)) + (1.0, 2.0)

# sentinel: "use dataset.X" (None means no covariate augmentation)
_DATASET_X = object()

# step halvings allowed per iteration before the step size counts as collapsed
_MAX_BACKTRACKS = 60


@dataclass(frozen=True)
class SolverConfig:
    """Solver settings.

    step_size None means automatic: start from the inverse curvature bound
    and halve while the local quadratic majorization is violated.  An
    explicit positive step_size is used as given (no backtracking).
    iterations caps the loop, which stops earlier at a fixed point with the
    automatic step (see fit_completion).  The population size N is the
    dataset's (MixedDataset.resolve_population_size).
    """

    tau: float
    iterations: int = 200
    step_mode: str = "standard_prox"
    step_size: float | None = None
    clamp: float = 30.0

    def __post_init__(self):
        if not (np.isfinite(self.tau) and self.tau > 0):
            raise InvalidInput(f"tau must be positive, got {self.tau}")
        if self.iterations < 1:
            raise InvalidInput(f"iterations must be >= 1, got {self.iterations}")
        if self.step_mode not in ("standard_prox", "as_printed"):
            raise InvalidInput(f"unknown step_mode {self.step_mode!r}")
        if self.step_size is not None and not self.step_size > 0:
            raise InvalidInput(f"step_size must be positive, got {self.step_size}")
        if not self.clamp > 0:
            raise InvalidInput(f"clamp must be positive, got {self.clamp}")


@dataclass(frozen=True)
class CompletionResult:
    """Fitted natural-parameter matrix plus the per-iteration record."""

    Z_hat: np.ndarray
    objective_trace: np.ndarray
    accepted: np.ndarray
    iterations_run: int
    config: SolverConfig
    diagnostics: dict


@dataclass(frozen=True)
class TuneResult:
    best_tau: float
    taus: tuple[float, ...]
    scores: tuple[float, ...]


class _Problem:
    """Precomputed pieces shared by loss/gradient/objective evaluations."""

    def __init__(self, dataset: MixedDataset, probs: ResponseProbModel,
                 tau: float, clamp: float, X):
        p_hat = np.asarray(probs.p_hat, dtype=np.float64)
        if p_hat.shape != dataset.Y.shape:
            raise ShapeError(f"p_hat shape {p_hat.shape} differs from Y shape {dataset.Y.shape}")
        if np.any(p_hat <= 0) or np.any(p_hat > 1):
            raise InvalidInput("p_hat entries must lie in (0, 1]")
        self.layout = dataset.layout
        self.R = dataset.R
        self.Yf = np.where(dataset.R, np.nan_to_num(dataset.Y), 0.0)
        self.N = dataset.resolve_population_size()
        self.W = np.where(dataset.R, 1.0 / (self.N * dataset.n_responses
                                            * dataset.pi[:, None] * p_hat), 0.0)
        self.tau = tau
        self.clamp = clamp
        if X is _DATASET_X:
            X = dataset.X
        self.X = None if X is None else np.asarray(X, dtype=np.float64)
        self.D = 0 if X is None else self.X.shape[1]
        self.slices = self.layout.slices()
        self.boxes = [fam.domain_box(clamp) for fam, _ in self.slices]
        widths = [sl.stop - sl.start for _, sl in self.slices]
        self.lo, self.hi = (np.repeat(bound, widths) for bound in np.array(self.boxes).T)

    def project(self, Z: np.ndarray) -> tuple[np.ndarray, int]:
        """Clip entries into the per-family clamp box; count entries moved."""
        out = np.clip(Z, self.lo, self.hi)
        return out, int(np.count_nonzero(out != Z))

    def loss(self, Z: np.ndarray) -> float:
        total = 0.0
        for (fam, sl) in self.slices:
            zb = Z[:, sl]
            total += float(np.sum(self.W[:, sl] * (-self.Yf[:, sl] * zb + fam.g(zb))))
        return total

    def grad(self, Z: np.ndarray) -> np.ndarray:
        G = np.empty_like(Z)
        for (fam, sl) in self.slices:
            G[:, sl] = self.W[:, sl] * (fam.g_prime(Z[:, sl]) - self.Yf[:, sl])
        return G

    def penalty(self, Z: np.ndarray, factors: SvdFactors | None = None) -> float:
        """tau * ||[X, Z]||_*; given Z's factors from prox_step, the norm of
        R blockdiag(I_D, diag(s) V_k[D:]^T) with [X, U_k] = QR (or sum(s))."""
        if factors is None:
            M = Z if self.X is None else concat_cols(self.X, Z)
            return self.tau * nuclear_norm(M)
        if self.X is None:
            return self.tau * float(np.sum(factors.s))
        _, R = np.linalg.qr(np.hstack([self.X, factors.U]))
        tail = R[:, self.D:] @ (factors.s[:, None] * factors.V[self.D:].T)
        return self.tau * float(np.sum(singular_values(np.hstack([R[:, :self.D], tail]))))

    def objective(self, Z: np.ndarray) -> float:
        return self.loss(Z) + self.penalty(Z)

    def prox_step(self, T: np.ndarray, thresh: float) -> tuple:
        """Threshold [X, T], keep the response columns, project them into the
        clamp box.  thresh is eta * tau (standard_prox) or tau (as_printed).
        Returns the candidate, the entries moved and, if none, its factors."""
        f = svt_factors(T if self.X is None else concat_cols(self.X, T), thresh)
        cand, moved = self.project((f.U * f.s) @ f.V[self.D:].T)
        return cand, moved, (f if moved == 0 else None)

    def curvature_bound(self, beta: float) -> float:
        """Curvature scale for the automatic step size: the largest
        W_max * sup g'' over [-beta, beta] intersected with each domain.

        The exponential family's g'' blows up like 1/z^2 at the domain edge;
        iterates can only touch that edge transiently (the gradient repels
        them), so its block is scored on the interior [-beta, -1/beta] and
        edge visits are left to the backtracking line search.
        """
        bound = 0.0
        for (lo, hi), (fam, sl) in zip(self.boxes, self.slices):
            lo, hi = max(lo, -beta), min(hi, beta)
            if fam.kind == "exponential":
                hi = min(hi, -1.0 / max(beta, 1.0))
            w_max = float(self.W[:, sl].max())
            bound = max(bound, w_max * fam.curvature_sup(lo, hi))
        return bound


def weighted_loss(Z, dataset: MixedDataset, probs: ResponseProbModel) -> float:
    """Inverse-probability-weighted quasi-likelihood loss, normalized by N*L
    with N the dataset's population size."""
    Z = _check_Z(Z, dataset)
    return _Problem(dataset, probs, tau=1.0, clamp=np.inf, X=None).loss(Z)


def gradient(Z, dataset: MixedDataset, probs: ResponseProbModel) -> np.ndarray:
    """Entrywise gradient of weighted_loss; exactly zero at missing entries."""
    Z = _check_Z(Z, dataset)
    return _Problem(dataset, probs, tau=1.0, clamp=np.inf, X=None).grad(Z)


def objective(Z, dataset: MixedDataset, probs: ResponseProbModel,
              config: SolverConfig, X=_DATASET_X) -> float:
    """weighted_loss plus tau times the nuclear norm of [X, Z]."""
    Z = _check_Z(Z, dataset)
    return _Problem(dataset, probs, config.tau, config.clamp, X).objective(Z)


def _check_Z(Z, dataset: MixedDataset) -> np.ndarray:
    Z = np.asarray(Z, dtype=np.float64)
    if Z.shape != dataset.Y.shape:
        raise ShapeError(f"Z shape {Z.shape} differs from Y shape {dataset.Y.shape}")
    if not np.isfinite(Z).all():
        raise InvalidInput("Z contains non-finite entries")
    return Z


def fit_completion(dataset: MixedDataset, probs: ResponseProbModel,
                   config: SolverConfig, X=_DATASET_X) -> CompletionResult:
    """Run the descent-guarded accelerated proximal loop with momentum
    restart, until a fixed point or config.iterations (see the module notes).

    X defaults to the dataset covariates; pass X=None to drop the covariate
    augmentation (the penalty becomes the plain nuclear norm of Z).
    Raises ColumnEmpty when the dataset has no observed response, and
    NumericalFailure when the curvature bound gives the automatic step no
    finite positive size (an N so large that every weight is 0).
    """
    if not dataset.R.any():
        raise ColumnEmpty("dataset has no observed response to fit")
    prob = _Problem(dataset, probs, config.tau, config.clamp, X)

    Z1, n_proj = prob.project(rank1_approx(np.where(dataset.R, np.nan_to_num(dataset.Y), 0.0)))
    obj1 = prob.objective(Z1)
    if not np.isfinite(obj1):
        raise NumericalFailure(f"objective non-finite at initialization: {obj1}")

    trace = [obj1]
    accepted = []
    n_backtracks = n_restarts = 0
    eta = config.step_size
    ceiling = None
    if eta is None and config.step_mode == "standard_prox":
        beta0 = min(config.clamp, max(1.0, float(np.max(np.abs(Z1)))))
        bound = prob.curvature_bound(beta0)
        ceiling = eta = 1.0 / bound if bound > 0 else np.inf
        if not 0 < ceiling < np.inf:
            raise NumericalFailure(f"curvature bound {bound} leaves no finite step size")
    backtrack = config.step_size is None and config.step_mode == "standard_prox"

    Z2, j, stop = Z1, 0, "cap"  # j counts iterations since the last restart
    for k in range(1, config.iterations + 1):
        j += 1
        theta = 2.0 / (j + 1.0)
        Q, moved = prob.project((1.0 - theta) * Z1 + theta * Z2)
        n_proj += moved
        G = prob.grad(Q)

        if config.step_mode == "as_printed":
            T = Q - (1.0 / config.tau) * svt(G, config.tau)
            cand, moved, factors = prob.prox_step(T, config.tau)
            n_proj += moved
            cand_loss = prob.loss(cand)
        else:
            if backtrack:
                # recover from transient curvature spikes, never past the ceiling
                eta = min(ceiling, 2.0 * eta)
            eta_start = eta
            loss_Q = prob.loss(Q)
            tries = 0
            while True:
                cand, moved, factors = prob.prox_step(Q - eta * G, eta * config.tau)
                diff = cand - Q
                cand_loss = prob.loss(cand)
                majorant = (loss_Q + float(np.vdot(G, diff))
                            + float(np.vdot(diff, diff)) / (2.0 * eta))
                if not backtrack or cand_loss <= majorant + 1e-12 * max(1.0, abs(loss_Q)):
                    n_proj += moved
                    break
                if tries >= _MAX_BACKTRACKS:
                    raise NumericalFailure("step size collapsed during backtracking")
                eta *= 0.5
                tries += 1
            n_backtracks += tries

        cand_obj = cand_loss + prob.penalty(cand, factors)
        if not np.isfinite(cand_obj):
            err = NumericalFailure(f"objective non-finite at iteration {k}")
            err.trace = np.asarray(trace)
            raise err

        accepted.append(bool(cand_obj < obj1))
        # momentum extrapolates through the candidate whether or not accepted
        Z2 = Z1 + (cand - Z1) / theta
        if accepted[-1]:
            Z1, obj1 = cand, cand_obj
        trace.append(obj1)
        if backtrack and not accepted[-1]:
            # a rejected plain step (j = 1) that the next iteration would
            # start from the same step size recomputes: a fixed point
            if j == 1 and min(ceiling, 2.0 * eta) == eta_start:
                stop = "fixed_point"
                break
            # adaptive restart: drop the momentum, so the next step is plain
            n_restarts += j > 1
            Z2, j = Z1, 0

    final_concat = Z1 if prob.X is None else concat_cols(prob.X, Z1)
    svals = singular_values(final_concat)
    diagnostics = {
        "final_nuclear_norm": float(np.sum(svals)),
        "rank_estimate": int(np.count_nonzero(svals > 1e-8 * max(svals[0], 1e-300))),
        "domain_projections": n_proj,
        "backtracks": n_backtracks,
        "accepted_steps": int(np.count_nonzero(accepted)),
        "step_size_final": float(eta) if eta is not None else None,
        "restarts": n_restarts,
        "stop": stop,
        "population_size": prob.N,
    }
    return CompletionResult(Z_hat=Z1, objective_trace=np.asarray(trace),
                            accepted=np.asarray(accepted, dtype=bool),
                            iterations_run=len(accepted), config=config,
                            diagnostics=diagnostics)


def grid_search(grid, score) -> TuneResult:
    """Score every tau of the grid in ascending order and keep the best.

    score maps a tau to a number where lower is better; ties break toward
    the larger tau.  Raises InvalidInput unless the grid holds positive
    finite values.
    """
    taus = tuple(sorted(set(float(t) for t in grid)))
    if not taus or any(not (np.isfinite(t) and t > 0) for t in taus):
        raise InvalidInput("grid must contain positive finite tau values")
    scores = tuple(score(t) for t in taus)
    best_i = 0
    for i in range(1, len(taus)):
        if scores[i] <= scores[best_i]:
            best_i = i
    return TuneResult(best_tau=taus[best_i], taus=taus, scores=scores)


def tune_tau(dataset: MixedDataset, probs: ResponseProbModel, X=_DATASET_X,
             grid=DEFAULT_TAU_GRID, folds: int = 5, seed: int = 0,
             base_config: SolverConfig | None = None) -> TuneResult:
    """Pick tau from a grid by k-fold cross-validation.

    The observed entries are split into `folds` folds by a permutation drawn
    from `seed`.  Each tau is scored by the squared distance between the
    mean-scale imputations and the held-out observed responses, summed over
    the folds; ties break toward the larger tau (see grid_search).
    base_config supplies every solver setting except tau.
    """
    if folds < 2:
        raise InvalidInput(f"k-fold tuning needs folds >= 2, got {folds}")
    obs = np.argwhere(dataset.R)
    if obs.shape[0] < folds:
        raise FoldError(f"only {obs.shape[0]} observed entries for {folds} folds")
    order = np.random.default_rng(seed).permutation(obs.shape[0])
    held_out = []
    for fold in np.array_split(order, folds):  # none empty: obs >= folds
        rows, cols = obs[fold, 0], obs[fold, 1]
        keep = dataset.R.copy()
        keep[rows, cols] = False
        held_out.append((dataset.with_mask(keep), rows, cols, dataset.Y[rows, cols]))
    base = base_config or SolverConfig(tau=1.0)  # tau is set per grid point

    def score(t: float) -> float:
        total = 0.0
        for ds_f, rows, cols, held_y in held_out:
            res = fit_completion(ds_f, probs, replace(base, tau=t), X)
            imput = mean_from_natural(res.Z_hat, dataset.layout)[rows, cols]
            total += float(np.sum((imput - held_y) ** 2))
        return total

    return grid_search(grid, score)
