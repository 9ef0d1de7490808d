"""Stage two: weighted low-rank completion of the natural-parameter matrix.

The estimate at penalty weight tau, each fit's argument, minimizes

    (1/(N L)) sum_i (1/pi_i) sum_j (r_ij / p_ij) (-y_ij z_ij + g_j(z_ij))
        + tau * || [X, Z] ||_*

over Z, where g_j is the cumulant of column j's family, pi are inclusion
probabilities, p_ij are entries of the p_hat argument, and X is the dataset's
n x D covariate matrix, its only source.  D may be 0: the penalty is then the
nuclear norm of Z, which is what the unweighted baselines fit.  The loop is an
accelerated proximal gradient method: momentum blend, gradient step, singular
value thresholding of the covariate-augmented matrix, and a descent guard
that only accepts a candidate when it lowers the objective, which makes the
recorded objective trace nonincreasing by construction (monotone FISTA, Beck
& Teboulle 2009).  The step size is automatic: it starts from the inverse
curvature bound and is halved until the quadratic majorant holds, which
makes a plain step a descent step only at D = 0: at D > 0, putting X back
after thresholding [X, T] is not the exact prox, and such a step can raise
the objective (by 1.4e-11 at D = 3); the guard then rejects it.  A
rejection restarts the momentum (O'Donoghue & Candes 2015); the next step
is then a plain prox-gradient step from the iterate.  If that is rejected too and the
next iteration would start from the same step size, every later iteration
repeats it: the loop stops at this fixed point (diagnostics["stop"] is
"fixed_point", else "cap") with the Z_hat and objective the ``iterations``
cap would give, and the trace ends there.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .dataset import MixedDataset
from .errors import (ColumnEmpty, FoldError, InvalidInput, NumericalFailure, ShapeError,
                     check_int, check_real, check_type, real_array)
from .families import DEFAULT_CLAMP, mean_from_natural
from .linalg import SvdFactors, as_matrix, rank1_approx, singular_values, svt_factors
from .linalg import svt  # noqa: F401  unused here; bench/tests reads solver.svt

__all__ = ["SolverConfig", "CompletionResult", "TuneResult", "weighted_loss",
           "objective", "gradient", "fit_completion", "tune_tau", "grid_search",
           "DEFAULT_TAU_GRID"]

# default tau grid for tuning: 2^-15 .. 2^-1, then 1 and 2
DEFAULT_TAU_GRID = tuple(2.0**k for k in range(-15, 0)) + (1.0, 2.0)

# step halvings allowed per iteration before the step size counts as collapsed
_MAX_BACKTRACKS = 60


@dataclass(frozen=True)
class SolverConfig:
    """Settings shared by every fit of a tuning path, whose tau is each fit's
    argument: the iteration cap (the loop stops earlier at a fixed point, see
    fit_completion) and the clamp box half-width.  The step size is automatic
    and backtracked; N is the dataset's (MixedDataset.resolve_population_size).
    """

    iterations: int = 200
    clamp: float = DEFAULT_CLAMP

    def __post_init__(self):
        check_int("iterations", self.iterations, 1)
        check_real("clamp", self.clamp, 0.0, inf_ok=True)


@dataclass(frozen=True)
class CompletionResult:
    """Fitted natural-parameter matrix plus the per-iteration record."""

    Z_hat: np.ndarray
    objective_trace: np.ndarray
    accepted: np.ndarray
    iterations_run: int
    diagnostics: dict


@dataclass(frozen=True)
class TuneResult:
    best_tau: float
    taus: tuple[float, ...]
    scores: tuple[float, ...]


class _Problem:
    """Precomputed pieces shared by loss/gradient/objective evaluations.

    The loss only sees the observed entries (W is 0 elsewhere), so each
    family block keeps the flat indices (row-major into an n x L matrix),
    weights and responses of its observed entries.
    """

    def __init__(self, dataset: MixedDataset, p_hat, clamp: float):
        check_type("dataset", dataset, MixedDataset)
        p_hat = real_array("p_hat", p_hat, 2)
        if p_hat.shape != dataset.Y.shape:
            raise ShapeError(f"p_hat shape {p_hat.shape} differs from Y shape {dataset.Y.shape}")
        if not np.all((p_hat > 0) & (p_hat <= 1)):  # NaN fails it too
            raise InvalidInput("p_hat entries must lie in (0, 1]")
        self.Yf = np.nan_to_num(dataset.Y)
        self.N = dataset.resolve_population_size()
        with np.errstate(divide="ignore", over="ignore"):
            W = np.where(dataset.R, 1.0 / (self.N * dataset.n_responses
                                           * dataset.pi[:, None] * p_hat), 0.0)
        if not np.isfinite(W).all():
            raise NumericalFailure(f"population size N={self.N} makes a response "
                                   f"weight 1/(N L pi p_hat) overflow")
        self.X = dataset.X
        self.D = self.X.shape[1]
        slices = dataset.layout.slices()
        flat = np.flatnonzero(dataset.R)
        cols = flat % dataset.n_responses
        self.observed = []  # (family, flat indices, weights, responses) per block
        for fam, sl in slices:
            idx = flat[(cols >= sl.start) & (cols < sl.stop)]
            self.observed.append((fam, idx, W.take(idx), self.Yf.take(idx)))
        boxes = [fam.domain_box(clamp) for fam, _ in slices]
        widths = [sl.stop - sl.start for _, sl in slices]
        self.lo, self.hi = (np.repeat(bound, widths) for bound in np.array(boxes).T)

    def project(self, Z: np.ndarray) -> tuple[np.ndarray, int]:
        """Clip entries into the per-family clamp box; count entries moved."""
        out = np.clip(Z, self.lo, self.hi)
        return out, int(np.count_nonzero(out != Z))

    def loss(self, Z: np.ndarray) -> float:
        """The weighted loss: sum of w (g(z) - y z) over the observed entries."""
        total = 0.0
        for fam, idx, w, y in self.observed:
            z = Z.take(idx)
            total += float(np.sum(w * (fam.g(z) - y * z)))
        return total

    def value_and_grad(self, Z: np.ndarray) -> tuple[float, np.ndarray]:
        """loss(Z), bitwise, and its gradient w (g'(z) - y), which is 0 off
        the observed entries; g and g' come from one exponential per entry."""
        total = 0.0
        G = np.zeros(Z.size)
        for fam, idx, w, y in self.observed:
            z = Z.take(idx)
            g, g_prime = fam.g_and_g_prime(z)
            total += float(np.sum(w * (g - y * z)))
            G[idx] = w * (g_prime - y)
        return total, G.reshape(Z.shape)

    def spectrum(self, Z: np.ndarray, factors: SvdFactors | None = None) -> np.ndarray:
        """Singular values of [X, Z]; given Z's factors from prox_step, those of
        R blockdiag(I_D, diag(s) V_k[D:]^T) with [X, U_k] = QR (s itself if D = 0)."""
        if factors is None:
            return singular_values(np.hstack([self.X, Z]))
        if self.D == 0:
            return factors.s
        R = np.linalg.qr(np.hstack([self.X, factors.U]), mode="r")
        tail = R[:, self.D:] @ (factors.s[:, None] * factors.V[self.D:].T)
        return singular_values(np.hstack([R[:, :self.D], tail]))

    def objective(self, Z: np.ndarray, tau: float, loss=None, factors=None) -> tuple:
        """(loss + tau ||[X, Z]||_*, the spectrum that priced it); loss defaults to loss(Z)."""
        svals = self.spectrum(Z, factors)
        return (self.loss(Z) if loss is None else loss) + tau * float(np.sum(svals)), svals

    def prox_step(self, T: np.ndarray, thresh: float) -> tuple:
        """Threshold [X, T], keep the response columns, project them into the
        clamp box at threshold thresh (the step size times tau).
        Returns the candidate, the entries moved and, if none, its factors."""
        f = svt_factors(np.hstack([self.X, T]), thresh)
        cand, moved = self.project((f.U * f.s) @ f.V[self.D:].T)
        return cand, moved, (f if moved == 0 else None)

    def curvature_bound(self, beta: float) -> float:
        """Curvature scale for the automatic step size: the largest
        W_max * sup g'' over [-beta, beta] within each block's domain
        (Family.curvature_sup); beta is at most the clamp half-width."""
        return max(0.0, *(float(w.max(initial=0.0)) * fam.curvature_sup(beta)
                          for fam, _, w, _ in self.observed))


def weighted_loss(Z, dataset: MixedDataset, p_hat) -> float:
    """Inverse-probability-weighted quasi-likelihood loss, normalized by N*L
    with N the dataset's population size.  Raises NumericalFailure when a
    term overflows float64."""
    prob, Z = _problem_at(Z, dataset, p_hat)
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite("loss", prob.loss(Z))


def gradient(Z, dataset: MixedDataset, p_hat) -> np.ndarray:
    """Entrywise gradient of weighted_loss; exactly zero at missing entries.
    Raises NumericalFailure when an entry overflows float64."""
    prob, Z = _problem_at(Z, dataset, p_hat)
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite("gradient", prob.value_and_grad(Z)[1])


def objective(Z, dataset: MixedDataset, p_hat, tau: float) -> float:
    """weighted_loss plus tau times the nuclear norm of [dataset.X, Z].
    Raises NumericalFailure when a term overflows float64."""
    check_real("tau", tau, 0.0)
    prob, Z = _problem_at(Z, dataset, p_hat)
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite("objective", prob.objective(Z, tau)[0])


def _problem_at(Z, dataset: MixedDataset, p_hat) -> tuple[_Problem, np.ndarray]:
    prob, Z = _Problem(dataset, p_hat, np.inf), as_matrix(Z, "Z")  # no clamp box
    if Z.shape != dataset.Y.shape:
        raise ShapeError(f"Z shape {Z.shape} differs from Y shape {dataset.Y.shape}")
    return prob, Z


def _finite(what: str, value):
    if not np.isfinite(value).all():
        raise NumericalFailure(f"{what} is not finite: a term overflows float64")
    return value


@np.errstate(over="ignore", invalid="ignore")  # overflow is handled, see the docstring
def fit_completion(dataset: MixedDataset, p_hat, tau: float,
                   config: SolverConfig = SolverConfig()) -> CompletionResult:
    """Fit at tau: run the descent-guarded accelerated proximal loop with
    momentum restart, until a fixed point or config.iterations (module notes).
    p_hat is any n x L array in (0, 1]: stage one's ResponseProbModel.p_hat,
    the true response probabilities, or ones for an unweighted fit.

    The penalty augments Z with dataset.X (n x D, D >= 0).  A trial step that
    overflows float64 is halved.  Raises ColumnEmpty when the dataset has no
    observed response, and NumericalFailure when the objective is not finite,
    when the curvature bound gives the automatic step no finite positive size
    (an N so large that every weight is 0) or when a weight overflows (an N
    so small that N*L*pi*p_hat underflows).
    """
    check_real("tau", tau, 0.0)
    check_type("config", config, SolverConfig)
    check_type("dataset", dataset, MixedDataset)
    if not dataset.R.any():
        raise ColumnEmpty("dataset has no observed response to fit")
    prob = _Problem(dataset, p_hat, config.clamp)

    Z1, n_proj = prob.project(rank1_approx(prob.Yf))
    obj1, svals1 = prob.objective(Z1, tau)
    if not np.isfinite(obj1):
        raise NumericalFailure(f"objective non-finite at initialization: {obj1}")

    trace = [obj1]
    accepted = []
    n_backtracks = n_restarts = 0
    beta0 = min(config.clamp, max(1.0, float(np.max(np.abs(Z1)))))
    bound = prob.curvature_bound(beta0)
    ceiling = eta = 1.0 / bound if bound > 0 else np.inf
    if not 0 < ceiling < np.inf:
        raise NumericalFailure(f"curvature bound {bound} leaves no finite step size")

    Z2, j, stop = Z1, 0, "cap"  # j counts iterations since the last restart
    for k in range(1, config.iterations + 1):
        j += 1
        theta = 2.0 / (j + 1.0)
        Q, moved = prob.project((1.0 - theta) * Z1 + theta * Z2)
        n_proj += moved
        loss_Q, G = prob.value_and_grad(Q)
        # recover from transient curvature spikes, never past the ceiling
        eta = eta_start = min(ceiling, 2.0 * eta)
        for tries in range(_MAX_BACKTRACKS + 1):
            T = Q - eta * G
            if np.isfinite(T).all():  # else the step is too long for float64
                cand, moved, factors = prob.prox_step(T, eta * tau)
                diff = cand - Q
                cand_loss = prob.loss(cand)
                # einsum, not a BLAS dot: its sum does not depend on the thread count
                majorant = (loss_Q + float(np.einsum("ij,ij->", G, diff))
                            + float(np.einsum("ij,ij->", diff, diff)) / (2.0 * eta))
                # NaN fails this test, so a candidate that overflowed is halved
                if cand_loss <= majorant + 1e-12 * max(1.0, abs(loss_Q)):
                    break
            eta *= 0.5
        else:
            raise NumericalFailure("step size collapsed during backtracking")
        n_backtracks += tries
        n_proj += moved

        cand_obj, cand_svals = prob.objective(cand, tau, cand_loss, factors)
        if not np.isfinite(cand_obj):
            raise NumericalFailure(f"objective non-finite at iteration {k}")

        accepted.append(bool(cand_obj < obj1))
        trace.append(cand_obj if accepted[-1] else obj1)
        if accepted[-1]:
            Z2 = Z1 + (cand - Z1) / theta
            Z1, obj1, svals1 = cand, cand_obj, cand_svals
        elif j == 1 and min(ceiling, 2.0 * eta) == eta_start:
            # a rejected plain step that the next iteration would start from
            # the same step size recomputes: a fixed point
            stop = "fixed_point"
            break
        else:
            # adaptive restart: drop the momentum, so the next step is plain
            n_restarts += j > 1
            Z2, j = Z1, 0

    diagnostics = {  # of Z_hat, from the spectrum that priced it
        "final_nuclear_norm": float(np.sum(svals1)),
        "rank_estimate": int(np.count_nonzero(svals1 > 1e-8 * svals1.max(initial=1e-300))),
        "domain_projections": n_proj,
        "backtracks": n_backtracks,
        "accepted_steps": int(np.count_nonzero(accepted)),
        "step_size_final": float(eta),
        "restarts": n_restarts,
        "stop": stop,
        "population_size": prob.N,
    }
    return CompletionResult(Z_hat=Z1, objective_trace=np.asarray(trace),
                            accepted=np.asarray(accepted, dtype=bool),
                            iterations_run=len(accepted), diagnostics=diagnostics)


def grid_search(grid, score) -> TuneResult:
    """Score every tau of the grid in ascending order and keep the best.

    score maps a tau to a number where lower is better; ties break toward
    the larger tau.  Raises InvalidInput unless the grid holds positive
    finite real numbers (a bool or a string is not one) and score is callable.
    """
    grid = tuple(grid) if np.iterable(grid) else ()
    if not grid:
        raise InvalidInput("grid must contain positive finite tau values")
    for t in grid:
        check_real("grid tau", t, 0.0)
    check_type("score", score, Callable)
    taus = tuple(sorted(set(float(t) for t in grid)))
    scores = tuple(score(t) for t in taus)
    best_i = 0
    for i in range(1, len(taus)):
        if scores[i] <= scores[best_i]:
            best_i = i
    return TuneResult(best_tau=taus[best_i], taus=taus, scores=scores)


def tune_tau(dataset: MixedDataset, p_hat, grid=DEFAULT_TAU_GRID, folds: int = 5,
             seed: int = 0, config: SolverConfig = SolverConfig()) -> TuneResult:
    """Pick tau from a grid by k-fold cross-validation.

    The observed entries are split into `folds` folds by a permutation drawn
    from `seed`.  Each tau is scored by the squared distance between the
    mean-scale imputations and the held-out observed responses, summed over
    the folds; ties break toward the larger tau (see grid_search).  Every fit
    takes its grid tau and the settings of config.
    """
    check_type("dataset", dataset, MixedDataset)
    p_hat = real_array("p_hat", p_hat, 2)
    check_type("config", config, SolverConfig)
    check_int("folds", folds, 2)
    check_int("seed", seed, 0)
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

    def score(t: float) -> float:
        total = 0.0
        for ds_f, rows, cols, held_y in held_out:
            res = fit_completion(ds_f, p_hat, t, config)
            imput = mean_from_natural(res.Z_hat, dataset.layout)[rows, cols]
            total += float(np.sum((imput - held_y) ** 2))
        return total

    return grid_search(grid, score)
