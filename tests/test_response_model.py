"""Stage-one logistic fits: recovery of known coefficients, degenerate and
separated cells, and assembly of the clamped probability matrix."""

from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from scipy.special import expit, logit

import surveymc as smc
from surveymc.errors import InvalidInput, ShapeError, StratumTooSmall
from surveymc.response_model import fit_logistic, predict_p

from helpers import build_missingness_dataset


def logistic_draw(beta, n, rng, scale=1.5):
    X = rng.normal(0.0, scale, size=(n, len(beta) - 1))
    F = np.column_stack([np.ones(n), X])
    y = (rng.random(n) < expit(F @ beta)).astype(float)
    return F, X, y


def test_fit_recovers_known_coefficients():
    rng = np.random.default_rng(0)
    beta = np.array([0.3, 0.8, -0.5])
    F, _, y = logistic_draw(beta, 50000, rng)
    fit = fit_logistic(F, y)
    assert fit.converged
    assert not fit.separation_fallback
    npt.assert_allclose(fit.coefficients, beta, atol=0.05)


def test_fit_matches_score_equation():
    # at the optimum the weighted score X^T (y - p) vanishes
    rng = np.random.default_rng(1)
    F, _, y = logistic_draw(np.array([-0.2, 0.6]), 500, rng)
    fit = fit_logistic(F, y)
    score = F.T @ (y - expit(F @ fit.coefficients))
    assert np.max(np.abs(score)) < 1e-6


def test_degenerate_cells_get_clamped_intercept():
    F = np.column_stack([np.ones(20), np.linspace(-1, 1, 20)])
    up = fit_logistic(F, np.ones(20))
    assert up.degenerate
    assert up.coefficients[0] == pytest.approx(float(logit(1 - 1e-6)))
    assert up.coefficients[1] == 0.0
    down = fit_logistic(F, np.zeros(20))
    assert down.degenerate
    assert down.coefficients[0] == pytest.approx(float(logit(1e-6)))


def test_separated_data_falls_back_to_ridge():
    x = np.linspace(-2, 2, 40)
    F = np.column_stack([np.ones(40), x])
    y = (x > 0).astype(float)
    fit = fit_logistic(F, y)
    assert fit.separation_fallback
    assert np.max(np.abs(fit.coefficients)) <= 30.0
    assert np.isfinite(fit.coefficients).all()


def test_fit_validation():
    F = np.column_stack([np.ones(10), np.arange(10.0)])
    y = np.r_[np.zeros(5), np.ones(5)]
    with pytest.raises(InvalidInput):
        fit_logistic(F[:, ::-1], y)  # no leading ones column
    with pytest.raises(InvalidInput):
        fit_logistic(F, y + 0.5)
    with pytest.raises(ShapeError):
        fit_logistic(F, y[:5])
    with pytest.raises(StratumTooSmall):
        fit_logistic(F[:2], y[:2])
    with pytest.raises(InvalidInput):
        fit_logistic(F, y, row_weights=np.zeros(10))


def test_predict_p_oracle():
    rng = np.random.default_rng(2)
    beta = rng.normal(size=4)
    fit = smc.LogisticFit(coefficients=beta, converged=True, iterations=3,
                          separation_fallback=False)
    x = rng.normal(size=(6, 3))
    npt.assert_allclose(predict_p(fit, x), expit(beta[0] + x @ beta[1:]), rtol=1e-14)
    with pytest.raises(ShapeError):
        predict_p(fit, np.ones((2, 5)))




def test_estimate_response_probs_structure():
    rng = np.random.default_rng(3)
    H, L, D, n_h = 2, 4, 2, 60
    strata = np.repeat(np.arange(1, H + 1), n_h)
    X = rng.normal(size=(H * n_h, D))
    zeta = rng.normal(0.3, 0.1, size=(H, L, D + 1))
    ds, _ = build_missingness_dataset(zeta, strata, X, rng)
    model = smc.estimate_response_probs(ds, p_floor=0.05)
    assert model.p_hat.shape == ds.Y.shape
    assert np.all(model.p_hat >= 0.05) and np.all(model.p_hat <= 1.0)
    assert len(model.fits) == H * L
    # keys are (block, offset within block, stratum)
    assert (0, 0, 1) in model.fits and (0, L - 1, H) in model.fits


def test_cell_flags_list_cells_in_stratum_major_order():
    rng = np.random.default_rng(3)
    strata = np.repeat([1, 2], 60)
    X = rng.normal(size=(120, 2))
    ds, _ = build_missingness_dataset(rng.normal(0.3, 0.1, size=(2, 4, 3)), strata, X, rng)
    R, in1 = ds.R.copy(), strata == 1
    R[~in1, 0] = True               # all observed: degenerate
    R[in1, 3] = False               # all missing: degenerate
    R[in1, 1] = X[in1, 0] > 0       # separated: ridge fallback
    flagged = replace(ds, Y=np.where(R, np.nan_to_num(ds.Y, nan=1.0), np.nan), R=R)
    model = smc.estimate_response_probs(flagged)
    key = lambda j, h: (*ds.layout.block_of_col(j), h)
    assert model.degenerate_cells == (key(3, 1), key(0, 2))
    assert model.fallback_cells == (key(1, 1),)


def test_estimate_matches_per_cell_fit():
    rng = np.random.default_rng(4)
    strata = np.repeat([1, 2], 50)
    X = rng.normal(size=(100, 2))
    zeta = rng.normal(0.2, 0.3, size=(2, 3, 3))
    ds, _ = build_missingness_dataset(zeta, strata, X, rng)
    model = smc.estimate_response_probs(ds, p_floor=0.01)
    for h in (1, 2):
        rows = ds.strata == h
        F = np.column_stack([np.ones(rows.sum()), ds.X[rows]])
        for j in range(3):
            direct = fit_logistic(F, ds.R[rows, j].astype(float))
            s, jj = ds.layout.block_of_col(j)
            npt.assert_allclose(model.fits[(s, jj, h)].coefficients,
                                direct.coefficients, rtol=1e-12, atol=1e-12)


def test_estimate_recovers_probabilities():
    rng = np.random.default_rng(5)
    strata = np.repeat([1, 2], 1500)
    X = rng.normal(0.0, 1.5, size=(3000, 3))
    zeta = rng.normal(0.3, 0.1, size=(2, 5, 4))
    ds, true_p = build_missingness_dataset(zeta, strata, X, rng)
    model = smc.estimate_response_probs(ds)
    assert np.mean(np.abs(model.p_hat - true_p)) < 0.03


def test_permutation_invariance():
    rng = np.random.default_rng(6)
    strata = np.repeat([1, 2], 40)
    X = rng.normal(size=(80, 2))
    zeta = rng.normal(0.3, 0.2, size=(2, 3, 3))
    ds, _ = build_missingness_dataset(zeta, strata, X, rng)
    model = smc.estimate_response_probs(ds)

    perm = rng.permutation(80)
    ds_p = smc.MixedDataset(Y=ds.Y[perm], R=ds.R[perm], X=ds.X[perm],
                            strata=ds.strata[perm], pi=ds.pi[perm], layout=ds.layout)
    model_p = smc.estimate_response_probs(ds_p)
    npt.assert_allclose(model_p.p_hat, model.p_hat[perm], atol=1e-8)


def test_stratum_too_small():
    lay = smc.CategoryLayout.of(("gaussian", 1))
    n = 6
    Y = np.zeros((n, 1))
    ds = smc.MixedDataset(Y=Y, R=~np.isnan(Y), X=np.arange(n * 3, dtype=float).reshape(n, 3),
                          strata=np.array([1, 1, 1, 1, 1, 2]), pi=np.full(n, 0.5), layout=lay)
    with pytest.raises(StratumTooSmall):
        smc.estimate_response_probs(ds)


def test_design_weights_with_constant_pi_match_unweighted():
    rng = np.random.default_rng(7)
    strata = np.ones(120, dtype=np.int64)
    X = rng.normal(size=(120, 2))
    zeta = rng.normal(0.3, 0.2, size=(1, 3, 3))
    ds, _ = build_missingness_dataset(zeta, strata, X, rng)
    plain = smc.estimate_response_probs(ds)
    weighted = smc.estimate_response_probs(ds, use_design_weights=True)
    npt.assert_allclose(weighted.p_hat, plain.p_hat, atol=1e-6)


def test_constant_model():
    m = smc.ResponseProbModel.constant(4, 3, 1.0)
    assert m.p_hat.shape == (4, 3)
    assert np.all(m.p_hat == 1.0)
    with pytest.raises(InvalidInput):
        smc.ResponseProbModel.constant(4, 3, 0.0)


def test_p_floor_validated():
    rng = np.random.default_rng(8)
    strata = np.ones(30, dtype=np.int64)
    X = rng.normal(size=(30, 1))
    zeta = np.zeros((1, 2, 2))
    ds, _ = build_missingness_dataset(zeta, strata, X, rng)
    with pytest.raises(InvalidInput):
        smc.estimate_response_probs(ds, p_floor=0.0)
    with pytest.raises(InvalidInput):
        smc.estimate_response_probs(ds, p_floor=1.0)
