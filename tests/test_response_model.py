"""Stage-one logistic fits: recovery of known coefficients, degenerate and
separated cells, and assembly of the clamped probability matrix."""

from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from scipy.special import expit, logit

import surveymc as smc
from surveymc.errors import InvalidInput, NumericalFailure, StratumTooSmall

from helpers import build_missingness_dataset, estimate_per_cell, irls_one_cell


def logistic_draw(beta, n, rng, scale=1.5):
    X = rng.normal(0.0, scale, size=(n, len(beta) - 1))
    F = np.column_stack([np.ones(n), X])
    y = (rng.random(n) < expit(F @ beta)).astype(float)
    return F, X, y


def one_stratum(X, *observed):
    """A one-stratum dataset with one response column per 0/1 vector in
    observed, each observed where its vector is 1."""
    R = np.column_stack(observed).astype(bool)
    n = R.shape[0]
    return smc.MixedDataset(Y=np.where(R, 0.0, np.nan), X=X,
                            strata=np.ones(n, dtype=np.int64), pi=np.full(n, 0.5),
                            layout=smc.CategoryLayout.of(("gaussian", R.shape[1])))


def test_fit_recovers_known_coefficients():
    rng = np.random.default_rng(0)
    beta = np.array([0.3, 0.8, -0.5])
    _, X, y = logistic_draw(beta, 50000, rng)
    model = smc.estimate_response_probs(one_stratum(X, y))
    assert not model.nonconverged_cells.size
    assert not model.fallback[0, 0] and not model.degenerate[0, 0]
    npt.assert_allclose(model.coefficients[0, 0], beta, atol=0.05)


def test_fit_matches_score_equation():
    # at the optimum the weighted score X^T (y - p) vanishes
    rng = np.random.default_rng(1)
    F, X, y = logistic_draw(np.array([-0.2, 0.6]), 500, rng)
    model = smc.estimate_response_probs(one_stratum(X, y))
    score = F.T @ (y - expit(F @ model.coefficients[0, 0]))
    assert np.max(np.abs(score)) < 1e-6


def test_degenerate_cells_get_clamped_intercept():
    X = np.linspace(-1, 1, 20)[:, None]
    model = smc.estimate_response_probs(one_stratum(X, np.ones(20), np.zeros(20)))
    assert model.degenerate_cells.tolist() == [[1, 0], [1, 1]]
    assert model.iterations[0].tolist() == [0, 0]
    up, down = model.coefficients[0]
    assert up[0] == pytest.approx(float(logit(1 - 1e-6)))
    assert up[1] == 0.0
    assert down[0] == pytest.approx(float(logit(1e-6)))
    assert down[1] == 0.0


def test_separated_data_falls_back_to_ridge():
    x = np.linspace(-2, 2, 40)
    model = smc.estimate_response_probs(one_stratum(x[:, None], x > 0))
    assert model.fallback_cells.tolist() == [[1, 0]]
    assert np.max(np.abs(model.coefficients[0, 0])) <= 30.0
    assert np.isfinite(model.coefficients[0, 0]).all()


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
    # one cell per (stratum, column), intercept first
    assert model.coefficients.shape == (H, L, D + 1)
    for cells in (model.iterations, model.degenerate, model.fallback):
        assert cells.shape == (H, L)


def test_cell_flags_list_cells_in_stratum_major_order():
    rng = np.random.default_rng(3)
    strata = np.repeat([1, 2], 60)
    X = rng.normal(size=(120, 2))
    ds, _ = build_missingness_dataset(rng.normal(0.3, 0.1, size=(2, 4, 3)), strata, X, rng)
    R, in1 = ds.R.copy(), strata == 1
    R[~in1, 0] = True               # all observed: degenerate
    R[in1, 3] = False               # all missing: degenerate
    R[in1, 1] = X[in1, 0] > 0       # separated: ridge fallback
    flagged = replace(ds, Y=np.where(R, np.nan_to_num(ds.Y, nan=1.0), np.nan))
    model = smc.estimate_response_probs(flagged)
    # (stratum, column) pairs
    assert model.degenerate_cells.tolist() == [[1, 3], [2, 0]]
    assert model.fallback_cells.tolist() == [[1, 1]]


def test_estimate_matches_per_cell_fit():
    # each stratum's cells are the fits of that stratum's rows alone
    rng = np.random.default_rng(4)
    strata = np.repeat([1, 2], 50)
    X = rng.normal(size=(100, 2))
    zeta = rng.normal(0.2, 0.3, size=(2, 3, 3))
    ds, _ = build_missingness_dataset(zeta, strata, X, rng)
    model = smc.estimate_response_probs(ds, p_floor=0.01)
    for h in (1, 2):
        rows = ds.strata == h
        alone = smc.estimate_response_probs(one_stratum(ds.X[rows], *ds.R[rows].T))
        npt.assert_allclose(model.coefficients[h - 1], alone.coefficients[0],
                            rtol=1e-12, atol=1e-12)


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
    ds_p = smc.MixedDataset(Y=ds.Y[perm], X=ds.X[perm],
                            strata=ds.strata[perm], pi=ds.pi[perm], layout=ds.layout)
    model_p = smc.estimate_response_probs(ds_p)
    npt.assert_allclose(model_p.p_hat, model.p_hat[perm], atol=1e-8)


def test_stratum_too_small():
    lay = smc.CategoryLayout.of(("gaussian", 1))
    n = 6
    Y = np.zeros((n, 1))
    ds = smc.MixedDataset(Y=Y, X=np.arange(n * 3, dtype=float).reshape(n, 3),
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


# ways to make every stratum's features rank-deficient, and the covariate
# count each needs
RANK_DEFICIENT = {"duplicated": 2, "scaled": 2, "summed": 3, "constant": 1}


@st.composite
def stage_one_datasets(draw, kinds):
    """Strata from one row over the minimum (D + 2) upward; response columns
    observed at random, by a logistic law, everywhere, nowhere, or split by a
    covariate (separated).  Unless full_rank, one covariate is another one
    (duplicated), 3 times another one (scaled), the sum of two others
    (summed), or constant within each stratum (constant); kinds names the
    choices."""
    covariates = draw(st.sampled_from(kinds))
    D = draw(st.integers(RANK_DEFICIENT.get(covariates, 0), 3))
    sizes = draw(st.lists(st.integers(D + 2, D + 30), min_size=1, max_size=3))
    n, L = sum(sizes), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = draw(st.sampled_from((0.1, 1.0, 5.0))) * rng.normal(size=(n, D))
    if covariates == "duplicated":
        X[:, 1] = X[:, 0]
    elif covariates == "scaled":
        X[:, 1] = 3.0 * X[:, 0]
    elif covariates == "summed":
        X[:, 2] = X[:, 0] + X[:, 1]
    elif covariates == "constant":
        X[:, D - 1] = np.repeat(rng.normal(size=len(sizes)), sizes)
    columns = []
    for _ in range(L):
        kind = draw(st.sampled_from(("random", "logistic", "all", "none", "separated")))
        if kind == "separated" and D >= 1:
            columns.append(X[:, 0] > np.median(X[:, 0]))
        elif kind == "logistic":
            eta = rng.normal() + X @ rng.normal(size=D)
            columns.append(rng.random(n) < expit(eta))
        else:
            columns.append({"all": np.ones(n, bool), "none": np.zeros(n, bool)}.get(
                kind, rng.random(n) < 0.5))
    R = np.column_stack(columns)
    return smc.MixedDataset(
        Y=np.where(R, 0.0, np.nan), X=X,
        strata=np.repeat(np.arange(1, len(sizes) + 1), sizes),
        pi=rng.uniform(0.05, 1.0, n), layout=smc.CategoryLayout.of(("gaussian", L)))


# a duplicated covariate's two columns sum the same terms, so their
# coefficients stay equal; the other rank-deficient kinds are checked below
@settings(max_examples=200, deadline=None)
@given(ds=stage_one_datasets(("full_rank", "duplicated")), design_weighted=st.booleans())
def test_batched_stage_one_matches_the_per_cell_oracle(ds, design_weighted):
    try:
        want = estimate_per_cell(ds, use_design_weights=design_weighted)
    except NumericalFailure:
        event("NumericalFailure")
        with pytest.raises(NumericalFailure):
            smc.estimate_response_probs(ds, use_design_weights=design_weighted)
        return
    model = smc.estimate_response_probs(ds, use_design_weights=design_weighted)
    for name in ("iterations", "degenerate", "fallback"):
        npt.assert_array_equal(getattr(model, name), getattr(want, name))
    scale = np.maximum(1.0, np.max(np.abs(want.coefficients), axis=2, keepdims=True))
    assert np.all(np.abs(model.coefficients - want.coefficients) <= 1e-10 * scale)
    for fallback, degenerate in zip(want.fallback.flat, want.degenerate.flat):
        event("fallback" if fallback else "degenerate" if degenerate else "plain")
    npt.assert_allclose(model.p_hat, want.p_hat, rtol=0, atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(ds=stage_one_datasets(tuple(RANK_DEFICIENT)), design_weighted=st.booleans())
def test_rank_deficient_strata_fit_every_cell_with_a_ridge(ds, design_weighted):
    # whether the plain fit's singular system fails to solve would be
    # round-off.  The 1e-4 ridge magnifies round-off in the gradient 1e4-fold
    # along the null space of the stratum's features, where the exact ridge
    # fit has no part: the fitted cells keep none
    try:
        want = estimate_per_cell(ds, use_design_weights=design_weighted)
    except NumericalFailure:
        event("NumericalFailure")
        with pytest.raises(NumericalFailure):
            smc.estimate_response_probs(ds, use_design_weights=design_weighted)
        return
    model = smc.estimate_response_probs(ds, use_design_weights=design_weighted)
    assert np.all(model.fallback != model.degenerate)
    for name in ("iterations", "degenerate", "fallback"):
        npt.assert_array_equal(getattr(model, name), getattr(want, name))
    scale = np.maximum(1.0, np.max(np.abs(want.coefficients), axis=2, keepdims=True))
    assert np.all(np.abs(model.coefficients - want.coefficients) <= 1e-10 * scale)
    for h in range(ds.n_strata):
        rows = ds.strata == h + 1
        F = np.column_stack([np.ones(rows.sum()), ds.X[rows]])
        null = np.linalg.svd(F)[2][np.linalg.matrix_rank(F):]
        fitted = ~model.degenerate[h]
        off = model.coefficients[h][fitted] @ null.T
        assert np.all(np.abs(off) <= 1e-13 * scale[h][fitted])
    npt.assert_allclose(model.p_hat, want.p_hat, rtol=0, atol=1e-12)


def test_a_cell_singular_in_its_own_solve_escalates_alone(monkeypatch):
    # every stacked solve raises, so each step retries cell by cell; the
    # second retry (cell 1's first step) raises too, so cell 1 alone fails
    # the plain fit and is refit at the 1e-4 ridge
    rng = np.random.default_rng(9)
    F, X, _ = logistic_draw(np.array([0.2, 0.5]), 80, rng)
    observed = [rng.random(80) < expit(F @ rng.normal(0.3, 0.3, 2)) for _ in range(3)]
    ds = one_stratum(X, *observed)
    want = estimate_per_cell(ds)
    ridge_fit, ridge_steps = irls_one_cell(F, observed[1].astype(float), np.ones(80), 1e-4)
    solve, retries = np.linalg.solve, []

    def failing_solve(H, rhs):
        if np.ndim(H) == 3:
            raise np.linalg.LinAlgError("Singular matrix")
        retries.append(rhs)
        if len(retries) == 2:
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(H, rhs)
    monkeypatch.setattr(np.linalg, "solve", failing_solve)
    model = smc.estimate_response_probs(ds)
    assert not want.fallback.any() and not want.degenerate.any()
    assert model.fallback[0].tolist() == [False, True, False]
    others = [0, 2]
    npt.assert_array_equal(model.iterations[0, others], want.iterations[0, others])
    scale = np.maximum(1.0, np.max(np.abs(want.coefficients[0]), axis=1, keepdims=True))
    diff = model.coefficients[0] - want.coefficients[0]
    assert np.all(np.abs(diff[others]) <= 1e-10 * scale[others])
    assert model.iterations[0, 1] == ridge_steps
    assert np.all(np.abs(model.coefficients[0, 1] - ridge_fit) <= 1e-10 * scale[1])
