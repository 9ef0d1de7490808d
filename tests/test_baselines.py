"""Comparison methods: fixed points, donor bookkeeping, and the exact
equivalence of the unweighted variant with a flattened solver run."""

from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

import helpers
import surveymc as smc
from surveymc.baselines import collective_unweighted, hot_deck, soft_impute
from surveymc.errors import ColumnEmpty, InvalidInput, ShapeError


def masked_lowrank(rng, n=30, L=8, rank=1, miss=0.4):
    M = np.outer(rng.normal(size=n), rng.normal(size=L))
    for _ in range(rank - 1):
        M += np.outer(rng.normal(size=n), rng.normal(size=L))
    R = rng.random((n, L)) >= miss
    R[0] = True
    return np.where(R, M, np.nan), R, M


def test_soft_impute_identity_when_fully_observed():
    rng = np.random.default_rng(0)
    lay = smc.CategoryLayout.of(("gaussian", 5))
    Y = rng.normal(size=(12, 5))
    out = soft_impute(Y, np.ones_like(Y, dtype=bool), tau=0.0, layout=lay)
    npt.assert_allclose(out.Y_imputed, Y, atol=1e-10)
    assert out.notes["converged"]


def test_soft_impute_recovers_masked_rank1():
    # miss=0.25 keeps >=4 observations per row at this seed; sparser rows
    # make the minimum-nuclear-norm completion diverge from the truth
    rng = np.random.default_rng(3)
    Y, R, M = masked_lowrank(rng, miss=0.25)
    assert R.sum(axis=1).min() >= 3
    lay = smc.CategoryLayout.of(("gaussian", 8))
    out = soft_impute(Y, R, tau=0.05, max_iter=2000, tol=1e-12, layout=lay)
    assert out.notes["converged"]
    filled = np.where(R, Y, out.Y_imputed)
    assert np.linalg.norm(filled - M) / np.linalg.norm(M) < 1e-2
    # observed entries pass through untouched
    npt.assert_array_equal(out.Y_imputed[R], Y[R])


def test_soft_impute_trace_monotone():
    rng = np.random.default_rng(2)
    Y, R, _ = masked_lowrank(rng, rank=3)
    lay = smc.CategoryLayout.of(("gaussian", 8))
    out = soft_impute(Y, R, tau=0.5, layout=lay)
    t = out.notes["objective_trace"]
    assert np.all(np.diff(t) <= 1e-9 * np.maximum(1.0, np.abs(t[:-1])))


def test_soft_impute_huge_tau_gives_zero_matrix():
    rng = np.random.default_rng(3)
    Y, R, _ = masked_lowrank(rng)
    lay = smc.CategoryLayout.of(("gaussian", 8))
    out = soft_impute(Y, R, tau=1e6, layout=lay)
    assert np.all(out.Y_imputed[~R] == 0.0)
    npt.assert_array_equal(out.Y_imputed[R], Y[R])


def test_soft_impute_maps_through_inverse_mean():
    rng = np.random.default_rng(4)
    lay = smc.CategoryLayout.of(("poisson", 4))
    Z = rng.uniform(0.1, 1.0, (15, 4))
    Y = np.exp(Z)  # exact means, fully observed
    out = soft_impute(Y, np.ones_like(Y, dtype=bool), tau=0.0, layout=lay)
    npt.assert_allclose(out.Z_hat_natural, Z, atol=1e-8)


def test_soft_impute_validation():
    lay = smc.CategoryLayout.of(("gaussian", 2))
    Y = np.ones((3, 2))
    with pytest.raises(InvalidInput):
        soft_impute(Y, np.ones_like(Y, dtype=bool), tau=-1.0, layout=lay)
    with pytest.raises(ShapeError):
        soft_impute(Y, np.ones((2, 2), dtype=bool), tau=0.1, layout=lay)


def test_hot_deck_draws_from_same_column_and_stratum():
    rng = np.random.default_rng(5)
    n = 200
    strata = np.repeat([1, 2], n // 2)
    # disjoint value ranges per stratum expose any donor leakage
    Y = np.where(strata[:, None] == 1, rng.uniform(0, 1, (n, 3)),
                 rng.uniform(10, 11, (n, 3)))
    R = rng.random((n, 3)) >= 0.3
    Yo = np.where(R, Y, np.nan)
    lay = smc.CategoryLayout.of(("gaussian", 3))
    out = hot_deck(Yo, R, strata, np.random.default_rng(0), layout=lay)
    assert not np.isnan(out.Y_imputed).any()
    npt.assert_array_equal(out.Y_imputed[R], Y[R])
    assert out.notes["fallback_cells"] == 0
    for j in range(3):
        col = out.Y_imputed[:, j]
        assert np.all(col[strata == 1] < 5.0)
        assert np.all(col[strata == 2] > 5.0)
        # donors are actual observed values from that column and stratum
        for h in (1, 2):
            pool = set(Y[(strata == h) & R[:, j], j])
            imputed = col[(strata == h) & ~R[:, j]]
            assert set(imputed) <= pool


def test_hot_deck_falls_back_to_column_pool():
    strata = np.array([1, 1, 2, 2])
    Y = np.array([[1.0], [2.0], [np.nan], [np.nan]])
    R = ~np.isnan(Y)
    lay = smc.CategoryLayout.of(("gaussian", 1))
    out = hot_deck(Y, R, strata, np.random.default_rng(1), layout=lay)
    assert out.notes["fallback_cells"] == 1
    assert set(out.Y_imputed[2:, 0]) <= {1.0, 2.0}


def test_hot_deck_empty_column():
    Y = np.array([[np.nan], [np.nan]])
    lay = smc.CategoryLayout.of(("gaussian", 1))
    with pytest.raises(ColumnEmpty):
        hot_deck(Y, ~np.isnan(Y), np.array([1, 1]), np.random.default_rng(0),
                 layout=lay)


def test_hot_deck_deterministic_in_rng():
    rng = np.random.default_rng(6)
    Y, R, _ = masked_lowrank(rng)
    lay = smc.CategoryLayout.of(("gaussian", 8))
    strata = np.ones(Y.shape[0], dtype=np.int64)
    a = hot_deck(Y, R, strata, np.random.default_rng(3), layout=lay)
    b = hot_deck(Y, R, strata, np.random.default_rng(3), layout=lay)
    npt.assert_array_equal(a.Y_imputed, b.Y_imputed)


def test_collective_unweighted_equals_flattened_solver():
    rng = np.random.default_rng(7)
    ds, _, _ = helpers.random_problem(rng, n=30)
    cfg = smc.SolverConfig(tau=2.0**-6, iterations=40)
    out = collective_unweighted(ds, cfg)
    n, L = ds.Y.shape
    flat = replace(ds, pi=np.ones(n), population_size=float(n))
    probs = smc.ResponseProbModel.constant(n, L, 1.0)
    res = smc.fit_completion(flat, probs, cfg, X=None)
    npt.assert_array_equal(out.Z_hat_natural, res.Z_hat)
    npt.assert_array_equal(out.notes["objective_trace"], res.objective_trace)


def test_collective_unweighted_imputes_means():
    rng = np.random.default_rng(8)
    ds, _, _ = helpers.random_problem(rng, n=25)
    out = collective_unweighted(ds, smc.SolverConfig(tau=2.0**-8, iterations=30))
    npt.assert_array_equal(out.Y_imputed[ds.R], ds.Y[ds.R])
    means = smc.mean_from_natural(out.Z_hat_natural, ds.layout)
    npt.assert_array_equal(out.Y_imputed[~ds.R], means[~ds.R])
    assert out.method == "collective_unweighted"
