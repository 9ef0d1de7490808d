"""Comparison methods: fixed points, donor bookkeeping, the exact
equivalence of the unweighted variant with a flattened solver run, and
soft-impute against the slow majorization-minimization reference."""

from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import helpers
import surveymc as smc
from surveymc.baselines import collective_unweighted, hot_deck, soft_impute
from surveymc.errors import ColumnEmpty, InvalidInput


def masked_lowrank(rng, n=30, L=8, rank=1, miss=0.4):
    M = np.outer(rng.normal(size=n), rng.normal(size=L))
    for _ in range(rank - 1):
        M += np.outer(rng.normal(size=n), rng.normal(size=L))
    R = rng.random((n, L)) >= miss
    R[0] = True
    return np.where(R, M, np.nan), R, M


def one_block_dataset(Y, R=None, kind="gaussian", strata=None):
    """Self-weighting dataset over Y: one block of `kind`, one covariate, and
    one stratum unless strata labels are given."""
    R = ~np.isnan(Y) if R is None else R
    n, L = Y.shape
    strata = np.ones(n, dtype=np.int64) if strata is None else strata
    return smc.MixedDataset(Y=np.where(R, Y, np.nan), X=np.ones((n, 1)),
                            strata=strata, pi=np.ones(n),
                            layout=smc.CategoryLayout.of((kind, L)))


def si_args(lam, n, L, **kw):
    """tau and config whose solver objective is soft-impute's at lam, divided by n*L."""
    return lam / (n * L), smc.SolverConfig(**kw)


def test_soft_impute_identity_when_fully_observed():
    rng = np.random.default_rng(0)
    Y = rng.normal(size=(12, 5))
    out = soft_impute(one_block_dataset(Y), *si_args(1e-12, 12, 5))
    npt.assert_array_equal(out.Y_imputed, Y)
    npt.assert_allclose(out.Z_hat_natural, Y, atol=1e-10)
    assert out.notes["diagnostics"]["stop"] == "fixed_point"


def test_soft_impute_recovers_masked_rank1():
    # miss=0.25 keeps >=4 observations per row at this seed; sparser rows
    # make the minimum-nuclear-norm completion diverge from the truth
    rng = np.random.default_rng(3)
    Y, R, M = masked_lowrank(rng, miss=0.25)
    assert R.sum(axis=1).min() >= 3
    out = soft_impute(one_block_dataset(Y, R), *si_args(0.05, 30, 8, iterations=2000))
    assert out.notes["diagnostics"]["stop"] == "fixed_point"
    filled = np.where(R, Y, out.Y_imputed)
    assert np.linalg.norm(filled - M) / np.linalg.norm(M) < 1e-2
    # observed entries pass through untouched
    npt.assert_array_equal(out.Y_imputed[R], Y[R])


def test_soft_impute_trace_monotone():
    rng = np.random.default_rng(2)
    Y, R, _ = masked_lowrank(rng, rank=3)
    out = soft_impute(one_block_dataset(Y, R), *si_args(0.5, 30, 8))
    t = out.notes["objective_trace"]
    assert t.size == out.notes["iterations"] + 1
    assert np.all(np.diff(t) <= 0)


def test_soft_impute_huge_tau_gives_zero_matrix():
    rng = np.random.default_rng(3)
    Y, R, _ = masked_lowrank(rng)
    out = soft_impute(one_block_dataset(Y, R), *si_args(1e6, 30, 8))
    assert np.all(out.Y_imputed[~R] == 0.0)
    npt.assert_array_equal(out.Y_imputed[R], Y[R])


def test_soft_impute_maps_through_inverse_mean():
    rng = np.random.default_rng(4)
    Z = rng.uniform(0.1, 1.0, (15, 4))
    Y = np.exp(Z)  # exact means, fully observed
    out = soft_impute(one_block_dataset(Y, kind="poisson"), *si_args(1e-12, 15, 4))
    npt.assert_allclose(out.Z_hat_natural, Z, atol=1e-8)


def test_soft_impute_validation():
    Y = np.ones((3, 2))
    for tau in (-1.0, 0.0):
        with pytest.raises(InvalidInput):
            soft_impute(one_block_dataset(Y), tau)
    with pytest.raises(ColumnEmpty):
        soft_impute(one_block_dataset(np.full((3, 2), np.nan)), 0.1)


@st.composite
def soft_impute_problems(draw):
    """A noisy rank-r matrix with a random mask (at least one entry seen)
    and a lam from 1e-4 to 2 times sigma_1 of the observed part."""
    n, L = draw(st.integers(2, 10)), draw(st.integers(2, 7))
    rank = draw(st.integers(1, min(n, L, 3)))
    unit = st.floats(-2.0, 2.0)
    U = draw(arrays(np.float64, (n, rank), elements=unit))
    V = draw(arrays(np.float64, (L, rank), elements=unit))
    noise = draw(arrays(np.float64, (n, L), elements=st.floats(-0.1, 0.1)))
    R = draw(arrays(bool, (n, L)))
    R[draw(st.integers(0, n - 1)), draw(st.integers(0, L - 1))] = True
    Y = U @ V.T + noise
    s1 = float(np.linalg.norm(np.where(R, Y, 0.0), 2))
    lam = draw(st.floats(1e-4, 2.0)) * max(s1, 1e-3)
    return Y, R, lam


@settings(max_examples=80, deadline=None)
@given(soft_impute_problems())
def test_soft_impute_reaches_the_mm_oracle_objective(problem):
    Y, R, lam = problem
    n, L = Y.shape
    out = soft_impute(one_block_dataset(Y, R), *si_args(lam, n, L, iterations=5000))
    mine = helpers.soft_impute_objective(out.Z_hat_natural, Y, R, lam)
    ref = helpers.soft_impute_objective(helpers.soft_impute_mm(Y, R, lam, tol=1e-12),
                                        Y, R, lam)
    assert mine <= ref + 1e-8 * abs(ref)


def test_hot_deck_draws_from_same_column_and_stratum():
    rng = np.random.default_rng(5)
    n = 200
    strata = np.repeat([1, 2], n // 2)
    # disjoint value ranges per stratum expose any donor leakage
    Y = np.where(strata[:, None] == 1, rng.uniform(0, 1, (n, 3)),
                 rng.uniform(10, 11, (n, 3)))
    R = rng.random((n, 3)) >= 0.3
    out = hot_deck(one_block_dataset(Y, R, strata=strata), np.random.default_rng(0))
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
    out = hot_deck(one_block_dataset(Y, strata=strata), np.random.default_rng(1))
    assert out.notes["fallback_cells"] == 1
    assert set(out.Y_imputed[2:, 0]) <= {1.0, 2.0}


def test_hot_deck_empty_column():
    Y = np.array([[np.nan], [np.nan]])
    with pytest.raises(ColumnEmpty):
        hot_deck(one_block_dataset(Y), np.random.default_rng(0))


def test_hot_deck_deterministic_in_rng():
    rng = np.random.default_rng(6)
    Y, R, _ = masked_lowrank(rng)
    ds = one_block_dataset(Y, R)
    a = hot_deck(ds, np.random.default_rng(3))
    b = hot_deck(ds, np.random.default_rng(3))
    npt.assert_array_equal(a.Y_imputed, b.Y_imputed)


def test_collective_unweighted_equals_flattened_solver():
    rng = np.random.default_rng(7)
    ds, _, _ = helpers.random_problem(rng, n=30)
    cfg = smc.SolverConfig(iterations=40)
    out = collective_unweighted(ds, 2.0**-6, cfg)
    n, L = ds.Y.shape
    flat = replace(ds, X=np.empty((n, 0)), pi=np.ones(n), population_size=float(n))
    res = smc.fit_completion(flat, np.ones((n, L)), 2.0**-6, cfg)
    npt.assert_array_equal(out.Z_hat_natural, res.Z_hat)
    npt.assert_array_equal(out.notes["objective_trace"], res.objective_trace)


def test_collective_unweighted_imputes_means():
    rng = np.random.default_rng(8)
    ds, _, _ = helpers.random_problem(rng, n=25)
    out = collective_unweighted(ds, 2.0**-8, smc.SolverConfig(iterations=30))
    npt.assert_array_equal(out.Y_imputed[ds.R], ds.Y[ds.R])
    means = smc.mean_from_natural(out.Z_hat_natural, ds.layout)
    npt.assert_array_equal(out.Y_imputed[~ds.R], means[~ds.R])
    assert out.method == "collective_unweighted"
