"""Synthetic population generator and the two-stage design."""

import numpy as np
import numpy.testing as npt
import pytest
from scipy.special import expit

import surveymc as smc
from surveymc.errors import DesignError, InvalidInput

SMALL = smc.CategoryLayout.of(("gaussian", 2), ("poisson", 2), ("bernoulli", 2))


def small_spec(**kw):
    base = dict(n_strata=3, m1=3, m2=10, layout=SMALL, xi=0.3, n_covariates=2)
    base.update(kw)
    return smc.PopulationSpec(**base)


def test_spec_validation():
    with pytest.raises(InvalidInput):
        small_spec(n_strata=0)
    with pytest.raises(InvalidInput):
        small_spec(m1=1.5)
    with pytest.raises(InvalidInput):
        small_spec(xi=np.nan)


def test_spec_rejects_exponential_blocks():
    # simulated natural parameters lie in [0, 1], outside z < 0
    layout = smc.CategoryLayout.of(("gaussian", 2), ("exponential", 2))
    with pytest.raises(InvalidInput, match="exponential family's domain"):
        small_spec(layout=layout)


def test_population_shapes_and_sizes():
    spec = small_spec()
    truth = smc.generate_population(spec, np.random.default_rng(0))
    H = spec.n_strata
    assert len(truth.cluster_sizes) == H
    assert truth.stratum_sizes.shape == (H,)
    for h in range(H):
        assert len(truth.cluster_sizes[h]) >= 20          # 5 Po(a) + 20
        assert np.all(np.asarray(truth.cluster_sizes[h]) >= 30)
        assert truth.stratum_sizes[h] == np.sum(truth.cluster_sizes[h])
    N = truth.n_population
    assert truth.X_pop.shape == (N, 2)
    assert truth.Z_pop.shape == (N, SMALL.n_cols)
    assert truth.zeta.shape == (H, SMALL.n_cols, 3)
    counts = np.bincount(truth.stratum_of_row, minlength=H + 1)[1:]
    npt.assert_array_equal(counts, truth.stratum_sizes)


def test_normalization_contract():
    # every cluster's covariate block and each response block is scaled so
    # its largest entry is exactly one
    spec = small_spec()
    truth = smc.generate_population(spec, np.random.default_rng(1))
    assert np.all(truth.X_pop >= 0) and np.all(truth.X_pop <= 1)
    assert np.all(truth.Z_pop >= 0) and np.all(truth.Z_pop <= 1)
    slices = SMALL.slices()
    for c in np.unique(truth.cluster_of_row):
        rows = truth.cluster_of_row == c
        assert truth.X_pop[rows].max() == 1.0
        for _, sl in slices:
            assert truth.Z_pop[rows, sl].max() == 1.0


def test_population_determinism():
    spec = small_spec()
    a = smc.generate_population(spec, np.random.default_rng(7))
    b = smc.generate_population(spec, np.random.default_rng(7))
    npt.assert_array_equal(a.X_pop, b.X_pop)
    npt.assert_array_equal(a.Z_pop, b.Z_pop)
    npt.assert_array_equal(a.zeta, b.zeta)
    c = smc.generate_population(spec, np.random.default_rng(8))
    assert c.n_population != a.n_population or not np.array_equal(c.X_pop, a.X_pop)


def test_size_distributions_match_design():
    # E[M_h] = 5 E[Po(a)] + 20 = 25,  E[M_hi] = 5 E[Po(a+b)] + 30 = 40
    lay = smc.CategoryLayout.of(("gaussian", 1))
    spec = smc.PopulationSpec(n_strata=200, m1=1, m2=1, layout=lay,
                              xi=0.0, n_covariates=1)
    truth = smc.generate_population(spec, np.random.default_rng(2))
    counts = np.array([len(sz) for sz in truth.cluster_sizes], dtype=float)
    # Var(5 Po(a) + 20) = 25 (E a + Var a) = 50
    assert abs(counts.mean() - 25.0) <= 3 * np.sqrt(50.0 / counts.size)
    # sizes within a stratum share a_h, so test the residual 5 Po(a+b) + 30 - 5a,
    # which has mean 35 and variance 25 E[a+b] + 25 Var(b) = 75 independently
    resid = np.concatenate([np.asarray(sz, dtype=float) - 5.0 * truth.a[h]
                            for h, sz in enumerate(truth.cluster_sizes)])
    assert abs(resid.mean() - 35.0) <= 3 * np.sqrt(75.0 / resid.size)


def test_draw_sample_design_quantities():
    spec = small_spec()
    rng = np.random.default_rng(3)
    truth = smc.generate_population(spec, rng)
    sample = smc.draw_sample(truth, spec, rng)
    ds = sample.dataset
    n = spec.n_strata * spec.m1 * spec.m2
    assert ds.n == n
    assert sample.pop_rows.shape == (n,)
    # pi is m1 m2 / N_h, constant within stratum
    for h in range(1, spec.n_strata + 1):
        rows = ds.strata == h
        want = spec.m1 * spec.m2 / truth.stratum_sizes[h - 1]
        npt.assert_allclose(ds.pi[rows], want, rtol=1e-15)
    npt.assert_array_equal(truth.stratum_of_row[sample.pop_rows], ds.strata)
    npt.assert_array_equal(ds.X, truth.X_pop[sample.pop_rows])
    npt.assert_array_equal(sample.truth_Z, truth.Z_pop[sample.pop_rows])
    # second stage is without replacement within one cluster draw
    for start in range(0, n, spec.m2):
        chunk = sample.pop_rows[start:start + spec.m2]
        assert len(np.unique(chunk)) == spec.m2
        assert len(np.unique(truth.cluster_of_row[chunk])) == 1
    # no responses yet
    assert np.isnan(ds.Y).all()
    assert not ds.R.any()
    assert ds.population_size == float(truth.n_population)


def test_true_p_matches_logistic_oracle():
    spec = small_spec()
    rng = np.random.default_rng(4)
    truth = smc.generate_population(spec, rng)
    sample = smc.draw_sample(truth, spec, rng)
    ds = sample.dataset
    for i in (0, 17, ds.n - 1):
        h = ds.strata[i] - 1
        for j in (0, SMALL.n_cols - 1):
            z = truth.zeta[h, j]
            want = expit(z[0] + ds.X[i] @ z[1:])
            assert sample.true_p[i, j] == pytest.approx(want, rel=1e-12)


def test_draw_sample_design_errors():
    spec = small_spec()
    truth = smc.generate_population(spec, np.random.default_rng(5))
    too_many = small_spec(m1=1000, m2=1000)
    with pytest.raises(DesignError):
        smc.draw_sample(truth, too_many, np.random.default_rng(0))
    wrong_strata = small_spec(n_strata=4)
    with pytest.raises(DesignError):
        smc.draw_sample(truth, wrong_strata, np.random.default_rng(0))


def test_impose_responses():
    spec = small_spec()
    rng = np.random.default_rng(6)
    truth = smc.generate_population(spec, rng)
    sample = smc.impose_responses_and_missingness(
        smc.draw_sample(truth, spec, rng), truth, rng)
    ds = sample.dataset
    npt.assert_array_equal(ds.R, ~np.isnan(ds.Y))
    assert 0.0 < ds.R.mean() < 1.0
    for fam, sl in SMALL.slices():
        obs = ds.Y[:, sl][ds.R[:, sl]]
        if fam.kind == "bernoulli":
            assert set(np.unique(obs)) <= {0.0, 1.0}
        elif fam.kind == "poisson":
            assert np.all(obs >= 0) and np.all(obs == np.round(obs))
    # realized response rate tracks the true probabilities
    m = ds.R.size
    se = np.sqrt(np.sum(sample.true_p * (1 - sample.true_p))) / m
    assert abs(ds.R.mean() - sample.true_p.mean()) <= 4 * se

    other = smc.generate_population(spec, np.random.default_rng(99))
    with pytest.raises(InvalidInput):
        smc.impose_responses_and_missingness(sample, other, rng)


def test_response_rate_monotone_in_xi():
    rates = []
    for xi in (-1.0, 0.3, 2.0):
        spec = small_spec(xi=xi)
        _, sample = smc.simulate_survey(spec, np.random.default_rng(20))
        rates.append(sample.dataset.R.mean())
    assert rates[0] < rates[1] < rates[2]


def test_simulate_survey_composes_the_three_steps():
    spec = small_spec()
    _, sample = smc.simulate_survey(spec, np.random.default_rng(21))
    rng = np.random.default_rng(21)
    truth = smc.generate_population(spec, rng)
    drawn = smc.draw_sample(truth, spec, rng)
    manual = smc.impose_responses_and_missingness(drawn, truth, rng)
    npt.assert_array_equal(sample.dataset.Y, manual.dataset.Y)
    npt.assert_array_equal(sample.dataset.R, manual.dataset.R)
    npt.assert_array_equal(sample.pop_rows, manual.pop_rows)
