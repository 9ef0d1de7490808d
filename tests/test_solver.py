"""Weighted loss, gradient, descent loop, and tau tuning.

The loss and gradient are validated against an extended-precision oracle
written independently in helpers.py; the loop is checked for its exact
descent guarantee and its closed-form fixed point in the Gaussian case.
"""

from dataclasses import fields, replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import helpers
import surveymc as smc
from surveymc.errors import (ColumnEmpty, FoldError, InvalidInput, NumericalFailure,
                             ShapeError, SurveyMCError)
from surveymc.solver import _Problem


def one_cell_dataset(kind, y, pi=1.0, sigma=1.0):
    lay = smc.CategoryLayout.of((kind, 1), sigma=sigma)
    Y = np.array([[y]])
    return smc.MixedDataset(Y=Y, X=np.ones((1, 1)),
                            strata=np.array([1]), pi=np.array([pi]), layout=lay)


def test_loss_single_entry_closed_form():
    # gaussian, y = z = 1, all weights 1, N = 1:  -y z + z^2/2 = -0.5
    ds = one_cell_dataset("gaussian", 1.0)
    p_hat = np.ones((1, 1))
    ds1 = replace(ds, population_size=1.0)
    assert smc.weighted_loss([[1.0]], ds1, p_hat) == pytest.approx(-0.5, abs=1e-15)

    # poisson, y = 2, z = 0, pi = p_hat = 0.5, N from HT is 2:
    # W = 1/(2 * 1 * 0.5 * 0.5) = 2 and -y z + e^z = 1
    ds = one_cell_dataset("poisson", 2.0, pi=0.5)
    p_hat = [[0.5]]
    assert smc.weighted_loss([[0.0]], ds, p_hat) == pytest.approx(2.0, abs=1e-15)


def test_loss_matches_extended_precision_oracle():
    rng = np.random.default_rng(0)
    ds, p_hat, Z = helpers.random_problem(rng)
    N = ds.ht_population_size()
    want = float(helpers.loss_oracle(Z, ds.Y, ds.R, ds.pi, p_hat, ds.layout, N))
    assert smc.weighted_loss(Z, replace(ds, population_size=N), p_hat) == pytest.approx(
        want, rel=1e-13)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    ds, p_hat, Z = helpers.random_problem(rng, n=6,
                                          layout=helpers.mixed_layout(sigma=1.4))
    N = ds.ht_population_size()
    G = smc.gradient(Z, replace(ds, population_size=N), p_hat)
    FD = helpers.fd_gradient(Z, ds.Y, ds.R, ds.pi, p_hat, ds.layout, N)
    assert np.linalg.norm(G - FD) / np.linalg.norm(FD) < 1e-6


# magnitudes spanning the float64 exponent range a survey file may hold
SCALES = st.sampled_from([1e-300, 1e-150, 1e-12, 1.0, 1e12, 1e150, 1e300])
KINDS = ("gaussian", "poisson", "bernoulli", "exponential")


@st.composite
def observed_entry_problems(draw):
    """A dataset over all four families with columns observed at random,
    everywhere or nowhere, its response model, and Z in each family's
    domain with entries drawn at the edges of the clamp box."""
    blocks = draw(st.permutations([(kind, draw(st.integers(1, 3))) for kind in KINDS]))
    layout = smc.CategoryLayout.of(*blocks, sigma=draw(st.sampled_from((0.5, 1.0, 3.0))))
    n = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    Y = helpers.sample_responses(layout, helpers.draw_natural(layout, rng, n), rng)
    R = np.column_stack([
        {"random": rng.random(n) < 0.6, "all": np.ones(n, bool), "none": np.zeros(n, bool)}[
            draw(st.sampled_from(("random", "all", "none")))] for _ in range(layout.n_cols)])
    ds = smc.MixedDataset(Y=np.where(R, Y, np.nan), X=rng.normal(size=(n, 2)),
                          strata=np.ones(n, dtype=np.int64), pi=rng.uniform(0.05, 1.0, n),
                          layout=layout, population_size=float(n))
    p_hat = rng.uniform(0.05, 1.0, R.shape)
    clamp = draw(st.sampled_from((0.5, 30.0)))
    Z = helpers.draw_natural(layout, rng, n)
    for fam, sl in layout.slices():
        lo, hi = fam.domain_box(clamp)
        edge = rng.random((n, sl.stop - sl.start)) < draw(st.sampled_from((0.0, 0.3, 1.0)))
        Z[:, sl] = np.where(edge, np.where(rng.random(edge.shape) < 0.5, lo, hi),
                            np.clip(Z[:, sl], lo, hi))
    return ds, p_hat, Z, clamp


@settings(max_examples=200, deadline=None)
@given(problem=observed_entry_problems())
def test_value_and_grad_match_the_dense_per_block_reference(problem):
    ds, p_hat, Z, clamp = problem
    prob = _Problem(ds, p_hat, clamp=clamp)
    value, G = prob.value_and_grad(Z)
    assert value == prob.loss(Z)  # the loop prices Q and its candidates alike
    want, want_G, loss_scale, grad_scale = helpers.dense_loss_and_grad(Z, ds, p_hat)
    assert abs(value - want) <= 1e-12 * loss_scale
    assert np.all(np.abs(G - want_G) <= 1e-12 * grad_scale)
    assert np.all(G[~ds.R] == 0.0)


def test_gradient_zero_at_missing_entries():
    rng = np.random.default_rng(2)
    ds, p_hat, Z = helpers.random_problem(rng, miss=0.5)
    G = smc.gradient(Z, ds, p_hat)
    assert np.all(G[~ds.R] == 0.0)
    assert np.any(G[ds.R] != 0.0)


def test_gradient_single_entry_closed_form():
    ds = one_cell_dataset("gaussian", 1.0)
    p_hat = np.ones((1, 1))
    # W = 1, grad = g'(z) - y = z - 1
    ds1 = replace(ds, population_size=1.0)
    assert smc.gradient([[2.0]], ds1, p_hat)[0, 0] == pytest.approx(1.0, abs=1e-15)
    assert smc.gradient([[1.0]], ds1, p_hat)[0, 0] == 0.0


def test_gradient_scales_inversely_with_pi():
    rng = np.random.default_rng(3)
    ds, p_hat, Z = helpers.random_problem(rng)
    halved = smc.MixedDataset(Y=ds.Y, X=ds.X, strata=ds.strata,
                              pi=ds.pi / 2.0, layout=ds.layout)
    G1 = smc.gradient(Z, replace(ds, population_size=500.0), p_hat)
    G2 = smc.gradient(Z, replace(halved, population_size=500.0), p_hat)
    npt.assert_allclose(G2, 2.0 * G1, rtol=1e-12)


def test_objective_composes_loss_and_penalty():
    rng = np.random.default_rng(4)
    ds, p_hat, Z = helpers.random_problem(rng)
    ds = replace(ds, population_size=200.0)
    want = (smc.weighted_loss(Z, ds, p_hat)
            + 0.3 * smc.nuclear_norm(np.hstack([ds.X, Z])))
    assert smc.objective(Z, ds, p_hat, 0.3) == pytest.approx(want, rel=1e-12)
    # a dataset without covariates has no augmentation
    want_plain = smc.weighted_loss(Z, ds, p_hat) + 0.3 * smc.nuclear_norm(Z)
    assert smc.objective(Z, no_covariates(ds), p_hat, 0.3) == pytest.approx(want_plain,
                                                                            rel=1e-12)


def no_covariates(ds):
    """The dataset with an n x 0 covariate matrix."""
    return replace(ds, X=np.empty((ds.n, 0)))


def test_shape_and_domain_checks():
    rng = np.random.default_rng(5)
    ds, p_hat, Z = helpers.random_problem(rng)
    with pytest.raises(ShapeError):
        smc.weighted_loss(Z[:, :3], ds, p_hat)
    bad = Z.copy()
    bad[0, 0] = np.inf
    with pytest.raises(InvalidInput):
        smc.gradient(bad, ds, p_hat)
    wrong_p = np.full_like(Z, 1.5)
    with pytest.raises(InvalidInput):
        smc.weighted_loss(Z, ds, wrong_p)


@pytest.mark.parametrize("observed", [True, False])
def test_a_nan_p_hat_is_invalid_input(observed):
    # a NaN at an observed entry once surfaced as a weight overflow blamed on
    # N, and one at a missing entry passed unnoticed
    ds, nan_p, Z = helpers.random_problem(np.random.default_rng(5))
    nan_p[tuple(np.argwhere(ds.R == observed)[0])] = np.nan
    with pytest.raises(InvalidInput, match="p_hat"):
        smc.weighted_loss(Z, ds, nan_p)
    with pytest.raises(InvalidInput, match="p_hat"):
        smc.fit_completion(ds, nan_p, 0.1, smc.SolverConfig(iterations=2))


def test_config_validation():
    # the config holds the settings a tuning path shares; tau is each fit's argument
    assert [f.name for f in fields(smc.SolverConfig)] == ["iterations", "clamp"]
    assert smc.SolverConfig() == smc.SolverConfig(iterations=200, clamp=30.0)
    ds, p_hat, _ = helpers.random_problem(np.random.default_rng(5), n=10)
    for tau in (0.0, -1.0, np.inf, np.nan, None, "0.1"):
        with pytest.raises(InvalidInput):
            smc.fit_completion(ds, p_hat, tau)
    with pytest.raises(InvalidInput):
        smc.SolverConfig(iterations=0)
    for count in (2.5, float("nan")):  # range() would reject these mid-fit
        with pytest.raises(InvalidInput):
            smc.SolverConfig(iterations=count)
    with pytest.raises(InvalidInput):
        smc.SolverConfig(clamp=0.0)
    assert smc.SolverConfig(clamp=np.inf).clamp == np.inf  # no clamp box


def fit_small(rng, tau=2.0**-8, iterations=60, **kw):
    ds, p_hat, _ = helpers.random_problem(rng, n=40)
    cfg = smc.SolverConfig(iterations=iterations, **kw)
    return smc.fit_completion(ds, p_hat, tau, cfg), ds


def test_trace_is_exactly_monotone():
    for seed in range(4):
        res, _ = fit_small(np.random.default_rng(seed))
        assert helpers.trace_is_monotone(res)
        assert res.objective_trace.shape[0] == res.iterations_run + 1
        assert res.accepted.shape[0] == res.iterations_run


def test_iterate_stays_in_clamp_box():
    rng = np.random.default_rng(8)
    ds, p_hat, _ = helpers.random_problem(rng, n=30)
    cfg = smc.SolverConfig(iterations=40, clamp=3.0)
    res = smc.fit_completion(ds, p_hat, 2.0**-10, cfg)
    assert np.max(np.abs(res.Z_hat)) <= 3.0
    for fam, sl in ds.layout.slices():
        lo, hi = fam.domain_box(3.0)
        assert np.all((res.Z_hat[:, sl] >= lo) & (res.Z_hat[:, sl] <= hi))


def test_gaussian_identity_fixed_point():
    # fully observed gaussian data with unit weights: the loss alone is
    # minimized at Z = Y, so a vanishing penalty must land there
    rng = np.random.default_rng(9)
    n, L = 25, 8
    lay = smc.CategoryLayout.of(("gaussian", L))
    Y = rng.normal(size=(n, L))
    ds = smc.MixedDataset(Y=Y, X=np.empty((n, 0)),
                          strata=np.ones(n, dtype=np.int64), pi=np.ones(n),
                          layout=lay, population_size=float(n))
    p_hat = np.ones((n, L))
    cfg = smc.SolverConfig(iterations=300)
    res = smc.fit_completion(ds, p_hat, 2.0**-40, cfg)
    assert np.max(np.abs(res.Z_hat - Y)) < 1e-3


def early_stop_problem():
    rng = np.random.default_rng(10)
    n, L = 20, 6
    lay = smc.CategoryLayout.of(("gaussian", L))
    Y = rng.normal(size=(n, L))
    ds = smc.MixedDataset(Y=Y, X=np.empty((n, 0)),
                          strata=np.ones(n, dtype=np.int64), pi=np.ones(n),
                          layout=lay, population_size=float(n))
    return ds, np.ones((n, L))


def test_early_stop():
    # a fully observed gaussian problem converges fast, so the loop must stop
    # at its fixed point well short of the iteration cap
    ds, p_hat = early_stop_problem()
    res = smc.fit_completion(ds, p_hat, 2.0**-30, smc.SolverConfig(iterations=500))
    assert res.diagnostics["stop"] == "fixed_point"
    assert res.iterations_run == 3 and not res.accepted[-1]
    assert helpers.trace_is_monotone(res)


def test_diagnostics_keys():
    res, _ = fit_small(np.random.default_rng(11), iterations=20)
    keys = {"final_nuclear_norm", "rank_estimate", "domain_projections",
            "backtracks", "accepted_steps", "step_size_final", "restarts", "stop",
            "population_size"}
    assert keys <= set(res.diagnostics)
    assert res.diagnostics["accepted_steps"] == int(res.accepted.sum())
    assert res.diagnostics["rank_estimate"] >= 1


def test_large_tau_collapses_rank():
    rng = np.random.default_rng(12)
    ds, p_hat, _ = helpers.random_problem(rng, n=40)
    ds = no_covariates(ds)
    small = smc.fit_completion(ds, p_hat, 2.0**-12, smc.SolverConfig(iterations=60))
    large = smc.fit_completion(ds, p_hat, 2.0**2, smc.SolverConfig(iterations=60))
    nn_small = smc.nuclear_norm(small.Z_hat)
    nn_large = smc.nuclear_norm(large.Z_hat)
    assert nn_large <= nn_small


def test_loss_is_design_unbiased():
    # fixed finite population, stratified SRSWOR with known inclusion
    # probabilities: the weighted loss must be unbiased for the census loss
    rng = np.random.default_rng(13)
    lay = smc.CategoryLayout.of(("gaussian", 2), ("poisson", 2))
    N_h = (400, 200)
    n_h = (40, 40)
    N = sum(N_h)
    z_cols = np.array([0.4, -0.7, 0.2, 0.9])
    Z_pop = np.tile(z_cols, (N, 1))
    Y_pop = helpers.sample_responses(lay, Z_pop, rng)
    strata_pop = np.repeat([1, 2], N_h)

    census = float(helpers.loss_oracle(Z_pop, Y_pop, np.ones_like(Y_pop, dtype=bool),
                                       np.ones(N), np.ones_like(Y_pop), lay, N))

    draws = []
    for _ in range(300):
        rows = np.concatenate([
            rng.choice(np.flatnonzero(strata_pop == h + 1), size=n_h[h], replace=False)
            for h in range(2)])
        pi = np.array([n_h[strata_pop[i] - 1] / N_h[strata_pop[i] - 1] for i in rows])
        ds = smc.MixedDataset(Y=Y_pop[rows], X=np.ones((len(rows), 1)),
                              strata=strata_pop[rows], pi=pi, layout=lay)
        p_hat = np.ones((len(rows), 4))
        draws.append(smc.weighted_loss(Z_pop[rows], replace(ds, population_size=float(N)),
                                       p_hat))
    draws = np.asarray(draws)
    se = draws.std(ddof=1) / np.sqrt(draws.size)
    assert abs(draws.mean() - census) <= 3 * se


def test_grid_search_tie_breaks_toward_larger():
    # zero is in-domain for this layout, so two huge taus both collapse the
    # iterate to the exact zero matrix: the scores tie and the larger wins
    rng = np.random.default_rng(15)
    lay = smc.CategoryLayout.of(("gaussian", 4), ("poisson", 4), ("bernoulli", 4))
    ds, p_hat, Z = helpers.random_problem(rng, n=20, layout=lay)
    ds = no_covariates(ds)

    def score(t):
        res = smc.fit_completion(ds, p_hat, t, smc.SolverConfig(iterations=5))
        return float(np.linalg.norm(res.Z_hat - Z) / np.linalg.norm(Z))

    out = smc.grid_search((2e6, 1e6), score)
    assert out.taus == (1e6, 2e6)
    assert out.scores[0] == out.scores[1]
    assert out.best_tau == 2e6


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.sampled_from([2.0**k for k in range(-6, 3)]),
                       st.integers(min_value=0, max_value=3), min_size=1))
def test_grid_search_returns_largest_minimizer(table):
    # few distinct scores, so ties are common
    out = smc.grid_search(list(table), table.__getitem__)
    assert out.taus == tuple(sorted(table))
    assert out.scores == tuple(table[t] for t in out.taus)
    best = min(table.values())
    assert out.best_tau == max(t for t, s in table.items() if s == best)


def test_tune_tau_k_fold():
    rng = np.random.default_rng(16)
    ds, p_hat, _ = helpers.random_problem(rng, n=30)
    grid = (2.0**-8, 2.0**-4)
    cfg = smc.SolverConfig(iterations=25)
    out = smc.tune_tau(ds, p_hat, grid=grid, folds=3, seed=0, config=cfg)
    assert out.best_tau in grid
    assert all(np.isfinite(out.scores))
    # deterministic in the fold seed
    again = smc.tune_tau(ds, p_hat, grid=grid, folds=3, seed=0, config=cfg)
    assert out == again


def test_tune_tau_errors():
    rng = np.random.default_rng(17)
    ds, p_hat, Z = helpers.random_problem(rng, n=20)
    with pytest.raises(InvalidInput):
        smc.tune_tau(ds, p_hat, grid=())
    with pytest.raises(InvalidInput):
        smc.tune_tau(ds, p_hat, grid=(0.0, 1.0))
    # a dict of settings is not a config: it once raised a bare TypeError,
    # and an empty one passed as "no config"
    for bad in (dict(folds=1), dict(folds=2.5), dict(seed=-1),
                dict(config={"iterations": 5}), dict(config={})):
        with pytest.raises(InvalidInput):
            smc.tune_tau(ds, p_hat, **bad)
    few = one_cell_dataset("gaussian", 1.0)
    few_p_hat = np.ones((1, 1))
    with pytest.raises(FoldError):
        smc.tune_tau(few, few_p_hat, grid=(0.1,), folds=5)


def test_fit_rejects_dataset_without_observed_response():
    rng = np.random.default_rng(18)
    ds, p_hat, _ = helpers.random_problem(rng, n=10)
    empty = ds.with_mask(np.zeros_like(ds.R))
    with pytest.raises(ColumnEmpty):
        smc.fit_completion(empty, p_hat, 0.1)


GPB = smc.CategoryLayout.of(("gaussian", 4), ("poisson", 4), ("bernoulli", 4))


@settings(max_examples=100, deadline=None)
@given(n=st.integers(3, 40), with_x=st.booleans(), rank=st.integers(1, 6),
       thresh_frac=st.floats(1e-4, 1.2), seed=st.integers(0, 2**32 - 1))
def test_factor_penalty_matches_full_nuclear_norm(n, with_x, rank, thresh_frac, seed):
    rng = np.random.default_rng(seed)
    ds, p_hat, _ = helpers.random_problem(rng, n=n, layout=GPB)
    prob = _Problem(ds if with_x else no_covariates(ds), p_hat, clamp=30.0)
    T = rng.normal(size=(n, rank)) @ rng.normal(size=(rank, GPB.n_cols))
    T += 0.1 * rng.normal(size=T.shape)
    M = np.hstack([prob.X, T])
    cand, moved, factors = prob.prox_step(T, thresh_frac * np.linalg.norm(M, 2))
    assert moved == 0 and factors is not None
    full = 0.3 * smc.nuclear_norm(np.hstack([prob.X, cand]))
    assert 0.3 * float(np.sum(prob.spectrum(cand))) == full
    assert abs(0.3 * float(np.sum(prob.spectrum(cand, factors))) - full) <= 1e-12 * full


def test_clipped_candidate_takes_the_full_penalty():
    rng = np.random.default_rng(19)
    ds, p_hat, _ = helpers.random_problem(rng, n=20, layout=GPB)
    prob = _Problem(ds, p_hat, clamp=0.5)
    cand, moved, factors = prob.prox_step(5.0 * rng.normal(size=ds.Y.shape), 0.1)
    assert moved > 0 and factors is None
    assert np.all(np.abs(cand) <= 0.5)


@pytest.mark.parametrize("clamp", [30.0, 0.5])
def test_recorded_objective_is_the_objective_of_z_hat(clamp):
    # the trace's last value, the final nuclear norm and the rank estimate
    # come from the factor spectrum when the final candidate was not clipped
    # and from the full SVD when it was
    rng = np.random.default_rng(20)
    ds, p_hat, _ = helpers.random_problem(rng, n=40, layout=GPB)
    cfg = smc.SolverConfig(iterations=60, clamp=clamp)
    for ds in (ds, no_covariates(ds)):
        res = smc.fit_completion(ds, p_hat, 2.0**-6, cfg)
        assert res.diagnostics["accepted_steps"] > 0
        assert (res.diagnostics["domain_projections"] > 0) == (clamp < 1.0)
        want = smc.objective(res.Z_hat, ds, p_hat, 2.0**-6)
        assert abs(res.objective_trace[-1] - want) <= 1e-12 * max(1.0, abs(want))
        XZ = np.hstack([ds.X, res.Z_hat])
        norm = res.diagnostics["final_nuclear_norm"]
        assert abs(norm - smc.nuclear_norm(XZ)) <= 1e-12 * norm
        svals = np.linalg.svd(XZ, compute_uv=False)
        assert res.diagnostics["rank_estimate"] == np.count_nonzero(svals > 1e-8 * svals[0])


def small_survey():
    spec = smc.PopulationSpec(n_strata=4, m1=5, m2=10, layout=smc.CategoryLayout.of(
        ("gaussian", 10), ("poisson", 10), ("bernoulli", 10)), xi=0.3, n_covariates=3)
    _, sample = smc.simulate_survey(spec, np.random.default_rng(0))
    return sample.dataset, smc.estimate_response_probs(sample.dataset, p_floor=0.01).p_hat


def counting_svd(monkeypatch, raise_at=None):
    """Count np.linalg.svd calls by row count; raise LinAlgError on call raise_at."""
    calls = []
    svd = np.linalg.svd

    def wrapped(a, *args, **kwargs):
        calls.append(np.shape(a)[0])
        if len(calls) == raise_at:
            raise np.linalg.LinAlgError("did not converge")
        return svd(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", wrapped)
    return calls


def test_iterations_make_no_full_svd(monkeypatch):
    # 200 iterations, no clipping: the full-size SVDs are the rank-1 start
    # and the initial objective, not one or two per iteration; the
    # diagnostics read the spectrum that priced the last accepted iterate
    ds, p_hat = small_survey()
    calls = counting_svd(monkeypatch)
    res = smc.fit_completion(ds, p_hat, 2.0**-10, smc.SolverConfig(iterations=200))
    assert res.iterations_run == 200 and res.diagnostics["domain_projections"] == 0
    assert calls.count(ds.n) == 2
    # plus, per iteration, the SVD of the Gram matrix and a (D+k) x (D+L) one
    assert len(calls) == 2 + 2 * 200


@pytest.mark.parametrize("N", [5e-324, 1e-310])
def test_population_size_that_overflows_a_weight_is_numerical_failure(N):
    # N * L * pi * p_hat underflows to 0 (5e-324) or to a subnormal whose
    # inverse overflows (1e-310); no numpy warning may escape either way
    ds, p_hat = small_survey()
    tiny = replace(ds, population_size=N)
    Z = np.zeros(ds.Y.shape)
    for call in (lambda: smc.fit_completion(tiny, p_hat, 0.1),
                 lambda: smc.weighted_loss(Z, tiny, p_hat),
                 lambda: smc.gradient(Z, tiny, p_hat)):
        with pytest.raises(NumericalFailure, match=f"N={N!r}"):
            call()


def test_backend_failures_in_a_fit_are_numerical_failures(monkeypatch):
    ds, p_hat = small_survey()
    cfg = smc.SolverConfig(iterations=3)
    calls = counting_svd(monkeypatch)
    smc.fit_completion(ds, p_hat, 2.0**-10, cfg)
    monkeypatch.undo()
    counting_svd(monkeypatch, raise_at=len(calls))  # the last candidate's spectrum
    with pytest.raises(NumericalFailure):
        smc.fit_completion(ds, p_hat, 2.0**-10, cfg)
    monkeypatch.undo()
    calls = counting_svd(monkeypatch, raise_at=3)  # the first prox step's Gram SVD
    with pytest.raises(NumericalFailure):
        smc.fit_completion(ds, p_hat, 2.0**-10, cfg)
    assert calls[-1] == ds.layout.n_cols + ds.X.shape[1]


STOP_MODES = {"automatic step": {}, "active clamp": dict(clamp=0.5)}


def next_plain_step(prob, ds, tau, cfg, Z, eta):
    """The candidate and step size of a plain automatic step from Z that
    starts where the loop's next iteration would, written out from the
    method's rules."""
    loss_Z, G = prob.value_and_grad(Z)
    Z0 = prob.project(smc.rank1_approx(np.where(ds.R, np.nan_to_num(ds.Y), 0.0)))[0]
    eta = min(1.0 / prob.curvature_bound(min(cfg.clamp, max(1.0, np.max(np.abs(Z0))))),
              2.0 * eta)
    while True:  # halve while the quadratic majorant is violated
        step = prob.prox_step(Z - eta * G, eta * tau)
        diff = step[0] - Z
        majorant = (loss_Z + float(np.einsum("ij,ij->", G, diff))
                    + float(np.einsum("ij,ij->", diff, diff)) / (2.0 * eta))
        if prob.loss(step[0]) <= majorant + 1e-12 * max(1.0, abs(loss_Z)):
            return step, eta
        eta *= 0.5


@settings(max_examples=80, deadline=None)
@given(mode=st.sampled_from(sorted(STOP_MODES)), n=st.integers(2, 12),
       log2_tau=st.integers(-12, 0), with_x=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_a_fit_stopped_before_its_cap_is_a_fixed_point(mode, n, log2_tau, with_x, seed):
    rng = np.random.default_rng(seed)
    ds, p_hat, _ = helpers.random_problem(rng, n=n, layout=helpers.mixed_layout())
    tau, cfg = 2.0**log2_tau, smc.SolverConfig(iterations=300, **STOP_MODES[mode])
    ds = ds if with_x else no_covariates(ds)
    res = smc.fit_completion(ds, p_hat, tau, cfg)
    t = res.objective_trace
    assert np.all(np.diff(t) <= 0)
    if res.diagnostics["stop"] == "cap":
        assert res.iterations_run == cfg.iterations
        return
    assert res.iterations_run <= cfg.iterations and not res.accepted[-1]
    # one more plain step from Z_hat, priced as the loop prices it, does not
    # lower the objective, and it ends at step_size_final: the next iteration
    # would repeat the last one
    prob = _Problem(ds, p_hat, cfg.clamp)
    eta = res.diagnostics["step_size_final"]
    (cand, _, factors), eta_next = next_plain_step(prob, ds, tau, cfg, res.Z_hat, eta)
    assert eta_next == eta
    assert prob.objective(cand, tau, factors=factors)[0] >= t[-1]
    # the trace ends at the objective of Z_hat (factor penalty vs full SVD)
    want = smc.objective(res.Z_hat, ds, p_hat, tau)
    assert abs(t[-1] - want) <= 1e-12 * max(1.0, abs(want))


@st.composite
def tiny_surveys(draw):
    """(blocks, sigma, MixedDataset fields) of a tiny mixed dataset: D in
    {0, 1, 2}, strata of one row upward, each response column drawn in its
    family's support at a generated scale, or all 0 or all 1, and observed
    at random, everywhere or nowhere; X, pi and sigma at generated scales."""
    sizes = draw(st.lists(st.integers(1, 8), min_size=1, max_size=3))
    n = sum(sizes)
    blocks = [(kind, draw(st.integers(1, 2)))
              for kind in draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=3))]
    kinds = [kind for kind, count in blocks for _ in range(count)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    Y = np.empty((n, len(kinds)))
    for j, kind in enumerate(kinds):
        fill, scale = draw(st.sampled_from(("random", 0.0, 1.0))), draw(SCALES)
        if fill != "random":
            Y[:, j] = fill + (scale if kind == "exponential" else 0.0)
        elif kind == "gaussian":
            Y[:, j] = scale * rng.normal(size=n)
        elif kind == "poisson":
            Y[:, j] = np.round(scale * rng.exponential(size=n))
        elif kind == "bernoulli":
            Y[:, j] = rng.integers(0, 2, size=n)
        else:
            Y[:, j] = scale * (rng.exponential(size=n) + 1e-3)
    R = np.column_stack([
        {"random": rng.random(n) < 0.6, "all": np.ones(n, bool), "none": np.zeros(n, bool)}[
            draw(st.sampled_from(("random", "all", "none")))] for _ in kinds])
    D = draw(st.sampled_from((0, 1, 2)))
    return blocks, draw(SCALES), dict(
        Y=np.where(R, Y, np.nan), X=draw(SCALES) * rng.normal(size=(n, D)),
        strata=np.repeat(np.arange(1, len(sizes) + 1), sizes),
        pi=np.minimum(1.0, draw(SCALES) * rng.uniform(0.05, 1.0, n)))


@settings(max_examples=300, deadline=None)
@given(survey=tiny_surveys(), design_weighted=st.booleans(), log2_tau=st.integers(-15, 1),
       clamp=st.sampled_from((0.5, 30.0)))
def test_two_stages_on_generated_surveys_raise_only_package_errors(survey, design_weighted,
                                                                   log2_tau, clamp):
    blocks, sigma, fields = survey
    try:
        ds = smc.MixedDataset(layout=smc.CategoryLayout.of(*blocks, sigma=sigma), **fields)
        p_hat = smc.estimate_response_probs(ds, use_design_weights=design_weighted).p_hat
        res = smc.fit_completion(ds, p_hat, 2.0**log2_tau,
                                 smc.SolverConfig(iterations=30, clamp=clamp))
    except SurveyMCError as exc:
        event(type(exc).__name__)
        return
    event("fit")
    assert helpers.trace_is_monotone(res)


@settings(max_examples=200, deadline=None)
@given(survey=tiny_surveys(), z_scale=SCALES, log2_tau=st.integers(-15, 1))
def test_loss_gradient_and_objective_fail_only_with_numerical_failure(survey, z_scale,
                                                                      log2_tau):
    blocks, sigma, fields = survey
    try:
        ds = smc.MixedDataset(layout=smc.CategoryLayout.of(*blocks, sigma=sigma), **fields)
    except SurveyMCError:
        return
    rng = np.random.default_rng(0)
    Z = z_scale * helpers.draw_natural(ds.layout, rng, ds.n)
    for fam, sl in ds.layout.slices():  # in the domain: exponential z <= -1e-8
        Z[:, sl] = np.minimum(Z[:, sl], fam.domain_box(1.0)[1])
    p_hat = rng.uniform(0.05, 1.0, ds.Y.shape)
    for call in (lambda: smc.weighted_loss(Z, ds, p_hat), lambda: smc.gradient(Z, ds, p_hat),
                 lambda: smc.objective(Z, ds, p_hat, 2.0**log2_tau)):
        try:
            value = call()
        except NumericalFailure:
            event("NumericalFailure")
            continue
        assert np.isfinite(value).all()
