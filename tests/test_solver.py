"""Weighted loss, gradient, descent loop, and tau tuning.

The loss and gradient are validated against an extended-precision oracle
written independently in helpers.py; the loop is checked for its exact
descent guarantee and its closed-form fixed point in the Gaussian case.
"""

from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import surveymc as smc
from surveymc.errors import (ColumnEmpty, FoldError, InvalidInput, NumericalFailure,
                             ShapeError)
from surveymc.solver import _Problem


def one_cell_dataset(kind, y, pi=1.0, sigma=1.0):
    lay = smc.CategoryLayout.of((kind, 1), sigma=sigma)
    Y = np.array([[y]])
    return smc.MixedDataset(Y=Y, R=~np.isnan(Y), X=np.ones((1, 1)),
                            strata=np.array([1]), pi=np.array([pi]), layout=lay)


def test_loss_single_entry_closed_form():
    # gaussian, y = z = 1, all weights 1, N = 1:  -y z + z^2/2 = -0.5
    ds = one_cell_dataset("gaussian", 1.0)
    probs = smc.ResponseProbModel.constant(1, 1, 1.0)
    ds1 = replace(ds, population_size=1.0)
    assert smc.weighted_loss([[1.0]], ds1, probs) == pytest.approx(-0.5, abs=1e-15)

    # poisson, y = 2, z = 0, pi = p_hat = 0.5, N from HT is 2:
    # W = 1/(2 * 1 * 0.5 * 0.5) = 2 and -y z + e^z = 1
    ds = one_cell_dataset("poisson", 2.0, pi=0.5)
    probs = smc.ResponseProbModel(fits={}, p_hat=np.array([[0.5]]), p_floor=0.5)
    assert smc.weighted_loss([[0.0]], ds, probs) == pytest.approx(2.0, abs=1e-15)


def test_loss_matches_extended_precision_oracle():
    rng = np.random.default_rng(0)
    ds, probs, Z = helpers.random_problem(rng)
    N = ds.ht_population_size()
    want = float(helpers.loss_oracle(Z, ds.Y, ds.R, ds.pi, probs.p_hat, ds.layout, N))
    assert smc.weighted_loss(Z, replace(ds, population_size=N), probs) == pytest.approx(
        want, rel=1e-13)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    ds, probs, Z = helpers.random_problem(rng, n=6,
                                          layout=helpers.mixed_layout(sigma=1.4))
    N = ds.ht_population_size()
    G = smc.gradient(Z, replace(ds, population_size=N), probs)
    FD = helpers.fd_gradient(Z, ds.Y, ds.R, ds.pi, probs.p_hat, ds.layout, N)
    assert np.linalg.norm(G - FD) / np.linalg.norm(FD) < 1e-6


def test_gradient_zero_at_missing_entries():
    rng = np.random.default_rng(2)
    ds, probs, Z = helpers.random_problem(rng, miss=0.5)
    G = smc.gradient(Z, ds, probs)
    assert np.all(G[~ds.R] == 0.0)
    assert np.any(G[ds.R] != 0.0)


def test_gradient_single_entry_closed_form():
    ds = one_cell_dataset("gaussian", 1.0)
    probs = smc.ResponseProbModel.constant(1, 1, 1.0)
    # W = 1, grad = g'(z) - y = z - 1
    ds1 = replace(ds, population_size=1.0)
    assert smc.gradient([[2.0]], ds1, probs)[0, 0] == pytest.approx(1.0, abs=1e-15)
    assert smc.gradient([[1.0]], ds1, probs)[0, 0] == 0.0


def test_gradient_scales_inversely_with_pi():
    rng = np.random.default_rng(3)
    ds, probs, Z = helpers.random_problem(rng)
    halved = smc.MixedDataset(Y=ds.Y, R=ds.R, X=ds.X, strata=ds.strata,
                              pi=ds.pi / 2.0, layout=ds.layout)
    G1 = smc.gradient(Z, replace(ds, population_size=500.0), probs)
    G2 = smc.gradient(Z, replace(halved, population_size=500.0), probs)
    npt.assert_allclose(G2, 2.0 * G1, rtol=1e-12)


def test_objective_composes_loss_and_penalty():
    rng = np.random.default_rng(4)
    ds, probs, Z = helpers.random_problem(rng)
    ds = replace(ds, population_size=200.0)
    cfg = smc.SolverConfig(tau=0.3)
    want = (smc.weighted_loss(Z, ds, probs)
            + 0.3 * smc.nuclear_norm(np.hstack([ds.X, Z])))
    assert smc.objective(Z, ds, probs, cfg) == pytest.approx(want, rel=1e-12)
    # X=None drops the augmentation
    want_plain = smc.weighted_loss(Z, ds, probs) + 0.3 * smc.nuclear_norm(Z)
    assert smc.objective(Z, ds, probs, cfg, X=None) == pytest.approx(want_plain, rel=1e-12)


def test_shape_and_domain_checks():
    rng = np.random.default_rng(5)
    ds, probs, Z = helpers.random_problem(rng)
    with pytest.raises(ShapeError):
        smc.weighted_loss(Z[:, :3], ds, probs)
    bad = Z.copy()
    bad[0, 0] = np.inf
    with pytest.raises(InvalidInput):
        smc.gradient(bad, ds, probs)
    wrong_p = smc.ResponseProbModel(fits={}, p_hat=np.full_like(Z, 1.5), p_floor=0.1)
    with pytest.raises(InvalidInput):
        smc.weighted_loss(Z, ds, wrong_p)


def test_config_validation():
    with pytest.raises(InvalidInput):
        smc.SolverConfig(tau=0.0)
    with pytest.raises(InvalidInput):
        smc.SolverConfig(tau=0.1, iterations=0)
    with pytest.raises(InvalidInput):
        smc.SolverConfig(tau=0.1, step_mode="fast")
    with pytest.raises(InvalidInput):
        smc.SolverConfig(tau=0.1, step_size=-1.0)
    with pytest.raises(InvalidInput):
        smc.SolverConfig(tau=0.1, clamp=0.0)


def fit_small(rng, tau=2.0**-8, iterations=60, **kw):
    ds, probs, _ = helpers.random_problem(rng, n=40)
    cfg = smc.SolverConfig(tau=tau, iterations=iterations, **kw)
    return smc.fit_completion(ds, probs, cfg), ds


def test_trace_is_exactly_monotone():
    for seed in range(4):
        res, _ = fit_small(np.random.default_rng(seed))
        assert helpers.trace_is_monotone(res)
        assert res.objective_trace.shape[0] == res.iterations_run + 1
        assert res.accepted.shape[0] == res.iterations_run


def test_as_printed_mode_still_descends():
    res, _ = fit_small(np.random.default_rng(6), step_mode="as_printed",
                       iterations=30)
    assert helpers.trace_is_monotone(res)


def test_explicit_step_size_still_descends():
    res, _ = fit_small(np.random.default_rng(7), step_size=0.5, iterations=30)
    assert helpers.trace_is_monotone(res)
    assert res.diagnostics["backtracks"] == 0


def test_iterate_stays_in_clamp_box():
    rng = np.random.default_rng(8)
    ds, probs, _ = helpers.random_problem(rng, n=30)
    cfg = smc.SolverConfig(tau=2.0**-10, iterations=40, clamp=3.0)
    res = smc.fit_completion(ds, probs, cfg)
    assert np.max(np.abs(res.Z_hat)) <= 3.0
    for fam, sl in ds.layout.slices():
        assert fam.in_domain(res.Z_hat[:, sl]).all()


def test_gaussian_identity_fixed_point():
    # fully observed gaussian data with unit weights: the loss alone is
    # minimized at Z = Y, so a vanishing penalty must land there
    rng = np.random.default_rng(9)
    n, L = 25, 8
    lay = smc.CategoryLayout.of(("gaussian", L))
    Y = rng.normal(size=(n, L))
    ds = smc.MixedDataset(Y=Y, R=np.ones((n, L), dtype=bool), X=np.ones((n, 1)),
                          strata=np.ones(n, dtype=np.int64), pi=np.ones(n),
                          layout=lay, population_size=float(n))
    probs = smc.ResponseProbModel.constant(n, L, 1.0)
    cfg = smc.SolverConfig(tau=2.0**-40, iterations=300)
    res = smc.fit_completion(ds, probs, cfg, X=None)
    assert np.max(np.abs(res.Z_hat - Y)) < 1e-3


def early_stop_problem():
    rng = np.random.default_rng(10)
    n, L = 20, 6
    lay = smc.CategoryLayout.of(("gaussian", L))
    Y = rng.normal(size=(n, L))
    ds = smc.MixedDataset(Y=Y, R=np.ones((n, L), dtype=bool), X=np.ones((n, 1)),
                          strata=np.ones(n, dtype=np.int64), pi=np.ones(n),
                          layout=lay, population_size=float(n))
    return ds, smc.ResponseProbModel.constant(n, L, 1.0)


def test_early_stop():
    # a fully observed gaussian problem converges fast, so the loop must stop
    # at its fixed point well short of the iteration cap
    ds, probs = early_stop_problem()
    res = smc.fit_completion(ds, probs, smc.SolverConfig(tau=2.0**-30, iterations=500),
                             X=None)
    assert res.diagnostics["stop"] == "fixed_point"
    assert res.iterations_run == 3 and not res.accepted[-1]
    assert helpers.trace_is_monotone(res)


def test_steps_without_a_majorant_check_keep_their_momentum():
    # as_printed and a fixed step need not be descent steps, so a rejected
    # plain step proves nothing there: their momentum extrapolates through
    # rejected candidates and they run to the cap.  Restarting as_printed at
    # tau 2^-8 would stop it after one iteration at -0.1078.
    ds, probs = early_stop_problem()
    for kw, reach in [(dict(tau=2.0**-8, step_mode="as_printed"), -0.3031),
                      (dict(tau=2.0**-30, step_size=50.0), -0.38596)]:
        res = smc.fit_completion(ds, probs, smc.SolverConfig(iterations=500, **kw), X=None)
        assert res.diagnostics["stop"] == "cap" and res.diagnostics["restarts"] == 0
        assert res.iterations_run == 500 and res.objective_trace[-1] <= reach
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
    ds, probs, _ = helpers.random_problem(rng, n=40)
    small = smc.fit_completion(ds, probs, smc.SolverConfig(tau=2.0**-12, iterations=60), X=None)
    large = smc.fit_completion(ds, probs, smc.SolverConfig(tau=2.0**2, iterations=60), X=None)
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
        ds = smc.MixedDataset(Y=Y_pop[rows], R=np.ones((len(rows), 4), dtype=bool),
                              X=np.ones((len(rows), 1)),
                              strata=strata_pop[rows], pi=pi, layout=lay)
        probs = smc.ResponseProbModel.constant(len(rows), 4, 1.0)
        draws.append(smc.weighted_loss(Z_pop[rows], replace(ds, population_size=float(N)),
                                       probs))
    draws = np.asarray(draws)
    se = draws.std(ddof=1) / np.sqrt(draws.size)
    assert abs(draws.mean() - census) <= 3 * se


def test_grid_search_tie_breaks_toward_larger():
    # zero is in-domain for this layout, so two huge taus both collapse the
    # iterate to the exact zero matrix: the scores tie and the larger wins
    rng = np.random.default_rng(15)
    lay = smc.CategoryLayout.of(("gaussian", 4), ("poisson", 4), ("bernoulli", 4))
    ds, probs, Z = helpers.random_problem(rng, n=20, layout=lay)

    def score(t):
        res = smc.fit_completion(ds, probs, smc.SolverConfig(tau=t, iterations=5), X=None)
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
    ds, probs, _ = helpers.random_problem(rng, n=30)
    grid = (2.0**-8, 2.0**-4)
    base = smc.SolverConfig(tau=grid[0], iterations=25)
    out = smc.tune_tau(ds, probs, grid=grid, folds=3, seed=0, base_config=base)
    assert out.best_tau in grid
    assert all(np.isfinite(out.scores))
    # deterministic in the fold seed
    again = smc.tune_tau(ds, probs, grid=grid, folds=3, seed=0, base_config=base)
    assert out == again


def test_tune_tau_errors():
    rng = np.random.default_rng(17)
    ds, probs, Z = helpers.random_problem(rng, n=20)
    with pytest.raises(InvalidInput):
        smc.tune_tau(ds, probs, grid=())
    with pytest.raises(InvalidInput):
        smc.tune_tau(ds, probs, grid=(0.0, 1.0))
    with pytest.raises(InvalidInput):
        smc.tune_tau(ds, probs, folds=1)
    few = one_cell_dataset("gaussian", 1.0)
    few_probs = smc.ResponseProbModel.constant(1, 1, 1.0)
    with pytest.raises(FoldError):
        smc.tune_tau(few, few_probs, grid=(0.1,), folds=5)


def test_fit_rejects_dataset_without_observed_response():
    rng = np.random.default_rng(18)
    ds, probs, _ = helpers.random_problem(rng, n=10)
    empty = ds.with_mask(np.zeros_like(ds.R))
    for mode in ("standard_prox", "as_printed"):
        with pytest.raises(ColumnEmpty):
            smc.fit_completion(empty, probs, smc.SolverConfig(tau=0.1, step_mode=mode))


GPB = smc.CategoryLayout.of(("gaussian", 4), ("poisson", 4), ("bernoulli", 4))


@settings(max_examples=100, deadline=None)
@given(n=st.integers(3, 40), with_x=st.booleans(), rank=st.integers(1, 6),
       thresh_frac=st.floats(1e-4, 1.2), seed=st.integers(0, 2**32 - 1))
def test_factor_penalty_matches_full_nuclear_norm(n, with_x, rank, thresh_frac, seed):
    rng = np.random.default_rng(seed)
    ds, probs, _ = helpers.random_problem(rng, n=n, layout=GPB)
    prob = _Problem(ds, probs, tau=0.3, clamp=30.0, X=ds.X if with_x else None)
    T = rng.normal(size=(n, rank)) @ rng.normal(size=(rank, GPB.n_cols))
    T += 0.1 * rng.normal(size=T.shape)
    M = T if prob.X is None else np.hstack([prob.X, T])
    cand, moved, factors = prob.prox_step(T, thresh_frac * np.linalg.norm(M, 2))
    assert moved == 0 and factors is not None
    full = 0.3 * smc.nuclear_norm(cand if prob.X is None else np.hstack([prob.X, cand]))
    assert prob.penalty(cand) == full
    assert abs(prob.penalty(cand, factors) - full) <= 1e-12 * full


def test_clipped_candidate_takes_the_full_penalty():
    rng = np.random.default_rng(19)
    ds, probs, _ = helpers.random_problem(rng, n=20, layout=GPB)
    prob = _Problem(ds, probs, tau=0.3, clamp=0.5, X=ds.X)
    cand, moved, factors = prob.prox_step(5.0 * rng.normal(size=ds.Y.shape), 0.1)
    assert moved > 0 and factors is None
    assert np.all(np.abs(cand) <= 0.5)


@pytest.mark.parametrize("clamp", [30.0, 0.5])
def test_recorded_objective_is_the_objective_of_z_hat(clamp):
    # the trace's last value was priced by the factor penalty when the final
    # candidate was not clipped and by the full SVD when it was
    rng = np.random.default_rng(20)
    ds, probs, _ = helpers.random_problem(rng, n=40, layout=GPB)
    cfg = smc.SolverConfig(tau=2.0**-6, iterations=60, clamp=clamp)
    for X in (ds.X, None):
        res = smc.fit_completion(ds, probs, cfg, X=X)
        assert res.diagnostics["accepted_steps"] > 0
        assert (res.diagnostics["domain_projections"] > 0) == (clamp < 1.0)
        want = smc.objective(res.Z_hat, ds, probs, cfg, X=X)
        assert abs(res.objective_trace[-1] - want) <= 1e-12 * max(1.0, abs(want))


def small_survey():
    spec = smc.PopulationSpec(n_strata=4, m1=5, m2=10, layout=smc.CategoryLayout.of(
        ("gaussian", 10), ("poisson", 10), ("bernoulli", 10)), xi=0.3, n_covariates=3)
    _, sample = smc.simulate_survey(spec, np.random.default_rng(0))
    return sample.dataset, smc.estimate_response_probs(sample.dataset, p_floor=0.01)


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
    # 200 iterations, no clipping: the full-size SVDs are the rank-1 start,
    # the initial objective and the diagnostics, not one or two per iteration
    ds, probs = small_survey()
    calls = counting_svd(monkeypatch)
    res = smc.fit_completion(ds, probs, smc.SolverConfig(tau=2.0**-10, iterations=200))
    assert res.iterations_run == 200 and res.diagnostics["domain_projections"] == 0
    assert calls.count(ds.n) == 3
    # plus, per iteration, the SVD of the Gram matrix and a (D+k) x (D+L) one
    assert len(calls) == 3 + 2 * 200


def test_backend_failures_in_a_fit_are_numerical_failures(monkeypatch):
    ds, probs = small_survey()
    cfg = smc.SolverConfig(tau=2.0**-10, iterations=3)
    calls = counting_svd(monkeypatch)
    smc.fit_completion(ds, probs, cfg)
    monkeypatch.undo()
    counting_svd(monkeypatch, raise_at=len(calls))  # the diagnostics spectrum
    with pytest.raises(NumericalFailure):
        smc.fit_completion(ds, probs, cfg)
    monkeypatch.undo()
    calls = counting_svd(monkeypatch, raise_at=3)  # the first prox step's Gram SVD
    with pytest.raises(NumericalFailure):
        smc.fit_completion(ds, probs, cfg)
    assert calls[-1] == ds.layout.n_cols + ds.X.shape[1]


STOP_MODES = {"standard_prox": {}, "as_printed": dict(step_mode="as_printed"),
              "fixed step": dict(step_size=0.5), "active clamp": dict(clamp=0.5)}


def next_plain_step(prob, ds, cfg, Z, eta):
    """The candidate and step size of a plain automatic step from Z that
    starts where the loop's next iteration would, written out from the
    method's rules."""
    G = prob.grad(Z)
    Z0 = prob.project(smc.rank1_approx(np.where(ds.R, np.nan_to_num(ds.Y), 0.0)))[0]
    eta = min(1.0 / prob.curvature_bound(min(cfg.clamp, max(1.0, np.max(np.abs(Z0))))),
              2.0 * eta)
    loss_Z = prob.loss(Z)
    while True:  # halve while the quadratic majorant is violated
        step = prob.prox_step(Z - eta * G, eta * cfg.tau)
        diff = step[0] - Z
        majorant = loss_Z + float(np.vdot(G, diff)) + float(np.vdot(diff, diff)) / (2.0 * eta)
        if prob.loss(step[0]) <= majorant + 1e-12 * max(1.0, abs(loss_Z)):
            return step, eta
        eta *= 0.5


@settings(max_examples=80, deadline=None)
@given(mode=st.sampled_from(sorted(STOP_MODES)), n=st.integers(2, 12),
       log2_tau=st.integers(-12, 0), with_x=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_a_fit_stopped_before_its_cap_is_a_fixed_point(mode, n, log2_tau, with_x, seed):
    rng = np.random.default_rng(seed)
    ds, probs, _ = helpers.random_problem(rng, n=n, layout=helpers.mixed_layout())
    cfg = smc.SolverConfig(tau=2.0**log2_tau, iterations=300, **STOP_MODES[mode])
    X = ds.X if with_x else None
    res = smc.fit_completion(ds, probs, cfg, X=X)
    t = res.objective_trace
    assert np.all(np.diff(t) <= 0)
    if res.diagnostics["stop"] == "cap":
        assert res.iterations_run == cfg.iterations
        return
    # only the automatic step is checked against a majorant, so only it stops
    assert cfg.step_mode == "standard_prox" and cfg.step_size is None
    assert res.iterations_run <= cfg.iterations and not res.accepted[-1]
    # one more plain step from Z_hat, priced as the loop prices it, does not
    # lower the objective, and it ends at step_size_final: the next iteration
    # would repeat the last one
    prob = _Problem(ds, probs, cfg.tau, cfg.clamp, X)
    eta = res.diagnostics["step_size_final"]
    (cand, _, factors), eta_next = next_plain_step(prob, ds, cfg, res.Z_hat, eta)
    assert eta_next == eta
    assert prob.loss(cand) + prob.penalty(cand, factors) >= t[-1]
    # the trace ends at the objective of Z_hat (factor penalty vs full SVD)
    want = smc.objective(res.Z_hat, ds, probs, cfg, X=X)
    assert abs(t[-1] - want) <= 1e-12 * max(1.0, abs(want))
