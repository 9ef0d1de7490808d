"""Scoring identities and the Monte Carlo harness."""

from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

import surveymc as smc
from surveymc.benchmark import (METHODS, block_relative_errors, relative_error,
                                run_benchmark, tune_benchmark_taus)
from surveymc.errors import DegenerateTruth, InvalidInput, ShapeError

TINY = smc.CategoryLayout.of(("gaussian", 4), ("poisson", 4), ("bernoulli", 4))


def tiny_spec():
    return smc.PopulationSpec(n_strata=3, m1=3, m2=8, layout=TINY, xi=0.3,
                              n_covariates=2)


def test_relative_error():
    assert relative_error([[1.0, 1.0]], [[1.0, 2.0]]) == pytest.approx(1 / np.sqrt(5))
    assert relative_error([[2.0]], [[2.0]]) == 0.0
    with pytest.raises(DegenerateTruth):
        relative_error([[1.0]], [[0.0]])
    with pytest.raises(ShapeError):
        relative_error([[1.0]], [[1.0, 2.0]])


def test_block_errors_decompose_the_overall_error():
    rng = np.random.default_rng(0)
    est = rng.normal(size=(10, TINY.n_cols))
    ref = rng.normal(size=(10, TINY.n_cols))
    out = block_relative_errors(est, ref, TINY)
    assert set(out) == {"block1_gaussian", "block2_poisson", "block3_bernoulli", "overall"}
    num = den = 0.0
    for i, (fam, sl) in enumerate(TINY.slices()):
        d = float(np.sum(ref[:, sl] ** 2))
        num += out[f"block{i + 1}_{fam.kind}"] ** 2 * d
        den += d
    assert out["overall"] == pytest.approx(np.sqrt(num / den), rel=1e-12)
    assert out["overall"] == pytest.approx(relative_error(est, ref), rel=1e-12)


def test_block_errors_reject_zero_block():
    ref = np.ones((4, TINY.n_cols))
    ref[:, :4] = 0.0
    with pytest.raises(DegenerateTruth):
        block_relative_errors(np.ones_like(ref), ref, TINY)


@pytest.fixture(scope="module")
def tiny_run():
    cfg = smc.SolverConfig(tau=2.0**-8, iterations=30)
    return run_benchmark(tiny_spec(), methods=METHODS, n_replicates=2,
                         taus={m: 2.0**-8 for m in METHODS}, base_seed=11,
                         config=cfg)


def test_benchmark_report_structure(tiny_run):
    assert [r.replicate for r in tiny_run.reports] == [1, 2]
    assert [r.seed for r in tiny_run.reports] == [11 ^ 1, 11 ^ 2]
    for rep in tiny_run.reports:
        assert not rep.failures
        assert 0.0 < rep.response_rate < 1.0
        for method in METHODS:
            labels = set(rep.re[method])
            assert "overall" in labels and "overall_mean_scale" in labels
            assert all(np.isfinite(v) for v in rep.re[method].values())
    assert tiny_run.n_failures == {m: 0 for m in METHODS}


def test_benchmark_aggregate_matches_reports(tiny_run):
    for method in METHODS:
        vals = [rep.re[method]["overall"] for rep in tiny_run.reports]
        mean, se, count = tiny_run.aggregate[method]["overall"]
        assert count == 2
        assert mean == pytest.approx(np.mean(vals), rel=1e-12)
        assert se == pytest.approx(np.std(vals, ddof=1) / np.sqrt(2), rel=1e-12)


def test_benchmark_is_deterministic(tiny_run):
    cfg = smc.SolverConfig(tau=2.0**-8, iterations=30)
    again = run_benchmark(tiny_spec(), methods=METHODS, n_replicates=2,
                          taus={m: 2.0**-8 for m in METHODS}, base_seed=11,
                          config=cfg)
    for a, b in zip(tiny_run.reports, again.reports):
        assert a.re == b.re              # wall_time may differ, results not
        assert a.response_rate == b.response_rate
    assert tiny_run.aggregate == again.aggregate


def test_benchmark_threads_do_not_change_results(tiny_run):
    cfg = smc.SolverConfig(tau=2.0**-8, iterations=30)
    par = run_benchmark(tiny_spec(), methods=METHODS, n_replicates=2,
                        taus={m: 2.0**-8 for m in METHODS}, base_seed=11,
                        config=cfg, threads=2)
    for a, b in zip(tiny_run.reports, par.reports):
        assert a.re == b.re


def test_benchmark_validation():
    with pytest.raises(InvalidInput):
        run_benchmark(tiny_spec(), methods=("ipw", "nope"), n_replicates=2)
    with pytest.raises(InvalidInput):
        run_benchmark(tiny_spec(), n_replicates=1)


@pytest.mark.parametrize("threads", [0, -4])
def test_benchmark_rejects_nonpositive_threads(threads):
    with pytest.raises(InvalidInput):
        run_benchmark(tiny_spec(), methods=("hot_deck",), n_replicates=2, threads=threads)


def test_tune_benchmark_taus_smoke():
    cfg = smc.SolverConfig(tau=2.0**-8, iterations=20)
    grid = (2.0**-10, 2.0**-6, 2.0**-2)
    out = tune_benchmark_taus(tiny_spec(), methods=("ipw", "soft_impute", "hot_deck"),
                              grid=grid, base_seed=11, config=cfg)
    assert set(out) == {"ipw", "soft_impute"}   # hot deck has no tau
    assert all(t in grid for t in out.values())


def test_tune_benchmark_taus_pinned_values():
    # recorded before the methods moved behind one registry and one tuning loop
    cfg = smc.SolverConfig(tau=2.0**-8, iterations=20)
    out = tune_benchmark_taus(tiny_spec(), methods=METHODS, base_seed=11, config=cfg)
    assert out == {"ipw": 2.0**-6, "collective_unweighted": 2.0, "soft_impute": 2.0}


def test_tune_benchmark_taus_rejects_unknown_method():
    with pytest.raises(InvalidInput):
        tune_benchmark_taus(tiny_spec(), methods=("nope",))
    with pytest.raises(InvalidInput):
        tune_benchmark_taus(tiny_spec(), methods=("ipw", "nope"))


def test_tune_benchmark_taus_scores_reproduce_direct_fits():
    # rebuild the validation replicate (id 0) and fit every tau directly:
    # each tuned tau is the last argmin of the relative error over the grid
    base_seed, p_floor = 11, 0.01
    cfg = smc.SolverConfig(tau=2.0**-8, iterations=20)
    grid = (2.0**-10, 2.0**-6, 2.0**-2)
    out = tune_benchmark_taus(tiny_spec(), methods=METHODS, grid=grid,
                              base_seed=base_seed, config=cfg, p_floor=p_floor)
    _, sample = smc.simulate_survey(tiny_spec(), np.random.default_rng([base_seed, 0]))
    ds = sample.dataset
    probs = smc.estimate_response_probs(ds, p_floor=p_floor)
    direct = {
        "ipw": lambda t: smc.fit_completion(ds, probs, replace(cfg, tau=t)).Z_hat,
        "collective_unweighted": lambda t: smc.collective_unweighted(
            ds, replace(cfg, tau=t)).Z_hat_natural,
        "soft_impute": lambda t: smc.soft_impute(ds.Y, ds.R, t, layout=ds.layout,
                                                 clamp=cfg.clamp).Z_hat_natural,
    }
    assert set(out) == set(direct)
    for name, fit in direct.items():
        scores = [relative_error(fit(t), sample.truth_Z) for t in grid]
        best = min(scores)
        assert out[name] == grid[max(i for i, s in enumerate(scores) if s == best)], name
