"""Scoring identities and the Monte Carlo harness."""

import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import surveymc as smc
import surveymc.benchmark
from surveymc.benchmark import (METHODS, block_relative_errors, relative_error,
                                run_benchmark, tune_benchmark_taus)
from surveymc.errors import DegenerateTruth, InvalidInput, ShapeError
from surveymc.simulator import simulate_survey

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


def test_benchmark_runs_replicates_in_order_in_the_calling_thread(monkeypatch):
    seen = []

    def spy(spec, rng):
        seen.append((threading.get_ident(), list(rng.bit_generator.seed_seq.entropy)))
        return simulate_survey(spec, rng)
    monkeypatch.setattr(surveymc.benchmark, "simulate_survey", spy)
    run_benchmark(tiny_spec(), methods=("hot_deck",), n_replicates=3, base_seed=11)
    assert seen == [(threading.get_ident(), [11 ^ r, 0]) for r in (1, 2, 3)]


def test_benchmark_validation():
    with pytest.raises(InvalidInput):
        run_benchmark(tiny_spec(), methods=("ipw", "nope"), n_replicates=2)
    with pytest.raises(InvalidInput):
        run_benchmark(tiny_spec(), n_replicates=1)
    # numpy would reject the replicate seeds base_seed ^ r only mid-run
    for entry in (run_benchmark, tune_benchmark_taus):
        with pytest.raises(InvalidInput):
            entry(tiny_spec(), base_seed=-1)


# each entry point with one count or seed set to a value, and that count's minimum
_DS, _PROBS, _ = helpers.random_problem(np.random.default_rng(0), n=10)
COUNT_ARGS = {
    "SolverConfig.iterations": (1, lambda v: smc.SolverConfig(tau=0.1, iterations=v)),
    "tune_tau.folds": (2, lambda v: smc.tune_tau(_DS, _PROBS, folds=v)),
    "tune_tau.seed": (0, lambda v: smc.tune_tau(_DS, _PROBS, seed=v)),
    "run_benchmark.n_replicates": (2, lambda v: run_benchmark(tiny_spec(), n_replicates=v)),
    "run_benchmark.base_seed": (0, lambda v: run_benchmark(tiny_spec(), base_seed=v)),
    "tune_benchmark_taus.base_seed": (0, lambda v: tune_benchmark_taus(tiny_spec(),
                                                                        base_seed=v)),
    "ResponseProbModel.constant.n": (1, lambda v: smc.ResponseProbModel.constant(v, 2)),
    "ResponseProbModel.constant.n_cols": (1, lambda v: smc.ResponseProbModel.constant(2, v)),
}


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_bad_counts_and_seeds_are_invalid_input(data):
    minimum, call = COUNT_ARGS[data.draw(st.sampled_from(sorted(COUNT_ARGS)))]
    bad = data.draw(st.one_of(st.integers(max_value=minimum - 1), st.floats(),
                              st.text(max_size=3), st.none()))
    with pytest.raises(InvalidInput):
        call(bad)


# each entry point with one real setting set to a value, the open interval
# (low, high) that setting must lie in, and whether +inf is valid too
_REAL_SETTINGS = {
    "SolverConfig.tau": (0.0, np.inf, False, lambda v: smc.SolverConfig(tau=v)),
    "SolverConfig.clamp": (0.0, np.inf, True, lambda v: smc.SolverConfig(tau=0.1, clamp=v)),
    "PopulationSpec.xi": (-np.inf, np.inf, False, lambda v: replace(tiny_spec(), xi=v)),
    "Family.sigma": (0.0, np.inf, False, lambda v: smc.Family("gaussian", sigma=v)),
    "estimate_response_probs.p_floor": (0.0, 1.0, False,
                                        lambda v: smc.estimate_response_probs(_DS, p_floor=v)),
    "grid_search.grid": (0.0, np.inf, False, lambda v: smc.grid_search((v,), float)),
}
_TRUTH = smc.generate_population(tiny_spec(), np.random.default_rng(0))
_SAMPLE = smc.draw_sample(_TRUTH, tiny_spec(), np.random.default_rng(1))
# entry points taking a generator or a layout, given some other value
_OBJECT_ARGS = {
    "PopulationSpec.layout": lambda v: replace(tiny_spec(), layout=v),
    "simulate_survey": lambda v: smc.simulate_survey(tiny_spec(), v),
    "generate_population": lambda v: smc.generate_population(tiny_spec(), v),
    "draw_sample": lambda v: smc.draw_sample(_TRUTH, tiny_spec(), v),
    "impose_responses_and_missingness": lambda v: smc.impose_responses_and_missingness(
        _SAMPLE, _TRUTH, v),
    "Family.sample": lambda v: smc.Family("poisson").sample(np.zeros(3), v),
    "hot_deck": lambda v: smc.hot_deck(_DS, v),
}


def _parses_as_float(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


JUNK = st.one_of(st.none(), st.text(max_size=3).filter(lambda t: not _parses_as_float(t)),
                 st.lists(st.floats(), max_size=2), st.complex_numbers(), st.just(10**400))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_bad_reals_generators_and_layouts_are_invalid_input(data):
    if data.draw(st.booleans()):
        low, high, inf_ok, call = _REAL_SETTINGS[data.draw(st.sampled_from(
            sorted(_REAL_SETTINGS)))]
        outside = st.floats().filter(lambda x: not (low < x < high or inf_ok and x == np.inf))
        bad = data.draw(st.one_of(outside, JUNK))
    else:
        call = _OBJECT_ARGS[data.draw(st.sampled_from(sorted(_OBJECT_ARGS)))]
        bad = data.draw(st.one_of(st.integers(), st.floats(), JUNK))
    with pytest.raises(InvalidInput):
        call(bad)


def test_legacy_random_state_still_drives_the_simulator():
    _, sample = smc.simulate_survey(tiny_spec(), np.random.RandomState(0))
    assert sample.dataset.R.any()
    with pytest.raises(InvalidInput):  # the hot deck draws with Generator.integers
        smc.hot_deck(sample.dataset, np.random.RandomState(0))


def test_tune_benchmark_taus_smoke():
    cfg = smc.SolverConfig(tau=2.0**-8, iterations=20)
    grid = (2.0**-10, 2.0**-6, 2.0**-2)
    out = tune_benchmark_taus(tiny_spec(), methods=("ipw", "soft_impute", "hot_deck"),
                              grid=grid, base_seed=11, config=cfg)
    assert set(out) == {"ipw", "soft_impute"}   # hot deck has no tau
    assert all(t in grid for t in out.values())


def test_tune_benchmark_taus_pinned_values():
    # ipw and collective_unweighted recorded before the methods moved behind
    # one registry and one tuning loop; soft_impute re-recorded when it became
    # the unweighted solver on an all-gaussian layout (its tau was the grid
    # maximum 2.0, its loss then unscaled by 1/(n L))
    cfg = smc.SolverConfig(tau=2.0**-8, iterations=20)
    out = tune_benchmark_taus(tiny_spec(), methods=METHODS, base_seed=11, config=cfg)
    assert out == {"ipw": 2.0**-6, "collective_unweighted": 2.0, "soft_impute": 2.0**-8}


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
        "soft_impute": lambda t: smc.soft_impute(ds, replace(cfg, tau=t)).Z_hat_natural,
    }
    assert set(out) == set(direct)
    for name, fit in direct.items():
        scores = [relative_error(fit(t), sample.truth_Z) for t in grid]
        best = min(scores)
        assert out[name] == grid[max(i for i, s in enumerate(scores) if s == best)], name
