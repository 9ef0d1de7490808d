"""Scoring identities and the Monte Carlo harness."""

import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import surveymc as smc
import surveymc.benchmark
from helpers import TINY, tiny_spec
from surveymc.benchmark import (METHODS, block_relative_errors, relative_error,
                                run_benchmark, tune_benchmark_taus)
from surveymc.errors import DegenerateTruth, InvalidInput, NumericalFailure, ShapeError
from surveymc.io import write_benchmark_csvs
from surveymc.simulator import simulate_survey


def test_relative_error():
    assert relative_error([[1.0, 1.0]], [[1.0, 2.0]]) == pytest.approx(1 / np.sqrt(5))
    assert relative_error([[2.0]], [[2.0]]) == 0.0
    with pytest.raises(DegenerateTruth):
        relative_error([[1.0]], [[0.0]])
    with pytest.raises(ShapeError):
        relative_error([[1.0]], [[1.0, 2.0]])


def test_relative_error_is_bit_identical_across_blas_thread_counts():
    # np.linalg.norm's BLAS dot split this size's sum across 2 OpenBLAS
    # threads and moved the last bit
    src = os.path.dirname(os.path.dirname(smc.__file__))
    code = ("import numpy as np; from surveymc.benchmark import relative_error; "
            "rng = np.random.default_rng(0); "
            "print(relative_error(rng.normal(size=(4500, 150)), "
            "rng.normal(size=(4500, 150))).hex())")
    outs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout.strip())
    assert outs[0] == outs[1]


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


def test_block_errors_need_the_layout_width():
    # a wider pair was once scored on the columns the layout covers only
    est = np.ones((4, TINY.n_cols + 1))
    with pytest.raises(ShapeError, match="layout covers 12 columns, estimate has 13"):
        block_relative_errors(est, 2.0 * est, TINY)
    with pytest.raises(ShapeError):
        block_relative_errors(est[:, 1:], est, TINY)


def test_block_errors_reject_zero_block():
    ref = np.ones((4, TINY.n_cols))
    ref[:, :4] = 0.0
    with pytest.raises(DegenerateTruth):
        block_relative_errors(np.ones_like(ref), ref, TINY)


@pytest.fixture(scope="module")
def tiny_run():
    cfg = smc.SolverConfig(iterations=30)
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
    cfg = smc.SolverConfig(iterations=30)
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
    run_benchmark(tiny_spec(), methods=("hot_deck",), n_replicates=3, taus={}, base_seed=11)
    assert seen == [(threading.get_ident(), [11 ^ r, 0]) for r in (1, 2, 3)]


def test_a_method_scored_on_one_replicate_writes_its_standard_error_as_na(monkeypatch,
                                                                           tmp_path):
    # the standard error of a single score is NaN, which summary.csv once wrote as nan
    calls, hot_deck = [], surveymc.benchmark.hot_deck

    def first_only(ds, rng, clamp):
        calls.append(1)
        if len(calls) > 1:
            raise NumericalFailure("synthetic")
        return hot_deck(ds, rng, clamp=clamp)
    monkeypatch.setattr(surveymc.benchmark, "hot_deck", first_only)
    summary = run_benchmark(tiny_spec(), methods=("hot_deck",), n_replicates=3, taus={})
    assert summary.n_failures == {"hot_deck": 2}
    write_benchmark_csvs(summary, tmp_path / "summary.csv", tmp_path / "replicates.csv")
    rows = (tmp_path / "summary.csv").read_text().splitlines()[1:]
    assert rows and all(row.split(",")[4:] == ["NA", "1", "2"] for row in rows)


def test_a_summary_counts_and_aggregates_what_its_reports_hold():
    # ipw fails on replicates 2 and 3, so its one score has a NaN standard error
    scores = {1: {"ipw": 0.5, "hot_deck": 2.0}, 2: {"hot_deck": 3.0}, 3: {"hot_deck": 7.0}}
    reports = tuple(smc.ReplicationReport(
        replicate=r, seed=11 ^ r, response_rate=0.5, wall_time=0.0,
        re={m: {"overall": s, "block1_gaussian": 2 * s} for m, s in scores[r].items()},
        failures={} if r == 1 else {"ipw": "NumericalFailure: synthetic"}) for r in scores)
    summary = smc.BenchmarkSummary(spec=tiny_spec(), methods=("ipw", "hot_deck"),
                                   reports=reports)
    assert summary.n_failures == {"ipw": 2, "hot_deck": 0}
    assert summary.failures == {"ipw": {2: "NumericalFailure: synthetic",
                                        3: "NumericalFailure: synthetic"}, "hot_deck": {}}
    hot = np.array([2.0, 3.0, 7.0])
    for lab, k in (("overall", 1), ("block1_gaussian", 2)):
        mean, se, count = summary.aggregate["hot_deck"][lab]
        assert (mean, count) == (pytest.approx(k * hot.mean(), rel=1e-15), 3)
        assert se == pytest.approx(k * hot.std(ddof=1) / np.sqrt(3), rel=1e-15)
        mean, se, count = summary.aggregate["ipw"][lab]
        assert (mean, count) == (k * 0.5, 1) and np.isnan(se)
    assert list(summary.aggregate["hot_deck"]) == ["overall", "block1_gaussian"]


_TAUS = {m: 0.1 for m in METHODS}


def test_benchmark_validation():
    with pytest.raises(InvalidInput, match="unknown method 'nope'"):
        run_benchmark(tiny_spec(), methods=("ipw", "nope"), n_replicates=2, taus=_TAUS)
    with pytest.raises(InvalidInput, match="replicates"):
        run_benchmark(tiny_spec(), n_replicates=1, taus=_TAUS)
    # numpy would reject the replicate seeds base_seed ^ r only mid-run
    for entry, kwargs in ((run_benchmark, {"taus": _TAUS}), (tune_benchmark_taus, {})):
        with pytest.raises(InvalidInput, match="base_seed"):
            entry(tiny_spec(), base_seed=-1, **kwargs)


def test_run_benchmark_needs_a_tau_for_every_tuned_method(monkeypatch):
    # a tuned method without a tau once fell back to the config's tau
    def boom(*args, **kwargs):
        raise AssertionError("a replicate was drawn")
    monkeypatch.setattr(surveymc.benchmark, "simulate_survey", boom)
    for taus in ({}, {"soft_impute": 0.1, "hot_deck": 0.1}):
        with pytest.raises(InvalidInput, match="'ipw'"):
            run_benchmark(tiny_spec(), methods=("ipw", "soft_impute"), taus=taus)
    for tau in (0.0, np.nan, None, "0.1"):
        with pytest.raises(InvalidInput, match="'ipw'"):
            run_benchmark(tiny_spec(), methods=("ipw",), taus={"ipw": tau})
    # a tau for a method not requested was once kept, so a misspelt name went
    # unnoticed, and an untuned method's tau went unchecked
    for taus, name in (({"ipx": 1.0}, "'ipx'"), ({"ipw": 0.1, "hot_deck": 0.1}, "'ipw'"),
                       ({"hot_deck": "junk"}, "'hot_deck'"), ({"hot_deck": 0.0}, "'hot_deck'")):
        with pytest.raises(InvalidInput, match=name):
            run_benchmark(tiny_spec(), methods=("hot_deck",), n_replicates=2, taus=taus)
    with pytest.raises(InvalidInput, match="'ipx'"):
        run_benchmark(tiny_spec(), methods=("ipw",), taus={"ipw": 0.1, "ipx": 1.0})


def test_legacy_random_state_still_drives_the_simulator():
    _, sample = smc.simulate_survey(tiny_spec(), np.random.RandomState(0))
    assert sample.dataset.R.any()
    with pytest.raises(InvalidInput):  # the hot deck draws with Generator.integers
        smc.hot_deck(sample.dataset, np.random.RandomState(0))


def test_tune_benchmark_taus_smoke():
    cfg = smc.SolverConfig(iterations=20)
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
    cfg = smc.SolverConfig(iterations=20)
    out = tune_benchmark_taus(tiny_spec(), methods=METHODS, base_seed=11, config=cfg)
    assert out == {"ipw": 2.0**-6, "collective_unweighted": 2.0, "soft_impute": 2.0**-8}


def test_tune_benchmark_taus_rejects_unknown_method():
    with pytest.raises(InvalidInput):
        tune_benchmark_taus(tiny_spec(), methods=("nope",))
    with pytest.raises(InvalidInput):
        tune_benchmark_taus(tiny_spec(), methods=("ipw", "nope"))
    with pytest.raises(InvalidInput, match="sequence of method names"):  # not ("i", "p", "w")
        tune_benchmark_taus(tiny_spec(), methods="ipw")
    for entry, kwargs in ((run_benchmark, {"taus": _TAUS}), (tune_benchmark_taus, {})):
        with pytest.raises(InvalidInput, match="at least one"):  # nothing would be fitted
            entry(tiny_spec(), methods=(), **kwargs)


def test_tune_benchmark_taus_scores_reproduce_direct_fits():
    # rebuild the validation replicate (id 0) and fit every tau directly:
    # each tuned tau is the last argmin of the relative error over the grid
    base_seed, p_floor = 11, 0.01
    cfg = smc.SolverConfig(iterations=20)
    grid = (2.0**-10, 2.0**-6, 2.0**-2)
    out = tune_benchmark_taus(tiny_spec(), methods=METHODS, grid=grid,
                              base_seed=base_seed, config=cfg, p_floor=p_floor)
    _, sample = smc.simulate_survey(tiny_spec(), np.random.default_rng([base_seed, 0]))
    ds = sample.dataset
    p_hat = smc.estimate_response_probs(ds, p_floor=p_floor).p_hat
    direct = {
        "ipw": lambda t: smc.fit_completion(ds, p_hat, t, cfg).Z_hat,
        "collective_unweighted": lambda t: smc.collective_unweighted(ds, t, cfg).Z_hat_natural,
        "soft_impute": lambda t: smc.soft_impute(ds, t, cfg).Z_hat_natural,
    }
    assert set(out) == set(direct)
    for name, fit in direct.items():
        scores = [relative_error(fit(t), sample.truth_Z) for t in grid]
        best = min(scores)
        assert out[name] == grid[max(i for i, s in enumerate(scores) if s == best)], name
