"""The package-wide input contract: every public entry point turns a bad
count, real setting, object or array argument into InvalidInput, before any
draw or fit."""

import os
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import surveymc as smc
import surveymc.benchmark
import surveymc.io
from helpers import TINY, tiny_spec
from surveymc.benchmark import (METHODS, block_relative_errors, relative_error,
                                run_benchmark, tune_benchmark_taus)
from surveymc.errors import InvalidInput
from surveymc.families import expit, logit
from surveymc.io import (load_matrix_csv, load_schema, parse_tau_grid, save_matrix_csv,
                         write_benchmark_csvs, write_meta_json, write_tau_scores,
                         write_trace_csv)
from surveymc.linalg import as_matrix, rank1_approx, singular_values, svd_thin, svt_factors

_TAUS = {m: 0.1 for m in METHODS}

# each entry point with one count or seed set to a value, and that count's minimum
_DS, _P_HAT, _ = helpers.random_problem(np.random.default_rng(0), n=10)
_Z = np.zeros(_DS.Y.shape)
COUNT_ARGS = {
    "SolverConfig.iterations": (1, lambda v: smc.SolverConfig(iterations=v)),
    "tune_tau.folds": (2, lambda v: smc.tune_tau(_DS, _P_HAT, folds=v)),
    "tune_tau.seed": (0, lambda v: smc.tune_tau(_DS, _P_HAT, seed=v)),
    "run_benchmark.n_replicates": (2, lambda v: run_benchmark(tiny_spec(), n_replicates=v,
                                                              taus=_TAUS)),
    "run_benchmark.base_seed": (0, lambda v: run_benchmark(tiny_spec(), base_seed=v,
                                                           taus=_TAUS)),
    "tune_benchmark_taus.base_seed": (0, lambda v: tune_benchmark_taus(tiny_spec(),
                                                                        base_seed=v)),
    "Block.count": (1, lambda v: smc.Block(smc.Family("gaussian"), v)),
}


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_bad_counts_and_seeds_are_invalid_input(data):
    minimum, call = COUNT_ARGS[data.draw(st.sampled_from(sorted(COUNT_ARGS)))]
    bad = data.draw(st.one_of(st.integers(max_value=minimum - 1), st.floats(),
                              st.text(max_size=3), st.none(), st.booleans()))
    with pytest.raises(InvalidInput):
        call(bad)


def _hot_deck_at(clamp):
    """hot_deck at clamp, asserting that a refused clamp draws nothing."""
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    try:
        return smc.hot_deck(_DS, rng, clamp=clamp)
    finally:
        assert rng.bit_generator.state == state


def _benchmark_at(entry, **kwargs):
    """entry on tiny_spec() with ipw, asserting that a refused setting draws
    no replicate."""
    def boom(*args, **kwargs):
        raise AssertionError("a replicate was drawn")
    with mock.patch.object(surveymc.benchmark, "simulate_survey", boom):
        return entry(tiny_spec(), methods=("ipw",), **kwargs)


# each entry point with one real setting set to a value, the open interval
# (low, high) that setting must lie in, and whether +inf is valid too; the
# error names the setting, the last part of the key
_REAL_SETTINGS = {
    "fit_completion.tau": (0.0, np.inf, False, lambda v: smc.fit_completion(_DS, _P_HAT, v)),
    "objective.tau": (0.0, np.inf, False, lambda v: smc.objective(_Z, _DS, _P_HAT, v)),
    "SolverConfig.clamp": (0.0, np.inf, True, lambda v: smc.SolverConfig(clamp=v)),
    "PopulationSpec.xi": (-np.inf, np.inf, False, lambda v: replace(tiny_spec(), xi=v)),
    "Family.sigma": (0.0, np.inf, False, lambda v: smc.Family("gaussian", sigma=v)),
    "estimate_response_probs.p_floor": (0.0, 1.0, False,
                                        lambda v: smc.estimate_response_probs(_DS, p_floor=v)),
    "run_benchmark.p_floor": (0.0, 1.0, False, lambda v: _benchmark_at(
        run_benchmark, taus={"ipw": 0.1}, p_floor=v)),
    "tune_benchmark_taus.p_floor": (0.0, 1.0, False, lambda v: _benchmark_at(
        tune_benchmark_taus, p_floor=v)),
    "grid_search.grid": (0.0, np.inf, False, lambda v: smc.grid_search((v,), float)),
    "grid_search.score": (-np.inf, np.inf, False,
                          lambda v: smc.grid_search((0.1,), lambda t: v)),
    # (-5e-324, inf) holds exactly the floats >= 0: tau = 0 is valid
    "svt_factors.tau": (-5e-324, np.inf, False, lambda v: svt_factors(np.eye(3), v)),
    "Family.domain_box.clamp": (0.0, np.inf, True,
                                lambda v: smc.Family("poisson").domain_box(v)),
    "Family.curvature_sup.beta": (0.0, np.inf, False,
                                  lambda v: smc.Family("poisson").curvature_sup(v)),
    "hot_deck.clamp": (0.0, np.inf, True, _hot_deck_at),
    "natural_from_mean.clamp": (0.0, np.inf, True, lambda v: smc.natural_from_mean(
        np.full((2, TINY.n_cols), 0.5), TINY, v)),
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
        _SAMPLE, v),
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
                 st.lists(st.floats(), max_size=2), st.complex_numbers(), st.just(10**400),
                 st.booleans())


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_bad_reals_generators_and_layouts_are_invalid_input(data):
    if data.draw(st.booleans()):
        key = data.draw(st.sampled_from(sorted(_REAL_SETTINGS)))
        low, high, inf_ok, call = _REAL_SETTINGS[key]
        outside = st.floats().filter(lambda x: not (low < x < high or inf_ok and x == np.inf))
        bad = data.draw(st.one_of(outside, JUNK))
        name = key.rsplit(".", 1)[1]
    else:
        call = _OBJECT_ARGS[data.draw(st.sampled_from(sorted(_OBJECT_ARGS)))]
        bad = data.draw(st.one_of(st.integers(), st.floats(), JUNK))
        name = None
    with pytest.raises(InvalidInput, match=name):
        call(bad)


# before each score was checked, a NaN at the smallest tau came back as the
# best, None raised a bare TypeError and a string was ranked among the numbers
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, None, "x"])
def test_a_score_that_is_not_a_finite_real_is_invalid_input(bad):
    with pytest.raises(InvalidInput, match="score at tau 1.0"):
        smc.grid_search((1.0, 2.0, 4.0), lambda t: bad if t == 1.0 else t)


# each (entry point, object argument) and the call passing it a value
_OBJECTS = {
    ("fit_completion", "dataset"): lambda v: smc.fit_completion(v, _P_HAT, 0.1),
    ("fit_completion", "p_hat"): lambda v: smc.fit_completion(_DS, v, 0.1),
    ("fit_completion", "config"): lambda v: smc.fit_completion(_DS, _P_HAT, 0.1, v),
    ("weighted_loss", "dataset"): lambda v: smc.weighted_loss(_Z, v, _P_HAT),
    ("weighted_loss", "p_hat"): lambda v: smc.weighted_loss(_Z, _DS, v),
    ("gradient", "p_hat"): lambda v: smc.gradient(_Z, _DS, v),
    ("objective", "dataset"): lambda v: smc.objective(_Z, v, _P_HAT, 0.1),
    ("objective", "p_hat"): lambda v: smc.objective(_Z, _DS, v, 0.1),
    ("tune_tau", "dataset"): lambda v: smc.tune_tau(v, _P_HAT),
    ("tune_tau", "p_hat"): lambda v: smc.tune_tau(_DS, v),
    ("tune_tau", "config"): lambda v: smc.tune_tau(_DS, _P_HAT, config=v),
    ("soft_impute", "dataset"): lambda v: smc.soft_impute(v, 0.1),
    ("soft_impute", "config"): lambda v: smc.soft_impute(_DS, 0.1, v),
    ("collective_unweighted", "dataset"): lambda v: smc.collective_unweighted(v, 0.1),
    ("collective_unweighted", "config"): lambda v: smc.collective_unweighted(_DS, 0.1, v),
    ("hot_deck", "dataset"): lambda v: smc.hot_deck(v, np.random.default_rng(0)),
    ("estimate_response_probs", "dataset"): smc.estimate_response_probs,
    ("run_benchmark", "spec"): lambda v: run_benchmark(v, taus=_TAUS),
    ("run_benchmark", "config"): lambda v: run_benchmark(tiny_spec(), taus=_TAUS, config=v),
    ("run_benchmark", "taus"): lambda v: run_benchmark(tiny_spec(), taus=v),
    ("tune_benchmark_taus", "spec"): tune_benchmark_taus,
    ("tune_benchmark_taus", "config"): lambda v: tune_benchmark_taus(tiny_spec(), config=v),
    ("MixedDataset", "layout"): lambda v: replace(_DS, layout=v),
    ("mean_from_natural", "layout"): lambda v: smc.mean_from_natural(_Z, v),
    ("natural_from_mean", "layout"): lambda v: smc.natural_from_mean(_Z, v),
    ("block_relative_errors", "layout"): lambda v: block_relative_errors(_Z, _Z, v),
    ("generate_population", "spec"): lambda v: smc.generate_population(
        v, np.random.default_rng(0)),
    ("draw_sample", "truth"): lambda v: smc.draw_sample(v, tiny_spec(),
                                                        np.random.default_rng(0)),
    ("draw_sample", "spec"): lambda v: smc.draw_sample(_TRUTH, v, np.random.default_rng(0)),
    ("impose_responses_and_missingness", "sample"): lambda v: (
        smc.impose_responses_and_missingness(v, np.random.default_rng(0))),
    ("run_benchmark", "methods"): lambda v: run_benchmark(tiny_spec(), methods=v, taus=_TAUS),
    ("tune_benchmark_taus", "methods"): lambda v: tune_benchmark_taus(tiny_spec(), methods=v),
    ("Block", "family"): lambda v: smc.Block(v, 1),
    ("CategoryLayout", "blocks"): smc.CategoryLayout,
    ("CategoryLayout", "block"): lambda v: smc.CategoryLayout((v,)),
    ("CategoryLayout.of", "specs"): smc.CategoryLayout.of,
    ("parse_tau_grid", "grid"): parse_tau_grid,
    ("grid_search", "score"): lambda v: smc.grid_search((0.1,), v),
    ("save_dataset", "dataset"): lambda v: smc.save_dataset(v, os.devnull, os.devnull),
    ("write_trace_csv", "result"): lambda v: write_trace_csv(v, os.devnull),
    ("write_tau_scores", "result"): lambda v: write_tau_scores(v, os.devnull),
    ("write_benchmark_csvs", "summary"): lambda v: write_benchmark_csvs(v, os.devnull,
                                                                        os.devnull),
}


# stage two once took stage one's whole record where it now takes p_hat
_STAGE_ONE = smc.estimate_response_probs(_DS)


@pytest.mark.parametrize("bad", [None, "x", {}, _STAGE_ONE, 5, [["ipw"]]],
                         ids=["None", "str", "dict", "ResponseProbModel", "int", "nested"])
@pytest.mark.parametrize("entry", sorted(_OBJECTS), ids=".".join)
def test_objects_of_the_wrong_type_are_invalid_input_before_any_fit(monkeypatch, entry, bad):
    # each once escaped as a bare AttributeError, TypeError or ValueError, or passed
    def boom(*args, **kwargs):
        raise AssertionError("a fit or a draw ran before the check")
    # the baselines' own fit_completion call is where their config is checked
    for module in (surveymc.solver, surveymc.benchmark):
        monkeypatch.setattr(module, "fit_completion", boom)
    monkeypatch.setattr(surveymc.benchmark, "simulate_survey", boom)
    with pytest.raises(InvalidInput, match=entry[1]):
        _OBJECTS[entry](bad)


_RESULT = smc.CompletionResult(Z_hat=_Z, objective_trace=np.ones(1), accepted=np.ones(0, bool),
                               iterations_run=0, diagnostics={})
_TUNED = smc.TuneResult(best_tau=0.1, taus=(0.1,), scores=(1.0,))
_SUMMARY = smc.BenchmarkSummary(spec=tiny_spec(), methods=(), taus={}, base_seed=0, reports=(),
                                aggregate={}, n_failures={})
# each io path argument, and write_meta_json's doc, with the call passing it
# a value; a str is a path and a dict a doc, so neither is among the bad values
_IO_ARGS = {
    ("load_schema", "path"): load_schema,
    ("load_dataset", "data_path"): lambda v: smc.load_dataset(v, os.devnull),
    ("load_dataset", "schema_path"): lambda v: smc.load_dataset(os.devnull, v),
    ("save_dataset", "data_path"): lambda v: smc.save_dataset(_DS, v, os.devnull),
    ("save_dataset", "schema_path"): lambda v: smc.save_dataset(_DS, os.devnull, v),
    ("save_matrix_csv", "path"): lambda v: save_matrix_csv(_Z, v),
    ("load_matrix_csv", "path"): load_matrix_csv,
    ("write_trace_csv", "path"): lambda v: write_trace_csv(_RESULT, v),
    ("write_tau_scores", "path"): lambda v: write_tau_scores(_TUNED, v),
    ("write_benchmark_csvs", "summary_path"): lambda v: write_benchmark_csvs(_SUMMARY, v,
                                                                             os.devnull),
    ("write_benchmark_csvs", "replicates_path"): lambda v: write_benchmark_csvs(
        _SUMMARY, os.devnull, v),
    ("write_meta_json", "path"): lambda v: write_meta_json({}, v),
    ("write_meta_json", "doc"): lambda v: write_meta_json(v, os.devnull),
}


@pytest.mark.parametrize("bad", [None, 5, [["ipw"]], _STAGE_ONE],
                         ids=["None", "int", "nested", "ResponseProbModel"])
@pytest.mark.parametrize("entry", sorted(_IO_ARGS), ids=".".join)
def test_io_paths_and_docs_of_the_wrong_type_are_invalid_input_before_any_file_opens(
        monkeypatch, entry, bad):
    # each once escaped as a bare TypeError from open(), or (a doc) was
    # written as null; an int path would have opened that file descriptor
    def boom(*args, **kwargs):
        raise AssertionError("a file was opened before the check")
    monkeypatch.setattr(surveymc.io, "open", boom, raising=False)
    with pytest.raises(InvalidInput, match=entry[1]):
        _IO_ARGS[entry](bad)


_FIT = smc.SolverConfig(iterations=1)
_POISSON = smc.Family("poisson")
# each public array argument: a valid value for it, the number of axes it
# must have (None: any), and the call taking it
_ARRAY_ARGS = {
    "MixedDataset.Y": (_DS.Y, 2, lambda v: replace(_DS, Y=v)),
    "MixedDataset.X": (_DS.X, 2, lambda v: replace(_DS, X=v)),
    "MixedDataset.strata": (_DS.strata, 1, lambda v: replace(_DS, strata=v)),
    "MixedDataset.pi": (_DS.pi, 1, lambda v: replace(_DS, pi=v)),
    "MixedDataset.with_mask": (_DS.R, 2, _DS.with_mask),
    "weighted_loss.Z": (_Z, 2, lambda v: smc.weighted_loss(v, _DS, _P_HAT)),
    "gradient.Z": (_Z, 2, lambda v: smc.gradient(v, _DS, _P_HAT)),
    "objective.Z": (_Z, 2, lambda v: smc.objective(v, _DS, _P_HAT, 0.1)),
    "fit_completion.p_hat": (_P_HAT, 2, lambda v: smc.fit_completion(_DS, v, 0.1, _FIT)),
    "weighted_loss.p_hat": (_P_HAT, 2, lambda v: smc.weighted_loss(_Z, _DS, v)),
    "gradient.p_hat": (_P_HAT, 2, lambda v: smc.gradient(_Z, _DS, v)),
    "objective.p_hat": (_P_HAT, 2, lambda v: smc.objective(_Z, _DS, v, 0.1)),
    "tune_tau.p_hat": (_P_HAT, 2, lambda v: smc.tune_tau(_DS, v, config=_FIT)),
    **{f"{fn.__name__}.M": (np.eye(3), 2, fn) for fn in (
        svd_thin, rank1_approx, singular_values, smc.nuclear_norm, as_matrix)},
    "svt.M": (np.eye(3), 2, lambda v: smc.svt(v, 0.1)),
    "svt_factors.M": (np.eye(3), 2, lambda v: svt_factors(v, 0.1)),
    "relative_error.estimate": (np.ones((2, 3)), 2, lambda v: relative_error(v, np.ones((2, 3)))),
    "relative_error.reference": (np.ones((2, 3)), 2, lambda v: relative_error(np.ones((2, 3)), v)),
    "block_relative_errors.estimate": (np.ones((2, 12)), 2, lambda v: block_relative_errors(
        v, np.ones((2, 12)), TINY)),
    "block_relative_errors.reference": (np.ones((2, 12)), 2, lambda v: block_relative_errors(
        np.ones((2, 12)), v, TINY)),
    **{f"Family.{method}.z": (np.full(3, -1.0), None, getattr(smc.Family(kind), method))
       for kind, method in (("exponential", "g"), ("poisson", "g_prime"),
                            ("gaussian", "g_double_prime"), ("bernoulli", "g_and_g_prime"),
                            ("poisson", "mean_to_natural"))},
    "Family.sample.z": (np.zeros(3), None, lambda v: _POISSON.sample(v, np.random.default_rng(0))),
    "expit.z": (np.zeros(3), None, expit),
    "logit.p": (np.full(3, 0.5), None, logit),
    "mean_from_natural.Z": (np.zeros((2, 12)), 2, lambda v: smc.mean_from_natural(v, TINY)),
    "natural_from_mean.M": (np.full((2, 12), 0.5), 2, lambda v: smc.natural_from_mean(v, TINY)),
    "save_matrix_csv.M": (np.eye(3), 2, lambda v: save_matrix_csv(v, os.devnull)),
}


def _with_entry(valid, entry):
    """valid as an object array whose last entry is entry."""
    out = valid.astype(object)
    out.flat[-1] = entry
    return out


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_bad_arrays_are_invalid_input(data):
    valid, ndim, call = _ARRAY_ARGS[data.draw(st.sampled_from(sorted(_ARRAY_ARGS)))]
    junk = [st.complex_numbers(max_magnitude=1e6).map(lambda c: valid + c),
            st.complex_numbers(), st.text(max_size=3),
            st.just(valid.astype(str)),  # numeric strings
            st.just([[1.0], [2.0, 3.0]]), st.just(10**400),
            st.sampled_from(["a", 1j, 10**400, None, "0.5"]).map(
                lambda e: _with_entry(valid, e))]
    if ndim is not None:  # 0-d and a wrong number of axes
        junk += [st.floats().map(np.array), st.just(valid[..., None]),
                 st.just(valid.ravel()[:1] if ndim > 1 else np.diag(valid))]
    bad = data.draw(st.one_of(junk))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInput):
            call(bad)


@pytest.mark.parametrize("entry", [None, "0.5", "nan"])
@pytest.mark.parametrize("key", ["expit.z", "MixedDataset.Y", "as_matrix.M"])
def test_object_arrays_hold_only_real_numbers(key, entry):
    # the cast once read None as NaN, a missing response in Y, and "0.5" as 0.5
    valid, _, call = _ARRAY_ARGS[key]
    call(valid.astype(object))  # real entries pass
    with pytest.raises(InvalidInput, match="must hold real numbers"):
        call(_with_entry(valid, entry))
