"""Container invariants for the mixed-type sample."""

import warnings
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from surveymc import CategoryLayout, MixedDataset
from surveymc.errors import InvalidInput, ShapeError, WeightError

from helpers import nan_masks


def small_dataset(**overrides):
    lay = CategoryLayout.of(("gaussian", 2), ("bernoulli", 1))
    Y = np.array([[1.0, np.nan, 1.0],
                  [np.nan, 2.0, 0.0],
                  [0.5, -1.0, np.nan]])
    fields = dict(Y=Y, X=np.ones((3, 2)),
                  strata=np.array([1, 1, 2]), pi=np.array([0.5, 0.25, 1.0]),
                  layout=lay)
    fields.update(overrides)
    return MixedDataset(**fields)


def test_accessors():
    ds = small_dataset()
    assert ds.n == 3
    assert ds.n_responses == 3
    assert ds.n_covariates == 2
    assert ds.n_strata == 2


def test_ht_population_size():
    # 1/0.5 + 1/0.25 + 1/1 = 7
    assert small_dataset().ht_population_size() == pytest.approx(7.0, abs=1e-12)


def test_resolve_population_size_precedence():
    ds = small_dataset()
    assert ds.resolve_population_size() == pytest.approx(7.0)
    stored = small_dataset(population_size=50.0)
    assert stored.resolve_population_size() == 50.0


@pytest.mark.parametrize("size", [0.0, -1.0, np.inf, -np.inf, np.nan, "x",
                                  pytest.param(10**400, id="int_beyond_float64")])
def test_population_size_must_be_positive_and_finite(size):
    with pytest.raises(InvalidInput):
        small_dataset(population_size=size)


def test_weight_validation():
    with pytest.raises(WeightError):
        small_dataset(pi=np.array([0.5, 0.0, 1.0]))
    with pytest.raises(WeightError):
        small_dataset(pi=np.array([0.5, 1.5, 1.0]))
    with pytest.raises(WeightError):
        small_dataset(pi=np.array([0.5, np.nan, 1.0]))


def test_strata_must_be_contiguous():
    with pytest.raises(InvalidInput):
        small_dataset(strata=np.array([1, 1, 3]))
    with pytest.raises(InvalidInput):
        small_dataset(strata=np.array([0, 0, 1]))


LABELS = st.one_of(st.integers(-1, 4), st.integers(1, 3).map(float), st.floats(),
                   st.sampled_from([1.7, 2.2, np.nan, np.inf, -np.inf, 1e300]))


@settings(max_examples=300, deadline=None)
@given(labels=st.lists(LABELS, min_size=3, max_size=3))
def test_strata_labels_must_be_integer_valued_and_contiguous(labels):
    # a label is compared before the integer cast: no row changes stratum
    # and no numpy warning escapes
    valid = all(np.isfinite(x) and x == int(x) for x in labels)
    ints = sorted({int(x) for x in labels}) if valid else []
    valid = valid and ints == list(range(1, len(ints) + 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if not valid:
            with pytest.raises(InvalidInput):
                small_dataset(strata=labels)
            return
        ds = small_dataset(strata=labels)
    assert ds.strata.dtype == np.int64 and ds.strata.tolist() == [int(x) for x in labels]


@pytest.mark.parametrize("name", ["Y", "X", "strata", "pi"])
def test_a_field_that_is_not_numeric_is_invalid_input(name):
    value = small_dataset().__dict__[name].astype(object)
    value.flat[-1] = "a"
    with pytest.raises(InvalidInput, match=name):
        small_dataset(**{name: value})


def test_shape_validation():
    with pytest.raises(ShapeError):
        small_dataset(X=np.ones((2, 2)))
    with pytest.raises(ShapeError):
        small_dataset(pi=np.array([0.5, 0.5]))
    with pytest.raises(ShapeError):
        small_dataset(layout=CategoryLayout.of(("gaussian", 2)))
    with pytest.raises(InvalidInput):
        small_dataset(X=np.full((3, 2), np.inf))


def test_with_mask_holds_out_entries():
    ds = small_dataset()
    keep = ds.R.copy()
    keep[0, 0] = False
    held = ds.with_mask(keep)
    assert np.isnan(held.Y[0, 0])
    assert not held.R[0, 0]
    npt.assert_array_equal(held.R, keep)
    # source dataset untouched
    assert ds.R[0, 0]
    with pytest.raises(InvalidInput):
        ds.with_mask(~ds.R)  # would "keep" never-observed entries
    with pytest.raises(ShapeError):
        ds.with_mask(np.ones((2, 2), dtype=bool))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), shape=st.tuples(st.integers(1, 6), st.integers(1, 4)))
def test_r_is_derived_from_the_nan_pattern_of_y(data, shape):
    values = arrays(np.float64, shape, elements=st.floats(-1e3, 1e3))
    Y, Y2 = (np.where(data.draw(nan_masks(shape)), np.nan, data.draw(values)) for _ in range(2))
    n, L = shape
    ds = MixedDataset(Y=Y, X=np.empty((n, 0)), strata=np.ones(n, dtype=np.int64),
                      pi=np.ones(n), layout=CategoryLayout.of(("gaussian", L)))
    npt.assert_array_equal(ds.R, ~np.isnan(Y))
    npt.assert_array_equal(replace(ds, Y=Y2).R, ~np.isnan(Y2))
    keep = ds.R & data.draw(arrays(bool, shape))
    npt.assert_array_equal(ds.with_mask(keep).R, keep)
