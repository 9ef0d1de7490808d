"""Container invariants for the mixed-type sample."""

import numpy as np
import numpy.testing as npt
import pytest

from surveymc import CategoryLayout, MixedDataset
from surveymc.errors import InvalidInput, ShapeError, WeightError


def small_dataset(**overrides):
    lay = CategoryLayout.of(("gaussian", 2), ("bernoulli", 1))
    Y = np.array([[1.0, np.nan, 1.0],
                  [np.nan, 2.0, 0.0],
                  [0.5, -1.0, np.nan]])
    fields = dict(Y=Y, R=~np.isnan(Y), X=np.ones((3, 2)),
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


@pytest.mark.parametrize("size", [0.0, -1.0, np.inf, -np.inf, np.nan])
def test_population_size_must_be_positive_and_finite(size):
    with pytest.raises(InvalidInput):
        small_dataset(population_size=size)


def test_r_must_match_nan_pattern():
    Y = np.array([[1.0, 2.0, 3.0]])
    R = np.array([[True, False, True]])
    with pytest.raises(InvalidInput):
        small_dataset(Y=Y, R=R, X=np.ones((1, 2)),
                      strata=np.array([1]), pi=np.array([0.5]))


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
