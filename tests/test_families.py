"""Exponential-family primitives: closed forms, derivative consistency,
sampling moments, and the layout bookkeeping."""

import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import special

from surveymc.errors import DomainError, InvalidInput, ShapeError
from surveymc.families import (Block, CategoryLayout, Family, expit, logit,
                               mean_from_natural, natural_from_mean)

ALL_KINDS = ("bernoulli", "poisson", "gaussian", "exponential")


def domain_points(kind, rng, m=200):
    if kind == "exponential":
        return rng.uniform(-5.0, -0.05, m)
    return rng.uniform(-5.0, 5.0, m)


def test_closed_form_values():
    b = Family("bernoulli")
    assert b.g(0.0) == pytest.approx(math.log(2.0), abs=1e-15)
    assert b.g_prime(0.0) == pytest.approx(0.5, abs=1e-15)
    assert b.g_double_prime(0.0) == pytest.approx(0.25, abs=1e-15)

    p = Family("poisson")
    assert p.g(1.0) == pytest.approx(math.e, rel=1e-15)
    assert p.g_prime(1.0) == pytest.approx(math.e, rel=1e-15)
    assert p.g(0.0) == pytest.approx(1.0, abs=1e-15)

    g = Family("gaussian", sigma=2.0)
    assert g.g(3.0) == pytest.approx(18.0, rel=1e-15)
    assert g.g_prime(3.0) == pytest.approx(12.0, rel=1e-15)
    assert g.g_double_prime(-1.0) == pytest.approx(4.0, rel=1e-15)

    e = Family("exponential")
    assert e.g(-1.0) == pytest.approx(0.0, abs=1e-15)
    assert e.g(-2.0) == pytest.approx(-math.log(2.0), rel=1e-15)
    assert e.g_prime(-2.0) == pytest.approx(0.5, rel=1e-15)
    assert e.g_double_prime(-2.0) == pytest.approx(0.25, rel=1e-15)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_g_prime_matches_finite_differences(kind):
    fam = Family(kind, sigma=1.3 if kind == "gaussian" else 1.0)
    rng = np.random.default_rng(10)
    z = domain_points(kind, rng)
    h = 1e-6
    fd = (fam.g(z + h) - fam.g(z - h)) / (2 * h)
    npt.assert_allclose(fam.g_prime(z), fd, rtol=1e-7, atol=1e-9)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_g_double_prime_matches_finite_differences(kind):
    fam = Family(kind, sigma=0.7 if kind == "gaussian" else 1.0)
    rng = np.random.default_rng(11)
    z = domain_points(kind, rng)
    h = 1e-4
    fd = (fam.g(z + h) - 2 * fam.g(z) + fam.g(z - h)) / h**2
    npt.assert_allclose(fam.g_double_prime(z), fd, rtol=1e-4, atol=1e-5)


def test_bernoulli_overflow_safe():
    b = Family("bernoulli")
    assert b.g(700.0) == pytest.approx(700.0, rel=1e-15)
    assert 0.0 <= b.g(-700.0) < 1e-300
    assert np.isfinite(b.g(np.array([-700.0, 700.0]))).all()
    p = b.g_prime(np.array([-800.0, 800.0]))
    assert np.all((p >= 0.0) & (p <= 1.0))
    assert b.g_double_prime(800.0) >= 0.0


# natural parameters across the whole float64 line, weighted toward the
# range where the logistic is neither 0 nor 1 in float64
Z_VALUES = arrays(np.float64, st.integers(1, 40),
                  elements=st.floats(-800.0, 800.0) | st.floats(allow_nan=False))
Z_EDGES = np.array([-np.inf, -1e308, -745.0, -744.0, 0.0, 745.0, 1e308, np.inf])


@settings(max_examples=300, deadline=None)
@given(Z_VALUES)
def test_expit_matches_scipy_within_4_ulp(z):
    z = np.concatenate([z, Z_EDGES])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow or invalid warning, at +-inf either
        got = expit(z)
    want = special.expit(z)
    pos = want > 0
    assert np.all(np.abs(got - want)[pos] <= 4 * np.spacing(want[pos]))
    # scipy underflows to 0 below z = -709.8; ours is subnormal down to -745
    assert np.all((got[~pos] >= 0.0) & (got[~pos] < np.finfo(np.float64).smallest_normal))
    assert expit(-745.0) > 0.0 and expit(-746.0) == 0.0


@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, st.integers(1, 40), elements=st.floats(1e-6, 1.0 - 1e-6)))
def test_logit_matches_scipy_within_2e_15(p):
    # [1e-6, 1 - 1e-6] is the widest clip any caller applies
    p = np.concatenate([p, [1e-6, 1e-3, 0.5, 1.0 - 1e-3, 1.0 - 1e-6]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = logit(p)
    npt.assert_allclose(got, special.logit(p), rtol=0.0, atol=2e-15)
    npt.assert_allclose(expit(got), p, rtol=1e-12)


# z across each family's domain, infinities included; exponential's is z < 0
DOMAIN_Z = {kind: Z_VALUES for kind in ("bernoulli", "poisson", "gaussian")}
DOMAIN_Z["exponential"] = arrays(np.float64, st.integers(1, 40),
                                 elements=st.floats(max_value=-1e-8))


@pytest.mark.parametrize("kind", ALL_KINDS)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_fused_g_and_g_prime_is_bitwise(kind, data):
    fam = Family(kind, sigma=1.3 if kind == "gaussian" else 1.0)
    z = data.draw(DOMAIN_Z[kind])
    if kind != "exponential":
        z = np.concatenate([z, Z_EDGES])
    with np.errstate(over="ignore"):  # e^z and z^2 reach inf
        g, g_prime = fam.g_and_g_prime(z)
        assert np.array_equal(g, fam.g(z))
        assert np.array_equal(g_prime, fam.g_prime(z))


def test_exponential_domain_errors():
    e = Family("exponential")
    _, hi = e.domain_box(30.0)
    assert np.isfinite(e.g(hi))  # the box's upper edge lies in the domain
    for f in (e.g, e.g_prime, e.g_double_prime):
        for z in (0.0, 0.1):
            with pytest.raises(DomainError):
                f(z)
    with pytest.raises(DomainError):
        e.sample(np.array([0.5]), np.random.default_rng(0))


def test_domain_box():
    assert Family("poisson").domain_box(30.0) == (-30.0, 30.0)
    lo, hi = Family("exponential").domain_box(30.0)
    assert lo == -30.0 and hi < 0.0
    with pytest.raises(InvalidInput):
        Family("gaussian").domain_box(0.0)


def test_curvature_sup():
    assert Family("bernoulli").curvature_sup(3.0) == 0.25
    assert Family("poisson").curvature_sup(3.0) == pytest.approx(math.exp(3.0))
    assert Family("gaussian", sigma=2.0).curvature_sup(1.0) == 4.0
    e = Family("exponential")
    assert e.curvature_sup(2.0) == pytest.approx(4.0)    # interior edge -1/2
    assert e.curvature_sup(0.5) == pytest.approx(1.0)    # -1/max(beta, 1) = -1
    assert e.curvature_sup(1e12) == pytest.approx(1e16)  # the domain edge -1e-8


def curvature_range(fam, beta):
    """[lo, hi] that curvature_sup(beta) scores and the point where g'' peaks."""
    if fam.kind == "exponential":
        hi = min(-1.0 / max(beta, 1.0), fam.domain_box(beta)[1])
        return min(-beta, hi), hi, hi
    return -beta, beta, beta if fam.kind == "poisson" else 0.0


@pytest.mark.parametrize("kind", ALL_KINDS)
@settings(max_examples=100, deadline=None)
@given(beta=st.floats(1e-3, 30.0))
def test_curvature_sup_is_the_peak_of_g_double_prime(kind, beta):
    fam = Family(kind, sigma=0.7 if kind == "gaussian" else 1.0)
    sup = fam.curvature_sup(beta)
    lo, hi, peak = curvature_range(fam, beta)
    # the grid goes through numpy's vector kernels and curvature_sup through
    # scalar ones (Python's ** for exponential): allow a last-bit difference
    tol = 2 * np.spacing(sup)
    assert np.all(fam.g_double_prime(np.linspace(lo, hi, 2001)) <= sup + tol)
    assert abs(float(fam.g_double_prime(peak)) - sup) <= tol


@pytest.mark.parametrize("kind,z", [("bernoulli", 0.4), ("poisson", 1.1),
                                    ("gaussian", -0.8), ("exponential", -1.7)])
def test_sampler_mean_within_3_se(kind, z):
    fam = Family(kind, sigma=1.5 if kind == "gaussian" else 1.0)
    rng = np.random.default_rng(12)
    m = 20000
    draws = fam.sample(np.full(m, z), rng)
    se = math.sqrt(float(fam.g_double_prime(z)) / m)
    assert abs(draws.mean() - float(fam.g_prime(z))) <= 3 * se


def test_sampler_output_ranges():
    rng = np.random.default_rng(13)
    b = Family("bernoulli").sample(np.zeros(100), rng)
    assert set(np.unique(b)) <= {0.0, 1.0}
    p = Family("poisson").sample(np.zeros(100), rng)
    assert np.all(p >= 0) and np.all(p == np.round(p))
    e = Family("exponential").sample(np.full(100, -2.0), rng)
    assert np.all(e > 0)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_mean_to_natural_round_trip(kind):
    fam = Family(kind, sigma=1.2 if kind == "gaussian" else 1.0)
    rng = np.random.default_rng(14)
    if kind == "bernoulli":
        z = rng.uniform(-3.0, 3.0, 50)
    elif kind == "exponential":
        z = rng.uniform(-10.0, -0.2, 50)
    else:
        z = rng.uniform(-2.0, 2.0, 50)
    npt.assert_allclose(fam.mean_to_natural(fam.g_prime(z)), z, rtol=1e-10, atol=1e-10)


def test_mean_to_natural_boundary_clamps():
    b = Family("bernoulli")
    assert b.mean_to_natural(0.0) == pytest.approx(float(np.log(1e-3 / (1 - 1e-3))))
    assert b.mean_to_natural(1.0) == pytest.approx(-float(b.mean_to_natural(0.0)), rel=1e-12)
    assert Family("poisson").mean_to_natural(0.0) == pytest.approx(math.log(1e-3))
    assert Family("exponential").mean_to_natural(0.0) == pytest.approx(-1000.0)


def test_family_validation_and_sigma_rule():
    with pytest.raises(InvalidInput):
        Family("gamma")
    for sigma in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(InvalidInput):
            Family("gaussian", sigma=sigma)
    assert Family("gaussian", sigma=2.5).sigma == 2.5
    # only gaussian has a scale: any other kind keeps sigma 1.0, whatever is passed
    for kind in ("poisson", "bernoulli", "exponential"):
        for sigma in (2.5, 0.0, np.nan):
            assert Family(kind, sigma=sigma) == Family(kind)
            assert Family(kind, sigma=sigma).sigma == 1.0


def test_layout_bookkeeping():
    lay = CategoryLayout.of(("gaussian", 2), ("poisson", 3), ("bernoulli", 1))
    assert lay.n_cols == 6
    slices = lay.slices()
    assert [sl for _, sl in slices] == [slice(0, 2), slice(2, 5), slice(5, 6)]
    with pytest.raises(InvalidInput):
        CategoryLayout(())
    with pytest.raises(InvalidInput):
        Block(Family("poisson"), 0)


def test_layout_sigma_applies_to_gaussian_blocks():
    lay = CategoryLayout.of(("gaussian", 2), ("poisson", 1), sigma=3.0)
    assert lay.blocks[0].family.sigma == 3.0
    assert lay.blocks[1].family == Family("poisson")


def test_mean_natural_matrix_maps():
    lay = CategoryLayout.of(("gaussian", 1), ("poisson", 1),
                            ("bernoulli", 1), ("exponential", 1))
    Z = np.array([[0.5, 0.5, 0.5, -2.0],
                  [-1.0, -1.0, -1.0, -0.5]])
    M = mean_from_natural(Z, lay)
    npt.assert_allclose(M[:, 0], Z[:, 0])                      # identity, sigma 1
    npt.assert_allclose(M[:, 1], np.exp(Z[:, 1]))
    npt.assert_allclose(M[0, 3], 0.5)
    back = natural_from_mean(M, lay, clamp=30.0)
    npt.assert_allclose(back, Z, rtol=1e-10, atol=1e-10)


def test_natural_from_mean_respects_clamp_box():
    lay = CategoryLayout.of(("poisson", 1), ("exponential", 1))
    M = np.array([[1e-30, 1e-30]])
    Z = natural_from_mean(M, lay, clamp=5.0)
    assert Z[0, 0] == -5.0
    assert Z[0, 1] == -5.0


@pytest.mark.parametrize("cols", [3, 6])
def test_matrix_maps_need_the_layout_width(cols):
    # a wider matrix once came back with uninitialised columns, a narrower
    # one with a truncated last block
    lay = CategoryLayout.of(("gaussian", 2), ("poisson", 2))
    M = np.full((3, cols), 0.5)
    with pytest.raises(ShapeError, match=f"layout covers 4 columns, M has {cols}"):
        natural_from_mean(M, lay)
    with pytest.raises(ShapeError, match=f"layout covers 4 columns, Z has {cols}"):
        mean_from_natural(M, lay)
