"""Matrix kernels checked against direct numpy computations and the
defining variational properties of the prox operator."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import surveymc.linalg as linalg
from surveymc.errors import InvalidInput, NumericalFailure
from surveymc.linalg import (as_matrix, nuclear_norm, rank1_approx, singular_values,
                             svd_thin, svt, svt_factors)


def prox_objective(A, M, tau):
    return 0.5 * np.sum((A - M) ** 2) + tau * nuclear_norm(A)


GUARD = 1e-3  # svt_factors takes the Gram path when tau >= GUARD * ||M||_F


def svt_oracle(M, tau):
    """LAPACK reference: full thin SVD, then shrink every singular value."""
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    return (U * np.maximum(s - tau, 0.0)) @ Vt


@pytest.mark.parametrize("shape", [(5, 3), (3, 5), (7, 7), (1, 4), (6, 1)])
def test_svd_thin_reconstructs(shape):
    rng = np.random.default_rng(0)
    M = rng.normal(size=shape)
    f = svd_thin(M)
    r = min(shape)
    assert f.U.shape == (shape[0], r)
    assert f.V.shape == (shape[1], r)
    npt.assert_allclose(f.reconstruct(), M, atol=1e-12)
    npt.assert_allclose(f.U.T @ f.U, np.eye(r), atol=1e-12)
    npt.assert_allclose(f.V.T @ f.V, np.eye(r), atol=1e-12)
    assert np.all(f.s >= 0)
    assert np.all(np.diff(f.s) <= 0)


def test_rank1_error_matches_trailing_singular_values():
    rng = np.random.default_rng(1)
    M = rng.normal(size=(8, 6))
    A = rank1_approx(M)
    assert np.linalg.matrix_rank(A) == 1
    s = svd_thin(M).s
    npt.assert_allclose(np.linalg.norm(M - A), np.sqrt(np.sum(s[1:] ** 2)), rtol=1e-12)


def test_rank1_beats_other_rank1_candidates():
    rng = np.random.default_rng(2)
    M = rng.normal(size=(8, 6))
    A = rank1_approx(M)
    best = np.linalg.norm(M - A)
    for _ in range(100):
        # perturbations of the optimum and fresh random candidates
        if rng.random() < 0.5:
            B = A + 0.05 * rng.normal(size=A.shape)
            u, s, vt = np.linalg.svd(B)
            cand = s[0] * np.outer(u[:, 0], vt[0])
        else:
            cand = np.outer(rng.normal(size=8), rng.normal(size=6))
        assert np.linalg.norm(M - cand) >= best - 1e-9


def test_svt_shrinks_singular_values():
    rng = np.random.default_rng(3)
    M = rng.normal(size=(6, 4))
    s = svd_thin(M).s
    for tau in (0.0, 0.1, 1.0, 5.0):
        out = svt(M, tau)
        npt.assert_allclose(np.linalg.svd(out, compute_uv=False),
                            np.maximum(s - tau, 0.0), atol=1e-10)


def test_svt_diagonal_closed_form():
    M = np.diag([5.0, -3.0, 0.5])
    npt.assert_allclose(svt(M, 1.0), np.diag([4.0, -2.0, 0.0]), atol=1e-12)


def test_svt_extremes():
    rng = np.random.default_rng(4)
    M = rng.normal(size=(5, 5))
    npt.assert_allclose(svt(M, 0.0), M, atol=1e-12)
    npt.assert_allclose(svt(M, float(svd_thin(M).s[0])), 0.0, atol=1e-12)
    with pytest.raises(InvalidInput):
        svt(M, -0.1)
    with pytest.raises(InvalidInput):
        svt(M, np.nan)


def test_svt_minimizes_prox_objective():
    rng = np.random.default_rng(5)
    for _ in range(10):
        M = rng.normal(size=(6, 4)) * rng.uniform(0.5, 3.0)
        tau = rng.uniform(0.05, 2.0)
        A = svt(M, tau)
        base = prox_objective(A, M, tau)
        for scale in (1e-3, 1e-2, 1e-1):
            for _ in range(10):
                cand = A + scale * rng.normal(size=A.shape)
                assert prox_objective(cand, M, tau) >= base - 1e-10


def test_svt_is_nonexpansive():
    # prox operators of convex functions are 1-Lipschitz
    rng = np.random.default_rng(6)
    for tau in (0.1, 1.0, 3.0):
        A = rng.normal(size=(7, 5))
        B = rng.normal(size=(7, 5))
        assert np.linalg.norm(svt(A, tau) - svt(B, tau)) <= np.linalg.norm(A - B) + 1e-12


def test_nuclear_norm_known_value():
    assert nuclear_norm(np.diag([3.0, 2.0, 1.0])) == pytest.approx(6.0, abs=1e-12)
    M = np.random.default_rng(7).normal(size=(9, 4))
    npt.assert_allclose(nuclear_norm(M), np.linalg.svd(M, compute_uv=False).sum(),
                        rtol=1e-12)


def test_nuclear_norm_triangle_inequality():
    rng = np.random.default_rng(8)
    A = rng.normal(size=(5, 6))
    B = rng.normal(size=(5, 6))
    assert nuclear_norm(A + B) <= nuclear_norm(A) + nuclear_norm(B) + 1e-10


def test_as_matrix_validation():
    with pytest.raises(InvalidInput):
        as_matrix(np.ones(3))
    with pytest.raises(InvalidInput):
        as_matrix(np.ones((0, 2)))
    with pytest.raises(InvalidInput):
        as_matrix(np.array([[1.0, np.nan]]))
    out = as_matrix([[1, 2], [3, 4]])
    assert out.dtype == np.float64


# svt_factors against the LAPACK oracle.  Bound: ||svt_factors - oracle||_F
# <= 1e-11 ||M||_F, about the worst case (m + p(n)) u / c of the docstring
# of svt_factors for these m <= 40; a zero matrix must come back exact.
@settings(max_examples=150, deadline=None)
@given(rows=st.integers(1, 40), cols=st.integers(1, 40),
       rank_frac=st.floats(0.0, 1.0), low_exp=st.floats(-12.0, 0.0),
       tau_mode=st.sampled_from(["zero", "below_guard", "at_guard", "above_guard"]),
       tau_frac=st.floats(2e-3, 1.5), seed=st.integers(0, 2**32 - 1))
def test_svt_factors_matches_lapack_oracle(rows, cols, rank_frac, low_exp, tau_mode,
                                           tau_frac, seed):
    rng = np.random.default_rng(seed)
    r = int(round(rank_frac * min(rows, cols)))  # 0 gives the zero matrix
    s = np.sort(10.0 ** rng.uniform(low_exp, 1.0, r))[::-1]
    U, _ = np.linalg.qr(rng.normal(size=(rows, max(r, 1))))
    V, _ = np.linalg.qr(rng.normal(size=(cols, max(r, 1))))
    M = (U[:, :r] * s) @ V[:, :r].T
    s1, fro = (s[0] if r else 0.0), np.linalg.norm(M)
    tau = {"zero": 0.0, "below_guard": 0.5 * GUARD * fro,
           "at_guard": GUARD * fro, "above_guard": tau_frac * s1}[tau_mode]
    f = svt_factors(M, tau)
    k = f.s.size
    assert f.U.shape == (rows, k) and f.V.shape == (cols, k)
    assert np.all(f.s > 0) and np.all(np.diff(f.s) <= 0)
    ref = svt_oracle(M, tau)
    assert np.linalg.norm(f.reconstruct() - ref) <= 1e-11 * np.linalg.norm(M)
    assert abs(f.s.sum() - np.maximum(s - tau, 0.0).sum()) <= 1e-11 * max(s.sum(), 1.0)


def test_svt_factors_guard_picks_the_factorization(monkeypatch):
    rng = np.random.default_rng(9)
    M = rng.normal(size=(30, 8))
    fro = np.linalg.norm(M)
    full = []
    monkeypatch.setattr(linalg, "svd_thin", lambda A: full.append(1) or svd_thin(A))
    for tau, want_full in ((0.0, True), (0.9e-3 * fro, True),
                           (1.1e-3 * fro, False), (0.3 * fro, False)):
        full.clear()
        npt.assert_allclose(svt_factors(M, tau).reconstruct(), svt_oracle(M, tau),
                            atol=1e-12 * fro)
        assert bool(full) == want_full


def test_backend_failures_raise_numerical_failure(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")
    M = np.random.default_rng(11).normal(size=(6, 4))
    monkeypatch.setattr(np.linalg, "svd", fail)
    gram_path, full_path = (lambda A: svt_factors(A, 0.5)), (lambda A: svt_factors(A, 0.0))
    for fn in (svd_thin, singular_values, nuclear_norm, gram_path, full_path):
        with pytest.raises(NumericalFailure):
            fn(M)
