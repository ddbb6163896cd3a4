"""Kernel-level tests: matrix exponential, Schur decomposition,
eigenvalue reordering, and the Sylvester/Lyapunov solvers."""

import math
import warnings

import numpy as np
import pytest

from sdedisc import linalg
from sdedisc.errors import (MatrixOverflowError, NearSingularError,
                            DimensionError, NonFiniteError)
from sdedisc.linalg import (mat_exp, real_schur, order_schur_zeros_last,
                            quasi_tri_eigvalues, is_quasi_upper_triangular,
                            solve_sylvester, solve_lyapunov, spectral_norm,
                            symmetric_eigvalues, tau_zero_default)


def random_matrix(rng, n, scale=1.0):
    return scale * rng.standard_normal((n, n))


# ---------------------------------------------------------------- mat_exp


def test_mat_exp_zero_matrix():
    assert np.allclose(mat_exp(np.zeros((3, 3)), 1.0), np.eye(3),
                       rtol=0, atol=1e-15)


def test_mat_exp_scalar():
    for x in (-3.0, -0.1, 0.5, 4.0):
        got = mat_exp(np.array([[x]]), 1.0)[0, 0]
        assert got == pytest.approx(math.exp(x), rel=1e-15)


def test_mat_exp_diagonal():
    d = np.diag([-1.0, 0.0, 2.0])
    got = mat_exp(d, 0.7)
    want = np.diag(np.exp(0.7 * np.diag(d)))
    assert np.allclose(got, want, rtol=1e-14, atol=0)


def test_mat_exp_nilpotent_closed_form():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    for t in (0.3, 2.0, 50.0):
        assert np.allclose(mat_exp(a, t), [[1.0, t], [0.0, 1.0]],
                           rtol=1e-15)


def test_mat_exp_rotation():
    w = 1.3
    a = np.array([[0.0, w], [-w, 0.0]])
    t = 0.9
    want = np.array([[math.cos(w * t), math.sin(w * t)],
                     [-math.sin(w * t), math.cos(w * t)]])
    assert np.allclose(mat_exp(a, t), want, rtol=1e-14, atol=1e-15)


def test_mat_exp_inverse_property():
    rng = np.random.default_rng(5)
    a = random_matrix(rng, 5)
    prod = mat_exp(a, 0.8) @ mat_exp(a, -0.8)
    assert np.allclose(prod, np.eye(5), atol=1e-13)


def test_mat_exp_semigroup_property():
    rng = np.random.default_rng(6)
    a = random_matrix(rng, 6)
    lhs = mat_exp(a, 1.1)
    rhs = mat_exp(a, 0.4) @ mat_exp(a, 0.7)
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_mat_exp_matches_eig_decomposition():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = random_matrix(rng, 6)
        w, v = np.linalg.eig(a)
        want = (v @ np.diag(np.exp(w * 0.5)) @ np.linalg.inv(v)).real
        assert np.allclose(mat_exp(a, 0.5), want, rtol=1e-9, atol=1e-9)


def test_mat_exp_float32_dtype_and_accuracy():
    rng = np.random.default_rng(8)
    a = random_matrix(rng, 4)
    got = mat_exp(a.astype(np.float32), 1.0)
    assert got.dtype == np.float32
    assert np.allclose(got, mat_exp(a, 1.0), rtol=1e-5, atol=1e-5)


def test_mat_exp_overflow_raises():
    with pytest.raises(MatrixOverflowError):
        mat_exp(np.array([[1.0]], dtype=np.float32), 100.0)
    with pytest.raises(MatrixOverflowError):
        mat_exp(np.array([[1.0]]), 1e6)
    # the typed error, not numpy's overflow warning, reaches the caller
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MatrixOverflowError):
            mat_exp(np.array([[1.0]], dtype=np.float32), 100.0)


def test_mat_exp_rejects_bad_input():
    with pytest.raises(DimensionError):
        mat_exp(np.zeros((2, 3)), 1.0)
    with pytest.raises(NonFiniteError):
        mat_exp(np.array([[np.nan]]), 1.0)


# ------------------------------------------------------------- real_schur


def test_real_schur_reconstruction_and_eigenvalues():
    rng = np.random.default_rng(10)
    for n in (1, 2, 3, 5, 8, 12):
        a = random_matrix(rng, n)
        u, t = real_schur(a)
        assert np.allclose(u @ u.T, np.eye(n), atol=1e-13)
        assert np.allclose(u @ t @ u.T, a, atol=1e-12 * max(1, n))
        assert is_quasi_upper_triangular(t)
        got = np.sort_complex(quasi_tri_eigvalues(t))
        want = np.sort_complex(np.linalg.eigvals(a))
        assert np.allclose(got, want, rtol=1e-8, atol=1e-8)


def test_real_schur_symmetric_gives_diagonal():
    rng = np.random.default_rng(11)
    g = random_matrix(rng, 6)
    a = g + g.T
    _, t = real_schur(a)
    off = t - np.diag(np.diag(t))
    assert np.linalg.norm(off) < 1e-11 * np.linalg.norm(a)


def _quasi_upper_loop(a):
    """Row-by-row reference for is_quasi_upper_triangular."""
    for i in range(2, a.shape[0]):
        if np.any(a[i, :i - 1] != 0.0):
            return False
    sub = np.diagonal(a, -1) != 0.0
    return not np.any(sub[:-1] & sub[1:])


def test_is_quasi_upper_triangular_cases():
    assert is_quasi_upper_triangular(np.zeros((0, 0)))
    assert is_quasi_upper_triangular(np.array([[3.0]]))
    assert not is_quasi_upper_triangular(np.tril(np.ones((4, 4))))
    two_subdiagonals = np.triu(np.ones((4, 4)), -1)
    two_subdiagonals[3, 2] = 0.0  # nonzero at (1, 0) and (2, 1)
    assert not is_quasi_upper_triangular(two_subdiagonals)
    two_subdiagonals[2, 1] = 0.0
    assert is_quasi_upper_triangular(two_subdiagonals)
    rng = np.random.default_rng(19)
    for _ in range(200):
        n = int(rng.integers(0, 6))
        a = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.2)
        a += np.triu(rng.standard_normal((n, n)))
        assert is_quasi_upper_triangular(a) == _quasi_upper_loop(a)


# --------------------------------------------------------------- ordering


def _integrator_system(rng, m, p):
    n = m + p
    a = np.zeros((n, n))
    a[:m, :m] = np.diag(rng.uniform(-2.0, -0.1, size=m))
    for j in range(p - 1):
        a[m + j, m + j + 1] = 1.0
    a[:m, m:] = rng.standard_normal((m, p))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q @ a @ q.T


def test_order_schur_zeros_last_splits_correctly():
    rng = np.random.default_rng(12)
    for m, p in ((4, 2), (3, 1), (1, 2), (0, 2), (3, 0)):
        a = _integrator_system(rng, m, p)
        u0, t0 = real_schur(a)
        u, t, k = order_schur_zeros_last(u0, t0, tau_zero_default(a))
        n = m + p
        assert k == m
        assert np.allclose(u @ t @ u.T, a, atol=1e-11)
        assert np.allclose(u @ u.T, np.eye(n), atol=1e-13)
        assert is_quasi_upper_triangular(t)
        ev = quasi_tri_eigvalues(t)
        tau = tau_zero_default(a)
        assert np.all(np.abs(ev[:k]) > tau)
        assert np.all(np.abs(ev[k:]) <= tau)


def test_order_schur_preserves_complex_pairs():
    a = np.array([[-0.5, 2.0, 1.0],
                  [-2.0, -0.5, 0.3],
                  [0.0, 0.0, 0.0]])
    rng = np.random.default_rng(13)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    a = q @ a @ q.T
    u0, t0 = real_schur(a)
    u, t, k = order_schur_zeros_last(u0, t0, tau_zero_default(a))
    assert k == 2
    ev = quasi_tri_eigvalues(t)
    assert abs(ev[0].imag) > 1.0  # pair stayed together in the lead block


def test_order_schur_one_stable_pass(monkeypatch):
    # diagonal blocks: 0, -1, 0, (-0.5 +- 2i), 0, -3 on a random upper part
    rng = np.random.default_rng(14)
    t0 = np.triu(rng.standard_normal((7, 7)), 1)
    np.fill_diagonal(t0, [0.0, -1.0, 0.0, -0.5, -0.5, 0.0, -3.0])
    t0[3, 4], t0[4, 3] = 2.0, -2.0
    calls = []
    classify = linalg._classify_blocks
    monkeypatch.setattr(linalg, "_classify_blocks",
                        lambda *args: calls.append(1) or classify(*args))
    u, t, k = order_schur_zeros_last(np.eye(7), t0, 1e-8)
    assert len(calls) == 2  # once before the swaps, once to check them
    assert k == 4
    assert np.allclose(u @ t @ u.T, t0, atol=1e-13)
    ev = quasi_tri_eigvalues(t)
    # the non-zero blocks keep their order
    assert np.allclose(ev[:4], [-1.0, -0.5 + 2j, -0.5 - 2j, -3.0])
    assert np.all(np.abs(ev[4:]) <= 1e-8)


# ---------------------------------------------------------------- solvers


def test_solve_sylvester_random_residuals():
    rng = np.random.default_rng(14)
    for _ in range(30):
        na, nb = rng.integers(1, 7, size=2)
        a = random_matrix(rng, na)
        b = random_matrix(rng, nb)
        # shift spectra apart so lambda_i(a) + lambda_j(b) stays away from 0
        a = a - (np.abs(np.linalg.eigvals(a).real).max() + 0.5) * np.eye(na)
        b = b - (np.abs(np.linalg.eigvals(b).real).max() + 0.5) * np.eye(nb)
        c = rng.standard_normal((na, nb))
        x = solve_sylvester(a, b, c)
        res = np.linalg.norm(a @ x + x @ b - c)
        assert res < 1e-11 * max(1.0, np.linalg.norm(x))


def test_solve_lyapunov_residual_and_symmetry():
    rng = np.random.default_rng(15)
    for _ in range(20):
        n = int(rng.integers(1, 8))
        a = random_matrix(rng, n)
        a = a - (np.abs(np.linalg.eigvals(a).real).max() + 0.5) * np.eye(n)
        g = rng.standard_normal((n, n))
        c = -(g @ g.T)
        x = solve_lyapunov(a, c)
        assert np.allclose(x, x.T, atol=1e-12 * np.linalg.norm(x))
        res = np.linalg.norm(a @ x + x @ a.T - c)
        assert res < 1e-11 * max(1.0, np.linalg.norm(x))


def test_solve_lyapunov_stationary_scalar():
    # a x + x a = -s  ->  x = s / (2 |a|)
    x = solve_lyapunov(np.array([[-1.0]]), np.array([[-2.0]]))
    assert x[0, 0] == pytest.approx(1.0, rel=1e-14)


def test_solve_sylvester_near_singular_guard():
    # spectra {1} and {-1}: eigenvalue sum exactly zero
    with pytest.raises(NearSingularError):
        solve_sylvester(np.array([[1.0]]), np.array([[-1.0]]),
                        np.array([[1.0]]))


def test_solve_lyapunov_integrator_guard():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NearSingularError):
        solve_lyapunov(a, -np.eye(2))


def test_solve_sylvester_float32():
    rng = np.random.default_rng(16)
    a = (random_matrix(rng, 3) - 3.0 * np.eye(3)).astype(np.float32)
    b = (random_matrix(rng, 3) - 3.0 * np.eye(3)).astype(np.float32)
    c = rng.standard_normal((3, 3)).astype(np.float32)
    x = solve_sylvester(a, b, c)
    assert x.dtype == np.float32
    res = np.linalg.norm(a @ x + x @ b - c)
    assert res < 1e-4


# -------------------------------------------------------------- norms etc


def test_spectral_norm_matches_svd():
    rng = np.random.default_rng(17)
    for _ in range(20):
        a = random_matrix(rng, int(rng.integers(1, 9)))
        want = np.linalg.norm(a, 2)
        assert spectral_norm(a) == pytest.approx(want, rel=1e-12)


def test_symmetric_eigvalues_sorted_and_correct():
    rng = np.random.default_rng(18)
    g = random_matrix(rng, 7)
    a = g + g.T
    got = symmetric_eigvalues(a)
    want = np.sort(np.linalg.eigvalsh(a))
    assert np.allclose(got, want, rtol=1e-11, atol=1e-11)


def test_tau_zero_default_scales_with_norm():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert tau_zero_default(10.0 * a) == pytest.approx(
        10.0 * tau_zero_default(a))
    a32 = a.astype(np.float32)
    assert tau_zero_default(a32) > tau_zero_default(a)
