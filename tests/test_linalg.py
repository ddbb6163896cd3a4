"""Kernel-level tests: matrix exponential, Schur decomposition,
eigenvalue reordering, and the Sylvester/Lyapunov solvers."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sdedisc import _kernels, linalg
from sdedisc.errors import (ConvergenceError, MatrixOverflowError,
                            NearSingularError, DimensionError, NonFiniteError)
from sdedisc.linalg import (mat_exp, real_schur, order_schur_zeros_last,
                            quasi_tri_eigvalues, solve_sylvester,
                            solve_lyapunov, spectral_norm,
                            symmetric_eigvalues, tau_zero_default)
from sdedisc.modelgen import EnsembleSpec, gen_random_system


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


def _squarings(a, t):
    norm1 = float(np.abs(a * a.dtype.type(t)).sum(axis=0).max())
    return max(0, math.ceil(math.log2(norm1 / linalg._THETA13)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_mat_exp_many_is_mat_exp_slice_by_slice(dtype):
    rng = np.random.default_rng(12)
    a = random_matrix(rng, 6) - 2.0 * np.eye(6)
    s = random_matrix(rng, 6)
    van_loan = np.block([[a, s @ s.T], [np.zeros((6, 6)), -a.T]])
    ts = (1e-3, 0.3, 2.0, 11.0, 40.0, 100.0)
    for m in (a.astype(dtype), van_loan.astype(dtype)):
        assert len({_squarings(m, t) for t in ts}) >= 4
        stack, ok = linalg._mat_exp_many(m, ts)
        assert stack.dtype == dtype and ok.shape == (len(ts),)
        for t, got, finite in zip(ts, stack, ok):
            try:
                want = mat_exp(m, t)
            except MatrixOverflowError:
                assert not finite
                continue
            assert finite and got.tobytes() == want.tobytes()
    # binary32 Van Loan overflows at the longest horizons
    assert ok.all() == (dtype is np.float64)


def test_mat_exp_many_empty_matrix_and_stack():
    stack, ok = linalg._mat_exp_many(np.zeros((0, 0)), [0.5, 2.0])
    assert stack.shape == (2, 0, 0) and ok.tolist() == [True, True]
    assert mat_exp(np.zeros((0, 0)), 2.0).shape == (0, 0)
    stack, ok = linalg._mat_exp_many(np.eye(3), [])
    assert stack.shape == (0, 3, 3) and ok.shape == (0,)


def test_mat_exp_many_flags_overflow_without_warning():
    # exp(10 t) overflows binary64 at t = 100; 10 t itself at t = 1e308
    a = np.array([[10.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stack, ok = linalg._mat_exp_many(a, [1.0, 100.0, 1e308, 2.0])
    assert ok.tolist() == [True, False, False, True]
    assert stack[0].tobytes() == mat_exp(a, 1.0).tobytes()
    assert stack[3].tobytes() == mat_exp(a, 2.0).tobytes()


# ------------------------------------------------------------- real_schur


def check_real_schur(a, tau_zero=None):
    """real_schur(a, tau_zero) against its contract, to 64 n eps ||a||
    (times each eigenvalue's condition number for the eigenvalues): u
    orthogonal, u t u^T = a, t quasi-upper triangular whose 2x2 blocks hold
    complex pairs with equal diagonal, and the eigenvalues of
    np.linalg.eig."""
    n = a.shape[0]
    u, t = real_schur(a, tau_zero)
    assert u.dtype == t.dtype == a.dtype
    a64, u64, t64 = (x.astype(np.float64) for x in (a, u, t))
    tol = 64 * n * np.finfo(a.dtype).eps
    norm = np.linalg.norm(a64, 2)
    assert np.linalg.norm(u64.T @ u64 - np.eye(n), 2) <= tol
    assert np.linalg.norm(u64 @ t64 @ u64.T - a64, 2) <= tol * norm
    assert _quasi_upper_loop(t)
    for i in np.flatnonzero(np.diagonal(t, -1)):
        assert t[i, i] == t[i + 1, i + 1]
        assert t[i, i + 1] * t[i + 1, i] < 0.0
    want, x = np.linalg.eig(a64)
    kappa = np.linalg.norm(x, axis=0) * np.linalg.norm(np.linalg.inv(x),
                                                       axis=1)
    dist = np.abs(want[:, None] - quasi_tri_eigvalues(t)[None, :])
    assert np.all(dist.min(axis=1) <= kappa * tol * norm)
    assert np.all(dist.min(axis=0) <= kappa.max() * tol * norm)


def test_real_schur_reconstruction_and_eigenvalues():
    rng = np.random.default_rng(10)
    for n in (1, 2, 3, 5, 8, 12, 16, 24, 48):
        a = random_matrix(rng, n)
        for dtype in (np.float64, np.float32):
            check_real_schur(a.astype(dtype))


# derandomized so that tier-1 is repeatable; drawn at random over 1500
# binary64 matrices (n <= 24) the worst backward error was 5.6 n eps ||a||
@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 31 - 1), n=st.integers(1, 32),
       dtype=st.sampled_from([np.float64, np.float32]))
def test_real_schur_property(seed, n, dtype):
    rng = np.random.default_rng(seed)
    check_real_schur(random_matrix(rng, n).astype(dtype))


# francis_qr iterations on the cyclic shift of order n, (binary64, binary32)
CYCLIC_QR_ITERATIONS = {3: (16, 15), 4: (19, 19), 5: (21, 19), 8: (28, 25)}


@pytest.mark.parametrize("n", sorted(CYCLIC_QR_ITERATIONS))
def test_real_schur_cyclic_shift_needs_exceptional_shift(n, monkeypatch):
    # every eigenvalue of the cyclic shift lies on the unit circle and the
    # standard double shift leaves it unchanged, so only the exceptional
    # shift (taken every 10th stalled iteration) gets the QR going
    results = []
    francis = _kernels.francis_qr
    monkeypatch.setattr(_kernels, "francis_qr",
                        lambda *args: results.append(francis(*args)) or
                        results[-1])
    for dtype, want in zip((np.float64, np.float32),
                           CYCLIC_QR_ITERATIONS[n]):
        check_real_schur(np.roll(np.eye(n, dtype=dtype), 1, axis=0))
        iterations, converged = results[-1]
        assert converged and 10 < iterations <= 1.25 * want


def test_real_schur_not_converged_raises(monkeypatch):
    monkeypatch.setattr(linalg, "_MAX_QR_SWEEPS", 0)
    with pytest.raises(ConvergenceError) as info:
        real_schur(random_matrix(np.random.default_rng(21), 8))
    assert info.value.sweeps is not None and info.value.sweeps > 0


def test_real_schur_not_converged_names_iteration_limit(monkeypatch):
    monkeypatch.setattr(linalg, "_MAX_QR_SWEEPS", 1)
    with pytest.raises(ConvergenceError, match="within 8 iterations"):
        real_schur(random_matrix(np.random.default_rng(21), 8))


def _deflate_loop(h, hi, eps, anorm):
    """Index-by-index reference for _kernels._deflate."""
    for i in range(1, hi + 1):
        tst = abs(h[i - 1, i - 1]) + abs(h[i, i])
        if tst == 0.0:
            tst = anorm
        if abs(h[i, i - 1]) <= eps * tst:
            h[i, i - 1] = 0.0
    lo = hi
    while lo > 0 and h[lo, lo - 1] != 0.0:
        lo -= 1
    return lo


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 31 - 1), n=st.integers(1, 12),
       dtype=st.sampled_from([np.float64, np.float32]), data=st.data())
def test_deflate_matches_scalar_loop(seed, n, dtype, data):
    rng = np.random.default_rng(seed)
    h = np.triu(rng.standard_normal((n, n)), -1).astype(dtype)
    eps = float(np.finfo(dtype).eps)
    for i in range(1, n):
        # plant subdiagonals under, at and over the deflation bound, and
        # zero diagonal pairs, where the bound falls back to anorm
        kind = data.draw(st.sampled_from(["keep", "under", "at", "over",
                                          "zero"]))
        tst = abs(h[i - 1, i - 1]) + abs(h[i, i])
        if kind == "under":
            h[i, i - 1] = 0.5 * eps * tst
        elif kind == "at":
            h[i, i - 1] = eps * tst
        elif kind == "over":
            h[i, i - 1] = 2.0 * eps * tst
        elif kind == "zero":
            h[i - 1, i - 1] = h[i, i] = 0.0
            h[i, i - 1] = data.draw(st.sampled_from([0.5, 2.0, 1e6])) * eps
    hi = data.draw(st.integers(0, n - 1))
    anorm = float(np.linalg.norm(h))
    want = h.copy()
    lo = _deflate_loop(want, hi, eps, anorm)
    assert _kernels._deflate(h, hi, eps, anorm) == lo
    assert np.array_equal(h, want)


def test_standardize_near_equal_diagonal_backward_stable():
    # a - d = 5.7e-9 = 0.4 sqrt(eps): the rotation's root, formed with
    # cancellation, once gave a backward error of 3e7 eps here
    t0 = np.array([[0.5 + 5.746434968715974e-09, 1.0], [-0.25, 0.5]])
    hu = np.concatenate([t0, np.eye(2)])
    _kernels.standardize_quasi_triangular(hu)
    t, u = hu[:2], hu[2:]
    assert t[0, 0] == t[1, 1] and t[1, 0] != 0.0
    err = np.linalg.norm(u @ t @ u.T - t0, 2)
    assert err <= 64 * 2 * np.finfo(np.float64).eps * np.linalg.norm(t0, 2)


def test_real_schur_symmetric_gives_diagonal():
    rng = np.random.default_rng(11)
    g = random_matrix(rng, 6)
    a = g + g.T
    _, t = real_schur(a)
    off = t - np.diag(np.diag(t))
    assert np.linalg.norm(off) < 1e-11 * np.linalg.norm(a)


def _quasi_upper_loop(a):
    """True if a has real Schur zero structure, checked row by row: zero
    below the first subdiagonal, no two consecutive nonzero subdiagonals."""
    for i in range(2, a.shape[0]):
        if np.any(a[i, :i - 1] != 0.0):
            return False
    sub = np.diagonal(a, -1) != 0.0
    return not np.any(sub[:-1] & sub[1:])


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
        assert _quasi_upper_loop(t)
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


@pytest.mark.parametrize("p1, p2", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_swap_adjacent_blocks(p1, p2):
    # a 1x1 block holds a real eigenvalue, a 2x2 block a complex pair
    blocks = {1: ([[-1.0]], [-1.0]), 2: ([[-0.5, 2.0], [-1.5, -0.5]],
                                         [-0.5 + math.sqrt(3.0) * 1j,
                                          -0.5 - math.sqrt(3.0) * 1j])}
    rng = np.random.default_rng(20)
    n = p1 + p2 + 2
    for dtype in (np.float64, np.float32):
        t0 = np.triu(rng.standard_normal((n, n)), 1)
        t0[1:1 + p1, 1:1 + p1] = blocks[p1][0]
        t0[1 + p1:1 + p1 + p2, 1 + p1:1 + p1 + p2] = 2.0 * np.array(
            blocks[p2][0])
        t0[0, 0], t0[-1, -1] = 3.0, 4.0
        t0 = t0.astype(dtype)
        hu = np.concatenate([t0, np.eye(n, dtype=dtype)])
        linalg._swap_adjacent_blocks(hu, 1, p1, p2)
        t, u = hu[:n], hu[n:]
        tol = 64 * n * np.finfo(dtype).eps * np.linalg.norm(t0, 2)
        assert u.dtype == t.dtype == dtype
        assert np.linalg.norm(u @ t @ u.T - t0, 2) <= tol
        assert np.linalg.norm(u.T @ u - np.eye(n), 2) <= tol
        assert np.count_nonzero(np.tril(t, -2)) == 0
        # the second block now leads, the first trails, the rest stay put
        ev = quasi_tri_eigvalues(t)
        want = [3.0, *(2.0 * np.array(blocks[p2][1])), *blocks[p1][1], 4.0]
        assert np.allclose(np.sort_complex(ev[1:1 + p2]),
                           np.sort_complex(want[1:1 + p2]), atol=4 * tol)
        assert np.allclose(np.sort_complex(ev[1 + p2:-1]),
                           np.sort_complex(want[1 + p2:-1]), atol=4 * tol)
        assert ev[0] == 3.0 and ev[-1] == 4.0


# ------------------------------------------------ real_schur shift hints


@pytest.fixture
def qr_results(monkeypatch):
    """The (iterations, converged) of every francis_qr call, in order."""
    results = []
    francis = _kernels.francis_qr
    monkeypatch.setattr(_kernels, "francis_qr",
                        lambda *args: results.append(francis(*args)) or
                        results[-1])
    return results


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_real_schur_hint_rotated_chains(p, dtype):
    # the computed eigenvalues of a rotated index-p chain scatter by about
    # eps^(1/p) around 0, past tau_zero_default for the deeper chains; the
    # wider 1e-2 counts more of them as zeros
    for m in (0, 2, 8 - p):
        for seed in range(4):
            a = _integrator_system(np.random.default_rng(seed), m, p)
            a = a.astype(dtype)
            for tau_zero in (tau_zero_default(a), 1e-2):
                check_real_schur(a, tau_zero)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("coupled", [False, True])
@pytest.mark.parametrize("reps", [2, 3])
def test_real_schur_hint_repeated_complex_pairs(reps, coupled, dtype):
    # the pair -0.5 +- 2i repeated reps times, as separate blocks or, coupled
    # by identity blocks above the diagonal, as one defective chain; with
    # and without a trailing index-2 integrator chain
    pair = np.array([[-0.5, 2.0], [-2.0, -0.5]])
    lead = np.kron(np.eye(reps), pair)
    if coupled:
        lead += np.kron(np.eye(reps, k=1), np.eye(2))
    for p in (0, 2):
        t0 = np.zeros((2 * reps + p, 2 * reps + p))
        t0[:2 * reps, :2 * reps] = lead
        t0[2 * reps:, 2 * reps:] = np.eye(p, k=1)
        for seed in range(4):
            rng = np.random.default_rng(seed)
            q, _ = np.linalg.qr(rng.standard_normal(t0.shape))
            a = (q @ t0 @ q.T).astype(dtype)
            check_real_schur(a, tau_zero_default(a))


@pytest.mark.parametrize("n", sorted(CYCLIC_QR_ITERATIONS))
def test_real_schur_hint_cyclic_shift(n):
    for dtype in (np.float64, np.float32):
        a = np.roll(np.eye(n, dtype=dtype), 1, axis=0)
        check_real_schur(a, tau_zero_default(a))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 31 - 1), n=st.integers(1, 32),
       dtype=st.sampled_from([np.float64, np.float32]),
       frac=st.floats(0.0, 1.0))
def test_real_schur_hint_property(seed, n, dtype, frac):
    # tau_zero up to ||a||: zero shifts aimed at eigenvalues far from 0
    # stall, and the window falls back to the standard shift
    a = random_matrix(np.random.default_rng(seed), n).astype(dtype)
    check_real_schur(a, frac * float(np.linalg.norm(a)))


def test_real_schur_snapped_shifts_fall_back_after_stall(qr_results):
    # shifts snapped to LAPACK's eigenvalues never converge on this drift
    # without the fallback to the standard shift
    m = gen_random_system(EnsembleSpec(6, 3, 3, seed=0), stream=43)
    check_real_schur(m.a, tau_zero_default(m.a))
    assert qr_results[-1][1]


@pytest.mark.parametrize("seed", [9, 15, 37, 44])
def test_real_schur_zero_shifts_fall_back_after_stall(seed, qr_results):
    # a rotated index-3 chain in binary32 has computed eigenvalues near
    # 2e-3, all counted as zeros, which double shifts at 0 never deflate:
    # the window needs the fallback after its first exceptional shift
    a = _integrator_system(np.random.default_rng(seed), 0, 3)
    a = a.astype(np.float32)
    check_real_schur(a, tau_zero_default(a))
    iterations, converged = qr_results[-1]
    assert converged and iterations > 10


# ---------------------------------------------------------------- solvers


def _complex_blocks(t):
    return int(np.count_nonzero(np.diagonal(t, -1)))


def test_solve_sylvester_random_residuals():
    rng = np.random.default_rng(14)
    pairs_both_sides = 0
    for _ in range(30):
        na, nb = rng.integers(1, 25, size=2)
        a = random_matrix(rng, na)
        b = random_matrix(rng, nb)
        # shift spectra apart so lambda_i(a) + lambda_j(b) stays away from 0
        a = a - (np.abs(np.linalg.eigvals(a).real).max() + 0.5) * np.eye(na)
        b = b - (np.abs(np.linalg.eigvals(b).real).max() + 0.5) * np.eye(nb)
        c = rng.standard_normal((na, nb))
        for dtype in (np.float64, np.float32):
            a_w, b_w = a.astype(dtype), b.astype(dtype)
            ta, tb = real_schur(a_w)[1], real_schur(b_w.T)[1]
            # 2x2 blocks in ta, and 2-column blocks of r = tb^T in trsylv
            pairs_both_sides += bool(_complex_blocks(ta)
                                     and _complex_blocks(tb))
            x = solve_sylvester(a_w, b_w, c.astype(dtype))
            assert x.dtype == dtype
            res = np.linalg.norm(a @ x + x @ b - c)
            scale = (np.linalg.norm(a) + np.linalg.norm(b)) \
                * np.linalg.norm(x) + np.linalg.norm(c)
            assert res <= 64 * max(na, nb) * np.finfo(dtype).eps * scale
    assert pairs_both_sides >= 20


def test_solve_lyapunov_residual_and_symmetry():
    rng = np.random.default_rng(15)
    for _ in range(20):
        n = int(rng.integers(1, 8))
        a = random_matrix(rng, n)
        a = a - (np.abs(np.linalg.eigvals(a).real).max() + 0.5) * np.eye(n)
        g = rng.standard_normal((n, n))
        c = -(g @ g.T)
        x = solve_lyapunov(a, c)
        assert np.array_equal(x, x.T)
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


def test_stacked_spectral_norms_are_spectral_norm():
    # run_benchmark takes the truths' norms in one stacked call
    stack = np.random.default_rng(19).standard_normal((2000, 6, 6))
    got = np.linalg.norm(stack, 2, axis=(1, 2))
    assert got.tolist() == [spectral_norm(a) for a in stack]


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
