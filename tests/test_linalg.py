"""Kernel-level tests: matrix exponential, Schur decomposition,
eigenvalue reordering, and the Sylvester/Lyapunov solvers."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sdedisc import _kernels, discretize, linalg
from sdedisc.discretize import discretize_proposed
from sdedisc.errors import (ConvergenceError, MatrixOverflowError,
                            DimensionError, NonFiniteError)
from sdedisc.linalg import (mat_exp, real_schur, order_schur_zeros_last,
                            quasi_tri_eigvalues, solve_sylvester,
                            solve_lyapunov, spectral_norm)
from sdedisc.models import ContinuousModel
from sdedisc.modelgen import (EnsembleSpec, constant_velocity,
                              gen_random_system, observer_canonical)


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


def test_mat_exp_nilpotent_long_horizons():
    # exp(N t) = I + N t for any t: the diagonal of a nilpotent drift is on
    # no cycle of its zero pattern, so it stays exactly 1 through the
    # squarings, which would raise a one-ulp error to the power 2^s
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    for t in (1e10, 1e50):
        f = mat_exp(a, t)
        assert np.allclose(f, [[1.0, t], [0.0, 1.0]], rtol=1e-15, atol=0.0)


def test_mat_exp_zero_rows_are_unit_rows():
    # a zero row of A is a unit row of exp(A t) at every horizon, exactly:
    # the squarings keep it, and do not raise a rounded one to 2^s
    for a in (constant_velocity().a,
              observer_canonical([1, 2], [1, 0.5], p=1).a):
        unit = np.eye(len(a))[-1].tolist()
        assert not a[-1].any()
        for t in (1e10, 1e50, 1e300):
            assert mat_exp(a, t)[-1].tolist() == unit, (a, t)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_mat_exp_at_zero_is_identity(dtype):
    # sigma = 0 takes the table's identity, not a Pade quotient rounded to
    # one ulp off it; a stacked horizon of 1.0 keeps the bits it has alone
    a = gen_random_system(EnsembleSpec(6, 4, 2, seed=0)).a.astype(dtype)
    eye = np.eye(6, dtype=dtype)
    assert mat_exp(a, 0.0).tobytes() == eye.tobytes()
    table = linalg._exp_table(a)
    (at_zero, at_one), _, ok = linalg._exp_at(table, (0.0, 1.0))
    (alone,), _, _ = linalg._exp_at(table, (1.0,))
    assert ok.all()
    assert at_zero.tobytes() == eye.tobytes()
    assert at_one.tobytes() == alone.tobytes()


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


def _least_squarings(nu, t):
    """The least s with nu t / 2^s <= theta13 in binary64, by counting."""
    s = 0
    while nu * math.ldexp(t, -s) > linalg._THETA13:
        s += 1
    return s


def test_squarings_is_the_least_count():
    # 1-norms within 4 ulps of theta13 2^k, split between nu and t in three
    # ways, and products nu t that overflow binary64
    probes = []
    for k in range(60):
        x = math.ldexp(linalg._THETA13, k)
        for d in range(-4, 5):
            y = x + d * math.ulp(x)
            probes += [(y, 1.0), (1.0, y), (math.ldexp(y, -30), 2.0 ** 30)]
    huge = [(1e300, 1e10), (1e300, 1.7e308), (1.7e308, 1.7e308)]
    assert all(math.isinf(nu * t) for nu, t in huge)
    probes += huge + [(0.0, 1e300), (1e300, 0.0), (1.0, 5.0), (0.0, 0.0)]
    wrong_by_log2 = 0
    for nu, t in probes:
        want = _least_squarings(nu, t)
        assert linalg._squarings(nu, t) == want, (nu, t)
        if 0.0 < nu * t < math.inf:
            wrong_by_log2 += want != max(0, math.ceil(
                math.log2(nu * t / linalg._THETA13)))
    # the probes reach where a log2 rule picks one squaring too few
    assert wrong_by_log2 > 0


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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 31 - 1), n=st.integers(1, 6),
       dtype=st.sampled_from([np.float64, np.float32]),
       counts=st.lists(st.integers(0, 5), max_size=8),
       order=st.sampled_from(["drawn", "ascending", "descending"]),
       kept=st.integers(0, 6))
def test_squared_is_a_per_slice_loop(seed, n, dtype, counts, order, kept):
    # empty, single, tied and shuffled count lists, and sorted ones, whose
    # squarings take the suffix path; where the trailing rows top .. are
    # kept (up to n - 1 of them), as the carried [[E, C], [0, I]] keeps
    # [0, I], each squaring makes rows :top alone, with the same bits
    if order != "drawn":
        counts.sort(reverse=order == "descending")
    top = n - min(kept, n - 1)
    rng = np.random.default_rng(seed)
    r = (rng.standard_normal((len(counts), n, n)) / n).astype(dtype)
    want = r.copy()
    for i, count in enumerate(counts):
        for _ in range(count):
            want[i, :top] = want[i, :top] @ want[i]
    got = _kernels.squared(r.copy(), counts, top)
    assert got.dtype == dtype and got.tobytes() == want.tobytes()


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


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_fro_norm_is_numpy_norm_where_finite(dtype):
    # bit for bit np.linalg.norm where that is finite, at any scale the
    # width holds; past it finite up to binary64's largest number, and
    # MatrixOverflowError beyond
    rng = np.random.default_rng(0)
    huge = float(np.finfo(dtype).max)
    for n in (0, 1, 3, 16):
        for scale in (1.0, 1e-3, 1e12, 1e-12, 2.0 ** 60):
            a = random_matrix(rng, n, scale).astype(dtype)
            with np.errstate(over="ignore"):
                want = float(np.linalg.norm(a))
            got = linalg._fro_norm(a)
            assert got == want or not math.isfinite(want) and got < math.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for big in (huge / 2, math.sqrt(huge) * 4):
            a = np.array([[0.0, big], [big, 0.0]], dtype=dtype)
            assert linalg._fro_norm(a) == pytest.approx(
                math.sqrt(2.0) * float(a[0, 1]), rel=2 * np.finfo(dtype).eps)
        assert math.isfinite(discretize._lyap_p_margin(a))
        with pytest.raises(MatrixOverflowError):
            linalg._fro_norm(np.full((2, 2), 1.5e308))


def check_real_schur(a):
    """real_schur(a) against its contract, to 64 n eps ||a|| (times each
    eigenvalue's condition number for the eigenvalues): u orthogonal,
    u t u^T = a, t quasi-upper triangular whose 2x2 blocks hold complex
    pairs (a negative discriminant at t's width), and the eigenvalues of
    np.linalg.eig."""
    n = a.shape[0]
    u, t = real_schur(a)
    assert u.dtype == t.dtype == a.dtype
    a64, u64, t64 = (x.astype(np.float64) for x in (a, u, t))
    tol = 64 * n * np.finfo(a.dtype).eps
    norm = np.linalg.norm(a64, 2)
    assert np.linalg.norm(u64.T @ u64 - np.eye(n), 2) <= tol
    assert np.linalg.norm(u64 @ t64 @ u64.T - a64, 2) <= tol * norm
    assert _quasi_upper_loop(t)
    for i in np.flatnonzero(np.diagonal(t, -1)):
        (a, b), (c, d) = t[i:i + 2, i:i + 2]
        half = 0.5 * (a - d)
        assert half * half + b * c < 0.0
    want, x = np.linalg.eig(a64)
    # an exactly defective eigenvalue, as of the plan's split N, has a
    # singular basis: its kappa is inf, and the nearest computed
    # eigenvalue's tolerance is its own
    with np.errstate(over="ignore"):
        kappa = np.linalg.norm(x, axis=0) * np.linalg.norm(np.linalg.inv(x),
                                                           axis=1)
    dist = np.abs(want[:, None] - quasi_tri_eigvalues(t)[None, :])
    assert np.all(dist.min(axis=1) <= kappa * tol * norm)
    assert np.all(dist.min(axis=0)
                  <= kappa[dist.argmin(axis=0)] * tol * norm)


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


# orders of the cyclic shift, whose eigenvalues all lie on the unit circle
CYCLIC_SHIFT_SIZES = [3, 4, 5, 8]


def test_real_schur_not_converged_raises(monkeypatch):
    # the integrator pair leaves a trailing window for the QR iteration,
    # which no limit of 0 iterations lets it reduce
    monkeypatch.setattr(linalg, "_MAX_QR_SWEEPS", 0)
    a = _integrator_system(np.random.default_rng(21), 6, 2)
    with pytest.raises(ConvergenceError) as info:
        real_schur(a)
    assert info.value.sweeps is not None and info.value.sweeps > 0


def test_real_schur_not_converged_names_iteration_limit(monkeypatch):
    # the cyclic shift factored from itself needs more than one iteration
    # per row
    monkeypatch.setattr(linalg, "_MAX_QR_SWEEPS", 1)
    monkeypatch.setattr(linalg, "_eigenvector_start", lambda *args: None)
    a = np.roll(np.eye(4, dtype=np.float32), 1, axis=0)
    with pytest.raises(ConvergenceError,
                       match=r"within 4 iterations \(1 per row\)"):
        real_schur(a)


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


def test_real_schur_keeps_complex_pair_block():
    # a 2x2 complex-pair block is already a Schur form: no rotation
    # equalizes its diagonal
    for dtype in (np.float64, np.float32):
        a = np.array([[0.3, 2.0], [-1.5, -0.7]], dtype=dtype)
        u, t = real_schur(a)
        assert t.tobytes() == a.tobytes()
        assert u.tobytes() == np.eye(2, dtype=dtype).tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_standardize_near_nilpotent_blocks(dtype):
    # rotated nilpotent blocks rounded to the width: the discriminant is at
    # rounding level, of either sign.  split_real_pairs splits a block
    # whose discriminant is >= 0, backward stably, and leaves the others,
    # complex pairs, bit for bit
    rng = np.random.default_rng(30)
    eps = np.finfo(dtype).eps
    split = kept = 0
    for theta, scale in zip(rng.uniform(0.0, np.pi, 1000),
                            rng.uniform(0.1, 10.0, 1000)):
        rot = np.array([[np.cos(theta), -np.sin(theta)],
                        [np.sin(theta), np.cos(theta)]])
        t0 = (rot @ [[0.0, scale], [0.0, 0.0]] @ rot.T).astype(dtype)
        (a, b), (c, d) = t0
        half = 0.5 * (a - d)
        hu = np.concatenate([t0, np.eye(2, dtype=dtype)])
        before = hu.copy()
        _kernels.split_real_pairs(hu)
        if half * half + b * c < 0.0:
            assert hu.tobytes() == before.tobytes()
            kept += 1
            continue
        t, u = hu[:2].astype(np.float64), hu[2:].astype(np.float64)
        assert t[1, 0] == 0.0
        err = np.linalg.norm(u @ t @ u.T - t0, 2)
        assert err <= 64 * 2 * eps * np.linalg.norm(t0.astype(np.float64), 2)
        split += 1
    assert split > 100 and kept > 100


def test_quasi_tri_eigvalues_exact_on_small_blocks():
    # a 2x2 block with a negative discriminant has purely imaginary roots
    # about its mean: no rounding-level real part, which lyap-p's
    # max Re(lambda) check would read
    t = np.array([[0.0, 2.0, 5.0, 1.0],
                  [-2.0, 0.0, 3.0, 2.0],
                  [0.0, 0.0, -1.0, 4.0],
                  [0.0, 0.0, 1.0, -1.0]], dtype=np.float32)
    assert quasi_tri_eigvalues(t).tolist() == [2j, -2j, 1.0, -3.0]
    assert _kernels._roots(0.0, 2.0, -2.0, 0.0) == (2j, -2j)
    assert quasi_tri_eigvalues(np.array([[-0.5]])).tolist() == [-0.5]
    assert quasi_tri_eigvalues(np.zeros((0, 0))).shape == (0,)


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


# the reordering margin for the rotated chains below, whose computed
# eigenvalues scatter by about eps^(1/p) |A| around 0 for p <= 2, well
# inside it, and whose stable poles lie below -0.1
CHAIN_MARGIN = 1e-5


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
        u, t, k = order_schur_zeros_last(*real_schur(a), CHAIN_MARGIN)
        n = m + p
        assert k == m
        assert np.allclose(u @ t @ u.T, a, atol=1e-11)
        assert np.allclose(u @ u.T, np.eye(n), atol=1e-13)
        assert _quasi_upper_loop(t)
        ev = quasi_tri_eigvalues(t)
        assert np.all(np.abs(ev[:k]) > CHAIN_MARGIN)
        assert np.all(np.abs(ev[k:]) <= CHAIN_MARGIN)


def test_order_schur_preserves_complex_pairs():
    a = np.array([[-0.5, 2.0, 1.0],
                  [-2.0, -0.5, 0.3],
                  [0.0, 0.0, 0.0]])
    rng = np.random.default_rng(13)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    a = q @ a @ q.T
    u, t, k = order_schur_zeros_last(*real_schur(a), CHAIN_MARGIN)
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


def test_order_schur_no_swap_classifies_once(monkeypatch):
    # diagonal blocks -1, (-0.5 +- 2i), -3, 0, 0, 0: already in order
    rng = np.random.default_rng(14)
    t0 = np.triu(rng.standard_normal((7, 7)), 1)
    np.fill_diagonal(t0, [-1.0, -0.5, -0.5, -3.0, 0.0, 0.0, 0.0])
    t0[1, 2], t0[2, 1] = 2.0, -2.0
    calls = []
    classify = linalg._classify_blocks
    monkeypatch.setattr(linalg, "_classify_blocks",
                        lambda *args: calls.append(1) or classify(*args))
    u, t, k = order_schur_zeros_last(np.eye(7), t0, 1e-8)
    assert len(calls) == 1
    assert k == 4
    assert np.array_equal(t, t0) and np.array_equal(u, np.eye(7))


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


# ------------------------------------------- real_schur starts and shifts


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
    # eps^(1/p) around 0, so its eigenvector basis is ill-conditioned
    for m in (0, 2, 8 - p):
        for seed in range(4):
            a = _integrator_system(np.random.default_rng(seed), m, p)
            check_real_schur(a.astype(dtype))


def _rotated(t0, seed):
    """t0 under a random orthogonal similarity."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal(t0.shape))
    return q @ t0 @ q.T


def _repeated_pairs(reps, coupled):
    """The pair -0.5 +- 2i repeated reps times, as separate blocks or, coupled
    by identity blocks above the diagonal, as one defective chain; without
    and with a trailing index-2 integrator chain."""
    pair = np.array([[-0.5, 2.0], [-2.0, -0.5]])
    lead = np.kron(np.eye(reps), pair)
    if coupled:
        lead += np.kron(np.eye(reps, k=1), np.eye(2))
    for p in (0, 2):
        t0 = np.zeros((2 * reps + p, 2 * reps + p))
        t0[:2 * reps, :2 * reps] = lead
        t0[2 * reps:, 2 * reps:] = np.eye(p, k=1)
        yield t0


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("coupled", [False, True])
@pytest.mark.parametrize("reps", [2, 3])
def test_real_schur_hint_repeated_complex_pairs(reps, coupled, dtype):
    for t0 in _repeated_pairs(reps, coupled):
        for seed in range(4):
            check_real_schur(_rotated(t0, seed).astype(dtype))


@pytest.mark.parametrize("n", CYCLIC_SHIFT_SIZES)
def test_real_schur_hint_cyclic_shift(n):
    for dtype in (np.float64, np.float32):
        check_real_schur(np.roll(np.eye(n, dtype=dtype), 1, axis=0))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("n", [6, 16, 48])
def test_real_schur_eigenvector_start_on_ensembles(n, dtype, eigvec_starts):
    # the ensemble's drifts, with the integrator pair split off as the plan
    # does, have well-conditioned eigenvector bases for their nonzero
    # eigenvalues
    for stream in range(8 if n < 48 else 2):
        a = gen_random_system(EnsembleSpec(n, n - 2, 2, seed=7), stream).a
        a = a.astype(dtype)
        tol = 100.0 * linalg.eps_of(a) * linalg._fro_norm(a)
        check_real_schur(discretize._split(a, tol)[1])
    assert eigvec_starts and all(eigvec_starts)


def _ill_conditioned_bases(family):
    """Drifts whose computed eigenvectors are nearly dependent: rotated
    index-3 to index-5 integrator chains, a rotated critically damped pole
    next to an integrator pair, and coupled repeated complex pairs."""
    if family.startswith("chain"):
        p = int(family[-1])
        for m in (0, 2, 8 - p):
            for seed in range(4):
                yield _integrator_system(np.random.default_rng(seed), m, p)
    elif family == "critically-damped":
        t0 = np.zeros((4, 4))
        t0[:2, :2] = [[-1.0, 1.0], [0.0, -1.0]]
        t0[2, 3] = 1.0
        for seed in range(8):
            yield _rotated(t0, seed)
    else:
        for reps in (2, 3):
            for t0 in _repeated_pairs(reps, coupled=True):
                for seed in range(4):
                    yield _rotated(t0, seed)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("family", ["chain3", "chain4", "chain5",
                                    "critically-damped", "coupled-pairs"])
def test_real_schur_eigenvector_start_falls_back(family, dtype,
                                                 eigvec_starts):
    # a basis whose QR factor leaves too much below the quasi-triangular
    # structure is refused, and the factorization starts from a itself;
    # each family has such cases
    for a in _ill_conditioned_bases(family):
        check_real_schur(a.astype(dtype))
    assert not all(eigvec_starts)


def test_cold_plan_makes_no_sweep_in_leading_block(qr_results,
                                                   monkeypatch):
    # from the eigenvector start only the integrator pair's 2x2 window is
    # left: no Householder reflector, and one iteration that deflates it
    reflectors = []
    householder = _kernels._householder
    monkeypatch.setattr(_kernels, "_householder",
                        lambda *args: reflectors.append(1) or
                        householder(*args))
    for stream in range(8):
        discretize._last_plan = None
        discretize_proposed(
            gen_random_system(EnsembleSpec(16, 14, 2, seed=7), stream), 1.0)
        assert qr_results[-1] == (1, True)
        assert not reflectors


def _default_plan_models():
    """The three workloads' model families (paper-sweep's and
    irregular-track's n = 6 ensembles, irregular-track's index-3 chains,
    large-state's n = 16 ensemble) and the critically damped and coupled
    pair drifts, with S = I, some of whose Schur forms start from A itself,
    at both widths."""
    specs = [EnsembleSpec(6, 4, 2, seed=s) for s in range(4)]
    specs += [EnsembleSpec(6, 3, 3, seed=0), EnsembleSpec(16, 14, 2, seed=7)]
    drifts = [gen_random_system(spec, stream).a
              for spec in specs for stream in range(4)]
    drifts += list(_ill_conditioned_bases("critically-damped"))
    drifts += list(_ill_conditioned_bases("coupled-pairs"))
    for a in drifts:
        for dtype in (np.float64, np.float32):
            n = a.shape[0]
            yield ContinuousModel(a.astype(dtype), np.eye(n, dtype=dtype))


def test_default_plan_takes_the_split_with_no_reordering(monkeypatch,
                                                         eigvec_starts):
    # no eigenvalue of these drifts but their integrators has Re(lambda)
    # >= -200 eps |A|_F, so the plan's split is _split's k and no
    # reordering pass runs
    calls = []
    order = discretize.order_schur_zeros_last
    monkeypatch.setattr(discretize, "order_schur_zeros_last",
                        lambda *args: calls.append(1) or order(*args))
    for m in _default_plan_models():
        plan = discretize._ProposedPlan(m)
        eps = linalg.eps_of(m.a)
        k = discretize._split(m.a, 100.0 * eps * linalg._fro_norm(m.a))[2]
        assert plan.k == k
        for report in plan.reports((1e-3, 1.0, 100.0)):
            assert report.diagnostics == {"split_index": float(k),
                                          "integrator_count": m.n - k}
    assert not calls
    assert not all(eigvec_starts)


def _standardized_quasi_triangular(rng, n):
    """A random n x n quasi-upper triangular matrix whose 2x2 blocks hold
    complex pairs with equal diagonal, their off-diagonals of opposite sign
    and at least 0.5 in modulus."""
    t = np.triu(rng.standard_normal((n, n)))
    i = 0
    while i < n - 1:
        if rng.random() < 0.5:
            b, c = rng.uniform(0.5, 2.0, size=2)
            t[i, i + 1], t[i + 1, i] = b, -c
            t[i + 1, i + 1] = t[i, i]
            i += 2
        else:
            i += 1
    return t


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 31 - 1), n=st.integers(1, 16),
       dtype=st.sampled_from([np.float64, np.float32]), data=st.data())
def test_schur_kernels_reduce_only_trailing_window(seed, n, dtype, data):
    # t0 = [[T11, T12], [0, T22]] with T11 finished: hessenberg and
    # francis_qr reduce T22 and leave T11 and U's leading columns alone
    rng = np.random.default_rng(seed)
    top = data.draw(st.integers(0, n))
    t11 = _standardized_quasi_triangular(rng, n)
    if 0 < top < n and t11[top, top - 1] != 0.0:
        top -= 1  # the cut fell inside a 2x2 block
    t0 = rng.standard_normal((n, n))
    t0[:top, :top] = t11[:top, :top]
    t0[top:, :top] = 0.0
    t0 = t0.astype(dtype)
    hu = np.concatenate([t0, np.eye(n, dtype=dtype)])
    _kernels.hessenberg(hu, top)
    iterations, converged = _kernels.francis_qr(
        hu, float(np.finfo(dtype).eps), float(np.linalg.norm(t0)),
        linalg._MAX_QR_SWEEPS, top)
    t, u = hu[:n], hu[n:]
    assert converged
    assert t[:top, :top].tobytes() == t0[:top, :top].tobytes()
    assert u[:, :top].tobytes() == np.eye(n, dtype=dtype)[:, :top].tobytes()
    assert _quasi_upper_loop(t)
    t64, u64 = t.astype(np.float64), u.astype(np.float64)
    tol = 64 * n * np.finfo(dtype).eps
    assert np.linalg.norm(u64.T @ u64 - np.eye(n), 2) <= tol
    assert (np.linalg.norm(u64 @ t64 @ u64.T - t0, 2)
            <= tol * np.linalg.norm(t0.astype(np.float64), 2))


def test_real_schur_fallback_start_converges(qr_results, eigvec_starts):
    # this rotated index-3 chain's eigenvector basis is refused, and the
    # factorization from the drift itself converges
    m = gen_random_system(EnsembleSpec(6, 3, 3, seed=0), stream=43)
    check_real_schur(m.a)
    assert eigvec_starts == [False]
    assert qr_results[-1][1]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 31 - 1), n=st.integers(1, 16),
       p=st.integers(0, 5), dtype=st.sampled_from([np.float64, np.float32]))
def test_real_schur_fallback_start_property(seed, n, p, dtype):
    # every drift factored from itself, as when its eigenvector basis is
    # refused: stable poles over a rotated index-p integrator chain
    p = min(p, n)
    a = _integrator_system(np.random.default_rng(seed), n - p, p)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "_eigenvector_start", lambda *args: None)
        check_real_schur(a.astype(dtype))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("n", CYCLIC_SHIFT_SIZES)
def test_real_schur_cyclic_shift_takes_exceptional_shifts(n, dtype,
                                                          qr_results,
                                                          monkeypatch):
    # the cyclic shift factored from itself: its Wilkinson shifts stall,
    # and the window deflates only after an exceptional shift, which
    # comes on the 10th iteration without a deflation
    monkeypatch.setattr(linalg, "_eigenvector_start", lambda *args: None)
    check_real_schur(np.roll(np.eye(n, dtype=dtype), 1, axis=0))
    iterations, converged = qr_results[-1]
    assert converged and iterations > 10


# ---------------------------------------------------------------- solvers


def _complex_blocks(t):
    return int(np.count_nonzero(np.diagonal(t, -1)))


def sylvester_by_schur(a, b, c):
    """solve_sylvester for a @ X + X @ b = c from real_schur's factors of a
    and of b^T, b = ub @ tb^T @ ub^T."""
    ua, ta = real_schur(a)
    ub, tb = real_schur(b.T)
    return solve_sylvester(ua, ta, ub, np.ascontiguousarray(tb.T), c)


def lyapunov_by_schur(a, c):
    """solve_lyapunov for a @ X + X @ a^T = c from real_schur's factors."""
    return solve_lyapunov(*real_schur(a), c)


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
            ua, ta = real_schur(a_w)
            ub, tb = real_schur(b_w.T)
            # 2x2 blocks in ta, and 2-column blocks of r = tb^T in trsylv
            pairs_both_sides += bool(_complex_blocks(ta)
                                     and _complex_blocks(tb))
            x = solve_sylvester(ua, ta, ub, np.ascontiguousarray(tb.T),
                                c.astype(dtype))
            assert x.dtype == dtype
            res = np.linalg.norm(a @ x + x @ b - c)
            scale = (np.linalg.norm(a) + np.linalg.norm(b)) \
                * np.linalg.norm(x) + np.linalg.norm(c)
            assert res <= 64 * max(na, nb) * np.finfo(dtype).eps * scale
    assert pairs_both_sides >= 20


def quasi_upper(rng, m, pairs):
    """A random m x m quasi-upper triangular matrix with a
    complex-pair 2x2 block at rows 0, 3, .. (pairs of them) and every
    eigenvalue's real part in [-3, -1]."""
    t = np.triu(0.5 * rng.standard_normal((m, m)), 1)
    np.fill_diagonal(t, -rng.uniform(1.0, 3.0, m))
    for i in range(0, 3 * pairs, 3):
        t[i + 1, i + 1] = t[i, i]
        b, c = rng.uniform(0.5, 2.0, 2)
        t[i, i + 1], t[i + 1, i] = b, -c
    return t


def narrowest_spans(r):
    """The narrowest column blocks of r, last first: for each end j, the
    largest j0 < j with r[:j0, j0:j] == 0."""
    spans, j = [], r.shape[0]
    while j > 0:
        j0 = next(j0 for j0 in range(j - 1, -1, -1)
                  if not r[:j0, j0:j].any())
        spans.append((j0, j))
        j = j0
    return spans


def assert_maximal_blocks(spans, r, p):
    """spans tile r's columns, last first, by unions of its narrowest
    blocks; each has at most _INVERT_MAX unknowns (p per column) or is
    one narrowest block; and no two neighbours could merge."""
    narrowest = narrowest_spans(r)
    ends = [r.shape[0]] + [j0 for j0, _ in spans]
    assert [j for _, j in spans] == ends[:-1] and ends[-1] == 0
    assert {j0 for j0, _ in spans} <= {j0 for j0, _ in narrowest}
    assert all(s in narrowest or (j - j0) * p <= _kernels._INVERT_MAX
               for s in spans for j0, j in [s])
    assert all((j - j0) * p > _kernels._INVERT_MAX
               for (_, j), (j0, _) in zip(spans, spans[1:]))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("p", [4, 16, 17, 33])
def test_trsylv_inverted_and_solved_blocks(p, dtype):
    # ta is p x p, so a w-column block of r has w p unknowns, and the
    # narrowest blocks merge while a union has at most 32: at p = 4 every
    # r is one inverted block of 28; at p = 16 the quasi-lower r's last
    # two 1-column blocks merge into one of 32, and its other blocks stay
    # apart, the 2-column ones inverted; at 17 and 33 no block merges, the
    # 2-column ones are solved at 17, and every block is solved at 33
    rng = np.random.default_rng(p)
    ta = quasi_upper(rng, p, 1 if p < 7 else 3).astype(dtype)
    rs = [quasi_upper(rng, 7, 2).T.astype(dtype) for _ in range(3)]
    rs.append(np.zeros((0, 0), dtype=dtype))
    if p == 4:
        want = 3 * [[(0, 7)]] + [[]]
    elif p == 16:
        want = 3 * [[(5, 7), (3, 5), (2, 3), (0, 2)]] + [[]]
    else:
        want = 3 * [[(6, 7), (5, 6), (3, 5), (2, 3), (0, 2)]] + [[]]
    for r, spans in zip(rs, want, strict=True):
        got = _kernels.sylv_blocks(ta, r)
        assert [(j0, j) for j0, j, _ in got] == spans
        assert all(x.dtype == dtype for _, _, x in got)
        assert_maximal_blocks(spans, r, p)
        m = r.shape[0]
        c = rng.standard_normal((3, p, m)).astype(dtype)
        stacked = _kernels.trsylv(got, r, c)
        assert stacked.shape == c.shape
        ta64, r64 = ta.astype(np.float64), r.astype(np.float64)
        for ci, yi in zip(c, stacked):
            y = _kernels.trsylv(got, r, ci)
            # a stack of right-hand sides gives each slice's own bits
            assert y.dtype == dtype and np.array_equal(yi, y)
            res = np.linalg.norm(ta64 @ y + y @ r64 - ci)
            scale = (np.linalg.norm(ta64) + np.linalg.norm(r64)) \
                * np.linalg.norm(y) + np.linalg.norm(ci)
            assert res <= 64 * max(p, 7) * np.finfo(dtype).eps * scale


def test_solve_lyapunov_residual_and_symmetry():
    rng = np.random.default_rng(15)
    for _ in range(20):
        n = int(rng.integers(1, 8))
        a = random_matrix(rng, n)
        a = a - (np.abs(np.linalg.eigvals(a).real).max() + 0.5) * np.eye(n)
        g = rng.standard_normal((n, n))
        c = -(g @ g.T)
        x = lyapunov_by_schur(a, c)
        assert np.array_equal(x, x.T)
        res = np.linalg.norm(a @ x + x @ a.T - c)
        assert res < 1e-11 * max(1.0, np.linalg.norm(x))


def test_solve_lyapunov_stationary_scalar():
    # a x + x a = -s  ->  x = s / (2 |a|)
    x = lyapunov_by_schur(np.array([[-1.0]]), np.array([[-2.0]]))
    assert x[0, 0] == pytest.approx(1.0, rel=1e-14)


def test_solve_sylvester_float32():
    rng = np.random.default_rng(16)
    a = (random_matrix(rng, 3) - 3.0 * np.eye(3)).astype(np.float32)
    b = (random_matrix(rng, 3) - 3.0 * np.eye(3)).astype(np.float32)
    c = rng.standard_normal((3, 3)).astype(np.float32)
    x = sylvester_by_schur(a, b, c)
    assert x.dtype == np.float32
    res = np.linalg.norm(a @ x + x @ b - c)
    assert res < 1e-4


def sep_shifted(rng, n, delta, dtype):
    """A random n x n matrix at the given width whose symmetric part has
    every eigenvalue at most -delta / 2: then for two of them, a and b,
    <a X + X b, X> <= -delta |X|_F^2, so sep(a, b) >= delta in the
    Frobenius norm, and every lambda_i(a) + lambda_j(b) has real part at
    most -delta."""
    g = rng.standard_normal((n, n)) / math.sqrt(n)
    top = float(np.linalg.eigvalsh(0.5 * (g + g.T))[-1])
    return (g - (top + 0.5 * delta) * np.eye(n)).astype(dtype)


# The forward error of a Bartels-Stewart solve is at most its residual
# over sep(a, b) >= delta, and the residual is at most
# 64 n eps ((|a| + |b|) |X| + |c|) <= 128 n eps (|a| + |b|) |X| (the bound
# the residual tests above use, |c| <= (|a| + |b|) |X|), so each solver is
# within 128 n eps (|a| + |b|) / delta of the exact X, relative to |X|,
# and the two solves within twice that of each other
@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 31 - 1), na=st.integers(1, 16),
       nb=st.integers(1, 16), delta=st.sampled_from([0.1, 1.0, 10.0]),
       dtype=st.sampled_from([np.float64, np.float32]))
def test_solvers_match_scipy(seed, na, nb, delta, dtype):
    sla = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(seed)
    a = sep_shifted(rng, na, delta, dtype)
    b = sep_shifted(rng, nb, delta, dtype)
    c = rng.standard_normal((na, nb)).astype(dtype)
    g = rng.standard_normal((na, na))
    s = (g @ g.T).astype(dtype)
    a64, b64 = a.astype(np.float64), b.astype(np.float64)
    eps = float(np.finfo(dtype).eps)

    def check(x, want, n, norms):
        assert x.dtype == dtype
        err = np.linalg.norm(x - want) / np.linalg.norm(want)
        assert err <= 256 * n * eps * norms / delta

    check(sylvester_by_schur(a, b, c),
          sla.solve_sylvester(a64, b64, c.astype(np.float64)),
          max(na, nb), np.linalg.norm(a64) + np.linalg.norm(b64))
    check(lyapunov_by_schur(a, s),
          sla.solve_continuous_lyapunov(a64, s.astype(np.float64)),
          na, 2.0 * np.linalg.norm(a64))


# -------------------------------------------------------------- norms etc


def test_spectral_norm_matches_svd():
    rng = np.random.default_rng(17)
    for _ in range(20):
        a = random_matrix(rng, int(rng.integers(1, 9)))
        want = np.linalg.norm(a, 2)
        assert spectral_norm(a) == pytest.approx(want, rel=1e-12)


def test_stacked_spectral_norms_are_spectral_norm():
    # _spectral_norms, which scores run_benchmark, takes an asymmetric
    # stack's norms from one stacked SVD: spectral_norm's bits
    stack = np.random.default_rng(19).standard_normal((2000, 6, 6))
    got = linalg._spectral_norms(stack)
    assert got.tolist() == [spectral_norm(a) for a in stack]


def symmetric_stacks(seed):
    """Exactly symmetric binary64 stacks, indefinite and semidefinite."""
    rng = np.random.default_rng(seed)
    for n in range(1, 9):
        x = rng.standard_normal((200, n, n)) * 10.0 ** rng.integers(-3, 4)
        yield x + x.mT
        psd = x @ x.mT
        yield 0.5 * psd + 0.5 * psd.mT


def test_symmetric_spectral_norms_agree_with_svd():
    for stack in symmetric_stacks(23):
        got = linalg._spectral_norms(stack)
        want = np.array([spectral_norm(a) for a in stack])
        assert (abs(got - want) <= 1e-14 * want).all()


def test_stacked_symmetric_norms_are_per_matrix():
    for stack in symmetric_stacks(29):
        got = linalg._spectral_norms(stack)
        assert got.tolist() == [float(linalg._spectral_norms(a))
                                for a in stack]


def test_asymmetric_spectral_norms_take_the_svd():
    # the lower triangle of [[0, 1], [0, 0]] reads as 0; one asymmetric
    # matrix sends the whole stack to the SVD
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert linalg._spectral_norms(a) == spectral_norm(a) == 1.0
    stack = np.stack([np.eye(2), a, -np.eye(2)])
    assert linalg._spectral_norms(stack).tolist() == [1.0, 1.0, 1.0]


def test_tau_zero_default_scales_with_norm():
    # lyap-p's margin, public as tau_zero_default before it moved into
    # discretize
    margin = discretize._lyap_p_margin
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert margin(10.0 * a) == pytest.approx(10.0 * margin(a))
    assert margin(a.astype(np.float32)) > margin(a)
