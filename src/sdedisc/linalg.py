"""Dense real linear-algebra layer: matrix exponential, real Schur form
with eigenvalue reordering, Sylvester/Lyapunov solvers, and norms.

Everything is parameterized by float width: pass float32 arrays and the
whole computation stays in binary32, pass float64 and it stays in binary64.
"""

import math
from typing import NamedTuple

import numpy as np

from . import _kernels
from .errors import (
    ClassificationError,
    ConvergenceError,
    DimensionError,
    MatrixOverflowError,
    NearSingularError,
    NonFiniteError,
)

# Pade-13 scaling threshold (Higham's theta_13 for double precision; also a
# valid, conservative choice for single precision).
_THETA13 = 5.371920351148152

_MAX_QR_SWEEPS = 60
_MAX_JACOBI_SWEEPS = 60


class OrderedSchur(NamedTuple):
    """Real Schur factorization u @ t @ u.T with the eigenvalues classified
    as zero collected in the trailing (n - split) x (n - split) block."""

    u: np.ndarray
    t: np.ndarray
    split: int


def eps_of(arr_or_dtype) -> float:
    dtype = arr_or_dtype.dtype if isinstance(arr_or_dtype, np.ndarray) \
        else np.dtype(arr_or_dtype)
    return float(np.finfo(dtype).eps)


def tau_zero_default(a: np.ndarray) -> float:
    """Default threshold below which a computed eigenvalue modulus is
    classified as an integrator (zero) eigenvalue.

    Computed eigenvalues of a nilpotent block of index p carry rounding
    noise on the order of ||A|| * eps^(1/p), so a threshold linear in eps
    would misclassify every transformed integrator chain.  The square-root
    scaling covers chains up to index 2 with a wide margin and keeps well
    below any physical pole of magnitude >> sqrt(eps).  Override per call
    for deeper chains.
    """
    n = a.shape[0]
    return float(np.sqrt(100.0 * n * eps_of(a)) * np.linalg.norm(a))


def check_finite(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a)
    if a.size and not np.isfinite(a).all():
        raise NonFiniteError(f"{name} contains non-finite entries")
    return a


def check_square(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {a.shape}")
    return check_finite(a, name)


def mat_exp(a: np.ndarray, t: float = 1.0) -> np.ndarray:
    """exp(a * t) by scaling and squaring with a degree-13 diagonal Pade
    approximant: the one-slice case of _mat_exp_many.  Raises
    MatrixOverflowError if the result overflows the float width of ``a``."""
    a = check_square(a, "mat_exp input")
    if not math.isfinite(t):
        raise NonFiniteError("time scalar must be finite")
    (result,), (ok,) = _mat_exp_many(a, (t,))
    if not ok:
        raise _exp_overflow(result.dtype, t)
    return result


def _exp_overflow(dtype, t: float) -> MatrixOverflowError:
    return MatrixOverflowError(
        f"matrix exponential overflowed {np.dtype(dtype).name} at t = {t:.3g}")


def _mat_exp_many(a: np.ndarray, ts) -> tuple:
    """exp(a * t) for every t in ts as one (len(ts), n, n) stack, and a
    boolean array that is False where that exponential is not finite.  a
    must be square and finite.  Each slice is scaled by its own power of
    two, the least that brings |a t|_1 to _THETA13 or below, and squared
    back as often, so slice i does not depend on the other horizons."""
    dtype = np.dtype(a.dtype if a.dtype in (np.float32, np.float64)
                     else np.float64)
    # an overflowing slice is reported in the returned flags, not as
    # numpy's RuntimeWarning
    with np.errstate(over="ignore", invalid="ignore"):
        at = np.asarray(a, dtype=dtype) * np.asarray(ts, dtype=dtype)[
            :, None, None]
        norm1 = np.abs(at).sum(axis=1).max(axis=1, initial=0.0).tolist()
        counts = [math.ceil(math.log2(x / _THETA13))
                  if _THETA13 < x < math.inf else 0 for x in norm1]
        if any(counts):
            at /= np.array([2.0 ** c for c in counts], dtype=dtype)[
                :, None, None]
        # where a * t overflowed, the slice is flagged and replaced by 0
        bad = [i for i, x in enumerate(norm1) if not x < math.inf]
        if bad:
            at[bad] = 0.0
        result = _kernels.pade13_expm(at, counts)
    ok = np.isfinite(result).all(axis=(1, 2))
    if bad:
        ok[bad] = False
    return result, ok


def real_schur(a: np.ndarray, tau_zero: float | None = None):
    """Real Schur decomposition a = u @ t @ u.T with u orthogonal and t
    quasi-upper triangular (standardized 1x1/2x2 diagonal blocks).

    Given ``tau_zero``, the QR iteration is steered by a's spectrum from
    LAPACK (``np.linalg.eigvals`` at a's width): double shifts at 0 until
    the eigenvalues of modulus <= tau_zero have deflated at the bottom of
    t, then Wilkinson shifts snapped to the nearest LAPACK eigenvalues
    (see _kernels.francis_qr).  It then takes fewer iterations, and the
    integrators come out already trailing.  Without it the shifts are the
    standard ones."""
    a = check_square(a, "real_schur input")
    dtype = a.dtype if a.dtype in (np.float32, np.float64) else np.float64
    n = a.shape[0]
    hu = np.concatenate([np.asarray(a, dtype=dtype), np.eye(n, dtype=dtype)])
    zeros, shifts = 0, ()
    if tau_zero is not None and n > 2:  # francis_qr has no work below 3
        ev = np.linalg.eigvals(hu[:n])
        zeros = int(np.count_nonzero(np.abs(ev) <= tau_zero))
        shifts = ev.tolist()
    _kernels.hessenberg(hu)
    iterations, ok = _kernels.francis_qr(hu, eps_of(dtype),
                                         float(np.linalg.norm(a)),
                                         _MAX_QR_SWEEPS, zeros, shifts)
    if not ok:
        raise ConvergenceError(
            f"QR iteration did not converge within {_MAX_QR_SWEEPS * n} "
            f"iterations ({_MAX_QR_SWEEPS} per row)", sweeps=iterations)
    _kernels.standardize_quasi_triangular(hu)
    return hu[n:], hu[:n]


def quasi_tri_eigvalues(t: np.ndarray) -> np.ndarray:
    """Eigenvalues of a real quasi-upper-triangular matrix, block by block."""
    n = t.shape[0]
    out = np.empty(n, dtype=np.complex128)
    i = 0
    while i < n:
        if i < n - 1 and t[i + 1, i] != 0.0:
            a, b = float(t[i, i]), float(t[i, i + 1])
            c, d = float(t[i + 1, i]), float(t[i + 1, i + 1])
            half = 0.5 * (a - d)
            mid = 0.5 * (a + d)
            disc = half * half + b * c
            if disc < 0.0:
                im = np.sqrt(-disc)
                out[i] = mid + 1j * im
                out[i + 1] = mid - 1j * im
            else:
                rt = np.sqrt(disc)
                out[i] = mid + rt
                out[i + 1] = mid - rt
            i += 2
        else:
            out[i] = t[i, i]
            i += 1
    return out


def _classify_blocks(t: np.ndarray, tau_zero: float):
    """(start, size, is_zero) for each diagonal block of a quasi-triangular
    t, where is_zero means every eigenvalue of the block has modulus
    <= tau_zero.  A 2x2 block whose pair straddles tau_zero raises
    ClassificationError."""
    n = t.shape[0]
    blocks = []
    i = 0
    while i < n:
        size = 2 if (i < n - 1 and t[i + 1, i] != 0.0) else 1
        evs = quasi_tri_eigvalues(t[i:i + size, i:i + size])
        zero = np.abs(evs) <= tau_zero
        if size == 2 and zero[0] != zero[1]:
            raise ClassificationError(
                f"2x2 block at {i} straddles tau_zero={tau_zero:.3g}: "
                f"|ev| = {np.abs(evs)}")
        blocks.append((i, size, bool(zero.all())))
        i += size
    return blocks


def _swap_adjacent_blocks(hu, i, p1, p2):
    """Exchange the adjacent diagonal blocks of sizes p1, p2 starting at
    row i of the top half T of hu = [T; U] via the direct (Bai-Demmel)
    orthogonal swap."""
    j, k = i + p1, i + p1 + p2
    # b1 @ X - X @ b2 = t12 for the blocks b1, b2 and their coupling t12
    r = -hu[j:k, j:k]
    x = _kernels.trsylv(_kernels.sylv_blocks(hu[i:j, i:j], r), r,
                        hu[i:j, j:k])
    q, _ = np.linalg.qr(np.vstack([-x, np.eye(p2, dtype=hu.dtype)]),
                        mode="complete")
    _kernels.similarity(hu, i, q)
    # enforce the block-triangular zero pattern restored by the swap
    hu[i + p2:k, i:i + p2] = 0.0


def order_schur_zeros_last(u: np.ndarray, t: np.ndarray,
                           tau_zero: float) -> OrderedSchur:
    """Reorder a real Schur pair so all eigenvalues with modulus <= tau_zero
    trail, returning the reordered factors and the split index.

    One stable pass over the blocks, classified once: each non-zero block
    moves up past the run of zero blocks above it by adjacent swaps, so the
    non-zero blocks keep their order and so do the zero blocks."""
    n = t.shape[0]
    hu = np.concatenate([t, u])
    # swaps never move a block below the current one, so the starts found
    # by the first classification stay valid through the pass
    zero_run = []  # sizes of the zero blocks seen so far, top to bottom
    for start, size, zero in _classify_blocks(hu[:n], tau_zero):
        if zero:
            zero_run.append(size)
            continue
        row = start
        for zsize in reversed(zero_run):
            row -= zsize
            _swap_adjacent_blocks(hu, row, zsize, size)
    _kernels.standardize_quasi_triangular(hu)
    blocks = _classify_blocks(hu[:n], tau_zero)
    split = 0
    for _, size, zero in blocks:
        if zero:
            break
        split += size
    # all zero blocks must now trail
    if any(start >= split and not zero for start, _, zero in blocks):
        raise ClassificationError(
            "eigenvalue reordering failed to cluster the zero block")
    return OrderedSchur(u=hu[n:], t=hu[:n], split=split)


def _eig_sum_guard(ev_a, ev_b, threshold):
    """Raise NearSingularError when some lambda_i(a) + lambda_j(b) has
    modulus <= threshold; an empty spectrum on either side passes."""
    if not (ev_a.size and ev_b.size):
        return
    sums = np.abs(ev_a[:, None] + ev_b[None, :])
    i, j = np.unravel_index(np.argmin(sums), sums.shape)
    if sums[i, j] <= threshold:
        raise NearSingularError(
            f"eigenvalue sum {ev_a[i] + ev_b[j]:.3e} (|.| = {sums[i, j]:.3e}) "
            f"below singularity threshold {threshold:.3e}: no unique "
            "Sylvester/Lyapunov solution",
            pair=(complex(ev_a[i]), complex(ev_b[j])))


def _sym(x: np.ndarray) -> np.ndarray:
    # halves first, so that entries near the width's maximum do not overflow
    half = x.dtype.type(0.5)
    return half * x + half * x.mT


def _schur_sylvester(ua, ta, ub, r, c, kind="sylvester"):
    """Bartels-Stewart from given Schur factors: X with a @ X + X @ b = c,
    where a = ua @ ta @ ua.T with ta quasi-upper triangular and
    b = ub @ r @ ub.T with r quasi-lower triangular."""
    c = check_finite(np.asarray(c), f"{kind} c")
    shape = (ta.shape[0], r.shape[0])
    if c.shape != shape:
        raise DimensionError(f"rhs shape {c.shape} incompatible with {shape}")
    rhs = ua.T @ c @ ub
    # the coefficients at the width of the right-hand side, which may be
    # wider than the factors'
    ta, r = (x.astype(rhs.dtype, copy=False) for x in (ta, r))
    return ua @ _kernels.trsylv(_kernels.sylv_blocks(ta, r), r, rhs) @ ub.T


def _schur_lyapunov(u, t, c):
    """a @ X + X @ a.T = c for a = u @ t @ u.T, symmetrized."""
    return _sym(_schur_sylvester(u, t, u, np.ascontiguousarray(t.T), c,
                                 "lyapunov"))


def solve_sylvester(a: np.ndarray, b: np.ndarray,
                    c: np.ndarray) -> np.ndarray:
    """Solve a @ X + X @ b = c by Bartels-Stewart.

    Raises NearSingularError when min |lambda_i(a) + lambda_j(b)| falls
    below the singularity threshold.
    """
    a = check_square(a, "sylvester a")
    b = check_square(b, "sylvester b")
    ua, ta = real_schur(a)
    ub, tb = real_schur(b.T)  # b = ub @ tb.T @ ub.T
    _eig_sum_guard(quasi_tri_eigvalues(ta), quasi_tri_eigvalues(tb),
                   100.0 * eps_of(a) * float(np.linalg.norm(a)
                                             + np.linalg.norm(b)))
    return _schur_sylvester(ua, ta, ub, np.ascontiguousarray(tb.T), c)


def solve_lyapunov(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Solve a @ X + X @ a.T = c for symmetric c; the result is explicitly
    symmetrized.  Shares a single Schur factorization between both sides."""
    a = check_square(a, "lyapunov a")
    u, t = real_schur(a)
    ev = quasi_tri_eigvalues(t)
    _eig_sum_guard(ev, ev, 100.0 * eps_of(a) * 2.0 * float(np.linalg.norm(a)))
    return _schur_lyapunov(u, t, c)


def symmetric_eigvalues(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric matrix (ascending), via cyclic Jacobi."""
    m = check_square(m, "symmetric matrix")
    dtype = m.dtype if m.dtype in (np.float32, np.float64) else np.float64
    work = np.array(m, dtype=dtype, copy=True)
    vals = _kernels.jacobi_symm_eigvals(work, eps_of(dtype), _MAX_JACOBI_SWEEPS)
    return np.sort(vals)


def spectral_norm(m: np.ndarray) -> float:
    """Largest singular value (LAPACK SVD at the width of m)."""
    m = check_finite(np.asarray(m), "spectral_norm input")
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))
