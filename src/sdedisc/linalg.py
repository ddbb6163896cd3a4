"""Dense real linear-algebra layer: matrix exponential, real Schur form
with eigenvalue reordering, and norms.  The Schur form takes no
threshold; the integrator split and lyap-p's margin are discretize's
policy.  Its Sylvester/Lyapunov solvers
(solve_sylvester, solve_lyapunov) have no caller in the package: the
exact methods solve through _kernels.sylv_blocks and _kernels.trsylv.

Every exponential is _exp_at(_exp_table(a), ts): the table of the powers
of a scaled a, made once (the proposed plan keeps it, the oracle shares it
between its base step's Taylor series and its chains), then Pade-13 at
each horizon's scaled step (_kernels.pade13_expm), a's structural zeros
and ones set, and squarings; where the table asks for it, the leading
block of exp(a t) - I comes from the same solve and rides through the
squarings with no I subtracted.

Everything is parameterized by float width: pass float32 arrays and the
whole computation stays in binary32, pass float64 and it stays in binary64.
"""

import math

import numpy as np

from . import _kernels
from .errors import (
    ClassificationError,
    ConvergenceError,
    DimensionError,
    MatrixOverflowError,
    NonFiniteError,
)

# Pade-13 scaling threshold (Higham's theta_13 for double precision; also a
# valid, conservative choice for single precision).
_THETA13 = 5.371920351148152

_MAX_QR_SWEEPS = 60

# real_schur starts from LAPACK's eigenvector basis when what that basis
# leaves below the quasi-triangular structure is at most this many
# n eps ||a||_F
_EIGVEC_START_TOL = 10.0


def eps_of(arr_or_dtype) -> float:
    dtype = arr_or_dtype.dtype if isinstance(arr_or_dtype, np.ndarray) \
        else np.dtype(arr_or_dtype)
    return float(np.finfo(dtype).eps)


def _unit_scaled(x: np.ndarray) -> tuple:
    """(x / 2^e, e) for the least e with every |entry| below 2^e (e = 0 if
    x is zero): exact, so that the norms and spectra taken of x / 2^e in
    place of x's do not overflow."""
    e = math.frexp(float(np.abs(x).max(initial=0.0)))[1]
    return np.ldexp(x, -e), e


@np.errstate(over="ignore")
def _fro_norm(a: np.ndarray) -> float:
    """||a||_F, which every tolerance on A scales: np.linalg.norm(a), or
    where that overflows the width, the norm of _unit_scaled(a) scaled
    back, and MatrixOverflowError beyond binary64's largest number."""
    norm = float(np.linalg.norm(a))
    if norm == math.inf:
        x, e = _unit_scaled(a)
        norm = float(np.ldexp(float(np.linalg.norm(x)), e))
    if norm == math.inf:
        raise MatrixOverflowError("||A||_F overflows binary64")
    return norm


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
    boolean array that is False where that exponential is not finite: the
    exponential of _exp_table(a) at ts, for a square and finite a."""
    dtype = np.dtype(a.dtype if a.dtype in (np.float32, np.float64)
                     else np.float64)
    # overflow shows in the returned flags, not as numpy's RuntimeWarning
    with np.errstate(over="ignore", invalid="ignore"):
        big, _, ok = _exp_at(_exp_table(np.asarray(a, dtype=dtype)), ts)
    return big, ok


def _exp_table(a: np.ndarray, lead: int = 0) -> tuple:
    """_exp_at's horizon-free part for a square m x m a: its binary64
    |a|_1, the exponent e of a power of two 2^e above it, the exact table
    of the powers of a / 2^e (_kernels.pade13_powers), of which none
    overflows, and the values and mask of the entries of the exponential
    that _exp_at squares, [[exp(a t), (exp(a t) - I)[:, :lead]], [0, I]]
    (exp(a t) alone for lead = 0), that a's zero pattern fixes.  From the
    pattern's transitive closure: 0 in either block at (i, j) with no path
    from i to j, 1 in exp(a t) and 0 in exp(a t) - I on a diagonal entry
    on no cycle, and the trailing [0, I] rows.  So a zero row of a is a
    unit row of exp(a t), and a zero diagonal block of a block-triangular
    a an identity block."""
    nu = _norm1(a)
    e = math.frexp(nu)[1]
    reach, wider = None, a != 0.0  # the paths of length >= 1
    while not np.array_equal(reach, wider):
        reach = wider
        step = reach.astype(a.dtype)  # squared by a float product
        wider = reach | (step @ step > 0.0)
    powers = _kernels.pade13_powers(np.ldexp(a, -e))
    fixed, exact = powers[0], ~reach
    if lead:
        m = len(a)
        fixed = np.eye(m + lead, dtype=a.dtype)
        exact = np.ones(fixed.shape, dtype=bool)
        exact[:m, :m] = ~reach
        exact[:m, m:] = exact[:m, :lead]
    return nu, e, powers, fixed, exact


def _exp_at(table: tuple, ts) -> tuple:
    """exp(a t) at every horizon t of ts for the a of table =
    _exp_table(a, lead), as a stack, the stack of its leading lead x lead
    blocks less I, and the flags that are False where either is not
    finite or |a|_1 |t| exceeds the width (_scalings).  Each slice is the
    Pade-13 approximant at the scaled step h = t / 2^s (a / 2^e at
    sigma = 2^(e - s) t, or the identity where |a|_1 t is 0 or flagged)
    of [[a, a[:, :lead]], [0, 0]] from a's table (_kernels.pade13_expm),
    squared s times (_kernels.squared), so slice i does not depend on the
    other horizons.  The table's fixed entries are set before the
    squarings, which keep them: the identity block of naive_q_a's
    [[a, I], [0, 0]] stays exactly I, its squares are [[f^2, f g + g],
    [0, I]] for f = exp(a h) and g = int_0^h exp(a tau) dtau, and the
    carried columns of f - I, int_0^h exp(a tau) a dtau, square as g
    does; neither g, f - I nor the diagonal of a nilpotent a's
    exponential decays as a rounded identity raised to the power 2^s
    would.
    Overflow shows in the flags, under the caller's np.errstate."""
    nu, e, powers, fixed, exact = table
    m = powers.shape[-1]
    lead = len(fixed) - m
    limit = float(np.finfo(powers.dtype).max)
    counts, bad = _scalings(nu, ts, limit)
    sigmas = [math.ldexp(t, e - c) if 0.0 < nu * abs(t) <= limit else 0.0
              for t, c in zip(ts, counts)]
    big = _kernels.pade13_expm(powers, sigmas, lead)
    zero = [i for i, sigma in enumerate(sigmas) if not sigma]
    if zero:  # an empty fancy assignment costs a few microseconds
        big[zero] = fixed
    np.copyto(big, fixed, where=exact)
    big = _kernels.squared(big, counts, m)
    ok = np.isfinite(big).all(axis=(1, 2))
    if bad:
        ok[bad] = False
    return big[:, :m, :m], big[:, :lead, m:], ok


def _norm1(a: np.ndarray) -> float:
    """|a|_1, the largest column sum of magnitudes, summed in binary64."""
    return float(np.abs(a).sum(axis=0, dtype=np.float64).max(initial=0.0))


def _squarings(nu: float, t: float) -> int:
    """The squarings of a Pade-13 exponential of a matrix of 1-norm nu at
    horizon t: the least s >= 0 with nu t / 2^s <= _THETA13 in binary64,
    for nu, t >= 0, exact by ldexp even where nu t overflows."""
    if not nu * t > _THETA13:
        return 0
    s = math.ceil(math.log2(nu) + math.log2(t) - math.log2(_THETA13))
    while nu * math.ldexp(t, -s) > _THETA13:
        s += 1
    while s > 0 and nu * math.ldexp(t, 1 - s) <= _THETA13:
        s -= 1
    return s


def _scalings(nu: float, ts, limit: float) -> tuple:
    """(counts, bad) of a matrix of 1-norm nu at the horizons ts: bad lists
    each horizon's index where nu |t| exceeds limit, the width's largest
    number, and counts holds _squarings(nu, |t|), 0 for those in bad."""
    bad = [i for i, t in enumerate(ts) if nu * abs(t) > limit]
    return [0 if i in bad else _squarings(nu, abs(t))
            for i, t in enumerate(ts)], bad


def _eigenvector_start(a, ev, vecs, anorm):
    """(hu, top): the stacked hu = [t0; q] real_schur starts from, with q
    orthogonal and a = q t0 q^T up to the entries t0 drops, built from the
    eigenvectors vecs of a's eigenvalues ev (np.linalg.eig), and the
    number top of basis columns, t0's finished leading block; None if
    those entries are too large, as they are for some ill-conditioned bases.

    q's leading columns are the QR factor of the real basis of the
    nonzero eigenvalues, in LAPACK's order: v for a real eigenvalue,
    [Re v, Im v] for a conjugate pair.  They span an invariant subspace,
    so q^T a q is quasi-upper triangular there (a 2x2 block per pair) and
    zero below it, to rounding times the basis's condition number.  t0 is
    q^T a q with the entries below that structure zeroed, provided their
    norm is at most _EIGVEC_START_TOL n eps ||a||_F, where ||a||_F is
    anorm."""
    n = a.shape[0]
    cols, pairs = [], []
    for i, lam in enumerate(ev.tolist()):
        if lam == 0.0 or lam.imag < 0.0:
            continue
        if lam.imag > 0.0:
            pairs.append(len(cols))
            cols += [vecs[:, i].real, vecs[:, i].imag]
        else:
            cols.append(vecs[:, i].real)
    if not cols:
        return None
    q, _ = np.linalg.qr(np.stack(cols, axis=1), mode="complete")
    t0 = q.T @ a @ q
    below = np.tri(n, k=-1, dtype=bool)
    below[:, len(cols):] = False
    below[[j + 1 for j in pairs], pairs] = False
    if _fro_norm(t0[below]) > _EIGVEC_START_TOL * n * eps_of(a) * anorm:
        return None
    t0[below] = 0.0
    return np.concatenate([t0, q]), len(cols)


def real_schur(a: np.ndarray):
    """Real Schur decomposition a = u @ t @ u.T with u orthogonal and t
    quasi-upper triangular: 1x1 diagonal blocks for the real eigenvalues
    and 2x2 ones for the complex pairs, each 2x2 block as the
    factorization leaves it (not standardized to an equal diagonal).

    The factorization starts from LAPACK's eigenvectors
    (``np.linalg.eig`` at a's width): the QR factor q of the real basis of
    the nonzero eigenvalues reduces a to q^T a q, already quasi-triangular
    over that basis, when what it leaves below that structure is at most
    _EIGVEC_START_TOL n eps ||a||_F (the error of an eigenvector basis
    grows with its condition number).  Then the Hessenberg reduction and
    QR touch only the trailing window of the exact zeros, such as those of
    an exactly nilpotent trailing block, which LAPACK's balancing isolates.
    Otherwise, for instance for defective eigenvalues, they reduce a
    itself.  The QR iteration takes Wilkinson shifts (see
    _kernels.francis_qr) and steers no eigenvalue to the bottom: the plan's
    split puts the integrators last before this runs, and
    order_schur_zeros_last reorders."""
    a = check_square(a, "real_schur input")
    dtype = a.dtype if a.dtype in (np.float32, np.float64) else np.float64
    n = a.shape[0]
    hu = np.concatenate([np.asarray(a, dtype=dtype), np.eye(n, dtype=dtype)])
    top, anorm = 0, _fro_norm(a)
    if n > 2:  # francis_qr has no work below 3
        start = _eigenvector_start(hu[:n], *np.linalg.eig(hu[:n]), anorm)
        if start is not None:
            hu, top = start
    _kernels.hessenberg(hu, top)
    iterations, ok = _kernels.francis_qr(hu, eps_of(dtype), anorm,
                                         _MAX_QR_SWEEPS, top)
    if not ok:
        raise ConvergenceError(
            f"QR iteration did not converge within {_MAX_QR_SWEEPS * n} "
            f"iterations ({_MAX_QR_SWEEPS} per row)", sweeps=iterations)
    _kernels.split_real_pairs(hu)
    return hu[n:], hu[:n]


def quasi_tri_eigvalues(t: np.ndarray) -> np.ndarray:
    """Eigenvalues of a real quasi-upper-triangular matrix, block by block."""
    n = t.shape[0]
    out = []
    while len(out) < n:
        i = len(out)
        if i < n - 1 and t[i + 1, i] != 0.0:
            out += _kernels._roots(*t[i:i + 2, i:i + 2].ravel().tolist())
        else:
            out.append(float(t[i, i]))
    return np.array(out, dtype=np.complex128)


def _classify_blocks(t: np.ndarray, margin: float):
    """(start, size, selected) for each diagonal block of a quasi-triangular
    t whose 2x2 blocks hold complex pairs, where selected means the block's
    eigenvalues have Re(lambda) >= -margin: quasi_tri_eigvalues gives both
    roots of a 2x2 block [[a, b], [c, d]] the real part (a + d)/2."""
    n = t.shape[0]
    real = quasi_tri_eigvalues(t).real
    blocks = []
    i = 0
    while i < n:
        size = 2 if (i < n - 1 and t[i + 1, i] != 0.0) else 1
        blocks.append((i, size, bool(real[i] >= -margin)))
        i += size
    return blocks


def _swap_adjacent_blocks(hu, i, p1, p2):
    """Exchange the adjacent diagonal blocks of sizes p1, p2 starting at
    row i of the top half T of hu = [T; U] via the direct (Bai-Demmel)
    orthogonal swap."""
    j, k = i + p1, i + p1 + p2
    # b1 @ X - X @ b2 = t12 for the blocks b1, b2 and their coupling t12
    r = -hu[j:k, j:k]
    blocks = _kernels.sylv_blocks(hu[i:j, i:j], r)
    x = _kernels.trsylv(blocks, r, hu[i:j, j:k])
    q, _ = np.linalg.qr(np.vstack([-x, np.eye(p2, dtype=hu.dtype)]),
                        mode="complete")
    _kernels.similarity(hu, i, q)
    # enforce the block-triangular zero pattern restored by the swap
    hu[i + p2:k, i:i + p2] = 0.0


def order_schur_zeros_last(u: np.ndarray, t: np.ndarray, margin: float):
    """Reorder a real Schur pair so all eigenvalues with Re(lambda) >=
    -margin trail (zeros, undamped pairs and unstable poles for a small
    margin), returning the reordered factors and the split index as
    (u, t, split): the selected eigenvalues fill the trailing
    (n - split) x (n - split) block of t.

    One stable pass over the blocks, classified once: each unselected
    block moves up past the run of selected blocks above it by adjacent
    swaps, so the unselected blocks keep their order and so do the
    selected ones.  A pass that swaps splits the swapped 2x2 blocks that
    hold real pairs and classifies again to check the result; a pass with
    no swap returns t unchanged, so t's 2x2 blocks must hold complex pairs,
    as real_schur leaves them."""
    n = t.shape[0]
    hu = np.concatenate([t, u])
    blocks = _classify_blocks(hu[:n], margin)
    # swaps never move a block below the current one, so the starts found
    # by the first classification stay valid through the pass
    run = []  # sizes of the selected blocks seen so far, top to bottom
    swapped = False
    for start, size, selected in blocks:
        if selected:
            run.append(size)
            continue
        row = start
        for rsize in reversed(run):
            row -= rsize
            _swap_adjacent_blocks(hu, row, rsize, size)
            swapped = True
    if swapped:
        # a swap's rounding can leave a real pair in a new 2x2 block
        _kernels.split_real_pairs(hu)
        blocks = _classify_blocks(hu[:n], margin)
    split = 0
    for _, size, selected in blocks:
        if selected:
            break
        split += size
    # all selected blocks must now trail
    if any(start >= split and not selected for start, _, selected in blocks):
        raise ClassificationError(
            "eigenvalue reordering failed to cluster the selected block")
    return hu[n:], hu[:n], split


def _sym(x: np.ndarray) -> np.ndarray:
    # halves first, so that entries near the width's maximum do not overflow
    half = x.dtype.type(0.5)
    return half * x + half * x.mT


def solve_sylvester(ua, ta, ub, r, c):
    """Bartels-Stewart from given Schur factors: X with a @ X + X @ b = c,
    where a = ua @ ta @ ua.T with ta quasi-upper triangular and
    b = ub @ r @ ub.T with r quasi-lower triangular.  No caller is left;
    perfbench's tracer names it and solve_lyapunov until ROADMAP H."""
    c = check_finite(np.asarray(c), "sylvester c")
    shape = (ta.shape[0], r.shape[0])
    if c.shape != shape:
        raise DimensionError(f"rhs shape {c.shape} incompatible with {shape}")
    blocks = _kernels.sylv_blocks(ta, r)
    return ua @ _kernels.trsylv(blocks, r, ua.T @ c @ ub) @ ub.T


def solve_lyapunov(u, t, c):
    """a @ X + X @ a.T = c for a = u @ t @ u.T, symmetrized; no caller."""
    return _sym(solve_sylvester(u, t, u, np.ascontiguousarray(t.T), c))


def spectral_norm(m: np.ndarray) -> float:
    """Largest singular value (LAPACK SVD at the width of m)."""
    m = check_finite(np.asarray(m), "spectral_norm input")
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def _spectral_norms(stack: np.ndarray) -> np.ndarray:
    """spectral_norm of each matrix of a finite stack: max |lambda| of one
    symmetric eigensolve if all are exactly symmetric, else the SVD's."""
    if np.array_equal(stack, stack.mT):
        return np.abs(np.linalg.eigvalsh(stack)).max(axis=-1)
    return np.linalg.norm(stack, 2, axis=(-2, -1))
