"""Hot numeric kernels.

Every kernel is plain numpy.  The Schur kernels work on one stacked
``(2n, n)`` buffer ``hu``: its top half is the matrix T being reduced, its
bottom half the accumulated orthogonal factor U.  ``similarity`` applies
each orthogonal similarity -- a Householder reflector, a Givens rotation or
a block-swap factor -- as two small matrix products: one on T's rows, one
on the columns of T and U together.  ``sylv_blocks`` builds the
coefficient matrices of a quasi-triangular Sylvester equation once, and
``trsylv`` then makes one product and one LAPACK solve per column block,
for one right-hand side or a stack of them.
All kernels mutate or allocate arrays in the dtype of their inputs, so the
same code serves binary32 and binary64.
"""

import functools
import math

import numpy as np

# Pade coefficients b_0 .. b_13 of the degree-13 diagonal approximant
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)


def similarity(hu, i, q):
    """Replace T by diag(I, q, I)^T T diag(I, q, I) and U by
    U diag(I, q, I) in the stacked hu = [T; U], with q's block at rows and
    columns i .. i+m-1."""
    m = q.shape[0]
    hu[i:i + m] = q.T @ hu[i:i + m]
    hu[:, i:i + m] = hu[:, i:i + m] @ q


def _householder(hu, i, x):
    """Apply at row and column i of hu the Householder reflector
    I - 2 v v^T / v^T v that maps the vector x onto alpha e_1; return
    alpha (0 for a zero x, which is left alone)."""
    v = x.copy()
    xnorm = math.sqrt(v @ v)
    if xnorm == 0.0:
        return 0.0
    alpha = -xnorm if v[0] >= 0.0 else xnorm
    v[0] -= alpha
    q = v[:, None] * ((-2.0 / (v @ v)) * v)
    q.ravel()[::v.size + 1] += 1.0
    similarity(hu, i, q)
    return alpha


def hessenberg(hu):
    """Reduce the top half T of hu to upper Hessenberg form in place by
    Householder reflections, accumulating them into the bottom half U."""
    n = hu.shape[1]
    for k in range(n - 2):
        hu[k + 1, k] = _householder(hu, k + 1, hu[k + 1:n, k])
        hu[k + 2:n, k] = 0.0


def _deflate(h, hi, eps, anorm):
    """Zero each subdiagonal h[i, i-1], 1 <= i <= hi, of the C-contiguous
    Hessenberg h with |h[i, i-1]| <= eps (|h[i-1, i-1]| + |h[i, i]|), or
    <= eps anorm where both diagonals are 0; return the start of the
    unreduced block that ends at row hi."""
    step = h.shape[1] + 1
    flat = h.reshape(-1)
    diag = np.abs(flat[:(hi + 1) * step:step])
    sub = flat[step - 1:hi * step:step]  # h[i, i-1] for i = 1 .. hi
    tst = diag[:-1] + diag[1:]
    tst[tst == 0.0] = anorm
    small = np.flatnonzero(np.abs(sub) <= eps * tst)
    sub[small] = 0.0
    return int(small[-1]) + 1 if small.size else 0


def _snapped_shift(h11, h12, h21, h22, shifts):
    """(trace, determinant) of the Wilkinson pair -- the eigenvalues of the
    trailing 2x2 block [[h11, h12], [h21, h22]] -- snapped to the nearest
    of the given eigenvalues: a root that snaps to a complex eigenvalue
    brings that eigenvalue's conjugate as the other shift, and two real
    hits are kept one by one."""
    half = 0.5 * (h11 - h22)
    disc = complex(half * half + h12 * h21)
    mid = 0.5 * (h11 + h22)
    root = disc ** 0.5
    pair = []
    for r in (mid + root, mid - root):
        hit = min(shifts, key=lambda z: abs(z - r))
        if hit.imag != 0.0:
            return 2.0 * hit.real, hit.real * hit.real + hit.imag * hit.imag
        pair.append(hit.real)
    return pair[0] + pair[1], pair[0] * pair[1]


def francis_qr(hu, eps, anorm, max_sweeps, zeros=0, shifts=()):
    """Francis implicit double-shift QR on the upper Hessenberg top half T
    of hu, in place.

    Returns (iterations, converged).  On exit T is real quasi-upper
    triangular (2x2 blocks not yet standardized) and the bottom half U
    accumulates the orthogonal similarity.

    Each iteration's double shift is, in this order of precedence: the
    exceptional shift on every 10th iteration without a deflation at the
    bottom of the active window; while fewer than 10 such iterations have
    passed, a double shift at 0 if the window's bottom row is one of the
    last ``zeros`` rows, else the Wilkinson pair snapped to the nearest of
    ``shifts`` (the eigenvalues of T, as Python complex numbers) if any
    are given; otherwise the Wilkinson pair itself.  With the defaults
    every shift is the Wilkinson or the exceptional one.  Zero shifts
    deflate the eigenvalues near 0 at the bottom, so integrators finish
    last; a window whose hinted shifts stall falls back to the standard
    shifts from its first exceptional shift on.
    """
    n = hu.shape[1]
    if n <= 2:
        return 0, True
    h = hu[:n]
    hi = n - 1
    total = 0
    stall = 0
    limit = max_sweeps * n
    while hi > 0:
        total += 1
        if total > limit:
            return total, False
        lo = _deflate(h, hi, eps, anorm)
        if lo >= hi - 1:
            hi = lo - 1
            stall = 0
            continue
        stall += 1
        (h10, h11, h12), (_, h21, h22) = h[hi - 1:hi + 1, hi - 2:hi + 1]
        if stall % 10 == 0:
            # exceptional (ad hoc) shift to break limit cycles
            sx = abs(h21) + abs(h10)
            s = 0.75 * sx + h22
            trc = s + s
            det = s * s + 0.4375 * sx * sx
        elif stall < 10 and hi >= n - zeros:
            trc = det = 0.0
        elif stall < 10 and shifts:
            trc, det = _snapped_shift(float(h11), float(h12), float(h21),
                                      float(h22), shifts)
        else:
            trc = h11 + h22
            det = h11 * h22 - h12 * h21
        # first column of (H - aI)(H - bI) in the active window
        (a, b), (c, d), (_, e) = h[lo:lo + 3, lo:lo + 2]
        _householder(hu, lo, np.array([a * a + b * c - trc * a + det,
                                       c * (a + d - trc), e * c],
                                      dtype=hu.dtype))
        for k in range(lo + 1, hi):
            # the reflector spans rows k..end-1: three, or two at the bottom
            end = min(k + 3, hi + 1)
            _householder(hu, k, h[k:end, k - 1])
            h[k + 1:end, k - 1] = 0.0
    return total, True


def standardize_quasi_triangular(hu):
    """Normalize the 2x2 diagonal blocks of the quasi-triangular top half T
    of hu in place, accumulating the rotations into the bottom half U.

    Blocks with real eigenvalues are rotated to upper triangular form;
    complex-pair blocks are rotated so both diagonal entries are equal.
    """
    n = hu.shape[1]
    i = 0
    while i < n - 1:
        if hu[i + 1, i] == 0.0:
            i += 1
            continue
        (a, b), (c, d) = hu[i:i + 2, i:i + 2]
        half = 0.5 * (a - d)
        disc = half * half + b * c
        if disc >= 0.0:
            # real pair: the rotation's first column becomes an eigenvector
            rt = np.sqrt(disc)
            lmd = half + rt if half >= 0.0 else half - rt
            nv = np.sqrt(lmd * lmd + c * c)
            if nv > 0.0:
                similarity(hu, i, np.array([[lmd, -c], [c, lmd]]) / nv)
            hu[i + 1, i] = 0.0
            i += 1
        else:
            if a != d:
                tau = (b + c) / (a - d)
                # the smaller root of w^2 - 2 tau w - 1, without cancellation
                off = np.sqrt(tau * tau + 1.0)
                w = -1.0 / (tau + off if tau >= 0.0 else tau - off)
                cs = 1.0 / np.sqrt(1.0 + w * w)
                similarity(hu, i, np.array([[cs, -w * cs], [w * cs, cs]]))
                mid = 0.5 * (hu[i, i] + hu[i + 1, i + 1])
                hu[i, i] = mid
                hu[i + 1, i + 1] = mid
            i += 2


def sylv_blocks(ta, r):
    """The coefficient matrices trsylv solves with for ta @ Y + Y @ r = c,
    r quasi-lower triangular: one (j0, j, matrix) per column block j0 .. j-1
    of Y, last block first, the matrix being ta + r_jj I for a 1-column
    block and [[ta + r00 I, r10 I], [r01 I, ta + r11 I]] for a 2-column
    block.  They depend on ta and r only, so a caller that solves with the
    same pair again builds them once."""
    p = ta.shape[0]
    d = np.arange(p)
    blocks = []
    j = r.shape[0]
    while j > 0:
        j0 = j - 2 if (j >= 2 and r[j - 2, j - 1] != 0.0) else j - 1
        mat = np.zeros((p * (j - j0), p * (j - j0)),
                       dtype=np.result_type(ta, r))
        mat[:p, :p] = ta
        mat[d, d] += r[j0, j0]
        if j0 == j - 2:
            mat[p:, p:] = ta
            mat[d + p, d + p] += r[j0 + 1, j0 + 1]
            mat[d, d + p] = r[j0 + 1, j0]
            mat[d + p, d] = r[j0, j0 + 1]
        blocks.append((j0, j, mat))
        j = j0
    return blocks


def trsylv(blocks, r, c):
    """Solve ta @ Y + Y @ r = c for quasi-lower triangular r, given
    blocks = sylv_blocks(ta, r): one column block of Y at a time, last
    first, the solved columns folded in with one product, then one LAPACK
    solve with the block's matrix.  c may be a stack of right-hand sides,
    each solved as it would be alone: every slice's column block is one
    single-column right-hand side of its own solve."""
    y = c.copy()
    stack, (p, m) = c.shape[:-2], c.shape[-2:]
    for j0, j, mat in blocks:
        rhs = y[..., j0:j]
        if j < m:  # fold in the columns solved so far
            rhs = rhs - y[..., j:] @ r[j:, j0:j]
        if j0 == j - 1:
            y[..., j0:j] = np.linalg.solve(mat, rhs)
        else:
            # the block's two columns stacked into one
            sol = np.linalg.solve(mat, rhs.mT.reshape(stack + (2 * p, 1)))
            y[..., j0:j] = sol.reshape(stack + (2, p)).mT
    return y


@functools.lru_cache(maxsize=16)
def _pade13_terms(dtype, n):
    """pade13_expm's constants for one width and size: for each of a6, a4
    and a2 its four coefficients (in w1, w2, z1 and vv) as a (4, 1, 1, 1)
    array that broadcasts over the stack of powers, then b1 I and b0 I.
    Cached, because building them costs more than using them."""
    b = np.array(_PADE13, dtype=dtype)
    ident = np.eye(n, dtype=dtype)
    terms = tuple(b[list(rows)].reshape(4, 1, 1, 1)
                  for rows in ((13, 7, 12, 6), (11, 5, 10, 4), (9, 3, 8, 2)))
    terms += (b[1] * ident, b[0] * ident)
    for x in terms:
        x.flags.writeable = False
    return terms


def pade13_expm(a, squarings):
    """Degree-13 diagonal Pade approximant of exp(a) followed by repeated
    squaring, for a stack a of shape (k, n, n) and a list of k squaring
    counts; each matrix must already be scaled so the approximant is
    accurate."""
    c6, c4, c2, b1_i, b0_i = _pade13_terms(a.dtype, a.shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    # each coefficient times each power in one product per power; the sums
    # keep the association order of the scalar form term by term
    p6, p4, p2 = c6 * a6, c4 * a4, c2 * a2
    w1, w2, z1 = p6[:3] + p4[:3] + p2[:3]
    uu = a @ (a6 @ w1 + (w2 + b1_i))
    vv = a6 @ z1 + p6[3] + p4[3] + p2[3] + b0_i
    r = np.ascontiguousarray(np.linalg.solve(vv - uu, vv + uu))
    # every matrix squares as often as the fewest count asks, then only
    # the matrices that ask for more
    fewest = min(squarings, default=0)
    for _ in range(fewest):
        r = r @ r
    for step in range(fewest, max(squarings, default=0)):
        live = [i for i, count in enumerate(squarings) if count > step]
        r[live] = r[live] @ r[live]
    return r


def jacobi_symm_eigvals(a, eps, max_sweeps):
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations.
    Mutates a (pass a copy).  Returns the diagonal, unsorted."""
    n = a.shape[0]
    fro = 0.0
    for i in range(n):
        for j in range(n):
            fro += a[i, j] * a[i, j]
    fro = np.sqrt(fro)
    tol = eps * fro
    for _ in range(max_sweeps):
        off = 0.0
        for i in range(n - 1):
            for j in range(i + 1, n):
                off += a[i, j] * a[i, j]
        if np.sqrt(2.0 * off) <= tol:
            break
        for p_ in range(n - 1):
            for q_ in range(p_ + 1, n):
                apq = a[p_, q_]
                if apq == 0.0:
                    continue
                theta = (a[q_, q_] - a[p_, p_]) / (2.0 * apq)
                if np.abs(theta) > 1.0 / eps:  # sqrt(theta**2+1) ~ |theta|
                    tt = 0.5 / theta
                elif theta >= 0.0:
                    tt = 1.0 / (theta + np.sqrt(theta * theta + 1.0))
                else:
                    tt = -1.0 / (-theta + np.sqrt(theta * theta + 1.0))
                cs = 1.0 / np.sqrt(1.0 + tt * tt)
                sn = tt * cs
                for k in range(n):
                    akp = a[k, p_]
                    akq = a[k, q_]
                    a[k, p_] = cs * akp - sn * akq
                    a[k, q_] = sn * akp + cs * akq
                for k in range(n):
                    apk = a[p_, k]
                    aqk = a[q_, k]
                    a[p_, k] = cs * apk - sn * aqk
                    a[q_, k] = sn * apk + cs * aqk
    diag = np.empty(n, dtype=a.dtype)
    for i in range(n):
        diag[i] = a[i, i]
    return diag


def propagated_outer_sum(left, e_half):
    """left + E left E^T with E = e_half: one level of the quadrature
    oracle.  If left sums the integrand exp(A tau) S exp(A^T tau) at the
    nodes i 2h, the result sums it at the nodes i h, for E = exp(A h).
    Either argument may be a stack of matrices."""
    return left + e_half @ left @ e_half.mT
