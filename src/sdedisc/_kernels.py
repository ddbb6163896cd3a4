"""Hot numeric kernels.

Every kernel is plain numpy.  The Schur kernels work on one stacked
``(2n, n)`` buffer ``hu``: its top half is the matrix T being reduced, its
bottom half the accumulated orthogonal factor U.  ``similarity`` applies
each orthogonal similarity -- a Householder reflector, a Givens rotation or
a block-swap factor -- as two small matrix products: one on T's rows, one
on the columns of T and U together.  ``trsylv`` makes one LAPACK solve and
one product per column block.
All kernels mutate or allocate arrays in the dtype of their inputs, so the
same code serves binary32 and binary64.
"""

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


def francis_qr(hu, eps, anorm, max_sweeps):
    """Francis implicit double-shift QR on the upper Hessenberg top half T
    of hu, in place.

    Returns (iterations, converged).  On exit T is real quasi-upper
    triangular (2x2 blocks not yet standardized) and the bottom half U
    accumulates the orthogonal similarity.
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


def trsylv(ta, r, c):
    """Solve ta @ Y + Y @ r = c for quasi-lower triangular r, one column
    block of Y at a time, last first: the solved columns are folded in with
    one product, then one LAPACK solve of (ta + r_jj I) y = rhs, or for a
    2-column block of [[ta + r00 I, r10 I], [r01 I, ta + r11 I]]."""
    p = ta.shape[0]
    y = c.copy()
    d = np.arange(p)
    pair = np.zeros((2 * p, 2 * p), dtype=y.dtype)
    j = r.shape[0]
    while j > 0:
        j0 = j - 2 if (j >= 2 and r[j - 2, j - 1] != 0.0) else j - 1
        rhs = y[:, j0:j] - y[:, j:] @ r[j:, j0:j]
        pair[:p, :p] = ta
        pair[d, d] += r[j0, j0]
        if j0 == j - 1:
            y[:, j0] = np.linalg.solve(pair[:p, :p], rhs[:, 0])
        else:
            pair[p:, p:] = ta
            pair[d + p, d + p] += r[j0 + 1, j0 + 1]
            pair[d, d + p] = r[j0 + 1, j0]
            pair[d + p, d] = r[j0, j0 + 1]
            sol = np.linalg.solve(pair, rhs.reshape(-1, order="F"))
            y[:, j0:j] = sol.reshape((p, 2), order="F")
        j = j0
    return y


def pade13_expm(a, squarings):
    """Degree-13 diagonal Pade approximant of exp(a) followed by repeated
    squaring; a must already be scaled so the approximant is accurate."""
    n = a.shape[0]
    b = _PADE13
    ident = np.eye(n, dtype=a.dtype)
    a2 = np.dot(a, a)
    a4 = np.dot(a2, a2)
    a6 = np.dot(a2, a4)
    w1 = b[13] * a6 + b[11] * a4 + b[9] * a2
    w2 = b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident
    uu = np.dot(a, np.dot(a6, w1) + w2)
    z1 = b[12] * a6 + b[10] * a4 + b[8] * a2
    vv = np.dot(a6, z1) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident
    r = np.ascontiguousarray(np.linalg.solve(vv - uu, vv + uu))
    for _ in range(squarings):
        r = np.dot(r, r)
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
    nodes i 2h, the result sums it at the nodes i h, for E = exp(A h)."""
    return left + e_half @ left @ e_half.T
