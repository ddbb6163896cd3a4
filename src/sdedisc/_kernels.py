"""Hot numeric kernels.

Every kernel is plain numpy.  In ``hessenberg``, ``francis_qr`` and
``_rotate`` the reflectors and rotations are applied as whole-row and
whole-column slice updates whose sums are added term by term in a fixed
order, not by BLAS products, so their rounding does not depend on the BLAS
build.  ``trsylv`` makes one LAPACK solve and one product per column block.
All kernels mutate or allocate arrays in the dtype of their inputs, so the
same code serves binary32 and binary64.
"""

import numpy as np

# Pade coefficients b_0 .. b_13 of the degree-13 diagonal approximant
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)


def hessenberg(h, u):
    """Reduce h to upper Hessenberg form in place by Householder
    reflections, accumulating the orthogonal transform into u."""
    n = h.shape[0]
    for k in range(n - 2):
        col = h[k + 1:, k]
        xnorm = np.sqrt(np.add.accumulate(col * col)[-1])
        if xnorm == 0.0:
            continue
        alpha = -xnorm if h[k + 1, k] >= 0.0 else xnorm
        v = col.copy()
        v[0] -= alpha
        vnorm2 = np.add.accumulate(v * v)[-1]
        if vnorm2 == 0.0:
            continue
        beta = 2.0 / vnorm2
        # rows k+1..n-1
        rows = h[k + 1:, k:]
        s = np.zeros(n - k, dtype=h.dtype)
        for i in range(v.shape[0]):
            s += v[i] * rows[i]
        rows -= np.outer(v, s * beta)
        # columns k+1..n-1
        for w in (h, u):
            cols = w[:, k + 1:]
            s = np.zeros(n, dtype=h.dtype)
            for j in range(v.shape[0]):
                s += cols[:, j] * v[j]
            cols -= np.outer(s * beta, v)
        h[k + 1, k] = alpha
        h[k + 2:, k] = 0.0


def francis_qr(h, u, eps, anorm, max_sweeps):
    """Francis implicit double-shift QR on an upper Hessenberg h, in place.

    Returns (iterations, converged).  On exit h is real quasi-upper
    triangular (2x2 blocks not yet standardized) and u accumulates the
    orthogonal similarity.
    """
    n = h.shape[0]
    if n <= 2:
        return 0, True
    hi = n - 1
    total = 0
    stall = 0
    limit = max_sweeps * n
    while hi > 0:
        total += 1
        if total > limit:
            return total, False
        # annihilate negligible subdiagonals
        for i in range(1, hi + 1):
            tst = abs(h[i - 1, i - 1]) + abs(h[i, i])
            if tst == 0.0:
                tst = anorm
            if abs(h[i, i - 1]) <= eps * tst:
                h[i, i - 1] = 0.0
        lo = hi
        while lo > 0 and h[lo, lo - 1] != 0.0:
            lo -= 1
        if lo == hi:
            hi -= 1
            stall = 0
            continue
        if lo == hi - 1:
            hi -= 2
            stall = 0
            continue
        stall += 1
        if stall % 10 == 0:
            # exceptional (ad hoc) shift to break limit cycles
            sx = abs(h[hi, hi - 1]) + abs(h[hi - 1, hi - 2])
            h11 = 0.75 * sx + h[hi, hi]
            trc = h11 + h11
            det = h11 * h11 + 0.4375 * sx * sx
        else:
            trc = h[hi - 1, hi - 1] + h[hi, hi]
            det = (h[hi - 1, hi - 1] * h[hi, hi]
                   - h[hi - 1, hi] * h[hi, hi - 1])
        # first column of (H - aI)(H - bI) in the active window
        x = (h[lo, lo] * h[lo, lo] + h[lo, lo + 1] * h[lo + 1, lo]
             - trc * h[lo, lo] + det)
        y = h[lo + 1, lo] * (h[lo, lo] + h[lo + 1, lo + 1] - trc)
        z = h[lo + 2, lo + 1] * h[lo + 1, lo]
        for k in range(lo, hi):
            three = k <= hi - 2
            if k > lo:
                x = h[k, k - 1]
                y = h[k + 1, k - 1]
                z = h[k + 2, k - 1] if three else 0.0
            wnorm = np.sqrt(x * x + y * y + z * z)
            if wnorm == 0.0:
                continue
            alpha = -wnorm if x >= 0.0 else wnorm
            v0 = x - alpha
            v1 = y
            v2 = z
            vnorm2 = v0 * v0 + v1 * v1 + v2 * v2
            if vnorm2 == 0.0:
                continue
            beta = 2.0 / vnorm2
            rr = 3 if three else 2
            # rows k.., then columns k.. of h, then columns k.. of u
            for w in (h[k:k + rr], h[:, k:k + rr].T, u[:, k:k + rr].T):
                s = v0 * w[0] + v1 * w[1]
                if three:
                    s += v2 * w[2]
                s *= beta
                w[0] -= s * v0
                w[1] -= s * v1
                if three:
                    w[2] -= s * v2
            if k > lo:
                h[k + 1, k - 1] = 0.0
                if three:
                    h[k + 2, k - 1] = 0.0
    return total, True


def _rotate(t, u, i, cs, sn):
    """Orthogonal similarity with G = [[cs, -sn], [sn, cs]] acting on
    rows/columns i, i+1 of t, and on columns i, i+1 of u."""
    for w in (t[i:i + 2], t[:, i:i + 2].T, u[:, i:i + 2].T):
        p, q = w
        w[0], w[1] = cs * p + sn * q, cs * q - sn * p


def standardize_quasi_triangular(t, u):
    """Normalize the 2x2 diagonal blocks of a quasi-triangular t in place.

    Blocks with real eigenvalues are rotated to upper triangular form;
    complex-pair blocks are rotated so both diagonal entries are equal.
    """
    n = t.shape[0]
    i = 0
    while i < n - 1:
        if t[i + 1, i] == 0.0:
            i += 1
            continue
        a = t[i, i]
        b = t[i, i + 1]
        c = t[i + 1, i]
        d = t[i + 1, i + 1]
        half = 0.5 * (a - d)
        disc = half * half + b * c
        if disc >= 0.0:
            # real pair: first column of G becomes an eigenvector
            rt = np.sqrt(disc)
            lmd = half + rt if half >= 0.0 else half - rt
            nv = np.sqrt(lmd * lmd + c * c)
            if nv > 0.0:
                _rotate(t, u, i, lmd / nv, c / nv)
            t[i + 1, i] = 0.0
            i += 1
        else:
            if a != d:
                tau = (b + c) / (a - d)
                # the smaller root of w^2 - 2 tau w - 1, without cancellation
                off = np.sqrt(tau * tau + 1.0)
                w = -1.0 / (tau + off if tau >= 0.0 else tau - off)
                cs = 1.0 / np.sqrt(1.0 + w * w)
                _rotate(t, u, i, cs, w * cs)
                mid = 0.5 * (t[i, i] + t[i + 1, i + 1])
                t[i, i] = mid
                t[i + 1, i + 1] = mid
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


def propagated_outer_sum(e_start, e_step, s, count):
    """sum_{i<count} E_i @ s @ E_i^T with E_0 = e_start, E_{i+1} = E_i @ e_step.

    Inner loop of the quadrature oracle: evaluates the integrand at a run
    of equally spaced nodes without recomputing matrix exponentials.
    """
    n = s.shape[0]
    acc = np.zeros((n, n), dtype=s.dtype)
    e = e_start.copy()
    for i in range(count):
        m = np.dot(np.dot(e, s), np.ascontiguousarray(e.T))
        acc += m
        if i + 1 < count:
            e = np.dot(e, e_step)
    return acc
