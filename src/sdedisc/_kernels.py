"""Hot numeric kernels.

Every kernel is plain numpy.  The Schur kernels work on one stacked
``(2n, n)`` buffer ``hu``: its top half is the matrix T being reduced, its
bottom half the accumulated orthogonal factor U.  ``similarity`` applies
each orthogonal similarity -- a Householder reflector, a Givens rotation or
a block-swap factor -- as two small matrix products: one on T's rows, one
on the columns of T and U together.  ``sylv_blocks`` builds once the
column-block matrices of the Sylvester equation ta Y + Y r = c for a
quasi-lower triangular r: its 1- and 2-column diagonal blocks, merged
while a union has at most 32 unknowns, and inverted where at most 32
wide; ``trsylv`` then makes per column block one product that folds in
the solved columns and one product with the inverse (a LAPACK solve for a
wider block), for one right-hand side or a stack of them.
``lyap_eigbasis`` keeps the eigenbasis of ta for the Lyapunov equation
ta Y + Y ta^T = c where its eigenvector matrix passes a conditioning limit,
and ``eig_lyap`` then solves it with four complex products and no
back-substitution.
``pade13_powers`` makes the table of the powers x^0 .. x^7 of a scaled
matrix once, ``pade13_expm`` evaluates Higham's degree-13 Pade approximant
of sigma x from it at many sigma, with the leading columns of the
approximant less I beside it where asked, and ``squared`` squares the
results back, making only the rows that change.
All kernels mutate or allocate arrays in the dtype of their inputs, so the
same code serves binary32 and binary64.
"""

import bisect
import cmath
import math

import numpy as np

# Pade coefficients b_0 .. b_13 of the degree-13 diagonal approximant
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)
# each b_j and its degree j at its place in pade13_expm's coefficient rows
# W1, W0, Lv and Lu over x^0 .. x^7, and 0 elsewhere
_ROWS = [2 + j % 2 if j < 8 else j % 2 for j in range(14)]
_COLS = [j if j < 8 else j - 6 - j % 2 for j in range(14)]
_ROW_B = np.zeros((4, 8))
_ROW_B[_ROWS, _COLS] = _PADE13
_ROW_J = np.zeros((4, 8))
_ROW_J[_ROWS, _COLS] = range(14)

# sylv_blocks inverts the column-block matrices up to this dimension, and
# trsylv multiplies by those inverses; wider blocks keep a LAPACK solve
_INVERT_MAX = 32


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


def hessenberg(hu, top):
    """Reduce the top half T of hu to upper Hessenberg form in place by
    Householder reflections, accumulating them into the bottom half U.
    Only columns top .. n-3 are reduced (LAPACK's ilo window): T's leading
    top columns, Hessenberg and zero from row top on, keep their bits, and
    so do U's; top = 0 reduces the whole of T."""
    n = hu.shape[1]
    for k in range(top, n - 2):
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


def _roots(h11, h12, h21, h22):
    """The eigenvalues of [[h11, h12], [h21, h22]] as two complex numbers."""
    half = 0.5 * (h11 - h22)
    root = cmath.sqrt(half * half + h12 * h21)
    mid = 0.5 * (h11 + h22)
    return mid + root, mid - root


def francis_qr(hu, eps, anorm, max_sweeps, top):
    """Francis implicit double-shift QR on the upper Hessenberg top half T
    of hu, in place.

    Returns (iterations, converged).  On exit T is real quasi-upper
    triangular, some of its 2x2 blocks possibly holding a real pair
    (split_real_pairs splits those), and the bottom half U
    accumulates the orthogonal similarity.  Only rows and columns
    top .. n-1 are iterated on (LAPACK's ilo window): T's leading top
    columns must be quasi-upper triangular and zero from row top on.

    Each iteration's double shift is the Wilkinson pair, the eigenvalues
    of the active window's trailing 2x2 block, except on every 10th
    iteration without a deflation at the window's bottom, which takes the
    exceptional shift to break limit cycles.
    """
    n = hu.shape[1]
    if n <= 2:
        return 0, True
    h = hu[:n]
    hi = n - 1
    total = 0
    stall = 0
    limit = max_sweeps * n
    while hi > top:
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


def split_real_pairs(hu):
    """Split each 2x2 diagonal block of the quasi-triangular top half T of
    hu whose eigenvalues are real, in place, accumulating the rotations
    into the bottom half U: Francis QR can leave such blocks, and so can a
    swap's rounding.  A block whose discriminant ((a - d)/2)^2 + b c,
    computed at T's width, is negative holds a complex pair and is left
    as it is, bit for bit: the Bartels-Stewart solves need no other form of
    it (Bartels and Stewart, CACM 15, 1972).
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
            i += 2


def sylv_blocks(ta, r):
    """The column blocks trsylv solves with for ta @ Y + Y @ r = c, for a
    quasi-lower triangular r: one (j0, j, matrix) per column block j0 ..
    j-1 of Y, last block first.
    Going from the last column, each narrowest block is a 1x1 diagonal
    block of r, or a 2x2 one where r[j-2, j-1] != 0, so that it couples
    only with the columns solved before it.  Consecutive narrowest blocks
    then merge, from the last, while their union has at most _INVERT_MAX
    unknowns (p = ta.shape[0] per column): a union of such blocks still
    couples only with the columns after it, and one product with its
    inverse replaces one per narrowest block.  A narrowest block above
    that size stays alone.  The block's matrix acts on its unknowns
    Y[i, j0 + b] in row-major order: entry ((i, b), (i', c)) is
    ta[i, i'] [b == c] + r[j0 + c, j0 + b] [i == i']; where its dimension
    is at most _INVERT_MAX, the list holds its inverse.

    The matrices depend on ta and r only, so a caller that solves with
    them again builds them once.  They are built as one stack per block
    width, and each stack at most _INVERT_MAX wide is inverted by one
    LAPACK call: up to that size a solve costs more in call overhead than
    the inverse's extra flops, and above it the flops win.  A solve by an
    explicit inverse is not backward stable, but its forward error has the
    same cond * eps bound as an LU solve's (Higham, Accuracy and Stability
    of Numerical Algorithms, 2nd ed., section 14.1; Du Croz and Higham,
    IMA J. Numer. Anal. 12, 1992), and the forward error is what the
    solution is used for."""
    p = ta.shape[0]
    dtype = np.result_type(ta, r)
    d = np.arange(p)
    spans = []  # (j0, j) of every column block
    end = j = r.shape[0]
    while j > 0:
        j0 = j - 2 if j > 1 and r[j - 2, j - 1] != 0.0 else j - 1
        # the narrowest block j0 .. j-1 closes the merged block j .. end-1
        # if it would take the union above _INVERT_MAX unknowns
        if j < end and (end - j0) * p > _INVERT_MAX:
            spans.append((j, end))
            end = j
        j = j0
    if end:
        spans.append((0, end))
    mats = {}
    for width in sorted({j - j0 for j0, j in spans}):
        sel = [j0 for j0, j in spans if j - j0 == width]
        # each block of r transposed, so that entry (b, c) is r[j0+c, j0+b]
        entries = np.array([r[j0:j0 + width, j0:j0 + width].T
                            for j0 in sel], dtype=dtype)
        # the unknowns are the block's Y[i, j0 + b] in row-major order:
        # ta on every column b, and r[j0 + c, j0 + b] on every row i
        mat = np.zeros((len(sel), p, width, p, width), dtype=dtype)
        for b in range(width):
            mat[:, :, b, :, b] = ta
        mat[:, d, :, d, :] += entries
        mat = mat.reshape(len(sel), width * p, width * p)
        if width * p <= _INVERT_MAX:
            mat = np.linalg.inv(mat)
        mats.update(zip(sel, mat))
    return [(j0, j, mats[j0]) for j0, j in spans]


def _solve_columns(mat, rhs):
    """The columns Y of one block from its right-hand side rhs (a stack or
    not): the block flattened row by row into one column, then one product
    with the inverse mat, or one LAPACK solve with a matrix wider than
    _INVERT_MAX."""
    shape = rhs.shape
    rhs = rhs.reshape(shape[:-2] + (-1, 1))
    sol = (mat @ rhs if mat.shape[0] <= _INVERT_MAX
           else np.linalg.solve(mat, rhs))
    return sol.reshape(shape)


def trsylv(blocks, r, c):
    """Solve ta @ Y + Y @ r = c for quasi-lower triangular r, given
    blocks = sylv_blocks(ta, r): one column block of Y at a time, last
    first, the solved columns folded in with one product, then one
    product with the block's inverse, or one LAPACK solve with a block
    matrix wider than _INVERT_MAX.  A single block that spans every column
    is solved from c as it is, with no copy.  c may be a stack of
    right-hand sides, each solved as it would be alone: every slice's
    column block is one single-column right-hand side of its own product
    or solve."""
    if len(blocks) == 1:
        return _solve_columns(blocks[0][2], c)
    y = c.copy()
    m = c.shape[-1]
    for j0, j, mat in blocks:
        rhs = y[..., j0:j]
        if j < m:  # fold in the columns solved so far
            rhs = rhs - y[..., j:] @ r[j:, j0:j]
        y[..., j0:j] = _solve_columns(mat, rhs)
    return y


def lyap_eigbasis(ta, limit):
    """(v, v^-1, d) for eig_lyap's solve of ta @ Y + Y @ ta^T = c, or None
    where the eigenvector matrix v of ta (np.linalg.eig, at ta's width,
    unit columns) is too ill-conditioned for it: singular, or
    |v|_F |v^-1|_F above limit.  That product is ta's dimension for a
    unitary v.  d[i, j] = 1 / (lambda_i + conj(lambda_j))."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            lam, v = np.linalg.eig(ta)
            v_inv = np.linalg.inv(v)
        except np.linalg.LinAlgError:
            return None
        if not np.linalg.norm(v) * np.linalg.norm(v_inv) <= limit:
            return None
        return v, v_inv, 1.0 / (lam[:, None] + lam.conj()[None, :])


def eig_lyap(basis, c):
    """Y of ta @ Y + Y @ ta^T = c for a real ta, given basis =
    lyap_eigbasis(ta, limit): with ta = v diag(lambda) v^-1, Y = v Z v^H
    turns the equation into lambda_i Z_ij + Z_ij conj(lambda_j) =
    (v^-1 c v^-H)_ij, so Y = Re(v [(v^-1 c v^-H) o d] v^H), four complex
    products and no back-substitution.  Its error grows like cond(v)^2
    times a triangular solve's (Bartels and Stewart, CACM 15, 1972;
    Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    chapter 16), hence lyap_eigbasis's limit.  c may be a stack of
    right-hand sides, each solved as it would be alone."""
    v, v_inv, d = basis
    z = (v_inv @ c @ v_inv.mT.conj()) * d
    return (v @ z @ v.mT.conj()).real


def pade13_powers(x):
    """The powers x^0 .. x^7 of the square matrix x as an (8, m, m) table
    for pade13_expm, in three stacked products: the highest power x^k made
    so far times each of x^1 .. x^k gives x^(k+1) .. x^(2k), up to x^7.
    Meant for a scaled x, |x|_1 <= 1, so that no power overflows."""
    m = x.shape[0]
    powers = np.empty((8, m, m), dtype=x.dtype)
    powers[0] = np.eye(m, dtype=x.dtype)
    powers[1] = x
    for k, top in ((1, 2), (2, 4), (4, 7)):
        powers[k + 1:top + 1] = powers[k] @ powers[1:top - k + 1]
    return powers


def pade13_expm(powers, sigmas, lead):
    """Higham's degree-13 diagonal Pade approximant of exp(sigma y) for
    each sigma of sigmas, unsquared, where y = [[x, x[:, :lead]], [0, 0]]
    and pade13_powers made the table of powers of the m x m x: a
    (len(sigmas), m + lead, m + lead) stack, each slice what its sigma
    gives alone.  The approximant of y is [[r_13, (r_13 - I)[:, :lead]],
    [0, I]] for r_13 that of x, so x's table serves; lead = 0 gives r_13.
    sigma x must be scaled so that the approximant is accurate; squared
    squares it back.

    Higham's nested form (SIMAX 26, 2005) on that table: with c_j =
    b_j sigma^j, U = x^7 W0 + Lu and V = x^6 W1 + Lv for W0 = c_9 x^2 +
    c_11 x^4 + c_13 x^6, W1 = c_8 x^2 + c_10 x^4 + c_12 x^6, and Lu, Lv the
    sums of c_j x^j over odd and even j <= 7.  The fourteen c_j of every
    sigma are computed in binary64 at once and rounded to the table's
    width once each; one product of them with the table gives W1, W0, Lv
    and Lu, one stacked product with [x^6, x^7] gives V and U, and one
    solve gives r_13 = (V - U)^-1 (V + U) and, from the same factors,
    r_13 - I = 2 (V - U)^-1 U, with no I subtracted.  Neither is formed
    from the other: a decaying mode of sigma x near theta_13 leaves r_13
    near e^-5.4, and I + (r_13 - I) would lose up to 2.3 of its digits."""
    m = powers.shape[-1]
    k = len(sigmas)
    coefs = (_ROW_B * np.asarray(sigmas, dtype=np.float64).reshape(k, 1, 1)
             ** _ROW_J).astype(powers.dtype, copy=False)
    w = (coefs @ powers.reshape(8, m * m)).reshape(k, 4, m, m)
    vu = powers[6:] @ w[:, :2] + w[:, 2:]
    v, u = vu[:, 0], vu[:, 1]
    if not lead:
        return np.ascontiguousarray(np.linalg.solve(v - u, v + u))
    twice = u[:, :, :lead] + u[:, :, :lead]
    r = np.zeros((k, m + lead, m + lead), dtype=powers.dtype)
    r[:, :m] = np.linalg.solve(v - u, np.concatenate([v + u, twice], axis=2))
    r[:, m:, m:] = powers[0, :lead, :lead]
    return r


def squared(r, squarings, top):
    """Every matrix of the stack r squared as often as its count in
    squarings asks, each slice what it gives alone, for matrices whose
    rows top .. are [0, I]: each squaring makes only rows :top, one
    product r[:top] r, and keeps the others.  So [[E, C], [0, I]] squares
    to [[E^2, E C + C], [0, I]]: where C is the first columns of E - I, C
    stays those of E^2 - I with no I subtracted.  r may be overwritten.
    Where the counts do not decrease (a sorted horizon grid), the slices
    left after the shared squarings are a suffix, squared with no gather."""
    fewest, most = min(squarings, default=0), max(squarings, default=0)
    if fewest:  # two buffers in turn, the product written into the other
        y = r.copy()
        r_top, y_top = r[:, :top], y[:, :top]
        for _ in range(fewest):
            np.matmul(r_top, r, out=y_top)
            r, y, r_top, y_top = y, r, y_top, r_top
    ordered = most == fewest or list(squarings) == sorted(squarings)
    for step in range(fewest, most):
        live = (slice(bisect.bisect_right(squarings, step), None) if ordered
                else [i for i, count in enumerate(squarings) if count > step])
        x = r[live]
        r[live, :top] = x[:, :top] @ x
    return r


# LAPACK, under the name perfbench's tracer resolves (ROADMAP H drops it)
jacobi_symm_eigvals = np.linalg.eigvalsh


def propagated_outer_sum(q, e):
    """q + e q e^T: one doubling of the oracle.  If q is Q(h) and
    e = exp(A h), the result is Q(2h).  Either argument may be a stack of
    matrices."""
    return q + e @ q @ e.mT
