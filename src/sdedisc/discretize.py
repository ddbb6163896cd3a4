"""Discretization methods for linear stochastic systems.

Given a continuous-time model (A, S) and a sampling interval T, every
method here produces the transition matrix F = exp(A T) and an estimate of
the process-noise covariance Q = int_0^T exp(A tau) S exp(A^T tau) dtau:

* ``discretize_lyap_p``   -- stationary-covariance route (stable A only).
* ``discretize_lyap_q``   -- direct Lyapunov route: proposed, where its
  plan has no integrator (stable or not).
* ``discretize_proposed`` -- SVD rank decisions split off the integrator
  (zero-eigenvalue) block, exactly nilpotent, ahead of the Schur form, and
  the eigenvalues with Re(lambda) >= -delta join it; one block-triangular
  exponential gives F and Q's trailing block column, and a Lyapunov solve
  the rest.
* ``discretize_vanloan``  -- exponential of the 2n x 2n augmented matrix.
* ``naive_q_a``/``naive_q_b`` -- common approximations that are *not*
  consistent under interval splitting; kept as foils.
* ``q_oracle``            -- self-certifying reference, always computed in
  binary64: a fixed Taylor series over a short base step, doubled to T and
  checked by a second doubling chain.
"""

import bisect
import math

import numpy as np

from . import _kernels
from .errors import (
    ConvergenceError,
    MatrixOverflowError,
    MethodNotApplicableError,
    NilpotencyError,
    NonFiniteError,
)
from .linalg import (
    _exp_at,
    _exp_overflow,
    _exp_table,
    _fro_norm,
    _mat_exp_many,
    _norm1,
    _scalings,
    _sym,
    check_square,
    eps_of,
    mat_exp,
    order_schur_zeros_last,
    quasi_tri_eigvalues,
    real_schur,
    spectral_norm,
)
from .models import ContinuousModel, DiscreteModel, Method, MethodReport

_TINY = 1e-300
# q_oracle refuses a horizon whose two doubling chains differ by more than
# this, relative to the first chain's norm
_ORACLE_CHAIN_TOL = 1e-8
# the plan solves q11 in a11's eigenbasis only where |V|_F |V^-1|_F <= this
# times k, k for a unitary V: that route's error grows like cond(V)^2 times
# trsylv's, and on the tests' coupled drifts below this gate Q's error stays
# within 4x of trsylv's
_Q11_EIG_GATE = 1.25

# the oracle's base step sums the Taylor terms k = 0 .. 16 (see _base_q)
_TAYLOR_TERMS = 17
_TAYLOR_K = np.arange(_TAYLOR_TERMS, dtype=np.float64)
_FACTORIALS = np.array([math.factorial(k)
                        for k in range(_TAYLOR_TERMS + 1)], dtype=np.float64)


def _check_horizon(t: float) -> float:
    t = float(t)
    if not 0.0 <= t < math.inf:
        raise ValueError(f"sampling interval must be finite and >= 0, got {t}")
    return t


def _trivial_report(m: ContinuousModel, method: Method) -> MethodReport:
    n = m.n
    model = DiscreteModel(f=np.eye(n, dtype=m.dtype),
                          q=np.zeros((n, n), dtype=m.dtype), horizon=0.0)
    return MethodReport(model=model, method=method)


def _augmented(a: np.ndarray) -> np.ndarray:
    """The augmented [[a, I], [0, 0]], whose exponential holds exp(a t) and
    its integral int_0^t exp(a tau) dtau."""
    n = a.shape[0]
    aug = np.zeros((2 * n, 2 * n), dtype=a.dtype)
    aug[:n, :n] = a
    aug[:n, n:] = np.eye(n, dtype=a.dtype)
    return aug


def _fxft_minus_x(fm1: np.ndarray, x: np.ndarray) -> np.ndarray:
    """f x f^T - x for symmetric x, from fm1 = f - I without subtracting
    nearly equal terms: w + w^T + w fm1^T with w = fm1 x, symmetric to
    rounding.  fm1 may be a stack."""
    w = fm1 @ x
    return w + w.mT + w @ fm1.mT


def _unwrap(out):
    """out, or raised if it is an error: one entry of a stacked result."""
    if isinstance(out, Exception):
        raise out
    return out


def _lyap_p_margin(a: np.ndarray) -> float:
    """lyap-p's margin, sqrt(100 n eps) ||A||_F: lyap-p takes a drift
    only if every eigenvalue's real part is below minus this.  Its P/2
    solve loses about eps (||A|| / zeta)^2 for an eigenvalue zeta from
    the imaginary axis, so a margin linear in eps would pass drifts whose
    P keeps no digit; the square root holds that loss near 1 / (100 n).
    The integrators are found by _split's rank decisions, not here."""
    return math.sqrt(100.0 * a.shape[0] * eps_of(a)) * _fro_norm(a)


def _lyap_p_check(ev, tau: float):
    max_re = float(ev.real.max(initial=-math.inf))
    if max_re >= -tau:
        raise MethodNotApplicableError(
            f"lyap-p requires Re(lambda) < -{tau:.3e}, the margin "
            "sqrt(100 n eps) ||A||_F, for every eigenvalue; max Re(lambda) "
            f"= {max_re:.3e} is not below it")


def discretize_lyap_p(m: ContinuousModel, t: float) -> MethodReport:
    """Stationary-covariance method: A P + P A^T = -S, then
    Q = P - F P F^T.  Requires a strictly stable drift, every eigenvalue's
    real part below -_lyap_p_margin(A), so the plan has no trailing
    block: P/2 comes from the q11 solver of discretize_proposed's plan,
    a11's eigenbasis or trsylv as the plan decided, and the plan keeps
    it.  With no trailing block, the plan's H is at alone, and
    its exponential gives F and F - I with no I subtracted."""
    t = _check_horizon(t)
    if t == 0.0:
        return _trivial_report(m, Method.LYAP_P)
    plan = _proposed_plan(m)
    if plan.p_half is None:  # a refused plan never sets it
        _lyap_p_check(plan.ev, _lyap_p_margin(m.a))
        plan.p_half = plan.solve_q11(-plan.st_half)
    with np.errstate(over="ignore", invalid="ignore"):
        (e,), (fm1,), (ok,) = _exp_at(plan.exp, (t,))
        if not ok:
            raise _exp_overflow(e.dtype, t)
        # Q/2 = P/2 - f (P/2) f^T in Schur coordinates, from fm1 = f - I
        x = plan.u @ -_fxft_minus_x(fm1, plan.p_half) @ plan.u.T
        f = plan.u @ e @ plan.u_inv
    return MethodReport(DiscreteModel(f, x + x.T, t), Method.LYAP_P)


def discretize_lyap_q(m: ContinuousModel, t: float) -> MethodReport:
    """Direct Lyapunov method: A Q + Q A^T = -(S - F S F^T).

    Applicable where discretize_proposed's staircase finds no integrator,
    stable or not; the result is then proposed's, bit for bit, whose
    exponential takes the eigenvalues with Re(lambda) >= -delta, and a
    model the plan refuses raises its error."""
    t = _check_horizon(t)
    if t == 0.0:
        return _trivial_report(m, Method.LYAP_Q)
    plan = _proposed_plan(m)
    if plan.integrators:
        raise MethodNotApplicableError(
            f"lyap-q not applicable: {plan.integrators} eigenvalues are "
            "integrators, and only proposed solves that trailing block")
    (report,) = plan.reports((t,))
    return MethodReport(_unwrap(report).model, Method.LYAP_Q)


def q_nilpotent(a22: np.ndarray, s22: np.ndarray, t: float) -> np.ndarray:
    """The paper's closed-form noise covariance for a nilpotent drift
    block, sum_{i,j<p} T^(i+j+1) / (i! j! (i+j+1)) * A^i S (A^j)^T, kept
    as a reference: discretize_proposed takes it from an exponential.

    Each term is c^(i+j) B^i S (B^j)^T for B = A / c, c = max(|A|_F, 1),
    no power overflowing.  Raises NilpotencyError when |B^p| exceeds a
    tolerance that allows for the eps^(1/p) spread of an index-p chain."""
    t = _check_horizon(t)
    a22 = check_square(a22, "nilpotent block")
    s22 = check_square(s22, "nilpotent noise block")
    if s22.shape != a22.shape:
        raise ValueError("drift and noise blocks must have equal shape")
    p = a22.shape[0]
    c = max(_fro_norm(a22), 1.0)
    b = (a22.astype(np.float64) / c).astype(a22.dtype)
    powers = [np.eye(p, dtype=a22.dtype)]
    for _ in range(p):
        powers.append(powers[-1] @ b)
    nil_tol = math.sqrt(100.0 * p * eps_of(a22))
    if _fro_norm(powers[p]) > nil_tol:
        raise NilpotencyError(
            f"block is not nilpotent of index {p}: |(A/c)^p| = "
            f"{_fro_norm(powers[p]):.3e} > {nil_tol:.3e}, c = {c:.3e}")
    q = np.zeros_like(a22)
    fact = math.factorial
    with np.errstate(over="ignore", invalid="ignore"):
        tc = np.float64(t) * c
        for i, j in np.ndindex(p, p):
            e = i + j + 1
            coef = t * tc ** (e - 1) / (fact(i) * fact(j) * e)
            q += a22.dtype.type(coef) * (powers[i] @ s22 @ powers[j].T)
        q = _sym(q)
    if not np.isfinite(q).all():
        raise MatrixOverflowError(
            f"nilpotent covariance overflowed {q.dtype.name} at t = {t:.3g}")
    return q


def _least_sv(c: np.ndarray) -> float:
    """The least singular value of a square c: |c| for a 1 x 1 c, the SVD's
    otherwise."""
    if c.shape[0] == 1:
        return abs(float(c[0, 0]))
    return float(np.linalg.svd(c, compute_uv=False)[-1])


def _split(a: np.ndarray, tol: float) -> tuple:
    """(v, at, k): orthogonal v and at = v^T a v, at[k:, :k] exactly 0 and
    N = at[k:, k:] strictly upper triangular: a's n - k integrators.  The
    staircase reduction (Kublanovskaya 1966; Van Dooren, Linear Algebra
    Appl. 27, 1979) on [m; v], m = at^T: each step moves the right singular
    vectors of the singular values <= tol of m's leading block last and
    zeroes those columns, a backward error of at most tol each on a.  A
    step with no such value ends it, and so does the CS decomposition
    (Paige & Wei, Linear Algebra Appl. 208/209, 1994) without that step's
    SVD: a step on the block w sigma u^T that drops d values leaves the
    next block c11 diag(kept sigma), c = u^T w, whose least singular value
    is at least that of the trailing d x d block c22 times the least kept
    sigma; when that bound exceeds 2 tol, a margin for the rounding of the
    bound and of the block, the next step would drop nothing."""
    n = a.shape[0]
    hu = np.concatenate([a.T, np.eye(n, dtype=a.dtype)])
    size = n
    while size:
        w, sv, ut = np.linalg.svd(hu[:size, :size])
        keep = int(np.count_nonzero(sv > tol))
        if keep == size:
            break
        _kernels.similarity(hu, 0, ut.T)
        hu[:size, keep:size] = 0.0
        size, c22 = keep, ut[keep:] @ w[:, keep:]
        if size and _least_sv(c22) * float(sv[size - 1]) > 2.0 * tol:
            break
    return hu[n:], np.ascontiguousarray(hu[:n].T), size


class _ProposedPlan:
    """Everything proposed, lyap-q and lyap-p need that depends on (A, S)
    only, never on the horizon.  _split puts the integrators last as an
    exactly nilpotent N, integrator_count in size, which the real Schur
    form of the whole transformed A keeps bit for bit, as LAPACK's
    balancing isolates N's eigenvalues as exact zeros.  Where every other
    eigenvalue has Re(lambda) < -delta, delta = 200 eps |A|_F, the plan
    takes split_index k from _split and runs no reordering pass; else
    order_schur_zeros_last moves a11's eigenvalues with Re(lambda) >=
    -delta (undamped pairs, unstable poles) into a22, the trailing p x p
    block from k on, with N.  Every lambda_i + lambda_j of a11 then has
    real part below -2 delta, so the q11 solve is never singular, and
    -a22^T grows no faster than exp(delta t).  The plan keeps at with its
    blocks, u and u^-1, half the transformed S, the q11 solver, lyap-p's
    P/2 from its first call on, and the power table (linalg._exp_table)
    of the (n + p)-square
        H = [[at, st_half[:, k:] / 2^shift], [0, -a22^T]].
    E = exp(H t) holds F = E[:n, :n] and Q/2's trailing block column in
    2^shift E[:n, n:] F22^T, F22 = E[k:n, k:n] (Van Loan, IEEE TAC 23,
    1978, with F21 = 0 and the growing -a11^T block dropped); F - I =
    int_0^t exp(at tau) at dtau comes beside it with no I subtracted, from
    the Pade quotient's r_13 - I through the squarings (linalg._exp_at,
    the table's lead n).  The q11 solver is a fact of the plan: where
    trsylv would need more than one column block (k^2 unknowns above
    _kernels._INVERT_MAX) and a11's eigenvector matrix V passes the gate
    |V|_F |V^-1|_F <= _Q11_EIG_GATE k, the eigenbasis (lambda, V, V^-1 and
    1/(lambda_i + conj(lambda_j))) of _kernels.lyap_eigbasis, so that a
    horizon's solve is four products; otherwise the column blocks of
    _kernels.sylv_blocks, inverted where small, one product where they are
    one block.  Its tolerances scale _fro_norm(A).  A model whose
    factorization fails raises here; ``reports`` evaluates horizons."""

    def __init__(self, m: ContinuousModel, key=None):
        self.key, self.p_half = key, None
        n, eps, anorm = m.n, eps_of(m.a), _fro_norm(m.a)
        v, at, k = _split(m.a, 100.0 * eps * anorm)
        self.integrators = n - k
        u, at = real_schur(at)
        self.ev = quasi_tri_eigvalues(at)
        delta = 200.0 * eps * anorm
        if self.ev[:k].real.max(initial=-math.inf) >= -delta:
            u, at, k = order_schur_zeros_last(u, at, delta)
            self.ev = quasi_tri_eigvalues(at)
        u = v @ u
        p = n - k
        self.at, self.u, self.k = at, u, k
        self.a11, self.a12 = np.ascontiguousarray(at[:k, :k]), at[:k, k:]
        # computed inverse rather than transpose: u is only orthogonal to
        # rounding, and the back-transform error is smaller with the inverse
        self.u_inv = np.linalg.inv(u)
        # the block equations carry V/2 and Q/2, V = S - F S F^T: for an
        # unstable drift V is about -2 Q and would overflow the width before
        # Q does; halving is exact, so no other bit changes
        self.st_half = m.dtype.type(0.5) * _sym(
            self.u_inv @ m.s @ self.u_inv.T)
        # a large S would add squarings to F: its block enters H divided by
        # 2^shift, to a 1-norm <= max(|at|_1, 1), and reports undoes it
        sn, cap = _norm1(self.st_half[:, k:]), max(_norm1(at), 1.0)
        self.shift = math.frexp(sn / cap)[1] if sn > cap else 0
        h = np.zeros((n + p, n + p), dtype=u.dtype)
        h[:n, :n] = at
        h[:n, n:] = np.ldexp(self.st_half[:, k:], -self.shift)
        h[n:, n:] = -at[k:, k:].T
        self.exp = _exp_table(h, n)
        # q11's solver: a11's eigenbasis where trsylv would need more than
        # one column block and that basis passes the gate, else trsylv's
        # (blocks, r) for the quasi-lower triangular a11^T
        self.q11_eig = self.q11_sylv = None
        if k * k > _kernels._INVERT_MAX:
            self.q11_eig = _kernels.lyap_eigbasis(self.a11, _Q11_EIG_GATE * k)
        if self.q11_eig is None:
            r = np.ascontiguousarray(self.a11.T)
            self.q11_sylv = _kernels.sylv_blocks(self.a11, r), r

    def solve_q11(self, c):
        """q11 of a11 q11 + q11 a11^T = c, c a stack or not, by the
        plan's solver."""
        if self.q11_eig is not None:
            return _kernels.eig_lyap(self.q11_eig, c)
        return _kernels.trsylv(*self.q11_sylv, c)

    def reports(self, ts) -> list:
        """discretize_proposed at every positive horizon of ts in one pass:
        entry i is the MethodReport at ts[i], or the SdeDiscError that
        horizon raised.  Each step is stacked over the horizons and makes,
        slice by slice, the products and solves of one horizon, so entry i
        is bit for bit what ts[i] alone gives; a horizon whose numbers
        overflow fails alone."""
        n, k = self.u.shape[0], self.k
        with np.errstate(over="ignore", invalid="ignore"):
            # f - I carried beside E, whose digits st - f st f^T would
            # cancel where a short horizon leaves f near I
            big, fm1, exp_ok = _exp_at(self.exp, ts)
            ft = big[:, :n, :n]
            # Q/2 = G F^T (Van Loan) on the trailing block column, where
            # F^T is zero above F22^T
            qt = np.empty_like(fm1)
            g = np.ldexp(big[:, :n, n:], self.shift)
            qt[:, :, k:] = g @ ft[:, k:, k:].mT
            q12 = qt[:, :k, k:]
            qt[:, k:, :k] = q12.mT
            # nv = -V/2 = f (st/2) f^T - st/2; q11 solves
            # a11 q11 + q11 a11^T = nv11 - a12 q12^T - q12 a12^T
            nv = _fxft_minus_x(fm1, self.st_half)
            w = self.a12 @ q12.mT
            qt[:, :k, :k] = self.solve_q11(nv[:, :k, :k] - (w + w.mT))
            f = self.u @ ft @ self.u_inv
            # qt is Q/2 in Schur coordinates, symmetric to rounding:
            # Q = x + x^T is Q symmetrized
            x = self.u @ qt @ self.u.T
            q = x + x.mT
        # a right-hand side that overflowed leaves f or q non-finite, which
        # the report refuses
        return [_report(f[i], q[i], t, Method.PROPOSED,
                        {"split_index": float(k),
                         "integrator_count": float(self.integrators)})
                if exp_ok[i] else _exp_overflow(big.dtype, t)
                for i, t in enumerate(ts)]


def _report(f, q, t, method, diagnostics=None):
    """The MethodReport of (f, q) at horizon t, or the NonFiniteError the
    model raises for it."""
    try:
        return MethodReport(DiscreteModel(f, q, t), method,
                            diagnostics or {})
    except NonFiniteError as exc:
        return exc


# the plan of the last model an exact Schur method saw; replaced, never
# mutated but for lyap-p's p_half, so a call that reads it sees a whole plan
_last_plan = None


def _model_key(m: ContinuousModel) -> tuple:
    """The dtypes and bytes of a model's arrays: equal keys, equal models."""
    return (m.a.dtype, m.s.dtype, m.a.tobytes(), m.s.tobytes())


def _proposed_plan(m: ContinuousModel):
    """The kept plan if it was made for m, else a new one, which is then
    kept."""
    global _last_plan
    key = _model_key(m)
    plan = _last_plan
    if plan is None or plan.key != key:
        plan = _last_plan = _ProposedPlan(m, key)
    return plan


def discretize_proposed(m: ContinuousModel, t: float) -> MethodReport:
    """Combined method: split the integrators off A as an exactly nilpotent
    trailing block by SVD rank decisions, take the Schur form of the rest,
    F and Q's trailing block column from one exponential of a block upper
    triangular matrix, the leading block of Q from a Lyapunov equation, and
    transform back.  The eigenvalues with Re(lambda) >= -delta, delta =
    200 eps |A|_F (undamped pairs, unstable poles), join the integrators in
    the trailing block, whose exponential grows no faster than
    exp(delta t) in -a22^T, so the Lyapunov equation is never singular; a
    model with none runs no reordering pass.  The paper solves a Lyapunov equation for every
    non-zero eigenvalue, which needs lambda_i + lambda_j != 0, couples the
    blocks by Sylvester equations and sums the integrator block in closed
    form (q_nilpotent); the exponential replaces the last two, and has no
    1/sep(a11, a22) error.

    One block formula for every integrator count: the leading block a11
    is 0 x 0 when every eigenvalue is an integrator, and the trailing
    block a22 is 0 x 0 when there are none.

    The work that does not depend on t (rank decisions, Schur form,
    reordering, the exponential's power table, and the Lyapunov solver:
    a11's eigenbasis where it is well conditioned and a11 is wider than one
    column block, else the column blocks of a Bartels-Stewart
    back-substitution, inverted where small) is kept from the last call and
    reused when this call's model has byte-equal ``a`` and ``s`` of the
    same dtypes; any other model, or an edit to the arrays in place, makes
    it factor afresh.  A call therefore evaluates only the horizon, as the
    one-horizon case of the plan's stacked evaluation.  Results are the
    same either way."""
    t = _check_horizon(t)
    if t == 0.0:
        return _trivial_report(m, Method.PROPOSED)
    (report,) = _proposed_plan(m).reports((t,))
    return _unwrap(report)


def discretize_vanloan(m: ContinuousModel, t: float) -> MethodReport:
    """Van Loan's method: one exponential of [[A, S], [0, -A^T]].

    For large t * |Re(lambda)| of a stable pole the lower-right block grows
    like exp(+|lambda| t), and Q = G F^T cancels: Q comes back wrong with
    no error, in binary64 by 2e3 relative on a rotated 5 x 5 drift (pole
    -5, an undamped pair, a constant-velocity chain) at T = 10 and by 2e70
    on rotated diag(1, -1, -3, -0.5) at T = 100 (the rotated models of
    tests/test_discretize.py's AXIS_MODELS).  MatrixOverflowError is raised
    only where the exponential overflows.  The one-horizon case of
    _vanloan_reports."""
    t = _check_horizon(t)
    if t == 0.0:
        return _trivial_report(m, Method.VANLOAN)
    (report,) = _vanloan_reports(m, (t,))
    return _unwrap(report)


def _vanloan_reports(m: ContinuousModel, ts) -> list:
    """discretize_vanloan at every positive horizon of ts, from one stacked
    exponential: entry i is the MethodReport at ts[i], or the SdeDiscError
    that horizon raised, bit for bit what ts[i] alone gives."""
    n = m.n
    h = np.zeros((2 * n, 2 * n), dtype=m.dtype)
    h[:n, :n] = m.a
    h[:n, n:] = m.s
    h[n:, n:] = -m.a.T
    big, ok = _mat_exp_many(h, ts)
    f = np.ascontiguousarray(big[:, :n, :n])
    with np.errstate(over="ignore", invalid="ignore"):
        q = _sym(big[:, :n, n:] @ f.mT)
    return [_report(f[i], q[i], t, Method.VANLOAN) if ok[i]
            else _exp_overflow(big.dtype, t) for i, t in enumerate(ts)]


def naive_q_a(m: ContinuousModel, t: float) -> np.ndarray:
    """Foil: noise held constant over the interval,
    Q = (1/T) G S G^T with G = int_0^T exp(A tau) dtau."""
    t = _check_horizon(t)
    if t == 0.0:
        raise ValueError("naive_q_a requires t > 0")
    g = mat_exp(_augmented(m.a), t)[:m.n, m.n:]
    with np.errstate(over="ignore", invalid="ignore"):
        q = _sym((g @ m.s @ g.T) / m.dtype.type(t))
    if not np.isfinite(q).all():
        raise MatrixOverflowError(
            f"G S G^T / T overflowed {m.dtype.name} at t = {t:.3g}")
    return q


def naive_q_b(m: ContinuousModel, t: float) -> np.ndarray:
    """Foil: continuous-time intensity rescaled by the interval, Q = T S."""
    t = _check_horizon(t)
    with np.errstate(over="ignore", invalid="ignore"):
        q = m.s * m.dtype.type(t)
    if not np.isfinite(q).all():
        raise MatrixOverflowError(
            f"T S overflowed {m.dtype.name} at t = {t:.3g}")
    return q


def q_oracle(m: ContinuousModel, t: float) -> np.ndarray:
    """Reference covariance, always in binary64.  A fixed Taylor series,
    summed from horizon-free power tables (see _base_q), gives Q over a
    base step h0 = T / 2^k, the least k with
    max(|A|_1, |A|_inf) h0 <= theta13; exact interval
    doubling, Q(2h) = F(h) Q(h) F(h)^T + Q(h) with F(2h) = F(h)^2, carries
    it to T from the Pade exponential F(h0) = exp(A h0).  A second chain,
    started from exp(A h0/2)^2 in place of exp(A h0), checks the
    doublings: where the two disagree, binary64 cannot give the truth and
    ConvergenceError is raised.  The one-horizon case of _q_oracle_many,
    raising the error it reports."""
    (q,) = _q_oracle_many(m, (t,))
    return _unwrap(q)


def _norms(x: np.ndarray) -> list:
    """The Frobenius norm of each matrix of the stack x, as floats: one
    vecdot over the flattened stack, bit for bit np.linalg.norm(x[j])."""
    flat = x.reshape(x.shape[0], -1)
    return np.sqrt(np.vecdot(flat, flat)).tolist()


# a number that overflows binary64 is caught as a non-finite estimate
@np.errstate(over="ignore", invalid="ignore")
def _q_oracle_many(m: ContinuousModel, ts) -> list:
    """q_oracle at every horizon of ts in one pass: entry i is Q at ts[i],
    or the SdeDiscError that horizon raised.  One _exp_table(A) serves the
    base steps' series and both chains' exp(A h0) and exp(A h0/2), which
    come from one _exp_at call; the base steps and both chains' doublings
    share stacked products.  Each horizon keeps its own base step and
    doubling count, and every slice runs the same operations, so entry i
    is what q_oracle(m, ts[i]) computes alone."""
    ts = [_check_horizon(t) for t in ts]
    a = np.ascontiguousarray(m.a, dtype=np.float64)
    s = np.ascontiguousarray(m.s, dtype=np.float64)
    n = m.n
    out = [np.zeros((n, n)) if t == 0.0 else None for t in ts]
    live = [i for i, t in enumerate(ts) if t > 0.0]
    if not live:
        return out
    nu = float(max(np.abs(a).sum(axis=axis).max(initial=0.0)
                   for axis in (0, 1)))
    if not nu < math.inf:
        for i in live:
            out[i] = MatrixOverflowError(
                "max(|A|_1, |A|_inf) overflows binary64")
        return out
    counts, _ = _scalings(nu, ts, math.inf)
    # most doublings first, so that each step's live slices are a prefix
    live.sort(key=lambda i: -counts[i])
    steps = [counts[i] for i in live]
    # doubling[d]: how many slices double more than d times
    doubling = [bisect.bisect_left(steps, -d, key=lambda c: -c)
                for d in range(steps[0] + 1)]
    h0 = [math.ldexp(ts[i], -counts[i]) for i in live]
    table = _exp_table(a)
    q = np.stack([_base_q(a, s, h0, table)] * 2)
    if steps[0]:
        dbl = h0[:doubling[0]]
        e, _, _ = _exp_at(table, dbl + [0.5 * h for h in dbl])
        f = np.stack([e[:len(dbl)], e[len(dbl):] @ e[len(dbl):]])
    for step in range(steps[0]):
        live_q, live_f = doubling[step], doubling[step + 1]
        q[:, :live_q] = _sym(_kernels.propagated_outer_sum(
            q[:, :live_q], f[:, :live_q]))
        f[:, :live_f] = f[:, :live_f] @ f[:, :live_f]
    finite = np.isfinite(q).all(axis=(0, 2, 3)).tolist()
    scales = _norms(q[0])
    diffs = _norms(q[0] - q[1])
    for r, i in enumerate(live):
        if not finite[r]:
            out[i] = MatrixOverflowError(
                f"Q overflowed binary64 at horizon {ts[i]:.3g}")
            continue
        diff = diffs[r] / max(scales[r], _TINY)
        if diff <= _ORACLE_CHAIN_TOL:
            out[i] = q[0, r]
        else:
            out[i] = ConvergenceError(
                f"{steps[r]} doublings to horizon {ts[i]:.3g} are not "
                f"reliable in binary64: two chains differ by {diff:.2e} "
                f"relative (limit {_ORACLE_CHAIN_TOL:g})", sweeps=steps[r])
    return out


def _base_q(a: np.ndarray, s: np.ndarray, hs, table: tuple) -> np.ndarray:
    """int_0^h exp(A tau) S exp(A^T tau) dtau at every step h of hs, as a
    (len(hs), n, n) stack in binary64, for max(|A|_1, |A|_inf) h <= theta13,
    from table = _exp_table(a).  With L(X) = A X + X A^T the integrand is
    exp(tau L) S, so at g = h/16
        Q(g) = g sum_k (g L)^k S / (k+1)!,   exp(A g) = sum_k (A g)^k / k!,
    both to k = 16.  The horizon-free terms are made once: the table's
    powers of x = A/2^e, extended to x^16, and X_k = (L/c)^k S for
    c = 2^(d+1), 2^d above max(|A|_1, |A|_inf), each X_(k+1) = Y + Y^T
    for Y = (A/c) X_k, so |X_k|_1 <= |S|_1 and no term overflows.  Each
    step's series is then one product of its binary64 coefficient rows,
    g (g c)^k/(k+1)! and (g 2^e)^k/k!, with those terms; four doublings
    with that exp(A g) carry Q(g) to Q(h).  As |L(X)|_1 <= (|A|_1 +
    |A|_inf) |X|_1, |g L|_1 <= theta13/8 < 0.68, and the dropped terms
    sum to below 2e-19 g |S|_1: the series needs no stop test, and every
    slice runs the same operations."""
    nu, e, powers, _, _ = table
    n = len(a)
    terms = np.empty((2, _TAYLOR_TERMS, n, n))
    terms[1, :8] = powers
    terms[1, 8:15] = powers[7] @ powers[1:]
    terms[1, 15:] = terms[1, 14] @ powers[1:3]
    d = math.frexp(max(nu, _norm1(a.mT)))[1]
    b = np.ldexp(a, -d - 1)
    terms[0, 0] = s
    for k in range(_TAYLOR_TERMS - 1):
        y = b @ terms[0, k]
        np.add(y, y.T, out=terms[0, k + 1])
    g = np.array(hs).reshape(-1, 1, 1) / 16.0
    # a zero A has only its k = 0 terms, and its step may be so long that
    # (g c)^k overflows
    gc, gx = (np.ldexp(g, i) if nu else 0.0 * g for i in (d + 1, e))
    coefs = np.concatenate([g * gc ** _TAYLOR_K / _FACTORIALS[1:],
                            gx ** _TAYLOR_K / _FACTORIALS[:-1]], axis=1)
    qf = coefs[:, :, None] @ terms.reshape(2, _TAYLOR_TERMS, n * n)
    qf = qf.reshape(len(hs), 2, n, n)
    q, f = qf[:, 0], qf[:, 1]
    for split in range(4):
        if split:
            f = f @ f
        q = _sym(_kernels.propagated_outer_sum(q, f))
    return q


def lemma2_residual(m: ContinuousModel, f: np.ndarray,
                    q: np.ndarray) -> float:
    """Universal correctness certificate: the exact covariance satisfies
    A Q + Q A^T = -S + F S F^T for any A (stable or not).  Returns the
    relative spectral-norm defect, computed in binary64.  No method
    computes it; a caller that wants it passes a result's
    ``report.model.f`` and ``report.model.q``."""
    if f.shape != m.a.shape or q.shape != m.a.shape:
        raise ValueError("shape mismatch in lemma2_residual")
    a, s, f, q = (x.astype(np.float64) for x in (m.a, m.s, f, q))
    defect = a @ q + q @ a.T + s - f @ s @ f.T
    snorm, fnorm = spectral_norm(s), spectral_norm(f)
    # |S| (1 + |F|^2), with no |F|^2 alone to overflow where |F S F^T| fits
    scale = snorm + snorm * fnorm * fnorm
    floor = eps_of(np.float64) * snorm + _TINY
    return float(spectral_norm(defect) / max(scale, floor))


def run_method(m: ContinuousModel, t: float, method: Method) -> MethodReport:
    """Uniform dispatcher.  Foils and the oracle are wrapped into a
    MethodReport using the true transition matrix F = exp(A t)."""
    if not isinstance(method, Method):
        method = Method(method)
    if method is Method.LYAP_P:
        return discretize_lyap_p(m, t)
    if method is Method.LYAP_Q:
        return discretize_lyap_q(m, t)
    if method is Method.PROPOSED:
        return discretize_proposed(m, t)
    if method is Method.VANLOAN:
        return discretize_vanloan(m, t)
    t = _check_horizon(t)
    if method in (Method.NAIVE_A, Method.NAIVE_B):
        if t == 0.0:
            return _trivial_report(m, method)
        q = naive_q_a(m, t) if method is Method.NAIVE_A else naive_q_b(m, t)
        f = mat_exp(m.a, t)
        return MethodReport(DiscreteModel(f, q, t), method)
    if method is Method.ORACLE:  # binary64 at every horizon, 0 included
        f = np.eye(m.n) if t == 0.0 else mat_exp(m.a.astype(np.float64), t)
        return MethodReport(DiscreteModel(f, q_oracle(m, t), t), method)
    raise ValueError(f"unknown method {method!r}")


def semigroup_residual(m: ContinuousModel, method: Method,
                       t1: float, t2: float) -> float:
    """Consistency under interval splitting:
    Q_{t1+t2} = F_{t2} Q_{t1} F_{t2}^T + Q_{t2} holds for every exact
    method; the naive foils violate it.  Returns the relative defect."""
    t1 = _check_horizon(t1)
    t2 = _check_horizon(t2)
    r1 = run_method(m, t1, method)
    r2 = run_method(m, t2, method)
    r12 = run_method(m, t1 + t2, method)
    q1 = r1.model.q.astype(np.float64)
    q2 = r2.model.q.astype(np.float64)
    q12 = r12.model.q.astype(np.float64)
    f2 = r2.model.f.astype(np.float64)
    defect = q12 - (f2 @ q1 @ f2.T + q2)
    floor = eps_of(np.float64) * spectral_norm(m.s) + _TINY
    return float(spectral_norm(defect) / max(spectral_norm(q12), floor))
