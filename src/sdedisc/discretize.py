"""Discretization methods for linear stochastic systems.

Given a continuous-time model (A, S) and a sampling interval T, every
method here produces the transition matrix F = exp(A T) and an estimate of
the process-noise covariance Q = int_0^T exp(A tau) S exp(A^T tau) dtau:

* ``discretize_lyap_p``   -- stationary-covariance route (stable A only).
* ``discretize_lyap_q``   -- direct Lyapunov route: proposed's leading
  block, where no eigenvalue pair of A sums to zero (stable or not).
* ``discretize_proposed`` -- Schur reordering splits off the integrator
  (zero-eigenvalue) block, whose covariance has a finite closed-form sum;
  the remaining blocks come from Sylvester/Lyapunov solves.
* ``discretize_vanloan``  -- exponential of the 2n x 2n augmented matrix.
* ``naive_q_a``/``naive_q_b`` -- common approximations that are *not*
  consistent under interval splitting; kept as foils.
* ``q_oracle``            -- self-certifying reference, always computed in
  binary64: a fixed Taylor series over a short base step, doubled to T and
  checked by a second doubling chain.
"""

import math

import numpy as np

from . import _kernels
from .errors import (
    ConvergenceError,
    MatrixOverflowError,
    MethodNotApplicableError,
    NearSingularError,
    NilpotencyError,
    NonFiniteError,
    SdeDiscError,
    UnsupportedSpectrumError,
)
from .linalg import (
    _eig_sum_guard,
    _exp_at,
    _exp_overflow,
    _exp_table,
    _mat_exp_many,
    _scalings,
    _sym,
    check_square,
    eps_of,
    mat_exp,
    order_schur_zeros_last,
    quasi_tri_eigvalues,
    real_schur,
    spectral_norm,
    tau_zero_default,
)
from .models import ContinuousModel, DiscreteModel, Method, MethodReport

_TINY = 1e-300
# q_oracle refuses a horizon whose two doubling chains differ by more than
# this, relative to the first chain's norm
_ORACLE_CHAIN_TOL = 1e-8


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


def _lyap_p_check(ev, tau: float):
    # Re(lambda) < -tau_zero_default(A) keeps every lambda_i + lambda_j off 0
    max_re = float(ev.real.max(initial=-math.inf))
    if max_re >= -tau:
        raise MethodNotApplicableError(
            f"lyap-p requires Re(lambda) < -{tau:.3e}, the margin "
            "tau_zero_default(A), for every eigenvalue; max Re(lambda) = "
            f"{max_re:.3e} is not below it")


def _lyap_q_check(ev, tau: float):
    try:
        _eig_sum_guard(ev, ev, 2.0 * tau)
    except NearSingularError as exc:
        i, j = exc.pair
        raise MethodNotApplicableError(
            f"lyap-q not applicable: eigenvalue pair ({i:.3e}, {j:.3e}) "
            f"has |sum| = {abs(i + j):.3e} <= 2 tau_zero_default(A) = "
            f"{2.0 * tau:.3e}, the margin from 0 that lyap-q requires of "
            "every eigenvalue sum for a unique solution") from exc


def discretize_lyap_p(m: ContinuousModel, t: float) -> MethodReport:
    """Stationary-covariance method: A P + P A^T = -S, then
    Q = P - F P F^T.  Requires a strictly stable drift, every eigenvalue's
    real part below -tau_zero_default(A), so no integrators: P/2 comes
    from the q11 solver of discretize_proposed's plan, which keeps it."""
    t = _check_horizon(t)
    if t == 0.0:
        return _trivial_report(m, Method.LYAP_P)
    plan = _proposed_plan(m, None, _lyap_p_check)
    if plan.p_half is None:
        plan.p_half = _kernels.trsylv(*plan.q11_sylv, -plan.st_half)
    with np.errstate(over="ignore", invalid="ignore"):
        (big,), (ok,) = _exp_at(plan.exp11, (t,))
        if not ok:
            raise _exp_overflow(big.dtype, t)
        e, g = np.hsplit(big[:m.n], 2)
        # Q/2 = P/2 - f (P/2) f^T in Schur coordinates, f - I = a g
        x = plan.u @ -_fxft_minus_x(plan.a11 @ g, plan.p_half) @ plan.u.T
        f = plan.u @ e @ plan.u_inv
    return MethodReport(DiscreteModel(f, x + x.T, t), Method.LYAP_P)


def discretize_lyap_q(m: ContinuousModel, t: float) -> MethodReport:
    """Direct Lyapunov method: A Q + Q A^T = -(S - F S F^T).

    Applicable whenever no two eigenvalues of A sum to within
    2 tau_zero_default(A) of zero; the drift need not be stable, but has
    no integrators: the result is discretize_proposed's, bit for bit."""
    t = _check_horizon(t)
    if t == 0.0:
        return _trivial_report(m, Method.LYAP_Q)
    (report,) = _proposed_plan(m, None, _lyap_q_check).reports((t,))
    return MethodReport(_unwrap(report).model, Method.LYAP_Q)


def q_nilpotent(a22: np.ndarray, s22: np.ndarray, t: float) -> np.ndarray:
    """Closed-form noise covariance for a nilpotent drift block:
    sum_{i,j<p} T^(i+j+1) / (i! j! (i+j+1)) * A^i S (A^j)^T.

    Raises NilpotencyError when |A^p| exceeds a tolerance that allows
    for the eps^(1/p) spread of a perturbed index-p chain."""
    t = _check_horizon(t)
    with np.errstate(over="ignore", invalid="ignore"):
        ((_, q),) = _nilpotent_sum(*_nilpotent_terms(a22, s22), (t,))
        q = _sym(q)
    if not np.isfinite(q).all():
        raise MatrixOverflowError(
            f"nilpotent covariance overflowed {q.dtype.name} at t = {t:.3g}")
    return q


def _nilpotent_terms(a22: np.ndarray, s22: np.ndarray) -> tuple:
    """The horizon-free part of the integrator block's two series: check
    that a22 is nilpotent and return (terms, table).  terms stacks the
    powers A^i, 0 < i < p, then the products A^i S (A^j)^T, i, j < p, in
    the order (i, j) = (0, 0), (0, 1), .., (p-1, p-1); table holds each
    term's series (0 or 1), exponent e and denominator d in
        exp(A T) - I = sum_{0<i<p} T^i / i! A^i,
        q_nilpotent before symmetrizing =
            sum_{i,j<p} T^(i+j+1) / (i! j! (i+j+1)) A^i S (A^j)^T."""
    a22 = check_square(a22, "nilpotent block")
    s22 = check_square(s22, "nilpotent noise block")
    if s22.shape != a22.shape:
        raise ValueError("drift and noise blocks must have equal shape")
    p = a22.shape[0]
    powers = [np.eye(p, dtype=a22.dtype)]
    for _ in range(p):
        powers.append(powers[-1] @ a22)
    anorm = float(np.linalg.norm(a22))
    nil_tol = math.sqrt(100.0 * p * eps_of(a22)) * max(anorm, 1.0) ** p
    if float(np.linalg.norm(powers[p])) > nil_tol:
        raise NilpotencyError(
            f"block is not nilpotent of index {p}: |A^p| = "
            f"{np.linalg.norm(powers[p]):.3e} > {nil_tol:.3e}")
    pairs = [(i, j) for i in range(p) for j in range(p)]
    terms = np.array(powers[1:p] + [powers[i] @ s22 @ powers[j].T
                                    for i, j in pairs],
                     dtype=a22.dtype).reshape(max(p - 1, 0) + p * p, p, p)
    fact = math.factorial
    return terms, ([(0, i, fact(i)) for i in range(1, p)]
                   + [(1, i + j + 1, fact(i) * fact(j) * (i + j + 1))
                      for i, j in pairs])


def _nilpotent_sum(terms: np.ndarray, table: list, ts) -> np.ndarray:
    """Both series of _nilpotent_terms at every horizon T of ts, as a
    (len(ts), 2, p, p) stack: slice [:, 0] is exp(A T) - I and [:, 1]
    q_nilpotent before symmetrizing.  Each series is summed in one pass
    over every term in order, the other series' terms with coefficient 0.
    A horizon whose sum overflows the width has a non-finite slice (numpy
    warns of it unless the caller silences it with np.errstate)."""

    # the coefficients T^e / d in Python floats, as for one horizon, then
    # rounded to the width once each
    def coef(t, e, d):
        try:
            return t ** e / d
        except OverflowError:  # t^e is beyond binary64
            return math.inf

    coefs = np.array([[[coef(t, e, d) if row == series else 0.0
                        for row, e, d in table] for series in (0, 1)]
                      for t in ts], dtype=terms.dtype)
    return (coefs.reshape(len(ts), 2, len(table), 1, 1) * terms).sum(axis=2)


class _ProposedPlan:
    """Everything proposed, lyap-q and lyap-p need that depends on (A, S)
    and tau_zero only, never on the horizon: the real Schur form with the
    integrators reordered last, its eigenvalues, its blocks, u^-1 and half
    the transformed S, after a lyap method's check and guarding the
    spectra the block equations need apart; the table of the powers
    x^0 .. x^7 of a11's scaled augmented matrix (linalg._exp_table), from
    which each horizon's Pade-13 exponential takes its U and V in one
    coefficient product and one stacked product; the column blocks of
    the three Bartels-Stewart solves, which share a11 and so come from one
    sylv_blocks call, merged and inverted wherever a union of them has at
    most 32 unknowns, so that a horizon's solves are products; one table
    of the integrator block's terms, its powers A^i and products
    A^i (S/2) (A^j)^T, after checking that it is nilpotent, from which
    F22 - I and Q22/2 come in one pass (_nilpotent_sum); and lyap-p's
    P/2, from its first call on.  A model that fails a check or a guard
    raises here; ``reports`` evaluates horizons."""

    def __init__(self, m: ContinuousModel, tau_zero: float | None, key,
                 check=None):
        self.key, self.p_half = key, None
        tau_default = tau_zero_default(m.a)
        if tau_zero is None:
            tau_zero = tau_default
        # shifted so that the integrators finish last: the reordering swaps
        # only where tau_zero parts LAPACK's and the Schur form's modulus of
        # an ill-conditioned eigenvalue, else it just classifies
        u, at, k = order_schur_zeros_last(*real_schur(m.a, tau_zero),
                                          tau_zero)
        a11 = np.ascontiguousarray(at[:k, :k])
        a22 = np.ascontiguousarray(at[k:, k:])
        # mirrored non-zero poles make the q11 Lyapunov solve singular, and
        # the f12 and q12 solves couple a11 with -a22 and with a22^T
        self.ev = ev = quasi_tri_eigvalues(at)
        if check:
            check(ev, tau_default)
        ev1, ev2 = ev[:k], ev[k:]
        eps = eps_of(m.a)
        mirrored = True
        try:
            _eig_sum_guard(ev1, ev1, 200.0 * eps * float(np.linalg.norm(m.a)))
            mirrored = False
            _eig_sum_guard(ev1, np.concatenate([-ev2, ev2]),
                           100.0 * eps * float(np.linalg.norm(a11)
                                               + np.linalg.norm(a22)))
        except NearSingularError as exc:
            i, j = exc.pair
            if abs(i) <= tau_default:
                # an integrator by the default threshold: tau_zero was small
                msg = (f"tau_zero={tau_zero:.3e} left integrators in the "
                       f"leading block (eigenvalue {i:.3e})")
            elif mirrored:
                msg = ("non-zero poles mirrored in the imaginary axis: "
                       f"{i:.3e} and {j:.3e}")
            else:
                msg = f"proposed method not applicable: {exc}"
            raise UnsupportedSpectrumError(msg) from exc
        self.u, self.k = u, k
        self.a11, self.a12 = a11, at[:k, k:]
        # the identity ft adds back to exp(at t) - I
        self.eye = np.eye(m.n, dtype=u.dtype)
        # a11's exponential and integral, from its augmented matrix's powers
        self.exp11 = _exp_table(_augmented(a11))
        # trsylv's (blocks, r) for the three solves: -a22 (f12), one
        # column block where a22 is coupled, and the quasi-lower
        # triangular a22^T (q12) and a11^T (q11)
        rs = [np.ascontiguousarray(r) for r in (-a22, a22.T, a11.T)]
        self.f12_sylv, self.q12_sylv, self.q11_sylv = zip(
            _kernels.sylv_blocks(a11, *rs), rs)
        # computed inverse rather than transpose: u is only orthogonal to
        # rounding, and the back-transform error is smaller with the inverse
        self.u_inv = np.linalg.inv(u)
        # the block equations carry V/2 and Q/2, V = S - F S F^T: for an
        # unstable drift V is about -2 Q and would overflow the width before
        # Q does; halving is exact, so no other bit changes
        self.st_half = m.dtype.type(0.5) * _sym(
            self.u_inv @ m.s @ self.u_inv.T)
        # the terms of exp(a22 t) - I and Q22/2 (q_nilpotent of S/2)
        self.nilpotent = _nilpotent_terms(
            a22, np.ascontiguousarray(self.st_half[k:, k:]))

    def reports(self, ts) -> list:
        """discretize_proposed at every positive horizon of ts in one pass:
        entry i is the MethodReport at ts[i], or the SdeDiscError that
        horizon raised.  Each step is stacked over the horizons and makes,
        slice by slice, the products and solves of one horizon, so entry i
        is bit for bit what ts[i] alone gives; a horizon whose numbers
        overflow fails alone."""
        n, k = self.u.shape[0], self.k
        a11, a12 = self.a11, self.a12
        with np.errstate(over="ignore", invalid="ignore"):
            # assemble mt = exp(at * t) - I blockwise (the whole-matrix
            # exponential loses accuracy for large t * |A| through repeated
            # squaring; the coupling block follows from A f - f A = 0).  At
            # short horizons f is I plus small entries: st - f st f^T would
            # cancel their digits, while f - I keeps them.  f11 itself comes
            # from the exponential of aug11, with its integral g11.
            big, exp_ok = _exp_at(self.exp11, ts)
            mt = np.zeros((len(ts), n, n), dtype=self.u.dtype)
            mt[:, :k, :k] = a11 @ big[:, :k, k:]
            nil = _nilpotent_sum(*self.nilpotent, ts)
            mt[:, k:, k:] = nil[:, 0]
            # f12: a11 X - X a22 = c
            c12 = mt[:, :k, :k] @ a12 - a12 @ mt[:, k:, k:]
            mt[:, :k, k:] = _kernels.trsylv(*self.f12_sylv, c12)
            ft = mt + self.eye
            ft[:, :k, :k] = big[:, :k, :k]
            # nv = -V/2 = f (st/2) f^T - st/2 from mt = f - I; the blocks
            # of Q/2 solve a11 q12 + q12 a22^T = nv12 - a12 q22 and
            # a11 q11 + q11 a11^T = nv11 - a12 q12^T - q12 a12^T
            nv = _fxft_minus_x(mt, self.st_half)
            q22 = nil[:, 1]
            q12 = _kernels.trsylv(*self.q12_sylv, nv[:, :k, k:] - a12 @ q22)
            w = a12 @ q12.mT
            q11 = _kernels.trsylv(*self.q11_sylv, nv[:, :k, :k] - (w + w.mT))
            qt = np.empty_like(mt)
            qt[:, :k, :k] = q11
            qt[:, :k, k:] = q12
            qt[:, k:, :k] = q12.mT
            qt[:, k:, k:] = q22
            f = self.u @ ft @ self.u_inv
            # qt is Q/2 in Schur coordinates, symmetric to rounding:
            # Q = x + x^T is Q symmetrized
            x = self.u @ qt @ self.u.T
            q = x + x.mT
        # a right-hand side that overflowed leaves f or q non-finite, which
        # the report refuses
        return [_report(f[i], q[i], t, Method.PROPOSED,
                        {"split_index": float(k),
                         "integrator_count": float(n - k)})
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


def _proposed_plan(m: ContinuousModel, tau_zero: float | None, check=None):
    """The kept plan if it was made for m and tau_zero, else a new one,
    which is then kept.  A lyap method's check(ev, tau_zero_default(A))
    runs on A's eigenvalues first, before a new plan's guards."""
    global _last_plan
    key = _model_key(m) + (tau_zero,)
    plan = _last_plan
    if plan is None or plan.key != key:
        plan = _last_plan = _ProposedPlan(m, tau_zero, key, check)
    elif check:
        check(plan.ev, tau_zero_default(m.a))
    return plan


def discretize_proposed(m: ContinuousModel, t: float,
                        tau_zero: float | None = None) -> MethodReport:
    """Combined method: Schur-reorder integrators into the trailing block,
    solve that block in closed form, the rest via Sylvester/Lyapunov
    equations, and transform back.

    One block formula for every integrator count: the leading block a11
    is 0 x 0 when every eigenvalue is an integrator, and the trailing
    block a22 is 0 x 0 when there are none.

    The work that does not depend on t (Schur form, reordering, guards,
    the power table x^0 .. x^7 of a11's scaled augmented matrix, the
    solvers' column blocks, inverted where small, the integrator block's
    nilpotency check and its one table of terms for F22 - I and Q22/2) is
    kept from the last call and reused when this
    call's model has byte-equal ``a`` and ``s`` of the same dtypes and the
    same ``tau_zero``; any other
    model, or an edit to the arrays in place, makes it factor afresh.  A
    call therefore evaluates only the horizon, as the one-horizon case of
    the plan's stacked evaluation.  Results are the same either way."""
    t = _check_horizon(t)
    if tau_zero is not None and not tau_zero >= 0.0:
        raise ValueError(f"tau_zero must be >= 0 or None, got {tau_zero}")
    if t == 0.0:
        return _trivial_report(m, Method.PROPOSED)
    (report,) = _proposed_plan(m, tau_zero).reports((t,))
    return _unwrap(report)


def discretize_vanloan(m: ContinuousModel, t: float) -> MethodReport:
    """Van Loan's method: one exponential of [[A, S], [0, -A^T]].

    For large t * |Re(lambda)| the lower-right block grows like
    exp(+|lambda| t); the exponential then loses all accuracy or
    overflows, which is surfaced as MatrixOverflowError.  The one-horizon
    case of _vanloan_reports."""
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
    with np.errstate(over="ignore", invalid="ignore"):
        (big,), (ok,) = _exp_at(_exp_table(_augmented(m.a)), (t,))
        if not ok:
            raise _exp_overflow(big.dtype, t)
        g = big[:m.n, m.n:]
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
    """Reference covariance, always in binary64.  A fixed Taylor series
    gives Q over a base step h0 = T / 2^k, the least k with
    max(|A|_1, |A|_inf) h0 <= theta13 (see _base_q); exact interval
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
    or the SdeDiscError that horizon raised.  The base steps and both
    chains' doublings share stacked products; each horizon keeps its own
    base step and doubling count, and every slice runs the same
    operations, so entry i is what q_oracle(m, ts[i]) computes alone."""
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
    h0 = [math.ldexp(ts[i], -counts[i]) for i in live]
    q = np.stack([_base_q(a, s, h0)] * 2)
    if steps[0]:
        dbl = h0[:sum(c > 0 for c in steps)]
        table = _exp_table(a)
        e_full, _ = _exp_at(table, dbl)
        e_half, _ = _exp_at(table, [0.5 * h for h in dbl])
        f = np.stack([e_full, e_half @ e_half])
    for step in range(steps[0]):
        live_q = sum(c > step for c in steps)
        q[:, :live_q] = _sym(_kernels.propagated_outer_sum(
            q[:, :live_q], f[:, :live_q]))
        live_f = sum(c > step + 1 for c in steps)
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


def _base_q(a: np.ndarray, s: np.ndarray, hs) -> np.ndarray:
    """int_0^h exp(A tau) S exp(A^T tau) dtau at every step h of hs, as a
    (len(hs), n, n) stack in binary64, for max(|A|_1, |A|_inf) h <= theta13.
    With L(X) = A X + X A^T the integrand is exp(tau L) S, so at g = h/16
        Q(g) = g sum_k (g L)^k S / (k+1)!,
    summed by Horner to k = 16 alongside exp(A g) = sum_k (A g)^k / k!;
    four doublings with that exp(A g) carry Q(g) to Q(h).  As
    |L(X)|_1 <= (|A|_1 + |A|_inf) |X|_1, |g L|_1 <= theta13/8 < 0.68, and
    the dropped terms sum to below 2e-19 g |S|_1: the series needs no stop
    test, and every slice runs the same operations."""
    g = np.array(hs).reshape(-1, 1, 1) / 16.0
    x, eye = s, np.eye(len(a))
    e = eye
    for k in range(16, 0, -1):
        ax = a @ x
        x = s + g / (k + 1) * (ax + ax.mT)
        e = eye + g / k * (a @ e)
    q = g * x
    for split in range(4):
        if split:
            e = e @ e
        q = _sym(_kernels.propagated_outer_sum(q, e))
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
    a = m.a.astype(np.float64)
    s = m.s.astype(np.float64)
    f = f.astype(np.float64)
    q = q.astype(np.float64)
    defect = a @ q + q @ a.T + s - f @ s @ f.T
    snorm = spectral_norm(s)
    scale = 1.0 + spectral_norm(f) ** 2
    floor = eps_of(np.float64) * snorm + _TINY
    return float(spectral_norm(defect) / max(snorm * scale, floor))


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
    if method is Method.ORACLE:
        if t == 0.0:
            return _trivial_report(m, method)
        q = q_oracle(m, t)
        f = mat_exp(m.a.astype(np.float64), t)
        return MethodReport(DiscreteModel(f, q, t), method)
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
