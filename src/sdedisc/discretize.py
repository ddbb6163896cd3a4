"""Discretization methods for linear stochastic systems.

Given a continuous-time model (A, S) and a sampling interval T, every
method here produces the transition matrix F = exp(A T) and an estimate of
the process-noise covariance Q = int_0^T exp(A tau) S exp(A^T tau) dtau:

* ``discretize_lyap_p``   -- stationary-covariance route (stable A only).
* ``discretize_lyap_q``   -- direct Lyapunov route (needs no eigenvalue
  pair of A summing to zero; stability not required).
* ``discretize_proposed`` -- Schur reordering splits off the integrator
  (zero-eigenvalue) block, whose covariance has a finite closed-form sum;
  the remaining blocks come from Sylvester/Lyapunov solves.
* ``discretize_vanloan``  -- exponential of the 2n x 2n augmented matrix.
* ``naive_q_a``/``naive_q_b`` -- common approximations that are *not*
  consistent under interval splitting; kept as foils.
* ``q_oracle``            -- self-certifying Romberg quadrature reference,
  always computed in binary64.
"""

import contextlib
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
    _exp_overflow,
    _mat_exp_many,
    _schur_lyapunov,
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
# Richardson levels of q_oracle before it gives up; each level costs one
# exponential and two products
_ORACLE_MAX_DEPTH = 24
# q_oracle stops when successive Richardson estimates differ by this much,
# relative to their norm
_ORACLE_REL_TOL = 1e-12


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
    """The augmented matrix [[a, I], [0, 0]] of _exp_and_integral."""
    n = a.shape[0]
    return np.block([[a, np.eye(n, dtype=a.dtype)],
                     [np.zeros((n, 2 * n), dtype=a.dtype)]])


def _exp_and_integral(aug: np.ndarray, t: float):
    """(exp(a t), int_0^t exp(a tau) dtau) from one exponential of the
    augmented matrix aug = _augmented(a) (Van Loan, 1978)."""
    n = aug.shape[0] // 2
    big = mat_exp(aug, t)
    return big[:n, :n], big[:n, n:]


def _x_minus_fxft(fm1: np.ndarray, x: np.ndarray) -> np.ndarray:
    """x - f x f^T for symmetric x, from fm1 = f - I without subtracting
    nearly equal terms: -(w + w^T) - w fm1^T with w = fm1 x.  fm1 may be a
    stack."""
    w = fm1 @ x
    return _sym(-(w + w.mT) - w @ fm1.mT)


def _unwrap(out):
    """out, or raised if it is an error: one entry of a stacked result."""
    if isinstance(out, Exception):
        raise out
    return out


def discretize_lyap_p(m: ContinuousModel, t: float) -> MethodReport:
    """Stationary-covariance method: A P + P A^T = -S, then
    Q = P - F P F^T.  Requires a strictly stable drift."""
    t = _check_horizon(t)
    if t == 0.0:
        return _trivial_report(m, Method.LYAP_P)
    # one Schur factorization serves the stability check and the solve;
    # Re(lambda) < -tau_zero keeps every lambda_i + lambda_j off zero
    u, ta = real_schur(m.a)
    max_re = float(quasi_tri_eigvalues(ta).real.max(initial=-math.inf))
    if max_re >= -tau_zero_default(m.a):
        raise MethodNotApplicableError(
            "lyap-p requires a strictly stable drift; max Re(lambda) = "
            f"{max_re:.3e}")
    p = _schur_lyapunov(u, ta, -m.s)
    f, g = _exp_and_integral(_augmented(m.a), t)
    q = _x_minus_fxft(m.a @ g, p)
    return MethodReport(DiscreteModel(f, q, t), Method.LYAP_P)


def discretize_lyap_q(m: ContinuousModel, t: float) -> MethodReport:
    """Direct Lyapunov method: A Q + Q A^T = -(S - F S F^T).

    Applicable whenever no two eigenvalues of A sum to zero (at working
    precision); the drift need not be stable."""
    t = _check_horizon(t)
    if t == 0.0:
        return _trivial_report(m, Method.LYAP_Q)
    # one Schur factorization serves the pre-check and the solve
    u, ta = real_schur(m.a)
    evs = quasi_tri_eigvalues(ta)
    try:
        _eig_sum_guard(evs, evs, 2.0 * tau_zero_default(m.a))
    except NearSingularError as exc:
        i, j = exc.pair
        raise MethodNotApplicableError(
            "lyap-q not applicable: eigenvalue pair "
            f"({i:.3e}, {j:.3e}) sums to ~0 (integrator or "
            "mirrored poles); unique-solution condition violated") from exc
    f, g = _exp_and_integral(_augmented(m.a), t)
    # the solve takes V/2 and returns Q/2: for an unstable drift V is
    # about -2 Q, and would overflow the width before Q does.  What still
    # overflows is refused as non-finite, not warned about.
    with np.errstate(over="ignore", invalid="ignore"):
        v_half = _x_minus_fxft(m.a @ g, m.dtype.type(0.5) * m.s)
        q_half = _schur_lyapunov(u, ta, -v_half)
        q = q_half + q_half
    return MethodReport(DiscreteModel(f, q, t), Method.LYAP_Q)


def q_nilpotent(a22: np.ndarray, s22: np.ndarray, t: float) -> np.ndarray:
    """Closed-form noise covariance for a nilpotent drift block:
    sum_{i,j<p} T^(i+j+1) / (i! j! (i+j+1)) * A^i S (A^j)^T.

    Raises NilpotencyError when |A^p| exceeds a tolerance that allows
    for the eps^(1/p) spread of a perturbed index-p chain."""
    (q,) = _nilpotent_sum(_nilpotent_terms(a22, s22), (_check_horizon(t),))
    return q


def _nilpotent_terms(a22: np.ndarray, s22: np.ndarray) -> np.ndarray:
    """q_nilpotent's horizon-free part: check that a22 is nilpotent and
    return the products A^i S (A^j)^T, i, j < p, as a (p*p, p, p) stack in
    the order (i, j) = (0, 0), (0, 1), .., (p-1, p-1)."""
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
    terms = np.empty((p * p, p, p), dtype=a22.dtype)
    for i in range(p):
        for j in range(p):
            terms[i * p + j] = powers[i] @ s22 @ powers[j].T
    return terms


def _nilpotent_sum(terms: np.ndarray, ts) -> np.ndarray:
    """q_nilpotent at every horizon of ts, as a (len(ts), p, p) stack, from
    the products of _nilpotent_terms."""
    p = terms.shape[-1]
    # the coefficients in Python floats, as for one horizon, then rounded
    # to the width once each
    powers = [(i + j + 1, math.factorial(i) * math.factorial(j) * (i + j + 1))
              for i in range(p) for j in range(p)]
    coefs = np.array([[t ** e / d for e, d in powers] for t in ts],
                     dtype=terms.dtype).reshape(len(ts), p * p, 1, 1)
    products = coefs * terms
    q = np.zeros((len(ts), p, p), dtype=terms.dtype)
    for ij in range(p * p):
        q = q + products[:, ij]
    return _sym(q)


def _nilpotent_expm1(a22: np.ndarray, a22_once: np.ndarray,
                     ts) -> np.ndarray:
    """exp(A t) - I for a nilpotent block A = a22 at every horizon of ts,
    as the terminating power series: a (len(ts), p, p) stack.  a22_once is
    the product I @ a22, which the plan keeps; it is a22 but for the sign
    of a zero, so the first term is built from it and not from a22."""
    p = a22.shape[0]
    acc = np.zeros((len(ts), p, p), dtype=a22.dtype)
    for i in range(1, p):
        scale = np.array([t / i for t in ts], dtype=a22.dtype)
        term = (a22_once if i == 1 else term @ a22) * scale[:, None, None]
        acc = acc + term
    return acc


class _ProposedPlan:
    """Everything discretize_proposed needs that depends on (A, S) and
    tau_zero only, never on the horizon: the real Schur form with the
    integrators reordered last, its blocks, u^-1 and half the transformed
    S, after guarding the spectra the block equations need apart; the
    augmented matrix of a11's exponential; the column-block matrices of
    the three Bartels-Stewart solves (sylv_blocks); and the integrator
    block's products A^i (S/2) (A^j)^T, after checking that it is
    nilpotent.  A model that fails a guard or the check raises here;
    ``reports`` evaluates horizons."""

    def __init__(self, m: ContinuousModel, tau_zero: float | None, key):
        self.key = key
        tau_default = tau_zero_default(m.a)
        if tau_zero is None:
            tau_zero = tau_default
        # shifted so that the integrators finish last: the reordering then
        # only classifies, unless rounding left one behind
        u, at, k = order_schur_zeros_last(*real_schur(m.a, tau_zero),
                                          tau_zero)
        a11 = np.ascontiguousarray(at[:k, :k])
        a22 = np.ascontiguousarray(at[k:, k:])
        # mirrored non-zero poles make the q11 Lyapunov solve singular, and
        # the f12 and q12 solves couple a11 with -a22 and with a22^T
        ev1, ev2 = quasi_tri_eigvalues(a11), quasi_tri_eigvalues(a22)
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
        self.a11, self.a12, self.a22 = a11, at[:k, k:], a22
        # the horizon-free parts of exp(at t): I @ a22, the first term of
        # the integrator block's series, and the identity ft adds back
        self.a22_once = np.eye(a22.shape[0], dtype=u.dtype) @ a22
        self.eye = np.eye(m.n, dtype=u.dtype)
        self.aug11 = _augmented(a11)
        # trsylv's (blocks, r) for the three solves, r quasi-lower
        # triangular: -a22 with its row and column order reversed (f12),
        # a22^T (q12) and a11^T (q11)
        self.f12_sylv, self.q12_sylv, self.q11_sylv = (
            (_kernels.sylv_blocks(a11, r), r) for r in map(
                np.ascontiguousarray, (-a22[::-1, ::-1], a22.T, a11.T)))
        # computed inverse rather than transpose: u is only orthogonal to
        # rounding, and the back-transform error is smaller with the inverse
        self.u_inv = np.linalg.inv(u)
        # the block equations carry V/2 and Q/2, V = S - F S F^T: for an
        # unstable drift V is about -2 Q and would overflow the width before
        # Q does; halving is exact, so no other bit changes
        self.st_half = m.dtype.type(0.5) * _sym(
            self.u_inv @ m.s @ self.u_inv.T)
        self.q22_terms = _nilpotent_terms(
            a22, np.ascontiguousarray(self.st_half[k:, k:]))

    def reports(self, ts) -> list:
        """discretize_proposed at every positive horizon of ts in one pass:
        entry i is the MethodReport at ts[i], or the SdeDiscError that
        horizon raised.  Each step is stacked over the horizons and makes,
        slice by slice, the products and solves of one horizon, so entry i
        is bit for bit what ts[i] alone gives; a horizon whose numbers
        overflow fails alone."""
        n, k = self.u.shape[0], self.k
        a11, a12, a22 = self.a11, self.a12, self.a22
        with np.errstate(over="ignore", invalid="ignore"):
            # assemble mt = exp(at * t) - I blockwise (the whole-matrix
            # exponential loses accuracy for large t * |A| through repeated
            # squaring; the coupling block follows from A f - f A = 0).  At
            # short horizons f is I plus small entries: st - f st f^T would
            # cancel their digits, while f - I keeps them.  f11 itself comes
            # from the exponential of aug11, with its integral g11.
            big, exp_ok = _mat_exp_many(self.aug11, ts)
            mt = np.zeros((len(ts), n, n), dtype=self.u.dtype)
            mt[:, :k, :k] = a11 @ big[:, :k, k:]
            mt[:, k:, k:] = _nilpotent_expm1(a22, self.a22_once, ts)
            # f12: a11 X - X a22 = c, solved as a11 Y - Y (J a22 J) = c J
            # with X = Y J, J the column reversal, so that trsylv's
            # coefficient is quasi-lower triangular for every integrator count
            c12 = mt[:, :k, :k] @ a12 - a12 @ mt[:, k:, k:]
            mt[:, :k, k:] = _kernels.trsylv(*self.f12_sylv,
                                            c12[..., ::-1])[..., ::-1]
            ft = mt + self.eye
            ft[:, :k, :k] = big[:, :k, :k]
            vt = _x_minus_fxft(mt, self.st_half)
            q22 = _nilpotent_sum(self.q22_terms, ts)
            rhs12 = -vt[:, :k, k:] - a12 @ q22
            q12 = _kernels.trsylv(*self.q12_sylv, rhs12)
            rhs11 = -vt[:, :k, :k] - a12 @ q12.mT - q12 @ a12.T
            q11 = _sym(_kernels.trsylv(*self.q11_sylv, rhs11))
            qt = np.empty_like(mt)
            qt[:, :k, :k] = q11
            qt[:, :k, k:] = q12
            qt[:, k:, :k] = q12.mT
            qt[:, k:, k:] = q22
            f = self.u @ ft @ self.u_inv
            # qt is Q/2 in Schur coordinates: Q = x + x^T is Q symmetrized
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


# the plan of the last model discretize_proposed saw; replaced, never
# mutated, so a call that reads it sees a whole plan
_last_plan = None


def _model_key(m: ContinuousModel) -> tuple:
    """The dtypes and bytes of a model's arrays: equal keys, equal models."""
    return (m.a.dtype, m.s.dtype, m.a.tobytes(), m.s.tobytes())


def _proposed_plan(m: ContinuousModel, tau_zero: float | None):
    """The kept plan if it was made for m and tau_zero, else a new one,
    which is then kept."""
    global _last_plan
    key = _model_key(m) + (tau_zero,)
    plan = _last_plan
    if plan is None or plan.key != key:
        plan = _last_plan = _ProposedPlan(m, tau_zero, key)
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
    the augmented matrix of a11, the solvers' column-block matrices, the
    integrator block's nilpotency check and noise products) is kept from
    the last call and reused when this call's model has byte-equal ``a``
    and ``s`` of the same dtypes and the same ``tau_zero``; any other
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
    g = _exp_and_integral(_augmented(m.a), t)[1]
    return _sym((g @ m.s @ g.T) / m.dtype.type(t))


def naive_q_b(m: ContinuousModel, t: float) -> np.ndarray:
    """Foil: continuous-time intensity rescaled by the interval, Q = T S."""
    t = _check_horizon(t)
    return m.s * m.dtype.type(t)


def q_oracle(m: ContinuousModel, t: float) -> np.ndarray:
    """Reference covariance by composite-trapezoid quadrature of
    f(tau) = exp(A tau) S exp(A^T tau) with interval doubling and
    Richardson extrapolation, always in binary64.  Each level gets f at its
    new nodes from the last level's node sum by the semigroup identity
    f(tau + h) = exp(A h) f(tau) exp(A h)^T.  The one-horizon case of
    _q_oracle_many, raising the error it reports."""
    (q,) = _q_oracle_many(m, (t,))
    return _unwrap(q)


def _q_oracle_many(m: ContinuousModel, ts) -> list:
    """q_oracle at every horizon of ts in one pass: entry i is Q at ts[i],
    or the SdeDiscError that horizon raised.  The horizons' Romberg tables
    advance in lockstep, one stacked exponential per level; each horizon
    keeps its own stop test and leaves the stack once it converges, stops
    at the noise floor or fails, so entry i is what q_oracle(m, ts[i])
    computes alone."""
    ts = [_check_horizon(t) for t in ts]
    a = np.ascontiguousarray(m.a, dtype=np.float64)
    s = np.ascontiguousarray(m.s, dtype=np.float64)
    n = m.n
    out = [np.zeros((n, n)) if t == 0.0 else None for t in ts]
    # the live horizons: their indices in ts, and the horizons themselves
    # as a (k, 1, 1) stack that scales the matching node sums
    live = [i for i, t in enumerate(ts) if t > 0.0]
    t_live = np.array([ts[i] for i in live]).reshape(-1, 1, 1)

    def exp_stack(h):
        """exp(A h) for the live steps h, and which slices are finite; an
        overflowed slice is its horizon's error and is replaced by 0."""
        e, ok = _mat_exp_many(a, h[:, 0, 0])
        ok = ok.tolist()
        for j, i in enumerate(live):
            if not ok[j]:
                out[i] = MatrixOverflowError(
                    f"exp(A h) overflowed binary64 at h = {h[j, 0, 0]:.3g} "
                    f"(horizon {ts[i]:.3g})")
                e[j] = 0.0
        return e, ok

    e_t, keep = exp_stack(t_live)
    # the trapezoid's endpoint correction: f(T) - f(0) halved
    ends = 0.5 * (e_t @ s @ e_t.mT - s)
    # left = sum_{i<2^level} f(i h), the trapezoid's nodes but the last
    left = np.repeat(s[None], len(live), axis=0)
    row = [t_live * (left + ends)]
    # rounding noise in the propagated nodes eventually dominates the
    # diagonal differences; past that point the best estimate so far is
    # the achievable answer, acceptable down to this relative level
    noise_floor = 1e-10
    best_diff = [math.inf] * len(live)
    best_est = [None] * len(live)
    worse_streak = [0] * len(live)
    for level in range(1, _ORACLE_MAX_DEPTH + 1):
        if not any(keep):
            break
        if not all(keep):
            # drop the horizons that finished or failed at the last level
            js = [j for j, k in enumerate(keep) if k]
            t_live, left, ends = t_live[js], left[js], ends[js]
            row = [r[js] for r in row]
            live, best_diff, best_est, worse_streak = (
                [x[j] for j in js]
                for x in (live, best_diff, best_est, worse_streak))
        h = t_live / 2.0 ** level
        e_h, keep = exp_stack(h)
        left = _kernels.propagated_outer_sum(left, e_h)
        new_row = [h * (left + ends)]
        weight = 1.0
        for prev in row:
            weight *= 4.0
            new_row.append((weight * new_row[-1] - prev) / (weight - 1.0))
        est, prev_est = new_row[-1], row[-1]
        row = new_row
        if level < 2:
            continue
        for j, i in enumerate(live):
            if not keep[j]:
                continue
            scale = max(float(np.linalg.norm(est[j])), _TINY)
            diff = float(np.linalg.norm(est[j] - prev_est[j])) / scale
            if diff <= _ORACLE_REL_TOL:
                out[i], keep[j] = _sym(est[j]), False
            elif diff < best_diff[j]:
                best_diff[j], best_est[j], worse_streak[j] = diff, est[j], 0
            elif diff > 2.0 * best_diff[j]:
                worse_streak[j] += 1
                if (worse_streak[j] >= 2 and level >= 6
                        and best_diff[j] <= noise_floor):
                    out[i], keep[j] = _sym(best_est[j]), False
    for j, i in enumerate(live):
        if not keep[j]:
            continue
        if best_diff[j] <= noise_floor:
            out[i] = _sym(best_est[j])
        else:
            out[i] = ConvergenceError(
                f"quadrature did not reach {_ORACLE_REL_TOL=:g} within "
                f"{_ORACLE_MAX_DEPTH} doublings (best {best_diff[j]:.2e})",
                sweeps=_ORACLE_MAX_DEPTH)
    return out


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


# reports of one model computed ahead by _reports_ahead: the model's key
# and {(method, t): MethodReport or error}, each handed out once by
# run_method; None outside the block
_ahead = None


@contextlib.contextmanager
def _reports_ahead(m: ContinuousModel, ts, methods):
    """Within the block, run_method(m, t, method) for a positive horizon t
    of ts and method proposed or vanloan returns, or raises, an entry
    computed here, where each of the two methods evaluates all of ts in
    one stacked pass.  Each entry is handed out once; a model that fails
    the proposed plan has that error at every horizon."""
    global _ahead
    stacked = {Method.PROPOSED: lambda: _proposed_plan(m, None).reports(ts),
               Method.VANLOAN: lambda: _vanloan_reports(m, ts)}
    entries = {}
    for method in stacked.keys() & set(methods):
        try:
            outs = stacked[method]()
        except (SdeDiscError, np.linalg.LinAlgError) as exc:
            outs = [exc] * len(ts)
        entries.update(((method, t), out) for t, out in zip(ts, outs))
    _ahead = (_model_key(m), entries)
    try:
        yield
    finally:
        _ahead = None


def run_method(m: ContinuousModel, t: float, method: Method) -> MethodReport:
    """Uniform dispatcher.  Foils and the oracle are wrapped into a
    MethodReport using the true transition matrix F = exp(A t).  Inside
    _reports_ahead for m, a cell computed ahead is handed out instead of
    computed again."""
    if not isinstance(method, Method):
        method = Method(method)
    ahead = _ahead
    if ahead is not None and ahead[0] == _model_key(m):
        out = ahead[1].pop((method, t), None)
        if out is not None:
            return _unwrap(out)
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
