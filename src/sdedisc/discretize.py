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

import math

import numpy as np

from . import _kernels
from .errors import (
    ConvergenceError,
    MethodNotApplicableError,
    NearSingularError,
    NilpotencyError,
    UnsupportedSpectrumError,
)
from .linalg import (
    _eig_sum_guard,
    _schur_lyapunov,
    _sym,
    check_finite,
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


def _check_horizon(t: float) -> float:
    t = float(t)
    if not 0.0 <= t < math.inf:
        raise ValueError(f"sampling interval must be finite and >= 0, got {t}")
    return t


def _trivial_report(m: ContinuousModel, method: Method) -> MethodReport:
    n = m.n
    model = DiscreteModel(f=np.eye(n, dtype=m.dtype),
                          q=np.zeros((n, n), dtype=m.dtype), horizon=0.0)
    return MethodReport(model=model, method=method,
                        diagnostics={"sylvester_residual": 0.0,
                                     "lemma2_residual": 0.0})


def _sylv_residual(a, b, x, rhs) -> float:
    """Relative residual of a @ x + x @ b.T = rhs (b = a for Lyapunov).
    The floor is the width's smallest normal number, so that an empty or
    zero x gives 0 at binary32 too."""
    num = np.linalg.norm(a @ x + x @ b.T - rhs)
    den = (np.linalg.norm(a) + np.linalg.norm(b)) * np.linalg.norm(x)
    return float(num / (den + np.finfo(x.dtype).tiny))


def _exp_and_integral(a: np.ndarray, t: float):
    """(exp(a t), int_0^t exp(a tau) dtau) from one exponential of the
    augmented matrix [[a, I], [0, 0]] (Van Loan, 1978)."""
    n = a.shape[0]
    big = mat_exp(np.block([[a, np.eye(n, dtype=a.dtype)],
                            [np.zeros((n, 2 * n), dtype=a.dtype)]]), t)
    return big[:n, :n], big[:n, n:]


def _x_minus_fxft(fm1: np.ndarray, x: np.ndarray) -> np.ndarray:
    """x - f x f^T for symmetric x, from fm1 = f - I without subtracting
    nearly equal terms: -(w + w^T) - w fm1^T with w = fm1 x."""
    w = fm1 @ x
    return _sym(-(w + w.T) - w @ fm1.T)


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
    f, g = _exp_and_integral(m.a, t)
    q = _x_minus_fxft(m.a @ g, p)
    diag = {
        "sylvester_residual": _sylv_residual(m.a, m.a, p, -m.s),
        "lemma2_residual": lemma2_residual(m, f, q),
    }
    return MethodReport(DiscreteModel(f, q, t), Method.LYAP_P, diag)


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
    f, g = _exp_and_integral(m.a, t)
    v = _x_minus_fxft(m.a @ g, m.s)
    q = _schur_lyapunov(u, ta, -v)
    diag = {
        "sylvester_residual": _sylv_residual(m.a, m.a, q, -v),
        "lemma2_residual": lemma2_residual(m, f, q),
    }
    return MethodReport(DiscreteModel(f, q, t), Method.LYAP_Q, diag)


def q_nilpotent(a22: np.ndarray, s22: np.ndarray, t: float) -> np.ndarray:
    """Closed-form noise covariance for a nilpotent drift block:
    sum_{i,j<p} T^(i+j+1) / (i! j! (i+j+1)) * A^i S (A^j)^T.

    Raises NilpotencyError when |A^p| exceeds a tolerance that allows
    for the eps^(1/p) spread of a perturbed index-p chain."""
    a22 = check_square(a22, "nilpotent block")
    s22 = check_square(s22, "nilpotent noise block")
    if s22.shape != a22.shape:
        raise ValueError("drift and noise blocks must have equal shape")
    t = _check_horizon(t)
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
    q = np.zeros((p, p), dtype=a22.dtype)
    for i in range(p):
        for j in range(p):
            coef = t ** (i + j + 1) / (
                math.factorial(i) * math.factorial(j) * (i + j + 1))
            q = q + coef * (powers[i] @ s22 @ powers[j].T)
    return _sym(q)


def _nilpotent_expm1(a22: np.ndarray, t: float) -> np.ndarray:
    """exp(A t) - I for a nilpotent block as the terminating power series."""
    p = a22.shape[0]
    term = np.eye(p, dtype=a22.dtype)
    acc = np.zeros((p, p), dtype=a22.dtype)
    for i in range(1, p):
        term = (term @ a22) * (t / i)
        acc = acc + term
    return acc


class _ProposedPlan:
    """Everything discretize_proposed needs that depends on (A, S) and
    tau_zero only, never on the horizon: the real Schur form with the
    integrators reordered last, its blocks and the triangular coefficients
    of the three block equations, u^-1, and the transformed S, after
    guarding the spectra those equations need apart."""

    def __init__(self, m: ContinuousModel, tau_zero: float | None, key):
        self.key = key
        u0, t0 = real_schur(m.a)
        if tau_zero is None:
            tau_zero = tau_zero_default(m.a)
        u, at, k = order_schur_zeros_last(u0, t0, tau_zero)
        a11 = np.ascontiguousarray(at[:k, :k])
        a22 = np.ascontiguousarray(at[k:, k:])
        # mirrored non-zero poles make the q11 Lyapunov solve singular;
        # fail fast with a spectrum diagnosis
        ev1 = quasi_tri_eigvalues(a11)
        try:
            _eig_sum_guard(ev1, ev1,
                           200.0 * eps_of(m.a) * float(np.linalg.norm(m.a)))
        except NearSingularError as exc:
            i, j = exc.pair
            raise UnsupportedSpectrumError(
                f"non-zero poles mirrored in the imaginary axis: "
                f"{i:.3e} and {j:.3e}") from exc
        # the f12 and q12 solves couple a11 with -a22 and with a22^T
        ev2 = quasi_tri_eigvalues(a22)
        try:
            _eig_sum_guard(ev1, np.concatenate([-ev2, ev2]),
                           100.0 * eps_of(m.a) * float(np.linalg.norm(a11)
                                                       + np.linalg.norm(a22)))
        except NearSingularError as exc:
            raise UnsupportedSpectrumError(
                f"proposed method not applicable: {exc}") from exc
        self.u, self.k = u, k
        self.a11, self.a12, self.a22 = a11, at[:k, k:], a22
        # quasi-lower triangular coefficients for trsylv: a11^T, a22^T, and
        # -a22 with its row and column order reversed
        self.a11_t = np.ascontiguousarray(a11.T)
        self.a22_t = np.ascontiguousarray(a22.T)
        self.neg_a22_rev = np.ascontiguousarray(-a22[::-1, ::-1])
        # computed inverse rather than transpose: u is only orthogonal to
        # rounding, and the back-transform error is smaller with the inverse
        self.u_inv = np.linalg.inv(u)
        self.st = _sym(self.u_inv @ m.s @ self.u_inv.T)
        self.s22 = np.ascontiguousarray(self.st[k:, k:])


# the plan of the last model discretize_proposed saw; replaced, never
# mutated, so a call that reads it sees a whole plan
_last_plan = None


def discretize_proposed(m: ContinuousModel, t: float,
                        tau_zero: float | None = None) -> MethodReport:
    """Combined method: Schur-reorder integrators into the trailing block,
    solve that block in closed form, the rest via Sylvester/Lyapunov
    equations, and transform back.

    One block formula for every integrator count: the leading block a11
    is 0 x 0 when every eigenvalue is an integrator, and the trailing
    block a22 is 0 x 0 when there are none.

    The work that does not depend on t (Schur form, reordering, guards)
    is kept from the last call and reused when this call's model has
    byte-equal ``a`` and ``s`` of the same dtypes and the same
    ``tau_zero``; any other model, or an edit to the arrays in place,
    makes it factor afresh.  Results are the same either way."""
    global _last_plan
    t = _check_horizon(t)
    if tau_zero is not None and not tau_zero >= 0.0:
        raise ValueError(f"tau_zero must be >= 0 or None, got {tau_zero}")
    if t == 0.0:
        return _trivial_report(m, Method.PROPOSED)
    key = (m.a.dtype, m.s.dtype, m.a.tobytes(), m.s.tobytes(), tau_zero)
    plan = _last_plan
    if plan is None or plan.key != key:
        plan = _last_plan = _ProposedPlan(m, tau_zero, key)
    n, k = m.n, plan.k
    a11, a12, a22, st = plan.a11, plan.a12, plan.a22, plan.st
    # assemble mt = exp(at * t) - I blockwise (the whole-matrix exponential
    # loses accuracy for large t * |A| through repeated squaring; the
    # coupling block follows from A f - f A = 0).  At short horizons f is I
    # plus small entries: st - f st f^T would cancel their digits, while
    # f - I keeps them.  f11 itself comes from the exponential.
    f11, g11 = _exp_and_integral(a11, t)
    mt = np.zeros((n, n), dtype=m.dtype)
    mt[:k, :k] = a11 @ g11
    mt[k:, k:] = _nilpotent_expm1(a22, t)
    # f12: a11 X - X a22 = c, solved as a11 Y - Y (J a22 J) = c J with
    # X = Y J, J the column reversal, so that trsylv's coefficient is
    # quasi-lower triangular for every integrator count
    c12 = check_finite(mt[:k, :k] @ a12 - a12 @ mt[k:, k:], "sylvester c")
    mt[:k, k:] = _kernels.trsylv(a11, plan.neg_a22_rev,
                                 c12[:, ::-1])[:, ::-1]
    ft = mt + np.eye(n, dtype=m.dtype)
    ft[:k, :k] = f11
    vt = _x_minus_fxft(mt, st)
    q22 = q_nilpotent(a22, plan.s22, t)
    rhs12 = -vt[:k, k:] - a12 @ q22
    q12 = _kernels.trsylv(a11, plan.a22_t, check_finite(rhs12, "sylvester c"))
    rhs11 = -vt[:k, :k] - a12 @ q12.T - q12 @ a12.T
    q11 = _sym(_kernels.trsylv(a11, plan.a11_t,
                               check_finite(rhs11, "lyapunov c")))
    qt = np.empty((n, n), dtype=m.dtype)
    qt[:k, :k] = q11
    qt[:k, k:] = q12
    qt[k:, :k] = q12.T
    qt[k:, k:] = q22
    f = plan.u @ ft @ plan.u_inv
    q = _sym(plan.u @ qt @ plan.u.T)
    diag = {
        "split_index": float(k),
        "integrator_count": float(n - k),
        "sylvester_residual": max(_sylv_residual(a11, a22, q12, rhs12),
                                  _sylv_residual(a11, a11, q11, rhs11)),
        "lemma2_residual": lemma2_residual(m, f, q),
    }
    return MethodReport(DiscreteModel(f, q, t), Method.PROPOSED, diag)


def discretize_vanloan(m: ContinuousModel, t: float) -> MethodReport:
    """Van Loan's method: one exponential of [[A, S], [0, -A^T]].

    For large t * |Re(lambda)| the lower-right block grows like
    exp(+|lambda| t); the exponential then loses all accuracy or
    overflows, which is surfaced as MatrixOverflowError."""
    t = _check_horizon(t)
    if t == 0.0:
        return _trivial_report(m, Method.VANLOAN)
    n = m.n
    h = np.zeros((2 * n, 2 * n), dtype=m.dtype)
    h[:n, :n] = m.a
    h[:n, n:] = m.s
    h[n:, n:] = -m.a.T
    big = mat_exp(h, t)
    f = np.ascontiguousarray(big[:n, :n])
    q = _sym(big[:n, n:] @ f.T)
    diag = {"lemma2_residual": lemma2_residual(m, f, q)}
    return MethodReport(DiscreteModel(f, q, t), Method.VANLOAN, diag)


def naive_q_a(m: ContinuousModel, t: float) -> np.ndarray:
    """Foil: noise held constant over the interval,
    Q = (1/T) G S G^T with G = int_0^T exp(A tau) dtau."""
    t = _check_horizon(t)
    if t == 0.0:
        raise ValueError("naive_q_a requires t > 0")
    g = _exp_and_integral(m.a, t)[1]
    return _sym((g @ m.s @ g.T) / m.dtype.type(t))


def naive_q_b(m: ContinuousModel, t: float) -> np.ndarray:
    """Foil: continuous-time intensity rescaled by the interval, Q = T S."""
    t = _check_horizon(t)
    return m.s * m.dtype.type(t)


def q_oracle(m: ContinuousModel, t: float,
             rel_tol: float = 1e-12) -> np.ndarray:
    """Reference covariance by composite-trapezoid quadrature of
    f(tau) = exp(A tau) S exp(A^T tau) with interval doubling and
    Richardson extrapolation, always in binary64.  Each level gets f at its
    new nodes from the last level's node sum by the semigroup identity
    f(tau + h) = exp(A h) f(tau) exp(A h)^T."""
    t = _check_horizon(t)
    if not 0.0 < rel_tol < math.inf:
        raise ValueError(f"rel_tol must be positive and finite, got {rel_tol}")
    a = np.ascontiguousarray(m.a, dtype=np.float64)
    s = np.ascontiguousarray(m.s, dtype=np.float64)
    n = m.n
    if t == 0.0:
        return np.zeros((n, n))
    e_t = mat_exp(a, t)
    # the trapezoid's endpoint correction: f(T) - f(0) halved
    ends = 0.5 * (e_t @ s @ e_t.T - s)
    # left = sum_{i<2^level} f(i h), the trapezoid's nodes but the last
    left = s
    row = [t * (left + ends)]
    # rounding noise in the propagated nodes eventually dominates the
    # diagonal differences; past that point the best estimate so far is
    # the achievable answer, acceptable down to this relative level
    noise_floor = 1e-10
    best_diff, best_est, worse_streak = math.inf, None, 0
    for level in range(1, _ORACLE_MAX_DEPTH + 1):
        h = t / 2.0 ** level
        left = _kernels.propagated_outer_sum(left, mat_exp(a, h))
        new_row = [h * (left + ends)]
        weight = 1.0
        for prev in row:
            weight *= 4.0
            new_row.append((weight * new_row[-1] - prev) / (weight - 1.0))
        est, prev_est = new_row[-1], row[-1]
        row = new_row
        if level >= 2:
            scale = max(float(np.linalg.norm(est)), _TINY)
            diff = float(np.linalg.norm(est - prev_est)) / scale
            if diff <= rel_tol:
                return _sym(est)
            if diff < best_diff:
                best_diff, best_est, worse_streak = diff, est, 0
            elif diff > 2.0 * best_diff:
                worse_streak += 1
                if (worse_streak >= 2 and level >= 6
                        and best_diff <= noise_floor):
                    return _sym(best_est)
    if best_diff <= noise_floor:
        return _sym(best_est)
    raise ConvergenceError(
        f"quadrature did not reach rel_tol={rel_tol:g} within "
        f"{_ORACLE_MAX_DEPTH} doublings (best {best_diff:.2e})",
        sweeps=_ORACLE_MAX_DEPTH)


def lemma2_residual(m: ContinuousModel, f: np.ndarray,
                    q: np.ndarray) -> float:
    """Universal correctness certificate: the exact covariance satisfies
    A Q + Q A^T = -S + F S F^T for any A (stable or not).  Returns the
    relative spectral-norm defect."""
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


def run_method(m: ContinuousModel, t: float, method: Method,
               oracle_tol: float = 1e-12,
               tau_zero: float | None = None) -> MethodReport:
    """Uniform dispatcher.  Foils and the oracle are wrapped into a
    MethodReport using the true transition matrix F = exp(A t)."""
    if not isinstance(method, Method):
        method = Method(method)
    if method is Method.LYAP_P:
        return discretize_lyap_p(m, t)
    if method is Method.LYAP_Q:
        return discretize_lyap_q(m, t)
    if method is Method.PROPOSED:
        return discretize_proposed(m, t, tau_zero=tau_zero)
    if method is Method.VANLOAN:
        return discretize_vanloan(m, t)
    t = _check_horizon(t)
    if method in (Method.NAIVE_A, Method.NAIVE_B):
        if t == 0.0:
            return _trivial_report(m, method)
        q = naive_q_a(m, t) if method is Method.NAIVE_A else naive_q_b(m, t)
        f = mat_exp(m.a, t)
        diag = {"lemma2_residual": lemma2_residual(m, f, q)}
        return MethodReport(DiscreteModel(f, q, t), method, diag)
    if method is Method.ORACLE:
        if t == 0.0:
            return _trivial_report(m, method)
        q = q_oracle(m, t, rel_tol=oracle_tol)
        f = mat_exp(m.a.astype(np.float64), t)
        diag = {"lemma2_residual": lemma2_residual(m, f, q)}
        return MethodReport(DiscreteModel(f, q, t), method, diag)
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
