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
    MatrixOverflowError,
    MethodNotApplicableError,
    NearSingularError,
    NilpotencyError,
    SdeDiscError,
    UnsupportedSpectrumError,
)
from .linalg import (
    _eig_sum_guard,
    _mat_exp_many,
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
    v = _x_minus_fxft(m.a @ g, m.s)
    q = _schur_lyapunov(u, ta, -v)
    return MethodReport(DiscreteModel(f, q, t), Method.LYAP_Q)


def q_nilpotent(a22: np.ndarray, s22: np.ndarray, t: float) -> np.ndarray:
    """Closed-form noise covariance for a nilpotent drift block:
    sum_{i,j<p} T^(i+j+1) / (i! j! (i+j+1)) * A^i S (A^j)^T.

    Raises NilpotencyError when |A^p| exceeds a tolerance that allows
    for the eps^(1/p) spread of a perturbed index-p chain."""
    return _nilpotent_sum(_nilpotent_terms(a22, s22), _check_horizon(t))


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


def _nilpotent_sum(terms: np.ndarray, t: float) -> np.ndarray:
    """q_nilpotent at horizon t from the products of _nilpotent_terms."""
    p = terms.shape[-1]
    q = np.zeros((p, p), dtype=terms.dtype)
    for i in range(p):
        for j in range(p):
            coef = t ** (i + j + 1) / (
                math.factorial(i) * math.factorial(j) * (i + j + 1))
            q = q + coef * terms[i * p + j]
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
    integrators reordered last, its blocks, u^-1 and the transformed S,
    after guarding the spectra the block equations need apart; the
    augmented matrix of a11's exponential; the column-block matrices of
    the three Bartels-Stewart solves (sylv_blocks); and the integrator
    block's products A^i S (A^j)^T, after checking that it is nilpotent.
    A model that fails a guard or the check raises here."""

    def __init__(self, m: ContinuousModel, tau_zero: float | None, key):
        self.key = key
        u0, t0 = real_schur(m.a)
        tau_default = tau_zero_default(m.a)
        if tau_zero is None:
            tau_zero = tau_default
        u, at, k = order_schur_zeros_last(u0, t0, tau_zero)
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
        self.st = _sym(self.u_inv @ m.s @ self.u_inv.T)
        self.q22_terms = _nilpotent_terms(
            a22, np.ascontiguousarray(self.st[k:, k:]))


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

    The work that does not depend on t (Schur form, reordering, guards,
    the augmented matrix of a11, the solvers' column-block matrices, the
    integrator block's nilpotency check and noise products) is kept from
    the last call and reused when this call's model has byte-equal ``a``
    and ``s`` of the same dtypes and the same ``tau_zero``; any other
    model, or an edit to the arrays in place, makes it factor afresh.  A
    call therefore evaluates only the horizon.  Results are the same
    either way."""
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
    f11, g11 = _exp_and_integral(plan.aug11, t)
    mt = np.zeros((n, n), dtype=m.dtype)
    mt[:k, :k] = a11 @ g11
    mt[k:, k:] = _nilpotent_expm1(a22, t)
    # f12: a11 X - X a22 = c, solved as a11 Y - Y (J a22 J) = c J with
    # X = Y J, J the column reversal, so that trsylv's coefficient is
    # quasi-lower triangular for every integrator count
    c12 = check_finite(mt[:k, :k] @ a12 - a12 @ mt[k:, k:], "sylvester c")
    mt[:k, k:] = _kernels.trsylv(*plan.f12_sylv, c12[:, ::-1])[:, ::-1]
    ft = mt + np.eye(n, dtype=m.dtype)
    ft[:k, :k] = f11
    vt = _x_minus_fxft(mt, st)
    q22 = _nilpotent_sum(plan.q22_terms, t)
    rhs12 = -vt[:k, k:] - a12 @ q22
    q12 = _kernels.trsylv(*plan.q12_sylv, check_finite(rhs12, "sylvester c"))
    rhs11 = -vt[:k, :k] - a12 @ q12.T - q12 @ a12.T
    q11 = _sym(_kernels.trsylv(*plan.q11_sylv,
                               check_finite(rhs11, "lyapunov c")))
    qt = np.empty((n, n), dtype=m.dtype)
    qt[:k, :k] = q11
    qt[:k, k:] = q12
    qt[k:, :k] = q12.T
    qt[k:, k:] = q22
    f = plan.u @ ft @ plan.u_inv
    q = _sym(plan.u @ qt @ plan.u.T)
    diag = {"split_index": float(k), "integrator_count": float(n - k)}
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
    return MethodReport(DiscreteModel(f, q, t), Method.VANLOAN)


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
    if isinstance(q, SdeDiscError):
        raise q
    return q


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
    ends = 0.5 * (e_t @ s @ np.swapaxes(e_t, 1, 2) - s)
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
