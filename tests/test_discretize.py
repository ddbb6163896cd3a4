"""Discretization method tests: closed forms, cross-method agreement,
invariant certificates, and failure modes."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sdedisc import _kernels, discretize, linalg
from sdedisc.bench import default_t_grid
from sdedisc.errors import (MatrixOverflowError, MethodNotApplicableError,
                            NilpotencyError, NonFiniteError,
                            UnsupportedSpectrumError)
from sdedisc.models import (ContinuousModel, DiscreteModel, Method,
                            EXACT_METHODS)
from sdedisc.modelgen import (EnsembleSpec, gen_random_system,
                              constant_velocity, observer_canonical)
from sdedisc.discretize import (discretize_lyap_p, discretize_lyap_q,
                                discretize_proposed, discretize_vanloan,
                                naive_q_a, naive_q_b, q_oracle, q_nilpotent,
                                run_method, lemma2_residual,
                                semigroup_residual)
from sdedisc.linalg import mat_exp, solve_lyapunov, spectral_norm


SCALAR = ContinuousModel(np.array([[-1.0]]), np.array([[2.0]]))


def rel_err(got, want):
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    return spectral_norm(got - want) / max(spectral_norm(want), 1e-300)


def cv_reference(t):
    f = np.array([[1.0, t], [0.0, 1.0]])
    q = np.array([[t ** 3 / 3, t ** 2 / 2], [t ** 2 / 2, t]])
    return f, q


# --------------------------------------------------------- scalar golden


@pytest.mark.parametrize("method", list(EXACT_METHODS))
def test_scalar_closed_form(method):
    # A = -1, S = 2: Q_T = 1 - exp(-2T)
    t = 1.0
    report = run_method(SCALAR, t, method)
    assert report.model.q[0, 0] == pytest.approx(1.0 - math.exp(-2.0),
                                                 rel=1e-11)
    assert report.model.f[0, 0] == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_scalar_unstable_lyap_q():
    m = ContinuousModel(np.array([[1.0]]), np.array([[2.0]]))
    report = discretize_lyap_q(m, 1.0)
    assert report.model.q[0, 0] == pytest.approx(math.exp(2.0) - 1.0,
                                                 rel=1e-12)


def test_scalar_unstable_lyap_p_not_applicable():
    m = ContinuousModel(np.array([[1.0]]), np.array([[2.0]]))
    with pytest.raises(MethodNotApplicableError):
        discretize_lyap_p(m, 1.0)


# --------------------------------------------------- constant velocity


@pytest.mark.parametrize("t", [0.1, 1.0, 2.0, 10.0])
def test_constant_velocity_closed_form(t):
    cv = constant_velocity()
    fref, qref = cv_reference(t)
    for method in (Method.PROPOSED, Method.VANLOAN, Method.ORACLE):
        report = run_method(cv, t, method)
        assert rel_err(report.model.q, qref) < 1e-12
        assert rel_err(report.model.f, fref) < 1e-12


def test_constant_velocity_lyap_methods_not_applicable():
    cv = constant_velocity()
    with pytest.raises(MethodNotApplicableError):
        discretize_lyap_p(cv, 1.0)
    with pytest.raises(MethodNotApplicableError):
        discretize_lyap_q(cv, 1.0)


def test_integer_constant_velocity_model():
    # integer matrices become float64 on construction, so the methods that
    # read the width (np.finfo) work on them as on float input
    cv = ContinuousModel(np.array([[0, 1], [0, 0]]),
                         np.array([[0, 0], [0, 1]]))
    assert cv.a.dtype == cv.s.dtype == np.float64
    _, qref = cv_reference(1.0)
    assert rel_err(discretize_proposed(cv, 1.0).model.q, qref) < 1e-12
    for method in (discretize_lyap_p, discretize_lyap_q):
        with pytest.raises(MethodNotApplicableError):
            method(cv, 1.0)


def test_proposed_reports_integrator_count():
    for width in (np.float64, np.float32):
        report = discretize_proposed(constant_velocity().astype(width), 1.0)
        assert report.diagnostics["integrator_count"] == 2.0
        assert report.diagnostics["split_index"] == 0.0


# ---------------------------------------------------------- t = 0 and t


@pytest.mark.parametrize("method", list(Method))
def test_zero_horizon_is_identity_and_zero(method):
    if method is Method.NAIVE_A:
        return  # naive_q_a divides by t; dispatcher handles t=0 below
    report = run_method(SCALAR, 0.0, method)
    assert np.array_equal(report.model.f, np.eye(1))
    assert np.array_equal(report.model.q, np.zeros((1, 1)))


HORIZON_TAKERS = {
    "discretize_lyap_p": lambda t: discretize_lyap_p(SCALAR, t),
    "discretize_lyap_q": lambda t: discretize_lyap_q(SCALAR, t),
    "discretize_proposed": lambda t: discretize_proposed(SCALAR, t),
    "discretize_vanloan": lambda t: discretize_vanloan(SCALAR, t),
    "naive_q_a": lambda t: naive_q_a(SCALAR, t),
    "naive_q_b": lambda t: naive_q_b(SCALAR, t),
    "q_oracle": lambda t: q_oracle(SCALAR, t),
    "q_nilpotent": lambda t: q_nilpotent(np.zeros((1, 1)), np.eye(1), t),
    "run_method": lambda t: run_method(SCALAR, t, Method.ORACLE),
    "semigroup_residual": lambda t: semigroup_residual(
        SCALAR, Method.PROPOSED, 1.0, t),
}


@pytest.mark.parametrize("t", [-1.0, math.nan, math.inf])
@pytest.mark.parametrize("func", list(HORIZON_TAKERS))
def test_bad_horizon_rejected(func, t):
    with pytest.raises(ValueError, match="sampling interval"):
        HORIZON_TAKERS[func](t)


@pytest.mark.parametrize("method", list(Method))
def test_empty_model_gives_empty_f_and_q(method):
    # an empty spectrum is vacuously stable, so lyap-p applies as well
    empty = ContinuousModel(np.zeros((0, 0)), np.zeros((0, 0)))
    report = run_method(empty, 1.0, method)
    assert report.model.f.shape == report.model.q.shape == (0, 0)


@pytest.mark.parametrize("tau_zero", [math.nan, -1.0])
def test_bad_tau_zero_rejected(tau_zero):
    m = constant_velocity()
    with pytest.raises(ValueError, match="tau_zero"):
        discretize_proposed(m, 1.0, tau_zero=tau_zero)


def test_tau_zero_bounds_accepted():
    # no eigenvalue modulus is <= 0 here, and every one is <= inf
    report = discretize_proposed(stable_system(0), 1.0, tau_zero=0.0)
    assert report.diagnostics["integrator_count"] == 0.0
    report = discretize_proposed(constant_velocity(), 1.0, tau_zero=math.inf)
    assert report.diagnostics["integrator_count"] == 2.0
    assert rel_err(report.model.q, cv_reference(1.0)[1]) < 1e-15


@pytest.mark.parametrize("tau_zero", [0.0, 1e-8])
def test_small_tau_zero_blamed_for_leftover_integrators(tau_zero):
    # the rounding spread of the integrator pair (1.8e-8) is above these
    # thresholds, so the pair stays in the leading block and trips a guard
    with pytest.raises(UnsupportedSpectrumError, match="tau_zero"):
        discretize_proposed(mixed_system(0), 1.0, tau_zero=tau_zero)


# ------------------------------------------------------------ nilpotent


def test_q_nilpotent_single_integrator():
    got = q_nilpotent(np.array([[0.0]]), np.array([[3.0]]), 2.0)
    assert got[0, 0] == pytest.approx(6.0)


def test_q_nilpotent_two_chain_matches_closed_form():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    s = np.array([[0.0, 0.0], [0.0, 1.0]])
    t = 1.7
    _, qref = cv_reference(t)
    assert rel_err(q_nilpotent(a, s, t), qref) < 1e-15


def test_q_nilpotent_rejects_non_nilpotent():
    with pytest.raises(NilpotencyError):
        q_nilpotent(np.array([[1.0]]), np.array([[1.0]]), 1.0)


# -------------------------------------------------- cross-method checks


def stable_system(stream):
    return gen_random_system(EnsembleSpec(n=6, m=6, p=0, seed=100),
                             stream=stream)


def mixed_system(stream):
    return gen_random_system(EnsembleSpec(n=6, m=4, p=2, seed=100),
                             stream=stream)


@pytest.mark.parametrize("stream", range(5))
def test_stable_methods_agree(stream):
    m = stable_system(stream)
    t = 0.8
    qs = {meth: run_method(m, t, meth).model.q
          for meth in (Method.LYAP_P, Method.LYAP_Q, Method.PROPOSED,
                       Method.VANLOAN)}
    q_ref = q_oracle(m, t)
    for meth, q in qs.items():
        assert rel_err(q, q_ref) < 1e-9, meth


@pytest.mark.parametrize("stream", range(5))
def test_integrator_proposed_matches_oracle(stream):
    m = mixed_system(stream)
    for t in (0.1, 1.0, 10.0):
        report = discretize_proposed(m, t)
        assert rel_err(report.model.q, q_oracle(m, t)) < 1e-8
        assert rel_err(report.model.f, mat_exp(m.a, t)) < 1e-10


def test_integrator_lyap_q_not_applicable():
    with pytest.raises(MethodNotApplicableError):
        discretize_lyap_q(mixed_system(0), 1.0)


def test_observer_canonical_proposed_matches_oracle():
    m = observer_canonical([3.0, 2.0], [1.0, 0.5], p=2)
    report = discretize_proposed(m, 1.5)
    assert report.diagnostics["integrator_count"] == 2.0
    assert rel_err(report.model.q, q_oracle(m, 1.5)) < 1e-9


def test_mirrored_poles_unsupported_by_proposed():
    a = np.diag([1.0, -1.0])
    m = ContinuousModel(a, np.eye(2))
    with pytest.raises((UnsupportedSpectrumError, MethodNotApplicableError)):
        discretize_proposed(m, 1.0)
    # the quadrature oracle still works there
    q = q_oracle(m, 1.0)
    assert q[0, 0] == pytest.approx((math.exp(2.0) - 1.0) / 2.0, rel=1e-10)


def test_coupled_poles_unsupported_by_proposed():
    # tau_zero = 1 splits -(1 + 2 eps) from +1: the leading and trailing
    # blocks then hold poles that sum to ~0, and f12 and q12 are singular
    a = np.diag([-(1.0 + 2 * np.finfo(float).eps), 1.0])
    m = ContinuousModel(a, np.eye(2))
    with pytest.raises(UnsupportedSpectrumError, match="not applicable"):
        discretize_proposed(m, 1.0, tau_zero=1.0)


# ----------------------------------------------------------- stationary


def test_lyap_p_reaches_stationary_covariance():
    m = stable_system(7)
    p = solve_lyapunov(m.a, -m.s)
    t = 150.0  # exp(A t) is negligible here
    report = discretize_lyap_p(m, t)
    assert rel_err(report.model.q, p) < 1e-9


# ------------------------------------------------------------ van loan


def test_vanloan_float32_overflows_at_large_horizon():
    m = stable_system(3).astype(np.float32)
    with pytest.raises(MatrixOverflowError):
        discretize_vanloan(m, 100.0)


def test_vanloan_float32_non_finite_q_raises():
    # exp(46) fits binary32 but the product forming Q, about exp(92) / 2,
    # does not; the exponential itself stays finite
    m = ContinuousModel(np.array([[1.0]], dtype=np.float32),
                        np.array([[1.0]], dtype=np.float32))
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
        discretize_vanloan(m, 46.0)


def test_vanloan_float32_q_near_the_width_maximum():
    # Q = (exp(89) - 1) / 2 = 2.24e38 fits binary32, but 2 Q does not, so
    # making Q symmetric must not form Q + Q^T
    m = ContinuousModel(np.array([[1.0]], dtype=np.float32),
                        np.array([[1.0]], dtype=np.float32))
    q = discretize_vanloan(m, 44.5).model.q
    assert float(q[0, 0]) == pytest.approx(math.expm1(89.0) / 2.0, rel=1e-5)


@pytest.mark.parametrize("method", [discretize_proposed, discretize_lyap_q,
                                    discretize_vanloan])
def test_float32_q_at_the_width_maximum_fits_or_raises(method):
    # V = S - F S F^T = 1 - exp(2 T) is about -2 Q: at T = 44.5 Q fits
    # binary32 and V does not, so the solves must carry V/2
    m = ContinuousModel(np.array([[1.0]], dtype=np.float32),
                        np.array([[1.0]], dtype=np.float32))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q = method(m, 44.5).model.q
        assert float(q[0, 0]) == pytest.approx(math.expm1(89.0) / 2.0,
                                               rel=1e-5)
        # at T = 45 Q = 6.1e38 does not fit: the typed error, no warning
        with pytest.raises(NonFiniteError):
            method(m, 45.0)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_discrete_model_rejects_non_finite(bad):
    good = np.eye(2)
    worse = np.array([[1.0, bad], [0.0, 1.0]])
    with pytest.raises(NonFiniteError, match="discrete model f"):
        DiscreteModel(worse, good, 1.0)
    with pytest.raises(NonFiniteError, match="discrete model q"):
        DiscreteModel(good, worse, 1.0)
    DiscreteModel(good, good, 1.0)


# ---------------------------------------------------------------- foils


def test_naive_b_is_linear_in_t():
    got = naive_q_b(SCALAR, 2.5)
    assert got[0, 0] == pytest.approx(5.0)


def test_naive_foils_violate_semigroup():
    assert semigroup_residual(SCALAR, Method.NAIVE_B, 1.0, 1.0) > 0.1
    assert semigroup_residual(SCALAR, Method.NAIVE_A, 1.0, 1.0) > 0.01


def test_exact_methods_satisfy_semigroup():
    m = mixed_system(2)
    for meth in (Method.PROPOSED, Method.VANLOAN):
        assert semigroup_residual(m, meth, 0.7, 0.7) < 1e-9


def test_naive_a_between_endpoints():
    # the held-noise foil is wrong but finite and PSD
    q = naive_q_a(SCALAR, 1.0)
    assert 0.0 < q[0, 0] < 2.0


# --------------------------------------------------------------- oracle


def test_q_oracle_scalar_closed_form():
    for t in (0.01, 1.0, 25.0):
        got = q_oracle(SCALAR, t)[0, 0]
        assert got == pytest.approx(1.0 - math.exp(-2.0 * t), rel=1e-11)


def test_q_oracle_symmetric_output():
    m = mixed_system(4)
    q = q_oracle(m, 3.0)
    assert np.array_equal(q, q.T)


# ----------------------------------------------------------- residuals


def test_lemma2_residual_detects_wrong_q():
    f, qref = cv_reference(1.0)
    cv = constant_velocity()
    assert lemma2_residual(cv, f, qref) < 1e-14
    assert lemma2_residual(cv, f, 2.0 * qref) > 1e-3


def test_reports_carry_lemma2_residual():
    for meth in EXACT_METHODS:
        report = run_method(SCALAR, 1.0, meth)
        assert lemma2_residual(SCALAR, report.model.f, report.model.q) < 1e-12


# ------------------------------------------------------ short horizons


def scipy_vanloan_q(m, t):
    """Binary64 Q from one scipy.linalg.expm of [[A, S], [0, -A^T]] T: an
    independent reference, accurate at short horizons."""
    expm = pytest.importorskip("scipy.linalg").expm
    n = m.n
    h = np.zeros((2 * n, 2 * n))
    h[:n, :n], h[:n, n:], h[n:, n:] = m.a, m.s, -m.a.T
    big = expm(h * t)
    q = big[:n, n:] @ big[:n, :n].T
    return (q + q.T) / 2.0


def scipy_doubling_q(m, t):
    """Binary64 Q by one scipy Van Loan step at h with ||A||_1 h <= 0.5,
    carried to T by Q(2h) = F(h) Q(h) F(h)^T + Q(h) with a fresh
    F(h) = expm(A h) at each doubling."""
    expm = pytest.importorskip("scipy.linalg").expm
    norm1 = float(np.abs(m.a).sum(axis=0).max())
    doublings = math.ceil(math.log2(norm1 * t / 0.5)) \
        if norm1 * t > 0.5 else 0
    h = t / 2.0 ** doublings
    q = scipy_vanloan_q(m, h)
    for _ in range(doublings):
        f = expm(m.a * h)
        q = f @ q @ f.T + q
        q = (q + q.T) / 2.0
        h *= 2.0
    return q


@pytest.mark.parametrize("m", [
    gen_random_system(EnsembleSpec(6, 4, 2, seed=1)),
    gen_random_system(EnsembleSpec(6, 6, 0, seed=2)),
    gen_random_system(EnsembleSpec(16, 14, 2, seed=3)),
    gen_random_system(EnsembleSpec(6, 3, 3, seed=0)),
    ContinuousModel(np.array([[0.1, 1.0], [0.0, -0.5]]), np.eye(2)),
], ids=["n6-p2", "n6-p0", "n16-p2", "n6-p3", "unstable-2"])
def test_q_oracle_matches_scipy_doubling(m):
    for t in (1e-4, 1e-2, 1.0, 10.0, 100.0):
        assert rel_err(q_oracle(m, t), scipy_doubling_q(m, t)) < 1e-8, t


@pytest.mark.parametrize("seed", range(5))
def test_q_oracle_many_is_q_oracle_per_horizon(seed):
    m = gen_random_system(EnsembleSpec(6, 4, 2, seed=seed), stream=0)
    grid = default_t_grid()
    for t, q in zip(grid, discretize._q_oracle_many(m, grid)):
        assert q.tobytes() == q_oracle(m, t).tobytes(), t


def test_q_oracle_many_isolates_failures():
    # exp(10 T) overflows binary64 at T = 100 but not at T = 1
    m = ContinuousModel(np.array([[10.0]]), np.array([[1.0]]))
    q1, q100 = discretize._q_oracle_many(m, (1.0, 100.0))
    assert isinstance(q100, MatrixOverflowError)
    assert q1.tobytes() == q_oracle(m, 1.0).tobytes()
    assert q1[0, 0] == pytest.approx(math.expm1(20.0) / 20.0, rel=1e-11)
    with pytest.raises(MatrixOverflowError):
        q_oracle(m, 100.0)
    q0, q2 = discretize._q_oracle_many(m, (0.0, 2.0))
    assert q0.tolist() == [[0.0]]
    assert q2.tobytes() == q_oracle(m, 2.0).tobytes()
    assert discretize._q_oracle_many(m, ()) == []
    # the failed horizon's inf and 0 entries leave no NaN warning behind
    m2 = ContinuousModel(np.diag([10.0, -1.0]), np.eye(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q1, q100 = discretize._q_oracle_many(m2, (1.0, 100.0))
    assert isinstance(q100, MatrixOverflowError)
    assert q1.tobytes() == q_oracle(m2, 1.0).tobytes()


def test_q_oracle_converges_on_seed_840():
    # summed node by node, the best Richardson difference stayed at
    # 1.01e-10, just above the noise floor, through all 24 levels
    m = gen_random_system(EnsembleSpec(6, 4, 2, seed=840), stream=0)
    assert rel_err(q_oracle(m, 100.0), scipy_doubling_q(m, 100.0)) < 1e-8


@pytest.mark.parametrize("method, spec", [
    (discretize_proposed, EnsembleSpec(6, 4, 2, seed=1)),
    (discretize_proposed, EnsembleSpec(16, 14, 2, seed=3)),
    (discretize_lyap_p, EnsembleSpec(6, 6, 0, seed=1)),
    (discretize_lyap_p, EnsembleSpec(16, 16, 0, seed=3)),
    (discretize_lyap_q, EnsembleSpec(16, 16, 0, seed=3)),
], ids=["proposed-6", "proposed-16", "lyap_p-6", "lyap_p-16", "lyap_q-16"])
def test_short_horizon_q_without_cancellation(method, spec):
    # S - F S F^T cancels its leading digits when T |A| << 1, an error
    # growing like eps / T (7.8e-11 to 6.3e-10 here at T = 1e-6); formed
    # from F - I it does not, so Q keeps its accuracy as T shrinks
    m = gen_random_system(spec)
    for t in (1e-6, 1e-4, 1e-3, 1e-2):
        assert rel_err(method(m, t).model.q, scipy_vanloan_q(m, t)) < 1e-11, t


def _triangular_chain3():
    """Unrotated quasi-upper-triangular A: a complex pair above a 3-chain."""
    a = np.zeros((5, 5))
    a[:2, :2] = [[-0.5, 2.0], [-0.5, -0.5]]
    a[2, 3] = a[3, 4] = 1.0
    a[:2, 2:] = [[0.3, -1.2, 0.5], [0.8, 0.4, -0.7]]
    g = np.arange(1.0, 26.0).reshape(5, 5) % 7 - 3
    return ContinuousModel(a, g @ g.T / spectral_norm(g @ g.T))


@pytest.mark.parametrize("m, tau_zero, p", [
    (_triangular_chain3(), None, 3),
    (observer_canonical([1.5, 0.7], [1.0, 0.2], p=3), None, 3),
    (gen_random_system(EnsembleSpec(6, 3, 3, seed=0), stream=3), 1e-4, 3),
    (gen_random_system(EnsembleSpec(7, 3, 4, seed=1)), 2e-3, 4),
], ids=["triangular-p3", "observer-p3", "rotated-p3", "rotated-p4"])
def test_proposed_deep_integrator_chains(m, tau_zero, p):
    # the coupling block f12 of three or more integrators: a22 is then
    # upper triangular beyond its first superdiagonal, which the
    # back-substitution has to meet as a quasi-lower triangular coefficient
    expm = pytest.importorskip("scipy.linalg").expm
    for t in (0.1, 1.0, 10.0):
        report = discretize_proposed(m, t, tau_zero=tau_zero)
        assert report.diagnostics["integrator_count"] == p
        assert rel_err(report.model.f, expm(m.a * t)) <= 1e-12, t
        assert rel_err(report.model.q, scipy_vanloan_q(m, t)) <= 1e-9, t


@pytest.mark.parametrize("seed", [
    23, 27, 32, 35, 41,
    pytest.param(21, marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item D: the binary32 trailing block is "
        "nilpotent only to sqrt(eps), and sep(a11, a22) is about 1e-2")),
])
def test_binary32_proposed_psd_at_paper_horizons(seed):
    # the paper ensemble systems that gave an indefinite binary32 Q; the
    # benchmark's rule: the lowest eigenvalue of Q is no further below zero
    # than 16 n eps ||Q_ref||, with Q_ref the binary64 Q
    m = gen_random_system(EnsembleSpec(6, 4, 2, seed=seed))
    m32 = m.astype(np.float32)
    floor = -16 * m.n * np.finfo(np.float32).eps
    for t in default_t_grid():
        q = discretize_proposed(m32, t).model.q.astype(np.float64)
        q_ref = discretize_proposed(m, t).model.q
        assert np.linalg.eigvalsh(q)[0] >= floor * np.linalg.norm(q_ref, 2), t


@pytest.mark.xfail(strict=True, reason="ROADMAP item D: the binary32 "
                   "tau_zero_default reaches the slow stable poles of n = 16 "
                   "systems, which are then counted as integrators")
def test_binary32_proposed_counts_integrators_n16():
    expm = pytest.importorskip("scipy.linalg").expm
    m = gen_random_system(EnsembleSpec(16, 14, 2, seed=3))
    report = discretize_proposed(m.astype(np.float32), 100.0)
    assert report.diagnostics["integrator_count"] == 2
    f_ref = expm(m.a * 100.0)
    assert rel_err(report.model.f, f_ref) < 1e-3


# -------------------------------------------------------------- widths


def test_proposed_float32_pipeline():
    m = mixed_system(1).astype(np.float32)
    report = discretize_proposed(m, 1.0)
    assert report.model.q.dtype == np.float32
    assert report.model.f.dtype == np.float32
    q64 = discretize_proposed(mixed_system(1), 1.0).model.q
    assert rel_err(report.model.q, q64) < 5e-3


def test_proposed_float32_error_flat_in_horizon():
    m = mixed_system(6)
    m32 = m.astype(np.float32)
    errs = {}
    for t in (1.0, 100.0):
        q32 = discretize_proposed(m32, t).model.q
        errs[t] = rel_err(q32, q_oracle(m, t))
    assert errs[100.0] < 50.0 * errs[1.0]
    assert errs[100.0] < 1e-3


# ------------------------------------------------- factor once, many t


HORIZONS = (1e-3, 0.05, 0.7, 3.0, 10.0)


def cold(m, t, tau_zero=None):
    """discretize_proposed with no plan kept from an earlier call."""
    discretize._last_plan = None
    return discretize_proposed(m, t, tau_zero)


def same_bits(r1, r2):
    return (r1.model.f.tobytes() == r2.model.f.tobytes()
            and r1.model.q.tobytes() == r2.model.q.tobytes()
            and r1.diagnostics == r2.diagnostics)


@pytest.fixture
def schur_count(monkeypatch):
    """Counts real Schur factorizations through the Francis QR kernel."""
    calls = []
    francis = _kernels.francis_qr
    monkeypatch.setattr(_kernels, "francis_qr",
                        lambda *args: calls.append(1) or francis(*args))
    return calls


@pytest.fixture
def sylv_calls(monkeypatch):
    """The first argument of every column-block preparation of a Sylvester
    solve, in the order made."""
    calls = []
    blocks = _kernels.sylv_blocks
    monkeypatch.setattr(_kernels, "sylv_blocks",
                        lambda *args: calls.append(args[0]) or blocks(*args))
    return calls


def column_block_sizes(r):
    """The widths of trsylv's column blocks for a quasi-lower triangular r."""
    return {j - j0 for j0, j, _ in _kernels.sylv_blocks(np.eye(1), r)}


@pytest.mark.parametrize("model, tau_zero, a22_widths", [
    (stable_system(0), None, set()),             # p = 0
    (constant_velocity(), None, {1}),            # k = 0
    (mixed_system(2), None, {1}),
    (mixed_system(3).astype(np.float32), None, {1}),
    (mixed_system(1), None, {2}),                # a22 one 2x2 pair block
    # a rotated index-3 chain: a22 is a 1x1 and a 2x2 block
    (gen_random_system(EnsembleSpec(6, 3, 3, seed=0), stream=3), 1e-3,
     {1, 2}),
], ids=["p0", "k0", "mixed", "binary32", "a22-pair", "chain3-tau"])
def test_proposed_warm_equals_cold(model, tau_zero, a22_widths):
    want = [cold(model, t, tau_zero) for t in HORIZONS]
    discretize._last_plan = None
    for t, r in zip(HORIZONS, want):
        assert same_bits(discretize_proposed(model, t, tau_zero), r), t
    stacked = discretize._last_plan.reports(HORIZONS)
    assert all(same_bits(s, r) for s, r in zip(stacked, want, strict=True))
    # the f12 and q12 solves take column blocks as wide as a22's blocks
    assert column_block_sizes(discretize._last_plan.q12_sylv[1]) == \
        a22_widths


@pytest.mark.parametrize("spec", [EnsembleSpec(6, 4, 2, seed=100),
                                  EnsembleSpec(16, 14, 2, seed=7)])
def test_proposed_plan_makes_no_swaps(spec, monkeypatch):
    # the plan's shifts finish the integrators last, so the reordering
    # only classifies the blocks
    swaps = []
    swap = linalg._swap_adjacent_blocks
    monkeypatch.setattr(linalg, "_swap_adjacent_blocks",
                        lambda *args: swaps.append(1) or swap(*args))
    for stream in range(8):
        report = discretize_proposed(gen_random_system(spec, stream), 1.0)
        assert report.diagnostics["integrator_count"] == 2.0
    assert not swaps


def test_proposed_factors_once_for_many_horizons(schur_count):
    m = mixed_system(4)
    ts = np.geomspace(1e-3, 10.0, 16)
    for t in ts:
        discretize_proposed(m, t)
    assert len(schur_count) == 1
    # a model equal in value but built afresh reuses the factorization
    discretize_proposed(mixed_system(4), 1.0)
    assert len(schur_count) == 1


def test_proposed_refactors_on_any_change(schur_count):
    m = mixed_system(0)
    discretize_proposed(m, 1.0)
    assert len(schur_count) == 1
    m.a[...] = 1.5 * m.a  # edited in place: the kept plan is stale
    assert same_bits(discretize_proposed(m, 1.0),
                     cold(ContinuousModel(m.a.copy(), m.s.copy()), 1.0))
    m.s[...] = 2.0 * m.s
    assert same_bits(discretize_proposed(m, 1.0),
                     cold(ContinuousModel(m.a.copy(), m.s.copy()), 1.0))
    discretize._last_plan = None
    schur_count.clear()
    discretize_proposed(m, 1.0)
    discretize_proposed(m, 1.0, tau_zero=1e-3)
    discretize_proposed(m.astype(np.float32), 1.0)
    assert len(schur_count) == 3


def test_proposed_plan_failure_raises_every_call(schur_count):
    m = ContinuousModel(np.diag([1.0, -1.0]), np.eye(2))
    for t in (1.0, 2.0, 1.0):
        with pytest.raises(UnsupportedSpectrumError):
            discretize_proposed(m, t)
    assert len(schur_count) == 3  # a failed plan is not kept


def test_proposed_plan_checks_nilpotency(schur_count):
    # tau_zero puts the pole at -1e-3 in the integrator block, which is
    # then not nilpotent: the plan fails and is not kept
    m = ContinuousModel(np.diag([-1.0, -1e-3]), np.eye(2))
    messages = set()
    for t in (1.0, 2.0, 1.0):
        with pytest.raises(NilpotencyError,
                           match="not nilpotent of index 1") as info:
            discretize_proposed(m, t, tau_zero=1e-2)
        messages.add(str(info.value))
    assert len(messages) == 1
    assert len(schur_count) == 3


def test_proposed_prepares_solvers_once_per_plan(sylv_calls):
    m = mixed_system(4)
    discretize_proposed(m, 1.0)
    # the f12, q12 and q11 solves; the others are the reordering's swaps
    a11 = discretize._last_plan.a11
    assert sum(ta is a11 for ta in sylv_calls) == 3
    count = len(sylv_calls)
    for t in np.geomspace(1e-3, 10.0, 15):
        discretize_proposed(m, t)
    assert len(sylv_calls) == count
    discretize_proposed(mixed_system(5), 1.0)
    a11 = discretize._last_plan.a11
    assert sum(ta is a11 for ta in sylv_calls[count:]) == 3


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_vanloan_stacked_equals_one_horizon(dtype):
    m = mixed_system(2).astype(dtype)
    grid = default_t_grid()
    stacked = discretize._vanloan_reports(m, grid)
    overflowed = []
    for t, r in zip(grid, stacked, strict=True):
        try:
            want = discretize_vanloan(m, t)
        except MatrixOverflowError:
            assert isinstance(r, MatrixOverflowError)
            overflowed.append(t)
            continue
        assert same_bits(r, want), t
    # binary32 overflows at the longest horizons alone
    assert 0 < len(overflowed) < len(grid) if dtype is np.float32 \
        else not overflowed


def test_reports_ahead_hand_out_each_cell_once():
    m, grid = mixed_system(3), (0.5, 2.0)
    methods = (Method.PROPOSED, Method.VANLOAN, Method.LYAP_Q)
    with discretize._reports_ahead(m, grid, methods):
        _, entries = discretize._ahead
        assert set(entries) == {(method, t) for t in grid
                                for method in methods[:2]}
        stored = entries[(Method.PROPOSED, 2.0)]
        assert run_method(m, 2.0, Method.PROPOSED) is stored
        again = run_method(m, 2.0, Method.PROPOSED)
        assert again is not stored and same_bits(again, stored)
        # another model is computed, not looked up
        other = run_method(mixed_system(4), 0.5, Method.VANLOAN)
        assert same_bits(other, discretize_vanloan(mixed_system(4), 0.5))
        assert (Method.VANLOAN, 0.5) in entries
    assert discretize._ahead is None
    # a model that fails the proposed plan has its error at every horizon,
    # while Van Loan's cells stand
    bad = ContinuousModel(np.diag([1.0, -1.0]), np.eye(2))
    with discretize._reports_ahead(bad, grid, methods):
        for t in grid:
            with pytest.raises(UnsupportedSpectrumError):
                run_method(bad, t, Method.PROPOSED)
            assert same_bits(run_method(bad, t, Method.VANLOAN),
                             discretize_vanloan(bad, t))


@pytest.mark.parametrize("method", [discretize_lyap_p, discretize_lyap_q])
def test_lyap_methods_factor_once_per_call(method, schur_count):
    m = stable_system(1)
    for t in (0.5, 2.0):
        method(m, t)
    assert len(schur_count) == 2


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1), p=st.integers(0, 2),
       ts=st.lists(st.floats(1e-3, 10.0), min_size=2, max_size=4))
def test_proposed_warm_equals_cold_property(seed, p, ts):
    m = gen_random_system(EnsembleSpec(n=5, m=5 - p, p=p, seed=seed))
    want = [cold(m, t) for t in ts]
    discretize._last_plan = None
    for t, r in zip(ts, want):
        assert same_bits(discretize_proposed(m, t), r)


# ------------------------------------------------------------ dispatch


def test_run_method_accepts_string_names():
    report = run_method(SCALAR, 1.0, "proposed")
    assert report.method is Method.PROPOSED


def test_run_method_unknown_name():
    with pytest.raises(ValueError):
        run_method(SCALAR, 1.0, "simpson")
