"""Discretization method tests: closed forms, cross-method agreement,
invariant certificates, and failure modes."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from sdedisc import _kernels, discretize, linalg
from sdedisc.bench import default_t_grid
from sdedisc.errors import (ConvergenceError, MatrixOverflowError,
                            MethodNotApplicableError,
                            NilpotencyError, NonFiniteError, SdeDiscError)
from sdedisc.models import (ContinuousModel, DiscreteModel, Method,
                            EXACT_METHODS)
from sdedisc.modelgen import (EnsembleSpec, gen_random_system,
                              constant_velocity, observer_canonical)
from sdedisc.discretize import (discretize_lyap_p, discretize_lyap_q,
                                discretize_proposed, discretize_vanloan,
                                discretize_many, naive_q_a, naive_q_b,
                                q_oracle, q_nilpotent, run_method,
                                lemma2_residual, semigroup_residual)
from sdedisc.linalg import mat_exp, spectral_norm


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
    "discretize_many": lambda t: discretize_many(SCALAR, (1.0, t),
                                                 Method.PROPOSED),
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


@pytest.mark.parametrize("modulus", [0.0, 1e-8])
def test_rank_decisions_find_integrators_above_small_moduli(modulus):
    # the rounding spread of the integrator pair's LAPACK eigenvalues
    # (1.8e-8) puts them above these moduli, so a split by moduli at
    # either would find no integrator; the rank decisions find both
    m = mixed_system(0)
    assert not (np.abs(np.linalg.eigvals(m.a)) <= modulus).any()
    for t in (0.01, 1.0, 100.0):
        report = discretize_proposed(m, t)
        assert report.diagnostics["integrator_count"] == 2.0
        assert rel_err(report.model.q, scipy_doubling_q(m, t)) <= 1e-9, t


def test_rank_decisions_find_an_index4_chain_off_the_origin():
    # an index-4 chain whose four LAPACK eigenvalues have moduli 1.350e-4,
    # about the origin: a split by moduli just above them once left
    # integrator_count 0 and a Q wrong by 22 orders of magnitude, and a
    # split by real parts would cut the chain, as some of them lie right
    # of -200 eps |A|_F and some left of it; the rank decisions find all
    # four integrators, and the split is theirs
    m = gen_random_system(EnsembleSpec(8, 4, 4, seed=0), 14)
    ev = np.linalg.eigvals(m.a)
    chain = ev[np.abs(ev) < 1e-3]
    delta = 200.0 * np.finfo(float).eps * np.linalg.norm(m.a)
    assert len(chain) == 4
    assert (chain.real >= -delta).any() and (chain.real < -delta).any()
    report = discretize_proposed(m, 1.0)
    assert report.diagnostics == {"split_index": 4.0,
                                  "integrator_count": 4.0}
    assert rel_err(report.model.q, scipy_doubling_q(m, 1.0)) <= 1e-9


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


def test_q_nilpotent_overflow_is_typed():
    # T^3 / 3 is beyond binary64 at T = 1e155, and beyond binary32 sooner
    cv = constant_velocity()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for dtype, t in ((np.float64, 1e155), (np.float32, 1e20)):
            m = cv.astype(dtype)
            with pytest.raises(MatrixOverflowError):
                q_nilpotent(m.a, m.s, t)


def exact_q_nilpotent(a, s, t):
    """q_nilpotent's sum in 40 digits on the binary64 values of a, s and
    t, rounded to binary64 (inf beyond it)."""
    mp = pytest.importorskip("mpmath").mp
    with mp.workdps(40):
        a, s, t = mp.matrix(a.tolist()), mp.matrix(s.tolist()), mp.mpf(t)
        p = a.rows
        powers = [mp.eye(p)]
        for _ in range(p - 1):
            powers.append(powers[-1] * a)
        q = mp.zeros(p, p)
        for i, j in np.ndindex(p, p):
            e = i + j + 1
            q += (t ** e / (math.factorial(i) * math.factorial(j) * e)
                  * powers[i] * s * powers[j].T)
        return np.array([[float(x) for x in q[r, :]] for r in range(p)])


# nilpotent blocks whose norms' powers overflow the width, with S = I, and
# the horizons they are taken at
LARGE_NILPOTENT = [
    (np.float64, np.diag([1e110, 1e110], 1), (1e-300, 1.0)),
    (np.float64, np.array([[0.0, 1e200], [0.0, 0.0]]), (1e-300, 1.0)),
    (np.float32, np.diag([1e13, 1e13], 1), (1e-30, 1.0)),
    (np.float32, np.array([[0.0, 1e20], [0.0, 0.0]]), (1e-30, 1.0)),
]


@pytest.mark.parametrize("dtype, a, ts", LARGE_NILPOTENT,
                         ids=["chain3-64", "chain2-64", "chain3-32",
                              "chain2-32"])
def test_q_nilpotent_large_blocks_right_or_refused(dtype, a, ts):
    # the powers are of A / max(|A|_F, 1), so neither the nilpotency
    # tolerance nor a norm overflows: Q is right, or refused with a typed
    # error where the width cannot hold it
    a, s = a.astype(dtype), np.eye(len(a), dtype=dtype)
    big = float(np.finfo(dtype).max)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in ts:
            want = exact_q_nilpotent(a, s, t)
            try:
                q = q_nilpotent(a, s, t)
            except (MatrixOverflowError, NilpotencyError):
                assert not np.abs(want).max() <= big, t
                continue
            assert rel_err(q, want) <= 4 * np.finfo(dtype).eps, t


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


def test_lyap_refusals_name_their_margin():
    # a stable drift without integrators: its slowest pole, -6.3e-2, lies
    # within lyap-p's margin sqrt(100 n eps) |A|_F = 7.0e-2 of the
    # imaginary axis at binary32, so lyap-p refuses it; lyap-q, whose plan
    # has no trailing block, solves it
    m64 = gen_random_system(EnsembleSpec(24, 24, 0, seed=2), 1)
    m = m64.astype(np.float32)
    with pytest.raises(MethodNotApplicableError) as info:
        discretize_lyap_p(m, 1.0)
    margin = discretize._lyap_p_margin(m.a)
    assert f"-{margin:.3e}, the margin sqrt(100 n eps) ||A||_F" \
        in str(info.value)
    assert rel_err(discretize_lyap_q(m, 1.0).model.q, q_oracle(m64, 1.0)) \
        <= 1e-5


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP C: lyap-p's margin passes binary64 drifts "
                          "whose Q misses the 1e-6 bar")
@pytest.mark.parametrize("t", [1e-3, 1.0])
def test_lyap_p_right_just_inside_its_margin(t):
    # the pair -1e-6 +- 2i lies left of lyap-p's binary64 margin, 6.0e-7,
    # so lyap-p answers, but its Q is off by 1.1e-5 at T = 1e-3 and 6.9e-6
    # at T = 1, where proposed reads 2.5e-11 and 1.2e-10 and Van Loan
    # 4e-16
    m = ContinuousModel(np.array([[-1e-6, 2.0], [-2.0, -1e-6]]),
                        np.diag([0.0, 1.0]))
    q = discretize_lyap_p(m, t).model.q
    assert rel_err(q, scipy_doubling_q(m, t)) <= 1e-6


def test_observer_canonical_proposed_matches_oracle():
    m = observer_canonical([3.0, 2.0], [1.0, 0.5], p=2)
    report = discretize_proposed(m, 1.5)
    assert report.diagnostics["integrator_count"] == 2.0
    assert rel_err(report.model.q, q_oracle(m, 1.5)) < 1e-9


def test_mirrored_poles_unsupported_by_proposed():
    # the pole at +1 joins the exponentiated block, so no Lyapunov solve
    # sees the sum 1 + (-1) = 0: proposed answers, and lyap-q with it
    poles = [1.0, -1.0]
    m = ContinuousModel(np.diag(poles), np.eye(2))
    for method in (discretize_proposed, discretize_lyap_q):
        for t in (1.0, 10.0):
            q = method(m, t).model.q
            assert rel_err(q, diagonal_q(poles, t)) <= 1e-14, (method, t)
    q = q_oracle(m, 1.0)
    assert q[0, 0] == pytest.approx((math.exp(2.0) - 1.0) / 2.0, rel=1e-10)


# drifts whose squared entries overflow the width, so that numpy's norm of
# A is inf, with S = I
OVERFLOWING_NORMS = [
    (dtype, a)
    for dtype, big in ((np.float64, 1e200), (np.float32, 1e20))
    for a in (np.array([[0.0, big], [0.0, 0.0]]), np.diag([big, -big]))]


@pytest.mark.parametrize("dtype, a", OVERFLOWING_NORMS,
                         ids=["chain-64", "mirrored-64", "chain-32",
                              "mirrored-32"])
def test_overflowing_norm_is_refused_or_right(dtype, a):
    # the tolerances take |A|_F scaled by a power of two, so they stay
    # finite (an infinite one would count every eigenvalue an integrator
    # and zero A, giving Q = T I): at T = 1 the chain's Q (T + a^2 T^3 / 3)
    # and the mirrored pair's exp(a T) overflow; at T = 1e-300 either Q is
    # its closed form to the width's rounding, about T I
    m = ContinuousModel(a.astype(dtype), np.eye(2, dtype=dtype))
    assert math.isfinite(discretize._lyap_p_margin(m.a))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MatrixOverflowError):
            cold(m, 1.0)
        for method in (discretize_lyap_p, discretize_lyap_q):
            with pytest.raises(SdeDiscError):
                method(m, 1.0)
        t = 1e-300
        b = float(a[0, 1])
        if b:
            want = np.array([[t + (b * t) ** 2 * t / 3, b * t * t / 2],
                             [b * t * t / 2, t]])
        else:
            want = diagonal_q(np.diagonal(a), t)
        want = want.astype(dtype)
        got = cold(m, t).model.q
        np.testing.assert_allclose(got, want, rtol=4 * np.finfo(dtype).eps,
                                   atol=0.0)


def diagonal_q(poles, t):
    """Q of A = diag(poles), S = I: (exp(2 lambda t) - 1) / (2 lambda)."""
    return np.diag([math.expm1(2.0 * lam * t) / (2.0 * lam)
                    for lam in poles])


def test_coupled_poles_right_in_proposed():
    # the split puts +1 in the trailing block and -(1 + 2 eps) in the
    # leading one: they hold poles that sum to ~0, which no solve couples,
    # since the trailing block column comes from the exponential
    poles = [-(1.0 + 2 * np.finfo(float).eps), 1.0]
    m = ContinuousModel(np.diag(poles), np.eye(2))
    for t in (1.0, 50.0):
        report = discretize_proposed(m, t)
        assert report.diagnostics == {"split_index": 1.0,
                                      "integrator_count": 0.0}
        assert rel_err(report.model.q, diagonal_q(poles, t)) <= 1e-12, t


def block_diagonal(*blocks):
    """The block diagonal matrix of the given square blocks."""
    n = sum(len(b) for b in blocks)
    out, i = np.zeros((n, n)), 0
    for b in blocks:
        out[i:i + len(b), i:i + len(b)] = b
        i += len(b)
    return out


def rotation(n, seed):
    """A random orthogonal n x n matrix."""
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    return q * np.sign(np.diagonal(r))


def random_psd(n, seed):
    g = np.random.default_rng(seed).standard_normal((n, n))
    return g @ g.T / n


OSCILLATOR = np.array([[0.0, 2.0], [-2.0, 0.0]])
CV_CHAIN = np.array([[0.0, 1.0], [0.0, 0.0]])

# drifts with eigenvalues on, right of, or within binary32's
# 200 eps |A|_F of the imaginary axis, in block form: (A, S, the seed of
# the rotation applied to both, or None)
AXIS_MODELS = {
    "oscillator": (OSCILLATOR, np.diag([0.0, 1.0]), None),
    "mirrored": (np.diag([1.0, -1.0]), np.eye(2), None),
    # zeta = 1e-5: Re(lambda) = -2e-5, left of binary64's margin only
    "light-damping": (np.array([[0.0, 1.0], [-4.0, -4e-5]]),
                      np.diag([0.0, 1.0]), None),
    "cv-oscillator": (block_diagonal(CV_CHAIN, OSCILLATOR), random_psd(4, 1),
                      None),
    "cv-oscillator-rotated": (block_diagonal(CV_CHAIN, OSCILLATOR),
                              random_psd(4, 1), 2),
    "pole-pair-cv": (block_diagonal([[-5.0]], OSCILLATOR, CV_CHAIN),
                     random_psd(5, 3), None),
    "pole-pair-cv-rotated": (block_diagonal([[-5.0]], OSCILLATOR, CV_CHAIN),
                             random_psd(5, 3), 4),
    "unstable-rotated": (np.diag([1.0, -1.0, -3.0, -0.5]), random_psd(4, 5),
                         6),
}


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("name", list(AXIS_MODELS))
def test_proposed_right_on_and_right_of_the_axis(name, dtype):
    # the eigenvalues with Re(lambda) >= -200 eps |A|_F join the
    # integrators in the exponentiated block, so no Lyapunov solve sees a
    # sum lambda_i + lambda_j near 0: every cell is right, or raises
    # MatrixOverflowError where Q does not fit the width.  The truth is
    # scipy's Van Loan on the block form, rotated: on the rotated drift
    # its growing -A^T block cancels in G F^T, 2e3 off at T = 10
    a, s, seed = AXIS_MODELS[name]
    n = len(a)
    u = np.eye(n) if seed is None else rotation(n, seed)
    m = ContinuousModel(u @ a @ u.T, u @ s @ u.T).astype(dtype)
    eps = np.finfo(dtype).eps
    ev = np.linalg.eigvals(a)
    kept = int(np.count_nonzero(ev.real < -200.0 * eps * np.linalg.norm(a)))
    tol = {np.float64: 1e-6, np.float32: 1e-2}[dtype]
    for t in (0.01, 0.1, 1.0, 10.0, 100.0):
        want = u @ scipy_vanloan_q(ContinuousModel(a, s), t) @ u.T
        try:
            report = cold(m, t)
        except MatrixOverflowError:
            assert not np.abs(want).max() <= np.finfo(dtype).max, t
            continue
        assert report.diagnostics["split_index"] == kept
        assert rel_err(report.model.q, want) <= tol, t
        if not report.diagnostics["integrator_count"]:
            got = discretize_lyap_q(m, t).model
            assert got.f.tobytes() == report.model.f.tobytes()
            assert got.q.tobytes() == report.model.q.tobytes()


def test_proposed_swaps_an_unstable_pole_last(monkeypatch):
    # the Schur form of this triangular drift is itself, +1 above -1: the
    # reordering swaps +1 into the exponentiated block
    swaps = []
    swap = linalg._swap_adjacent_blocks
    monkeypatch.setattr(linalg, "_swap_adjacent_blocks",
                        lambda *args: swaps.append(1) or swap(*args))
    m = ContinuousModel(np.array([[1.0, 1.0], [0.0, -1.0]]), np.eye(2))
    for t in (0.01, 1.0, 10.0):
        report = cold(m, t)
        assert report.diagnostics == {"split_index": 1.0,
                                      "integrator_count": 0.0}
        assert rel_err(report.model.q, scipy_vanloan_q(m, t)) <= 1e-12, t
    assert len(swaps) == 3


# ----------------------------------------------------------- stationary


def test_lyap_p_reaches_stationary_covariance():
    sla = pytest.importorskip("scipy.linalg")
    m = stable_system(7)
    p = sla.solve_continuous_lyapunov(m.a, -m.s)
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


HUGE_MODELS = {
    "cv": constant_velocity(),
    "ensemble": gen_random_system(EnsembleSpec(6, 4, 2, seed=3)),
    "stable": ContinuousModel(np.diag([-1.0, -2.0]), np.eye(2)),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", sorted(HUGE_MODELS))
@pytest.mark.parametrize("t", [1e100, 1e155, 1e300])
def test_huge_horizon_finite_or_typed_error(t, name, dtype):
    # a horizon whose numbers overflow the width fails as that horizon's
    # SdeDiscError, never as a builtin exception or a warning
    m = HUGE_MODELS[name].astype(dtype)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for method in Method:
            try:
                report = run_method(m, t, method)
            except SdeDiscError:
                continue
            assert np.isfinite([report.model.f, report.model.q]).all()


@pytest.mark.parametrize("dtype, t", [(np.float32, 100.0),
                                      (np.float32, 170.0),
                                      (np.float64, 1000.0),
                                      (np.float64, 1400.0)])
def test_unstable_scalar_finite_or_typed_error(dtype, t):
    # exp(A T) fits the width here, and G S G^T does not
    m = ContinuousModel(np.array([[0.5]], dtype=dtype),
                        np.array([[1.0]], dtype=dtype))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MatrixOverflowError):
            naive_q_a(m, t)
        for method in Method:
            try:
                report = run_method(m, t, method)
            except SdeDiscError:
                continue
            assert np.isfinite([report.model.f, report.model.q]).all()


def test_stable_scalar_q_at_huge_horizons_right_or_refused():
    # Q = (1 - exp(-4 T)) / 4 for A = -2, S = 1
    m = ContinuousModel(np.array([[-2.0]]), np.array([[1.0]]))
    for method in (Method.PROPOSED, Method.LYAP_P, Method.LYAP_Q):
        for t in (1e14, 1e16, 1e20):
            try:
                q = run_method(m, t, method).model.q[0, 0]
            except SdeDiscError:
                continue
            assert q == pytest.approx(-math.expm1(-4.0 * t) / 4.0,
                                      rel=1e-12, abs=0.0), (method, t)


def test_model_astype_beyond_the_width_raises_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a, s in ((np.array([[-1.0, 1e39], [0.0, -1.0]]), np.eye(2)),
                     (-np.eye(2), 1e39 * np.eye(2))):
            m = ContinuousModel(a, s)
            assert m.astype(np.float64).a.tobytes() == a.tobytes()
            with pytest.raises(NonFiniteError, match="float32"):
                m.astype(np.float32)


@pytest.mark.parametrize("dtype", [np.int32, np.float16, np.bool_,
                                   np.complex128])
def test_model_astype_refuses_non_float_widths(dtype):
    # int32 would keep one entry of A and none of S, float16 fail later
    m = gen_random_system(EnsembleSpec(6, 4, 2, seed=1))
    with pytest.raises(TypeError, match="is not float32 or float64"):
        m.astype(dtype)


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
    # run_method's oracle is binary64 for a binary32 model, at T = 0 too
    for t in (0.0, 1.0):
        got = run_method(SCALAR.astype(np.float32), t, Method.ORACLE).model
        assert got.f.dtype == got.q.dtype == np.float64
        assert got.q[0, 0] == pytest.approx(-math.expm1(-2.0 * t), rel=1e-7)


def base_q(a, s, hs):
    return discretize._base_q(a, s, hs, linalg._exp_table(a))


def base_q_step_limit(a):
    """The longest step _base_q takes: theta13 / max(|A|_1, |A|_inf)."""
    nu = max(np.abs(a).sum(axis=0).max(), np.abs(a).sum(axis=1).max())
    return linalg._THETA13 / nu


@pytest.mark.parametrize("seed", range(4))
def test_base_q_matches_symmetric_closed_form(seed):
    # A = U diag(lam) U^T: Q(h) = U (S~ o Phi) U^T with S~ = U^T S U and
    # Phi_ij = expm1((lam_i + lam_j) h) / (lam_i + lam_j), or h where the
    # sum is 0 (lam holds 0 and the pair +-1.5).  Tolerance 1e-13 relative,
    # fixed before the errors were looked at
    rng = np.random.default_rng(seed)
    lam = np.array([0.0, -1.5, 1.5, -0.3, 2.0, -4.0])
    u, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    a = u @ np.diag(lam) @ u.T
    b = rng.standard_normal((6, 3))
    s = b @ b.T
    st = u.T @ s @ u
    total = lam[:, None] + lam[None, :]
    hs = np.geomspace(1e-8, base_q_step_limit(a), 12).tolist()
    for h, q in zip(hs, base_q(a, s, hs)):
        safe = np.where(total == 0.0, 1.0, total)
        phi = np.where(total == 0.0, h, np.expm1(total * h) / safe)
        want = u @ (st * phi) @ u.T
        assert rel_err(q, want) < 1e-13, h


def test_base_q_matches_nilpotent_closed_form():
    # strictly upper triangular A against q_nilpotent's finite sum, to the
    # same 1e-13 relative
    rng = np.random.default_rng(3)
    a = np.triu(rng.standard_normal((4, 4)), k=1)
    b = rng.standard_normal((4, 4))
    s = b @ b.T
    hs = np.geomspace(1e-8, base_q_step_limit(a), 12).tolist()
    for h, q in zip(hs, base_q(a, s, hs)):
        assert rel_err(q, q_nilpotent(a, s, h)) < 1e-13, h


def test_base_q_slices_do_not_depend_on_the_stack():
    m = gen_random_system(EnsembleSpec(6, 4, 2, seed=5), stream=0)
    hs = np.geomspace(1e-6, base_q_step_limit(m.a), 20).tolist()
    whole = base_q(m.a, m.s, hs)
    backward = base_q(m.a, m.s, hs[::-1])[::-1]
    assert whole.tobytes() == backward.tobytes()
    for i, h in enumerate(hs):
        j = (i + 7) % len(hs)
        (alone,) = base_q(m.a, m.s, [h])
        pair = base_q(m.a, m.s, [h, hs[j]])
        swapped = base_q(m.a, m.s, [hs[j], h])
        for got in (alone, pair[0], swapped[1]):
            assert got.tobytes() == whole[i].tobytes(), h


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


def mpmath_doubling_q(m, t, dps=30):
    """Q in dps decimal digits: 30 terms of the Taylor series of Q(h) and
    F(h) = exp(A h) at h = T / 2^k, the least k with
    max(|A|_1, |A|_inf) h <= 1/4, carried to T by k doublings
    Q(2h) = F(h) Q(h) F(h)^T + Q(h), F(2h) = F(h)^2."""
    mp = pytest.importorskip("mpmath").mp
    nu = max(np.abs(m.a).sum(axis=0).max(), np.abs(m.a).sum(axis=1).max())
    k = max(0, math.ceil(math.log2(4.0 * nu * t)))
    with mp.workdps(dps):
        to_mp = np.vectorize(mp.mpf, otypes=[object])
        a, s = to_mp(m.a), to_mp(m.s)
        h = mp.mpf(t) / 2 ** k
        q = q_term = s * h
        f = f_term = to_mp(np.eye(m.n))
        for j in range(1, 30):
            aq = a @ q_term
            q_term = (aq + aq.T) * (h / (j + 1))
            f_term = a @ f_term * (h / j)
            q, f = q + q_term, f + f_term
        for _ in range(k):
            q, f = f @ q @ f.T + q, f @ f
        return q.astype(np.float64)


@pytest.mark.parametrize("m, agree, agree_or_refuse", [
    (gen_random_system(EnsembleSpec(6, 4, 2, seed=1)), 1e3, 1e4),
    (gen_random_system(EnsembleSpec(6, 6, 0, seed=2)), 1e3, 1e4),
    (gen_random_system(EnsembleSpec(16, 14, 2, seed=3)), 1e3, 1e4),
    (gen_random_system(EnsembleSpec(6, 3, 3, seed=0)), 100.0, 1e3),
    (ContinuousModel(np.array([[0.1, 1.0], [0.0, -0.5]]), np.eye(2)),
     1e3, 1e4),
], ids=["n6-p2", "n6-p0", "n16-p2", "n6-p3", "unstable-2"])
def test_q_oracle_matches_scipy_doubling(m, agree, agree_or_refuse):
    # horizons short enough to need no doubling pin the base step's series
    for t in (1e-4, 1e-2):
        assert rel_err(q_oracle(m, t), scipy_vanloan_q(m, t)) < 1e-13, t
    for t in (1.0, 10.0, 100.0, 1e3):
        if t <= agree:
            assert rel_err(q_oracle(m, t), scipy_doubling_q(m, t)) < 1e-8, t
    # past that, binary64 doubling may not hold 1e-8 (n6-p2 and n16-p2
    # drift by 2e-8 and 2e-6 at 1e4, n6-p3 by 4e-4 at 1e3; unstable-2
    # overflows): the oracle agrees or refuses, never returns a worse truth
    try:
        q = q_oracle(m, agree_or_refuse)
    except SdeDiscError:
        return
    assert rel_err(q, scipy_doubling_q(m, agree_or_refuse)) < 1e-8


def test_q_oracle_agrees_with_mpmath_doubling_or_refuses():
    # binary64 doubling cannot judge this cell: scipy_doubling_q is 1.2e-7
    # off the 30-digit truth.  An oracle that returned a truth 4.9e-8 off
    # had chains that agreed within 1e-8; the truth must be right or refused
    m = gen_random_system(EnsembleSpec(16, 14, 2, seed=1), stream=0)
    want = mpmath_doubling_q(m, 3000.0)
    try:
        q = q_oracle(m, 3000.0)
    except SdeDiscError:
        return
    assert rel_err(q, want) < 1e-8


def test_q_oracle_long_horizons_reach_stationary_covariance():
    # Q tends to the stationary covariance diag(1/2, 1/4); the doublings
    # carry a short base step there however long the horizon
    m = ContinuousModel(np.diag([-1.0, -2.0]), np.eye(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (1e6, 1e8, 1e12, 1e300):
            q = q_oracle(m, t)
            assert np.abs(q - np.diag([0.5, 0.25])).max() <= 1e-15, t


@pytest.mark.parametrize("seed, t", [(4, 10.0 ** 2.5), (4, 1e3), (9, 1e3)])
def test_q_oracle_refuses_unreliable_doubling(seed, t):
    # rotated index-3 chains: binary64 doubling drifts by O(1) here (1.9,
    # 8.2e4 and 2.1 against a 60-digit doubling), and the second chain
    # disagrees with the first
    m = gen_random_system(EnsembleSpec(6, 3, 3, seed=seed), stream=0)
    with pytest.raises(ConvergenceError):
        q_oracle(m, t)


def test_q_oracle_doubling_overflow_is_typed():
    # exp(0.1 T) overflows binary64 while doubling to T = 1e4: the chains
    # are checked for finiteness before they are compared
    m = ContinuousModel(np.array([[0.1, 1.0], [0.0, -0.5]]), np.eye(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MatrixOverflowError):
            q_oracle(m, 1e4)


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
    # an adaptive stop test can stall here just short of its tolerance;
    # the base step's fixed series has none to stall
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


@pytest.mark.parametrize("m, p", [
    (_triangular_chain3(), 3),
    (observer_canonical([1.5, 0.7], [1.0, 0.2], p=3), 3),
    (gen_random_system(EnsembleSpec(6, 3, 3, seed=0), stream=3), 3),
    (gen_random_system(EnsembleSpec(7, 3, 4, seed=1)), 4),
], ids=["triangular-p3", "observer-p3", "rotated-p3", "rotated-p4"])
def test_proposed_deep_integrator_chains(m, p):
    # the coupling block F12 of three or more integrators: the rank
    # decisions leave a22 strictly upper triangular, full beyond its first
    # superdiagonal,
    # and F12 comes from the plan's exponential with F22
    expm = pytest.importorskip("scipy.linalg").expm
    for t in (0.1, 1.0, 10.0):
        report = discretize_proposed(m, t)
        assert report.diagnostics["integrator_count"] == p
        assert rel_err(report.model.f, expm(m.a * t)) <= 1e-12, t
        assert rel_err(report.model.q, scipy_vanloan_q(m, t)) <= 1e-9, t


@pytest.mark.parametrize("seed", [21, 23, 27, 32, 35, 41])
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


def test_proposed_chain_left_in_leading_block_right_or_refused():
    # LAPACK puts the rotated index-4 chain of this system at moduli
    # 1.350e-4: a split by moduli just above the smallest would leave the
    # chain in the leading block, to the Lyapunov solve, while the rank
    # decisions find it.  The reference is built as perfbench/reference.py
    # builds it.
    m = gen_random_system(EnsembleSpec(8, 4, 4, seed=0), stream=14)
    try:
        q = discretize_proposed(m, 1.0).model.q
    except SdeDiscError:
        return
    assert rel_err(q, scipy_doubling_q(m, 1.0)) <= 1e-9


# the deep-chain contract: every cell within this relative error of the
# binary64 reference, or refused with an SdeDiscError
DEEP_CHAIN_TOL = {np.float64: 1e-6, np.float32: 1e-2}


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("spec", [EnsembleSpec(6, 3, 3, seed=0),
                                  EnsembleSpec(8, 4, 4, seed=0)],
                         ids=["p3", "p4"])
def test_deep_chains_right_or_refused(spec, dtype):
    # rotated index-3 and index-4 chains, whose computed eigenvalues spread
    # by eps^(1/p) |A| around 0, past any threshold on moduli
    for stream in range(10):
        m = gen_random_system(spec, stream)
        for t in (1e-3, 0.1, 10.0):
            want = scipy_doubling_q(m, t)
            for method in (discretize_lyap_p, discretize_lyap_q,
                           discretize_proposed):
                try:
                    q = method(m.astype(dtype), t).model.q
                except SdeDiscError:
                    continue
                assert rel_err(q, want) <= DEEP_CHAIN_TOL[dtype], \
                    (stream, t, method.__name__)


def weak_link_chain(dtype):
    """An exactly nilpotent index-5 integrator chain, A = 40 triu(ones, 1)
    with one weak link A[0, 1] = 0.01, and S = I."""
    a = 40.0 * np.triu(np.ones((5, 5)), 1)
    a[0, 1] = 0.01
    return ContinuousModel(a.astype(dtype), np.eye(5, dtype=dtype))


WEAK_LINK_FAULT = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP G and C: the staircase keeps integrators of a chain "
           "with a weak link in a11, and proposed's Q drifts with no error")


@pytest.mark.parametrize("method, dtype, t", [
    pytest.param(Method.PROPOSED, np.float64, 1e4, marks=WEAK_LINK_FAULT,
                 id="proposed-f64-1e4"),
    pytest.param(Method.PROPOSED, np.float32, 100.0, marks=WEAK_LINK_FAULT,
                 id="proposed-f32-100"),
    pytest.param(Method.VANLOAN, np.float64, 1e4, id="vanloan-f64-1e4"),
    pytest.param(Method.VANLOAN, np.float32, 100.0, id="vanloan-f32-100"),
])
def test_weak_link_chain_right_or_refused(method, dtype, t):
    # scored against the closed form in 40 digits on the model's values:
    # Van Loan reads 1.8e-15 in binary64 and 6e-8 in binary32, proposed
    # 4.4e-2 (integrator_count 2 of 5) and 6.1e3.  The staircase's third
    # step reads sigma = 1.5e-11 against its binary64 tolerance
    # 100 eps |A|_F = 2.7e-12: the weak link's singular value, 7.1e-3,
    # amplifies the rounding, so three integrators stay in a11
    m = weak_link_chain(dtype)
    want = exact_q_nilpotent(m.a, m.s, t)
    try:
        q = run_method(m, t, method).model.q
    except SdeDiscError:
        return
    assert rel_err(q, want) <= DEEP_CHAIN_TOL[dtype]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("spec", [(6, 4, 2), (6, 3, 3), (8, 4, 4),
                                  (16, 14, 2), (48, 46, 2)], ids=str)
def test_plan_keeps_the_split(spec, dtype):
    # the Schur form and the reordering keep _split's zeros below the split
    # and its strictly upper triangular N bit for bit, and N's size is the
    # ensemble's integrator count
    n, _, p = spec
    for seed in range(5):
        for stream in range(4):
            m = gen_random_system(EnsembleSpec(*spec, seed=seed),
                                  stream).astype(dtype)
            plan = discretize._ProposedPlan(m)
            _, at, k = discretize._split(
                m.a, 100.0 * np.finfo(dtype).eps * linalg._fro_norm(m.a))
            assert plan.k == k == n - p and plan.integrators == p
            assert not plan.at[k:, :k].any()
            assert plan.at[k:, k:].tobytes() == at[k:, k:].tobytes()
            assert not np.tril(at[k:, k:]).any()


def confirmed_staircase(a, tol):
    """_split's staircase that confirms every stop with one more SVD."""
    n = a.shape[0]
    hu = np.concatenate([a.T, np.eye(n, dtype=a.dtype)])
    size = n
    while size:
        _, sv, wt = np.linalg.svd(hu[:size, :size])
        null = int(np.count_nonzero(sv <= tol))
        if not null:
            break
        _kernels.similarity(hu, 0, wt.T)
        hu[:size, size - null:size] = 0.0
        size -= null
    return hu[n:], np.ascontiguousarray(hu[:n].T), size


def split_tol(a):
    """The plan's rank tolerance on a."""
    return 100.0 * linalg.eps_of(a) * linalg._fro_norm(a)


def separate_integrators(m, d, seed):
    """A stable m x m ensemble block beside d separate integrators, coupled
    to them and rotated."""
    rng = np.random.default_rng(seed)
    a = np.zeros((m + d, m + d))
    if m:
        a[:m, :m] = gen_random_system(EnsembleSpec(m, m, 0, seed=seed)).a
    a[:m, m:] = rng.standard_normal((m, d))
    q, _ = np.linalg.qr(rng.standard_normal(a.shape))
    return q @ a @ q.T


@pytest.fixture
def svd_shapes(monkeypatch):
    """The shape of every np.linalg.svd argument, in the order called."""
    shapes = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda x, *args, **kw: shapes.append(x.shape) or
                        svd(x, *args, **kw))
    return shapes


def check_split(a, tol):
    """_split(a, tol), bit for bit confirmed_staircase(a, tol)."""
    v, at, k = discretize._split(a, tol)
    want_v, want_at, want_k = confirmed_staircase(a, tol)
    assert k == want_k
    assert v.tobytes() == want_v.tobytes()
    assert at.tobytes() == want_at.tobytes()
    return k


@settings(max_examples=60, deadline=None, derandomize=True)
@given(family=st.sampled_from(["chain", "separate", "none", "large"]),
       p=st.integers(1, 4), m=st.integers(0, 10),
       seed=st.integers(0, 2 ** 31 - 1), stream=st.integers(0, 63))
def test_split_stops_early_with_the_same_bits(family, p, m, seed, stream):
    # the CS bound stops the staircase where the confirming SVD would drop
    # nothing: the same (v, at, k) bit for bit at both widths on rotated
    # index-1 to index-4 chains, two separate integrators, drifts with no
    # integrator and large-state's ensemble
    if family == "chain":
        a = gen_random_system(EnsembleSpec(m + p, m, p, seed=seed), stream).a
    elif family == "separate":
        a = separate_integrators(m, 2, seed)
    elif family == "none":
        a = gen_random_system(EnsembleSpec(m + 1, m + 1, 0, seed=seed),
                              stream).a
    else:
        a = gen_random_system(EnsembleSpec(16, 14, 2, seed=seed), stream).a
    for dtype in (np.float64, np.float32):
        x = a.astype(dtype)
        check_split(x, split_tol(x))


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_split_takes_one_svd_per_chain_step(p, svd_shapes):
    # an index-p chain drops one value per step, and the bound after the
    # p-th replaces the confirming SVD
    for stream in range(4):
        m = gen_random_system(EnsembleSpec(12, 12 - p, p, seed=0), stream)
        for dtype in (np.float64, np.float32):
            a = m.a.astype(dtype)
            svd_shapes.clear()
            assert discretize._split(a, split_tol(a))[2] == 12 - p
            assert svd_shapes == [(12 - i, 12 - i) for i in range(p)]


def test_split_confirms_when_the_bound_is_within_twice_tol(svd_shapes):
    # diag(-1, eps, 0) rotated: the step that drops the 0 bounds the next
    # block's least singular value by eps, within 2 tol for eps = 1.5 tol,
    # so the confirming SVD runs, and it keeps eps, past tol
    q, _ = np.linalg.qr(np.random.default_rng(4).standard_normal((3, 3)))
    a = q @ np.diag([-1.0, 1.5e-12, 0.0]) @ q.T
    assert check_split(a, 1e-12) == 2
    # _split's SVDs, then the reference's
    assert svd_shapes == [(3, 3), (2, 2)] * 2


def test_binary32_proposed_counts_integrators_n16():
    # a slow stable pole of these systems lies within lyap-p's binary32
    # margin of 0; the rank decisions count the integrator pair alone
    expm = pytest.importorskip("scipy.linalg").expm
    for seed, t in ((3, 100.0), (5, 10.0)):
        m = gen_random_system(EnsembleSpec(16, 14, 2, seed=seed))
        report = discretize_proposed(m.astype(np.float32), t)
        assert report.diagnostics["integrator_count"] == 2, seed
        assert rel_err(report.model.f, expm(m.a * t)) < 1e-3, seed


@pytest.mark.parametrize("n", [24, 32, 48])
def test_binary32_proposed_right_on_slow_stable_poles(n):
    # stable models with no integrator whose slowest poles lie within
    # lyap-p's binary32 margin of 0: no integrator is counted, and the
    # Lyapunov solve takes them
    for stream in range(4):
        m = gen_random_system(EnsembleSpec(n, n, 0, seed=2), stream)
        report = discretize_proposed(m.astype(np.float32), 1.0)
        assert report.diagnostics["integrator_count"] == 0.0
        assert rel_err(report.model.q, q_oracle(m, 1.0)) <= 1e-5, stream


@pytest.mark.parametrize("spec, stream, t", [
    (EnsembleSpec(48, 48, 0, seed=2), 0, 1e3),
    (EnsembleSpec(48, 48, 0, seed=2), 0, 1e4),
    (EnsembleSpec(24, 24, 0, seed=2), 1, 3e3),
    (EnsembleSpec(16, 14, 2, seed=3), 0, 1e3),
], ids=["n48-1e3", "n48-1e4", "n24-3e3", "n16-1e3"])
def test_binary32_proposed_slow_pole_in_a22_at_long_horizons(spec, stream,
                                                             t):
    # the slowest stable poles of these models (-0.089 at n = 48) lie
    # within lyap-p's binary32 margin of 0; in a22 they would be
    # carried as -a22^T, whose exponential overflows, so they must stay in
    # the Lyapunov solve.  q_oracle's Q has norm 1.8, 2.6 and 7.7e9, which
    # binary32 holds, and the same models come back within 2e-4 at T = 100
    # or 1e3.  Three digits are asked for
    m = gen_random_system(spec, stream)
    q = discretize_proposed(m.astype(np.float32), t).model.q
    assert rel_err(q, q_oracle(m, t)) <= 1e-3


def _integrator_q(m, p, t):
    """The closed form of the p trailing integrators of a block upper
    triangular A = [[a11, a12], [0, N]] with a stable a11, lifted by the
    basis [x; I] of their generalized null space (a11 x - x N = -a12).
    It differs from Q by a part that stays bounded as t grows, while Q
    grows like t^(2p - 1)."""
    sla = pytest.importorskip("scipy.linalg")
    k = m.n - p
    a = m.a.astype(np.float64)
    basis = np.vstack([sla.solve_sylvester(a[:k, :k], -a[k:, k:],
                                           -a[:k, k:]), np.eye(p)])
    s22 = m.s[k:, k:].astype(np.float64)
    return basis @ q_nilpotent(a[k:, k:], s22, t) @ basis.T


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("m, p", [
    (constant_velocity(), 2),
    (observer_canonical([3.0, 2.0], [1.0, 0.5], p=2), 2),
    (observer_canonical([1.0, 2.0], [1.0, 0.5], p=3), 3),
], ids=["cv", "observer-p2", "observer-p3"])
def test_proposed_huge_horizons_right_or_refused(m, p, dtype):
    # within 100 eps of the integrators' closed form, which is exact to
    # binary64 rounding from t = 1e6 on; refused, with a typed error, only
    # where the width cannot hold t or that Q
    big = float(np.finfo(dtype).max)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (1e6, 1e10, 1e50, 1e100):
            try:
                want = _integrator_q(m, p, t)
                fits = t <= big and np.abs(want).max() <= big
            except MatrixOverflowError:
                fits = False
            try:
                q = discretize_proposed(m.astype(dtype), t).model.q
            except SdeDiscError:
                assert not fits, t
                continue
            assert rel_err(q, want) <= 100 * np.finfo(dtype).eps, t


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("t", [1.0, 10.0])
@pytest.mark.parametrize("m", [
    ContinuousModel(np.diag([-1.0, 0.0]), np.eye(2)),
    observer_canonical([3.0, 2.0], [1.0, 0.5], p=2),
], ids=["diag", "observer-p2"])
def test_proposed_accuracy_independent_of_noise_scale(m, t, dtype):
    # Q is linear in S, so a large S must cost F and Q no digits: both
    # stay within the bound they meet at S = I, 8 eps
    sla = pytest.importorskip("scipy.linalg")
    tol = 8 * np.finfo(dtype).eps
    f_want = sla.expm(m.a * t)
    for scale in (1.0, 1e6):
        big = ContinuousModel(m.a, scale * m.s)
        report = discretize_proposed(big.astype(dtype), t)
        assert rel_err(report.model.f, f_want) <= tol, scale
        assert rel_err(report.model.q, q_oracle(big, t)) <= tol, scale


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


def cold(m, t):
    """discretize_proposed with no plan kept from an earlier call."""
    discretize._last_plan = None
    return discretize_proposed(m, t)


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


def column_spans(sylv):
    """The column blocks (j0, j) of one of the plan's solves, last first."""
    blocks, _ = sylv
    return [(j0, j) for j0, j, _ in blocks]


@pytest.mark.parametrize("model, q11_spans", [
    (stable_system(0), None),  # p = 0: q11 in a11's eigenbasis
    (constant_velocity(), []),  # k = 0
    (mixed_system(2), [(0, 4)]),
    (mixed_system(3).astype(np.float32), [(0, 4)]),
    (mixed_system(0), [(0, 4)]),
    # a rotated index-3 chain, a22 strictly upper triangular
    (gen_random_system(EnsembleSpec(6, 3, 3, seed=0), stream=3), [(0, 3)]),
    # k = 14: q11 in a11's eigenbasis at both widths
    (gen_random_system(EnsembleSpec(16, 14, 2, seed=7)), None),
    (gen_random_system(EnsembleSpec(16, 14, 2, seed=7)).astype(np.float32),
     None),
], ids=["p0", "k0", "mixed", "binary32", "a22-pair", "chain3-tau", "eig-n16",
        "eig-n16-binary32"])
def test_proposed_warm_equals_cold(model, q11_spans):
    want = [cold(model, t) for t in HORIZONS]
    discretize._last_plan = None
    for t, r in zip(HORIZONS, want):
        assert same_bits(discretize_proposed(model, t), r), t
    stacked = discretize._last_plan.reports(HORIZONS)
    assert all(same_bits(s, r) for s, r in zip(stacked, want, strict=True))
    # at n = 6 the narrowest blocks merge: the q11 solve is one block of at
    # most 32 unknowns, one product per horizon, except with no integrator,
    # where its six columns of 6 unknowns each would be 36, and the normal
    # a11 takes its eigenbasis instead
    plan = discretize._last_plan
    if q11_spans is None:
        assert plan.q11_sylv is None and plan.q11_eig is not None
    else:
        assert plan.q11_eig is None
        assert column_spans(plan.q11_sylv) == q11_spans


@pytest.mark.parametrize("spec", [EnsembleSpec(6, 4, 2, seed=100),
                                  EnsembleSpec(16, 14, 2, seed=7)])
def test_proposed_plan_makes_no_swaps(spec, monkeypatch):
    # the rank decisions put the integrators last, so the reordering
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
    discretize_proposed(m, 1.0)
    discretize_proposed(m.astype(np.float32), 1.0)
    assert len(schur_count) == 2


def test_proposed_plan_failure_raises_every_call(monkeypatch):
    calls = []

    def fail(*args):
        calls.append(1)
        raise ConvergenceError("QR iteration did not converge")
    monkeypatch.setattr(discretize, "real_schur", fail)
    m = ContinuousModel(np.diag([1.0, -1.0]), np.eye(2))
    for t in (1.0, 2.0, 1.0):
        with pytest.raises(ConvergenceError):
            discretize_proposed(m, t)
    assert len(calls) == 3  # a failed plan is not kept


def test_proposed_prepares_solvers_once_per_plan(sylv_calls):
    m = mixed_system(4)
    discretize_proposed(m, 1.0)
    # one call, for the q11 solve: a default plan makes no reordering pass
    a11 = discretize._last_plan.a11
    assert len(sylv_calls) == 1 and sylv_calls[0] is a11
    count = len(sylv_calls)
    for t in np.geomspace(1e-3, 10.0, 15):
        discretize_proposed(m, t)
    assert len(sylv_calls) == count
    discretize_proposed(mixed_system(5), 1.0)
    a11 = discretize._last_plan.a11
    assert sum(ta is a11 for ta in sylv_calls[count:]) == 1


def coupled_system(n, kappa, seed):
    """The coupled family, Q (D + kappa triu(N(0, 1), 1)) Q^T with
    S = G G^T: D's poles uniform in (-3, -0.2), Q a seeded random
    orthogonal matrix.  The drift is non-normal, its eigenvector matrix the
    worse conditioned the larger kappa; the models of one (n, seed) differ
    in kappa alone."""
    rng = np.random.default_rng([seed, n])
    poles = rng.uniform(-3.0, -0.2, n)
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diagonal(r))
    coupling = kappa * np.triu(rng.standard_normal((n, n)), 1)
    g = rng.standard_normal((n, n))
    return ContinuousModel(q @ (np.diag(poles) + coupling) @ q.T, g @ g.T)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("n", [8, 16, 48])
def test_normal_a11_solves_q11_in_its_eigenbasis(n, dtype):
    # a normal drift's eigenvector matrix is unitary: a plan whose q11
    # would take more than one column block solves it in a11's eigenbasis,
    # as trsylv does on the same a11, for a stack of symmetric sides
    for stream in range(2):
        m = gen_random_system(EnsembleSpec(n, n - 2, 2, seed=stream),
                              stream).astype(dtype)
        plan = discretize._ProposedPlan(m)
        assert plan.q11_sylv is None and plan.q11_eig is not None
        k, r = plan.k, np.ascontiguousarray(plan.a11.T)
        c = np.random.default_rng(stream).standard_normal((4, k, k))
        c = (c + c.mT).astype(dtype)
        got = plan.solve_q11(c)
        want = _kernels.trsylv(_kernels.sylv_blocks(plan.a11, r), r, c)
        assert got.dtype == dtype
        for g, w in zip(got, want, strict=True):
            assert rel_fro(g, w) <= k * np.finfo(dtype).eps


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_eigenbasis_gate_keeps_q_within_4x_of_trsylv(dtype, monkeypatch):
    # on the coupled family, the plans the gate lets into a11's eigenbasis
    # are within 4x of trsylv's error against the oracle of the model at
    # its width; the family runs from normal to far past the gate
    cells = list(itertools.product((8, 16), (0.003, 0.01, 0.03, 0.1, 0.3),
                                   range(5)))
    taken = 0
    for n, kappa, seed in cells:
        m = coupled_system(n, kappa, seed).astype(dtype)
        plan = discretize._ProposedPlan(m)
        if plan.q11_eig is None:
            continue
        taken += 1
        with monkeypatch.context() as patch:
            patch.setattr(discretize, "_Q11_EIG_GATE", 0.0)
            fallback = discretize._ProposedPlan(m)
        assert fallback.q11_eig is None
        ts = (0.01, 1.0, 10.0)
        for t, got, want in zip(ts, plan.reports(ts), fallback.reports(ts)):
            truth = q_oracle(m, t)
            assert (rel_fro(got.model.q, truth)
                    <= 4.0 * rel_fro(want.model.q, truth)), (n, kappa, seed, t)
    assert 0 < taken < len(cells)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_coupled_drift_past_the_gate_keeps_sylv_blocks(dtype, sylv_calls):
    m = coupled_system(16, 0.3, 0).astype(dtype)
    discretize_proposed(m, 1.0)
    plan = discretize._last_plan
    assert plan.q11_eig is None
    assert len(sylv_calls) == 1 and sylv_calls[0] is plan.a11
    assert rel_err(plan.reports((1.0,))[0].model.q, q_oracle(m, 1.0)) <= (
        1e3 * np.finfo(dtype).eps)


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


@pytest.mark.parametrize("method", [discretize_lyap_p, discretize_lyap_q])
def test_lyap_methods_factor_once_per_call(method, schur_count):
    # the second call, at another horizon, reuses the kept plan
    discretize._last_plan = None
    m = stable_system(1)
    for t in (0.5, 2.0):
        method(m, t)
    assert len(schur_count) == 1


def test_lyap_p_checks_its_margin_once_per_plan(monkeypatch):
    # a kept plan with P/2 passed the margin check; a refused one keeps
    # no P/2 and raises on every call
    checks = []
    check = discretize._lyap_p_check
    monkeypatch.setattr(discretize, "_lyap_p_check",
                        lambda *args: checks.append(1) or check(*args))
    m = stable_system(1)
    for t in (0.5, 2.0, 0.5):
        discretize_lyap_p(m, t)
    assert len(checks) == 1
    m = gen_random_system(EnsembleSpec(24, 24, 0, seed=2),
                          1).astype(np.float32)
    for t in (0.5, 2.0, 0.5):
        with pytest.raises(MethodNotApplicableError, match="lyap-p requires"):
            discretize_lyap_p(m, t)
    assert len(checks) == 4


def test_exact_methods_share_one_plan(schur_count):
    discretize._last_plan = None
    m = stable_system(2)
    for t, method in zip((0.5, 2.0, 7.0, 0.5),
                         (discretize_lyap_p, discretize_lyap_q,
                          discretize_proposed, discretize_lyap_p)):
        method(m, t)
    assert len(schur_count) == 1


@settings(max_examples=25, deadline=None, derandomize=True)
@given(n=st.integers(1, 16), seed=st.integers(0, 2 ** 31 - 1),
       dtype=st.sampled_from([np.float64, np.float32]),
       ts=st.lists(st.sampled_from([1e-3, 0.1, 1.0, 10.0, 100.0]),
                   min_size=1, max_size=3))
def test_lyap_q_is_proposed_without_integrators(n, seed, dtype, ts):
    m = gen_random_system(EnsembleSpec(n, n, 0, seed=seed)).astype(dtype)
    for t in ts:
        try:
            got = discretize_lyap_q(m, t)
        except MethodNotApplicableError:
            continue
        want = cold(m, t)
        assert got.method is Method.LYAP_Q and not got.diagnostics
        assert want.diagnostics["integrator_count"] == 0.0
        assert got.model.f.tobytes() == want.model.f.tobytes()
        assert got.model.q.tobytes() == want.model.q.tobytes()


# the diagonal blocks of spectrum_model's drift, by kind, and their sizes
SPECTRUM_BLOCKS = {"stable": 1, "slow": 1, "damped": 2, "chain": 2,
                   "mirrored": 2}


def spectrum_model(kinds, seed, dtype):
    """A drift with one diagonal block per kind, rotated by a random
    orthogonal matrix, and a random PSD noise intensity: a stable pole in
    [-2, -0.2]; a slow real pole of either sign, 0.5 to 2 times tau0, about
    lyap-p's margin (tau0 takes the norm of the other blocks); a pair
    -zeta +- i omega, omega in [0.5, 2], damped by zeta = 0.5 to 2 tau0;
    an integrator pair [[0, 1], [0, 0]]; and a mirrored pair +-lambda."""
    rng = np.random.default_rng(seed)
    n = sum(SPECTRUM_BLOCKS[kind] for kind in kinds)
    b, slow, i = np.zeros((n, n)), [], 0
    for kind in kinds:
        if kind == "stable":
            b[i, i] = -rng.uniform(0.2, 2.0)
        elif kind == "slow":
            slow.append(([i], rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2)))
        elif kind == "damped":
            b[i, i + 1] = rng.uniform(0.5, 2.0)
            b[i + 1, i] = -b[i, i + 1]
            slow.append(([i, i + 1], -rng.uniform(0.5, 2.0)))
        elif kind == "chain":
            b[i, i + 1] = 1.0
        else:
            b[i, i] = rng.uniform(0.2, 2.0)
            b[i + 1, i + 1] = -b[i, i]
        i += SPECTRUM_BLOCKS[kind]
    tau0 = math.sqrt(100.0 * n * np.finfo(dtype).eps) * np.linalg.norm(b)
    for rows, scale in slow:
        b[rows, rows] = scale * tau0
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    g = rng.standard_normal((n, n))
    return ContinuousModel(u @ b @ u.T, g @ g.T / n).astype(dtype)


def outcome(call, *args):
    """The F and Q bytes of call(*args), or the type and message of the
    SdeDiscError it raised."""
    try:
        report = call(*args)
    except SdeDiscError as exc:
        return type(exc), str(exc)
    return report.model.f.tobytes(), report.model.q.tobytes()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(kinds=st.lists(st.sampled_from(list(SPECTRUM_BLOCKS)), min_size=1,
                      max_size=6),
       seed=st.integers(0, 2 ** 31 - 1),
       dtype=st.sampled_from([np.float64, np.float32]),
       t=st.sampled_from([1e-3, 1.0, 10.0]))
def test_lyap_methods_take_what_the_plan_decides(kinds, seed, dtype, t):
    # lyap-q refuses exactly where proposed's staircase found integrators,
    # raises the plan's own error, or is proposed bit for bit; lyap-p
    # returns only where the plan has no trailing block (k = n)
    m = spectrum_model(kinds, seed, dtype)
    discretize._last_plan = None
    try:
        plan = discretize._proposed_plan(m)
    except SdeDiscError as exc:
        plan = type(exc), str(exc)
    got_q = outcome(discretize_lyap_q, m, t)
    got_p = outcome(discretize_lyap_p, m, t)
    if isinstance(plan, tuple):
        assert got_q == got_p == plan
        return
    if plan.integrators:
        assert got_q == (MethodNotApplicableError,
                         lyap_q_refusal(plan.integrators))
    else:
        assert got_q == outcome(cold, m, t)
    if plan.k < m.n:
        assert got_p[0] is MethodNotApplicableError


def lyap_p_refusal(tau, max_re):
    return (f"lyap-p requires Re(lambda) < -{tau}, the margin "
            "sqrt(100 n eps) ||A||_F, for every eigenvalue; max Re(lambda) "
            f"= {max_re} is not below it")


def lyap_q_refusal(integrators):
    return (f"lyap-q not applicable: {integrators} eigenvalues are "
            "integrators, and only proposed solves that trailing block")


# the Lyapunov methods' refusal messages, pinned, for mirrored poles, an
# integrator chain and a slow pole, and the poles of the diagonal drifts
# where lyap-q answers (its message None)
LYAP_REFUSALS = [
    (np.diag([1.0, -1.0]), np.eye(2),
     lyap_p_refusal("2.980e-07", "1.000e+00"), None),
    (constant_velocity().a, constant_velocity().s,
     lyap_p_refusal("2.107e-07", "0.000e+00"), lyap_q_refusal(2)),
    (np.diag([-1.0, -1e-9, -2.0]), np.eye(3),
     lyap_p_refusal("5.771e-07", "-1.000e-09"), None),
]


@pytest.mark.parametrize("a, s, msg_p, msg_q", LYAP_REFUSALS,
                         ids=["mirrored", "constant-velocity", "slow-pole"])
def test_lyap_refusal_messages(a, s, msg_p, msg_q):
    m = ContinuousModel(a, s)
    for method, msg in ((discretize_lyap_p, msg_p),
                        (discretize_lyap_q, msg_q)):
        for warm in (False, True):
            discretize._last_plan = None
            if warm:  # checked on the plan proposed keeps
                discretize_proposed(m, 1.0)
            if msg is None:
                q = method(m, 1.0).model.q
                assert rel_err(q, diagonal_q(np.diagonal(a), 1.0)) <= 1e-14
                continue
            with pytest.raises(MethodNotApplicableError) as info:
                method(m, 1.0)
            assert str(info.value) == msg


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("method", [discretize_lyap_p, discretize_lyap_q])
def test_lyap_methods_start_from_eigenvectors(method, dtype,
                                             eigvec_starts):
    # the lyap methods factor A with the same steered Schur form as
    # proposed: from LAPACK's eigenvector basis, which these drifts accept
    for stream in range(3):
        m = gen_random_system(EnsembleSpec(16, 16, 0, seed=7), stream)
        q = method(m.astype(dtype), 1.0).model.q
        if dtype is np.float64:
            assert rel_err(q, scipy_vanloan_q(m, 1.0)) <= 1e-12
    assert eigvec_starts == [True] * 3


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1), p=st.integers(0, 2),
       ts=st.lists(st.floats(1e-3, 10.0), min_size=2, max_size=4))
def test_proposed_warm_equals_cold_property(seed, p, ts):
    m = gen_random_system(EnsembleSpec(n=5, m=5 - p, p=p, seed=seed))
    want = [cold(m, t) for t in ts]
    discretize._last_plan = None
    for t, r in zip(ts, want):
        assert same_bits(discretize_proposed(m, t), r)


# ------------------------------------------------ the Pade power table


def higham_expm(a, t):
    """exp(a t) at a's width by Higham's degree-13 Pade approximant in his
    nested form (SIMAX 26, 2005), evaluated on its own: a t scaled by 2^-s,
    s = linalg._squarings(|a|_1, |t|), U and V from its squares a2, a4,
    a6 with the coefficients b_j rounded to the width, one solve and s
    squarings.  The yardstick the package's power-table evaluator is held
    to."""
    b = np.array(_kernels._PADE13, dtype=a.dtype)
    s = linalg._squarings(linalg._norm1(a), abs(t))
    x = a * a.dtype.type(t) / a.dtype.type(2.0 ** s)
    eye = np.eye(len(a), dtype=a.dtype)
    x2 = x @ x
    x4 = x2 @ x2
    x6 = x2 @ x4
    w1 = b[13] * x6 + b[11] * x4 + b[9] * x2
    w2 = b[7] * x6 + b[5] * x4 + b[3] * x2
    z1 = b[12] * x6 + b[10] * x4 + b[8] * x2
    u = x @ (x6 @ w1 + (w2 + b[1] * eye))
    v = x6 @ z1 + b[6] * x6 + b[4] * x4 + b[2] * x2 + b[0] * eye
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def rel_fro(got, want):
    """|got - want|_F / |want|_F in binary64, both scaled by one power of
    two first, so that no norm underflows where want is tiny, as a stable
    drift's exponential is at long horizons; 0 where both are 0."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if not want.any():
        return 0.0 if not got.any() else math.inf
    e = math.frexp(float(np.abs(want).max()))[1]
    got, want = np.ldexp(got, -e), np.ldexp(want, -e)
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


def exp_error_bound(x, t, dtype):
    """The error against scipy's binary64 expm that the package's exp(x t)
    at dtype may have, by rel_fro: 4 times that of higham_expm, or
    8 (s + 1) m eps for m x m x and s squarings."""
    want = pytest.importorskip("scipy.linalg").expm(x.astype(np.float64) * t)
    s = linalg._squarings(linalg._norm1(x), t)
    yardstick = rel_fro(higham_expm(x, t), want)
    return want, max(4.0 * yardstick,
                     8 * (s + 1) * x.shape[0] * np.finfo(dtype).eps)


def test_plan_exponential_stacked_equals_one_horizon():
    for dtype in (np.float64, np.float32):
        plan = discretize._ProposedPlan(mixed_system(2).astype(dtype))
        ts = (1e-3, 0.3, 2.0, 11.0, 40.0, 100.0)
        assert len({linalg._squarings(plan.exp[0], t) for t in ts}) >= 4
        stack, fm1, ok = linalg._exp_at(plan.exp, ts)
        assert stack.dtype == fm1.dtype == dtype and ok.all()
        for t, got, got_fm1 in zip(ts, stack, fm1, strict=True):
            (alone,), (alone_fm1,), _ = linalg._exp_at(plan.exp, (t,))
            assert got.tobytes() == alone.tobytes(), t
            assert got_fm1.tobytes() == alone_fm1.tobytes(), t


def test_plan_exponential_empty_huge_and_flagged():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # k = 0: H is the nilpotent 4 x 4 [[at, st/2], [0, -at^T]], whose
        # exponential has a diagonal of exact ones at any horizon, and the
        # carried F - I one of exact zeros; at 1e300 its t^3 entries
        # overflow and are flagged
        plan = discretize._ProposedPlan(constant_velocity())
        assert plan.k == 0
        with np.errstate(over="ignore", invalid="ignore"):
            stack, fm1, ok = linalg._exp_at(plan.exp, (1.0, 1e50, 1e300))
        assert stack.shape == (3, 4, 4) and fm1.shape == (3, 2, 2)
        assert ok.tolist() == [True, True, False]
        assert (np.diagonal(stack[:2], axis1=1, axis2=2) == 1.0).all()
        assert (np.diagonal(fm1[:2], axis1=1, axis2=2) == 0.0).all()
        for dtype, huge in ((np.float64, 1e308), (np.float32, 2e38)):
            # |H|_1 = 2: at 2 huge the width is exceeded and the horizon
            # flagged, while at huge / 4 the squarings (1020 in binary64,
            # 124 in binary32) give a finite exponential
            m = ContinuousModel(np.array([[-2.0]], dtype=dtype),
                                np.array([[1.0]], dtype=dtype))
            plan = discretize._ProposedPlan(m)
            assert plan.exp[0] == 2.0
            with np.errstate(over="ignore", invalid="ignore"):
                stack, fm1, ok = linalg._exp_at(plan.exp, (huge / 4, huge))
            assert ok.tolist() == [True, False]
            assert np.isfinite(stack[0]).all() and np.isfinite(fm1[0]).all()
            good, bad = plan.reports((huge / 4, huge))
            assert np.isfinite([good.model.f, good.model.q]).all()
            assert isinstance(bad, MatrixOverflowError)
            # an exponential that overflows the width is flagged too
            m = ContinuousModel(np.array([[1.0]], dtype=dtype),
                                np.array([[1.0]], dtype=dtype))
            plan = discretize._ProposedPlan(m)
            t_over = 100.0 if dtype is np.float32 else 800.0
            good, bad = plan.reports((1.0, t_over))
            assert good.model.f[0, 0] == pytest.approx(
                math.e, rel=4 * np.finfo(dtype).eps)
            assert isinstance(bad, MatrixOverflowError)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(1, 16), p=st.integers(0, 2),
       seed=st.integers(0, 2 ** 31 - 1), squarings=st.integers(0, 10),
       frac=st.floats(0.5, 1.0, exclude_min=True),
       dtype=st.sampled_from([np.float64, np.float32]))
def test_plan_exponential_matches_scipy(n, p, seed, squarings, frac, dtype):
    # the horizon takes the table's exponential through the given number
    # of squarings; its error against scipy's binary64 expm of the same
    # H = [[at, st/2[:, k:] / 2^shift], [0, -a22^T]] is at most 4 times
    # that of higham_expm at the same width, or 8 (s + 1) m eps for m x m
    # H and s squarings; the carried F - I meets the bound of the
    # 3-column [[at, st/2[:, k:] / 2^shift, at], [0, -a22^T, 0],
    # [0, 0, 0]] on that matrix's last block column, F - I
    pytest.importorskip("scipy.linalg")
    assume(p < n)
    m = gen_random_system(EnsembleSpec(n, n - p, p, seed=seed))
    try:
        plan = discretize._ProposedPlan(m.astype(dtype))
    except SdeDiscError:
        assume(False)
    k = plan.k
    zero = np.zeros((n, n), dtype=dtype)
    s12 = np.ldexp(plan.st_half[:, k:], -plan.shift)
    h = np.block([[plan.at, s12], [zero[k:], -plan.at[k:, k:].T]])
    h3 = np.block([[plan.at, s12, plan.at],
                   [zero[k:], -plan.at[k:, k:].T, zero[k:]],
                   [zero, zero[:, k:], zero]])
    t = linalg._THETA13 * 2.0 ** squarings * frac / plan.exp[0]
    assert abs(linalg._squarings(plan.exp[0], t) - squarings) <= 1
    (got,), (fm1,), (ok,) = linalg._exp_at(plan.exp, (t,))
    assert ok and got.dtype == fm1.dtype == dtype
    want, bound = exp_error_bound(h, t, dtype)
    assert rel_fro(got, want) <= bound
    want, bound = exp_error_bound(h3, t, dtype)
    assert rel_fro(fm1, want[:n, n + p:]) <= bound


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("spec, check", [
    (EnsembleSpec(6, 4, 2, seed=7), None),
    (EnsembleSpec(16, 14, 2, seed=7), None),
    (EnsembleSpec(6, 6, 0, seed=1), discretize._lyap_p_check),
], ids=["proposed-6", "proposed-16", "lyap_p-6"])
def test_plan_exponential_gives_f_minus_i(spec, check, dtype):
    # the carried block is F - I = A G, with G the integral of
    # exp(A tau) from scipy's binary64 expm of [[A, I], [0, 0]] t;
    # F minus I would be off by about eps / (|A| t) relative, 2e-6 in
    # binary64 and 1 in binary32 at t = 1e-10
    expm = pytest.importorskip("scipy.linalg").expm
    m = gen_random_system(spec).astype(dtype)
    plan = discretize._ProposedPlan(m)
    if check:
        check(plan.ev, discretize._lyap_p_margin(m.a))
    n = m.n
    assert check is None or plan.k == n
    a = m.a.astype(np.float64)
    aug = np.block([[a, np.eye(n)], [np.zeros((n, 2 * n))]])
    u, u_inv = plan.u.astype(np.float64), plan.u_inv.astype(np.float64)
    for t in (1e-10, 1e-6, 1e-2, 1.0):
        _, (fm1,), (ok,) = linalg._exp_at(plan.exp, (t,))
        assert ok
        got = u @ fm1.astype(np.float64) @ u_inv
        want = a @ expm(aug * t)[:n, n:]
        assert rel_err(got, want) <= 1000 * np.finfo(dtype).eps, t


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(1, 12), p=st.integers(0, 2),
       seed=st.integers(0, 2 ** 31 - 1), squarings=st.integers(0, 6),
       frac=st.floats(0.5, 1.0, exclude_min=True),
       kind=st.sampled_from(["a", "vanloan", "augmented"]),
       dtype=st.sampled_from([np.float64, np.float32]))
def test_mat_exp_matches_scipy(n, p, seed, squarings, frac, kind, dtype):
    # the same bound for mat_exp on A, on Van Loan's [[A, S], [0, -A^T]]
    # and on [[A, I], [0, 0]], at a horizon that takes about the given
    # number of squarings
    pytest.importorskip("scipy.linalg")
    assume(p < n)
    m = gen_random_system(EnsembleSpec(n, n - p, p, seed=seed)).astype(dtype)
    zero = np.zeros((n, n), dtype=dtype)
    x = {"a": m.a, "vanloan": np.block([[m.a, m.s], [zero, -m.a.T]]),
         "augmented": discretize._augmented(m.a)}[kind]
    t = linalg._THETA13 * 2.0 ** squarings * frac / linalg._norm1(x)
    (got,), (ok,) = linalg._mat_exp_many(x, (t,))
    assume(ok)
    assert got.dtype == dtype
    want, bound = exp_error_bound(x, t, dtype)
    assert rel_fro(got, want) <= bound


# ------------------------------------------------------------ dispatch


def test_run_method_accepts_string_names():
    report = run_method(SCALAR, 1.0, "proposed")
    assert report.method is Method.PROPOSED


def test_run_method_unknown_name():
    with pytest.raises(ValueError):
        run_method(SCALAR, 1.0, "simpson")


# unsorted horizons with a zero, and the models each method answers or
# refuses: mirrored poles diag(1, -1), which lyap-p refuses by its margin,
# and the constant-velocity chain, whose integrators lyap-q refuses
MANY_HORIZONS = (10.0, 0.0, 1e-3, 100.0, 1.0, 0.0)
MANY_MODELS = {
    "mixed": mixed_system(1),
    "stable": stable_system(1),
    "cv": constant_velocity(),
    "mirrored": ContinuousModel(np.diag([1.0, -1.0]), np.eye(2)),
}


def one_horizon(m, t, method):
    """run_method's report at t, or the exception it raised."""
    try:
        return run_method(m, t, method)
    except Exception as exc:
        return exc


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("method", list(Method))
def test_discretize_many_is_run_method_at_each_horizon(method, dtype):
    for name, m in MANY_MODELS.items():
        m = m.astype(dtype)
        many = discretize_many(m, MANY_HORIZONS, method)
        assert len(many) == len(MANY_HORIZONS)
        for t, got in zip(MANY_HORIZONS, many):
            want = one_horizon(m, t, method)
            if isinstance(want, Exception):
                assert type(got) is type(want), (name, t)
                assert str(got) == str(want), (name, t)
            else:
                assert got.method is want.method is method
                assert got.model.horizon == want.model.horizon == t
                assert got.model.q.dtype == want.model.q.dtype
                assert same_bits(got, want), (name, t)


def test_discretize_many_records_refusals_and_overflows():
    ts = (1.0, 0.0, 2.0)
    for m, method in ((constant_velocity(), Method.LYAP_Q),
                      (MANY_MODELS["mirrored"], Method.LYAP_P)):
        refused, zero, again = discretize_many(m, ts, method)
        assert isinstance(refused, MethodNotApplicableError)
        assert isinstance(again, MethodNotApplicableError)
        assert not zero.model.q.any() and zero.model.horizon == 0.0
    # exp(46) fits binary32 but Q, about exp(92) / 2, does not, and
    # exp(100) does not fit: each horizon fails alone
    m = ContinuousModel(np.array([[1.0]], dtype=np.float32),
                        np.array([[1.0]], dtype=np.float32))
    ok, non_finite, overflow = discretize_many(m, (1.0, 46.0, 100.0),
                                               Method.VANLOAN)
    assert ok.model.q.dtype == np.float32
    assert isinstance(non_finite, NonFiniteError)
    assert isinstance(overflow, MatrixOverflowError)


@pytest.mark.parametrize("method", list(Method))
def test_discretize_many_bad_horizon_fails_the_call(method):
    for bad in (-1.0, math.nan):
        with pytest.raises(ValueError, match="sampling interval"):
            discretize_many(SCALAR, (1.0, 0.0, bad), method)
