"""Tests of the benchmark's own reference, checks, host-speed probe and
tracer.

    python3 -m pytest -q perfbench/test_reference.py

The reference is checked against the constant-velocity closed form and
against Van Loan's augmented exponential in 40-digit mpmath arithmetic.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from reference import reference_fq  # noqa: E402


def _rel(x, ref):
    return np.linalg.norm(x - ref, 2) / np.linalg.norm(ref, 2)


@pytest.mark.parametrize("t", [1e-3, 0.37, 1.0, 25.0, 1e3])
def test_constant_velocity_closed_form(t):
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    s = np.array([[0.0, 0.0], [0.0, 1.0]])
    f, q = reference_fq(a, s, t)
    want = np.array([[t ** 3 / 3.0, t ** 2 / 2.0], [t ** 2 / 2.0, t]])
    assert _rel(q, want) < 1e-14
    assert _rel(f, np.array([[1.0, t], [0.0, 1.0]])) < 1e-15


def _mp_vanloan(a, s, t, dps=40):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        n = a.shape[0]
        aug = mpmath.zeros(2 * n, 2 * n)
        for i in range(n):
            for j in range(n):
                aug[i, j] = -mpmath.mpf(float(a[i, j])) * t
                aug[i, n + j] = mpmath.mpf(float(s[i, j])) * t
                aug[n + i, n + j] = mpmath.mpf(float(a[j, i])) * t
        e = mpmath.expm(aug)
        f = e[n:, n:].T
        q = f * e[:n, n:]
        return np.array(q.tolist(), dtype=np.float64)


# the reference's error grows with the number of doublings, from ~2e-16
# with none to ~3e-13 at T = 40 on a model with integrators (10 doublings)
@pytest.mark.parametrize("n,m,p,seed,stream,t,tol", [
    (6, 4, 2, 42, 25, 0.01, 1e-15),    # binary32 proposed is worst here
    (6, 4, 2, 82, 0, 0.01, 1e-15),
    (6, 4, 2, 131, 0, 0.7847599703514611, 1e-15),
    (12, 10, 2, 9, 6, 1e-3, 1e-15),    # binary64 proposed is worst here
    (6, 3, 3, 0, 3, 2.5, 1e-14),       # index-3 chain, fault D
    (16, 14, 2, 2, 3, 0.3, 1e-15),
    (6, 4, 2, 7, 1, 40.0, 1e-12),
])
def test_agrees_with_mpmath_vanloan(n, m, p, seed, stream, t, tol):
    from sdedisc.modelgen import EnsembleSpec, gen_random_system

    model = gen_random_system(EnsembleSpec(n, m, p, seed=seed), stream)
    want = _mp_vanloan(model.a, model.s, t)
    assert _rel(reference_fq(model.a, model.s, t)[1], want) < tol


def test_rejects_bad_horizon():
    a = np.zeros((2, 2))
    for t in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            reference_fq(a, np.eye(2), t)


@pytest.mark.parametrize("count,pct", [
    (10000, 99.9), (2048, 99.0), (1000, 99.0), (200, 95.0), (100, 90.0),
    (99, 75.0), (44, 75.0), (40, 75.0), (39, 50.0), (20, 50.0), (19, None),
])
def test_tail_percentile_has_ten_samples_beyond(count, pct):
    from run import tail_percentile

    assert tail_percentile(count) == pct


@pytest.mark.parametrize("width", ["float64", "float32"])
def test_covariance_checks_fail_on_their_own(width):
    from checks import check_fq

    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    s = np.array([[0.0, 0.0], [0.0, 1.0]])
    f_ref, q_ref = ref = reference_fq(a, s, 0.5)
    rounded = q_ref.astype(width)
    assert check_fq(f_ref.astype(width), rounded, ref, width)[0] == []
    # within the forward-error tolerance but not a covariance
    problems, err = check_fq(f_ref, -q_ref, ref, width)
    if width == "float32":
        assert err == 2.0
        assert [p for p in problems if "semidefinite" in p] == problems
    assert any("semidefinite" in p for p in problems)
    assert any("F error" in p for p in check_fq(f_ref.T, q_ref, ref, width)[0])
    assert "Q not symmetric" in check_fq(f_ref, q_ref + [[0, 1], [0, 0]],
                                         ref, width)[0]


def test_slowdown_is_the_median_kernel():
    from hostspeed import KERNELS, probe_times, slowdown

    refs = [ref for _, ref in KERNELS]
    # a host at half the reference speed: every kernel takes twice as long
    assert slowdown([[2 * r] for r in refs], [[2 * r] for r in refs]) == 2.0
    # one kernel running oddly slow in a process does not count
    odd = [[9 * refs[0]], [refs[1]], [1.5 * refs[2]]]
    assert slowdown(odd, odd) == 1.5
    times = probe_times(2)
    assert len(times) == len(KERNELS)
    assert all(len(t) == 2 and min(t) > 0 for t in times)


def test_tracer_self_times_add_up_and_originals_return():
    import sdedisc
    from sdedisc import discretize, linalg
    from tracing import Tracer

    model = sdedisc.gen_random_system(sdedisc.EnsembleSpec(6, 4, 2, seed=1))
    before = (discretize.real_schur, linalg.real_schur,
              discretize.discretize_proposed)
    tracer = Tracer()
    tracer.install()
    try:
        assert discretize.real_schur is not before[0]
        tracer.span("op", sdedisc.discretize_proposed, model, 1.0)
    finally:
        tracer.restore()
    assert (discretize.real_schur, linalg.real_schur,
            discretize.discretize_proposed) == before
    (op,) = tracer.table()
    assert op["discretize.proposed"][0] == 1
    assert op["linalg.real_schur"][0] == 1
    assert op["kernels.francis_qr"][3] > 0  # QR iterations recorded
    total_self = sum(cell[2] for cell in op.values())
    assert total_self == op["op"][1]
