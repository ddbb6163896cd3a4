"""Independent binary64 reference for the noise covariance.

Q(T) = int_0^T exp(A tau) S exp(A^T tau) dtau is computed without the
package under test: Van Loan's augmented exponential, taken with
``scipy.linalg.expm`` at a step h small enough that ||A||_1 * h <= 0.5 (so
the augmented exponential neither loses accuracy nor grows), and carried to
T by exact interval doubling

    Q(2h) = F(h) Q(h) F(h)^T + Q(h),    F(h) = expm(A h).

Each F(h) is a fresh ``expm`` rather than the square of the previous one, so
rounding in F does not compound over the doublings.

Nothing here imports ``sdedisc``.
"""

import math

import numpy as np
import scipy.linalg

#: largest ||A||_1 * h at which the augmented exponential is taken
STEP_NORM = 0.5


def vanloan_q(a: np.ndarray, s: np.ndarray, h: float) -> np.ndarray:
    """Q at a single step h from exp([[-A, S], [0, A^T]] h)."""
    n = a.shape[0]
    aug = np.zeros((2 * n, 2 * n))
    aug[:n, :n] = -a
    aug[:n, n:] = s
    aug[n:, n:] = a.T
    e = scipy.linalg.expm(aug * h)
    q = e[n:, n:].T @ e[:n, n:]
    return (q + q.T) / 2.0


def reference_fq(a, s, t: float):
    """Binary64 (F, Q) at horizon t > 0 by a short Van Loan step and
    interval doubling."""
    a = np.asarray(a, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    t = float(t)
    if not (t > 0.0 and math.isfinite(t)):
        raise ValueError(f"horizon must be positive and finite, got {t}")
    norm1 = float(np.abs(a).sum(axis=0).max())
    doublings = math.ceil(math.log2(norm1 * t / STEP_NORM)) \
        if norm1 * t > STEP_NORM else 0
    h = t / 2.0 ** doublings
    q = vanloan_q(a, s, h)
    for _ in range(doublings):
        f = scipy.linalg.expm(a * h)
        q = f @ q @ f.T + q
        q = (q + q.T) / 2.0
        h *= 2.0
    return scipy.linalg.expm(a * t), q
