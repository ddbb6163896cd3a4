"""Construction of test systems: the random benchmark ensemble, the
constant-velocity fixture, and observer-canonical-form builders."""

from dataclasses import dataclass

import numpy as np

from .models import ContinuousModel
from .linalg import spectral_norm

# real parts of the stable poles are drawn uniformly from this interval
_POLE_REAL_RANGE = (-1.0, -0.05)


@dataclass(frozen=True)
class EnsembleSpec:
    """Recipe for one random system: m stable poles plus p integrators,
    normalized so the fastest pole sits at distance 1 from the imaginary
    axis.  Fully determined by (spec, seed)."""

    n: int
    m: int
    p: int
    seed: int = 0

    def __post_init__(self):
        if min(self.m, self.p) < 0 or not 1 <= self.n == self.m + self.p:
            raise ValueError(f"need n = m + p >= 1 with m, p >= 0, got "
                             f"n={self.n}, m={self.m}, p={self.p}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def _rng_for(spec: EnsembleSpec, stream: int = 0) -> np.random.Generator:
    # one independent, order-invariant stream per (seed, system index)
    return np.random.default_rng([int(spec.seed), int(stream)])


def gen_random_system(spec: EnsembleSpec, stream: int = 0) -> ContinuousModel:
    """Draw one system from the ensemble, in binary64.

    ``stream`` selects an independent substream (the benchmark uses the
    system index) so systems can be generated in any order.
    """
    if stream < 0:
        raise ValueError(f"stream must be >= 0, got {stream}")
    rng = _rng_for(spec, stream)
    n, m, p = spec.n, spec.m, spec.p
    lo, hi = _POLE_REAL_RANGE

    core = np.zeros((m, m))
    reals = []
    i = 0
    while i < m:
        re = rng.uniform(lo, hi)
        if m - i >= 2 and rng.random() < 0.5:
            im = rng.uniform(0.05, 1.0)
            core[i:i + 2, i:i + 2] = [[re, im], [-im, re]]
            reals += [re, re]
            i += 2
        else:
            core[i, i] = re
            reals.append(re)
            i += 1

    a = np.zeros((n, n))
    a[:m, :m] = core
    for j in range(p - 1):
        a[m + j, m + j + 1] = 1.0  # single nilpotent chain
    if m and p:
        a[:m, m:] = rng.standard_normal((m, p))

    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diagonal(r))  # deterministic sign convention
    a = q @ a @ q.T
    if m:
        a = a / max(abs(v) for v in reals)  # fastest pole to Re = -1

    g = rng.standard_normal((n, n))
    s = g @ g.T
    s = s / spectral_norm(s)
    return ContinuousModel(a, s)


def constant_velocity() -> ContinuousModel:
    """The classic two-state constant-velocity model: position driven by
    an integrated white-noise velocity."""
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    s = np.array([[0.0, 0.0], [0.0, 1.0]])
    return ContinuousModel(a, s)


def observer_canonical(a_coeffs, b_coeffs, p: int = 0) -> ContinuousModel:
    """SISO system with transfer function
    (b1 s^(m-1) + ... + bm) / ((s^m + a1 s^(m-1) + ... + am) s^p)
    realized in observer canonical form: block triangular by construction,
    with the p integrators trailing."""
    a_coeffs = [float(v) for v in a_coeffs]
    b_coeffs = [float(v) for v in b_coeffs]
    m = len(a_coeffs)
    if len(b_coeffs) != m:
        raise ValueError("need equally many numerator and denominator "
                         "coefficients")
    if m == 0:
        raise ValueError("need at least one non-zero pole")
    if p < 0:
        raise ValueError("integrator count must be >= 0")
    if a_coeffs[-1] == 0.0:
        raise ValueError("a_m = 0 means a pole at the origin; move it into "
                         "the integrator count p instead")
    n = m + p
    a = np.zeros((n, n))
    for i in range(m):
        a[i, 0] = -a_coeffs[i]
    for i in range(n - 1):
        a[i, i + 1] = 1.0
    b = np.zeros((n, 1))
    for k in range(m):
        b[p + k, 0] = b_coeffs[k]
    return ContinuousModel(a, b @ b.T)


FIXTURES = {
    "constant-velocity": constant_velocity,
}
