"""Domain types: continuous-time and discrete-time system models."""

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, NonFiniteError
from .linalg import _unit_scaled, eps_of


class Method(enum.Enum):
    """Discretization methods (values double as CLI flag spellings)."""

    LYAP_P = "lyap-p"
    LYAP_Q = "lyap-q"
    PROPOSED = "proposed"
    VANLOAN = "vanloan"
    NAIVE_A = "naive-a"
    NAIVE_B = "naive-b"
    ORACLE = "oracle"


#: Methods computing the exact integral (as opposed to the naive foils).
EXACT_METHODS = (Method.LYAP_P, Method.LYAP_Q, Method.PROPOSED,
                 Method.VANLOAN, Method.ORACLE)


def _check_width(dtype) -> None:
    if dtype not in (np.float32, np.float64):
        raise TypeError(f"model dtype {dtype} is not float32 or float64")


def _float_width(x: np.ndarray) -> np.ndarray:
    if x.dtype.kind in "biu":
        return x.astype(np.float64)
    _check_width(x.dtype)
    return x


@dataclass(frozen=True)
class ContinuousModel:
    """Continuous-time linear stochastic system dx = A x dt + d(beta),
    with E[d(beta) d(beta)^T] = S dt.

    ``s`` is symmetrized on construction and must be positive
    semidefinite within rounding tolerance.  Integer and bool matrices
    become float64; any other dtype but float32/float64 raises TypeError.
    """

    a: np.ndarray
    s: np.ndarray

    def __post_init__(self):
        a, s = (_float_width(np.asarray(x)) for x in (self.a, self.s))
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionError(f"drift must be square, got {a.shape}")
        if s.shape != a.shape:
            raise DimensionError(
                f"noise intensity shape {s.shape} != drift shape {a.shape}")
        if not (np.isfinite(a).all() and np.isfinite(s).all()):
            raise NonFiniteError("model matrices must be finite")
        # halves first, so that entries near the width's maximum do not
        # overflow; the norm and the spectrum are taken of s in binary64,
        # scaled by a power of two to entries below 1, for the same reason
        half = s.dtype.type(0.5)
        s = half * s + half * s.T
        s1, _ = _unit_scaled(s.astype(np.float64))
        snorm = float(np.linalg.norm(s1))
        if snorm > 0.0:
            tau_psd = 100.0 * a.shape[0] * eps_of(s) * snorm
            lowest = float(np.linalg.eigvalsh(s1)[0])
            if lowest < -tau_psd:
                raise ValueError(
                    "noise intensity is not positive semidefinite (min "
                    f"eigenvalue {lowest / snorm:.3e} relative to its norm)")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "s", s)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def dtype(self):
        return self.a.dtype

    def astype(self, dtype) -> "ContinuousModel":
        """This model at another width, float32 or float64, else TypeError;
        NonFiniteError if it overflows."""
        _check_width(np.dtype(dtype))
        with np.errstate(over="ignore"):
            a, s = self.a.astype(dtype), self.s.astype(dtype)
        if not (np.isfinite(a).all() and np.isfinite(s).all()):
            raise NonFiniteError(f"model entries overflow {a.dtype.name}")
        return ContinuousModel(a, s)


@dataclass(frozen=True)
class DiscreteModel:
    """Discrete-time equivalent x_{k+1} = F x_k + w_k, Cov[w_k] = Q,
    over the sampling interval ``horizon``.  Construction raises
    NonFiniteError unless ``f`` and ``q`` are finite, so no method returns
    a result that overflowed its float width."""

    f: np.ndarray
    q: np.ndarray
    horizon: float

    def __post_init__(self):
        for name in ("f", "q"):
            if not np.isfinite(getattr(self, name)).all():
                raise NonFiniteError(
                    f"discrete model {name} at horizon {self.horizon:g} "
                    "contains non-finite entries")


@dataclass(frozen=True)
class MethodReport:
    """A discretization result together with which method produced it and
    the named scalars only that method knows: ``split_index`` and
    ``integrator_count`` for ``proposed``, none for the others.
    Certificates such as ``lemma2_residual`` are computed from the result
    by whoever wants them."""

    model: DiscreteModel
    method: Method
    diagnostics: dict = field(default_factory=dict)
