"""Domain types: continuous-time and discrete-time system models."""

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, NonFiniteError
from .linalg import eps_of


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


def _float_width(x: np.ndarray) -> np.ndarray:
    if x.dtype.kind in "biu":
        return x.astype(np.float64)
    if x.dtype not in (np.float32, np.float64):
        raise TypeError(f"model dtype {x.dtype} is not float32 or float64")
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
        s = (s + s.T) / s.dtype.type(2)
        snorm = float(np.linalg.norm(s))
        if snorm > 0.0:
            tau_psd = 100.0 * a.shape[0] * eps_of(s) * snorm
            lowest = float(np.linalg.eigvalsh(s)[0])
            if lowest < -tau_psd:
                raise ValueError(
                    "noise intensity is not positive semidefinite "
                    f"(min eigenvalue {lowest:.3e})")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "s", s)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def dtype(self):
        return self.a.dtype

    def astype(self, dtype) -> "ContinuousModel":
        return ContinuousModel(self.a.astype(dtype), self.s.astype(dtype))


@dataclass(frozen=True)
class DiscreteModel:
    """Discrete-time equivalent x_{k+1} = F x_k + w_k, Cov[w_k] = Q,
    over the sampling interval ``horizon``."""

    f: np.ndarray
    q: np.ndarray
    horizon: float


@dataclass(frozen=True)
class MethodReport:
    """A discretization result together with which method produced it and
    named diagnostic scalars (NaN marks a diagnostic that does not apply)."""

    model: DiscreteModel
    method: Method
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        for key in ("sylvester_residual", "lemma2_residual"):
            self.diagnostics.setdefault(key, float("nan"))
