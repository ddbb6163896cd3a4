"""Exact discretization of continuous-time linear stochastic systems.

Given dx = A x dt + d(beta) with noise intensity S, compute the
discrete-time transition matrix F = exp(A T) and process noise
covariance Q = int_0^T exp(A tau) S exp(A^T tau) dtau without
quadrature, including systems with integrators (zero eigenvalues).
"""

from . import _backend  # noqa: F401  (read by perfbench/run.py)
from .errors import (SdeDiscError, DimensionError, NonFiniteError,
                     MatrixOverflowError, ConvergenceError,
                     ClassificationError, NilpotencyError,
                     MethodNotApplicableError)
from .models import ContinuousModel, DiscreteModel, Method, MethodReport
from .linalg import mat_exp, spectral_norm
from .discretize import (discretize_lyap_p, discretize_lyap_q,
                         discretize_proposed, discretize_vanloan,
                         naive_q_a, naive_q_b, q_oracle, q_nilpotent,
                         run_method, lemma2_residual, semigroup_residual)
from .modelgen import (EnsembleSpec, gen_random_system, constant_velocity,
                       observer_canonical)
from .bench import (BenchConfig, BenchRecord, CellStatus, SummaryRow,
                    run_benchmark, summarize)

__version__ = "0.1.0"

__all__ = [
    "SdeDiscError", "DimensionError", "NonFiniteError",
    "MatrixOverflowError", "ConvergenceError", "ClassificationError",
    "NilpotencyError", "MethodNotApplicableError",
    "ContinuousModel", "DiscreteModel", "Method", "MethodReport",
    "mat_exp", "spectral_norm",
    "discretize_lyap_p", "discretize_lyap_q", "discretize_proposed",
    "discretize_vanloan", "naive_q_a", "naive_q_b", "q_oracle",
    "q_nilpotent", "run_method", "lemma2_residual", "semigroup_residual",
    "EnsembleSpec", "gen_random_system", "constant_velocity",
    "observer_canonical",
    "BenchConfig", "BenchRecord", "CellStatus", "SummaryRow",
    "run_benchmark", "summarize",
]
