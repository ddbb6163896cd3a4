"""Output checks that decide whether one discretization is right.

Tolerances are relative, in the spectral norm, and depend only on the float
width the method ran at.  The forward-error tolerances sit with a wide
margin above the worst error the package gives today on the inputs the
workloads use (see README.md), so that an operation fails on a real fault
and not on a draw.  Symmetry and positive semidefiniteness are held to
rounding: the reference is positive semidefinite, so a covariance whose
lowest eigenvalue is further below zero than rounding explains is not one.
"""

import math

import numpy as np

#: forward error of Q against the binary64 reference
Q_TOL = {"float64": 1e-5, "float32": 1e1}
#: forward error of F against scipy.linalg.expm(A T)
F_TOL = {"float64": 1e-8, "float32": 1e-1}
#: asymmetry of Q, as a multiple of the width's machine epsilon
SYM_EPS = 8.0
#: lowest eigenvalue of Q, as a multiple of n * eps * ||Q_ref||
PSD_EPS = 16.0
#: agreement of a benchmark record's epsilon with the reference score;
#: the record is scored against the package's quadrature oracle, which is
#: accurate to about 1e-10 relative
EPSILON_AGREE = 1e-8


def unit_roundoff(width: str) -> float:
    return float(np.finfo(np.dtype(width)).eps) / 2.0


def rel_err(x, ref) -> float:
    x = np.asarray(x, dtype=np.float64)
    return float(np.linalg.norm(x - ref, 2) / np.linalg.norm(ref, 2))


def digits(err: float, width: str) -> float:
    """Correct decimal digits: -log10 of the error, floored at the unit
    roundoff of the width."""
    return -math.log10(max(err, unit_roundoff(width)))


def check_form(q, q_ref, width: str):
    """Problems any covariance must be free of: non-finite entries and
    asymmetry beyond rounding."""
    q = np.asarray(q, dtype=np.float64)
    if not np.isfinite(q).all():
        return ["Q not finite"]
    eps = float(np.finfo(np.dtype(width)).eps)
    if np.linalg.norm(q - q.T, 2) > SYM_EPS * eps * np.linalg.norm(q_ref, 2):
        return ["Q not symmetric"]
    return []


def check_q(q, q_ref, width: str):
    """Problems with a covariance, as a list of strings (empty when Q is
    finite, symmetric, positive semidefinite and within tolerance), and its
    forward error against the reference."""
    problems = check_form(q, q_ref, width)
    if problems == ["Q not finite"]:
        return problems, math.inf
    q = np.asarray(q, dtype=np.float64)
    eps = float(np.finfo(np.dtype(width)).eps)
    lowest = np.linalg.eigvalsh((q + q.T) / 2.0)[0]
    floor = -PSD_EPS * q.shape[0] * eps * np.linalg.norm(q_ref, 2)
    if not lowest >= floor:
        problems.append(f"Q not positive semidefinite (lowest eigenvalue "
                        f"{lowest:.3g} < {floor:.3g})")
    err = rel_err(q, q_ref)
    if not err <= Q_TOL[width]:
        problems.append(f"Q error {err:.3g} > {Q_TOL[width]:g}")
    return problems, err


def check_f(f, f_ref, width: str):
    f = np.asarray(f, dtype=np.float64)
    if not np.isfinite(f).all():
        return ["F not finite"]
    err = rel_err(f, f_ref)
    if not err <= F_TOL[width]:
        return [f"F error {err:.3g} > {F_TOL[width]:g}"]
    return []


def check_fq(f, q, ref, width: str):
    """All checks of one exact discretization against the reference
    ``ref = (F_ref, Q_ref)``: (problems, Q error)."""
    f_ref, q_ref = ref
    problems, err = check_q(q, q_ref, width)
    return check_f(f, f_ref, width) + problems, err
