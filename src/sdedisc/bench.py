"""Mixed-precision benchmark: run discretization methods in binary32
against a binary64 quadrature truth over a grid of sampling times, and
aggregate the relative spectral-norm errors."""

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SdeDiscError, MatrixOverflowError, MethodNotApplicableError
from .linalg import spectral_norm
from .models import Method
from .modelgen import EnsembleSpec, gen_random_system
from .discretize import run_method, q_oracle


def default_t_grid(points: int = 20, lo: float = 1e-2, hi: float = 1e2):
    return tuple(float(t) for t in np.geomspace(lo, hi, points))


class CellStatus(enum.Enum):
    OK = "ok"
    OVERFLOW = "overflow"
    NOT_APPLICABLE = "not_applicable"
    ERROR = "error"


@dataclass(frozen=True)
class BenchConfig:
    ensemble: EnsembleSpec = EnsembleSpec(n=6, m=4, p=2, seed=42)
    t_grid: tuple = field(default_factory=default_t_grid)
    methods: tuple = (Method.PROPOSED, Method.VANLOAN)
    oracle_tol: float = 1e-12
    runs: int = 100
    width: type = np.float32  # float width the methods run at

    def __post_init__(self):
        ts = list(self.t_grid)
        if (not ts or not all(0.0 < t < math.inf for t in ts)
                or sorted(set(ts)) != ts):
            raise ValueError(
                "t_grid must be strictly increasing, positive and finite")
        if not 0.0 < self.oracle_tol < math.inf:
            raise ValueError("oracle_tol must be positive and finite")
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        object.__setattr__(self, "t_grid", tuple(ts))
        object.__setattr__(self, "methods", tuple(self.methods))


@dataclass(frozen=True)
class BenchRecord:
    system_id: int
    method: Method
    t: float
    epsilon: float  # None unless status is OK
    status: CellStatus


def _run_cell(model_w, t, method, q_true, q_true_norm):
    """Run one method at the benchmark width and score it against the
    binary64 truth.  Failures become statuses, never exceptions."""
    try:
        report = run_method(model_w, t, method)
    except MatrixOverflowError:
        return None, CellStatus.OVERFLOW
    except MethodNotApplicableError:
        return None, CellStatus.NOT_APPLICABLE
    except (SdeDiscError, np.linalg.LinAlgError):
        return None, CellStatus.ERROR
    q_hat = np.asarray(report.model.q, dtype=np.float64)
    if not np.isfinite(q_hat).all():
        return None, CellStatus.OVERFLOW
    eps = float(spectral_norm(q_hat - q_true) / q_true_norm)
    return eps, CellStatus.OK


def run_benchmark(cfg: BenchConfig) -> list:
    """Evaluate every (system, t, method) cell.

    Systems are generated in binary64, downcast to ``cfg.width``, and each
    method runs entirely at that width.  The truth Q is quadrature at
    binary64, computed once per (system, t) and shared across methods; if
    the quadrature fails, every method's cell at that (system, t) is an
    error record.
    Record order is (system_id, t, method); identical configs yield
    identical records.
    """
    records = []
    for sid in range(cfg.runs):
        model = gen_random_system(cfg.ensemble, stream=sid)
        model_w = model.astype(cfg.width)
        for t in cfg.t_grid:
            if not cfg.methods:
                continue
            try:
                q_true = q_oracle(model, t, rel_tol=cfg.oracle_tol)
            except SdeDiscError:
                # no truth to score against: every cell at this t fails
                records.extend(BenchRecord(sid, method, t, None,
                                           CellStatus.ERROR)
                               for method in cfg.methods)
                continue
            q_true_norm = spectral_norm(q_true)
            for method in cfg.methods:
                eps, status = _run_cell(model_w, t, method,
                                        q_true, q_true_norm)
                records.append(BenchRecord(sid, method, t, eps, status))
    return records


@dataclass(frozen=True)
class SummaryRow:
    method: Method
    t: float
    median_eps: float  # None when every cell failed
    q1: float
    q3: float
    fail_rate: float


def summarize(records) -> list:
    """Aggregate per (method, t): median and quartiles of epsilon over
    ok records, plus the fraction of failed cells."""
    if not records:
        raise ValueError("no records to summarize")
    cells = {}
    order = []
    for rec in records:
        key = (rec.method, rec.t)
        if key not in cells:
            cells[key] = []
            order.append(key)
        cells[key].append(rec)
    rows = []
    for method, t in sorted(order, key=lambda k: (k[0].value, k[1])):
        group = cells[(method, t)]
        eps = sorted(r.epsilon for r in group if r.status is CellStatus.OK)
        fail_rate = 1.0 - len(eps) / len(group)
        if eps:
            q1, med, q3 = (float(v) for v in
                           np.quantile(eps, [0.25, 0.5, 0.75]))
        else:
            q1 = med = q3 = None
        rows.append(SummaryRow(method, t, med, q1, q3, fail_rate))
    return rows


def _fmt(value) -> str:
    return "" if value is None else "%.17g" % value


def records_to_csv(records) -> str:
    lines = ["system_id,method,t,epsilon,status"]
    for r in records:
        lines.append(",".join([str(r.system_id), r.method.value,
                               _fmt(r.t), _fmt(r.epsilon), r.status.value]))
    return "\n".join(lines) + "\n"


def summary_to_csv(rows) -> str:
    lines = ["method,t,median_eps,q1,q3,fail_rate"]
    for r in rows:
        lines.append(",".join([r.method.value, _fmt(r.t),
                               _fmt(r.median_eps), _fmt(r.q1), _fmt(r.q3),
                               _fmt(r.fail_rate)]))
    return "\n".join(lines) + "\n"


def write_csv(path, text: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(text)
