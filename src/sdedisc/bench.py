"""Mixed-precision benchmark: run discretization methods in binary32
against a binary64 oracle truth over a grid of sampling times, and
aggregate the relative spectral-norm errors."""

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (SdeDiscError, MatrixOverflowError,
                     MethodNotApplicableError, NonFiniteError)
from .models import Method
from .modelgen import EnsembleSpec, gen_random_system
from . import discretize
from .discretize import (_proposed_plan, _q_oracle_many, _unwrap,
                         _vanloan_reports)
from .linalg import _spectral_norms


# the paper's sampling intervals: 20 log-spaced from 1e-2 to 1e2
_T_POINTS, _T_LO, _T_HI = 20, 1e-2, 1e2


def default_t_grid():
    return tuple(float(t) for t in np.geomspace(_T_LO, _T_HI, _T_POINTS))


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
    runs: int = 100
    width: type = np.float32  # float width the methods run at

    def __post_init__(self):
        ts = list(self.t_grid)
        if (not ts or not all(0.0 < t < math.inf for t in ts)
                or sorted(set(ts)) != ts):
            raise ValueError(
                "t_grid must be strictly increasing, positive and finite")
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if np.dtype(self.width) not in (np.float32, np.float64):
            raise ValueError(f"width {self.width} is not float32 or float64")
        object.__setattr__(self, "t_grid", tuple(ts))
        # a name such as "proposed" becomes its Method, and an unknown one
        # raises ValueError here rather than mid-run
        object.__setattr__(self, "methods", tuple(map(Method, self.methods)))


@dataclass(frozen=True)
class BenchRecord:
    system_id: int
    method: Method
    t: float
    epsilon: float  # None unless status is OK
    status: CellStatus


def run_method(m, t, method, ahead=None):
    """One benchmark cell's report: ``ahead``, the report or error computed
    ahead for the cell, is returned or raised; without it the cell is
    discretize.run_method(m, t, method).  Every cell is one call of this
    function, so a wrapper of ``bench.run_method`` sees each cell's
    report."""
    if ahead is None:
        return discretize.run_method(m, t, method)
    return _unwrap(ahead)


def _run_cell(model_w, t, method, ahead=None):
    """Run one method at the benchmark width: (report, OK), or (None, the
    failure's status).  Failures become statuses, never exceptions."""
    try:
        return run_method(model_w, t, method, ahead), CellStatus.OK
    except (MatrixOverflowError, NonFiniteError):
        # the model is finite, so a non-finite result overflowed the width
        return None, CellStatus.OVERFLOW
    except MethodNotApplicableError:
        return None, CellStatus.NOT_APPLICABLE
    except (SdeDiscError, np.linalg.LinAlgError):
        return None, CellStatus.ERROR


def _stacked(model_w, ts, method) -> list:
    """Proposed or Van Loan at every horizon of ts in one stacked pass: a
    report or error per horizon.  A model whose proposed plan fails has
    that error at every horizon."""
    try:
        if method is Method.PROPOSED:
            return _proposed_plan(model_w).reports(ts)
        return _vanloan_reports(model_w, ts)
    except (SdeDiscError, np.linalg.LinAlgError) as exc:
        return [exc] * len(ts)


def run_benchmark(cfg: BenchConfig) -> list:
    """Evaluate every (system, t, method) cell.

    Systems are generated in binary64, downcast to ``cfg.width``, and each
    method runs entirely at that width.  The truth Q is q_oracle's at
    binary64, computed once per system over the whole grid and shared
    across methods; if the oracle fails at some t, every method's cell
    at that (system, t) is an error record.  Each other cell is one
    run_method call, in (t, method) order; proposed and Van Loan cells are
    handed the entry of one stacked pass per system over the horizons
    that have a truth.
    A system's truths and scored Q_hat - Q_true fill one binary64 stack,
    normed by one symmetric eigensolve (linalg._spectral_norms).
    Record order is (system_id, t, method); identical configs yield
    identical records.
    """
    records = []
    for sid in range(cfg.runs):
        model = gen_random_system(cfg.ensemble, stream=sid)
        model_w = model.astype(cfg.width)
        if not cfg.methods:
            continue
        truths = _q_oracle_many(model, cfg.t_grid)
        ts = [t for t, q in zip(cfg.t_grid, truths)
              if not isinstance(q, SdeDiscError)]
        ahead = {(method, t): out for method in cfg.methods
                 if method in (Method.PROPOSED, Method.VANLOAN)
                 for t, out in zip(ts, _stacked(model_w, ts, method))}
        cells = []  # (t, method, report, status, the truth's grid index)
        for i, (t, q_true) in enumerate(zip(cfg.t_grid, truths)):
            for method in cfg.methods:
                if isinstance(q_true, SdeDiscError):
                    # no truth to score against: the cell fails
                    report, status = None, CellStatus.ERROR
                else:
                    report, status = _run_cell(model_w, t, method,
                                               ahead.get((method, t)))
                cells.append((t, method, report, status, i))
        scored = [(report.model.q, i) for _, _, report, _, i in cells
                  if report is not None]
        stack = np.empty((len(truths) + len(scored), model.n, model.n))
        for j, q_true in enumerate(truths):
            stack[j] = 0.0 if isinstance(q_true, SdeDiscError) else q_true
        for j, (q_hat, i) in enumerate(scored, len(truths)):
            np.subtract(q_hat, stack[i], out=stack[j])
        norms = _spectral_norms(stack)
        errs = iter((norms[len(truths):] / norms[[i for _, i in scored]])
                    .tolist())
        records.extend(BenchRecord(sid, method, t,
                                   None if report is None else next(errs),
                                   status)
                       for t, method, report, status, _ in cells)
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
    for rec in records:
        cells.setdefault((rec.method, rec.t), []).append(rec)
    rows = []
    for method, t in sorted(cells, key=lambda k: (k[0].value, k[1])):
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
