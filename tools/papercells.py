"""Score binary32 ``proposed`` on the 4000 paper cells and print one line:
``python3 tools/papercells.py``.  The cells are
``EnsembleSpec(6, 4, 2, seed=s)``, s = 0 .. 199, stream 0, at the 20 paper
horizons (``default_t_grid()``).  Each system is run as ``run_benchmark``
runs it: one ``discretize_many`` call of ``proposed`` on the binary32 model
over the horizons the truth has, the truth being the binary64 oracle's Q
of the binary64 model (``discretize_many`` of ``oracle``, bit for bit the
benchmark's stacked truths).  A cell fails where the oracle or the method
raised.  Of the others the line gives the worst relative error
in the spectral norm, the count of non-PSD cells (the lowest eigenvalue of
(Q + Q^T)/2 below -6 eps32 ||Q_true||_2, n eps32 at n = 6) and the 50th and
10th percentiles of the correct digits, -log10(max(err, eps32 / 2)).
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # one BLAS thread, as in the benchmark

import math, sys  # noqa: E401, E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402
from sdedisc import (EnsembleSpec, Method, discretize_many,  # noqa: E402
                     gen_random_system)
from sdedisc.bench import default_t_grid  # noqa: E402

SEEDS = range(200)
EPS32 = float(np.finfo(np.float32).eps)


def score(seed, grid):
    """(error, non-PSD) of each cell of one system, None where it failed."""
    m = gen_random_system(EnsembleSpec(6, 4, 2, seed=seed), 0)
    truths = discretize_many(m, grid, Method.ORACLE)
    ts = [t for t, q in zip(grid, truths) if not isinstance(q, Exception)]
    reports = dict(zip(ts, discretize_many(m.astype(np.float32), ts,
                                           Method.PROPOSED)))
    out = []
    for t, truth in zip(grid, truths):
        report = reports.get(t)
        if report is None or isinstance(report, Exception):
            out.append(None)
            continue
        q_true = truth.model.q
        q = report.model.q.astype(np.float64)
        scale = np.linalg.norm(q_true, 2)
        lowest = np.linalg.eigvalsh((q + q.T) / 2.0)[0]
        out.append((np.linalg.norm(q - q_true, 2) / scale,
                    not lowest >= -6.0 * EPS32 * scale))
    return out


if __name__ == "__main__":
    grid = default_t_grid()
    cells = [c for seed in SEEDS for c in score(seed, grid)]
    scored = [c for c in cells if c is not None]
    errs = [err for err, _ in scored]
    digits = [-math.log10(max(err, EPS32 / 2.0)) for err in errs]
    print(f"cells {len(cells)} failed {len(cells) - len(scored)} "
          f"worst {max(errs, default=math.nan):.4g} "
          f"non_psd {sum(bad for _, bad in scored)} "
          f"digits_p50 {np.percentile(digits, 50):.3f} "
          f"digits_p10 {np.percentile(digits, 10):.3f}")
