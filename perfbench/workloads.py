"""The benchmark's workloads: how each builds its inputs from the seed, what
one operation is, and how its output is checked.

Every workload builds a fixed list of distinct inputs; a run makes whole
passes over that list, so the work done (and so the share of failed
operations) depends on the seed and the pass count only, never on the clock.
One pass fills about 20 s on 2 CPUs, so that at the usual run length no
input is repeated and nothing the program might cache is reused.

A workload's constructor calls ``tick`` after each model it builds, so that
set-up is timed in short segments, each scaled to the reference host speed
by the probes on either side (``hostspeed.SegmentClock``).
"""

import math
from dataclasses import dataclass

import numpy as np

# checks and reference import scipy; they are imported only once the timed
# loop is over, so that the loop's peak RSS is the package's own

#: fault D (ROADMAP item D): the default integrator threshold scales with
#: sqrt(eps) and only covers integrator chains of index <= 2, so an index-3
#: chain is misclassified and Q comes back wrong while its certificate passes
FAULT_D = "D: index-3 integrator chain misclassified (integrator_count = 0)"
#: at binary32, discretize_proposed returns an indefinite covariance at the
#: short horizons of the paper grid (T = 0.01 to 0.07) for these paper
#: ensemble systems (EnsembleSpec(6, 4, 2, seed=s), stream 0): its lowest
#: eigenvalue lies 75 to 1.8e6 times n * eps * ||Q_ref|| below zero, and its
#: error is 2e-3 to 1.5; the other 38 systems stay within 4.3 times
FAULT_S = "S: binary32 proposed returns an indefinite Q at short horizons"
INDEFINITE_SYSTEMS = frozenset({21, 23, 27, 32, 35, 41})


@dataclass(frozen=True)
class Op:
    """One operation's input: a binary64 model and a horizon, or a paper
    benchmark configuration.  ``fault`` names the known program fault the
    operation is expected to fail on, if any."""

    model: object
    t: float
    config: object = None
    fault: str | None = None


def _log_uniform(rng, lo, hi, size):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), size))


class PaperSweep:
    """``sdedisc bench`` one system at a time: binary32 proposed and Van Loan
    over the 20-point horizon grid, scored against the binary64 oracle.

    The systems are fixed, ensemble seeds 0 .. systems-1; the workload seed
    only sets their order.  Binary32 accuracy differs so much from one
    system to the next that a seeded draw of 44 systems moves digits_p10 by
    about a fifth between seeds, more than any bound could absorb.  Six of
    the systems fail on fault S in every run."""

    name = "paper-sweep"
    width = "float32"
    systems = 44
    pass_seconds = 19.0  # nominal length of one pass on 2 CPUs
    probes = 8  # host-speed probes between operations (hostspeed.py)

    def __init__(self, sd, seed: int, tick=lambda: None):
        self.sd = sd
        order = np.random.default_rng([int(seed), 1]).permutation(self.systems)
        self.inputs = [
            Op(model=None, t=math.nan, config=sd.BenchConfig(
                ensemble=sd.EnsembleSpec(6, 4, 2, seed=int(s)), runs=1),
               fault=FAULT_S if s in INDEFINITE_SYSTEMS else None)
            for s in order]
        # the same system every time, so that set-up does not vary with
        # which system the seed puts first
        self.warmup = self.inputs[int(np.argmin(order))]

    def run(self, op):
        """run_benchmark on one system, keeping each cell's report (or the
        exception it raised) so that the covariances can be checked."""
        bench = self.sd.bench
        cells = []
        inner = bench.run_method

        def recording(*args, **kwargs):
            try:
                report = inner(*args, **kwargs)
            except Exception as exc:
                cells.append(exc)
                raise
            cells.append(report)
            return report

        bench.run_method = recording
        try:
            records = bench.run_benchmark(op.config)
        finally:
            bench.run_method = inner
        return records, cells

    def reference(self, op):
        from reference import reference_fq

        model = self.sd.gen_random_system(op.config.ensemble, stream=0)
        return {t: reference_fq(model.a, model.s, t)
                for t in op.config.t_grid}

    def check(self, op, out, ref):
        from checks import EPSILON_AGREE, check_fq, check_form, rel_err

        sd = self.sd
        records, cells = out
        grid = list(op.config.t_grid)
        methods = list(op.config.methods)
        want = [(t, m) for t in grid for m in methods]
        if [(r.t, r.method) for r in records] != want or \
                len(cells) != len(records):
            return ["records do not cover the (horizon, method) grid"], []
        problems, samples, overflow = [], [], []
        for rec, cell in zip(records, cells):
            ok = rec.status is sd.CellStatus.OK
            where = f"{rec.method.value} t={rec.t:.4g}"
            if rec.method is sd.Method.PROPOSED:
                if not ok:
                    problems.append(f"{where}: status {rec.status.value}")
                    continue
                found, err = check_fq(cell.model.f, cell.model.q,
                                      ref[rec.t], self.width)
                samples.append(err)
            elif rec.status is sd.CellStatus.OVERFLOW:
                overflow.append(rec.t)
                continue
            elif not ok:
                problems.append(f"{where}: status {rec.status.value}")
                continue
            else:
                # Van Loan is the paper's foil: its error may be any size,
                # but the covariance must be finite and symmetric
                q_ref = ref[rec.t][1]
                found = check_form(cell.model.q, q_ref, self.width)
                err = rel_err(cell.model.q, q_ref)
            problems += [f"{where}: {p}" for p in found]
            if not abs(rec.epsilon - err) <= EPSILON_AGREE * (1.0 + err):
                problems.append(f"{where}: record epsilon {rec.epsilon:.6g} "
                                f"!= reference score {err:.6g}")
        if overflow and overflow != grid[grid.index(overflow[0]):]:
            problems.append(f"vanloan overflow not monotone in t: {overflow}")
        return problems, samples


class _DiscretizeWorkload:
    """One ``discretize_proposed`` call at binary64 per operation."""

    width = "float64"

    @property
    def warmup(self):
        return self.inputs[0]

    def run(self, op):
        # keep only the arrays: holding every report would make the
        # collector's full passes, and so the timings, grow along the run
        model = self.sd.discretize_proposed(op.model, op.t).model
        return model.f, model.q

    def reference(self, op):
        from reference import reference_fq

        return reference_fq(op.model.a, op.model.s, op.t)

    def check(self, op, out, ref):
        from checks import check_fq

        f, q = out
        problems, err = check_fq(f, q, ref, self.width)
        return problems, [err]


class IrregularTrack(_DiscretizeWorkload):
    """A filter's per-step cost: n = 6 tracking models, each sampled at
    many log-uniform horizons.  Every fourth model is a rotated index-3 chain
    (m = 3, p = 3) that does not depend on the seed and fails on fault D; the
    others are the paper ensemble (m = 4, p = 2)."""

    name = "irregular-track"
    models = 128
    horizons = 16
    t_range = (1e-3, 1e1)
    pass_seconds = 16.5
    probes = 1

    def __init__(self, sd, seed: int, tick=lambda: None):
        self.sd = sd
        self.inputs = []
        rng = np.random.default_rng([int(seed), 2])
        fixed = np.random.default_rng([0, 3])
        for j in range(self.models):
            if j % 4 == 3:
                spec = sd.EnsembleSpec(6, 3, 3, seed=0)
                draw, fault = fixed, FAULT_D
            else:
                spec = sd.EnsembleSpec(6, 4, 2,
                                       seed=int(rng.integers(2 ** 31)))
                draw, fault = rng, None
            model = sd.gen_random_system(spec, stream=j)
            for t in _log_uniform(draw, *self.t_range, self.horizons):
                self.inputs.append(Op(model=model, t=float(t), fault=fault))
            tick()


class LargeState(_DiscretizeWorkload):
    """Python-loop O(n^3) kernels: a fresh n = 16 model (m = 14, p = 2) at
    one log-uniform horizon per operation, so nothing factored once per
    model could be reused."""

    name = "large-state"
    models = 100
    t_range = (1e-3, 1e1)
    pass_seconds = 14.5
    probes = 4

    def __init__(self, sd, seed: int, tick=lambda: None):
        self.sd = sd
        rng = np.random.default_rng([int(seed), 3])
        spec = sd.EnsembleSpec(16, 14, 2, seed=int(rng.integers(2 ** 31)))
        ts = _log_uniform(rng, *self.t_range, self.models)
        self.inputs = []
        for j, t in enumerate(ts):
            self.inputs.append(Op(model=sd.gen_random_system(spec, stream=j),
                                  t=float(t)))
            tick()


WORKLOADS = {w.name: w for w in (PaperSweep, IrregularTrack, LargeState)}
