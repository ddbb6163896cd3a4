"""Time two checkouts of the package against each other in one process:
``python3 tools/pairtime.py PARENT CHANGE --rounds 20``, each argument the
root of a checkout (the directory that holds ``src/sdedisc``).  Both
packages are imported under their own module names, and every row is timed
on both in each round, the side that goes first alternating by round, so
that a drift in host speed falls on both sides alike.

Rows: ``discretize_proposed`` cold (the kept plan dropped before every call,
so each call factors afresh) and warm (one model at many horizons, its plan
kept) at n in {6, 16, 32, 48} on ``EnsembleSpec(n, n - 2, 2, seed=7)``, four
streams per size, the warm rows at 16 horizons geometrically spaced in
[1e-2, 1e2]; ``discretize_proposed`` warm on irregular-track's first model
(``perfbench/workloads.py`` at seed 1, an n = 6 paper-ensemble model) at
that workload's own 16 log-uniform horizons in [1e-3, 1e1];
``discretize_proposed`` cold on irregular-track's rotated
index-3 chains (``EnsembleSpec(6, 3, 3, seed=0)``, its 32 streams 3, 7, ..,
127; a checkout that splits them by eigenvalue moduli starts 18 of their
Schur forms from ``A``, their eigenvector bases being too
ill-conditioned);
``discretize_proposed`` cold and warm on index-3 chains at n = 16
(``EnsembleSpec(16, 13, 3, seed=1)``, four streams), whose 3x3 integrator
block makes the plan's exponential 19 x 19;
``discretize_proposed`` cold and warm on tests/test_discretize.py's
coupled drifts at n = 16 (``coupled_system(16, 0.3, seed)``, seeds
0 .. 3), whose eigenvector bases are too ill-conditioned for the plan's
eigenbasis q11 solve, so that its back-substitution route shows at its
own row;
paper-sweep's three stacked callers at the 20 paper horizons
(``default_t_grid()``) on ``EnsembleSpec(6, 4, 2, seed=s)``, stream 0,
s = 0 .. 3: at binary32 the proposed path (a fresh ``_ProposedPlan`` and
its ``reports``) and Van Loan's ``discretize_many`` (``_vanloan_reports``
on a checkout without it), and the oracle's ``_q_oracle_many`` on the
binary64 models, as paper-sweep runs it;
the plan's exponential alone (``linalg._exp_at`` on a kept
``_ProposedPlan``'s table): ``plan exp n=16`` at T = 1 on the tables of
``EnsembleSpec(16, 14, 2, seed=7)``, four streams in turn, and ``plan exp
f32 paper`` at the 20 paper horizons on the binary32 paper-sweep models'
tables, so that the exponential's own cost shows beside the rows that
run it;
``q_oracle`` at one horizon, T = 1, on ``EnsembleSpec(n, n - 2, 2,
seed=7)``, four streams in turn, at n in {16, 48}, as the tests and
``run_method`` call it;
``discretize_lyap_p`` and ``discretize_lyap_q`` at n = 16 on
``EnsembleSpec(16, 16, 0, seed=3)``, cold (four streams in turn at T = 1,
so that each call factors afresh) and warm (the first stream at the 16
horizons of the warm ``proposed`` rows); the staircase of a cold plan
alone (``discretize._split`` at the plan's tolerance, 100 eps ||A||_F) on
``EnsembleSpec(n, n - 2, 2, seed=7)``, four streams, at n in {16, 48}, and
on the index-3 chains of the ``cold chains`` and ``p3`` rows, so that a
change to the rank decisions shows at their layer; and ``real_schur(A)``
on the drifts of tests/test_linalg.py's critically damped and coupled
repeated pair families (rotated by seeds 0-7 and 0-3) whose eigenvector
bases are refused, so that each factors from ``A`` itself (on a
checkout whose ``real_schur`` still takes a threshold, at threshold 0,
the plan's work);
binary64 unless stated.
The rows that time the package's internals name its private functions
(``_ProposedPlan``, ``_last_plan``, ``_split``, ``_exp_at``,
``_eigenvector_start``, ``_fro_norm`` and ``_q_oracle_many``); the others
call its public API.
A sample is the CPU time (``time.process_time``) per call over a fixed
batch of calls, the batch sized once per row to take about
``--sample-ms``.  Each row prints both
sides' median and quartiles in microseconds per call, the median over the
rounds of the second checkout's time relative to the first's (a paired
figure, which a drift in host speed between rounds does not move), and the
number of rounds the second checkout was faster.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # one BLAS thread, as in the benchmark

import argparse, importlib.util, inspect, statistics  # noqa: E401, E402
import sys, time  # noqa: E401, E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import IrregularTrack  # noqa: E402

SIZES = (6, 16, 32, 48)
ORACLE_SIZES = (16, 48)
STREAMS = 4
# irregular-track's chain streams: every fourth of its 128 models
CHAIN_STREAMS = range(3, 128, 4)
HORIZONS = np.geomspace(1e-2, 1e2, 16).tolist()


def load(root: str, name: str):
    """Import root/src/sdedisc as a package called name."""
    init = Path(root).resolve() / "src" / "sdedisc" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"no package at {init}")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    return pkg


def rows(pkg):
    """(label, call) per row; call() runs one operation on pkg."""
    out = []
    for warm in (False, True):
        for n in SIZES:
            models = [pkg.gen_random_system(pkg.EnsembleSpec(n, n - 2, 2,
                                                             seed=7), s)
                      for s in range(STREAMS)]
            out.append((f"proposed {'warm' if warm else 'cold'} n={n}",
                        proposed(pkg, models, warm)))
    track = IrregularTrack(pkg, 1).inputs[:IrregularTrack.horizons]
    out.append(("proposed warm track", cycle(
        [lambda op=op: pkg.discretize_proposed(op.model, op.t)
         for op in track])))
    chains = [pkg.gen_random_system(pkg.EnsembleSpec(6, 3, 3, seed=0), s)
              for s in CHAIN_STREAMS]
    out.append(("proposed cold chains", proposed(pkg, chains, False)))
    chains = [pkg.gen_random_system(pkg.EnsembleSpec(16, 13, 3, seed=1), s)
              for s in range(STREAMS)]
    for warm in (False, True):
        out.append((f"proposed {'warm' if warm else 'cold'} p3 n=16",
                    proposed(pkg, chains, warm)))
    coupled = [coupled_system(pkg, 16, 0.3, seed) for seed in range(STREAMS)]
    for warm in (False, True):
        out.append((f"proposed {'warm' if warm else 'cold'} coupled n=16",
                    proposed(pkg, coupled, warm)))
    grid = pkg.bench.default_t_grid()
    d = pkg.discretize
    many = getattr(pkg, "discretize_many", None)
    for label, width, stacked in (
            ("proposed f32 reports", np.float32,
             lambda m: d._ProposedPlan(m).reports(grid)),
            ("vanloan f32 reports", np.float32,
             (lambda m: many(m, grid, pkg.Method.VANLOAN)) if many
             else (lambda m: d._vanloan_reports(m, grid))),
            ("oracle paper", np.float64,
             lambda m: d._q_oracle_many(m, grid))):
        out.append((label, cycle([lambda m=m, f=stacked: f(m)
                                  for m in paper_models(pkg, width)])))
    linalg = pkg.linalg
    for label, width, models, ts in (
            ("plan exp n=16", np.float64,
             [pkg.gen_random_system(pkg.EnsembleSpec(16, 14, 2, seed=7), s)
              for s in range(STREAMS)], (1.0,)),
            ("plan exp f32 paper", np.float32,
             paper_models(pkg, np.float32), grid)):
        tables = [d._ProposedPlan(m.astype(width)).exp
                  for m in models]
        out.append((label, cycle([lambda x=x, ts=ts: linalg._exp_at(x, ts)
                                  for x in tables])))
    for n in ORACLE_SIZES:
        models = [pkg.gen_random_system(pkg.EnsembleSpec(n, n - 2, 2,
                                                         seed=7), s)
                  for s in range(STREAMS)]
        out.append((f"oracle one n={n}", cycle(
            [lambda m=m: d.q_oracle(m, 1.0) for m in models])))
    models = [pkg.gen_random_system(pkg.EnsembleSpec(16, 16, 0, seed=3), s)
              for s in range(STREAMS)]
    for label, method in (("lyap-p", pkg.discretize_lyap_p),
                          ("lyap-q", pkg.discretize_lyap_q)):
        out.append((f"{label} cold n=16", cycle(
            [lambda m=m, f=method: f(m, 1.0) for m in models])))
        out.append((f"{label} warm n=16", cycle(
            [lambda t=t, f=method: f(models[0], t) for t in HORIZONS])))
    for label, spec, streams in (
            ("staircase n=16", pkg.EnsembleSpec(16, 14, 2, seed=7),
             range(STREAMS)),
            ("staircase n=48", pkg.EnsembleSpec(48, 46, 2, seed=7),
             range(STREAMS)),
            ("staircase chains", pkg.EnsembleSpec(6, 3, 3, seed=0),
             CHAIN_STREAMS),
            ("staircase p3 n=16", pkg.EnsembleSpec(16, 13, 3, seed=1),
             range(STREAMS))):
        drifts = [pkg.gen_random_system(spec, s).a for s in streams]
        out.append((label, cycle(
            [lambda a=a: d._split(a, 100.0 * linalg.eps_of(a)
                                  * linalg._fro_norm(a)) for a in drifts])))
    # a real_schur that still takes a threshold gets 0, as the plan passes
    zero = (0.0,) if "tau_zero" in inspect.signature(
        linalg.real_schur).parameters else ()
    drifts = [a for a in fallback_drifts()
              if linalg._eigenvector_start(a, *np.linalg.eig(a), *zero,
                                           linalg._fro_norm(a)) is None]
    out.append(("real_schur fallback", cycle(
        [lambda a=a: linalg.real_schur(a, *zero) for a in drifts])))
    return out


def paper_models(pkg, width):
    """Paper-sweep's first systems at the given width."""
    return [pkg.gen_random_system(pkg.EnsembleSpec(6, 4, 2, seed=s))
            .astype(width) for s in range(STREAMS)]


def coupled_system(pkg, n, kappa, seed):
    """tests/test_discretize.py's coupled drift Q (D + kappa triu(N(0, 1),
    1)) Q^T with S = G G^T, D's poles uniform in (-3, -0.2)."""
    rng = np.random.default_rng([seed, n])
    poles = rng.uniform(-3.0, -0.2, n)
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diagonal(r))
    coupling = kappa * np.triu(rng.standard_normal((n, n)), 1)
    g = rng.standard_normal((n, n))
    return pkg.ContinuousModel(q @ (np.diag(poles) + coupling) @ q.T,
                               g @ g.T)


def rotated(t0, seed):
    """t0 under a random orthogonal similarity, as in tests/test_linalg.py."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal(t0.shape))
    return q @ t0 @ q.T


def fallback_drifts():
    """tests/test_linalg.py's rotated critically damped pole next to an
    integrator pair, and its coupled repeated pairs -0.5 +- 2i (2 and 3
    of them, without and with a trailing index-2 integrator chain)."""
    t0 = np.zeros((4, 4))
    t0[:2, :2] = [[-1.0, 1.0], [0.0, -1.0]]
    t0[2, 3] = 1.0
    out = [rotated(t0, seed) for seed in range(8)]
    pair = np.array([[-0.5, 2.0], [-2.0, -0.5]])
    for reps in (2, 3):
        lead = np.kron(np.eye(reps), pair) + np.kron(np.eye(reps, k=1),
                                                     np.eye(2))
        for p in (0, 2):
            t0 = np.zeros((2 * reps + p, 2 * reps + p))
            t0[:2 * reps, :2 * reps] = lead
            t0[2 * reps:, 2 * reps:] = np.eye(p, k=1)
            out += [rotated(t0, seed) for seed in range(4)]
    return out


def cycle(calls):
    """One call after another of calls, round and round."""
    state = [0]

    def call():
        calls[state[0] % len(calls)]()
        state[0] += 1
    return call


def proposed(pkg, models, warm):
    """A cold call drops the kept plan first; a warm call evaluates the
    first model at the next of HORIZONS, with its plan kept (made again by
    an untimed call when another row replaced it, see sample)."""
    d = pkg.discretize
    if warm:
        return cycle([lambda t=t: pkg.discretize_proposed(models[0], t)
                      for t in HORIZONS])

    def cold(m):
        d._last_plan = None
        pkg.discretize_proposed(m, 1.0)
    return cycle([lambda m=m: cold(m) for m in models])


def sample(call, count):
    """CPU microseconds per call over count calls, after one untimed call
    that warms a kept plan."""
    call()
    start = time.process_time()
    for _ in range(count):
        call()
    return (time.process_time() - start) / count * 1e6


def batch_size(call, sample_ms):
    """The number of calls that take about sample_ms."""
    count, spent = 1, 0.0
    while True:
        spent = sample(call, count) * count * 1e-3
        if spent >= sample_ms or count >= 1 << 16:
            break
        count *= 2
    return max(1, round(count * sample_ms / spent))


def quartiles(xs):
    return statistics.quantiles(xs, n=4, method="inclusive")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split(":")[0])
    ap.add_argument("parent", help="root of the first checkout")
    ap.add_argument("change", help="root of the second checkout")
    ap.add_argument("--rounds", type=int, default=20)
    ap.add_argument("--sample-ms", type=float, default=25.0)
    args = ap.parse_args()
    if args.rounds < 2:
        ap.error("--rounds must be at least 2")
    sides = [rows(load(root, f"sdedisc_{name}"))
             for root, name in ((args.parent, "parent"),
                                (args.change, "change"))]
    labels = [label for label, _ in sides[0]]
    counts = [batch_size(call, args.sample_ms) for _, call in sides[0]]
    times = [[[], []] for _ in labels]
    for rnd in range(args.rounds):
        order = (0, 1) if rnd % 2 == 0 else (1, 0)
        for r, count in enumerate(counts):
            for side in order:
                times[r][side].append(sample(sides[side][r][1], count))
    print(f"{args.rounds} rounds, CPU us per call: median [q1, q3]; "
          f"median of the rounds' change/parent - 1; rounds the change "
          f"was faster")
    print(f"{'row':<22}{'parent':>26}{'change':>26}{'delta':>9}{'wins':>8}")
    for label, (ta, tb) in zip(labels, times):
        cells = [f"{q2:9.1f} [{q1:7.1f}, {q3:7.1f}]"
                 for q1, q2, q3 in (quartiles(ta), quartiles(tb))]
        delta = statistics.median(b / a for a, b in zip(ta, tb)) - 1.0
        wins = sum(b < a for a, b in zip(ta, tb))
        print(f"{label:<22}{cells[0]:>26}{cells[1]:>26}"
              f"{100.0 * delta:+8.1f}%{wins:>5}/{args.rounds}")


if __name__ == "__main__":
    main()
