"""Acceptance suite.  Each test covers one release criterion (A1-A8) at
its stated tolerance and prints a single PASS/FAIL line (visible with
``pytest -s`` or on failure)."""

import math
import time

import numpy as np
import pytest

from sdedisc.bench import BenchConfig, CellStatus, run_benchmark, \
    summarize, records_to_csv, summary_to_csv
from sdedisc.discretize import (discretize_lyap_q, discretize_proposed,
                                q_oracle, run_method, naive_q_b,
                                lemma2_residual, semigroup_residual)
from sdedisc.errors import MethodNotApplicableError
from sdedisc.linalg import mat_exp, spectral_norm
from sdedisc.models import ContinuousModel, Method
from sdedisc.modelgen import EnsembleSpec, gen_random_system, \
    constant_velocity


def rel_err(got, want):
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    return spectral_norm(got - want) / max(spectral_norm(want), 1e-300)


def report(name, ok, detail):
    line = f"{name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def stable_systems(count, seed=2024):
    spec = EnsembleSpec(n=6, m=6, p=0, seed=seed)
    return [gen_random_system(spec, stream=i) for i in range(count)]


def integrator_systems(count, seed=2024):
    spec = EnsembleSpec(n=6, m=4, p=2, seed=seed)
    return [gen_random_system(spec, stream=i) for i in range(count)]


# shared across A2/A4: (model, t, method) -> MethodReport
_A2_REPORTS = {}
_A3_REPORTS = {}


@pytest.fixture(scope="module", autouse=True)
def warm_kernels():
    """Run the kernels once at both widths before any timed criterion."""
    m = gen_random_system(EnsembleSpec(n=3, m=2, p=1, seed=0))
    for width in (np.float64, np.float32):
        discretize_proposed(m.astype(width), 1.0)
    q_oracle(m, 1.0)


def test_a1_constant_velocity_golden():
    start = time.perf_counter()
    cv = constant_velocity()
    worst = 0.0
    for t in (0.1, 1.0, 10.0):
        fref = np.array([[1.0, t], [0.0, 1.0]])
        qref = np.array([[t ** 3 / 3, t ** 2 / 2], [t ** 2 / 2, t]])
        for method in (Method.PROPOSED, Method.VANLOAN, Method.ORACLE):
            rep = run_method(cv, t, method)
            _A3_REPORTS[(id(cv), t, method)] = (cv, rep)
            worst = max(worst, rel_err(rep.model.q, qref),
                        rel_err(rep.model.f, fref))
    elapsed = time.perf_counter() - start
    report("A1 constant-velocity golden case",
           worst <= 1e-10 and elapsed < 1.0,
           f"max rel err {worst:.2e}, {elapsed:.2f}s")


def test_a2_cross_method_oracle_equivalence():
    start = time.perf_counter()
    methods = (Method.LYAP_P, Method.LYAP_Q, Method.PROPOSED,
               Method.VANLOAN)
    worst_pair, worst_oracle = 0.0, 0.0
    for m in stable_systems(50):
        for t in (0.01, 0.1, 1.0, 10.0):
            reps = {meth: run_method(m, t, meth) for meth in methods}
            for meth, rep in reps.items():
                _A2_REPORTS[(id(m), t, meth)] = (m, rep)
            q_true = q_oracle(m, t)
            qs = [rep.model.q for rep in reps.values()]
            for i in range(len(qs)):
                for j in range(i + 1, len(qs)):
                    worst_pair = max(worst_pair, rel_err(qs[i], qs[j]))
                worst_oracle = max(worst_oracle, rel_err(qs[i], q_true))
    elapsed = time.perf_counter() - start
    report("A2 cross-method oracle equivalence (50 stable systems)",
           worst_pair <= 1e-8 and worst_oracle <= 1e-6 and elapsed < 30.0,
           f"pairwise {worst_pair:.2e}, vs oracle {worst_oracle:.2e}, "
           f"{elapsed:.1f}s")


def test_a3_integrator_equivalence():
    start = time.perf_counter()
    worst = 0.0
    refused = 0
    systems = integrator_systems(50)
    for m in systems:
        for t in (0.1, 1.0, 10.0):
            rep = discretize_proposed(m, t)
            _A3_REPORTS[(id(m), t, Method.PROPOSED)] = (m, rep)
            worst = max(worst, rel_err(rep.model.q, q_oracle(m, t)))
        try:
            discretize_lyap_q(m, 1.0)
        except MethodNotApplicableError:
            refused += 1
    elapsed = time.perf_counter() - start
    report("A3 integrator equivalence (50 mixed systems)",
           worst <= 1e-6 and refused == 50 and elapsed < 30.0,
           f"vs oracle {worst:.2e}, lyap-q refused {refused}/50, "
           f"{elapsed:.1f}s")


def test_a4_lemma_certificates():
    worst_lemma, worst_semi = 0.0, 0.0
    outputs = list(_A2_REPORTS.items()) + list(_A3_REPORTS.items())
    assert outputs, "A2/A3 must run before A4"
    for (_, t, meth), (m, rep) in outputs:
        worst_lemma = max(worst_lemma,
                          lemma2_residual(m, rep.model.f, rep.model.q))
    # semigroup residuals on a deterministic subsample (3 runs per check)
    for m in stable_systems(5) + integrator_systems(5):
        for meth in (Method.PROPOSED, Method.VANLOAN):
            worst_semi = max(worst_semi,
                             semigroup_residual(m, meth, 0.5, 0.5))
    for m in stable_systems(5):
        for meth in (Method.LYAP_P, Method.LYAP_Q):
            worst_semi = max(worst_semi,
                             semigroup_residual(m, meth, 0.5, 0.5))
    scalar = ContinuousModel(np.array([[-1.0]]), np.array([[2.0]]))
    foil = semigroup_residual(scalar, Method.NAIVE_B, 1.0, 1.0)
    report("A4 lemma certificates",
           worst_lemma <= 1e-9 and worst_semi <= 1e-9 and foil > 0.1,
           f"lemma {worst_lemma:.2e}, semigroup {worst_semi:.2e}, "
           f"naive-b foil {foil:.3f}")


def test_a5_precision_trend():
    start = time.perf_counter()
    cfg = BenchConfig()  # 100 systems, n=6/m=4/p=2, binary32, default grid
    records = run_benchmark(cfg)
    rows = {(r.method, r.t): r for r in summarize(records)}
    t_max = max(cfg.t_grid)
    t_one = min(cfg.t_grid, key=lambda t: abs(math.log10(t)))

    def med(method, t):
        row = rows[(method, t)]
        return math.inf if row.median_eps is None else row.median_eps

    vl_overflows = any(r.status is CellStatus.OVERFLOW for r in records
                       if r.method is Method.VANLOAN and r.t == t_max)
    crossover = med(Method.PROPOSED, t_max) < med(Method.VANLOAN, t_max)
    vl_grows = (vl_overflows
                or med(Method.VANLOAN, t_max)
                >= 10.0 * med(Method.VANLOAN, t_one))
    prop_flat = (med(Method.PROPOSED, t_max)
                 <= 10.0 * med(Method.PROPOSED, t_one))
    elapsed = time.perf_counter() - start
    report("A5 binary32 precision trend (100-system benchmark)",
           crossover and vl_grows and prop_flat and elapsed < 300.0,
           f"proposed@{t_max:g} {med(Method.PROPOSED, t_max):.2e} vs "
           f"vanloan {med(Method.VANLOAN, t_max):.2e}; "
           f"proposed@~1 {med(Method.PROPOSED, t_one):.2e}; "
           f"vanloan overflow={vl_overflows}; {elapsed:.0f}s")


def test_a6_stationary_limit():
    sla = pytest.importorskip("scipy.linalg")
    worst = 0.0
    for m in stable_systems(20, seed=77):
        p = sla.solve_continuous_lyapunov(m.a, -m.s)
        t = 50.0
        while spectral_norm(mat_exp(m.a, t)) > 1e-8:
            t *= 2.0
        q = discretize_proposed(m, t).model.q
        worst = max(worst, rel_err(q, p))
    report("A6 stationary limit (20 stable systems)", worst <= 1e-6,
           f"max |Q_T - P|/|P| = {worst:.2e}")


def test_a7_collapse_on_stable_systems():
    worst = 0.0
    for m in stable_systems(20, seed=78):
        q_prop = discretize_proposed(m, 1.3).model.q
        q_lyap = discretize_lyap_q(m, 1.3).model.q
        worst = max(worst, rel_err(q_prop, q_lyap))
    report("A7 collapse to Lyapunov form on stable systems",
           worst <= 1e-10, f"max rel diff {worst:.2e}")


def test_a8_benchmark_determinism():
    cfg = BenchConfig(ensemble=EnsembleSpec(n=6, m=4, p=2, seed=42),
                      runs=5)
    csvs = []
    for _ in range(2):
        records = run_benchmark(cfg)
        csvs.append((records_to_csv(records),
                     summary_to_csv(summarize(records))))
    ok = csvs[0] == csvs[1]
    report("A8 benchmark CSV determinism", ok,
           "byte-identical records and summary CSVs across two runs")
