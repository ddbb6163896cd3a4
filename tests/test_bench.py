"""Benchmark harness tests: record semantics, aggregation, CSV shape,
and determinism."""

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import sdedisc
from sdedisc import bench, discretize
from sdedisc.bench import (BenchConfig, BenchRecord, CellStatus,
                           run_benchmark, summarize, records_to_csv,
                           summary_to_csv, default_t_grid)
from sdedisc.discretize import q_oracle, run_method
from sdedisc.errors import ConvergenceError, MatrixOverflowError
from sdedisc.linalg import _spectral_norms
from sdedisc.modelgen import EnsembleSpec, gen_random_system
from sdedisc.models import (ContinuousModel, DiscreteModel, Method,
                            MethodReport)


def small_cfg(**kw):
    defaults = dict(ensemble=EnsembleSpec(n=3, m=3, p=0, seed=11),
                    t_grid=(0.5, 1.0), methods=(Method.PROPOSED,),
                    runs=2)
    defaults.update(kw)
    return BenchConfig(**defaults)


def test_default_grid_shape():
    grid = default_t_grid()
    assert len(grid) == 20
    assert grid[0] == pytest.approx(1e-2)
    assert grid[-1] == pytest.approx(1e2)
    assert all(a < b for a, b in zip(grid, grid[1:]))


def test_config_validation():
    with pytest.raises(ValueError):
        small_cfg(t_grid=(1.0, 0.5))
    with pytest.raises(ValueError):
        small_cfg(t_grid=(-1.0, 0.5))
    with pytest.raises(ValueError):
        small_cfg(runs=0)
    for grid in [(math.nan,), (1.0, math.inf), (0.0, 1.0)]:
        with pytest.raises(ValueError, match="t_grid"):
            small_cfg(t_grid=grid)
    # a non-float width would truncate the model, or fail mid-run
    for width in (np.int32, np.float16, np.bool_):
        with pytest.raises(ValueError, match="width"):
            small_cfg(width=width)
    # a method name it cannot score is refused before any cell runs
    with pytest.raises(ValueError, match="bogus"):
        small_cfg(methods=("bogus",))
    assert small_cfg(methods=("proposed", "vanloan")).methods == (
        Method.PROPOSED, Method.VANLOAN)


def test_single_scalar_cell():
    cfg = BenchConfig(ensemble=EnsembleSpec(n=1, m=1, p=0, seed=1),
                      t_grid=(1.0,), methods=(Method.PROPOSED,), runs=1)
    records = run_benchmark(cfg)
    assert len(records) == 1
    rec = records[0]
    assert rec.status is CellStatus.OK
    assert 0.0 <= rec.epsilon <= 1e-6


def test_empty_method_set():
    assert run_benchmark(small_cfg(methods=())) == []


def test_record_count_and_order():
    cfg = small_cfg(methods=(Method.PROPOSED, Method.VANLOAN))
    records = run_benchmark(cfg)
    assert len(records) == 2 * 2 * 2
    keys = [(r.system_id, r.t, r.method.value) for r in records]
    assert keys == sorted(keys)


def test_determinism():
    cfg = small_cfg()
    assert run_benchmark(cfg) == run_benchmark(cfg)
    # method names give the enum config's records, which summarize and
    # records_to_csv accept
    named = run_benchmark(small_cfg(methods=("proposed", "vanloan")))
    assert named == run_benchmark(
        small_cfg(methods=(Method.PROPOSED, Method.VANLOAN)))
    assert summarize(named) and records_to_csv(named)


def test_binary64_debug_width_is_exact():
    cfg = small_cfg(width=np.float64,
                    methods=(Method.PROPOSED, Method.VANLOAN))
    for rec in run_benchmark(cfg):
        assert rec.status is CellStatus.OK
        assert rec.epsilon <= 1e-6


def test_vanloan_overflow_recorded_not_raised():
    cfg = BenchConfig(ensemble=EnsembleSpec(n=3, m=3, p=0, seed=5),
                      t_grid=(100.0,), methods=(Method.VANLOAN,), runs=2)
    records = run_benchmark(cfg)
    assert all(r.status in (CellStatus.OK, CellStatus.OVERFLOW)
               for r in records)
    assert any(r.status is CellStatus.OVERFLOW for r in records)


def test_vanloan_non_finite_q_recorded_as_overflow():
    # exp(46) fits binary32 but Q, about exp(92) / 2, does not: the model
    # refuses the covariance, and the cell is an overflow
    m = ContinuousModel(np.array([[1.0]], dtype=np.float32),
                        np.array([[1.0]], dtype=np.float32))
    cell = bench._run_cell(m, 46.0, Method.VANLOAN)
    assert cell == (None, CellStatus.OVERFLOW)


def test_each_cell_is_one_run_method_call_and_scores_its_report(monkeypatch):
    # a benchmark that wraps run_method sees one call per cell, in record
    # order, and the record scores the report the call returned
    cfg = small_cfg(ensemble=EnsembleSpec(n=6, m=4, p=2, seed=3),
                    t_grid=(0.01, 1.0, 100.0), runs=1,
                    methods=(Method.PROPOSED, Method.VANLOAN, Method.LYAP_Q))
    inner, calls = bench.run_method, []

    def doubling(m, t, method, ahead=None):
        calls.append((t, method))
        r = inner(m, t, method, ahead)
        return MethodReport(DiscreteModel(r.model.f, 2 * r.model.q, t),
                            method)

    monkeypatch.setattr(bench, "run_method", doubling)
    records = run_benchmark(cfg)
    assert calls == [(r.t, r.method) for r in records]
    model = gen_random_system(cfg.ensemble, stream=0)
    for rec in records:
        if rec.status is not CellStatus.OK:
            assert rec.method is not Method.PROPOSED
            continue
        q_true = q_oracle(model, rec.t)
        q_hat = 2 * run_method(model.astype(cfg.width), rec.t,
                               rec.method).model.q
        assert rec.epsilon == _spectral_norms(q_hat - q_true) / \
            _spectral_norms(q_true)


def test_failed_plan_fails_every_proposed_cell(monkeypatch):
    # a Schur form that fails fails the proposed plan: that error is every
    # proposed cell's, while each Van Loan cell scores its one-horizon
    # report
    model = ContinuousModel(np.diag([1.0, -1.0]), np.eye(2))
    monkeypatch.setattr(bench, "gen_random_system", lambda spec, stream: model)

    def fail(*args):
        raise ConvergenceError("QR iteration did not converge")
    monkeypatch.setattr(discretize, "real_schur", fail)
    cfg = small_cfg(methods=(Method.PROPOSED, Method.VANLOAN), runs=1)
    records = run_benchmark(cfg)
    assert [(r.t, r.method) for r in records] == \
        [(t, m) for t in cfg.t_grid for m in cfg.methods]
    for rec in records:
        if rec.method is Method.PROPOSED:
            assert rec.status is CellStatus.ERROR
            continue
        assert rec.status is CellStatus.OK
        q_true = q_oracle(model, rec.t)
        q_hat = discretize.discretize_vanloan(model.astype(cfg.width),
                                              rec.t).model.q
        assert rec.epsilon == _spectral_norms(q_hat - q_true) / \
            _spectral_norms(q_true)


def test_paper_sweep_seam_scores_every_record(monkeypatch):
    # the benchmark's paper-sweep wraps bench.run_method: it needs one call
    # per record, in record order, that returns the report the record
    # scores; its own checks then find nothing on systems without fault S
    pytest.importorskip("scipy")
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"

    def load(name):
        spec = importlib.util.spec_from_file_location(
            f"perfbench_{name}", perfbench / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    # workloads imports reference and checks by their bare names when it
    # runs; they are found in sys.modules only for this test
    for name in ("reference", "checks"):
        monkeypatch.setitem(sys.modules, name, load(name))
    workloads = load("workloads")

    sweep = workloads.PaperSweep(sdedisc, seed=1)
    ops = [op for op in sweep.inputs if op.config.ensemble.seed in (0, 1)]
    assert len(ops) == 2
    assert not {0, 1} & workloads.INDEFINITE_SYSTEMS
    for op in ops:
        problems, samples = sweep.check(op, sweep.run(op), sweep.reference(op))
        assert problems == []
        assert len(samples) == len(op.config.t_grid)


def test_lyap_q_not_applicable_on_integrators():
    cfg = BenchConfig(ensemble=EnsembleSpec(n=3, m=1, p=2, seed=5),
                      t_grid=(1.0,), methods=(Method.LYAP_Q,), runs=2)
    records = run_benchmark(cfg)
    assert all(r.status is CellStatus.NOT_APPLICABLE for r in records)


def test_oracle_failure_recorded_not_raised(monkeypatch):
    def failing_oracle(model, ts):
        return [ConvergenceError("quadrature did not converge", sweeps=24)
                if t == 1.0 else q for t, q in zip(ts, real_oracle(model, ts))]

    real_oracle = bench._q_oracle_many
    monkeypatch.setattr(bench, "_q_oracle_many", failing_oracle)
    cfg = small_cfg(methods=(Method.PROPOSED, Method.VANLOAN))
    records = run_benchmark(cfg)
    assert len(records) == 2 * 2 * 2
    for rec in records:
        if rec.t == 1.0:
            assert rec.status is CellStatus.ERROR and rec.epsilon is None
        else:
            assert rec.status is CellStatus.OK


def test_records_match_per_cell_definition():
    # one truth per (system, t) from q_oracle, each method through
    # run_method, scored as relative spectral-norm error, the norms those
    # of the symmetric eigensolve that run_benchmark stacks
    cfg = small_cfg(ensemble=EnsembleSpec(n=6, m=4, p=2, seed=3),
                    t_grid=(0.01, 1.0, 100.0),
                    methods=(Method.PROPOSED, Method.VANLOAN))
    want = []
    for sid in range(cfg.runs):
        model = gen_random_system(cfg.ensemble, stream=sid)
        model_w = model.astype(cfg.width)
        for t in cfg.t_grid:
            q_true = q_oracle(model, t)
            for method in cfg.methods:
                try:
                    q_hat = run_method(model_w, t, method).model.q
                except MatrixOverflowError:
                    want.append(BenchRecord(sid, method, t, None,
                                            CellStatus.OVERFLOW))
                    continue
                eps = float(_spectral_norms(q_hat.astype(np.float64)
                                            - q_true)
                            / _spectral_norms(q_true))
                want.append(BenchRecord(sid, method, t, eps, CellStatus.OK))
    assert CellStatus.OVERFLOW in {r.status for r in want}
    assert run_benchmark(cfg) == want


def test_summarize_single_record():
    rec = BenchRecord(0, Method.PROPOSED, 1.0, 3e-7, CellStatus.OK)
    (row,) = summarize([rec])
    assert row.median_eps == 3e-7
    assert row.q1 == row.q3 == 3e-7
    assert row.fail_rate == 0.0


def test_summarize_counts_failures():
    recs = [BenchRecord(0, Method.VANLOAN, 1.0, 1e-7, CellStatus.OK),
            BenchRecord(1, Method.VANLOAN, 1.0, None, CellStatus.OVERFLOW)]
    (row,) = summarize(recs)
    assert row.fail_rate == 0.5
    assert row.median_eps == 1e-7


def test_summarize_all_failed_cell():
    recs = [BenchRecord(0, Method.VANLOAN, 1.0, None, CellStatus.OVERFLOW)]
    (row,) = summarize(recs)
    assert row.fail_rate == 1.0
    assert row.median_eps is None


def test_summarize_empty_rejected():
    with pytest.raises(ValueError):
        summarize([])


def test_records_csv_format():
    recs = [BenchRecord(0, Method.PROPOSED, 0.25, 1e-7, CellStatus.OK),
            BenchRecord(0, Method.VANLOAN, 0.25, None, CellStatus.OVERFLOW)]
    text = records_to_csv(recs)
    lines = text.split("\n")
    assert lines[0] == "system_id,method,t,epsilon,status"
    assert lines[1] == "0,proposed,0.25,9.9999999999999995e-08,ok"
    assert lines[2] == "0,vanloan,0.25,,overflow"
    assert text.endswith("\n") and "\r" not in text


def test_summary_csv_format():
    recs = [BenchRecord(0, Method.PROPOSED, 1.0, 0.5, CellStatus.OK)]
    text = summary_to_csv(summarize(recs))
    lines = text.split("\n")
    assert lines[0] == "method,t,median_eps,q1,q3,fail_rate"
    assert lines[1] == "proposed,1,0.5,0.5,0.5,0"


def test_seventeen_digit_round_trip():
    value = 1.0 / 3.0
    rec = BenchRecord(0, Method.PROPOSED, value, value, CellStatus.OK)
    line = records_to_csv([rec]).split("\n")[1]
    _, _, t_str, eps_str, _ = line.split(",")
    assert float(t_str) == value
    assert float(eps_str) == value
