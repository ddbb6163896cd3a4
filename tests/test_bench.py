"""Benchmark harness tests: record semantics, aggregation, CSV shape,
and determinism."""

import math

import numpy as np
import pytest

from sdedisc import bench
from sdedisc.bench import (BenchConfig, BenchRecord, CellStatus,
                           run_benchmark, summarize, records_to_csv,
                           summary_to_csv, default_t_grid)
from sdedisc.errors import ConvergenceError
from sdedisc.modelgen import EnsembleSpec
from sdedisc.models import Method


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
    for tol in [0.0, -1e-12, math.nan, math.inf]:
        with pytest.raises(ValueError, match="oracle_tol"):
            small_cfg(oracle_tol=tol)


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


def test_lyap_q_not_applicable_on_integrators():
    cfg = BenchConfig(ensemble=EnsembleSpec(n=3, m=1, p=2, seed=5),
                      t_grid=(1.0,), methods=(Method.LYAP_Q,), runs=2)
    records = run_benchmark(cfg)
    assert all(r.status is CellStatus.NOT_APPLICABLE for r in records)


def test_oracle_failure_recorded_not_raised(monkeypatch):
    def failing_oracle(model, t, rel_tol):
        if t == 1.0:
            raise ConvergenceError("quadrature did not converge", sweeps=24)
        return real_oracle(model, t, rel_tol=rel_tol)

    real_oracle = bench.q_oracle
    monkeypatch.setattr(bench, "q_oracle", failing_oracle)
    cfg = small_cfg(methods=(Method.PROPOSED, Method.VANLOAN))
    records = run_benchmark(cfg)
    assert len(records) == 2 * 2 * 2
    for rec in records:
        if rec.t == 1.0:
            assert rec.status is CellStatus.ERROR and rec.epsilon is None
        else:
            assert rec.status is CellStatus.OK


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
