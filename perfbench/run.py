"""sdedisc benchmark: one workload per run, end-to-end metrics or a traced
per-layer breakdown.

    python3 perfbench/run.py --workload paper-sweep --seed 1 \
        --seconds 20 --trace 0

Run from the root of a source checkout: the package is imported from
``src/``.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller record
(environment, tail percentile, failures, raw CPU times, per-layer table) is
written to ``perfbench/out/``.  See README.md for the workloads and metrics.
"""

import os

# one BLAS thread, set before numpy loads, so that runs are steady on 2 CPUs
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

#: set-up is repeated this many times in a run and its median reported
SETUP_REPEATS = 3
#: tail percentiles to choose from, in tenths of a percent so that the
#: test below is exact; the highest with at least ten samples beyond it
TAIL_CHOICES = (999, 990, 950, 900, 750, 500)


def import_package():
    """(Re-)import sdedisc from the checkout's src/ directory."""
    for name in [m for m in sys.modules
                 if m == "sdedisc" or m.startswith("sdedisc.")]:
        del sys.modules[name]
    sd = importlib.import_module("sdedisc")
    if Path(sd.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"sdedisc imported from {sd.__file__}, not {SRC}")
    return sd


def set_up(workload_cls, seed):
    """Import the package, build the inputs and run one untimed warm-up
    operation; repeated, and the median time at the reference host speed
    returned with the raw CPU times.  Timed in CPU time of this process,
    like the loop (see timed_loop), in segments: the import, each model
    built, the warm-up."""
    times, raw = [], []
    for _ in range(SETUP_REPEATS):
        timer = hostspeed.SegmentClock(workload_cls.probes)
        sd = import_package()
        timer.tick()
        wl = workload_cls(sd, seed, tick=timer.tick)
        wl.run(wl.warmup)
        timer.tick()
        raw.append(timer.cpu)
        times.append(timer.scaled)
    return wl, statistics.median(times), raw


def timed_loop(wl, passes, tracer=None):
    """Whole passes over the inputs; returns (outputs, untraced latencies,
    traced latencies, host-speed clock), with outputs as (input index,
    output) pairs and untraced latencies as (CPU seconds, seconds at the
    reference host speed) pairs.  An operation that raises is kept as its
    exception.  Untraced, a block of ``wl.probes`` host-speed probes is
    timed before each operation and after the last.

    Times are CPU time of this process.  An operation is single-threaded
    and does no I/O, so its CPU time is its wall time less the time the
    machine gave to others; on a shared 2-CPU host that interference moved
    the wall-clock p99 of irregular-track by a third between runs.

    With a tracer, each operation runs twice, untraced and traced, the
    order alternating, so that drift in the machine's speed falls on both
    alike."""
    outputs, lat, traced = [], [], []
    clock = time.process_time
    gc.collect()
    gc.freeze()  # set-up's objects stay out of the collector's passes
    count = len(wl.inputs)
    timer = hostspeed.SegmentClock(wl.probes, clock) if tracer is None \
        else None
    for k in range(count * passes):
        op = wl.inputs[k % count]
        if tracer is None:
            outputs.append((k % count, _run(wl.run, op)))
            lat.append(timer.tick())
            continue
        for trace in (False, True) if k % 2 else (True, False):
            if trace:
                tracer.install()
            t0 = clock()
            out = _run(tracer.span, "op", wl.run, op) if trace \
                else _run(wl.run, op)
            (traced if trace else lat).append(clock() - t0)
            if trace:
                tracer.restore()
            outputs.append((k % count, out))
    return outputs, lat, traced, timer


def _run(func, *args):
    """An operation's output, or the exception it raised."""
    try:
        return func(*args)
    except Exception as exc:
        return exc


def tail_percentile(count):
    """The highest of TAIL_CHOICES with at least ten of ``count`` samples
    beyond it, in percent, or None."""
    for tenths in TAIL_CHOICES:
        if count * (1000 - tenths) >= 10 * 1000:
            return tenths / 10
    return None


def check_outputs(wl, outputs):
    """Check each output against the reference: (failures, digit samples,
    unexpected failures).  An operation on a known fault that fails is
    expected; any other failure makes the run incorrect."""
    from checks import digits

    refs = {}
    failures, samples, unexpected = [], [], 0
    for i, out in outputs:
        op = wl.inputs[i]
        if i not in refs:
            refs[i] = wl.reference(op)
        if isinstance(out, Exception):
            problems, errs = [f"raised {type(out).__name__}: {out}"], []
        else:
            problems, errs = wl.check(op, out, refs[i])
        if problems:
            failures.append({"op": i, "fault": op.fault,
                             "problems": problems[:3]})
            unexpected += op.fault is None
        else:
            samples += [digits(e, wl.width) for e in errs]
    return failures, samples, unexpected


def environment(sd):
    import scipy

    return {
        "backend": "numba" if sd._backend.USE_NUMBA else "numpy",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "probe_ref_ms": [ref * 1e3 for _, ref in hostspeed.KERNELS],
    }


def per_layer(tracer, overhead):
    """Per-operation means of the layer figures from the traced loop;
    ``overhead`` is traced over untraced time, less one."""
    ops = tracer.table()
    count = len(ops)

    def mean(name, field):
        return sum(op[name][field] if name in op else 0
                   for op in ops) / count

    def ms(name, field):
        return mean(name, field) / 1e6

    m = {
        "kernels.jacobi_ms": ms("kernels.jacobi", 1),
        "linalg.spectral_norm_calls": mean("linalg.spectral_norm", 0),
        "discretize.q_oracle_ms": ms("discretize.q_oracle", 1),
        "kernels.outer_sum_ms": ms("kernels.outer_sum", 1),
        "discretize.q_oracle_levels":
            sum(tracer.oracle_levels()) / count,
        "linalg.real_schur_calls": mean("linalg.real_schur", 0),
        "linalg.real_schur_ms": ms("linalg.real_schur", 1),
        "linalg.reorder_ms": ms("linalg.reorder", 1),
        "kernels.francis_qr_ms": ms("kernels.francis_qr", 1),
        "kernels.qr_iterations": mean("kernels.francis_qr", 3),
        "kernels.hessenberg_ms": ms("kernels.hessenberg", 1),
        "kernels.trsylv_ms": ms("kernels.trsylv", 1),
        "linalg.mat_exp_calls": mean("linalg.mat_exp", 0),
        "kernels.pade13_ms": ms("kernels.pade13", 1),
        "discretize.vanloan_ms": ms("discretize.vanloan", 1),
        "discretize.lemma2_ms": ms("discretize.lemma2", 1),
        "discretize.proposed_ms": ms("discretize.proposed", 2),
        "linalg.solve_ms": ms("linalg.solve", 2),
        "models.construct_calls": mean("models.construct", 0),
        "models.construct_ms": ms("models.construct", 1),
        "bench.run_benchmark_ms": ms("bench.run_benchmark", 2),
        "trace.op_ms": ms("op", 1),
        "trace.unattributed_ms": ms("op", 2),
        "trace.overhead_pct": 100.0 * overhead,
    }
    names = sorted({name for op in ops for name in op})
    layers = {name: {"calls": mean(name, 0), "inclusive_ms": ms(name, 1),
                     "self_ms": ms(name, 2)} for name in names}
    return m, layers


def main(argv=None):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="nominal run length; sets the number of passes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "sdedisc" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}/sdedisc", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    cls = WORKLOADS[args.workload]
    wl, setup_s, setup_all = set_up(cls, args.seed)
    sd = wl.sd
    passes = max(1, round(args.seconds / cls.pass_seconds))

    record = {"workload": args.workload, "seed": args.seed,
              "passes": passes, "inputs": len(wl.inputs),
              "width": wl.width, "setup_cpu_s": setup_all}

    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        try:
            outputs, lat, traced, _ = timed_loop(wl, passes, tracer)
        finally:
            tracer.restore()
        metrics, layers = per_layer(tracer, sum(traced) / sum(lat) - 1.0)
        units = {"_calls": "count", "_levels": "count",
                 "_iterations": "count", "_ms": "ms", "_pct": "%"}
        metrics = {k: {"value": v, "unit": next(u for s, u in units.items()
                                                  if k.endswith(s))}
                   for k, v in metrics.items()}
        record["layers"] = layers
        record["spans"] = {"columns": ["name", "start_ns", "end_ns",
                                       "parent", "value"],
                           "rows": tracer.spans}
    else:
        outputs, lat, _, timer = timed_loop(wl, passes)
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures, samples, unexpected = check_outputs(wl, outputs)
    correct = unexpected == 0 and bool(samples)

    if not args.trace:
        cpu_ms, lat_ms = 1e3 * np.array(lat).T
        tail = tail_percentile(len(lat_ms))
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (1e3 * len(lat_ms) / lat_ms.sum(), "1/s"),
            "latency_p50_ms": (float(np.percentile(lat_ms, 50)), "ms"),
            "latency_tail_ms": (float(np.percentile(lat_ms, tail))
                                if tail else float(lat_ms.max()), "ms"),
            "digits_p50": (float(np.percentile(samples, 50))
                           if samples else 0.0, "digits"),
            "digits_p10": (float(np.percentile(samples, 10))
                           if samples else 0.0, "digits"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        record.update(tail_percentile=tail, latency_ms=lat_ms.tolist(),
                      cpu_latency_ms=cpu_ms.tolist(),
                      host_slowdown=timer.slowdowns)

    record.update(env=dict(environment(sd), width=wl.width),
                  failures=failures,
                  failed_faults=sorted({f["fault"] or "unexpected"
                                        for f in failures}))
    result = {"correct": correct, "attempted": len(outputs),
              "failed": len(failures), "metrics": metrics}
    record["result"] = result
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT / name, "w") as fh:
        json.dump(record, fh)

    print("env " + json.dumps(record["env"]))
    print(f"{args.workload}: {passes} pass(es) x {len(wl.inputs)} inputs, "
          f"{len(failures)} failed ({', '.join(record['failed_faults'])})")
    for key, val in metrics.items():
        print(f"  {key:28s} {val['value']:.6g} {val['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
