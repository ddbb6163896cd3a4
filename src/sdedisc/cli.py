"""Command-line front end: discretize systems from files, run invariant
checks, run the mixed-precision benchmark, and generate system files."""

import argparse
import functools
import math
import sys

import numpy as np

from . import sysfile
from .bench import (BenchConfig, run_benchmark, summarize,
                    records_to_csv, summary_to_csv, write_csv)
from .discretize import lemma2_residual, run_method, semigroup_residual
from .errors import SdeDiscError
from .modelgen import EnsembleSpec, gen_random_system, FIXTURES
from .models import Method, EXACT_METHODS
from .sysfile import SystemFileError

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_METHOD = 3

def _print_matrix(label: str, mat) -> None:
    print(label)
    for row in np.asarray(mat, dtype=np.float64):
        print(" ".join("%.17g" % v for v in row))


def _load_model(path, width):
    try:
        return sysfile.read(path).astype(width)
    except OSError as exc:
        print(f"cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)
    except (SystemFileError, ValueError) as exc:
        print(f"bad system file {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)


def cmd_discretize(args) -> int:
    model = _load_model(args.file, args.width)
    method = Method(args.method)
    try:
        report = run_method(model, args.t, method)
        lemma = lemma2_residual(model, report.model.f, report.model.q)
    except SdeDiscError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_METHOD
    diagnostics = dict(report.diagnostics, lemma2_residual=lemma)
    _print_matrix("f", report.model.f)
    _print_matrix("q", report.model.q)
    print("diagnostics")
    for key in sorted(diagnostics):
        print(f"{key} {diagnostics[key]:.17g}")
    return EXIT_OK


def cmd_check(args) -> int:
    model = _load_model(args.file, np.float64)
    threshold = args.tol
    flagged = False
    print("method,lemma2_residual,semigroup_residual,status")
    for method in Method:
        if method is Method.ORACLE:
            continue
        try:
            report = run_method(model, args.t, method)
            lemma = lemma2_residual(model, report.model.f, report.model.q)
            semi = semigroup_residual(model, method, args.t / 2, args.t / 2)
        except SdeDiscError as exc:
            print(f"{method.value}: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            print(f"{method.value},,,not-applicable")
            continue
        exact = method in EXACT_METHODS
        bad = exact and (lemma > threshold or semi > threshold)
        flagged = flagged or bad
        status = "flagged" if bad else ("ok" if exact else "informational")
        print(f"{method.value},{lemma:.17g},{semi:.17g},{status}")
    return 1 if flagged else EXIT_OK


def cmd_bench(args) -> int:
    try:
        ensemble = EnsembleSpec(n=args.n, m=args.m, p=args.p, seed=args.seed)
        cfg = BenchConfig(ensemble=ensemble, runs=args.runs,
                          width=args.width)
    except ValueError as exc:
        args.parser.error(str(exc))
    records = run_benchmark(cfg)
    rows = summarize(records)
    prefix = args.out
    try:
        write_csv(prefix + "_records.csv", records_to_csv(records))
        write_csv(prefix + "_summary.csv", summary_to_csv(rows))
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_PARSE
    t_max = max(r.t for r in rows)
    at_max = {r.method: r for r in rows if r.t == t_max}
    for method, row in sorted(at_max.items(), key=lambda kv: kv[0].value):
        med = ("failed" if row.median_eps is None
               else "%.3e" % row.median_eps)
        print(f"t={t_max:g} {method.value}: median epsilon {med} "
              f"(failure rate {row.fail_rate:.2f})")
    return EXIT_OK


def cmd_gen(args) -> int:
    if args.fixture is not None:
        model = FIXTURES[args.fixture]()
        name = args.fixture
    else:
        try:
            spec = EnsembleSpec(n=args.n, m=args.m, p=args.p, seed=args.seed)
            model = gen_random_system(spec, stream=args.stream)
        except ValueError as exc:
            args.parser.error(str(exc))
        name = f"ensemble-n{args.n}-m{args.m}-p{args.p}-seed{args.seed}"
    try:
        sysfile.write(args.out, model, name=name)
    except OSError as exc:
        print(f"cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    return EXIT_OK


def _finite_number(text: str, positive: bool) -> float:
    """argparse type: a finite number >= 0, or > 0 if positive."""
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not (0.0 < x < math.inf or (x == 0.0 and not positive)):
        raise argparse.ArgumentTypeError(
            f"must be a finite number {'>' if positive else '>='} 0, "
            f"got {text!r}")
    return x


_sampling_time = functools.partial(_finite_number, positive=False)
_tolerance = functools.partial(_finite_number, positive=True)


def _add_width_flags(parser, default=np.float64) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--f32", dest="width", action="store_const",
                       const=np.float32, help="run at binary32")
    group.add_argument("--f64", dest="width", action="store_const",
                       const=np.float64, help="run at binary64")
    parser.set_defaults(width=default)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdedisc",
        description="Exact discretization of linear stochastic systems")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("discretize",
                       help="discretize a system file at one horizon")
    p.add_argument("file")
    p.add_argument("--t", type=_sampling_time, required=True,
                   help="sampling time")
    p.add_argument("--method", default=Method.PROPOSED.value,
                   choices=[m.value for m in Method])
    _add_width_flags(p)
    p.set_defaults(func=cmd_discretize)

    p = sub.add_parser("check",
                       help="print correctness residuals for all methods")
    p.add_argument("file")
    p.add_argument("--t", type=_sampling_time, required=True,
                   help="sampling time")
    p.add_argument("--tol", type=_tolerance, default=1e-8,
                   help="residual threshold that flags an exact method")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("bench",
                       help="run the mixed-precision benchmark, write CSVs")
    p.add_argument("--out", required=True,
                   help="output path prefix for the two CSV files")
    p.add_argument("--runs", type=int, default=100)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--p", type=int, default=2)
    _add_width_flags(p, default=np.float32)  # the experiment runs binary32
    p.set_defaults(func=cmd_bench, parser=p)

    p = sub.add_parser("gen", help="write a system file")
    p.add_argument("--out", required=True)
    p.add_argument("--fixture", choices=sorted(FIXTURES),
                   help="named fixture instead of a random draw")
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--stream", type=int, default=0,
                   help="substream index within the seed")
    p.set_defaults(func=cmd_gen, parser=p)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
