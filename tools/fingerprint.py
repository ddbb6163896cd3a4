"""Print one SHA-256 per benchmark workload over every F, every Q, every
exception type name and every benchmark record (method, horizon, score and
status) its operations produce, each input run once:
``python3 tools/fingerprint.py --seed 1``.  A fourth line,
``paper-sweep-methods``, hashes paper-sweep's F, Q and exception type names
without its benchmark records, whose scores also depend on the oracle's
truths; it shows that the methods' bits stay when only the truths move.  A
fifth, ``lyap-methods``, hashes F, Q and exception type names of ``lyap-p`` and
``lyap-q``, which no workload runs, on fixed stable models at both widths
(``EnsembleSpec(6, 6, 0, seed=1)`` and ``EnsembleSpec(16, 16, 0, seed=3)``,
4 streams each, T in {1e-3, 1, 100}); it does not depend on ``--seed``.
A sixth, ``deep-chains``, hashes ``discretize_proposed``'s F, Q and
exception type names on the four models of
``test_proposed_deep_integrator_chains`` (index-3 and index-4 integrator
chains) at T in {0.1, 1, 10} and at both widths; it does not depend on
``--seed`` either.  A seventh, ``refusals``, hashes the F and Q, or the
type and message of the refusal, of each call below: mirrored poles
``diag(1, -1)`` under ``proposed``, ``lyap-p`` and ``lyap-q`` at both
widths, which ``proposed`` and ``lyap-q`` answer and ``lyap-p`` refuses by
its margin sqrt(100 n eps) ||A||_F, a formula its message names; the
binary32 ``EnsembleSpec(24, 24, 0, seed=2)`` stream 1, whose slowest pole
is within lyap-p's margin, under ``lyap-p``; and
``discretize_proposed`` on four drifts whose squared entries overflow the
width, with S = I: binary64 ``[[0, 1e200], [0, 0]]`` and
``diag(1e200, -1e200)``, binary32 ``[[0, 1e20], [0, 0]]`` and
``diag(1e20, -1e20)``; all at T = 1.  An
eighth, ``foils``, hashes the ``naive-a`` and ``naive-b`` Q (or the type
and message of what they raise) on the ``lyap-methods`` models at both
widths and the same T, so that a change to the exponential's bits that
moves the foils leaves the ``refusals`` line alone.
Neither depends on ``--seed``.  Workload inputs come from
perfbench/workloads.py and the package from this checkout's src/, so two
checkouts that print the same lines compute the same bits on those inputs.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # one BLAS thread, as in the benchmark

import argparse, hashlib, sys  # noqa: E401, E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402
import sdedisc  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


LYAP_MODELS = [sdedisc.gen_random_system(spec, stream)
               for spec in (sdedisc.EnsembleSpec(6, 6, 0, seed=1),
                            sdedisc.EnsembleSpec(16, 16, 0, seed=3))
               for stream in range(4)]


def triangular_chain3():
    """Unrotated quasi-upper-triangular A: a complex pair above a 3-chain,
    as in tests/test_discretize.py."""
    a = np.zeros((5, 5))
    a[:2, :2] = [[-0.5, 2.0], [-0.5, -0.5]]
    a[2, 3] = a[3, 4] = 1.0
    a[:2, 2:] = [[0.3, -1.2, 0.5], [0.8, 0.4, -0.7]]
    g = np.arange(1.0, 26.0).reshape(5, 5) % 7 - 3
    return sdedisc.ContinuousModel(a, g @ g.T / sdedisc.spectral_norm(g @ g.T))


# (call, model, method) of each call whose result or refusal message is
# hashed, each called at T = 1
MIRRORED = sdedisc.ContinuousModel(np.diag([1.0, -1.0]), np.eye(2))
WIDE32 = sdedisc.gen_random_system(sdedisc.EnsembleSpec(24, 24, 0, seed=2),
                                   1).astype(np.float32)
REFUSALS = [(sdedisc.run_method, MIRRORED.astype(dtype), method)
            for dtype in (np.float64, np.float32)
            for method in (sdedisc.Method.PROPOSED, sdedisc.Method.LYAP_P,
                           sdedisc.Method.LYAP_Q)]
REFUSALS += [(sdedisc.run_method, WIDE32, sdedisc.Method.LYAP_P)]
REFUSALS += [(sdedisc.run_method, sdedisc.ContinuousModel(
                  a.astype(dtype), np.eye(2, dtype=dtype)),
              sdedisc.Method.PROPOSED)
             for dtype, big in ((np.float64, 1e200), (np.float32, 1e20))
             for a in (np.array([[0.0, big], [0.0, 0.0]]),
                       np.diag([big, -big]))]

# the deep integrator chains
CHAIN_MODELS = [
    triangular_chain3(),
    sdedisc.observer_canonical([1.5, 0.7], [1.0, 0.2], p=3),
    sdedisc.gen_random_system(sdedisc.EnsembleSpec(6, 3, 3, seed=0), 3),
    sdedisc.gen_random_system(sdedisc.EnsembleSpec(7, 3, 4, seed=1)),
]


def attempt(call, *args):
    """call(*args), or the exception it raised."""
    try:
        return call(*args)
    except Exception as exc:
        return exc


def feed(h, out, records=True, messages=False):
    """Hash the arrays, exception names (with their messages if messages
    is True) and, unless records is False, the bench records in one
    operation's output."""
    if isinstance(out, Exception):
        h.update((f"{type(out).__name__}: {out}" if messages
                  else type(out).__name__).encode())
    elif isinstance(out, np.ndarray):
        h.update(out.dtype.str.encode() + out.tobytes())
    elif isinstance(out, sdedisc.BenchRecord):
        if records:
            eps = "" if out.epsilon is None else out.epsilon.hex()
            h.update(f"{out.method.value} {out.t.hex()} {eps} "
                     f"{out.status.value}".encode())
    elif hasattr(out, "model"):  # a MethodReport
        feed(h, (out.model.f, out.model.q))
    elif isinstance(out, (tuple, list)):
        for item in out:
            feed(h, item, records, messages)


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.split(":")[0])
    ap.add_argument("--seed", type=int, default=1)
    seed = ap.parse_args().seed
    methods = hashlib.sha256()
    for name, workload in WORKLOADS.items():
        wl, h = workload(sdedisc, seed), hashlib.sha256()
        for op in wl.inputs:
            out = attempt(wl.run, op)
            feed(h, out)
            if name == "paper-sweep":
                feed(methods, out, records=False)
        print(name, h.hexdigest())
    print("paper-sweep-methods", methods.hexdigest())
    lyap = hashlib.sha256()
    for m in LYAP_MODELS:
        for dtype in (np.float64, np.float32):
            for method in (sdedisc.Method.LYAP_P, sdedisc.Method.LYAP_Q):
                for t in (1e-3, 1.0, 100.0):
                    feed(lyap, attempt(sdedisc.run_method, m.astype(dtype),
                                       t, method))
    print("lyap-methods", lyap.hexdigest())
    chains = hashlib.sha256()
    for m in CHAIN_MODELS:
        for dtype in (np.float64, np.float32):
            for t in (0.1, 1.0, 10.0):
                feed(chains, attempt(sdedisc.discretize_proposed,
                                     m.astype(dtype), t))
    print("deep-chains", chains.hexdigest())
    refused = hashlib.sha256()
    for call, m, arg in REFUSALS:
        feed(refused, attempt(call, m, 1.0, arg), messages=True)
    print("refusals", refused.hexdigest())
    foils = hashlib.sha256()
    for m in LYAP_MODELS:
        for dtype in (np.float64, np.float32):
            for foil in (sdedisc.naive_q_a, sdedisc.naive_q_b):
                for t in (1e-3, 1.0, 100.0):
                    feed(foils, attempt(foil, m.astype(dtype), t),
                         messages=True)
    print("foils", foils.hexdigest())
