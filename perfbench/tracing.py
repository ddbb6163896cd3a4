"""Span tracing of the package's layers from outside the package.

``Tracer.install`` replaces each measured function by a timing wrapper at
every name the package's modules look it up by (a module global, or a class
attribute for the model constructor), and ``restore`` puts the originals
back; the names are looked up once, so both are cheap enough to call
around every operation.  Spans are kept in memory as flat rows and turned
into per-layer figures at the end: a span's self time is its duration minus
the durations of its direct children.
"""

import functools
import sys
import time
from collections import defaultdict

#: measured functions: (module, attribute) -> span name
MEASURED = {
    ("sdedisc._kernels", "jacobi_symm_eigvals"): "kernels.jacobi",
    ("sdedisc._kernels", "propagated_outer_sum"): "kernels.outer_sum",
    ("sdedisc._kernels", "francis_qr"): "kernels.francis_qr",
    ("sdedisc._kernels", "hessenberg"): "kernels.hessenberg",
    ("sdedisc._kernels", "trsylv"): "kernels.trsylv",
    ("sdedisc._kernels", "pade13_expm"): "kernels.pade13",
    ("sdedisc.linalg", "spectral_norm"): "linalg.spectral_norm",
    ("sdedisc.linalg", "real_schur"): "linalg.real_schur",
    ("sdedisc.linalg", "order_schur_zeros_last"): "linalg.reorder",
    ("sdedisc.linalg", "mat_exp"): "linalg.mat_exp",
    ("sdedisc.linalg", "solve_sylvester"): "linalg.solve",
    ("sdedisc.linalg", "solve_lyapunov"): "linalg.solve",
    ("sdedisc.discretize", "q_oracle"): "discretize.q_oracle",
    ("sdedisc.discretize", "discretize_vanloan"): "discretize.vanloan",
    ("sdedisc.discretize", "discretize_proposed"): "discretize.proposed",
    ("sdedisc.discretize", "lemma2_residual"): "discretize.lemma2",
    ("sdedisc.bench", "run_benchmark"): "bench.run_benchmark",
}
#: the model constructor, reached through the dataclass's __post_init__
CONSTRUCT = ("sdedisc.models", "ContinuousModel", "__post_init__")
CONSTRUCT_NAME = "models.construct"

# span row layout
NAME, START, END, PARENT, VALUE = range(5)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    def _wrap(self, func, name):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(func)
        def traced(*args, **kwargs):
            row = [name, 0, 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(row)
            row[START] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                row[END] = clock()
                stack.pop()
            if name == "kernels.francis_qr":
                row[VALUE] = int(result[0])  # QR iterations
            return result

        return traced

    def span(self, name, func, *args):
        """Call func(*args) inside a span of the given name."""
        return self._wrap(func, name)(*args)

    def _patch_list(self):
        """(owner, attribute, original, wrapper) for every name to patch."""
        modules = {k: v for k, v in sys.modules.items()
                   if k == "sdedisc" or k.startswith("sdedisc.")}
        patches = []
        for (modname, attr), name in MEASURED.items():
            func = getattr(modules[modname], attr)
            traced = self._wrap(func, name)
            for mod in modules.values():
                for key, value in vars(mod).items():
                    if value is func:
                        patches.append((mod, key, func, traced))
        modname, cls, attr = CONSTRUCT
        owner = getattr(modules[modname], cls)
        func = vars(owner)[attr]
        patches.append((owner, attr, func, self._wrap(func, CONSTRUCT_NAME)))
        return patches

    def install(self):
        if not self._patches:
            self._patches = self._patch_list()
        for owner, key, _, traced in self._patches:
            setattr(owner, key, traced)

    def restore(self):
        for owner, key, func, _ in reversed(self._patches):
            setattr(owner, key, func)

    def table(self):
        """Per root span (one per operation), in order:
        {span name: [calls, inclusive ns, self ns, summed value]}."""
        child_ns = defaultdict(int)
        for row in self.spans:
            if row[PARENT] >= 0:
                child_ns[row[PARENT]] += row[END] - row[START]
        ops, current = [], None
        ancestors = []  # names on the path from the op span to each row
        for i, row in enumerate(self.spans):
            if row[PARENT] < 0:
                current = defaultdict(lambda: [0, 0, 0, 0])
                ops.append(current)
                ancestors = {i: ()}
            path = ancestors[row[PARENT]] if row[PARENT] >= 0 else ()
            ancestors[i] = path + (row[NAME],)
            dur = row[END] - row[START]
            cell = current[row[NAME]]
            cell[0] += 1
            if row[NAME] not in path:  # count nested re-entry once
                cell[1] += dur
            cell[2] += dur - child_ns[i]
            if row[VALUE] is not None:
                cell[3] += row[VALUE]
        return ops

    def oracle_levels(self):
        """Per operation: sum over q_oracle calls of (mat_exp calls made
        directly by the oracle - 1), i.e. the quadrature levels."""
        direct = defaultdict(int)
        for row in self.spans:
            if row[NAME] == "linalg.mat_exp" and row[PARENT] >= 0 and \
                    self.spans[row[PARENT]][NAME] == "discretize.q_oracle":
                direct[row[PARENT]] += 1
        out = []
        for i, row in enumerate(self.spans):
            if row[PARENT] < 0:
                out.append(0)
            elif row[NAME] == "discretize.q_oracle":
                out[-1] += direct[i] - 1
        return out
