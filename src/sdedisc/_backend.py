"""JIT backend selection.

The hot kernels in ``_kernels`` are written as plain numpy code and wrapped
with ``numba.njit`` when numba is importable.  Setting the environment
variable ``SDEDISC_NO_NUMBA=1`` (before import) forces the pure-numpy path,
which runs the identical source uncompiled.  The benchmark in
``perfbench/`` reads ``USE_NUMBA`` to record which path it measured.
"""

import os

USE_NUMBA = os.environ.get("SDEDISC_NO_NUMBA", "0") not in ("1", "true", "yes")

if USE_NUMBA:
    try:
        from numba import njit as _numba_njit

        def njit(func):
            return _numba_njit(cache=True)(func)

    except ImportError:  # pragma: no cover - numba is an optional extra
        USE_NUMBA = False

if not USE_NUMBA:

    def njit(func):
        return func
