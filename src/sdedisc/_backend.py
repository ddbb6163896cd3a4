# read by perfbench/run.py to record the backend; the kernels are plain numpy
USE_NUMBA = False
