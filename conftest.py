"""Test-session setup: one BLAS thread, set before numpy is imported, as
in the benchmark's passes (perfbench/run.py). A thread count already set
in the environment wins. The suite's dense kernels are small, and extra
BLAS threads that wait for a core another process holds can slow a test
many times over.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
