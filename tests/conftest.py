"""Test-session set-up: one BLAS thread, set before numpy is first imported.

Unpinned, BLAS contractions on this suite's small matrices can take ten times
longer in some runs, when the thread pool contends with other processes.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
