"""Tier-1 runs at one BLAS thread unless the environment sets a count.

OpenBLAS reads its thread count once, when numpy loads it (or scipy.linalg
loads its own copy, which only some tests import), and pytest imports this
file before any test module imports numpy. The acceptance sweeps run two
workers; at the default thread count each worker starts one BLAS thread per
core, and on a small host the suite then runs several times slower doing
the same work. A value set explicitly still wins.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
