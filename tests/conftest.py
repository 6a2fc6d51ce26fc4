"""Test set-up: one BLAS thread unless the environment sets one.

OpenBLAS's default pool (one thread per CPU) makes the small matrix
products of the noise engine slower, and its extra thread keeps
noise.evolve_noisy from forking the upper half of a large
Ornstein-Uhlenbeck ensemble.  The variables take effect only if set
before numpy loads, which the test modules do after this file.
"""
import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
