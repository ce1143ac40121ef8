"""Pin BLAS to one thread before any test module imports numpy.

The tests call ``tdsv.cli.main`` in-process with the default ``--threads 1``;
numpy reads the thread cap only when it loads, so it has to be set here.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
