"""Pin BLAS to one thread before any test module imports numpy.

The tests call ``tdsv.cli.main`` in-process with the default ``--threads 1``;
numpy reads the thread cap only when it loads, so it has to be set here.
Importing ``tdsv.cli`` does not load numpy.
"""

import os

from tdsv.cli import BLAS_THREAD_VARS

for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"
