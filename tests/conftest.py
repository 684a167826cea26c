"""Test-session setup: one BLAS thread for every test.

The tests' matrix products are small and gain nothing from more BLAS
threads.  On a 2-vCPU machine two OpenBLAS threads spin the second core and
make the suite about 1.5x slower and its run times unsteady (criterion 8
alone: 28.6 s against 13.7 s pinned).  perfbench/run.py pins its runs the
same way.  numpy's BLAS reads these variables once, when numpy is first
imported, so they are set here, before any test module imports it; if
numpy is already loaded, collection stops instead of running the suite
unpinned without a word.
"""

import os
import sys

if "numpy" in sys.modules:
    raise RuntimeError(
        "numpy was imported before tests/conftest.py could pin one BLAS thread; "
        "disable the pytest plugin that imports it (-p no:NAME)")
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
