"""Settings shared by the test modules.

OpenBLAS runs on one thread, as in perfbench/run.py, unless the environment
sets a count.  The orientation average already runs one thread per CPU, and
the test modules import numpy before quartetsim, so the package's own
default (quartetsim/__init__.py) would come too late for them; with the
default OpenBLAS threads beside the orientation threads, the fixture of
criterion 04 took 43 s instead of 21 s on 2 CPUs.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
