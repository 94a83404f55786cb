"""Entry point of the lrtrans benchmark; see ``bench.py`` for what it measures.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
"""

import os
import sys

# Single-threaded BLAS in this process and every child, before numpy loads anywhere.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from bench import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
