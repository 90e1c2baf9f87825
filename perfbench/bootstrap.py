"""Process set-up shared by the benchmark's entry points.

Must run before NumPy is imported: it pins every BLAS library to one thread
per process, so a run with ``nproc`` workers uses at most ``nproc`` threads,
and it puts the checkout's ``src`` directory first on the import path, so
the benchmark measures the source it ships with.
"""

import os
import sys
from pathlib import Path

PIN_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def prepare() -> None:
    for var in PIN_VARS:
        os.environ[var] = "1"
    if not (SRC / "mlplr" / "__init__.py").is_file():
        sys.exit(f"perfbench: no mlplr package under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
