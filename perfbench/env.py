"""Run-environment pinning shared by the benchmark entry points.

Import this module before numpy: it pins BLAS/OpenMP pools to one thread
and puts the checkout's ``src`` directory first on ``sys.path``, so the
benchmark always measures the library sources next to it and never an
installed copy.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


class MissingLibrary(Exception):
    """The checkout holds no ``src/abdirac`` package to benchmark."""


def pin() -> None:
    """Pin thread pools to one thread and make ``src/abdirac`` importable.

    Raises MissingLibrary when the package sources are absent.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "abdirac" / "__init__.py").is_file():
        raise MissingLibrary(f"no abdirac package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def describe() -> dict:
    """Versions and core count recorded next to every result."""
    import platform

    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }
