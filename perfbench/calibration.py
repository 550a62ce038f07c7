"""Machine-speed calibration of the end-to-end timings.

The machine the benchmark was built on (a two-vCPU Xeon VM, 2.0 GHz, shared
with other tenants) changes speed by up to 40% between runs a minute apart,
which is wider than any useful regression bound, and the speed also shifts
within a run.  So a timed run also times a fixed reference kernel between
items, at most every EVERY_S seconds, and scales each measured call by
REFERENCE_S / (the latest kernel time): seconds on the machine in its
reference state.  The kernel uses only Python and numpy,
never abdirac, so no change to the library can move it.  Its three parts
mirror the three workloads' hot paths: a Python complex recurrence (the
Miller ladder), an extended-precision series on one-element numpy arrays
(``specfun``'s ascending series) and a 2-D complex exp/outer product reduced
in long double (the packet quadrature).

Set-up time is mostly imports, which the compute kernel does not track, so
each set-up is scaled instead by IMPORT_REFERENCE_S / (the time a fresh
interpreter takes to import numpy and scipy.integrate, started right after
it).
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

REFERENCE_S = 0.0125  # kernel time on the build machine in a typical state
EVERY_S = 0.25  # at most one kernel sample per this many seconds of work
IMPORT_REFERENCE_S = 0.8  # import_reference() on the build machine in a typical state
IMPORT_REFERENCE = (
    "import time; t = time.perf_counter(); import numpy, scipy.integrate; "
    "print(time.perf_counter() - t)"
)


def kernel() -> float:
    """Run the reference kernel once; return its wall time in seconds."""
    start = time.perf_counter()
    p, q, z = 1.0 + 0.0j, 0.0j, 3.7 + 0.1j
    for m in range(6000, 0, -1):
        p, q = (2.0 * (0.3 + m) / z) * p - q, p
        if abs(p) > 1e250:
            p, q = p * 1e-250, q * 1e-250
    u = -(np.array([3.7 + 0.1j]).astype(np.clongdouble) / 2.0) ** 2
    term = np.ones_like(u)
    total = term.copy()
    for k in range(1, 400):
        term = term * u / (np.longdouble(k) * np.longdouble(0.3 + k))
        total += term
        np.all(np.abs(term) <= 1e-22 * (np.abs(total) + 1e-300))
    r = np.linspace(50.0, 70.0, 300)
    th = np.linspace(-0.3, 0.3, 200)
    grid = np.exp(np.outer(r, 0.5j * th ** 2 - 0.01 * th))
    (np.ones(r.size, dtype=np.clongdouble) @ grid.astype(np.clongdouble)).sum()
    return time.perf_counter() - start


def import_reference() -> float:
    """Seconds a fresh interpreter takes to import numpy and scipy.integrate."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_REFERENCE],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout)


class Calibrator:
    """Samples the kernel between calls; scales each call by the latest sample."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = -float("inf")

    def sample(self) -> None:
        self.samples.append(kernel())
        self._last = time.perf_counter()

    def tick(self) -> None:
        """Take a sample if EVERY_S has passed since the last one."""
        if time.perf_counter() - self._last >= EVERY_S:
            self.sample()

    def scale(self) -> float:
        """Multiplier taking seconds measured now to reference seconds."""
        return REFERENCE_S / self.samples[-1]
