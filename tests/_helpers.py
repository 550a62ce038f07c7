"""Helpers shared by the tests: sequence extrapolation, log-log slopes, an
mpmath oracle for the bare-tube outgoing-wave weight, and a fresh-interpreter
runner."""

import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

import abdirac
from abdirac.errors import QuadratureError

SRC = str(Path(abdirac.__file__).resolve().parents[1])


def run_python(code: str, timeout: float = 60.0) -> str:
    """Standard output of `code` run in a fresh interpreter with the package
    on its path.  A child still running after `timeout` seconds is killed and
    the calling test fails, so a hang cannot stall the suite."""
    env = {**os.environ, "PYTHONPATH": SRC}
    try:
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        pytest.fail(f"child did not finish within {timeout} s")
    assert run.returncode == 0, run.stderr
    return run.stdout.strip()


def aitken_limit(values) -> tuple[complex, float]:
    """Accelerated limit of a sequence sampled on a geometric parameter grid.

    Repeated Aitken delta-squared sweeps; works for complex sequences whose
    error is a sum of power terms.  Returns (limit, error_estimate).
    """
    seq = [complex(v) for v in values]
    if len(seq) < 3:
        if not seq:
            raise QuadratureError("empty sequence")
        return seq[-1], float("inf")
    prev_best = seq[-1]
    while len(seq) >= 3:
        nxt = []
        for i in range(len(seq) - 2):
            d1 = seq[i + 1] - seq[i]
            d2 = seq[i + 2] - seq[i + 1]
            denom = d2 - d1
            if denom == 0:
                nxt.append(seq[i + 2])
            else:
                nxt.append(seq[i + 2] - d2 * d2 / denom)
        err = abs(nxt[-1] - prev_best)
        prev_best = nxt[-1]
        seq = nxt
    return prev_best, abs(err)


def loglog_slope(x, y) -> float:
    """Least-squares slope of log|y| against log x."""
    lx = np.log(np.asarray(x, dtype=float))
    ly = np.log(np.abs(np.asarray(y)))
    return float(np.polyfit(lx, ly, 1)[0])


def mp_bare_weight(alpha: float, l: int, channel: int, kr0: float, dps: int = 50) -> complex:
    """Outgoing-wave weight A of a bare tube, every step in mpmath at `dps` digits.

    Written from the equations, not from the library: the interior is
    e^{-alpha rho^2/2} F(a|c|alpha rho^2) (hyp1f1) with the signed coupling
    and a = (m + 1 - l_ch)/2 - k_ch^2 r0^2 / (4 alpha), k_ch^2 = k^2 + 2 spin
    alpha / r0^2; the exterior is J_nu + A (J_nu + i Y_nu) with derivatives
    from mpmath.  A depends on k and r0 only through k r0, so k = 1.
    """
    l_ch, spin = (l, 1) if channel == 1 else (l + 1, -1)
    m = abs(l_ch)
    with mpmath.workdps(dps):
        al, x = mpmath.mpf(alpha), mpmath.mpf(kr0)
        nu = abs(l_ch - al)
        if alpha == 0:
            rd = x * mpmath.besselj(m, x, 1) / mpmath.besselj(m, x)
        else:
            a = mpmath.mpf(m + 1 - l_ch) / 2 - (x * x + 2 * spin * al) / (4 * al)
            c = m + 1
            ratio = (a / c) * mpmath.hyp1f1(a + 1, c + 1, al) / mpmath.hyp1f1(a, c, al)
            rd = m - al + 2 * al * ratio  # r0 d(ln chi)/dr at r0
        j, jp = mpmath.besselj(nu, x), mpmath.besselj(nu, x, 1)
        h = j + 1j * mpmath.bessely(nu, x)
        hp = jp + 1j * mpmath.bessely(nu, x, 1)
        return complex(-(x * jp - rd * j) / (x * hp - rd * h))
