"""Helpers shared by the tests: sequence extrapolation and log-log slopes."""

import numpy as np

from abdirac.errors import QuadratureError


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
