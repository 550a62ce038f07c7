"""Small numerical utilities: extrapolation, panel quadrature, slope fits."""

from __future__ import annotations

import numpy as np

from .errors import QuadratureError

__all__ = [
    "aitken_limit",
    "loglog_slope",
    "gauss_panel_nodes",
]


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


def gauss_panel_nodes(edges, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights tiled over consecutive panels.

    `edges` is an increasing 1-d array of panel boundaries; each panel gets an
    `n`-point rule.  Returns flattened (nodes, weights).
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2:
        raise QuadratureError("need at least one panel")
    x, w = np.polynomial.legendre.leggauss(n)
    a = edges[:-1][:, None]
    b = edges[1:][:, None]
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    nodes = (mid + half * x[None, :]).ravel()
    weights = (half * w[None, :]).ravel()
    return nodes, weights
