"""Gauss-Legendre panel quadrature: one cached rule per order, tiled over
caller-supplied panel edges."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import QuadratureError

__all__ = [
    "gauss_legendre_rule",
    "gauss_panel_nodes",
]


@lru_cache(maxsize=16)
def gauss_legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """`n`-point Gauss-Legendre nodes and weights on [-1, 1].

    Built once per order and shared by every caller, so both arrays are
    read-only.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def gauss_panel_nodes(edges, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights tiled over consecutive panels.

    `edges` is an increasing 1-d array of panel boundaries; each panel gets an
    `n`-point rule.  Returns flattened (nodes, weights).
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2:
        raise QuadratureError("need at least one panel")
    x, w = gauss_legendre_rule(n)
    a = edges[:-1][:, None]
    b = edges[1:][:, None]
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    nodes = (mid + half * x[None, :]).ravel()
    weights = (half * w[None, :]).ravel()
    return nodes, weights
