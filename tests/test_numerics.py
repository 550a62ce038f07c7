"""Cached Gauss-Legendre rule and its panel tiling."""

import numpy as np
import pytest

from abdirac.numerics import gauss_legendre_rule, gauss_panel_nodes


def _tiling_reference(edges, n):
    """Panel tiling with a rule built by `leggauss` on every call."""
    x, w = np.polynomial.legendre.leggauss(n)
    a = edges[:-1][:, None]
    b = edges[1:][:, None]
    half = 0.5 * (b - a)
    return (0.5 * (a + b) + half * x[None, :]).ravel(), (half * w[None, :]).ravel()


class TestGaussLegendreRule:
    def test_rule_is_read_only(self):
        x, w = gauss_legendre_rule(10)
        with pytest.raises(ValueError):
            x[0] = 0.0
        with pytest.raises(ValueError):
            w[0] = 0.0

    def test_rule_is_built_once_per_order(self):
        assert gauss_legendre_rule(12)[0] is gauss_legendre_rule(12)[0]

    @pytest.mark.parametrize("n", [8, 10, 12, 14])
    def test_tiling_matches_per_call_rule_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        for edges in (
            np.linspace(-1.0, 1.0, 2),
            np.linspace(40.0, 160.0, 97),
            np.cumsum(rng.uniform(1e-3, 3.0, 50)) - 20.0,
        ):
            nodes, weights = gauss_panel_nodes(edges, n)
            ref_nodes, ref_weights = _tiling_reference(edges, n)
            np.testing.assert_array_equal(nodes, ref_nodes)
            np.testing.assert_array_equal(weights, ref_weights)
