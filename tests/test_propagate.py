"""Propagator difference and the wave-packet difference Delta."""

import cmath
import math

import pytest

from abdirac import propagate as pr
from abdirac.errors import QuadratureError
from abdirac.model import Coupling

# r r' / t = 30: far enough out for the asymptotic kernel
KERNEL_POINT = dict(mass=1.0, r=30.0, rp=1.0, theta=0.2, thetap=-0.1, t=1.0)


def _rel(got: complex, want: complex) -> float:
    return abs(got - want) / abs(want)


class TestKernel:
    @pytest.mark.parametrize("alpha", [0.3, -0.3, 1.3])
    def test_closed_matches_bracket(self, alpha):
        c = Coupling(alpha)
        closed = pr.greens_diff_closed(c, **KERNEL_POINT)
        bracket = pr.greens_diff_bracket(c, **KERNEL_POINT)
        assert _rel(closed, bracket) <= 1e-14

    def test_asymptotic_form_at_x30(self):
        c = Coupling(0.3)
        closed = pr.greens_diff_closed(c, **KERNEL_POINT)
        asym = pr.greens_diff_asymptotic(c, **KERNEL_POINT)
        assert _rel(asym, closed) <= 5e-3

    @pytest.mark.parametrize("alpha", [0.3, -0.3])
    def test_closed_matches_integral_oracle(self, alpha):
        c = Coupling(alpha)
        args = dict(mass=1.0, r=3.0, rp=1.0, theta=0.2, thetap=-0.1, t=1.0)
        closed = pr.greens_diff_closed(c, **args)
        oracle = pr.greens_diff_integral_oracle(c, **args)
        assert _rel(closed, oracle) <= 1e-5

    def test_integer_coupling_has_no_difference(self):
        assert pr.greens_diff_closed(Coupling(2.0), **KERNEL_POINT) == 0


class TestPacket:
    def test_packet_is_normalised(self):
        cfg = pr.PacketConfig(delta=10.0, rho0=100.0, theta0=0.0, k=20.0)
        assert abs(pr.packet_norm(cfg, Coupling(0.3)) - 1.0) <= 1e-3

    def test_closed_form_matches_quadrature(self):
        # rho0 / (k delta^2) = 0.1: the stationary-phase form is within ~1%
        # in magnitude and ~0.15 rad in phase of the exact fold
        cfg = pr.PacketConfig(delta=5.0, rho0=50.0, theta0=0.0, k=20.0)
        c = Coupling(0.3)
        t = pr.peak_time(cfg, cfg.rho0)
        closed = pr.delta_closed(cfg, c, 1.0, cfg.rho0, 0.0, t)
        quad = pr.delta_quadrature(cfg, c, 1.0, cfg.rho0, 0.0, t)
        ratio = quad / closed
        assert abs(abs(ratio) - 1.0) <= 0.03
        assert abs(cmath.phase(ratio)) <= 0.2

    def test_unresolvable_packet_raises(self):
        # n_sigma * delta >= rho0 pushes the radial window down to the axis,
        # where the phase rate needs more panels than the cap allows
        cfg = pr.PacketConfig(delta=10.0, rho0=60.0, theta0=0.0, k=30.0)
        t = pr.peak_time(cfg, cfg.rho0)
        with pytest.raises(QuadratureError):
            pr.delta_quadrature(cfg, Coupling(0.3), 1.0, cfg.rho0, 0.0, t)

    def test_suppression_law_closed(self):
        cfg = pr.PacketConfig(delta=5.0, rho0=50.0, theta0=0.0, k=20.0)
        rows = pr.suppression_scan(cfg, [0.0, 5.0], Coupling(0.3))
        assert rows[1]["delta_abs"] / rows[0]["delta_abs"] == pytest.approx(
            math.exp(-0.5), rel=1e-12
        )
