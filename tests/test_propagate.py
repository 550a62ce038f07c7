"""Propagator difference and the wave-packet difference Delta."""

import cmath
import math
from dataclasses import replace
from functools import lru_cache

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abdirac import bare_tube as bt
from abdirac import propagate as pr
from abdirac.errors import QuadratureError
from abdirac.model import Coupling, channel_index
from abdirac.numerics import gauss_panel_nodes
from _helpers import greens_diff_bracket, greens_diff_integral_oracle

# r r' / t = 30: far enough out for the asymptotic kernel
KERNEL_POINT = dict(mass=1.0, r=30.0, rp=1.0, theta=0.2, thetap=-0.1, t=1.0)

# alpha at least 0.05 from an integer, either sign
ALPHA = st.floats(-2.95, 2.95).filter(lambda a: abs(a - round(a)) >= 0.05)
ANGLE = st.floats(-math.pi, math.pi)
SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)
PACKET_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True, database=None)

# two packets off the axis (theta0 != 0), well inside the resolvable regime
PACKETS = (
    pr.PacketConfig(delta=4.0, rho0=55.0, theta0=0.05, k=13.0),
    pr.PacketConfig(delta=3.0, rho0=40.0, theta0=-0.1, k=15.0),
)

# the packet shapes and couplings of the packet_scan benchmark workload:
# (delta, rho0, k, alpha), alpha of both signs and above 1
SCAN_PACKETS = (
    (4.0, 55.0, 13.0, 0.37),
    (3.0, 40.0, 15.0, -0.61),
    (5.0, 80.0, 12.0, 1.25),
    (4.0, 60.0, 14.0, 0.52),
    (4.0, 50.0, 12.0, -1.4),
)


def _rel(got: complex, want: complex) -> float:
    return abs(got - want) / abs(want)


def _window(cfg, n_sigma=6.0):
    """n-sigma packet support: r_lo, r_hi and the angular half-width s_theta."""
    r_lo = max(cfg.rho0 - n_sigma * cfg.delta, 1e-3 * cfg.rho0)
    return r_lo, cfg.rho0 + n_sigma * cfg.delta, cfg.delta / math.sqrt(r_lo * cfg.rho0)


def _fold_oracle(cfg, coupling, mass, r, theta, t, n_sigma=6.0):
    """Delta as the literal 2-d fold of greens_diff_closed with packet_initial:
    60 x 60 uniform panels of 12 Gauss nodes over the n-sigma window."""
    r_lo, r_hi, s_th = _window(cfg, n_sigma)
    rp, rw = gauss_panel_nodes(np.linspace(r_lo, r_hi, 61), 12)
    thp, tw = gauss_panel_nodes(
        np.linspace(cfg.theta0 - n_sigma * s_th, cfg.theta0 + n_sigma * s_th, 61), 12
    )
    # the kernel's theta' dependence is the angular factor of its surviving wave
    n0, _ = channel_index(*bt.anomalous_channel(coupling))
    radial = np.array([
        pr.greens_diff_closed(coupling, mass, r, float(x), theta, theta, t) for x in rp
    ])
    angular = np.exp(-1j * n0 * (thp - theta))
    psi = pr.packet_initial(cfg, coupling, rp[:, None], thp[None, :])
    return complex((rw * rp * radial) @ psi @ (tw * angular))


@lru_cache(maxsize=None)
def _mp_legendre_rule(n, dps):
    """`n`-point Gauss-Legendre nodes and weights on [-1, 1] to `dps` digits.

    numpy's double-precision roots of P_n, each Newton-refined on the
    three-term recurrence (P_n' = n (x P_n - P_{n-1}) / (x^2 - 1)) until the
    step is below 10^-(dps + 5); w = 2 / ((1 - x^2) P_n'(x)^2).
    """
    def p_and_dp(x):
        p_prev, p = mpmath.mpf(1), x
        for k in range(1, n):
            p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
        return p, n * (x * p - p_prev) / (x * x - 1)

    with mpmath.workdps(dps + 10):
        tol = mpmath.mpf(10) ** (-dps - 5)
        nodes, weights = [], []
        for x in np.polynomial.legendre.leggauss(n)[0]:
            x = mpmath.mpf(x)
            step = 1
            while abs(step) > tol:
                p, dp = p_and_dp(x)
                step = p / dp
                x -= step
            dp = p_and_dp(x)[1]
            nodes.append(x)
            weights.append(2 / ((1 - x * x) * dp * dp))
    return tuple(nodes), tuple(weights)


def _mp_delta(cfg, alpha, r, theta, t, n_sigma=6.0, dps=30):
    """Delta as a `dps`-digit mpmath sum of the 1-d radial integrand (mass = hbar = 1).

    Written from the equations: the kernel sin(pi nu) e^{i pi nu/2} H^(1)_nu
    (DLMF 10.4.7 from J_{+/-nu}) times the free phase e^{i (r^2 + r'^2)/2t},
    the packet's radial exponent, and the theta' Gaussian integral
    sqrt(pi / -A) exp(C - B^2 / 4A).  The panels are the library's panel rule
    at 2 rad per panel, finer than its defaults, placed at the integrand's own
    rate: the chirp |r' - s*| / t, plus |Im b| of the r'-linear phase -b r' of
    -B^2 / 4A and the envelope floor 1 / (3 delta).  Each panel carries the
    20-point Gauss rule to `dps` digits (`_mp_legendre_rule`), so nodes and
    weights are not rounded to double precision.
    """
    l, channel = bt.anomalous_channel(Coupling(alpha))
    nu = bt.exterior_order(l, channel, alpha)
    n0, _ = channel_index(l, channel)
    r_lo, r_hi, _ = _window(cfg, n_sigma)
    d2 = 2.0 * cfg.delta ** 2
    b_rate = (cfg.rho0 * cfg.theta0 / d2) ** 2 / (0.5j * cfg.k - cfg.rho0 / d2)
    edges = pr._phase_panel_edges(r_lo, r_hi, t * cfg.k - r, 1.0 / t,
                                  abs(b_rate.imag) + 1.0 / (3.0 * cfg.delta), 2.0)
    x_rule, w_rule = _mp_legendre_rule(20, dps)
    with mpmath.workdps(dps):
        nodes, weights = [], []
        for lo, hi in zip(map(mpmath.mpf, edges[:-1]), map(mpmath.mpf, edges[1:])):
            mid, half = (lo + hi) / 2, (hi - lo) / 2
            nodes += [mid + half * x for x in x_rule]
            weights += [half * w for w in w_rule]
        tm, rm, num = mpmath.mpf(t), mpmath.mpf(r), mpmath.mpf(nu)
        k, rho0, th0 = mpmath.mpf(cfg.k), mpmath.mpf(cfg.rho0), mpmath.mpf(cfg.theta0)
        delta = mpmath.mpf(cfg.delta)
        d2 = 2 * delta ** 2
        pref = (mpmath.sinpi(num) * mpmath.expjpi(num / 2) / (2 * mpmath.pi * tm)
                / (mpmath.sqrt(mpmath.pi) * delta))
        total = mpmath.mpc(0)
        for rp, weight in zip(nodes, weights):
            x = rm * rp / tm
            hankel = (mpmath.besselj(-num, x) - mpmath.expjpi(-num) * mpmath.besselj(num, x)) / (
                1j * mpmath.sinpi(num))
            a = rp * (1j * k / 2 - rho0 / d2)
            b = 1j * (mpmath.mpf(alpha) - n0) + 2 * rp * rho0 * th0 / d2
            c = -rp * rho0 * th0 ** 2 / d2
            total += weight * rp * hankel * mpmath.exp(
                1j * (rm * rm + rp * rp) / (2 * tm) - 1j * k * rp - (rp - rho0) ** 2 / d2
                + c - b * b / (4 * a)
            ) * mpmath.sqrt(-mpmath.pi / a)
        return complex(pref * total * mpmath.expj(n0 * mpmath.mpf(theta)))


class TestKernel:
    @pytest.mark.parametrize("alpha", [0.3, -0.3, 1.3])
    def test_closed_matches_bracket(self, alpha):
        c = Coupling(alpha)
        closed = pr.greens_diff_closed(c, **KERNEL_POINT)
        bracket = greens_diff_bracket(c, **KERNEL_POINT)
        assert _rel(closed, bracket) <= 1e-14

    @pytest.mark.parametrize("alpha", [0.3, -0.3, 1.3])
    def test_closed_matches_bracket_over_x(self, alpha):
        # the two forms carry phases of up to (r + r')^2 / 2t = 2x rad, each
        # rounded to eps relative; the bracket also loses up to ~4e-14 relative
        # where its two J terms cancel
        eps = np.finfo(float).eps
        for x in np.geomspace(1e-3, 1e3, 41):
            args = dict(mass=1.0, r=math.sqrt(x), rp=math.sqrt(x), theta=0.2, thetap=-0.1, t=1.0)
            closed = pr.greens_diff_closed(Coupling(alpha), **args)
            bracket = greens_diff_bracket(Coupling(alpha), **args)
            assert _rel(closed, bracket) <= 1e-13 + 4.0 * eps * 2.0 * x, x

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
        oracle = greens_diff_integral_oracle(c, **args)
        assert _rel(closed, oracle) <= 1e-5

    def test_integer_coupling_has_no_difference(self):
        assert pr.greens_diff_closed(Coupling(2.0), **KERNEL_POINT) == 0

    @SETTINGS
    @given(alpha=ALPHA, theta=ANGLE, thetap=ANGLE,
           r=st.floats(0.5, 50.0), rp=st.floats(0.5, 50.0))
    def test_mirror_symmetry(self, alpha, theta, thetap, r, rp):
        args = dict(mass=1.0, r=r, rp=rp, t=1.0)
        got = pr.greens_diff_closed(Coupling(alpha), theta=theta, thetap=thetap, **args)
        want = pr.greens_diff_closed(Coupling(-alpha), theta=-theta, thetap=-thetap, **args)
        assert _rel(got, want) <= 1e-13

    @SETTINGS
    @given(alpha=ALPHA.filter(lambda a: a > 0 or a < -1), theta=ANGLE, thetap=ANGLE,
           r=st.floats(0.5, 50.0), rp=st.floats(0.5, 50.0))
    def test_gauge_shift(self, alpha, theta, thetap, r, rp):
        # alpha and alpha + 1 of one sign: across zero the surviving wave
        # changes spin channel and the kernel is a different one
        args = dict(mass=1.0, r=r, rp=rp, theta=theta, thetap=thetap, t=1.0)
        got = pr.greens_diff_closed(Coupling(alpha + 1.0), **args)
        want = pr.greens_diff_closed(Coupling(alpha), **args) * cmath.exp(1j * (theta - thetap))
        assert _rel(got, want) <= 1e-13


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

    @pytest.mark.parametrize("alpha", [0.37, -0.61, -1.4, 1.25])
    def test_quadrature_matches_2d_fold(self, alpha):
        cfg = PACKETS[0]
        c = Coupling(alpha)
        t = pr.peak_time(cfg, cfg.rho0)
        quad = pr.delta_quadrature(cfg, c, 1.0, cfg.rho0, 0.3, t)
        assert _rel(quad, _fold_oracle(cfg, c, 1.0, cfg.rho0, 0.3, t)) <= 1e-10

    @pytest.mark.parametrize("alpha", [0.37, -0.61])
    def test_quadrature_matches_mpmath_sum(self, alpha):
        cfg = PACKETS[0]
        t = pr.peak_time(cfg, cfg.rho0)
        got = pr.delta_quadrature(cfg, Coupling(alpha), 1.0, cfg.rho0, 0.3, t)
        want = _mp_delta(cfg, alpha, cfg.rho0, 0.3, t)
        assert abs(abs(got) - abs(want)) <= 3e-15 * abs(want)
        # the complex error adds an overall phase: the two sums split phases of
        # ~1e3 rad differently, each part rounded to eps relative
        assert abs(got - want) <= 2e-13 * abs(want)

    @PACKET_SETTINGS
    @given(alpha=ALPHA, theta=ANGLE, packet=st.sampled_from(PACKETS))
    def test_quadrature_mirror_symmetry(self, alpha, theta, packet):
        mirrored = replace(packet, theta0=-packet.theta0)
        t = pr.peak_time(packet, packet.rho0)
        got = pr.delta_quadrature(packet, Coupling(alpha), 1.0, packet.rho0, theta, t)
        want = pr.delta_quadrature(mirrored, Coupling(-alpha), 1.0, packet.rho0, -theta, t)
        assert _rel(got, want) <= 1e-13

    @PACKET_SETTINGS
    @given(alpha=ALPHA.filter(lambda a: a > 0 or a < -1), theta=ANGLE,
           packet=st.sampled_from(PACKETS))
    def test_quadrature_gauge_shift(self, alpha, theta, packet):
        t = pr.peak_time(packet, packet.rho0)
        got = pr.delta_quadrature(packet, Coupling(alpha + 1.0), 1.0, packet.rho0, theta, t)
        want = pr.delta_quadrature(packet, Coupling(alpha), 1.0, packet.rho0, theta, t)
        assert _rel(got, want * cmath.exp(1j * theta)) <= 1e-13

    def test_wide_angular_window_raises(self):
        # theta0 +/- n_sigma * s_theta = +/-4.8 rad: not a small-angle packet
        cfg = pr.PacketConfig(delta=16.0, rho0=100.0, theta0=0.0, k=1.0)
        t = pr.peak_time(cfg, cfg.rho0)
        with pytest.raises(QuadratureError, match="angular window"):
            pr.delta_quadrature(cfg, Coupling(0.3), 1.0, cfg.rho0, 0.0, t)

    def test_packet_norm_refuses_wide_angular_window(self):
        # n_sigma * delta >= rho0 puts the window at +/-40 rad: integrated
        # there, the small-angle packet's norm came out ~4e-21 instead of 1
        cfg = pr.PacketConfig(delta=16.0, rho0=100.0, theta0=0.0, k=1.0)
        with pytest.raises(QuadratureError, match="angular window"):
            pr.packet_norm(cfg, Coupling(0.3))

    def test_unresolvable_packet_raises(self):
        # n_sigma * delta >= rho0 pushes the radial window down to the axis:
        # r_lo = 1e-3 rho0 makes the angular window +/-31.6 rad, and the
        # angular-window guard refuses it before any panel is placed
        cfg = pr.PacketConfig(delta=10.0, rho0=60.0, theta0=0.0, k=30.0)
        t = pr.peak_time(cfg, cfg.rho0)
        with pytest.raises(QuadratureError):
            pr.delta_quadrature(cfg, Coupling(0.3), 1.0, cfg.rho0, 0.0, t)

    def test_panel_cap_raises(self):
        # angular window +/-0.95 rad stays inside (-pi, pi), but at k = 10000
        # the kernel chirp alone needs 30001 panels of 6 rad, above the cap
        cfg = pr.PacketConfig(delta=10.0, rho0=100.0, theta0=0.0, k=10000.0)
        t = pr.peak_time(cfg, cfg.rho0)
        with pytest.raises(QuadratureError, match="above the cap"):
            pr.delta_quadrature(cfg, Coupling(0.3), 1.0, cfg.rho0, 0.0, t)

    @pytest.mark.parametrize("theta", [0.0, 0.3])
    @pytest.mark.parametrize("d_over_delta", [0.0, 1.0, 2.0])
    @pytest.mark.parametrize("delta, rho0, k, alpha", SCAN_PACKETS)
    def test_quadrature_matches_fine_rule(self, delta, rho0, k, alpha, d_over_delta, theta):
        cfg = pr.PacketConfig(delta=delta, rho0=rho0, theta0=d_over_delta * delta / rho0, k=k)
        t = pr.peak_time(cfg, cfg.rho0)
        args = (cfg, Coupling(alpha), 1.0, cfg.rho0, theta, t)
        fine = pr.delta_quadrature(*args, max_phase=1.0, gauss_order=24)
        assert _rel(pr.delta_quadrature(*args), fine) <= 1e-13

    def test_panel_count(self, monkeypatch):
        # the panel rule follows the 1-d integrand's chirp and envelope: 13
        # panels here, where a rate that kept the packet's angular phase
        # k theta'^2 / 2 placed 29
        panels = []

        def counting(edges, order):
            panels.append(len(edges) - 1)
            return gauss_panel_nodes(edges, order)

        monkeypatch.setattr(pr, "gauss_panel_nodes", counting)
        cfg = pr.PacketConfig(delta=4.0, rho0=55.0, theta0=0.0, k=13.0)
        t = pr.peak_time(cfg, cfg.rho0)
        pr.delta_quadrature(cfg, Coupling(0.37), 1.0, cfg.rho0, 0.0, t)
        assert panels == [13]

    def test_suppression_law_closed(self):
        cfg = pr.PacketConfig(delta=5.0, rho0=50.0, theta0=0.0, k=20.0)
        rows = pr.suppression_scan(cfg, [0.0, 5.0], Coupling(0.3))
        assert rows[1]["delta_abs"] / rows[0]["delta_abs"] == pytest.approx(
            math.exp(-0.5), rel=1e-12
        )

    @pytest.mark.parametrize("alpha", [0.37, -1.4])
    def test_transit_fit(self, alpha):
        # |Delta|(t) at r = rho0 is a Gaussian centred on the peak time with
        # width delta M / (hbar k)
        fit = pr.transit_fit(pr.PacketConfig(4.0, 55.0, 0.0, 13.0), Coupling(alpha))
        assert all(type(v) is float for v in fit.values())
        assert fit["center"] == pytest.approx(fit["center_expected"], rel=1e-6)
        assert fit["width"] == pytest.approx(fit["width_expected"], rel=1e-6)
        assert fit["center_expected"] == pytest.approx(55.0 / 13.0 * 2.0, rel=1e-12)
        assert fit["width_expected"] == pytest.approx(4.0 / 13.0, rel=1e-12)


class TestPanelEdges:
    # (r_lo, r_hi, s_star): stationary point inside, below and above the window
    WINDOWS = ((31.0, 79.0, 55.0), (31.0, 79.0, 12.5), (31.0, 79.0, 140.0))

    @staticmethod
    def _phase(u, slope, floor):
        return floor * u + 0.5 * slope * u * np.abs(u)

    @pytest.mark.parametrize("r_lo, r_hi, s_star", WINDOWS)
    @pytest.mark.parametrize("slope, floor", [(0.24, 0.016), (13.0 / 110.0, 2.6), (0.12, 1e-4)])
    def test_equal_phase_panels(self, r_lo, r_hi, s_star, slope, floor):
        max_phase = 2.5
        edges = pr._phase_panel_edges(r_lo, r_hi, s_star, slope, floor, max_phase)
        assert edges[0] == r_lo and edges[-1] == r_hi
        assert np.all(np.diff(edges) > 0)
        phase = self._phase(edges - s_star, slope, floor)
        total = phase[-1] - phase[0]
        n = len(edges) - 1
        assert n == max(math.ceil(total / max_phase), 4)
        steps = np.diff(phase)
        assert np.max(np.abs(steps - total / n)) <= 1e-12 * total / n

    def test_panel_floor(self):
        edges = pr._phase_panel_edges(1.0, 1.001, 1.0005, 1.0, 1.0, 2.5)
        assert len(edges) == 5
