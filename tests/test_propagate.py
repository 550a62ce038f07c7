"""Propagator difference and the wave-packet difference Delta."""

import cmath
import math
from dataclasses import replace
from functools import lru_cache
from itertools import islice

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abdirac import bare_tube as bt
from abdirac import propagate as pr
from abdirac.errors import (OutOfRangeError, QuadratureError, RegimeError,
                            SingularArgumentError)
from abdirac.model import Coupling, channel_index
from abdirac.numerics import gauss_panel_nodes
from _helpers import greens_diff_bracket, greens_diff_integral_oracle

# r r' / t = 30: far enough out for the asymptotic kernel
KERNEL_POINT = dict(mass=1.0, r=30.0, rp=1.0, theta=0.2, thetap=-0.1, t=1.0)

# alpha at least 0.05 from an integer, either sign
ALPHA = st.floats(-2.95, 2.95).filter(lambda a: abs(a - round(a)) >= 0.05)
ANGLE = st.floats(-math.pi, math.pi)
SETTINGS = settings(max_examples=200)
PACKET_SETTINGS = settings(max_examples=25)

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


# orders of the kernel's surviving wave (0 <= nu < 1, 1/2 where the expansion
# is one term) and two larger ones; above nu ~ 3 the kernel's own double
# prefactor sin(pi nu) e^{i pi nu / 2} carries ~1e-15, so larger orders test
# the expansion alone (LARGE_ORDERS)
SERIES_ORDERS = (0.03, 0.37, 0.5, 0.61, 0.97, 1.5, 2.37)
LARGE_ORDERS = (2.9, 5.3, 11.8, 30.2)


def _mp_kernel(nu, x):
    """sqrt(x) sin(pi nu) e^{i pi nu / 2} e^{-ix} H^(1)_nu(x) to 40 digits."""
    with mpmath.workdps(40):
        xm, num = mpmath.mpf(x), mpmath.mpf(nu)
        return complex(mpmath.sqrt(xm) * mpmath.sinpi(num) * mpmath.expjpi(num / 2)
                       * mpmath.hankel1(num, xm) * mpmath.expj(-xm))


class TestSeriesKernel:
    """`_scaled_kernel`, sqrt(x) times the kernel, from Hankel's expansion at
    x >= X0(nu), AMOS below."""

    @staticmethod
    def _kernel(nu, x, monkeypatch):
        """The kernel at the points x (pref = 1) and whether it called AMOS."""
        calls = []
        hankel1e = pr.sf.hankel1e

        def spy(order, z):
            calls.append(order)
            return hankel1e(order, z)

        monkeypatch.setattr(pr.sf, "hankel1e", spy)
        return np.asarray(pr._scaled_kernel(nu, 1.0, np.asarray(x, dtype=float))), bool(calls)

    @pytest.mark.parametrize("nu", SERIES_ORDERS)
    def test_against_mpmath_across_switch(self, nu, monkeypatch):
        x0 = pr._hankel_rules(nu)[-1][0]
        if x0 == 0.0:  # half-integer order: the expansion terminates
            below, above = [], [1e-3, 0.5, 3.0, 156.0, 1e3, 1e6]
        else:
            below = [0.5 * x0, 0.75 * x0, x0 * (1.0 - 1e-12)]
            above = [x0 * (1.0 + 1e-12), 1.5 * x0, 156.0, 662.0, 1e4, 1e6]
        for xs, amos in ((below, True), (above, False)):
            for x in xs:
                got, called = self._kernel(nu, [x], monkeypatch)
                assert called is amos, x
                assert _rel(complex(got[0]), _mp_kernel(nu, x)) <= 1e-15, x

    @pytest.mark.parametrize("nu", LARGE_ORDERS)
    def test_expansion_at_larger_orders(self, nu):
        # rules need K >= nu - 1/2 terms (DLMF 10.17(iii)) and keep no term
        # above the leading 1, so X0 grows with nu (69.5 at nu = 11.8)
        x0 = pr._hankel_rules(nu)[-1][0]
        assert pr._hankel_expansion(nu, np.array([x0 * (1.0 - 1e-12)])) is None
        for x in (x0 * (1.0 + 1e-12), 1.5 * x0, 1e3, 1e6):
            got = complex(pr._hankel_expansion(nu, np.array([x]))[0])
            with mpmath.workdps(40):
                xm = mpmath.mpf(x)
                want = complex(mpmath.sqrt(mpmath.pi * xm / 2)
                               * mpmath.expjpi(mpmath.mpf(nu) / 2 + mpmath.mpf(1) / 4)
                               * mpmath.hankel1(nu, xm) * mpmath.expj(-xm))
            assert _rel(got, want) <= 1e-15, x

    @pytest.mark.parametrize("nu", [o for o in SERIES_ORDERS if o != 0.5])
    def test_paths_agree_at_switch(self, nu, monkeypatch):
        # both paths at the same points just above X0, where the series has
        # the most terms
        x0 = pr._hankel_rules(nu)[-1][0]
        xs = x0 * np.array([1.0 + 1e-12, 1.001, 1.1])
        series, called = self._kernel(nu, xs, monkeypatch)
        assert not called
        amos = (math.sin(math.pi * nu) * cmath.exp(0.5j * math.pi * nu) * pr.sf.hankel1e(nu, xs)
                * np.sqrt(xs))
        assert np.max(np.abs(series - amos) / np.abs(amos)) <= 1e-15

    def test_one_point_below_switch_takes_amos(self, monkeypatch):
        x0 = pr._hankel_rules(0.37)[-1][0]
        _, called = self._kernel(0.37, [0.99 * x0, 156.0, 1e3], monkeypatch)
        assert called

    def test_switch_point_near_17(self):
        # X0 for 0 < nu < 1 sits where the smallest term of the expansion
        # first reaches half an ulp; the truncation bound sets it there
        for nu in (0.03, 0.37, 0.61, 0.97):
            assert 16.0 < pr._hankel_rules(nu)[-1][0] < 18.0

    def test_terms_at_benchmark_nodes(self):
        # the packet_scan quadrature nodes have x >= 156: eight terms at most
        for nu in (0.25, 0.37, 0.4, 0.52, 0.61):
            rule = next(r for r in pr._hankel_rules(nu) if 156.0 >= r[0])
            assert len(rule[1]) + len(rule[2]) <= 8

    @pytest.mark.parametrize("nu", [0.37, 5.3])
    def test_coefficients_against_definition(self, nu):
        # a_k(nu) = prod_{j=1}^{k} (4 nu^2 - (2j - 1)^2) / (k! 8^k) (DLMF 10.17.1)
        got = list(islice(pr._hankel_coefficients(nu), 12))
        with mpmath.workdps(30):
            for k, a in enumerate(got):
                want = mpmath.fprod(4 * mpmath.mpf(nu) ** 2 - (2 * j - 1) ** 2
                                    for j in range(1, k + 1)) / (mpmath.factorial(k) * 8 ** k)
                assert abs(a - float(want)) <= 4e-16 * k * abs(float(want))

    def test_negative_order_has_no_rule(self):
        assert pr._hankel_rules(-0.3) == ()

    def test_half_order_below_normal_takes_amos(self, monkeypatch):
        # at nu = 1/2 the expansion is exact for every x > 0, but 1/x
        # overflows below the smallest normal double; AMOS, which takes that
        # call, has no finite value there either
        got, called = self._kernel(0.5, [1e-300, 1.0], monkeypatch)
        assert not called and np.isfinite(got).all()
        with pytest.raises(OutOfRangeError):
            self._kernel(0.5, [1e-310, 1.0], monkeypatch)


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

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -2.0])
    def test_integer_coupling_has_no_difference(self, alpha):
        # no partial wave tells bare from shielded at integer alpha, 0 included
        cfg = pr.PacketConfig(delta=4.0, rho0=55.0, theta0=0.05, k=13.0)
        t = pr.peak_time(cfg, cfg.rho0)
        c = Coupling(alpha)
        assert pr.delta_closed(cfg, c, 1.0, cfg.rho0, 0.3, t) == 0
        assert not pr.delta_closed(cfg, c, 1.0, cfg.rho0, 0.3, np.array([t, 1.1 * t])).any()
        assert pr.delta_quadrature(cfg, c, 1.0, cfg.rho0, 0.3, t) == 0

    @pytest.mark.parametrize("alpha", [0.37, -0.61, -1.4, 1.25])
    def test_quadrature_matches_2d_fold(self, alpha):
        cfg = PACKETS[0]
        c = Coupling(alpha)
        t = pr.peak_time(cfg, cfg.rho0)
        quad = pr.delta_quadrature(cfg, c, 1.0, cfg.rho0, 0.3, t)
        assert _rel(quad, _fold_oracle(cfg, c, 1.0, cfg.rho0, 0.3, t)) <= 1e-10

    @pytest.mark.parametrize("cfg, alpha", [
        pytest.param(cfg, alpha, id=f"{alpha}" if cfg is PACKETS[0] else f"theta0<0-{alpha}")
        for cfg in PACKETS for alpha in (0.37, -0.61, 1.25, -1.4)])
    def test_quadrature_matches_mpmath_sum(self, cfg, alpha):
        # alpha = 1.25 and -1.4 have n0 != 0, so beta = alpha - n0 is not
        # alpha; the two packets give both signs of the theta' factor's
        # g = rho0 theta0 / delta^2
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

    def test_refine_check_returns_the_finer_rule(self):
        # refine_check re-evaluates at max_phase / 1.5 with two more Gauss
        # points and, where the two agree, returns the finer value
        cfg = pr.PacketConfig(delta=4.0, rho0=55.0, theta0=0.0, k=13.0)
        t = pr.peak_time(cfg, cfg.rho0)
        args = (cfg, Coupling(0.37), 1.0, cfg.rho0, 0.0, t)
        assert (pr.delta_quadrature(*args, refine_check=True)
                == pr.delta_quadrature(*args, max_phase=4.0, gauss_order=18))

    def test_refine_check_refuses_a_coarse_rule(self):
        # 2 Gauss points on 60 rad panels miss the finer rule by 2.4e-3 of
        # a 3.5e-3 value, far above the 1e-4 relative the check allows
        cfg = pr.PacketConfig(delta=4.0, rho0=55.0, theta0=0.0, k=13.0)
        t = pr.peak_time(cfg, cfg.rho0)
        with pytest.raises(QuadratureError, match="not converged"):
            pr.delta_quadrature(cfg, Coupling(0.37), 1.0, cfg.rho0, 0.0, t,
                                max_phase=60.0, gauss_order=2, refine_check=True)

    def test_suppression_law_closed(self):
        cfg = pr.PacketConfig(delta=5.0, rho0=50.0, theta0=0.0, k=20.0)
        rows = pr.suppression_scan(cfg, [0.0, 5.0], Coupling(0.3))
        assert rows[1]["delta_abs"] / rows[0]["delta_abs"] == pytest.approx(
            math.exp(-0.5), rel=1e-12
        )

    @pytest.mark.parametrize("alpha", [0.37, -0.61, 1.25, -1.4])
    @pytest.mark.parametrize("cfg", PACKETS, ids=["theta0>0", "theta0<0"])
    def test_closed_time_grid_matches_scalar_calls(self, cfg, alpha):
        # +/-3 sigma about the peak, 20 sigma early, then out to where the
        # envelope underflows to 0 (u > 38.6) and where its argument's square
        # overflows (t = 1e200)
        c = Coupling(alpha)
        sigma = cfg.delta / cfg.k
        t_star = pr.peak_time(cfg, cfg.rho0)
        ts = np.concatenate([t_star + sigma * np.linspace(-3.0, 3.0, 61),
                             t_star + sigma * np.array([-20.0, 39.0, 60.0]), [1e200]])
        got = pr.delta_closed(cfg, c, 1.0, cfg.rho0, 0.3, ts)
        assert got.shape == ts.shape and got.dtype == np.complex128
        want = [pr.delta_closed(cfg, c, 1.0, cfg.rho0, 0.3, float(t)) for t in ts]
        assert all(type(w) is complex for w in want)
        assert want[-3:] == [0.0, 0.0, 0.0] and abs(want[-4]) > 0
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-15 * abs(w)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    def test_closed_time_grid_refuses_like_scalar(self, bad):
        cfg, c = PACKETS[0], Coupling(0.37)
        t_star = pr.peak_time(cfg, cfg.rho0)
        with pytest.raises(SingularArgumentError) as scalar:
            pr.delta_closed(cfg, c, 1.0, cfg.rho0, 0.0, bad)
        with pytest.raises(SingularArgumentError) as grid:
            pr.delta_closed(cfg, c, 1.0, cfg.rho0, 0.0, [t_star, bad, 2.0 * t_star])
        assert str(grid.value) == str(scalar.value)

    def test_transit_fit_takes_one_closed_call(self, monkeypatch):
        calls = []
        closed = pr.delta_closed

        def spy(*args, **kwargs):
            calls.append(args)
            return closed(*args, **kwargs)

        monkeypatch.setattr(pr, "delta_closed", spy)
        pr.transit_fit(PACKETS[0], Coupling(0.37))
        assert len(calls) == 1

    def test_surviving_wave_once_per_coupling(self, monkeypatch):
        # a scan with quadrature and a transit fit per coupling: the surviving
        # wave is derived once for each of the two couplings
        seen = []
        channel = pr.anomalous_channel

        def spy(coupling):
            seen.append(coupling.alpha)
            return channel(coupling)

        monkeypatch.setattr(pr, "anomalous_channel", spy)
        template = replace(PACKETS[0], theta0=0.0)
        pr._surviving_wave.cache_clear()
        try:
            for alpha in (0.37, -0.61):
                pr.suppression_scan(template, [0.0, 4.0, 8.0], Coupling(alpha),
                                    use_quadrature=True)
                pr.transit_fit(template, Coupling(alpha))
        finally:
            pr._surviving_wave.cache_clear()
        assert seen == [0.37, -0.61]

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

    @pytest.mark.parametrize("delta, rho0, theta0, k", [(1.0, 200.0, 0.2, 1e3),
                                                       (1.0, 1000.0, 0.3, 1e4)])
    def test_transit_fit_underflow_raises(self, delta, rho0, theta0, k):
        # d = 40 delta and 300 delta: exp(-d^2 / (2 delta^2)) is below the
        # smallest normal double on the fit grid, where the fit returned nan
        cfg = pr.PacketConfig(delta, rho0, theta0, k)
        with pytest.raises(RegimeError, match="underflows"):
            pr.transit_fit(cfg, Coupling(0.37))

    @pytest.mark.parametrize("delta, rho0, k, alpha", [
        (4.0, 55.0, 13.0, 0.37), (3.0, 40.0, 15.0, -0.61), (5.0, 80.0, 12.0, 1.25),
        (4.0, 60.0, 14.0, 0.52), (4.0, 50.0, 12.0, -1.4)])
    def test_transit_width_exact(self, delta, rho0, k, alpha):
        # log |Delta|(t) is an exact parabola, so the fit returns the expected
        # width to rounding once it is conditioned in (t - t*)/sigma
        fit = pr.transit_fit(pr.PacketConfig(delta, rho0, 0.0, k), Coupling(alpha))
        assert abs(fit["width"] / fit["width_expected"] - 1.0) <= 1e-14

    @pytest.mark.parametrize("d", [0.0, 20.0, 30.0, 36.0])
    def test_transit_width_exact_off_axis(self, d):
        # at d up to 36 delta the constant -d^2 / (2 delta^2) of log |Delta|
        # dwarfs the fitted curvature unless the fit subtracts it first
        fit = pr.transit_fit(pr.PacketConfig(1.0, 200.0, d / 200.0, 1e3), Coupling(0.37))
        assert abs(fit["width"] / fit["width_expected"] - 1.0) <= 1e-14


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

    def test_edges_equal_linspace_ones(self):
        # equal phase steps from np.linspace, then the same inverse map: bit for bit
        rng = np.random.default_rng(24)
        for _ in range(2000):
            r_lo = rng.uniform(1.0, 100.0)
            r_hi = r_lo + rng.uniform(1e-3, 100.0)
            s_star = rng.uniform(-50.0, 250.0)
            slope, floor = 10.0 ** rng.uniform(-3.0, 0.0), 10.0 ** rng.uniform(-4.0, 1.0)
            max_phase = rng.uniform(0.5, 6.0)
            edges = pr._phase_panel_edges(r_lo, r_hi, s_star, slope, floor, max_phase)
            y = np.linspace(self._phase(r_lo - s_star, slope, floor),
                            self._phase(r_hi - s_star, slope, floor), len(edges))
            want = s_star + 2.0 * y / (floor + np.sqrt(floor * floor + 2.0 * slope * np.abs(y)))
            want[0], want[-1] = r_lo, r_hi
            assert np.array_equal(edges, want), (r_lo, r_hi, s_star, slope, floor, max_phase)

    def test_panel_floor(self):
        edges = pr._phase_panel_edges(1.0, 1.001, 1.0005, 1.0, 1.0, 2.5)
        assert len(edges) == 5
