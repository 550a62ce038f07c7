"""Coupling decomposition and the unit scheme of `abdirac.model`."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from abdirac import bare_tube as bt
from abdirac import propagate as pr
from abdirac import scattering as sc
from abdirac import shielded as sh
from abdirac.errors import RegimeError, SingularArgumentError
from abdirac.model import BarrierConfig, Coupling, SpinorAmplitudes, TubeConfig, make_kinematics

# couplings just below 0, where alpha - floor(alpha) rounds to 1.0
TINY_NEGATIVE = [-1e-17, -5e-324]
THETAS = np.linspace(-3.0, 3.0, 13)
AMP = SpinorAmplitudes(a1=0.8 + 0.1j, a2=0.5 - 0.2j)


class TestCoupling:
    @settings(max_examples=500)
    @given(alpha=st.floats(-3.0, 3.0))
    @example(alpha=-1e-17)
    @example(alpha=-5e-324)
    @example(alpha=-5.55e-17)
    @example(alpha=-5.56e-17)
    @example(alpha=-2.0 ** -53)
    @example(alpha=-0.0)
    @example(alpha=-1.0)
    @example(alpha=-3.0)
    @example(alpha=1.0 - 2.0 ** -53)
    def test_floor_split(self, alpha):
        c = Coupling(alpha)
        assert type(c.int_part) is int
        assert 0.0 <= c.frac < 1.0
        assert abs(c.int_part + c.frac - alpha) <= math.ulp(max(1.0, abs(alpha)))

    @pytest.mark.parametrize("alpha", TINY_NEGATIVE)
    def test_tiny_negative_coupling_is_zero_coupling(self, alpha):
        kin = make_kinematics(k=1.0)
        for r in (0.5, 7.3):
            got = sc.ab_wavefunction(Coupling(alpha), kin, r, THETAS)
            assert np.array_equal(got, sc.ab_wavefunction(Coupling(0.0), kin, r, THETAS))
            got = sc.dirac_scattering_state("shielded", AMP, Coupling(alpha), kin, r, THETAS)
            want = sc.dirac_scattering_state("shielded", AMP, Coupling(0.0), kin, r, THETAS)
            assert np.array_equal(got.as_array(), want.as_array())

    @pytest.mark.parametrize("alpha", TINY_NEGATIVE)
    def test_tiny_negative_coupling_bare_state_is_zero_coupling(self, alpha):
        kin = make_kinematics(k=1.0)
        for r in (0.5, 7.3):
            got = sc.dirac_scattering_state("bare", AMP, Coupling(alpha), kin, r, THETAS)
            want = sc.dirac_scattering_state("bare", AMP, Coupling(0.0), kin, r, THETAS)
            assert np.array_equal(got.as_array(), want.as_array())


# SI: lengths in m, scaled by the electron's Compton length hbar/Mc, times by
# its light-crossing time; the Dirac layer's M, E and U become Mc/hbar = 1/LAM,
# E/hbar c and U/hbar c, the packet layer's mass M/hbar
HBAR_SI = 1.054571817e-34  # J s
C_SI = 299792458.0  # m / s
M_SI = 9.1093837015e-31  # kg
LAM = HBAR_SI / (M_SI * C_SI)  # m
TAU = LAM / C_SI  # s

ALPHAS = [0.37, -0.61, 1.62]
KR0S = [1e-4, 1e-3, 0.5, 2.0, 3.0]
# the packet_scan packets: (delta, rho0, k, alpha)
SCAN_PACKETS = [(4.0, 55.0, 13.0, 0.37), (3.0, 40.0, 15.0, -0.61), (5.0, 80.0, 12.0, 1.25),
                (4.0, 60.0, 14.0, 0.52), (4.0, 50.0, 12.0, -1.4)]


def _kin(k, si=False):
    """Kinematics at wavenumber k (natural units), in natural or SI units."""
    if not si:
        return make_kinematics(k=k)
    return make_kinematics(k=k / LAM, M=1 / LAM)


class TestUnitSchemes:
    """Dimensionless outputs agree between natural and SI units.

    Compared: the S-matrix elements 1 + 2A (absolutely: a relative check on A
    reads cancellation in channels whose leading terms cancel), also from the
    ODE oracle, the Dirac rows, and G lambda^2, Delta lambda and the transit
    times over lambda/c.
    """

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_bare_matching(self, alpha):
        c = Coupling(alpha)
        for k, kr0 in itertools.product((0.2, 1.3, 5.0), KR0S):
            tube, tube_si = TubeConfig(kr0 / k, c), TubeConfig(kr0 / k * LAM, c)
            for l in (-2, -1, 0, 1, 2):
                for channel in (1, 2):
                    nat = bt.matching_coefficient(l, channel, tube, _kin(k))
                    si = bt.matching_coefficient(l, channel, tube_si, _kin(k, si=True))
                    assert abs(2.0 * (si.value - nat.value)) <= 1e-13

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_shielded_matching(self, alpha):
        # the matching_sweep barriers, kappa R0 = 50, and a weak barrier,
        # kappa R0 = 1e-3, at the kR0 its evanescent window admits
        c = Coupling(alpha)
        points = [(kR0, 50.0) for kR0 in KR0S] + [(kR0, 1e-3) for kR0 in KR0S[:2]]
        for kR0, kappa_r0 in points:
            barrier, kin = sh.shielded_sweep_point(kR0, kappa_r0)
            barrier_si = BarrierConfig(barrier.R0 * LAM, barrier.U / LAM)
            kin_si = _kin(kin.k, si=True)
            for l in (-2, -1, 0, 1, 2):
                for channel in (1, 2):
                    nat = sh.shielded_matching(l, channel, barrier, kin, c)
                    si = sh.shielded_matching(l, channel, barrier_si, kin_si, c)
                    assert abs(2.0 * (si.value - nat.value)) <= 1e-13

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_ode_oracle(self, alpha):
        # the integrator's steps, not the equation, differ between the
        # schemes: the bound is set by its tolerance, rtol = 1e-12
        c = Coupling(alpha)
        tube, tube_si = TubeConfig(0.5, c), TubeConfig(0.5 * LAM, c)
        barrier, barrier_si = BarrierConfig(1.0, 1.0), BarrierConfig(LAM, 1 / LAM)
        for k, bar, bar_si in ((0.3, None, None), (2.0, None, None),
                               (1.0, barrier, barrier_si)):
            r_max = 2.0 * (bar.R0 if bar else tube.r0)
            for l, channel in itertools.product((-1, 0, 1), (1, 2)):
                nat = bt.ode_radial_oracle(l, channel, tube, _kin(k), r_max, bar)
                si = bt.ode_radial_oracle(l, channel, tube_si, _kin(k, si=True),
                                          r_max * LAM, bar_si)
                delta = si.matching_from_interior() - nat.matching_from_interior()
                assert abs(2.0 * delta) <= 1e-9

    @pytest.mark.parametrize("kind", ["bare", "shielded"])
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_dirac_rows(self, kind, alpha):
        c = Coupling(alpha)
        for kr in (0.5, 7.3, 53.0):
            nat = sc.dirac_scattering_state(kind, AMP, c, _kin(1.0), kr, THETAS).as_array()
            si = sc.dirac_scattering_state(kind, AMP, c, _kin(1.0, si=True), kr * LAM,
                                           THETAS).as_array()
            assert np.abs(si - nat).max() <= 1e-14 * np.abs(nat).max()

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_greens_diff(self, alpha):
        c = Coupling(alpha)
        for r, rp, t in ((30.0, 1.0, 1.0), (2.0, 0.5, 3.0), (0.1, 0.2, 0.01)):
            nat = pr.greens_diff_closed(c, 1.0, r, rp, 0.2, -0.1, t)
            si = pr.greens_diff_closed(c, M_SI / HBAR_SI, r * LAM, rp * LAM, 0.2, -0.1,
                                       t * TAU)
            assert abs(si * LAM ** 2 - nat) <= 1e-12 * abs(nat)

    @pytest.mark.parametrize("delta, rho0, k, alpha", SCAN_PACKETS)
    def test_packet_difference_and_transit(self, delta, rho0, k, alpha):
        # the rounding of the SI inputs sets the bounds on Delta and on the
        # width, measured in natural units: one ulp of t alone moves Delta by
        # up to 2e-13 relative (its phase k r is ~700 rad), and one ulp of
        # rho0 moves the fitted width by up to 2e-15 (SI against natural
        # units: up to 1.4e-14)
        c = Coupling(alpha)
        for d in (0.0, delta, 2.0 * delta):
            nat = pr.PacketConfig(delta, rho0, d / rho0, k)
            si = pr.PacketConfig(delta * LAM, rho0 * LAM, d / rho0, k / LAM)
            want = pr.delta_quadrature(nat, c, 1.0, rho0, 0.3, pr.peak_time(nat, rho0))
            t_si = pr.peak_time(si, rho0 * LAM, M_SI / HBAR_SI)
            got = pr.delta_quadrature(si, c, M_SI / HBAR_SI, rho0 * LAM, 0.3, t_si)
            assert abs(got * LAM - want) <= 1e-12 * abs(want)
            fit_nat = pr.transit_fit(nat, c)
            fit_si = pr.transit_fit(si, c, M_SI / HBAR_SI, rho0 * LAM)
            for key, bound in (("center", 1e-13), ("width", 1e-13)):
                assert abs(fit_si[key] / TAU - fit_nat[key]) <= bound * fit_nat[key]


NAN, INF = math.nan, math.inf
KIN1 = make_kinematics(k=1.0)
C03 = Coupling(0.3)
PACKET = pr.PacketConfig(delta=10.0, rho0=100.0, theta0=0.05, k=5.0)

# entry point with one non-finite (or negative) input -> the typed error it
# raises, never a bare OverflowError or ValueError and never a NaN result
NON_FINITE_CASES = {
    "dirac_scattering_state r=inf":
        (lambda: sc.dirac_scattering_state("shielded", AMP, C03, KIN1, INF, 0.3), RegimeError),
    "dirac_scattering_state r=nan":
        (lambda: sc.dirac_scattering_state("bare", AMP, C03, KIN1, NAN, 0.3), RegimeError),
    "dirac_scattering_state theta=nan":
        (lambda: sc.dirac_scattering_state("shielded", AMP, C03, KIN1, 1.0, NAN), RegimeError),
    "dirac_scattering_state theta row with nan":
        (lambda: sc.dirac_scattering_state("bare", AMP, C03, KIN1, 1.0, np.array([0.1, NAN])),
         RegimeError),
    "ab_wavefunction r=inf": (lambda: sc.ab_wavefunction(C03, KIN1, INF, 0.3), RegimeError),
    "ab_wavefunction r=nan": (lambda: sc.ab_wavefunction(C03, KIN1, NAN, 0.3), RegimeError),
    "ab_wavefunction theta=inf": (lambda: sc.ab_wavefunction(C03, KIN1, 1.0, INF), RegimeError),
    "TubeConfig r0=nan": (lambda: TubeConfig(r0=NAN, coupling=C03), RegimeError),
    "TubeConfig r0=inf": (lambda: TubeConfig(r0=INF, coupling=C03), RegimeError),
    "BarrierConfig R0=nan": (lambda: BarrierConfig(R0=NAN, U=1.0), RegimeError),
    "make_kinematics k=inf": (lambda: make_kinematics(k=INF), RegimeError),
    "make_kinematics k=nan": (lambda: make_kinematics(k=NAN), RegimeError),
    "make_kinematics k<0": (lambda: make_kinematics(k=-1.0), RegimeError),
    "make_kinematics E=inf": (lambda: make_kinematics(E=INF), RegimeError),
    "PacketConfig delta=nan":
        (lambda: pr.PacketConfig(delta=NAN, rho0=100.0, theta0=0.05, k=5.0), RegimeError),
    "PacketConfig theta0=nan":
        (lambda: pr.PacketConfig(delta=10.0, rho0=100.0, theta0=NAN, k=5.0), RegimeError),
    "shielded_sweep_point kR0=nan": (lambda: sh.shielded_sweep_point(NAN), RegimeError),
    "delta_closed r=nan": (lambda: pr.delta_closed(PACKET, C03, 1.0, NAN, 0.0, 30.0), RegimeError),
    "delta_closed t=nan":
        (lambda: pr.delta_closed(PACKET, C03, 1.0, 100.0, 0.0, NAN), SingularArgumentError),
    "delta_quadrature t=nan":
        (lambda: pr.delta_quadrature(PACKET, C03, 1.0, 100.0, 0.0, NAN), SingularArgumentError),
    "scattering_amplitude theta=nan": (lambda: sc.scattering_amplitude(C03, KIN1, NAN), RegimeError),
    "asymptotic_state theta=nan":
        (lambda: sc.asymptotic_state("shielded", AMP, C03, KIN1, 100.0, NAN), RegimeError),
    "asymptotic_state r=nan":
        (lambda: sc.asymptotic_state("bare", AMP, C03, KIN1, NAN, 0.3), RegimeError),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE_CASES))
def test_non_finite_input_raises_typed_error(case):
    fn, error = NON_FINITE_CASES[case]
    with pytest.raises(error) as caught:
        fn()
    assert type(caught.value) is error
