"""Barrier region, shielded matching and the shielded-string eigenfunctions."""

import cmath
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from abdirac import bare_tube as bt
from abdirac import shielded as sh
from abdirac import specfun as sf
from abdirac.errors import OutOfRangeError, RegimeError
from abdirac.model import (
    BarrierConfig,
    Coupling,
    TubeConfig,
    barrier_kappa,
    channel_index,
    make_kinematics,
)
from _helpers import (denominator_leading_form, loglog_slope, mp_ladder_components,
                      shielded_matching_denominator)

C03 = Coupling(0.3)


class TestBarrierRadial:
    def test_non_anomalous_order(self):
        b, kin = sh.shielded_sweep_point(kR0=0.05, kappaR0=10.0)
        r = 0.4 * b.R0
        got = sh.barrier_radial_limit(1, 1, b, kin, C03, r)
        want = sf.bessel_j(0.7, 1j * barrier_kappa(kin, b.U) * r)
        assert abs(got - want) < 1e-13 * abs(want)

    def test_anomalous_order_swap(self):
        b, kin = sh.shielded_sweep_point(kR0=0.05, kappaR0=10.0)
        r = 0.4 * b.R0
        got = sh.barrier_radial_limit(0, 1, b, kin, C03, r)
        want = sf.bessel_j(-0.3, 1j * barrier_kappa(kin, b.U) * r)
        assert abs(got - want) < 1e-13 * abs(want)

    def test_imaginary_argument_route(self):
        # J_nu(i kappa r) must agree with the e^{i pi nu/2} I_nu route
        b, kin = sh.shielded_sweep_point(kR0=0.05, kappaR0=10.0)
        r = 0.5 * b.R0
        x = barrier_kappa(kin, b.U) * r
        got = sh.barrier_radial_limit(1, 1, b, kin, C03, r)
        want = np.exp(1j * math.pi * 0.7 / 2) * float(mpmath.besseli(0.7, x))
        assert abs(got - want) < 1e-11 * abs(want)

    def test_finite_tube_ratio_converges_to_swapped_order(self):
        b, kin = sh.shielded_sweep_point(kR0=0.01, kappaR0=10.0)
        kappa = barrier_kappa(kin, b.U)
        r_a, r_b = 0.3 * b.R0, 0.6 * b.R0
        tube = TubeConfig(r0=1e-5 / kin.k, coupling=C03)
        got = sh.finite_tube_barrier_ratio(0, 1, tube, kin, b, r_a, r_b)
        swapped = sf.bessel_j(-0.3, 1j * kappa * r_a) / sf.bessel_j(
            -0.3, 1j * kappa * r_b
        )
        unswapped = sf.bessel_j(0.3, 1j * kappa * r_a) / sf.bessel_j(
            0.3, 1j * kappa * r_b
        )
        assert abs(got / swapped - 1) < 1e-4
        assert abs(got / unswapped - 1) > 1e-3


    @pytest.mark.parametrize("kappa_r0", [10.0, 700.0, 760.0, 1000.0])
    def test_finite_tube_ratio_against_mpmath(self, kappa_r0):
        # I_nu(kappa r) overflows double precision from kappa r ~ 713 on; the
        # ratio itself, ~e^{-0.05 kappa R0}, does not.  chi = C I + D K at 30
        # digits, with x chi'/chi = s - nu at x0 = kappa r0 for the library's
        # interior s and the derivatives by mpmath.diff
        b, kin = sh.shielded_sweep_point(kR0=0.01, kappaR0=kappa_r0)
        tube = TubeConfig(r0=1e-5 / kin.k, coupling=C03)
        r_a, r_b = 0.9 * b.R0, 0.95 * b.R0
        kappa = barrier_kappa(kin, b.U)
        for l, ch in [(0, 1), (1, 1), (-1, 2), (2, 1), (-2, 2)]:
            nu = bt.exterior_order(l, ch, C03.alpha)
            s = bt._interior_s(l, ch, tube, kin, U=b.U)
            with mpmath.workdps(30):
                num, km = mpmath.mpf(nu), mpmath.mpf(kappa)
                x0 = km * mpmath.mpf(tube.r0)
                funcs = [lambda x: mpmath.besseli(num, x), lambda x: mpmath.besselk(num, x)]
                c_i, c_k = (x0 * mpmath.diff(f, x0) - (mpmath.mpf(s) - num) * f(x0)
                            for f in funcs)

                def chi(r):
                    x = km * mpmath.mpf(r)
                    return c_k * funcs[0](x) - c_i * funcs[1](x)

                want = float(chi(r_a) / chi(r_b))
            got = sh.finite_tube_barrier_ratio(l, ch, tube, kin, b, r_a, r_b)
            assert abs(got - want) <= 1e-10 * abs(want), (l, ch)


class TestFFactor:
    def test_lambda_tends_to_one(self):
        b, kin = sh.shielded_sweep_point(kR0=0.01, kappaR0=50.0)
        for l, ch in [(0, 1), (1, 1), (-1, 2), (0, 2), (2, 1)]:
            lam = sh.barrier_log_derivative(l, ch, b, kin, C03)
            assert abs(lam - 1.0) < 0.02, (l, ch)

    def test_formula_structure(self):
        # f (E + M - U) - U * step == (E + M) * Lambda; the barrier-height
        # term carries -(l - alpha) for channel 1 and +(l + 1 - alpha) for 2;
        # the kinematics carries no barrier height, both sides take it from b
        b, kin = sh.shielded_sweep_point(kR0=0.05, kappaR0=10.0)
        kappa = barrier_kappa(kin, b.U)
        ew = kin.energy_E + kin.mass_M
        for l, ch in [(0, 1), (1, 1), (-2, 2), (0, 2)]:
            f = sh.f_factor(l, ch, b, kin, C03)
            lam = sh.barrier_log_derivative(l, ch, b, kin, C03)
            step = (
                -(l - C03.alpha) / (kappa * b.R0)
                if ch == 1
                else (l + 1 - C03.alpha) / (kappa * b.R0)
            )
            assert abs(f * (ew - b.U) - b.U * step - ew * lam) < 1e-12 * abs(ew * lam)

    def test_exact_log_derivative_value(self):
        # l = 0, alpha = 0.3: Lambda from the modified-Bessel ratio of the
        # swapped order, I'_{-0.3} / I_{-0.3} in mpmath
        b, kin = sh.shielded_sweep_point(kR0=0.05, kappaR0=10.0)
        x = barrier_kappa(kin, b.U) * b.R0
        want = float(mpmath.besseli(-0.3, x, derivative=1) / mpmath.besseli(-0.3, x))
        got = sh.barrier_log_derivative(0, 1, b, kin, C03)
        assert abs(got - want) < 1e-8

    def test_excluded_height(self):
        kin = make_kinematics(E=1.5)
        with pytest.raises(RegimeError):
            sh.f_factor(0, 1, BarrierConfig(R0=10.0, U=kin.energy_E + 1.0), kin, C03)


class TestBarrierLogDerivative:
    # (l, channel, alpha) at the principal orders -0.62 and -0.41 (anomalous
    # channels of alpha = -2.62 and 0.41), 0.59, 1.38 and 10.59
    CHANNELS = [(-3, 2, -2.62), (0, 1, 0.41), (1, 1, 0.41), (0, 1, -1.38), (11, 1, 0.41)]

    def test_against_mpmath(self):
        # 40 digits at kappa R0 up to 5000; I_nu itself overflows double
        # precision beyond kappa R0 ~ 700
        for l, ch, alpha in self.CHANNELS:
            coupling = Coupling(alpha)
            nu = bt._principal_order(l, ch, coupling)
            for kappa_r0 in (6.0, 50.0, 1000.0, 5000.0):
                b, kin = sh.shielded_sweep_point(kR0=0.05, kappaR0=kappa_r0)
                with mpmath.workdps(40):
                    xm, num = mpmath.mpf(barrier_kappa(kin, b.U) * b.R0), mpmath.mpf(nu)
                    want = float(mpmath.besseli(num + 1, xm) / mpmath.besseli(num, xm)
                                 + num / xm)
                got = sh.barrier_log_derivative(l, ch, b, kin, coupling)
                assert abs(got - want) <= 1e-12 * abs(want), (nu, kappa_r0)

    def test_underflow_raises_typed_error(self):
        # order 150.5 at kappa R0 = 1e-3, where the scaled I_nu underflows to
        # 0: OutOfRangeError, with no ZeroDivisionError and no numpy warning
        # before it; the barrier itself refuses R0 <= 0 and a non-finite R0
        coupling = Coupling(0.5)
        b, kin = sh.shielded_sweep_point(kR0=1e-4, kappaR0=1e-3)
        assert bt._principal_order(151, 1, coupling) == 150.5
        thick = BarrierConfig(R0=200.0 / barrier_kappa(kin, b.U), U=b.U)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isfinite(sh.barrier_log_derivative(151, 1, thick, kin, coupling))
            with pytest.raises(OutOfRangeError):
                sh.barrier_log_derivative(151, 1, b, kin, coupling)
        for r0 in (0.0, -math.inf, math.nan, math.inf):
            with pytest.raises(RegimeError):
                BarrierConfig(R0=r0, U=b.U)

    def test_underflowed_upper_order_raises(self):
        # order 104.59 at kappa R0 ~ 0.1: the scaled I_nu = 4.75e-304 is
        # normal but I_nu+1 underflows to 0, and I_nu+1/I_nu would read 0
        # where 40-digit mpmath keeps a finite, different Lambda; the weights
        # built on the same pair refuse it too
        coupling = Coupling(0.41)
        b, kin = BarrierConfig(R0=0.1, U=1.0), make_kinematics(k=0.05)
        x, order = barrier_kappa(kin, b.U) * b.R0, bt._principal_order(105, 1, coupling)
        i0, i1 = sf.bessel_ie(np.array([order, order + 1.0]), x)
        assert 0.0 < i0 < 1e-300 and i1 == 0.0
        with mpmath.workdps(40):
            xm, om = mpmath.mpf(x), mpmath.mpf(order)
            want = mpmath.besseli(om + 1, xm) / mpmath.besseli(om, xm) + om / xm
        assert abs(want - mpmath.mpf("1045.90129")) < 1e-5
        for fn in (sh.barrier_log_derivative, sh.f_factor, sh.shielded_matching):
            with pytest.raises(OutOfRangeError):
                fn(105, 1, b, kin, coupling)

    def test_equals_two_call_formula(self):
        # I'/I as two scalar ive calls on numpy doubles,
        # ive(nu + 1, x) / ive(nu, x) + nu / x, over the matching_sweep grid:
        # bit for bit
        for alpha in (0.41, -1.38):
            coupling = Coupling(alpha)
            for kr0 in (1e-4, 3.1e-3, 0.0965, 3.0):
                for kappa_r0 in (50.0, 6.0):
                    b, kin = sh.shielded_sweep_point(kr0, kappa_r0)
                    x = np.float64(barrier_kappa(kin, b.U) * b.R0)
                    for l in range(-10, 11):
                        for ch in (1, 2):
                            nu = np.float64(bt._principal_order(l, ch, coupling))
                            want = float(special.ive(nu + 1.0, x) / special.ive(nu, x) + nu / x)
                            got = sh.barrier_log_derivative(l, ch, b, kin, coupling)
                            assert got == want, (l, ch, alpha, kr0, kappa_r0)


def _mp_shielded_s_matrix(l, ch, coupling, barrier, kin, dps=50):
    """S = 1 + 2A of the shielded string in mpmath, from the library's double
    E and kappa: Lambda = I'_o/I_o at kappa R0 (o the barrier order), the
    spinor-continuity jump on d(ln chi)/dr, and J, Y of the exterior order."""
    kappa = barrier_kappa(kin, barrier.U)
    with mpmath.workdps(dps):
        l_ch, spin = channel_index(l, ch)
        d = mpmath.mpf(l_ch) - mpmath.mpf(coupling.alpha)
        nu, g = abs(d), -spin * d
        order = -nu if bt.anomalous_channel(coupling) == (l, ch) else nu
        R0, U, km = mpmath.mpf(barrier.R0), mpmath.mpf(barrier.U), mpmath.mpf(kappa)
        lam = mpmath.besseli(order, km * R0, 1) / mpmath.besseli(order, km * R0)
        ew = mpmath.mpf(kin.energy_E) + mpmath.mpf(kin.mass_M)
        s = nu + R0 * (ew * km * lam + U * g / R0) / (ew - U)
        x = mpmath.mpf(kin.k) * R0

        def term(f):
            return x * f(nu - 1, x) - s * f(nu, x)

        num = term(mpmath.besselj)
        den = num + 1j * term(mpmath.bessely)
        return complex(1 - 2 * num / den)


class TestShieldedMatching:
    @pytest.mark.parametrize("alpha, channels", [(-0.61, [(-1, 2), (0, 1)]),
                                                 (0.37, [(0, 1)])])
    def test_weak_barrier_against_mpmath(self, alpha, channels):
        # the anomalous channel's s is a pure modified-Bessel ratio that tends
        # to 0 with kappa R0; (0, 1) at alpha = -0.61 is a regular channel
        kin = make_kinematics(k=1.0)
        kappa = barrier_kappa(kin, 1.0)
        c = Coupling(alpha)
        for l, ch in channels:
            for kappa_r0 in (1e-3, 1e-5, 1e-7, 1e-9):
                b = BarrierConfig(R0=kappa_r0 / kappa, U=1.0)
                got = 1.0 + 2.0 * sh.shielded_matching(l, ch, b, kin, c).value
                want = _mp_shielded_s_matrix(l, ch, c, b, kin)
                assert abs(got - want) <= 1e-14, (l, ch, kappa_r0)

    def test_barrier_height_from_barrier(self):
        # kappa comes from the barrier's height: Lambda equals I'/I at
        # barrier_kappa(kin, U) R0 for each height, and two heights give two
        # weights
        kin, c = make_kinematics(k=1.0), Coupling(0.37)
        weights = []
        for U in (1.0, 0.5):
            b = BarrierConfig(R0=5.0, U=U)
            x = barrier_kappa(kin, U) * b.R0
            nu = bt._principal_order(0, 1, c)
            want = float(special.ive(nu + 1.0, x) / special.ive(nu, x) + nu / x)
            assert sh.barrier_log_derivative(0, 1, b, kin, c) == want
            weights.append(sh.shielded_matching(0, 1, b, kin, c).value)
        assert weights[0] != weights[1]

    def test_thick_barrier_is_finite_and_unitary(self):
        # kappa R0 = 1000: I_nu(kappa R0) overflows double precision, its
        # log-derivative does not
        b, kin = sh.shielded_sweep_point(kR0=1e-2, kappaR0=1000.0)
        for l, ch in [(0, 1), (1, 1), (-1, 2), (0, 2)]:
            a = sh.shielded_matching(l, ch, b, kin, C03).value
            assert cmath.isfinite(a), (l, ch)
            assert abs(abs(1 + 2 * a) - 1) <= 1e-12, (l, ch)

    @pytest.mark.parametrize("l", [210, 250])
    def test_orders_above_200_unitary(self, l):
        b, kin = sh.shielded_sweep_point(kR0=80.0, kappaR0=50.0)
        for ch in (1, 2):
            a = sh.shielded_matching(l, ch, b, kin, Coupling(0.37)).value
            assert abs(abs(1 + 2 * a) - 1) <= 1e-12, (l, ch)

    def test_anomalous_channel_slope(self):
        xs = [1e-2, 1e-3, 1e-4]
        As = []
        for x in xs:
            b, kin = sh.shielded_sweep_point(kR0=x, kappaR0=50.0)
            As.append(sh.shielded_matching(0, 1, b, kin, C03).value)
        slope = loglog_slope(xs, As)
        assert abs(slope - 0.6) < 0.02 * 0.6

    def test_flux_free_limit_still_vanishes(self):
        # at zero coupling the l = 0 order is exactly zero, where the decay of
        # the barrier coefficient is logarithmic rather than a power
        c0 = Coupling(0.0)
        xs = [1e-2, 1e-4, 1e-8]
        As = []
        for x in xs:
            b, kin = sh.shielded_sweep_point(kR0=x, kappaR0=50.0)
            As.append(abs(sh.shielded_matching(0, 1, b, kin, c0).value))
        assert As[2] < As[1] < As[0]
        assert As[2] < 0.55 * As[0]
        # 1/log scaling: |A| * ln(1/kR0) roughly constant
        scaled = [a * math.log(1.0 / x) for a, x in zip(As, xs)]
        assert max(scaled) / min(scaled) < 1.6

    def test_denominator_leading_form(self):
        c5 = Coupling(0.5)
        b, kin = sh.shielded_sweep_point(kR0=0.16, kappaR0=50.0)
        exact = shielded_matching_denominator(0, 1, b, kin, c5)
        lead = denominator_leading_form(0, 1, b, kin, c5)
        assert abs(exact / lead - 1) < 0.10

    def test_dichotomy_against_bare_string(self):
        # shielded: A -> 0 for every channel including l = [alpha];
        # bare: the anomalous weight converges to a finite phase factor
        alpha = 0.3
        want = 1j * math.sin(math.pi * alpha) * cmath.exp(1j * math.pi * alpha)
        b, kin_sh = sh.shielded_sweep_point(kR0=1e-4, kappaR0=50.0)
        A_sh = sh.shielded_matching(0, 1, b, kin_sh, C03).value
        kin = make_kinematics(E=math.sqrt(2.0))
        tube = TubeConfig(r0=1e-4 / kin.k, coupling=C03)
        A_bare = bt.matching_coefficient(0, 1, tube, kin).value
        assert abs(A_sh) < 1e-2
        assert abs(A_bare - want) < 1e-3
        assert abs(A_bare) > 0.75

    @staticmethod
    def _worst_ode_gap():
        """Largest |A_ode - A| over three channels: the finite-tube, barrier
        and exterior integration (straight through R0, no jump condition)
        against the r0 -> 0 closed form with its spinor-continuity jump."""
        b, kin = sh.shielded_sweep_point(kR0=0.2, kappaR0=6.0)
        tube = TubeConfig(r0=1e-6 / kin.k, coupling=C03)
        gaps = []
        for l, ch in [(0, 1), (-1, 2), (1, 1)]:
            sol = bt.ode_radial_oracle(l, ch, tube, kin, r_max=2 * b.R0, barrier=b)
            gaps.append(abs(sol.matching_from_interior() - sh.shielded_matching(
                l, ch, b, kin, C03).value))
        return max(gaps)

    def test_ode_oracle_agreement_with_barrier(self):
        # worst measured 4.7e-14, in the anomalous channel (0, 1), where the
        # tube of k r0 = 1e-6 stands in for the string (Python 3.11, scipy 1.17)
        assert self._worst_ode_gap() <= 5e-13

    def test_ode_oracle_catches_a_wrong_jump(self, monkeypatch):
        # E + M off by 1e-6 in the jump moves A by 1.1e-8 to 2.2e-8; in
        # bare_tube too, so an oracle that shared the jump would move with it
        def mutated(l, channel, alpha, kin, U, s_in):
            ew = (kin.energy_E + kin.mass_M) * (1 + 1e-6)
            g = bt._ladder_coefficient(l, channel, alpha)
            return (ew * s_in + U * (g - bt.exterior_order(l, channel, alpha))) / (ew - U)

        monkeypatch.setattr(sh, "_spinor_jump", mutated)
        monkeypatch.setattr(bt, "_spinor_jump", mutated)
        assert self._worst_ode_gap() > 5e-9

    @settings(max_examples=300)
    @given(alpha=st.floats(-2.9, 1.9).filter(lambda a: a > 0 or a < -1),
           l=st.integers(-10, 10), channel=st.sampled_from((1, 2)),
           kr0=st.floats(math.log(1e-4), math.log(3.0)).map(math.exp),
           kappa_r0=st.sampled_from((6.0, 50.0)))
    def test_gauge_shift(self, alpha, l, channel, kr0, kappa_r0):
        # alpha -> alpha + 1 relabels l -> l + 1 and leaves every order alone.
        # Only for alpha and alpha + 1 of one sign: across zero the surviving
        # wave moves to the other spin channel, and the finite barrier's
        # weights differ by up to 4.2e-6 (kR0 = 2, kappa R0 = 6, alpha = -0.51,
        # l = -1, channel 1), so the shift is not a symmetry there.
        # Rounding alpha + 1 moves the order by up to 1.1e-16 at small alpha
        # (|got - want| = 1.1e-15 at alpha = 1e-10)
        b, kin = sh.shielded_sweep_point(kr0, kappa_r0)
        got = sh.shielded_matching(l + 1, channel, b, kin, Coupling(alpha + 1.0)).value
        want = sh.shielded_matching(l, channel, b, kin, Coupling(alpha)).value
        assert abs(got - want) <= 1e-14


class TestShieldedEigenfunction:
    KIN = make_kinematics(E=math.sqrt(2.0))

    def test_positive_orders_only(self):
        r = 2.0
        comp = sh.shielded_eigenfunction(0, C03, self.KIN, r)
        want = sf.bessel_j(0.3, self.KIN.k * r)
        assert abs(comp.chi1 - want) < 1e-13

    @pytest.mark.parametrize("l, kr", [(210, 150.0), (250, 300.0), (400, 500.0)])
    def test_orders_above_200_against_mpmath(self, l, kr):
        kin = self.KIN
        comp = sh.shielded_eigenfunction(l, Coupling(0.37), kin, kr / kin.k)
        for got, want in zip(comp.as_tuple(), mp_ladder_components(l, 0.37, kin, kr / kin.k)):
            assert abs(got - want) <= 1e-12 * abs(want), (l, kr)

    def test_chi4_divergent_order(self):
        r = 2.0
        comp = sh.shielded_eigenfunction(0, C03, self.KIN, r)
        cfac = -1j / (self.KIN.energy_E + 1.0) * self.KIN.k
        want = cfac * sf.bessel_j(-0.7, self.KIN.k * r)
        assert abs(comp.chi4 - want) < 1e-13

    def test_ladder_consistency(self):
        h = 1e-5
        r = 2.7
        kin = self.KIN
        for alpha in (0.25, 0.5, 0.75):
            c = Coupling(alpha)
            for l in range(-3, 4):
                f0 = sh.shielded_eigenfunction(l, c, kin, r)
                fp = sh.shielded_eigenfunction(l, c, kin, r + h)
                fm = sh.shielded_eigenfunction(l, c, kin, r - h)
                cfac = -1j / (kin.energy_E + kin.mass_M)
                chi4_fd = cfac * (
                    (fp.chi1 - fm.chi1) / (2 * h) - ((l - alpha) / r) * f0.chi1
                )
                chi3_fd = cfac * (
                    (fp.chi2 - fm.chi2) / (2 * h) + ((l + 1 - alpha) / r) * f0.chi2
                )
                assert abs(chi4_fd - f0.chi4) < 1e-7
                assert abs(chi3_fd - f0.chi3) < 1e-7

    def test_all_components_vanish_at_small_kr_except_anomalous(self):
        # pointwise decay toward the origin for every l except [alpha]; the
        # slowest component goes like (kr)^min-order, so compare two radii
        kin = self.KIN
        for l in (-2, -1, 1, 2):
            far = sh.shielded_eigenfunction(l, C03, kin, 1e-4 / kin.k)
            near = sh.shielded_eigenfunction(l, C03, kin, 1e-8 / kin.k)
            for v_near, v_far in zip(near.as_tuple(), far.as_tuple()):
                assert abs(v_near) <= 0.5 * abs(v_far) + 1e-30, l
        # l = [alpha]: the lower pair diverges at the origin instead
        anom_far = sh.shielded_eigenfunction(0, C03, kin, 1e-4 / kin.k)
        anom_near = sh.shielded_eigenfunction(0, C03, kin, 1e-8 / kin.k)
        assert abs(anom_near.chi4) > 1e2 * abs(anom_far.chi4)

    def test_attenuation_scale_inside_barrier(self):
        b, kin = sh.shielded_sweep_point(kR0=0.01, kappaR0=50.0)
        kappa = barrier_kappa(kin, b.U)
        r = b.R0 - 2.0 / kappa
        ratio = abs(
            sh.barrier_radial_limit(1, 1, b, kin, C03, r)
            / sh.barrier_radial_limit(1, 1, b, kin, C03, b.R0)
        )
        assert abs(ratio / math.exp(-kappa * (b.R0 - r)) - 1) < 0.05


class TestBareVsShieldedL0:
    """The l = 0 partial wave at 0 < alpha < 1, bare against shielded, from the
    generic radial paths; w = k / (E + M) and x = k r."""

    KIN = make_kinematics(E=math.sqrt(2.0))

    def pair(self, r):
        return (bt.bare_string_radial(0, C03, self.KIN, r),
                sh.shielded_eigenfunction(0, C03, self.KIN, r))

    def test_channel2_tower_identical(self):
        bare, shl = self.pair(2.0)
        assert bare.chi2 == shl.chi2
        assert bare.chi3 == shl.chi3

    def test_channel1_tower_orders(self):
        # chi1 has order -alpha (bare) and +alpha (shielded)
        r = 2.0
        x = self.KIN.k * r
        bare, shl = self.pair(r)
        assert abs(bare.chi1 - complex(mpmath.besselj(-0.3, x))) < 1e-13
        assert abs(shl.chi1 - complex(mpmath.besselj(0.3, x))) < 1e-13

    def test_small_kr_power_ratio(self):
        # chi1 bare / chi1 shielded ~ (kr)^(-2 alpha) * const at small kr
        alpha = 0.3
        r1, r2 = 1e-4 / self.KIN.k, 1e-5 / self.KIN.k
        b1, s1 = self.pair(r1)
        b2, s2 = self.pair(r2)
        slope = math.log(abs(b2.chi1 / s2.chi1) / abs(b1.chi1 / s1.chi1)) / math.log(r2 / r1)
        assert abs(slope + 2 * alpha) < 1e-3

    def test_chi3_value_against_specfun(self):
        # chi3 = -i w J_{-alpha}(x), the same in both
        r = 1.0 / self.KIN.k
        w = self.KIN.k / (self.KIN.energy_E + 1.0)
        want = -1j * w * complex(mpmath.besselj(-0.3, 1.0))
        for comp in self.pair(r):
            assert abs(comp.chi3 - want) < 1e-14

    def test_matches_generic_radial_paths(self):
        # the closed l = 0 tables: bare (J_{-a}, J_{1-a}, -i w J_{-a}, i w J_{1-a}),
        # shielded (J_a, J_{1-a}, -i w J_{-a}, -i w J_{a-1})
        r = 2.0
        x = self.KIN.k * r
        w = self.KIN.k / (self.KIN.energy_E + 1.0)
        j = {nu: complex(mpmath.besselj(nu, x)) for nu in (-0.3, 0.7, 0.3, -0.7)}
        tables = (
            (j[-0.3], j[0.7], -1j * w * j[-0.3], 1j * w * j[0.7]),
            (j[0.3], j[0.7], -1j * w * j[-0.3], -1j * w * j[-0.7]),
        )
        for table, comp in zip(tables, self.pair(r)):
            for want, got in zip(table, comp.as_tuple()):
                assert abs(got - want) < 1e-12
