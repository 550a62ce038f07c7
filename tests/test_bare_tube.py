"""Flux-tube interior, boundary matching and the bare-string limit."""

import cmath
import math
import textwrap

import mpmath
import numpy as np
import pytest

from abdirac import bare_tube as bt
from abdirac import shielded as sh
from abdirac import specfun as sf
from abdirac.errors import OutOfRangeError, RegimeError
from abdirac.model import BarrierConfig, Coupling, TubeConfig, channel_index, make_kinematics
from _helpers import aitken_limit, loglog_slope, mp_bare_weight, mp_ladder_components, run_python

KIN = make_kinematics(E=math.sqrt(2.0))  # k = 1 in natural units
K = KIN.k


def tube_at(kr0: float, alpha: float) -> TubeConfig:
    return TubeConfig(r0=kr0 / K, coupling=Coupling(alpha))


class TestInteriorChi:
    def test_l0_channel1_regular_normalization(self):
        tube = tube_at(0.1, 0.3)
        assert bt.interior_chi(0, 1, tube, KIN, 0.0) == 1.0

    def test_positive_l_vanishes_at_origin(self):
        tube = tube_at(0.1, 0.3)
        for ch in (1, 2):
            assert bt.interior_chi(1, ch, tube, KIN, 0.0) == 0.0

    def test_matches_ode_integration(self):
        # normalized shapes agree between the closed interior solution and
        # direct integration of the radial equation
        tube = tube_at(0.1, 0.3)
        sol = bt.ode_radial_oracle(0, 1, tube, KIN, r_max=2 * tube.r0)
        for frac in (0.25, 0.5, 0.8):
            r = frac * tube.r0
            ana = bt.interior_chi(0, 1, tube, KIN, r) / bt.interior_chi(
                0, 1, tube, KIN, tube.r0
            )
            ode = sol.chi(r) / sol.chi(tube.r0)
            assert abs(ana - ode) < 1e-6 * abs(ode)

    def test_outside_region_rejected(self):
        tube = tube_at(0.1, 0.3)
        with pytest.raises(RegimeError):
            bt.interior_chi(0, 1, tube, KIN, 2 * tube.r0)

    @pytest.mark.parametrize("m", [0, 3, 30])
    def test_free_interior_against_mpmath(self, m):
        # alpha = 0: J_m(k r) Gamma(m + 1) 2^m, with Gamma(m + 1) = m! exact
        tube = TubeConfig(r0=1.0, coupling=Coupling(0.0))
        kin = make_kinematics(k=1.0)
        for r in (0.3, 0.7, 1.0):
            with mpmath.workdps(40):
                want = complex(mpmath.besselj(m, r) * mpmath.factorial(m) * 2 ** m)
            got = bt.interior_chi(m, 1, tube, kin, r)
            assert abs(got - want) <= 1e-13 * abs(want), (m, r)

    def test_free_interior_factorial_overflow_raises(self):
        # 171! overflows a double; the order itself is below the cap
        tube = TubeConfig(r0=1.0, coupling=Coupling(0.0))
        with pytest.raises(OutOfRangeError):
            bt.interior_chi(171, 1, tube, make_kinematics(k=1.0), 0.5)

    def test_free_interior_underflow_raises(self):
        # scipy flushes J_m(0.1) to 0 from m = 101 on, while 40-digit mpmath
        # keeps chi = J_m(0.1) m! 2^m ~ 0.1^m and Lambda ~ 2m/(k r0) finite:
        # neither may read 0 or inf, at zero and at subnormal coupling alike.
        # At m = 100, where J_m is normal, both still agree with mpmath
        kin, x = make_kinematics(k=1.0), mpmath.mpf(0.1)
        with mpmath.workdps(40):
            chi = {m: mpmath.besselj(m, x) * mpmath.factorial(m) * 2 ** m for m in (100, 108)}
            lam = {m: (x * mpmath.besselj(m - 1, x) / mpmath.besselj(m, x) - m) / x
                   for m in (100, 102)}
        assert abs(chi[108] / mpmath.mpf("1.0e-108") - 1) < 1e-4
        assert abs(lam[102] - mpmath.mpf("1019.9995")) < 1e-3
        for alpha in (0.0, 5e-324):
            tube = TubeConfig(0.1, Coupling(alpha))
            with pytest.raises(OutOfRangeError):
                bt.interior_chi(108, 1, tube, kin, r=0.1)
            with pytest.raises(OutOfRangeError):
                bt.log_derivative_interior(102, 1, tube, kin)
            got = bt.interior_chi(100, 1, tube, kin, r=0.1)
            assert abs(got - complex(chi[100])) <= 1e-13 * abs(complex(chi[100]))
            got = bt.log_derivative_interior(100, 1, tube, kin)
            assert abs(got - float(lam[100])) <= 1e-13 * float(lam[100])


class TestLogDerivative:
    def test_small_tube_limit_channel1(self):
        # d(ln chi)/dr * r0 -> |l| - alpha for the aligned channel, l >= 0
        tube = tube_at(1e-3, 0.3)
        d_r0 = bt._interior_s(0, 1, tube, KIN) - bt.exterior_order(0, 1, 0.3)
        assert abs(d_r0 - (-0.3)) < 0.01 * 0.3

    def test_small_tube_limit_channel2(self):
        # d(ln chi)/dr * r0 -> |l+1| + alpha for channel 2, l <= -1
        tube = tube_at(1e-3, 0.3)
        d_r0 = bt._interior_s(-1, 2, tube, KIN) - bt.exterior_order(-1, 2, 0.3)
        assert abs(d_r0 - 0.3) < 0.01 * 0.3

    def test_lambda_scaling_form(self):
        # Lambda = d / k_ch; for the aligned channel k_ch is real and
        # Lambda * k1 * r0 approaches |l| - alpha
        tube = tube_at(1e-3, 0.3)
        lam = bt.log_derivative_interior(0, 1, tube, KIN)
        k1 = math.sqrt(tube.interior_ksq(1, KIN))
        assert abs(lam.imag) < 1e-12
        assert abs(lam.real * k1 * tube.r0 - (-0.3)) < 0.01 * 0.3


class TestMatchingCoefficient:
    def test_zero_coupling_gives_free_solution(self):
        tube = tube_at(0.3, 0.0)
        for l in range(-2, 3):
            for ch in (1, 2):
                A = bt.matching_coefficient(l, ch, tube, KIN).value
                assert abs(A) < 1e-12

    def test_anomalous_limit_positive_alpha(self):
        alpha = 0.3
        want = 1j * math.sin(math.pi * alpha) * cmath.exp(1j * math.pi * alpha)
        A = bt.matching_coefficient(0, 1, tube_at(1e-4, alpha), KIN).value
        assert abs(A - want) < 1e-4

    def test_anomalous_limit_negative_alpha(self):
        alpha = -0.3
        want = -1j * math.sin(math.pi * alpha) * cmath.exp(-1j * math.pi * alpha)
        A = bt.matching_coefficient(-1, 2, tube_at(1e-4, alpha), KIN).value
        assert abs(A - want) < 1e-4

    def test_counter_aligned_slope_matches_order_power(self):
        # channels without the interior-exterior order coincidence decay as
        # (k r0)^(2 nu)
        for l, ch, alpha in [(-1, 1, 0.3), (-2, 1, 0.3), (1, 2, 0.3), (0, 2, 0.3)]:
            nu = bt.exterior_order(l, ch, alpha)
            xs = [1e-2, 1e-3, 1e-4]
            As = [
                bt.matching_coefficient(l, ch, tube_at(x, alpha), KIN).value
                for x in xs
            ]
            slope = loglog_slope(xs, As)
            assert abs(slope - 2 * nu) < 0.01 * 2 * nu, (l, ch)

    def test_aligned_slope_carries_extra_power(self):
        # when the interior log-derivative limit equals the exterior order
        # (spin moment along the flux), the leading numerator cancels and the
        # decay steepens by two powers; confirmed independently by the ODE
        # oracle in TestOdeOracle::test_aligned_slope_from_ode
        for l, ch, alpha in [(1, 1, 0.3), (2, 1, 0.3), (-2, 2, -0.3)]:
            nu = bt.exterior_order(l, ch, alpha)
            xs = [1e-2, 1e-3, 1e-4]
            As = [
                bt.matching_coefficient(l, ch, tube_at(x, alpha), KIN).value
                for x in xs
            ]
            slope = loglog_slope(xs, As)
            assert abs(slope - (2 * nu + 2)) < 0.01 * (2 * nu + 2), (l, ch)

    def test_order_above_one_decays_from_its_limit(self):
        # exterior order nu > 1 with r0 d(ln chi)/dr -> -nu: the leading
        # numerator term x J_{nu-1} survives and A ~ (k r0)^(2 (nu - 1)),
        # with nothing finite left over as k r0 -> 0
        for alpha, l, ch in [(1.62, 0, 1), (-1.38, -1, 2), (2.3, 1, 1)]:
            want = 2 * (bt.exterior_order(l, ch, alpha) - 1)
            xs = [1e-6, 1e-8, 1e-10]
            As = [
                bt.matching_coefficient(l, ch, tube_at(x, alpha), KIN).value
                for x in xs
            ]
            slope = loglog_slope(xs, As)
            assert abs(slope - want) < 0.01 * want, (alpha, l, ch, slope)

    def test_s_matrix_against_mpmath_grid(self):
        # S = 1 + 2A against the 50-digit oracle, from deep in the string
        # limit to k r0 = 3, near-integer couplings of both signs included
        worst, where = 0.0, None
        for alpha in (0.41, 0.91, 0.97, -0.4, -0.95, -1.38, 1.62, 2.3, -2.7):
            for kr0 in (1e-12, 1e-9, 1e-6, 1e-4, 1e-2, 3.0):
                tube = tube_at(kr0, alpha)
                for l in range(-4, 5):
                    for ch in (1, 2):
                        A = bt.matching_coefficient(l, ch, tube, KIN).value
                        err = 2 * abs(A - mp_bare_weight(alpha, l, ch, kr0))
                        if err > worst:
                            worst, where = err, (alpha, kr0, l, ch)
        assert worst <= 1e-13, where

    @pytest.mark.parametrize("alpha, l, kr0", [(0.37, 210, 250.0), (0.37, 250, 300.0),
                                               (-1.38, 240, 260.0), (0.41, 400, 500.0)])
    def test_s_matrix_above_order_200(self, alpha, l, kr0):
        # no order cap: S = 1 + 2A against the 40-digit oracle.  The bound is
        # set by the interior s, whose Kummer ratio scipy gives to ~4e-13 here
        # (1.3e-12 in S at alpha = -1.38, channel 2); J and H alone give
        # ~2e-13
        tube = tube_at(kr0, alpha)
        for ch in (1, 2):
            A = bt.matching_coefficient(l, ch, tube, KIN).value
            assert 2 * abs(A - mp_bare_weight(alpha, l, ch, kr0, dps=40)) <= 2e-12, ch

    def test_accelerated_limits_all_quarters(self):
        for alpha in (0.25, 0.5, 0.75):
            want = 1j * math.sin(math.pi * alpha) * cmath.exp(1j * math.pi * alpha)
            xs = [1e-3 * 10 ** (-0.5 * i) for i in range(5)]
            As = [
                bt.matching_coefficient(0, 1, tube_at(x, alpha), KIN).value
                for x in xs
            ]
            lim, _ = aitken_limit(As)
            assert abs(lim - want) < 1e-6


class TestInteriorS:
    # the (b, c, z = |alpha|) of every bare weight in the matching_sweep grid
    GRID = [(l, ch, alpha, kr0) for alpha in (0.41, -1.38)
            for kr0 in (1e-4, 3.1e-3, 0.0965, 3.0)
            for l in range(-10, 11) for ch in (1, 2)]

    def test_equals_two_call_formula(self):
        # s from F and F' = (b/c) F(b+1|c+1|z) of two scalar calls: bit for bit
        kin = make_kinematics(k=1.0)
        for l, ch, alpha, kr0 in self.GRID:
            tube = TubeConfig(r0=kr0, coupling=Coupling(alpha))
            l_rel, b, c = bt._kummer_args(l, ch, tube, kin, 0.0)
            m = abs(channel_index(l, ch)[0])
            f0 = sf.kummer_f(b, c, abs(alpha)).real
            f1 = (b / c * sf.kummer_f(b + 1.0, c + 1.0, abs(alpha))).real
            k_term = 2.0 * max(l_rel - abs(alpha), 0.0) if l_rel >= 0 else 2.0 * m
            want = k_term + 2.0 * abs(alpha) * (f1 / f0)
            assert bt._interior_s(l, ch, tube, kin) == want, (l, ch, alpha, kr0)

    def test_two_scalar_hyp1f1_calls(self, monkeypatch):
        # F and F' from two calls on Python floats, which kummer_f tests
        # without a numpy reduction
        import scipy.special

        calls = []
        hyp1f1 = scipy.special.hyp1f1

        def counting(*args):
            calls.append(args)
            return hyp1f1(*args)

        monkeypatch.setattr(scipy.special, "hyp1f1", counting)
        kin = make_kinematics(k=1.0)
        for l, ch, alpha, kr0 in self.GRID[::7]:
            calls.clear()
            bt._interior_s(l, ch, TubeConfig(r0=kr0, coupling=Coupling(alpha)), kin)
            assert len(calls) == 2, (l, ch, alpha, kr0)
            assert all(type(v) is float for args in calls for v in args), calls


class TestInteriorNode:
    """chi with a node at r0: alpha = 1, l = 0, channel 1 at k r0 = 2 has
    F(-1|1|1) = 1 - z = 0 exactly, with F' = -F(0|2|1) = -1."""

    KIN = make_kinematics(k=1.0)  # r0 = k r0

    @staticmethod
    def weight(r0):
        return bt.matching_coefficient(0, 1, TubeConfig(r0=r0, coupling=Coupling(1.0)),
                                       TestInteriorNode.KIN).value

    def test_s_and_log_derivative_are_minus_inf(self):
        tube = TubeConfig(r0=2.0, coupling=Coupling(1.0))
        assert bt._kummer_args(0, 1, tube, self.KIN, 0.0) == (0, -1.0, 1.0)
        assert bt._interior_s(0, 1, tube, self.KIN) == -math.inf
        assert bt.log_derivative_interior(0, 1, tube, self.KIN) == complex(-math.inf, 0.0)

    def test_weight_against_mpmath(self):
        # s = -inf leaves A = -J_1(2) / H_1(2); mp_bare_weight cannot serve,
        # as mpmath divides by F = 0
        with mpmath.workdps(30):
            want = complex(-mpmath.besselj(1, 2) / mpmath.hankel1(1, 2))
        assert abs(self.weight(2.0) - want) <= 1e-15

    def test_weight_continuous_through_the_node(self):
        # s is -1.4e6 at r0 (1 - 1e-6) and +1.4e6 at r0 (1 + 1e-6)
        at_node = self.weight(2.0)
        for r0, sign in ((2.0 * (1.0 - 1e-6), -1.0), (2.0 * (1.0 + 1e-6), 1.0)):
            tube = TubeConfig(r0=r0, coupling=Coupling(1.0))
            assert sign * bt._interior_s(0, 1, tube, self.KIN) > 1e6
            assert abs(self.weight(r0) - at_node) <= 1e-6


class TestMatchingTerms:
    @staticmethod
    def _four_calls(nu, x, s):
        # the matching formula with one scalar specfun call per term
        if math.isinf(s):
            return sf.bessel_j(nu, x), sf.hankel1(nu, x)
        return (x * sf.bessel_j(nu - 1.0, x) - s * sf.bessel_j(nu, x),
                x * sf.hankel1(nu - 1.0, x) - s * sf.hankel1(nu, x))

    def test_order_pair_equals_four_calls(self, monkeypatch):
        # every (nu, x, s) the bare and shielded weights of the matching_sweep
        # grid pass in, plus s = +/-inf at each (nu, x): equal bit for bit
        seen = []
        terms = bt._matching_terms

        def recording(nu, x, s):
            seen.append((nu, x, s))
            return terms(nu, x, s)

        # shielded calls the formula through its own import of it
        for module in (bt, sh):
            monkeypatch.setattr(module, "_matching_terms", recording)
        kin = make_kinematics(k=1.0)
        for alpha in (0.41, -1.38):
            c = Coupling(alpha)
            for kr0 in (1e-4, 3.1e-3, 0.0965, 3.0):
                tube = TubeConfig(r0=kr0, coupling=c)
                shields = [sh.shielded_sweep_point(kr0, kr) for kr in (50.0, 6.0)]
                for l in range(-10, 11):
                    for ch in (1, 2):
                        bt.matching_coefficient(l, ch, tube, kin)
                        for barrier, kin_b in shields:
                            sh.shielded_matching(l, ch, barrier, kin_b, c)
        assert len(seen) == 2 * 4 * 21 * 2 * 3
        cases = seen + [(nu, x, s) for nu, x, _ in seen for s in (math.inf, -math.inf)]
        for nu, x, s in cases:
            assert terms(nu, x, s) == self._four_calls(nu, x, s), (nu, x, s)

    @pytest.mark.parametrize("nu, x", [(0.37, 5e-324), (0.37, 1e-310), (200.5, 0.5)])
    def test_errors_keep_the_pair_precedence(self, nu, x):
        # as one call at the order pair (nu - 1, nu): J's overflow at the
        # negative order nu - 1 before H's at nu; at (200.5, 0.5) both sides
        # raise H's overflow
        with pytest.raises(OutOfRangeError) as want:
            sf.bessel_j_hankel1(np.array([nu - 1.0, nu]), x)
        with pytest.raises(OutOfRangeError) as got:
            bt._matching_terms(nu, x, 0.3)
        assert str(got.value) == str(want.value)

    def test_two_pair_calls_per_weight(self, monkeypatch):
        # every public specfun function records its calls; each weight's
        # formula makes two pair calls, at nu - 1 and nu, where s is finite
        # and one, at nu, where s = +/-inf
        calls = []
        for name in sf.__all__:
            fn = getattr(sf, name)
            if callable(fn):
                def recorded(*args, _fn=fn, _name=name, **kwargs):
                    calls.append(_name)
                    return _fn(*args, **kwargs)
                monkeypatch.setattr(sf, name, recorded)
        per_weight = []
        terms = bt._matching_terms

        def recording(nu, x, s):
            start = len(calls)
            out = terms(nu, x, s)
            per_weight.append(calls[start:])
            return out

        for module in (bt, sh):
            monkeypatch.setattr(module, "_matching_terms", recording)
        kin = make_kinematics(k=1.0)
        for alpha in (0.41, -1.38):
            c = Coupling(alpha)
            tube = TubeConfig(r0=0.5, coupling=c)
            barrier, kin_b = sh.shielded_sweep_point(0.5, 6.0)
            for l in range(-3, 4):
                for ch in (1, 2):
                    bt.matching_coefficient(l, ch, tube, kin)
                    sh.shielded_matching(l, ch, barrier, kin_b, c)
                    bt.matching_from_log_derivative(l, ch, c, kin, 0.5, 0.3)
                    recording(bt.exterior_order(l, ch, alpha), 0.5, math.inf)
        finite_s, infinite_s = ["bessel_j_hankel1"] * 2, ["bessel_j_hankel1"]
        assert per_weight == [finite_s, finite_s, finite_s, infinite_s] * (2 * 7 * 2)


class TestWeightMirror:
    """A(l, ch; alpha) = A(-1 - l, 3 - ch; -alpha) bit for bit: flipping the
    flux together with the spin and the angular momentum maps each channel onto
    one with the same exterior order and the same weight."""

    @pytest.mark.parametrize("kr0", [1e-5, 0.5])
    @pytest.mark.parametrize("alpha", [0.37, 0.41, 1.62])
    def test_bare(self, kr0, alpha):
        kin = make_kinematics(k=1.0)
        tube, mirror = TubeConfig(kr0, Coupling(alpha)), TubeConfig(kr0, Coupling(-alpha))
        for l in range(-6, 7):
            for ch in (1, 2):
                got = bt.matching_coefficient(l, ch, tube, kin).value
                assert got == bt.matching_coefficient(-1 - l, 3 - ch, mirror, kin).value

    @pytest.mark.parametrize("kr0", [1e-5, 0.5])
    @pytest.mark.parametrize("alpha", [0.37, 0.41, 1.62])
    @pytest.mark.parametrize("kappa_r0", [50.0, 6.0])
    def test_shielded(self, kr0, alpha, kappa_r0):
        barrier, kin = sh.shielded_sweep_point(kr0, kappa_r0)
        c, mirror = Coupling(alpha), Coupling(-alpha)
        for l in range(-6, 7):
            for ch in (1, 2):
                got = sh.shielded_matching(l, ch, barrier, kin, c).value
                assert got == sh.shielded_matching(-1 - l, 3 - ch, barrier, kin, mirror).value


class TestWeightGaugeShift:
    """A(l + 1, ch; alpha + 1) against A(l, ch; alpha): both have the exterior
    order |l - alpha|, but the tube's interior field grows with alpha, so the
    pair is a gauge copy only in the string limit k r0 -> 0."""

    KR0 = np.geomspace(1e-4, 1e-10, 7)

    @staticmethod
    def _worst_gap(alpha: float, kr0: float) -> tuple[float, int]:
        gaps = [
            (abs(bt.matching_coefficient(l + 1, ch, tube_at(kr0, alpha + 1.0), KIN).value
                 - bt.matching_coefficient(l, ch, tube_at(kr0, alpha), KIN).value), l)
            for l in range(-4, 5) for ch in (1, 2)
        ]
        return max(gaps)

    @pytest.mark.parametrize("alpha", [0.37, 1.62, -1.38])
    def test_gap_closes_in_string_limit(self, alpha):
        # alpha and alpha + 1 of one sign: the worst gap over l in [-4, 4] and
        # both channels falls like (k r0)^(2 min(nu, 1 - nu)), nu = frac(alpha)
        nu = alpha - math.floor(alpha)
        want = 2.0 * min(nu, 1.0 - nu)
        gaps = [self._worst_gap(alpha, x)[0] for x in self.KR0]
        assert abs(loglog_slope(self.KR0, gaps) - want) <= 0.01 * want

    def test_no_gauge_copy_across_zero(self):
        # alpha = -0.61 -> 0.39: the anomalous channel moves from 2 to 1, so at
        # l = -1 each channel holds the surviving weight, |A| -> |sin pi alpha|,
        # on one side and a vanishing one on the other
        alpha = -0.61
        for x in self.KR0:
            gap, l = self._worst_gap(alpha, x)
            assert l == -1
            assert abs(gap - abs(math.sin(math.pi * alpha))) <= 2e-3, x


class TestAnomalousChannel:
    def test_positive(self):
        assert bt.anomalous_channel(Coupling(0.3)) == (0, 1)
        assert bt.anomalous_channel(Coupling(2.3)) == (2, 1)

    def test_negative(self):
        assert bt.anomalous_channel(Coupling(-0.3)) == (-1, 2)
        assert bt.anomalous_channel(Coupling(-1.7)) == (-2, 2)

    def test_integer_none(self):
        for a in (-2.0, 0.0, 1.0):
            assert bt.anomalous_channel(Coupling(a)) is None

    def test_spin_flux_alignment_rule(self):
        # channel 1 exactly when the coupling is positive
        for alpha in np.arange(-2.9, 3.0, 0.23):
            if abs(alpha - round(alpha)) < 1e-9:
                continue
            out = bt.anomalous_channel(Coupling(float(alpha)))
            assert out is not None
            l, ch = out
            assert ch == (1 if alpha > 0 else 2)
            assert l == math.floor(alpha)


class TestBareStringRadial:
    def test_regular_channel_orders(self):
        c = Coupling(0.3)
        r = 2.0
        comp = bt.bare_string_radial(1, c, KIN, r)
        from abdirac import specfun as sf

        assert abs(comp.chi1 - sf.bessel_j(0.7, K * r)) < 1e-13

    def test_anomalous_order_swap(self):
        c = Coupling(0.3)
        r = 2.0
        comp = bt.bare_string_radial(0, c, KIN, r)
        from abdirac import specfun as sf

        assert abs(comp.chi1 - sf.bessel_j(-0.3, K * r)) < 1e-13
        # non-anomalous channel of the same l keeps the positive order
        assert abs(comp.chi2 - sf.bessel_j(0.7, K * r)) < 1e-13

    def test_anomalous_negative_alpha(self):
        c = Coupling(-0.3)
        r = 2.0
        comp = bt.bare_string_radial(-1, c, KIN, r)
        from abdirac import specfun as sf

        # alpha - [alpha] - 1 = -0.3
        assert abs(comp.chi2 - sf.bessel_j(-0.3, K * r)) < 1e-13

    @pytest.mark.parametrize("l, kr", [(210, 150.0), (250, 300.0), (400, 500.0)])
    def test_orders_above_200_against_mpmath(self, l, kr):
        comp = bt.bare_string_radial(l, Coupling(0.37), KIN, kr / K)
        for got, want in zip(comp.as_tuple(), mp_ladder_components(l, 0.37, KIN, kr / K)):
            assert abs(got - want) <= 1e-12 * abs(want), (l, kr)

    def test_origin_divergence_flag(self):
        comp = bt.bare_string_radial(0, Coupling(0.3), KIN, 0.0)
        assert math.isinf(comp.chi1.real)  # negative-order principal component
        # the ladder image of J_-0.3 is -J_0.7, which vanishes at the origin
        assert comp.chi4 == 0

    @staticmethod
    def _four_calls(l, alpha, kin, r, nu1, nu2, a1=1.0, a2=1.0):
        # the four components with one scalar bessel_j call each
        k = kin.k
        x = k * r
        cfac = -1j / (kin.energy_E + kin.mass_M)

        def lower(nu, channel):
            order, sign = bt._lower_order(l, channel, alpha, nu)
            return cfac * sign * k * sf.bessel_j(order, x)

        return (complex(a1 * sf.bessel_j(nu1, x)), complex(a2 * sf.bessel_j(nu2, x)),
                complex(a2 * lower(nu2, 2)), complex(a1 * lower(nu1, 1)))

    @staticmethod
    def _bits(values):
        return [(v.real.hex(), v.imag.hex()) for v in values]

    def test_one_call_equals_four_calls(self):
        kin = make_kinematics(k=0.5)
        swaps = 0
        for alpha in (0.3, -0.4, 1.3, -1.62):
            c = Coupling(alpha)
            for l in range(-3, 4):
                nu1, nu2 = (bt._principal_order(l, ch, c) for ch in (1, 2))
                swaps += nu1 < 0 or nu2 < 0
                mu1, mu2 = (bt.exterior_order(l, ch, alpha) for ch in (1, 2))
                for r in (1e-6, 0.3, 2.0, 40.0):
                    bare = bt.bare_string_radial(l, c, kin, r)
                    want = self._four_calls(l, alpha, kin, r, nu1, nu2)
                    assert self._bits(bare.as_tuple()) == self._bits(want), (alpha, l, r)
                    shielded = sh.shielded_eigenfunction(l, c, kin, r, 0.6 - 0.2j, -1.3)
                    want = self._four_calls(l, alpha, kin, r, mu1, mu2, 0.6 - 0.2j, -1.3)
                    assert self._bits(shielded.as_tuple()) == self._bits(want), (alpha, l, r)
        # the anomalous swap, one channel per coupling
        assert swaps == 4

    @pytest.mark.parametrize("kr", [5e-3, 5e-5, 5e-9])
    def test_lower_components_against_mpmath(self, kr):
        # two-term ladder c (k J_nu' + (g/r) J_nu) at 40 digits, for the bare
        # (anomalous order swap) and shielded partial waves near the origin
        kin = make_kinematics(k=0.5)
        r = kr / kin.k
        cfac = -1j / (kin.energy_E + kin.mass_M)
        worst = 0.0
        for alpha in (0.3, -0.4, 1.3, 0.7):
            c = Coupling(alpha)
            for l in range(-3, 4):
                for bare in (True, False):
                    if bare:
                        comp = bt.bare_string_radial(l, c, kin, r)
                    else:
                        comp = sh.shielded_eigenfunction(l, c, kin, r)
                    for channel, g, got in ((2, l + 1 - alpha, comp.chi3),
                                            (1, alpha - l, comp.chi4)):
                        nu = bt.exterior_order(l, channel, alpha)
                        if bare and bt.anomalous_channel(c) == (l, channel):
                            nu = -nu
                        with mpmath.workdps(40):
                            x = mpmath.mpf(kr)
                            want = cfac * complex(
                                kin.k * mpmath.besselj(nu, x, derivative=1)
                                + g / mpmath.mpf(r) * mpmath.besselj(nu, x)
                            )
                        worst = max(worst, abs(got - want) / abs(want))
        assert worst <= 1e-12

    def test_ladder_consistency_finite_difference(self):
        kin = make_kinematics(E=math.sqrt(1.25))
        h = 1e-5
        r = 2.7
        for alpha in (0.25, 0.5, 0.75):
            c = Coupling(alpha)
            for l in range(-3, 4):
                f0 = bt.bare_string_radial(l, c, kin, r)
                fp = bt.bare_string_radial(l, c, kin, r + h)
                fm = bt.bare_string_radial(l, c, kin, r - h)
                cfac = -1j / (kin.energy_E + kin.mass_M)
                chi3_fd = cfac * (
                    (fp.chi2 - fm.chi2) / (2 * h) + ((l + 1 - alpha) / r) * f0.chi2
                )
                chi4_fd = cfac * (
                    (fp.chi1 - fm.chi1) / (2 * h) - ((l - alpha) / r) * f0.chi1
                )
                assert abs(chi3_fd - f0.chi3) < 1e-7
                assert abs(chi4_fd - f0.chi4) < 1e-7


class TestOdeOracle:
    def test_free_equation_reproduces_bessel(self):
        from abdirac import specfun as sf

        tube = tube_at(0.3, 0.0)
        sol = bt.ode_radial_oracle(0, 1, tube, KIN, r_max=10.0 / K)
        # solution proportional to J_0(kr); compare normalized values
        r_ref = 1.0 / K
        ratio = sol.chi(r_ref) / sf.bessel_j(0.0, K * r_ref).real
        for r in np.linspace(0.5, 9.5, 7) / K:
            want = ratio * sf.bessel_j(0.0, K * r).real
            assert abs(sol.chi(r) - want) < 1e-8 * max(abs(want), 0.05)

    def test_exterior_fit_matches_formula(self):
        for alpha in (0.3, -0.5):
            for l, ch in [(0, 1), (-1, 1), (0, 2), (-1, 2)]:
                tube = tube_at(0.2, alpha)
                sol = bt.ode_radial_oracle(l, ch, tube, KIN, r_max=12.0 / K)
                A_ode = sol.extract_matching()
                A_f = bt.matching_coefficient(l, ch, tube, KIN).value
                if abs(A_f) >= 1e-4:
                    assert abs(A_ode - A_f) < 1e-6 * abs(A_f), (alpha, l, ch)

    def test_exterior_fit_matrix_equals_scalar_calls(self, monkeypatch):
        # the fit matrix comes from one pair call at both radii; each entry
        # equals the scalar J or H call at its radius
        seen = []
        pair = sf.bessel_j_hankel1

        def recording(nu, z):
            out = pair(nu, z)
            seen.append((nu, z, out))
            return out

        monkeypatch.setattr(sf, "bessel_j_hankel1", recording)
        sol = bt.ode_radial_oracle(0, 1, tube_at(0.2, 0.3), KIN, r_max=12.0 / K)
        sol.extract_matching()
        [(nu, z, (j, h))] = seen
        assert z.shape == (2,)
        assert j.tolist() == [sf.bessel_j(nu, x) for x in z.tolist()]
        assert h.tolist() == [sf.hankel1(nu, x) for x in z.tolist()]

    def test_interior_route_matches_formula_on_grid(self):
        for alpha in (0.25, -0.25, 0.5, -0.5, 0.75, -0.75):
            for l in range(-3, 4):
                for ch in (1, 2):
                    for kr0 in (0.2, 0.05):
                        tube = tube_at(kr0, alpha)
                        sol = bt.ode_radial_oracle(
                            l, ch, tube, KIN, r_max=2 * tube.r0
                        )
                        A_ode = sol.matching_from_interior()
                        A_f = bt.matching_coefficient(l, ch, tube, KIN).value
                        assert abs(A_ode - A_f) <= 1e-6 * max(abs(A_f), 1e-250), (
                            alpha,
                            l,
                            ch,
                            kr0,
                        )

    def test_aligned_slope_from_ode(self):
        # fully independent confirmation of the steepened decay of the
        # spin-aligned channel
        xs = [1e-2, 3e-3, 1e-3]
        As = []
        for x in xs:
            tube = tube_at(x, 0.3)
            sol = bt.ode_radial_oracle(1, 1, tube, KIN, r_max=2 * tube.r0)
            As.append(sol.matching_from_interior())
        slope = loglog_slope(xs, As)
        assert abs(slope - 3.4) < 0.01 * 3.4

    def test_spin_term_sign_between_channels(self):
        # inside the tube the two channels with matched centrifugal index
        # differ only by the sign of the field coupling term
        tube = tube_at(0.3, 0.4)
        kin = KIN
        M = kin.mass_M

        def q_term(l_ch, spin, r):
            a_term = tube.coupling.alpha * (r / tube.r0) ** 2
            esq = kin.energy_E ** 2 - M * M
            return esq - ((l_ch - a_term) / r) ** 2 + spin * tube.qB_over_hbar

        r = 0.5 * tube.r0
        m = 1
        diff = q_term(m, +1.0, r) - q_term(m, -1.0, r)
        assert abs(diff - 2 * tube.qB_over_hbar) < 1e-12 * abs(tube.qB_over_hbar)


class TestGuards:
    def test_huge_coupling_raises_instead_of_hanging(self):
        # z = |alpha| (r/r0)^2 = 1e13 in the interior F(b|c|z): scipy's real
        # hyp1f1 does not return there, the library must refuse it at once
        code = textwrap.dedent("""
            from abdirac import bare_tube as bt
            from abdirac.errors import OutOfRangeError
            from abdirac.model import Coupling, TubeConfig, make_kinematics
            tube = TubeConfig(r0=1.0, coupling=Coupling(-1e13 - 0.37))
            kin = make_kinematics(k=1.0)
            def refused(fn, *args):
                try:
                    fn(*args)
                except OutOfRangeError:
                    return True
                return False
            cases = [(f, (l, ch, tube, kin) + extra)
                     for l in range(-2, 3) for ch in (1, 2)
                     for f, extra in ((bt.interior_chi, (1.0,)), (bt.interior_chi, (0.5,)),
                                      (bt.matching_coefficient, ()))]
            print(sum(refused(f, *args) for f, args in cases), len(cases))
        """)
        assert run_python(code, timeout=30.0) == "30 30"

    def test_large_kr0_underflow_raises(self):
        # kr0 = 3.06e4, alpha = 1/2: at l = 150 and 130 scipy's F(b|c|1/2) and
        # F(b+1|c+1|1/2) (b ~ -4.7e8) both underflow to -0.0 or 0.0, which read
        # as a node gave s = -inf and a finite, wrong, unitary weight (mpmath:
        # A = -0.495 - 0.500i at l = 150); at l = 120 F is a normal double
        tube = TubeConfig(r0=3.06e4, coupling=Coupling(0.5))
        kin = make_kinematics(k=1.0)
        for l in (150, 130):
            with pytest.raises(OutOfRangeError, match="underflow"):
                bt.matching_coefficient(l, 1, tube, kin)
        a = bt.matching_coefficient(120, 1, tube, kin).value
        assert cmath.isfinite(a)
        assert abs(abs(1.0 + 2.0 * a) - 1.0) <= 1e-12

    def test_ode_oracle_refuses_what_hangs_it(self):
        # solve_ivp never returned at a NaN or infinite r_max or a NaN rtol;
        # an r_max at or inside the outer edge returned a solution that stopped
        # there, and rtol = 1e308 an A off by ~1e-6.  Each is refused at once.
        code = textwrap.dedent("""
            import math, time
            from abdirac import bare_tube as bt
            from abdirac.errors import RegimeError
            from abdirac.model import BarrierConfig, Coupling, TubeConfig, make_kinematics
            tube, kin = TubeConfig(0.5, Coupling(0.37)), make_kinematics(k=1.0)
            barrier = BarrierConfig(R0=1.0, U=0.5)
            cases = [(r_max, 1e-10, None) for r_max in
                     (math.nan, math.inf, -math.inf, 0.0, -1.0, 5e-324, 0.5)]
            cases += [(r_max, 1e-10, barrier) for r_max in (math.inf, 0.75, 1.0)]
            cases += [(1.0, rtol, None) for rtol in
                      (math.nan, math.inf, 0.0, -1.0, 1.0, 1e308)]
            start = time.perf_counter()
            refused = 0
            for r_max, rtol, bar in cases:
                try:
                    bt.ode_radial_oracle(0, 1, tube, kin, r_max, barrier=bar, rtol=rtol)
                except RegimeError:
                    refused += 1
            print(refused, len(cases), time.perf_counter() - start < 1.0)
        """)
        assert run_python(code, timeout=20.0) == "16 16 True"

    def test_unknown_channel_rejected_everywhere(self):
        c = Coupling(0.3)
        tube = TubeConfig(0.1, c)
        kin = make_kinematics(k=0.5)
        barrier, kin_b = sh.shielded_sweep_point(kR0=0.05, kappaR0=10.0)
        calls = [
            lambda: bt.exterior_order(0, 3, 0.3),
            lambda: bt.anomalous_limit(c, 3),
            lambda: tube.interior_ksq(3, kin),
            lambda: sh.f_factor(0, 3, barrier, kin_b, c),
            lambda: bt.ode_radial_oracle(0, 3, tube, kin, 2.0),
        ]
        for call in calls:
            with pytest.raises(RegimeError, match="channel must be 1 or 2"):
                call()

    def test_ode_oracle_rejects_step_at_e_plus_mc2(self):
        kin = make_kinematics(k=0.5)
        barrier = BarrierConfig(R0=1.0, U=kin.energy_E + kin.mass_M)
        with pytest.raises(RegimeError):
            bt.ode_radial_oracle(0, 1, TubeConfig(0.1, Coupling(0.3)), kin, 2.0,
                                 barrier=barrier)


def test_package_import_leaves_scipy_integrate_unloaded():
    # only ode_radial_oracle needs solve_ivp, and it imports it when called
    code = (
        "import sys\n"
        "import abdirac.scattering, abdirac.propagate, abdirac.shielded, abdirac.bare_tube\n"
        "print('scipy.integrate' in sys.modules)\n"
    )
    assert run_python(code) == "False"
