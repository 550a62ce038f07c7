"""Partial-wave scattering states, asymptotics and amplitudes."""

import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from abdirac import scattering as sc
from abdirac import specfun as sf
from abdirac.errors import RegimeError, SingularArgumentError
from abdirac.model import Coupling, SpinorAmplitudes, make_kinematics
from _helpers import mp_dirac_state

KIN = make_kinematics(E=math.sqrt(2.0))  # k = 1
AMP = SpinorAmplitudes(a1=0.8 + 0.1j, a2=0.5 - 0.2j)


class TestScalarSums:
    def test_zero_coupling_is_plane_wave(self):
        for kr in (0.5, 5.0, 50.0):
            for th in np.linspace(-3.0, 3.0, 7):
                got = sc.ab_wavefunction(Coupling(0.0), KIN, kr, float(th))
                want = cmath.exp(-1j * kr * math.cos(th))
                assert abs(got - want) < 1e-10

    def test_integer_coupling_pure_gauge(self):
        got = sc.ab_wavefunction(Coupling(1.0), KIN, 5.0, 0.7)
        want = cmath.exp(1j * 0.7) * cmath.exp(-1j * 5.0 * math.cos(0.7))
        assert abs(got - want) < 1e-12

    def test_single_valuedness(self):
        for th in (0.0, 1.1, -2.5):
            a = sc.ab_wavefunction(Coupling(0.3), KIN, 10.0, th)
            b = sc.ab_wavefunction(Coupling(0.3), KIN, 10.0, th + 2 * math.pi)
            assert abs(a - b) < 1e-12

    def test_gauge_reduction_of_large_coupling(self):
        # alpha and alpha - [alpha] differ by e^{i [alpha] theta} exactly
        th, r = 0.9, 6.0
        full = sc.ab_wavefunction(Coupling(2.3), KIN, r, th)
        reduced = sc.ab_wavefunction(Coupling(0.3), KIN, r, th)
        assert abs(full - cmath.exp(2j * th) * reduced) < 1e-12

    @staticmethod
    def _bare_psi1(c, r, th):
        """Scalar wave function of a bare string: psi1 of the spin-up state."""
        up = SpinorAmplitudes(1.0, 0.0)
        return sc.dirac_scattering_state("bare", up, c, KIN, r, th).psi1

    def test_bare_minus_shielded_is_l0_swap(self):
        # alpha = 1.3 carries the gauge factor e^{i theta}
        r = 7.0
        for c in (Coupling(0.3), Coupling(1.3)):
            nu = c.frac
            swap = cmath.exp(0.5j * math.pi * nu) * sf.bessel_j(-nu, r) - cmath.exp(
                -0.5j * math.pi * nu
            ) * sf.bessel_j(nu, r)
            for th in (0.3, 2.0, -1.4):
                d = self._bare_psi1(c, r, th) - sc.ab_wavefunction(c, KIN, r, th)
                assert abs(d - cmath.exp(1j * c.int_part * th) * swap) < 1e-12

    def test_bare_scalar_diverges_at_origin(self):
        c = Coupling(0.5)
        small = self._bare_psi1(c, 1e-6, 0.0)
        smaller = self._bare_psi1(c, 1e-8, 0.0)
        assert abs(smaller) > 9 * abs(small)  # (kr)^(-1/2) growth
        sh_small = sc.ab_wavefunction(c, KIN, 1e-8, 0.0)
        assert abs(sh_small) < 2.0

    def test_truncation_metadata(self):
        _, info = sc.ab_wavefunction(
            Coupling(0.3), KIN, 30.0, 0.5, tol=1e-10, return_info=True
        )
        assert info.tail_estimate <= 1e-10
        assert info.l_max == sc.truncation_order(30.0, 1e-10)


class TestDiracStates:
    def test_spin_down_incidence_shields_equal_bare(self):
        # the bare-string extra column is proportional to a1
        amp = SpinorAmplitudes(a1=0.0, a2=1.0)
        c = Coupling(0.3)
        for th in (0.4, -1.2):
            b = sc.dirac_scattering_state("bare", amp, c, KIN, 9.0, th)
            s = sc.dirac_scattering_state("shielded", amp, c, KIN, 9.0, th)
            assert np.allclose(b.as_array(), s.as_array(), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("alpha", [-0.4, -1.4])
    def test_spin_up_incidence_shields_equal_bare_at_negative_coupling(self, alpha):
        # at alpha < 0 the anomalous channel is 2: the bare-string extra column
        # is proportional to a2, so spin-up incidence sees no difference
        amp = SpinorAmplitudes(a1=1.0, a2=0.0)
        c = Coupling(alpha)
        for kr in (0.7, 3.0, 12.0):
            b = sc.dirac_scattering_state("bare", amp, c, KIN, kr, TestThetaArray.THETAS)
            s = sc.dirac_scattering_state("shielded", amp, c, KIN, kr, TestThetaArray.THETAS)
            assert np.allclose(b.as_array(), s.as_array(), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("kind", ["bare", "shielded"])
    def test_mirror_symmetry(self, kind):
        # the reflection y -> -y takes alpha -> -alpha and theta -> -theta and
        # exchanges the spin components: a1 <-> a2, (psi1, psi2, psi3, psi4)
        # -> (psi2, psi1, psi4, psi3); the moduli agree (the phases differ by
        # the gauge factors e^{i [alpha] theta} of the two couplings)
        thetas = TestThetaArray.THETAS
        mirrored = SpinorAmplitudes(a1=AMP.a2, a2=AMP.a1)
        for alpha in (0.4, 1.4, 0.37, 2.62):
            for kr in (0.7, 3.0, 12.0, 60.0):
                got = sc.dirac_scattering_state(kind, AMP, Coupling(alpha), KIN, kr, thetas)
                mirror = sc.dirac_scattering_state(kind, mirrored, Coupling(-alpha), KIN, kr,
                                                   -thetas).as_array()[[1, 0, 3, 2]]
                err = np.abs(np.abs(got.as_array()) - np.abs(mirror)).max()
                assert err <= 1e-12, (alpha, kr, err)

    def test_bare_minus_shielded_is_hankel_column(self):
        c = Coupling(0.5)
        r, th = 10.0, math.pi / 2
        b = sc.dirac_scattering_state("bare", AMP, c, KIN, r, th)
        s = sc.dirac_scattering_state("shielded", AMP, c, KIN, r, th)
        diff = b.as_array() - s.as_array()
        w = KIN.k / (KIN.energy_E + 1.0)
        ph = cmath.exp(0.25j * math.pi) * math.sin(0.5 * math.pi)
        want1 = 1j * AMP.a1 * ph * sf.hankel1(0.5, r)
        want4 = w * AMP.a1 * ph * sf.hankel1(-0.5, r) * cmath.exp(1j * th)
        assert abs(diff[0] - want1) < 1e-10
        assert abs(diff[1]) < 1e-13
        assert abs(diff[2]) < 1e-13
        assert abs(diff[3] - want4) < 1e-10

    def test_lower_components_scale_linearly_with_momentum_ratio(self):
        c = Coupling(0.5)
        kr = 5.0
        ks = [1e-3, 1e-2, 1e-1]
        mags = []
        for k in ks:
            kin = make_kinematics(k=k)
            # fixed kr: the Hankel correction magnitude tracks hbar k / Mc
            state = sc.dirac_scattering_state(
                "shielded", SpinorAmplitudes(1.0, 1.0), c, kin, kr / k, 0.6
            )
            corr3 = state.psi3 + (k / (kin.energy_E + 1.0)) * state.psi2
            mags.append(abs(corr3))
        slope = np.polyfit(np.log(ks), np.log(mags), 1)[0]
        assert abs(slope - 1.0) < 0.02

    def test_asymptotic_agreement_per_component(self):
        for kind in ("shielded", "bare"):
            for kr in (100.0, 400.0):
                tol = max(0.01, 3.0 / kr)
                for th in (math.pi / 4, -math.pi / 2, 3 * math.pi / 4):
                    for alpha in (0.25, 0.5, 0.75, -0.25, -0.5, -1.75, 1.25):
                        c = Coupling(alpha)
                        ex = sc.dirac_scattering_state(kind, AMP, c, KIN, kr, th)
                        asy = sc.asymptotic_state(kind, AMP, c, KIN, kr, th)
                        for pe, pa in zip(ex.as_array(), asy.as_array()):
                            assert abs(pe - pa) <= tol * abs(pe), (kind, kr, th, alpha)

    @pytest.mark.parametrize("kind", ["bare", "shielded"])
    @pytest.mark.parametrize("alpha", [0.37, -0.61])
    def test_paper_scale_row_matches_asymptotics(self, kind, alpha):
        # the paper's half-fringe tube (2 T, r0 ~ 18 nm, 100 keV) sits at
        # k r0 ~ 3.1e4; a row there keeps l_max ~ 3.1e4 + 260
        kr = 3.1e4
        kin = make_kinematics(k=1.0)  # r = kr exactly
        c = Coupling(alpha)
        thetas = np.linspace(-2.5, 2.5, 8)
        row = sc.dirac_scattering_state(kind, AMP, c, kin, kr, thetas).as_array()
        for j, th in enumerate(thetas):
            asy = sc.asymptotic_state(kind, AMP, c, kin, kr, float(th)).as_array()
            assert np.all(np.abs(row[:, j] - asy) <= 3.0 / kr * np.abs(row[:, j])), (kind, th)

    def test_unknown_kind_raises(self):
        c = Coupling(0.3)
        with pytest.raises(RegimeError, match="kind must be 'bare' or 'shielded'"):
            sc.dirac_scattering_state("string", AMP, c, KIN, 10.0, 0.5)
        with pytest.raises(RegimeError, match="kind must be 'bare' or 'shielded'"):
            sc.asymptotic_state("string", AMP, c, KIN, 100.0, 0.5)

    def test_asymptotic_guards(self):
        c = Coupling(0.3)
        with pytest.raises(RegimeError):
            sc.asymptotic_state("bare", AMP, c, KIN, 10.0, 0.5)
        with pytest.raises(RegimeError):
            sc.asymptotic_state("bare", AMP, c, KIN, 100.0, math.pi - 0.05)

    def test_scattered_modulus_equal_between_kinds(self):
        # per-component scattered moduli agree between bare and shielded
        c = Coupling(0.3)
        kr, th = 200.0, math.pi / 3
        inc = np.array(
            [AMP.a1, AMP.a2, -KIN.k / (KIN.energy_E + 1) * AMP.a2,
             -KIN.k / (KIN.energy_E + 1) * AMP.a1]
        ) * cmath.exp(-1j * kr * math.cos(th) + 1j * 0.3 * th)
        b = sc.asymptotic_state("bare", AMP, c, KIN, kr, th).as_array() - inc
        s = sc.asymptotic_state("shielded", AMP, c, KIN, kr, th).as_array() - inc
        assert np.allclose(np.abs(b), np.abs(s), rtol=1e-12)

    def test_forward_backward_symmetry_of_modulus(self):
        c = Coupling(0.3)
        for th in (0.5, 1.5):
            assert math.isclose(
                sc.differential_cross_section(c, KIN, th),
                sc.differential_cross_section(c, KIN, -th),
                rel_tol=1e-14,
            )

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(alpha=st.floats(-2.95, 1.95).filter(lambda a: abs(a - round(a)) >= 0.05),
           kind=st.sampled_from(("bare", "shielded")),
           kr=st.floats(math.log(0.5), math.log(200.0)).map(math.exp),
           offset=st.floats(0.0, 2.0 * math.pi))
    def test_gauge_shift(self, alpha, kind, kr, offset):
        # the bare state only for alpha and alpha + 1 of one sign: across zero
        # the finite-tube limit moves its surviving wave to the other spin
        # channel (bare_tube.anomalous_channel), so the two bare states are
        # not gauge copies
        if kind == "bare" and -1.0 < alpha < 0.0:
            return
        thetas = np.linspace(-math.pi, math.pi, 8, endpoint=False) + offset
        got = sc.dirac_scattering_state(kind, AMP, Coupling(alpha + 1.0), KIN, kr, thetas)
        want = sc.dirac_scattering_state(kind, AMP, Coupling(alpha), KIN, kr, thetas)
        want = want.as_array() * np.exp(1j * thetas)
        assert np.linalg.norm(got.as_array() - want) <= 1e-13 * np.linalg.norm(want)


class TestAmplitude:
    def test_integer_coupling_vanishes(self):
        assert sc.scattering_amplitude(Coupling(1.0), KIN, 0.5) == 0.0

    def test_half_flux_head_on(self):
        got = sc.differential_cross_section(Coupling(0.5), KIN, 0.0)
        assert math.isclose(got, 1.0 / (2.0 * math.pi * KIN.k), rel_tol=1e-13)

    def test_modulus_periodic_in_coupling(self):
        for alpha in (0.2, 0.5, 0.8):
            f1 = abs(sc.scattering_amplitude(Coupling(alpha), KIN, 0.7))
            f2 = abs(sc.scattering_amplitude(Coupling(alpha + 1.0), KIN, 0.7))
            assert math.isclose(f1, f2, rel_tol=1e-13)

    def test_divergence_at_pi(self):
        with pytest.raises(SingularArgumentError):
            sc.scattering_amplitude(Coupling(0.3), KIN, math.pi)

    def test_integrated_cross_section_against_antiderivative(self):
        got = sc.integrated_cross_section(Coupling(0.3), KIN, theta_cut=0.1)
        closed = (
            2.0
            * math.sin(math.pi * 0.3) ** 2
            * math.tan((math.pi - 0.1) / 2.0)
            / (math.pi * KIN.k)
        )
        assert abs(got - closed) < 1e-10 * closed

    def test_integrated_cross_section_scipy_oracle(self):
        from scipy.integrate import quad

        c = Coupling(0.3)
        want, _ = quad(
            lambda th: sc.differential_cross_section(c, KIN, th),
            -(math.pi - 0.1),
            math.pi - 0.1,
            limit=200,
        )
        got = sc.integrated_cross_section(c, KIN, theta_cut=0.1)
        assert abs(got - want) < 1e-8 * want

    @pytest.mark.parametrize("theta_cut", [1e-3, 0.1, 1.0, 3.0])
    def test_integrated_cross_section_mpmath_quad(self, theta_cut):
        # 30-digit tanh-sinh quadrature of the amplitude's own |f|^2; a
        # 64 x 64 Gauss rule was 4e-10 off at theta_cut = 1e-3
        c = Coupling(0.3)
        with mpmath.workdps(30):
            edge = mpmath.pi - mpmath.mpf(theta_cut)
            s2 = mpmath.sinpi(mpmath.mpf(c.frac)) ** 2
            want = mpmath.quad(lambda th: s2 / (2 * mpmath.pi * KIN.k * mpmath.cos(th / 2) ** 2),
                               [-edge, 0, edge])
        got = sc.integrated_cross_section(c, KIN, theta_cut=theta_cut)
        assert abs(got - float(want)) <= 2e-15 * float(want)

    @pytest.mark.parametrize("theta_cut", [math.nan, -1.0, 0.0, math.pi, 4.0, math.inf])
    def test_integrated_cross_section_refuses_cut_outside_0_pi(self, theta_cut):
        with pytest.raises(RegimeError):
            sc.integrated_cross_section(Coupling(0.3), KIN, theta_cut=theta_cut)


class TestThetaArray:
    THETAS = np.linspace(-math.pi, math.pi, 8, endpoint=False) + 0.23

    @pytest.mark.parametrize("kind", ["bare", "shielded"])
    @pytest.mark.parametrize("alpha", [0.37, 1.62, -0.4])
    @pytest.mark.parametrize("kr", [0.5, 10.0, 53.0, 200.0])
    def test_row_matches_scalar_calls(self, kind, alpha, kr):
        c = Coupling(alpha)
        row = sc.dirac_scattering_state(kind, AMP, c, KIN, kr, self.THETAS).as_array()
        for j, th in enumerate(self.THETAS):
            want = sc.dirac_scattering_state(kind, AMP, c, KIN, kr, float(th)).as_array()
            assert np.linalg.norm(row[:, j] - want) <= 1e-14 * np.linalg.norm(want)

    def test_shapes_and_types(self):
        c = Coupling(0.37)
        row = sc.dirac_scattering_state("bare", AMP, c, KIN, 3.0, self.THETAS)
        assert row.as_array().shape == (4, self.THETAS.size)
        point = sc.dirac_scattering_state("bare", AMP, c, KIN, 3.0, 0.4)
        assert point.as_array().shape == (4,)
        assert all(type(p) is complex for p in (point.psi1, point.psi2, point.psi3, point.psi4))


def _record(monkeypatch, name):
    """Record (first argument as a float array, keyword arguments, values) of
    every call to specfun `name`, whatever its signature."""
    calls = []
    fn = getattr(sf, name)

    def recording(*args, **kwargs):
        out = fn(*args, **kwargs)
        calls.append((np.array(args[0], dtype=float), kwargs, out))
        return out

    monkeypatch.setattr(sf, name, recording)
    return calls


class TestIncrementalCutoff:
    """The row's cutoff comes from `truncation_order`; the row is built in one pass."""

    @pytest.mark.parametrize("nu, kr, tol", [(0.37, 200.0, 1e-10), (0.41, 200.0, 1e-10),
                                             (0.37, 200.0, 1e-30), (0.37, 3.1e4, 1e-10)],
                             ids=["0.37", "0.41", "0.37-tol1e-30", "0.37-kr3.1e4"])
    def test_one_pass_row(self, monkeypatch, nu, kr, tol):
        # nu = 0.41 is a coupling where an order formed as (nu + start) + m
        # would round twice
        calls = _record(monkeypatch, "bessel_j")
        tops = []
        family = sc._j_family

        def recording(mu, x, amos, top):
            tops.append((mu, top))
            return family(mu, x, amos, top)

        monkeypatch.setattr(sc, "_j_family", recording)
        orders, js, info = sc._row_bessel(nu, kr, tol, (-nu, nu - 1.0))
        l_max = sc.truncation_order(kr, tol)
        assert info == sc.PartialWaveSum(l_max, 2 * l_max + 1, info.tail_estimate)
        assert info.tail_estimate <= tol
        # |l - nu| over l = -n..n: nu + m at l = -m, (1 - nu) + m at l = m + 1
        n = l_max + sc._TAIL_LOOKAHEAD
        assert np.array_equal(orders, np.concatenate(
            (nu + np.arange(n, -1, -1), (1.0 - nu) + np.arange(n), [-nu, nu - 1.0])))
        # one recurrence per family, up to the look-ahead's last order
        assert tops == [(nu, n), (1.0 - nu, n - 1)]
        # one AMOS call, every order once: per family up to the first order at
        # or above the turning point kr, then the signed pair
        assert len(calls) == 1
        amos_orders, _, amos = calls[0]
        t_left, t_right = math.ceil(kr - nu), math.ceil(kr - (1.0 - nu))
        assert np.array_equal(amos_orders, np.concatenate(
            (nu + np.arange(t_left + 1), (1.0 - nu) + np.arange(t_right + 1), [-nu, nu - 1.0])))
        at = np.concatenate((np.arange(n, n - t_left - 1, -1),
                             n + 1 + np.arange(t_right + 1), [2 * n + 1, 2 * n + 2]))
        assert np.array_equal(js[at], amos.real)

    @pytest.mark.parametrize("tol", [0.0, -1e-10, 1.0, 2.0, math.inf, math.nan])
    def test_tol_outside_unit_interval_raises(self, monkeypatch, tol):
        # the cutoff takes ln(1/tol): the row refuses before any Bessel call
        calls = _record(monkeypatch, "bessel_j")
        with pytest.raises(RegimeError, match="tolerance"):
            sc._wave_coefficients(0.3, 5.0, tol)
        with pytest.raises(RegimeError, match="tolerance"):
            sc.ab_wavefunction(Coupling(0.3), KIN, 5.0, 0.5, tol=tol)
        assert not calls

    @pytest.mark.parametrize("kr", [-1.0, 1.0000001e5, 1e308, math.inf, math.nan])
    def test_kr_beyond_reach_raises(self, monkeypatch, kr):
        # the cutoff law refuses kr too, so the row allocates nothing
        calls = _record(monkeypatch, "bessel_j")
        with pytest.raises(RegimeError, match="kr must lie in"):
            sc.truncation_order(kr, 1e-10)
        with pytest.raises(RegimeError, match="kr must lie in"):
            sc._wave_coefficients(0.3, kr, 1e-10)
        assert not calls

    @pytest.mark.parametrize("kind", ["bare", "shielded"])
    @pytest.mark.parametrize("kr", [0.5, 7.3, 200.0])
    def test_row_makes_one_j_call_and_no_h_call(self, monkeypatch, kind, kr):
        j_calls = _record(monkeypatch, "bessel_j")
        h_calls = _record(monkeypatch, "hankel1")
        alphas = (1.62, -1.62)
        for alpha in alphas:
            sc.dirac_scattering_state(kind, AMP, Coupling(alpha), KIN, kr,
                                      TestThetaArray.THETAS)
        assert len(j_calls) == len(alphas)
        assert not h_calls
        # the row's only negative orders are the signed ones it swaps in:
        # -nu (l = 0) and nu - 1 (l = 1) for the shielded state, -nu for the
        # bare one at alpha > 0 and nu - 1 at alpha < 0
        for (orders, _, _), alpha in zip(j_calls, alphas):
            nu = Coupling(alpha).frac
            signed = [-nu, nu - 1.0] if kind == "shielded" else [-nu] if alpha > 0 else [nu - 1.0]
            assert np.array_equal(orders[-len(signed):], signed)
            assert np.array_equal(orders[orders < 0], signed)


def _amos_tail(nu, x, tol):
    """Tail estimate of the row at the cutoff `truncation_order`(x, tol) with
    every J from one AMOS call: the reference for the recurrence row's tail."""
    chunk = sc._TAIL_LOOKAHEAD
    n = sc.truncation_order(x, tol) + chunk
    orders = np.concatenate((nu + np.arange(n, -1, -1), (1.0 - nu) + np.arange(n)))
    js = np.abs(sf.bessel_j(orders, x, max_order=n + 2.0))
    down, up = js[chunk - 1::-1], js[-chunk:]
    tail = down.sum() + up.sum()
    first, last = down[0] + up[0], down[-1] + up[-1]
    if first > 0:
        tail *= 2.0 if last / first < 0.5 else 10.0
    return tail


class TestRowBessel:
    """Every J of a row: AMOS below the turning point, recurrence above it."""

    KRS = [1e-3, 0.5, 7.3, 14.4, 53.0, 200.0, 500.0]
    NUS = [0.37, 0.41, 0.999]

    @pytest.mark.parametrize("nu", NUS)
    @pytest.mark.parametrize("kr", KRS)
    def test_every_order_against_mpmath(self, monkeypatch, kr, nu):
        # kept orders, the look-ahead chunk at both ends and the signed pair
        calls = _record(monkeypatch, "bessel_j")
        orders, js, info = sc._row_bessel(nu, kr, 1e-10, (-nu, nu - 1.0))
        assert orders.size == 2 * (info.l_max + sc._TAIL_LOOKAHEAD) + 3
        with mpmath.workdps(40):
            want = np.array([float(mpmath.besselj(mpmath.mpf(float(mu)), mpmath.mpf(kr)))
                             for mu in orders])
        amos = sf.bessel_j(orders, kr, max_order=float(np.abs(orders).max())).real
        # orders up to the turning point, and the signed pair, keep scipy's
        # values (AMOS's own error reaches 1.4e-13 of the row's largest |J|
        # at kr = 500, below the turning point)
        from_amos = np.isin(orders, calls[0][0])
        assert np.array_equal(js[from_amos], amos[from_amos])
        # the recurrence orders: within 1e-13 of the row's largest |J|, and no
        # worse than twice scipy's own worst error over the same orders, up to
        # one rounding of the row's largest |J| (the small-kr rows, where both
        # errors are below it)
        scale = np.abs(want).max()
        err = np.abs(js - want)[~from_amos].max()
        amos_err = np.abs(amos - want)[~from_amos].max()
        assert err <= 1e-13 * scale
        assert err <= 2.0 * amos_err + np.finfo(float).eps * scale

    @pytest.mark.parametrize("tol", [1e-10, 1e-30])
    @pytest.mark.parametrize("nu", NUS)
    @pytest.mark.parametrize("kr", KRS)
    def test_cutoff_matches_all_amos_row(self, kr, nu, tol):
        _, _, info = sc._row_bessel(nu, kr, tol)
        assert info.l_max == sc.truncation_order(kr, tol)
        tail = _amos_tail(nu, kr, tol)
        assert abs(info.tail_estimate - tail) <= 1e-9 * tail

    @pytest.mark.parametrize("kr", [1e-3, 3e-3, 0.04, 0.5, 2.0, 7.3, 53.0, 200.0, 1e3, 3.1e4])
    def test_tail_check_passes_on_grid(self, kr):
        # the cutoff meets the unchanged tail check in one pass, also far below
        # tol = 1e-30, where J falls slower than the Airy law at small kr
        for nu in (0.0, 0.37, 0.999):
            for tol in (1e-10, 1e-16, 1e-30, 1e-40, 1e-60):
                _, _, info = sc._row_bessel(nu, kr, tol, (-nu, nu - 1.0))
                assert info.tail_estimate <= tol, (nu, tol)

    @pytest.mark.parametrize("x", [1e-3, 0.5, 7.3, 53.0, 200.0, 1e3])
    def test_j_bound_above_j(self, x):
        # every order mu >= x, from the turning point to far past it
        for mu in x * (1.0 + np.geomspace(1e-8, 30.0, 60)):
            j = abs(special.jv(mu, x))
            if j > 1e-300:
                assert math.log(j) <= sc._log_j_bound(mu, x) + 1e-12, mu

    @pytest.mark.parametrize("kr", [0.5, 200.0])
    def test_values_are_real(self, kr):
        _, js, _ = sc._row_bessel(0.37, kr, 1e-10, (-0.37, -0.63))
        assert js.dtype == np.float64


class TestMpmathOracle:
    """Rows of the Dirac state against the 30-digit partial-wave oracle."""

    THETAS = TestThetaArray.THETAS

    @pytest.mark.parametrize("kind", ["bare", "shielded"])
    @pytest.mark.parametrize("alpha", [0.37, 1.62, -0.4, -1.62])
    @pytest.mark.parametrize("kr", [0.5, 7.3, 53.0, 200.0])
    def test_row_and_points(self, kind, alpha, kr):
        c = Coupling(alpha)
        want = mp_dirac_state(kind, AMP, c, KIN, kr, self.THETAS)
        row = sc.dirac_scattering_state(kind, AMP, c, KIN, kr, self.THETAS).as_array()
        points = np.array([
            sc.dirac_scattering_state(kind, AMP, c, KIN, kr, float(th)).as_array()
            for th in self.THETAS
        ]).T
        for got in (row, points):
            err = np.linalg.norm(got - want, axis=0) / np.linalg.norm(want, axis=0)
            assert err.max() <= 1e-10
