"""Partial-wave scattering states, asymptotics and amplitudes."""

import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abdirac import scattering as sc
from abdirac import specfun as sf
from abdirac.errors import RegimeError, SingularArgumentError, TruncationError
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

    def test_bare_minus_shielded_is_l0_swap(self):
        c = Coupling(0.3)
        r = 7.0
        want = cmath.exp(1j * math.pi * 0.15) * sf.bessel_j(-0.3, r) - cmath.exp(
            -1j * math.pi * 0.15
        ) * sf.bessel_j(0.3, r)
        for th in (0.3, 2.0, -1.4):
            d = sc.bare_wavefunction_scalar(c, KIN, r, th) - sc.ab_wavefunction(
                c, KIN, r, th
            )
            assert abs(d - want) < 1e-12

    def test_bare_scalar_diverges_at_origin(self):
        c = Coupling(0.5)
        small = sc.bare_wavefunction_scalar(c, KIN, 1e-6, 0.0)
        smaller = sc.bare_wavefunction_scalar(c, KIN, 1e-8, 0.0)
        assert abs(smaller) > 9 * abs(small)  # (kr)^(-1/2) growth
        sh_small = sc.ab_wavefunction(c, KIN, 1e-8, 0.0)
        assert abs(sh_small) < 2.0

    def test_bare_range_enforced(self):
        with pytest.raises(RegimeError):
            sc.bare_wavefunction_scalar(Coupling(1.3), KIN, 1.0, 0.0)

    def test_truncation_metadata(self):
        _, info = sc.ab_wavefunction(
            Coupling(0.3), KIN, 30.0, 0.5, tol=1e-10, return_info=True
        )
        assert info.tail_estimate <= 1e-10
        assert info.l_max >= sc.truncation_order(30.0)


class TestDiracStates:
    def test_spin_down_incidence_shields_equal_bare(self):
        # the bare-string extra column is proportional to a1
        amp = SpinorAmplitudes(a1=0.0, a2=1.0)
        c = Coupling(0.3)
        for th in (0.4, -1.2):
            b = sc.dirac_scattering_state("bare", amp, c, KIN, 9.0, th)
            s = sc.dirac_scattering_state("shielded", amp, c, KIN, 9.0, th)
            assert np.allclose(b.as_array(), s.as_array(), rtol=0, atol=1e-13)

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
                    for alpha in (0.25, 0.5, 0.75):
                        c = Coupling(alpha)
                        ex = sc.dirac_scattering_state(kind, AMP, c, KIN, kr, th)
                        asy = sc.asymptotic_state(kind, AMP, c, KIN, kr, th)
                        for pe, pa in zip(ex.as_array(), asy.as_array()):
                            assert abs(pe - pa) <= tol * abs(pe), (kind, kr, th, alpha)

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
        # channel, so the two bare states are not gauge copies (the bare
        # state does not follow that channel yet, ROADMAP item 1)
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
    """Record (orders, max_order, values) of every call to specfun `name`."""
    calls = []
    fn = getattr(sf, name)

    def recording(nu, z, max_order=None):
        out = fn(nu, z, max_order=max_order)
        calls.append((np.array(nu, dtype=float), max_order, out))
        return out

    monkeypatch.setattr(sf, name, recording)
    return calls


class TestIncrementalCutoff:
    @pytest.mark.parametrize("nu, tol, l_max", [(0.37, 1e-10, 252), (0.41, 1e-10, 252),
                                                (0.37, 1e-30, 316)],
                             ids=["0.37", "0.41", "0.37-tol1e-30"])
    def test_extended_ladders_equal_one_call(self, monkeypatch, nu, tol, l_max):
        # at kr = 200 the first tail check fails and a chunk is appended at
        # both ends of the row (four times at tol = 1e-30); nu = 0.41 is a
        # coupling where an order formed as (nu + start) + m would round twice
        calls = _record(monkeypatch, "bessel_j")
        orders, js, info = sc._row_bessel(nu, 200.0, tol, (-nu, nu - 1.0))
        assert info.l_max == l_max > sc.truncation_order(200.0)
        # |l - nu| over l = -n..n: nu + m at l = -m, (1 - nu) + m at l = m + 1
        n = l_max + sc._EXTENSION_CHUNK
        assert np.array_equal(orders, np.concatenate(
            (nu + np.arange(n, -1, -1), (1.0 - nu) + np.arange(n), [-nu, nu - 1.0])))
        # one AMOS call, every order once: per family up to the first order at
        # or above the turning point kr = 200, then the signed pair
        assert len(calls) == 1
        amos_orders, _, amos = calls[0]
        t_left, t_right = math.ceil(200.0 - nu), math.ceil(200.0 - (1.0 - nu))
        assert np.array_equal(amos_orders, np.concatenate(
            (nu + np.arange(t_left + 1), (1.0 - nu) + np.arange(t_right + 1), [-nu, nu - 1.0])))
        at = np.concatenate((np.arange(n, n - t_left - 1, -1),
                             n + 1 + np.arange(t_right + 1), [2 * n + 1, 2 * n + 2]))
        assert np.array_equal(js[at], amos.real)
        # the extended row equals the row evaluated directly at its final width
        monkeypatch.setattr(sc, "truncation_order", lambda kr: l_max)
        direct_orders, direct, direct_info = sc._row_bessel(nu, 200.0, math.inf, (-nu, nu - 1.0))
        assert direct_info == info
        assert np.array_equal(direct_orders, orders)
        assert np.array_equal(direct, js)

    def test_tail_never_below_tol_raises(self, monkeypatch):
        calls = _record(monkeypatch, "bessel_j")
        tops = []
        family = sc._j_family

        def recording(mu, x, amos, top):
            tops.append(top)
            return family(mu, x, amos, top)

        monkeypatch.setattr(sc, "_j_family", recording)
        chunk = sc._EXTENSION_CHUNK
        last = sc.truncation_order(5.0) + (sc._MAX_EXTENSIONS - 1) * chunk
        with pytest.raises(TruncationError, match=f"l_max={last}$"):
            sc._wave_coefficients(0.3, 5.0, 0.0)
        # _MAX_EXTENSIONS attempts, each a chunk wider at both ends, each
        # rerunning only the recurrence on the one AMOS call
        assert len(calls) == 1
        n = sc.truncation_order(5.0) + chunk + chunk * np.arange(sc._MAX_EXTENSIONS)
        assert tops == np.column_stack((n, n - 1)).ravel().tolist()

    @pytest.mark.parametrize("kind", ["bare", "shielded"])
    @pytest.mark.parametrize("kr", [0.5, 7.3, 200.0])
    def test_row_makes_one_j_call_and_no_h_call(self, monkeypatch, kind, kr):
        j_calls = _record(monkeypatch, "bessel_j")
        h_calls = _record(monkeypatch, "hankel1")
        sc.dirac_scattering_state(kind, AMP, Coupling(1.62), KIN, kr, TestThetaArray.THETAS)
        assert len(j_calls) == 1
        assert not h_calls
        # the signed orders the row swaps in: -nu (l = 0), and nu - 1 (l = 1)
        # for the shielded psi4 only
        nu = Coupling(1.62).frac
        signed = [-nu] if kind == "bare" else [-nu, nu - 1.0]
        assert np.array_equal(j_calls[0][0][-len(signed):], signed)


def _amos_cutoff(nu, x, tol):
    """(l_max, tail estimate) of a row with every J from one AMOS call per
    cutoff attempt: the reference for the recurrence row's cutoff."""
    chunk = sc._EXTENSION_CHUNK
    l_max = sc.truncation_order(x)
    for _ in range(sc._MAX_EXTENSIONS):
        n = l_max + chunk
        orders = np.concatenate((nu + np.arange(n, -1, -1), (1.0 - nu) + np.arange(n)))
        js = np.abs(sf.bessel_j(orders, x, max_order=n + 2.0))
        down, up = js[chunk - 1::-1], js[-chunk:]
        tail = down.sum() + up.sum()
        first, last = down[0] + up[0], down[-1] + up[-1]
        if first > 0:
            tail *= 2.0 if last / first < 0.5 else 10.0
        if tail <= tol:
            return l_max, tail
        l_max += chunk
    raise AssertionError("reference cutoff did not converge")


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
        assert orders.size == 2 * (info.l_max + sc._EXTENSION_CHUNK) + 3
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
        l_max, tail = _amos_cutoff(nu, kr, tol)
        assert info.l_max == l_max
        assert abs(info.tail_estimate - tail) <= 1e-9 * tail

    @pytest.mark.parametrize("kr", [0.5, 200.0])
    def test_values_are_real(self, kr):
        _, js, _ = sc._row_bessel(0.37, kr, 1e-10, (-0.37, -0.63))
        assert js.dtype == np.float64


class TestMpmathOracle:
    """Rows of the Dirac state against the 30-digit partial-wave oracle."""

    THETAS = TestThetaArray.THETAS

    @pytest.mark.parametrize("kind", ["bare", "shielded"])
    @pytest.mark.parametrize("alpha", [0.37, 1.62])
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
