"""Special-function layer: closed-form values, independent oracles, identities."""

import math
import sys
import textwrap
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy import special

from abdirac import bare_tube as bt
from abdirac import scattering as sc
from abdirac import shielded as sh
from abdirac import specfun as sf
from abdirac.errors import OutOfRangeError, PoleError, SingularArgumentError
from abdirac.model import Coupling, SpinorAmplitudes, TubeConfig, make_kinematics
from _helpers import run_python


def series_j_oracle(nu, z, terms=30, with_scale=False):
    """Plain 30-term ascending series, written independently of the library.

    `with_scale` also returns the sum of term magnitudes, which bounds the
    oracle's own float64 round-off when the series alternates.
    """
    total = 0.0 + 0.0j
    scale = 0.0
    for k in range(terms):
        term = (-1) ** k * (z / 2.0) ** (nu + 2 * k) / (
            math.gamma(k + 1) * math.gamma(nu + k + 1)
        )
        total += term
        scale += abs(term)
    if with_scale:
        return total, scale
    return total


def kummer_oracle(a, c, z, terms=50):
    """Kummer series with exact rational Pochhammer products."""
    a = Fraction(a).limit_denominator(10**6)
    c = Fraction(c).limit_denominator(10**6)
    zf = Fraction(z).limit_denominator(10**6)
    total = Fraction(0)
    term = Fraction(1)
    for n in range(terms):
        if n > 0:
            term = term * (a + n - 1) * zf / ((c + n - 1) * n)
        total += term
    return float(total)


class TestBesselJ:
    def test_j0_at_origin(self):
        assert sf.bessel_j(0.0, 0.0) == 1.0

    def test_half_order_closed_form(self):
        # J_{1/2}(z) = sqrt(2/(pi z)) sin z; at z = pi/2 this is 2/pi
        val = sf.bessel_j(0.5, math.pi / 2)
        assert abs(val - 2.0 / math.pi) < 1e-13

    def test_negative_order_against_series_oracle(self):
        want = series_j_oracle(-0.3, 1.0)
        got = sf.bessel_j(-0.3, 1.0)
        assert abs(got - want) < 1e-13 * abs(want)

    @pytest.mark.parametrize("nu", [-1.3, -0.5, 0.0, 0.3, 0.7, 2.5])
    @pytest.mark.parametrize("z", [0.2, 1.7, 9.0, 14.5])
    def test_series_region_against_oracle(self, nu, z):
        want, scale = series_j_oracle(nu, z, terms=60, with_scale=True)
        got = sf.bessel_j(nu, z)
        # second term covers the float64 oracle's own alternation round-off
        assert abs(got - want) < 1e-12 * abs(want) + 5e-15 * scale

    def test_complex_argument(self):
        want = series_j_oracle(0.3, 2.0 + 1.5j, terms=60)
        got = sf.bessel_j(0.3, 2.0 + 1.5j)
        assert abs(got - want) < 1e-12 * abs(want)

    def test_negative_integer_order_reflection(self):
        assert abs(sf.bessel_j(-2.0, 3.1) - sf.bessel_j(2.0, 3.1)) < 1e-14
        assert abs(sf.bessel_j(-3.0, 3.1) + sf.bessel_j(3.0, 3.1)) < 1e-14

    def test_array_argument_matches_scalars(self):
        z = np.array([0.3, 5.0, 40.0, 2.0 + 1.0j])
        vec = sf.bessel_j(0.7, z)
        for i, zz in enumerate(z):
            assert vec[i] == sf.bessel_j(0.7, complex(zz))

    def test_order_refused_only_when_not_finite(self):
        with pytest.raises(OutOfRangeError):
            sf.bessel_j(math.inf, 1.0)
        # no order is too large by itself: J_250(1) ~ 1e-568 underflows to 0
        assert sf.bessel_j(250.0, 1.0) == 0.0

    def test_singular_negative_order_at_origin(self):
        with pytest.raises(SingularArgumentError):
            sf.bessel_j(-0.3, 0.0)

    def test_ladder_matches_direct(self):
        vals = sf.bessel_j_ladder(0.3, 40, 55.0)
        for m in [0, 1, 7, 25, 39]:
            direct = sf.bessel_j(0.3 + m, 55.0)
            scale = max(abs(direct), 1e-30)
            assert abs(vals[m] - direct) < 1e-11 * max(scale, 0.3)


class TestOrderArray:
    # the order pairs (nu - 1, nu) of the matching formula, nu - 1 of either sign
    @pytest.mark.parametrize("nu", [0.41, 0.62, 1.38, 2.59, 9.41])
    @pytest.mark.parametrize("fn", [sf.bessel_j, sf.hankel1])
    def test_order_pair_equals_scalar_calls(self, fn, nu):
        for x in [*np.logspace(-12, math.log10(3.0), 13), 0.05j, 6.0j, 50.0j]:
            pair = fn(np.array([nu - 1.0, nu]), x)
            assert isinstance(pair, np.ndarray) and pair.shape == (2,)
            assert pair.tolist() == [fn(nu - 1.0, x), fn(nu, x)], x


class TestBesselJPrime:
    def test_at_origin(self):
        assert sf.bessel_j_prime(0.0, 0.0) == 0.0
        assert sf.bessel_j_prime(1.0, 0.0) == 0.5

    def test_against_central_difference(self):
        h = 1e-6
        want = (sf.bessel_j(0.7, 2.0 + h) - sf.bessel_j(0.7, 2.0 - h)) / (2 * h)
        got = sf.bessel_j_prime(0.7, 2.0)
        assert abs(got - want) < 1e-8


class TestHankel:
    def test_half_order_closed_form(self):
        # H^(1)_{1/2}(z) = -i sqrt(2/(pi z)) e^{iz}
        want = -1j * math.sqrt(2.0 / math.pi) * np.exp(1j)
        got = sf.hankel1(0.5, 1.0)
        assert abs(got - want) < 1e-13

    def test_reflection_construction(self):
        nu, z = 0.3, 2.0
        want = (1j / math.sin(math.pi * nu)) * (
            np.exp(-1j * math.pi * nu) * series_j_oracle(nu, z, 60)
            - series_j_oracle(-nu, z, 60)
        )
        got = sf.hankel1(nu, z)
        assert abs(got - want) < 1e-12 * abs(want)

    @pytest.mark.parametrize("nu", [0.25, 0.3, 0.5, 1.3, 2.7, -0.7, -2.3])
    @pytest.mark.parametrize("x", [0.05, 0.8, 5.0, 30.0, 99.0])
    def test_reflection_identity(self, nu, x):
        # i sin(pi nu) H1_nu = J_{-nu} - e^{-i pi nu} J_nu
        lhs = 1j * math.sin(math.pi * nu) * sf.hankel1(nu, x)
        rhs = sf.bessel_j(-nu, x) - np.exp(-1j * math.pi * nu) * sf.bessel_j(nu, x)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs))

    def test_h1_plus_h2_is_2j(self):
        # on the real axis H^(2) is the conjugate of H^(1) for real order, so
        # H1 + H2 = 2J reads H1 + conj(H1) = 2J
        for nu, z in [(0.3, 3.0), (0.3, 2.0), (1.7, 25.0)]:
            h1 = sf.hankel1(nu, z)
            lhs = h1 + np.conj(h1)
            rhs = 2.0 * sf.bessel_j(nu, z)
            assert abs(lhs - rhs) < 1e-12 * abs(rhs)

    def test_singular_at_zero(self):
        with pytest.raises(SingularArgumentError):
            sf.hankel1(0.3, 0.0)
        with pytest.raises(SingularArgumentError):
            sf.hankel1e(0.3, 0.0)

    def test_scaled_hankel_guards(self):
        with pytest.raises(OutOfRangeError):
            sf.hankel1e(0.3, np.inf)
        with pytest.raises(OutOfRangeError):
            sf.hankel1e(250.0, 10.0)  # H_250(10) overflows

    @pytest.mark.parametrize("fn", [sf.hankel1, sf.hankel1e, sf.bessel_j_hankel1],
                             ids=lambda fn: fn.__name__)
    def test_zero_at_real_positive_argument_refused(self, fn):
        # J and Y have no common zero at a real x > 0 (DLMF 10.21(i)), and
        # H^(1)(x e^{pi i}) = -e^{-nu pi i} conj(H^(1)(x)) (DLMF 10.11.5) has
        # none on the negative real axis, where scipy takes ph z = pi also at
        # Im z = -0; AMOS returns H = 0 at (1e10, +-2e10), a failed evaluation
        for nu, x in [(1e10, 2e10), (1e10, 2e10 + 0j), (np.array([0.5, 1e10]), 2e10),
                      (1e10, np.array([2e10, 3e10])), (1e10, -2e10), (1e10, -2e10 + 0j),
                      (1e10, complex(-2e10, -0.0)), (np.array([0.5, 1e10]), -2e10 + 0j),
                      (1e10, np.array([-2e10, 3e10]))]:
            with pytest.raises(OutOfRangeError, match="is 0 at a real argument"):
                fn(nu, x)

    def test_integer_order_consistent_with_neighbours(self):
        # integer-order path must be the limit of nearby non-integer orders
        for x in [0.5, 4.0, 8.0]:
            mid = sf.hankel1(1.0, x)
            lo = sf.hankel1(1.0 - 1e-7, x)
            hi = sf.hankel1(1.0 + 1e-7, x)
            assert abs(0.5 * (lo + hi) - mid) < 2e-7 * abs(mid)


class TestIdentitySuite:
    """The dual-route identity grid shared with the acceptance suite."""

    NU_GRID = [-2.7, -2.0, -1.5, -1.0, -0.7, -0.3, 0.0, 0.3, 0.5, 1.0, 1.3, 2.0, 2.7]

    def test_wronskian(self):
        for nu in self.NU_GRID:
            for x in np.geomspace(0.1, 100.0, 17):
                j = sf.bessel_j(nu, x)
                jp = sf.bessel_j_prime(nu, x)
                h = sf.hankel1(nu, x)
                hp = sf.hankel1_prime(nu, x)
                ref = 2j / (math.pi * x)
                # the guard term covers unavoidable cancellation of the two
                # products when both factors are large (negative orders, small x)
                bound = 1e-10 * abs(ref) + 2e-14 * (abs(j * hp) + abs(jp * h))
                assert abs(j * hp - jp * h - ref) <= bound, (nu, x)

    def test_recurrence(self):
        for nu in self.NU_GRID:
            for x in np.geomspace(0.1, 100.0, 17):
                lhs = sf.bessel_j(nu - 1, x) + sf.bessel_j(nu + 1, x)
                rhs = (2 * nu / x) * sf.bessel_j(nu, x)
                scale = max(abs(lhs), abs(rhs), abs(sf.bessel_j(nu, x)), 1e-3)
                assert abs(lhs - rhs) <= 1e-10 * scale, (nu, x)

    def test_imaginary_argument_matches_modified_series(self):
        # J_nu(ix) = e^{i pi nu / 2} I_nu(x), with I_nu from mpmath
        for nu in [-0.3, 0.3, 0.7, 1.3, 2.5]:
            for x in np.geomspace(0.1, 60.0, 12):
                lhs = sf.bessel_j(nu, 1j * x)
                rhs = np.exp(1j * math.pi * nu / 2) * float(mpmath.besseli(nu, x))
                assert abs(lhs - rhs) <= 1e-11 * abs(rhs), (nu, x)


# the orders and arguments the physics layers use
ORACLE_ORDERS = [-2.7, -2.0, -1.5, -0.7, -0.3, 0.0, 0.3, 0.5, 1.0, 1.3, 2.7, 7.4, 15.6, 25.3]
ORACLE_ARGS = np.geomspace(1e-4, 300.0, 25)


def _bits(values):
    """The raw float bits of a complex scalar or array, for exact comparison."""
    return np.atleast_1d(np.asarray(values, dtype=np.complex128)).view(np.uint64).tolist()


class TestMpmathOracle:
    """Public functions against 40-digit mpmath over the orders and arguments
    the physics layers use."""

    @pytest.mark.parametrize("nu", ORACLE_ORDERS)
    def test_cylinder_functions(self, nu):
        with mpmath.workdps(40):
            for x in ORACLE_ARGS:
                xm, num = mpmath.mpf(x), mpmath.mpf(nu)
                j = {d: mpmath.besselj(num + d, xm) for d in (-1, 0, 1)}
                y = {d: mpmath.bessely(num + d, xm) for d in (-1, 0, 1)}
                h1 = {d: j[d] + 1j * y[d] for d in j}
                # derivatives from the order recurrence f' = (f_{nu-1} - f_{nu+1}) / 2
                pairs = [
                    (sf.bessel_j(nu, x), j[0]),
                    (sf.bessel_j_prime(nu, x), (j[-1] - j[1]) / 2),
                    (sf.hankel1(nu, x), h1[0]),
                    (sf.hankel1e(nu, x), h1[0] * mpmath.expj(-xm)),
                    (sf.hankel1_prime(nu, x), (h1[-1] - h1[1]) / 2),
                ]
                envelope = math.sqrt(2.0 / (math.pi * x))
                for got, want in pairs:
                    want = complex(want)
                    assert abs(got - want) <= 1e-12 * max(abs(want), envelope), (nu, x)
                want = complex(mpmath.besselj(num, 1j * xm))
                assert abs(sf.bessel_j(nu, 1j * x) - want) <= 1e-12 * abs(want), (nu, x)

    def test_kummer(self):
        # error relative to the sum of the series' term moduli, the scale that
        # float64 rounding acts on where the series alternates (z < 0, a < 0)
        with mpmath.workdps(25):
            for a in np.linspace(-7.3, 4.2, 47):
                for c in (1.0, 2.0, 5.0, 11.0):
                    for z in np.linspace(-2.9, 2.9, 30):
                        term = scale = 1.0
                        n = 0
                        while term > 1e-17 * scale:
                            term *= abs(a + n) * abs(z) / ((c + n) * (n + 1))
                            scale += term
                            n += 1
                        want = float(mpmath.hyp1f1(float(a), c, float(z)))
                        assert abs(sf.kummer_f(a, c, z) - want) <= 3e-12 * scale, (a, c, z)

    @pytest.mark.parametrize("nu", [-2.62, -0.41, 0.0, 0.59, 1.38, 10.59])
    def test_scaled_modified_bessel(self, nu):
        # e^{-x} I_nu and e^{x} K_nu stay finite where I_nu overflows and
        # K_nu underflows (x beyond ~700)
        with mpmath.workdps(40):
            for x in np.geomspace(1e-4, 5000.0, 25):
                xm, num = mpmath.mpf(x), mpmath.mpf(nu)
                want_i = float(mpmath.besseli(num, xm) * mpmath.exp(-xm))
                want_k = float(mpmath.besselk(num, xm) * mpmath.exp(xm))
                assert abs(sf.bessel_ie(nu, x) - want_i) <= 1e-12 * abs(want_i), (nu, x)
                assert abs(sf.bessel_ke(nu, x) - want_k) <= 1e-12 * abs(want_k), (nu, x)

    @pytest.mark.parametrize("nu", [-2.62, -0.41, 0.59, 1.38, 10.59])
    @pytest.mark.parametrize("x", [6.0, 50.0, 1000.0, 5000.0])
    def test_bessel_i_log_derivative(self, nu, x):
        # I'/I = I_{nu+1}/I_nu + nu/x from the scaled pair of one bessel_ie
        # call, as shielded.barrier_log_derivative takes it; I_nu itself
        # overflows double precision beyond x ~ 700
        with mpmath.workdps(40):
            xm = mpmath.mpf(x)
            want = float(mpmath.besseli(nu + 1, xm) / mpmath.besseli(nu, xm) + nu / xm)
        i0, i1 = sf.bessel_ie(np.array([nu, nu + 1.0]), x).tolist()
        assert abs(i1 / i0 + nu / x - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("nu", [250.37, 640.0, 1000.63])
    def test_orders_above_200(self, nu):
        # no order cap: on both sides of the turning point x = nu, wherever
        # the value is a normal double, at 30 digits
        checked = {"below": 0, "above": 0}
        with mpmath.workdps(30):
            for x in nu * np.array([0.5, 0.8, 0.95, 1.05, 1.25, 2.0]):
                xm, num = mpmath.mpf(x), mpmath.mpf(nu)
                h1 = mpmath.hankel1(num, xm)
                pairs = [(sf.bessel_j(nu, x), mpmath.besselj(num, xm)),
                         (sf.hankel1(nu, x), h1),
                         (sf.hankel1e(nu, x), h1 * mpmath.expj(-xm))]
                envelope = math.sqrt(2.0 / (math.pi * x))
                for got, want in pairs:
                    want = complex(want)
                    assert abs(got - want) <= 1e-12 * max(abs(want), envelope), (nu, x)
                want_i = mpmath.besseli(num, xm) * mpmath.exp(-xm)
                if want_i >= sys.float_info.min:
                    want_i = float(want_i)
                    assert abs(sf.bessel_ie(nu, x) - want_i) <= 1e-12 * want_i, (nu, x)
                    checked["below" if x < nu else "above"] += 1
        assert min(checked.values()) >= 2, checked


class TestBesselJHankel1:
    """The pair equals `bessel_j` and `hankel1` at the same orders and
    argument, bit for bit, over the oracle grid."""

    @pytest.mark.parametrize("nu", ORACLE_ORDERS)
    def test_scalar_order(self, nu):
        for x in [*ORACLE_ARGS, *(1j * ORACLE_ARGS[::4])]:
            j, h = sf.bessel_j_hankel1(nu, x)
            assert type(j) is complex and type(h) is complex
            assert _bits([j, h]) == _bits([sf.bessel_j(nu, x), sf.hankel1(nu, x)]), (nu, x)

    def test_order_array(self):
        orders = np.array(ORACLE_ORDERS)
        for x in ORACLE_ARGS:
            j, h = sf.bessel_j_hankel1(orders, x)
            assert j.shape == h.shape == orders.shape
            assert _bits(j) == _bits(sf.bessel_j(orders, x)), x
            assert _bits(h) == _bits(sf.hankel1(orders, x)), x

    @pytest.mark.parametrize("nu", ORACLE_ORDERS)
    def test_argument_array(self, nu):
        j, h = sf.bessel_j_hankel1(nu, ORACLE_ARGS)
        assert j.shape == h.shape == ORACLE_ARGS.shape
        assert _bits(j) == _bits(sf.bessel_j(nu, ORACLE_ARGS))
        assert _bits(h) == _bits(sf.hankel1(nu, ORACLE_ARGS))
        assert _bits(j) == _bits([sf.bessel_j(nu, x) for x in ORACLE_ARGS])


class TestKummer:
    def test_at_zero(self):
        assert sf.kummer_f(0.37, 2.2, 0.0) == 1.0

    def test_equal_parameters_exponential(self):
        assert abs(sf.kummer_f(1.7, 1.7, 1.5) - math.exp(1.5)) < 1e-13 * math.exp(1.5)

    def test_against_rational_oracle(self):
        want = kummer_oracle(0.25, 1.0, 0.8)
        got = sf.kummer_f(0.25, 1.0, 0.8)
        assert abs(got - want) < 1e-13 * abs(want)

    def test_pole_rejected(self):
        with pytest.raises(PoleError):
            sf.kummer_f(0.3, -2.0, 0.5)

    def test_closed_forms_at_huge_arguments(self):
        # a terminating series and a negative real z still evaluate:
        # F(-3|1|z) = (6 - 18 z + 9 z^2 - z^3)/6, F(1/2|3/2|-x) ~ sqrt(pi/x)/2
        assert sf.kummer_f(-3.0, 1.0, 1e20) == pytest.approx(-1e60 / 6, rel=1e-14)
        want = math.sqrt(math.pi / 1e20) / 2
        assert sf.kummer_f(0.5, 1.5, -1e20) == pytest.approx(want, rel=1e-12)

    def test_large_real_argument_refused_without_hanging(self):
        # scipy's real hyp1f1 needs seconds at z = 1e12 and does not return
        # at 1e13, where |F| overflowed long before
        code = textwrap.dedent("""
            from abdirac import specfun as sf
            from abdirac.errors import OutOfRangeError
            cases = [(0.5, 1.5, 3e12), (1.5, 2.5, 1e13), (0.3, 1.0, 1e13),
                     (2.0, 1.0, 1e13), (-0.5, 1.0, 1e13), (0.5, 1.5, 1e300)]
            refused = 0
            for a, c, z in cases:
                try:
                    sf.kummer_f(a, c, z)
                except OutOfRangeError:
                    refused += 1
            print(refused, len(cases))
        """)
        assert run_python(code, timeout=30.0) == "6 6"

    def test_derivative_contiguous_relation(self):
        # F' = (a/c) F(a+1|c+1|z), F(a+1|c+1|z) from the parameter pair of one call
        a, c, z = 0.25, 1.0, 0.8
        h = 1e-6
        fd = (sf.kummer_f(a, c, z + h) - sf.kummer_f(a, c, z - h)) / (2 * h)
        _, f_up = sf.kummer_f(np.array([a, a + 1.0]), np.array([c, c + 1.0]), z)
        assert abs(a / c * f_up - fd) < 1e-9

    @staticmethod
    def _matching_sweep_triples():
        # the (b, c, z = |alpha|) of every bare weight in the matching_sweep grid
        kin = make_kinematics(k=1.0)
        for alpha in (0.41, -1.38):
            for kr0 in (1e-4, 3.1e-3, 0.0965, 3.0):
                tube = TubeConfig(r0=kr0, coupling=Coupling(alpha))
                for l in range(-10, 11):
                    for ch in (1, 2):
                        _, b, c = bt._kummer_args(l, ch, tube, kin, 0.0)
                        yield b, c, abs(alpha)

    def test_parameter_pair_equals_scalar_calls(self):
        # the pairs (a, a + 1), (c, c + 1) over the interior domain of the
        # oracle grid, real and complex z, and over the matching_sweep
        # triples: bit for bit
        interior = [(a, c, z) for a in np.linspace(-7.3, 4.2, 47)
                    for c in (1.0, 2.0, 5.0, 11.0)
                    for z in [*np.linspace(-2.9, 2.9, 30), 0.7 + 0.4j]]
        for a, c, z in [*interior, *self._matching_sweep_triples()]:
            pair = sf.kummer_f(np.array([a, a + 1.0]), np.array([c, c + 1.0]), z)
            assert isinstance(pair, np.ndarray) and pair.shape == (2,)
            assert pair.tolist() == [sf.kummer_f(a, c, z),
                                     sf.kummer_f(a + 1.0, c + 1.0, z)], (a, c, z)

    def test_parameter_array_guards_per_element(self):
        # a = 0, -1, -2 terminate and still evaluate at Re z above 1e9; one
        # non-terminating element refuses the call, as its scalar call does
        a = np.array([0.0, -1.0, -2.0])
        got = sf.kummer_f(a, 1.0, 2e9)
        assert got.tolist() == [sf.kummer_f(x, 1.0, 2e9) for x in a]
        with pytest.raises(OutOfRangeError):
            sf.kummer_f(1.0, 2.0, 2e9)
        with pytest.raises(OutOfRangeError):
            sf.kummer_f(np.array([0.0, 1.0]), np.array([1.0, 2.0]), 2e9)
        with pytest.raises(PoleError):
            sf.kummer_f(np.array([0.3, 1.3]), np.array([1.0, -2.0]), 0.5)
        with pytest.raises(OutOfRangeError):
            sf.kummer_f(np.array([0.3, 1.3 + 1e-3j]), 1.0, 0.5)


NAN, INF = float("nan"), float("inf")

# public function of one argument z -> (z with a finite value, z where the
# value overflows, error at z = 0 or None where the value there is finite)
TYPED_ERROR_CASES = {
    "bessel_j": (lambda z: sf.bessel_j(-150.5, z), 200.0, 1e-3, SingularArgumentError),
    "bessel_j_prime": (lambda z: sf.bessel_j_prime(-150.5, z), 200.0, 1e-3,
                       SingularArgumentError),
    "hankel1": (lambda z: sf.hankel1(150.5, z), 200.0, 1e-3, SingularArgumentError),
    "hankel1e": (lambda z: sf.hankel1e(150.5, z), 200.0, 1e-3, SingularArgumentError),
    "hankel1_prime": (lambda z: sf.hankel1_prime(150.5, z), 200.0, 1e-3,
                      SingularArgumentError),
    "bessel_ie": (lambda z: sf.bessel_ie(-150.5, z), 200.0, 1e-3, OutOfRangeError),
    "bessel_ke": (lambda z: sf.bessel_ke(150.5, z), 200.0, 1e-3, OutOfRangeError),
    "kummer_f": (lambda z: sf.kummer_f(0.5, 1.5, z), 1.0, 1000.0, None),
}


class TestTypedErrors:
    """Every public function raises the same typed error for a bad scalar and
    for an array holding one bad element next to a good one."""

    @pytest.mark.parametrize("name", sorted(TYPED_ERROR_CASES))
    def test_scalar_and_array_raise_alike(self, name):
        fn, good, overflow, at_zero = TYPED_ERROR_CASES[name]
        cases = [(NAN, OutOfRangeError), (INF, OutOfRangeError), (-INF, OutOfRangeError),
                 (overflow, OutOfRangeError), (0.0, at_zero)]
        for bad, error in cases:
            for arg in (bad, np.array([good, bad])):
                if error is None:
                    fn(arg)
                else:
                    with pytest.raises(error):
                        fn(arg)

    def test_ladder(self):
        # the ladder's argument is scalar; its array is the orders it returns
        for count in (1, 3):
            with pytest.raises(SingularArgumentError):
                sf.bessel_j_ladder(-150.5, count, 0.0)
            with pytest.raises(OutOfRangeError):
                sf.bessel_j_ladder(-150.5, count, 1e-3)
            with pytest.raises(OutOfRangeError):
                sf.bessel_j_ladder(0.3, count, NAN)
        with pytest.raises(OutOfRangeError):
            sf.bessel_j_ladder(math.inf, 2, 1.0)

    @pytest.mark.parametrize("fn", [sf.bessel_j, sf.bessel_j_prime, sf.hankel1,
                                    sf.hankel1e, sf.hankel1_prime, sf.bessel_ie,
                                    sf.bessel_ke])
    def test_order_array_with_one_bad_order(self, fn):
        for bad in (INF, -INF, NAN):
            with pytest.raises(OutOfRangeError):
                fn(bad, 1.0)
            with pytest.raises(OutOfRangeError):
                fn(np.array([0.3, bad]), 1.0)


# public function of (order, z) -> (name in its messages, error at z = 0, and
# the order where the value there diverges)
ORDER_FUNCTIONS = {
    "bessel_j": ("J_nu", SingularArgumentError, -0.5),
    "bessel_j_prime": ("J'_nu", SingularArgumentError, 0.5),
    "hankel1": ("H1_nu", SingularArgumentError, 0.5),
    "hankel1e": ("H1e_nu", SingularArgumentError, 0.5),
    "hankel1_prime": ("H1'_nu", SingularArgumentError, 0.5),
    "bessel_ie": ("Ie_nu", OutOfRangeError, 0.5),
    "bessel_ke": ("Ke_nu", OutOfRangeError, 0.5),
}
ORDER_MESSAGE = "order not finite"


def _raises(error, message, fn, *args, **kwargs):
    with pytest.raises(error) as caught:
        fn(*args, **kwargs)
    assert type(caught.value) is error
    assert str(caught.value) == message


class TestGuardMessages:
    """Each guard's exact error type and message, for a scalar and for an
    array holding one bad element next to a good one."""

    @staticmethod
    def _both(value, good):
        return (value, np.array([good, value]))

    @pytest.mark.parametrize("name", sorted(ORDER_FUNCTIONS))
    def test_order_guard(self, name):
        fn = getattr(sf, name)
        for bad in (NAN, INF, -INF):
            for nu in self._both(bad, 0.3):
                _raises(OutOfRangeError, ORDER_MESSAGE, fn, nu, 1.0)

    @pytest.mark.parametrize("name", sorted(ORDER_FUNCTIONS))
    def test_large_orders_evaluate(self, name):
        # no order is too large by itself: +-250 return the raw routine's
        # value where it is finite
        routine, dtype = SCIPY_ROUTINES[name]
        for nu in (250.0, -250.0):
            for z in (300.0, np.array([300.0, 1000.0])):
                want = routine(nu, np.asarray(z, dtype=dtype))
                assert _bits(getattr(sf, name)(nu, z)) == _bits(want), (nu, z)

    @pytest.mark.parametrize("name", sorted(ORDER_FUNCTIONS))
    def test_argument_guard(self, name):
        fn = getattr(sf, name)
        label = ORDER_FUNCTIONS[name][0]
        bad = (NAN, INF) if name in ("bessel_ie", "bessel_ke") else (
            NAN, INF, -INF, complex(0.0, INF), complex(NAN, 1.0))
        for z in bad:
            for arg in self._both(z, 1.0):
                _raises(OutOfRangeError, f"{label}: argument must be finite", fn, 0.3, arg)

    @pytest.mark.parametrize("name", sorted(ORDER_FUNCTIONS))
    def test_origin_guard(self, name):
        fn = getattr(sf, name)
        label, error, order = ORDER_FUNCTIONS[name]
        message = f"{name} expects x > 0" if error is OutOfRangeError else (
            f"{label} diverges at z=0")
        for z in self._both(0.0, 1.0):
            _raises(error, message, fn, order, z)
        if error is OutOfRangeError:
            _raises(error, message, fn, order, -INF)

    def test_overflow_guard(self):
        for name, nu in (("bessel_j", -150.5), ("bessel_j_prime", -150.5),
                         ("hankel1", 150.5), ("hankel1e", 150.5), ("hankel1_prime", 150.5)):
            label = ORDER_FUNCTIONS[name][0]
            for z in self._both(1e-3, 1.0):
                _raises(OutOfRangeError, f"{label} is not finite in double precision here",
                        getattr(sf, name), nu, z)
        # a mixed array: the element at z = 0 decides
        _raises(SingularArgumentError, "J_nu diverges at z=0",
                sf.bessel_j, -150.5, np.array([1e-3, 0.0]))

    # (order, argument, error, message) of `bessel_j` then `hankel1`: the
    # order and argument guards, H diverging at z = 0 where J is finite, J
    # diverging there first, and each function's overflow, which orders
    # +-250 meet at z = 1 where J underflows to 0
    PAIR_CASES = [
        *[(bad, 1.0, OutOfRangeError, ORDER_MESSAGE) for bad in (NAN, INF, -INF)],
        *[(0.3, z, OutOfRangeError, "J_nu: argument must be finite")
          for z in (NAN, INF, -INF, complex(0.0, INF), complex(NAN, 1.0))],
        (0.5, 0.0, SingularArgumentError, "H1_nu diverges at z=0"),
        (-0.5, 0.0, SingularArgumentError, "J_nu diverges at z=0"),
        (-150.5, 1e-3, OutOfRangeError, "J_nu is not finite in double precision here"),
        *[(nu, z, OutOfRangeError, "H1_nu is not finite in double precision here")
          for nu, z in ((150.5, 1e-3), (250.0, 1.0), (-250.0, 1.0))],
    ]

    @pytest.mark.parametrize("nu, z, error, message", PAIR_CASES)
    def test_pair_raises_as_the_sequence(self, nu, z, error, message):
        def sequence(nu, z):
            sf.bessel_j(nu, z)
            sf.hankel1(nu, z)

        # the bad value alone, and in an array next to a good one
        for nu_arg, z_arg in ((nu, z), (np.array([0.3, nu]), z), (nu, np.array([1.0, z]))):
            _raises(error, message, sequence, nu_arg, z_arg)
            _raises(error, message, sf.bessel_j_hankel1, nu_arg, z_arg)

    # (function, its arguments, error, message) where two guards fail at once:
    # the first guard in the order positive, order, argument, result raises
    TWO_GUARD_CASES = [
        ("bessel_j", (NAN, INF), OutOfRangeError, ORDER_MESSAGE),
        ("hankel1", (np.array([0.3, NAN]), np.array([1.0, INF])), OutOfRangeError,
         ORDER_MESSAGE),
        ("bessel_j_hankel1", (NAN, np.array([INF, 1.0])), OutOfRangeError,
         ORDER_MESSAGE),
        ("bessel_ie", (NAN, -1.0), OutOfRangeError, "bessel_ie expects x > 0"),
        ("bessel_ke", (NAN, np.array([1.0, -1.0])), OutOfRangeError, "bessel_ke expects x > 0"),
        ("bessel_ie", (0.3, np.array([NAN, -1.0])), OutOfRangeError, "bessel_ie expects x > 0"),
        ("bessel_ke", (INF, NAN), OutOfRangeError, ORDER_MESSAGE),
        # a complex x warns as it is cast (an error under this suite's
        # filter), after the x > 0 and order guards have had their turn
        ("bessel_ie", (NAN, np.array([1.0 + 1.0j])), OutOfRangeError,
         ORDER_MESSAGE),
        ("bessel_ie", (0.3, np.array([-1.0 + 1.0j])), OutOfRangeError, "bessel_ie expects x > 0"),
        ("bessel_j", (INF, 0.0), OutOfRangeError, ORDER_MESSAGE),
        ("hankel1_prime", (-INF, np.array([0.0, 1.0])), OutOfRangeError, ORDER_MESSAGE),
        ("bessel_j_hankel1", (INF, 0.0), OutOfRangeError, ORDER_MESSAGE),
        # an order and an argument that cannot broadcast: the order guard first
        ("bessel_j", (np.array([0.3, NAN]), np.array([1.0, 2.0, 3.0])), OutOfRangeError,
         ORDER_MESSAGE),
        ("bessel_j_hankel1", (np.array([0.3, INF]), np.array([1.0, 2.0, 3.0])),
         OutOfRangeError, ORDER_MESSAGE),
        # an empty broadcast still tests every element of each input
        ("bessel_j", (NAN, np.array([])), OutOfRangeError, ORDER_MESSAGE),
        ("bessel_j", (np.array([]), INF), OutOfRangeError, "J_nu: argument must be finite"),
        ("bessel_ie", (np.array([]), -1.0), OutOfRangeError, "bessel_ie expects x > 0"),
        ("bessel_j_hankel1", (np.empty((1, 0)), np.array([INF])), OutOfRangeError,
         "J_nu: argument must be finite"),
        ("kummer_f", (np.array([]), 1.5, NAN), OutOfRangeError, "kummer_f: argument must be finite"),
        # a ladder's argument that is no complex number: its orders first
        ("bessel_j_ladder", (NAN, 2, "x"), OutOfRangeError, ORDER_MESSAGE),
        # Kummer's guards: real parameters, pole, Re z, argument
        ("kummer_f", (0.3 + 1e-3j, -2.0, 0.5), OutOfRangeError,
         "kummer_f needs real a and c, got a=(0.3+0.001j), c=-2.0"),
        ("kummer_f", (0.5, -2.0, NAN), PoleError, "kummer_f pole at -2.0"),
        ("kummer_f", (0.5, -2.0, 2e9), PoleError, "kummer_f pole at -2.0"),
        ("kummer_f", (0.5, -INF, 2e9), OutOfRangeError,
         "kummer_f needs a finite parameter, got -inf"),
        ("kummer_f", (0.5, 1.5, np.array([2e9, NAN])), OutOfRangeError,
         "kummer_f overflows at Re z above 1e+09"),
        ("kummer_f", (np.array([0.5, 1.5]), np.array([1.5, -1.0]), np.array([1.0, INF])),
         PoleError, "kummer_f pole at [ 1.5 -1. ]"),
        # an empty broadcast, or shapes that cannot broadcast: each guard still
        # tests every element of its own input
        ("kummer_f", (0.5, np.array([]), NAN), OutOfRangeError,
         "kummer_f: argument must be finite"),
        ("kummer_f", (np.array([]), -2.0, 1.0), PoleError, "kummer_f pole at -2.0"),
        ("kummer_f", (0.5, np.array([]), 2e9), OutOfRangeError,
         "kummer_f overflows at Re z above 1e+09"),
        ("kummer_f", (np.array([0.5, 0.6]), np.array([1.5, -2.0, 3.5]), 1.0), PoleError,
         "kummer_f pole at [ 1.5 -2.   3.5]"),
        ("kummer_f", (np.array([0.5, 0.6]), 1.5, np.array([1.0, NAN, 3.0])), OutOfRangeError,
         "kummer_f: argument must be finite"),
        # the same with one z above 1e9: the Re z guard cannot broadcast it
        # against a either, and scipy reports all three shapes
        ("kummer_f", (np.array([0.5, 1.5]), 1.5, np.array([2e9, 1.0, 1.0])), ValueError,
         "operands could not be broadcast together with shapes (2,) () (3,) "),
    ]

    @pytest.mark.parametrize("name, args, error, message", TWO_GUARD_CASES)
    def test_two_guards_fail(self, name, args, error, message):
        _raises(error, message, getattr(sf, name), *args)

    @pytest.mark.parametrize("name", [*sorted(ORDER_FUNCTIONS), "bessel_j_hankel1"])
    def test_empty_arrays_pass(self, name):
        fn = getattr(sf, name)
        for nu, z in ((np.array([]), 1.0), (0.3, np.array([])), (np.array([]), np.array([]))):
            out = fn(nu, z)
            for part in (out if isinstance(out, tuple) else (out,)):
                assert isinstance(part, np.ndarray) and part.shape == (0,)
        for a, c, z in ((0.5, 1.5, np.array([])), (np.array([]), 1.5, 1.0),
                        (0.5, np.array([]), 1.0)):
            assert sf.kummer_f(a, c, z).shape == (0,)

    @pytest.mark.parametrize("name", [*sorted(ORDER_FUNCTIONS), "bessel_j_hankel1"])
    def test_arrays_that_cannot_broadcast(self, name):
        # valid values whose shapes do not broadcast: scipy's own ValueError
        nu, z = np.array([0.3, 0.4]), np.array([1.0, 2.0, 3.0])
        with pytest.raises(ValueError) as want:
            special.jv(nu, z)
        _raises(ValueError, str(want.value), getattr(sf, name), nu, z)

    def test_kummer_arrays_that_cannot_broadcast(self):
        for a, c, z in ((np.array([0.5, 0.6]), np.array([1.5, 2.5, 3.5]), 1.0),
                        (0.5, np.array([1.5, 2.5]), np.array([1.0, 2.0, 3.0]))):
            with pytest.raises(ValueError) as want:
                special.hyp1f1(a, c, z)
            _raises(ValueError, str(want.value), sf.kummer_f, a, c, z)

    def test_ladder(self):
        for bad in (NAN, INF, -INF):
            _raises(OutOfRangeError, ORDER_MESSAGE, sf.bessel_j_ladder, bad, 2, 1.0)
        # orders 199.5 and 200.5 evaluate: both underflow to 0 at z = 1
        assert sf.bessel_j_ladder(199.5, 2, 1.0).tolist() == [0j, 0j]
        for z in (NAN, INF, -INF):
            _raises(OutOfRangeError, "J ladder: argument must be finite",
                    sf.bessel_j_ladder, 0.3, 2, z)
        _raises(SingularArgumentError, "J ladder diverges at z=0",
                sf.bessel_j_ladder, -150.5, 2, 0.0)
        _raises(OutOfRangeError, "J ladder is not finite in double precision here",
                sf.bessel_j_ladder, -150.5, 2, 1e-3)

    def test_kummer(self):
        for z in (NAN, -INF):
            for arg in self._both(z, 1.0):
                _raises(OutOfRangeError, "kummer_f: argument must be finite",
                        sf.kummer_f, 0.5, 1.5, arg)
        # a terminating series passes the Re z check and meets the argument guard
        _raises(OutOfRangeError, "kummer_f: argument must be finite",
                sf.kummer_f, -2.0, 1.5, INF)
        _raises(OutOfRangeError, "kummer_f overflows at Re z above 1e+09",
                sf.kummer_f, 0.5, 1.5, INF)
        for arg in self._both(1000.0, 1.0):
            _raises(OutOfRangeError, "kummer_f is not finite in double precision here",
                    sf.kummer_f, 0.5, 1.5, arg)
        # finite at z = 0
        assert sf.kummer_f(0.5, 1.5, 0.0) == 1.0


# public function -> (its raw scipy routine, the dtype its argument is cast to)
SCIPY_ROUTINES = {
    "bessel_j": (special.jv, np.complex128),
    "bessel_j_prime": (special.jvp, np.complex128),
    "hankel1": (special.hankel1, np.complex128),
    "hankel1_prime": (special.h1vp, np.complex128),
    "hankel1e": (special.hankel1e, np.complex128),
    "bessel_ie": (special.ive, np.float64),
    "bessel_ke": (special.kve, np.float64),
}
KUMMER_C = 1.5  # Kummer's c beside a = each oracle order


def _returned(fn, *args):
    """fn(*args), or None where the library refuses it with a typed error."""
    try:
        return fn(*args)
    except (OutOfRangeError, SingularArgumentError, PoleError):
        return None


class TestValidCallsSkipTheGuards:
    """A valid call on the scalar route meets one test of its inputs and one
    of its results; every valid call returns its raw scipy routine's value
    on the same cast inputs."""

    @staticmethod
    def _refuse_single_guards(monkeypatch):
        def refuse(*_args, **_kwargs):
            raise AssertionError("a single guard ran on a valid call")

        for helper in ("_order", "_argument", "_positive", "_finite",
                       "_real_parameters", "_check_pole", "_check_far"):
            monkeypatch.setattr(sf, helper, refuse)

    def test_single_guards_not_called(self, monkeypatch):
        # the scalar route: a Python-float or -complex argument (np.float64
        # included) beside a float order or an order array; array arguments
        # meet the single guards and are compared with scipy's bits in
        # test_bits_equal_scipy and with the guards in TestScalarArgumentRule
        self._refuse_single_guards(monkeypatch)
        orders = np.array([-1.3, 0.3, 2.7])
        for nu in (0.3, orders):
            for name in SCIPY_ROUTINES:
                getattr(sf, name)(nu, 1.0)
            sf.bessel_j_hankel1(nu, 1.0)
            sf.bessel_j(nu + 250.0, 300.0)
            sf.bessel_j(nu, 2.0j)
        sf.bessel_j_ladder(0.3, 4, 2.0)
        # an order pair beside a Python-float x, as a shielded weight calls
        # bessel_ie, and Python-complex arguments
        pair = np.array([0.59, 1.59])
        for x in (0.1, 50.0, np.float64(3.0)):
            sf.bessel_ie(pair, x)
            sf.bessel_ke(pair, x)
        for z in (2.0j, 1.0 - 0.5j, np.complex128(3.0j)):
            sf.bessel_j(0.3, z)
            sf.bessel_j(orders, z)
        # the pair's Python-float route, Python floats and numpy float64
        for nu, z in ((-1.3, 0.5), (np.float64(2.7), np.float64(4.0)),
                      (np.float64(0.3), 1.0), (0.3, np.float64(1e-3))):
            sf.bessel_j_hankel1(nu, z)
        # Kummer's float route
        for z in (0.7, -3.0, 0.0, 500.0, -1e9):
            sf.kummer_f(0.3, KUMMER_C, z)

    def test_library_call_sites_take_the_scalar_route(self, monkeypatch):
        # the calls the benchmark's hot paths make: bare and shielded weights
        # over the matching_sweep grid, and partial-wave rows above j_{0,1}
        self._refuse_single_guards(monkeypatch)
        kin = make_kinematics(k=1.0)
        for alpha in (0.41, -1.38):
            coupling = Coupling(alpha)
            for kr0 in (1e-4, 0.05, 3.0):
                tube = TubeConfig(r0=kr0, coupling=coupling)
                barriers = [sh.shielded_sweep_point(kr0, kappa_r0) for kappa_r0 in (50.0, 6.0)]
                for l in range(-10, 11):
                    for ch in (1, 2):
                        bt.matching_coefficient(l, ch, tube, kin)
                        for barrier, kin_b in barriers:
                            sh.shielded_matching(l, ch, barrier, kin_b, coupling)
            for kind in ("bare", "shielded"):
                for kr in (3.0, 50.0):
                    sc.dirac_scattering_state(kind, SpinorAmplitudes(1.0, 0.5j), coupling,
                                              kin, kr, np.array([0.1, 2.0]))

    @pytest.mark.parametrize("name", sorted(SCIPY_ROUTINES))
    def test_bits_equal_scipy(self, name):
        routine, dtype = SCIPY_ROUTINES[name]
        fn = getattr(sf, name)
        for nu in ORACLE_ORDERS:
            for x in ORACLE_ARGS:
                got = _returned(fn, nu, x)
                if got is not None:
                    want = routine(np.float64(nu), np.asarray(x, dtype=dtype))
                    assert _bits(got) == _bits(want), (nu, x)
            got = _returned(fn, nu, ORACLE_ARGS)
            if got is not None:
                want = routine(np.float64(nu), ORACLE_ARGS.astype(dtype))
                assert _bits(got) == _bits(want), nu

    def test_pair_bits_equal_scipy(self):
        # numpy float64 and Python float arguments, arrays, imaginary arrays
        for nu in ORACLE_ORDERS:
            for z in (*ORACLE_ARGS, *ORACLE_ARGS.tolist(), ORACLE_ARGS, 1j * ORACLE_ARGS):
                got = _returned(sf.bessel_j_hankel1, nu, z)
                if got is not None:
                    z_in = np.asarray(z, dtype=np.complex128)
                    want = special.jv(nu, z_in), special.hankel1(nu, z_in)
                    assert _bits(got) == _bits(want), (nu, z)

    def test_kummer_bits_equal_scipy(self):
        # c > 1/2 passes the one input test; c <= 1/2 off a pole fails it and
        # meets the single guards, which let it through
        for a in ORACLE_ORDERS:
            for c in (KUMMER_C, 0.3, -1.5):
                for z in (*ORACLE_ARGS, ORACLE_ARGS, -ORACLE_ARGS, 1j * ORACLE_ARGS):
                    got = _returned(sf.kummer_f, a, c, z)
                    if got is not None:
                        assert _bits(got) == _bits(special.hyp1f1(a, c, np.asarray(z))), (a, c, z)
                a_pair, c_pair = np.array([a, a + 1.0]), np.array([c, c + 1.0])
                for z in (*ORACLE_ARGS.tolist(), *(-ORACLE_ARGS).tolist()):
                    got = _returned(sf.kummer_f, a_pair, c_pair, z)
                    if got is not None:
                        assert _bits(got) == _bits(special.hyp1f1(a_pair, c_pair, z)), (a, c, z)
        # a terminating series at Re z above 1e9
        for a in (0.0, -1.0, -2.0, -3.0):
            for z in (2e9, 1e12, 1e20, 3e9 + 1.0j):
                assert _bits(sf.kummer_f(a, KUMMER_C, z)) == _bits(special.hyp1f1(a, KUMMER_C, z))

    def test_matching_terms_take_the_float_route(self, monkeypatch):
        # float orders and arguments never reach the array route's input test
        calls = []
        inputs = sf._inputs

        def spy(*args, **kwargs):
            calls.append(args)
            return inputs(*args, **kwargs)

        monkeypatch.setattr(sf, "_inputs", spy)
        for alpha in (0.41, -1.38):
            for l in range(-3, 4):
                for ch in (1, 2):
                    nu = bt.exterior_order(l, ch, alpha)
                    for x in (1e-4, 0.5, 3.0):
                        for s in (0.3, -2.0, 1e308, math.inf, -math.inf):
                            bt._matching_terms(nu, x, s)
        assert calls == []


# each value of the float-route battery, as every kind of input it can take
ROUTE_VALUES = [0.3, -1.3, 250.0, NAN, INF, -INF, 0.0, -1.0, 1e308, 5e-324]


def _route_inputs(complex_too: bool) -> list:
    """Each of ROUTE_VALUES as a Python float, a numpy float64, a 0-d array,
    an int where it is integral and, with `complex_too`, a complex with that
    real or that imaginary part; then the two bools."""
    out = []
    for v in ROUTE_VALUES:
        out += [v, np.float64(v), np.array(v)]
        if math.isfinite(v) and v == int(v):
            out.append(int(v))
        if complex_too:
            out += [complex(v), complex(0.0, v)]
    return out + [True, False]


def _outcome(fn, *args, **kwargs):
    """Types and raw bits of fn's result (each of a pair), or its error type
    and message."""
    try:
        out = fn(*args, **kwargs)
    except Exception as exc:  # the error itself is the outcome compared
        return type(exc), str(exc)
    out = out if isinstance(out, tuple) else (out,)
    return [type(v) for v in out], [_bits(v) for v in out]


class TestPairFloatRoute:
    """Float orders and arguments take `bessel_j_hankel1`'s Python-float
    route; every other input is `bessel_j` followed by `hankel1`.  Over
    each kind of input, valid or not, the pair returns what `bessel_j` and
    `hankel1` return (types and bits) or raises what they raise, in that
    order."""

    def test_battery_equals_the_sequence(self):
        def sequence(nu, z):
            return sf.bessel_j(nu, z), sf.hankel1(nu, z)

        cases = 0
        for nu in _route_inputs(complex_too=False):
            for z in _route_inputs(complex_too=True):
                want = _outcome(sequence, nu, z)
                assert _outcome(sf.bessel_j_hankel1, nu, z) == want, (nu, z)
                cases += 1
        assert cases == 36 * 56


def _guarded(name, nu, z, label=None):
    """`name` at (nu, z) through its single guards alone, in their order
    (x > 0, order, argument), then its raw scipy routine on the cast inputs
    and the result guard: a Python scalar for a 0-d result."""
    routine, dtype = SCIPY_ROUTINES[name]
    label = label or ORDER_FUNCTIONS[name][0]
    if dtype is np.float64:
        sf._positive(z, name)
    nu_in = sf._order(nu)
    z_in = sf._argument(z, label, dtype)
    out = routine(nu_in, z_in)
    sf._finite(out, z_in, label)
    return out.item() if np.ndim(out) == 0 else out


# orders of the scalar-rule battery: floats, an order pair, an empty array,
# a pair with one NaN, and orders whose cast fails (a complex one warns, an
# error under this suite's filter)
SCALAR_RULE_ORDERS = [0.3, -1.3, np.array([0.3, -1.3]), np.array([]), np.array([0.3, NAN]),
                      "x", np.array([1.0 + 1.0j])]


class TestScalarArgumentRule:
    """A Python-float argument (and for the complex routines a Python
    complex) is tested in Python, beside a float order or one reduction over
    an order array.  Over each kind of argument, valid or not, every
    function returns the types and bits of its raw routine on the cast
    inputs, or raises what its single guards raise in their order."""

    def test_battery_equals_the_guarded_routine(self):
        cases = 0
        for nu in SCALAR_RULE_ORDERS:
            for z in _route_inputs(complex_too=True):
                for name in SCIPY_ROUTINES:
                    want = _outcome(_guarded, name, nu, z)
                    assert _outcome(getattr(sf, name), nu, z) == want, (name, nu, z)
                    cases += 1
        assert cases == 7 * 56 * 7

    def test_ladder_equals_the_guarded_routine(self):
        for nu0 in (0.3, -1.3, -150.5, NAN):
            for z in _route_inputs(complex_too=True):
                want = _outcome(_guarded, "bessel_j", float(nu0) + np.arange(2), complex(z),
                                label="J ladder")
                assert _outcome(sf.bessel_j_ladder, nu0, 2, z) == want, (nu0, z)
