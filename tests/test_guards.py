"""Every float parameter of the guarded entry points refuses what it cannot use.

Each property draws every float parameter of one public entry point from its
valid range mixed with the values a range check must meet: NaN, +-inf, 0, -1,
the largest double's neighbourhood 1e308 and the smallest subnormal 5e-324.
The call must either return a result whose every float is finite or raise an
`AbdiracError` subclass; a partial-wave row must also refuse a tolerance
outside (0, 1) with `RegimeError`, and the exterior order and the cutoff law
must refuse so whatever lies outside their documented range.  pytest turns a
numpy `RuntimeWarning` into an error, so an overflow inside numpy fails the
property too.  Each
`example` is a case that once returned NaN or inf, warned, raised a bare
Python error, hung, or returned a row whose tail went unchecked or a weight
from underflowed values.
"""

import dataclasses
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from abdirac import bare_tube as bt
from abdirac import propagate as pr
from abdirac import scattering as sc
from abdirac import shielded as sh
from abdirac import specfun as sf
from abdirac.errors import AbdiracError, RegimeError
from abdirac.model import (BarrierConfig, Coupling, Kinematics, SpinorAmplitudes, TubeConfig,
                           barrier_kappa, field_free_ksq, make_kinematics)

SETTINGS = settings(max_examples=150)

EDGES = st.sampled_from((math.nan, math.inf, -math.inf, 0.0, -1.0, 1e308, 5e-324))

# alpha at least 0.05 from an integer, either sign
ALPHA = st.floats(-2.95, 2.95).filter(lambda a: abs(a - round(a)) >= 0.05)
PACKET = pr.PacketConfig(delta=4.0, rho0=55.0, theta0=0.05, k=13.0)
KIN1 = make_kinematics(k=1.0)


def _or_edge(lo: float, hi: float):
    """A float from [lo, hi] or one of the edge values."""
    return st.one_of(st.floats(lo, hi), EDGES)


def _floats(value):
    """Every float (and complex part) inside a result."""
    if isinstance(value, dict):
        for v in value.values():
            yield from _floats(v)
    elif isinstance(value, (tuple, list)):
        for v in value:
            yield from _floats(v)
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from _floats(getattr(value, f.name))
    elif isinstance(value, np.ndarray):
        yield from value.ravel().tolist()
    elif isinstance(value, complex):
        yield value.real
        yield value.imag
    elif isinstance(value, float):
        yield value


def _finite_or_typed(call) -> None:
    try:
        out = call()
    except AbdiracError:
        return
    assert all(math.isfinite(v) for v in _floats(out)), out


def _refused_unless(valid: bool, call) -> None:
    """As `_finite_or_typed` where the inputs lie in the documented range;
    outside it the call must raise RegimeError."""
    if valid:
        _finite_or_typed(call)
    else:
        with pytest.raises(RegimeError):
            call()


def _row_or_typed(call, tol: float) -> None:
    """A partial-wave row: as `_finite_or_typed`, and a tolerance outside
    (0, 1), which the cutoff law cannot take, is refused with RegimeError."""
    _refused_unless(0.0 < tol < 1.0, call)


MASS = _or_edge(0.5, 2.0)
ANGLE = _or_edge(-math.pi, math.pi)


@SETTINGS
@given(alpha=ALPHA, mass=MASS, r=_or_edge(0.5, 50.0), rp=_or_edge(0.5, 50.0),
       theta=ANGLE, thetap=ANGLE, t=_or_edge(0.5, 5.0))
def test_greens_diff_closed(alpha, mass, r, rp, theta, thetap, t):
    _finite_or_typed(lambda: pr.greens_diff_closed(
        Coupling(alpha), mass, r, rp, theta, thetap, t))


@SETTINGS
@given(alpha=ALPHA, mass=MASS, r=_or_edge(10.0, 50.0), rp=_or_edge(10.0, 50.0),
       theta=ANGLE, thetap=ANGLE, t=_or_edge(0.5, 5.0))
def test_greens_diff_asymptotic(alpha, mass, r, rp, theta, thetap, t):
    _finite_or_typed(lambda: pr.greens_diff_asymptotic(
        Coupling(alpha), mass, r, rp, theta, thetap, t))


@SETTINGS
@given(alpha=ALPHA, mass=MASS, r=_or_edge(40.0, 80.0), theta=ANGLE,
       t=_or_edge(5.0, 15.0))
@example(alpha=0.37, mass=0.0, r=55.0, theta=0.0, t=8.5)
@example(alpha=0.37, mass=1.0, r=55.0, theta=math.nan, t=8.5)
@example(alpha=0.37, mass=1.0, r=55.0, theta=math.inf, t=8.5)
@example(alpha=0.37, mass=1.0, r=55.0, theta=0.0, t=math.inf)
def test_delta_closed(alpha, mass, r, theta, t):
    _finite_or_typed(lambda: pr.delta_closed(PACKET, Coupling(alpha), mass, r, theta, t))


@settings(max_examples=60)
@given(alpha=ALPHA, mass=MASS, r=_or_edge(40.0, 80.0), theta=ANGLE,
       t=_or_edge(5.0, 15.0))
@example(alpha=0.37, mass=math.nan, r=55.0, theta=0.0, t=8.5)
@example(alpha=0.37, mass=1.0, r=55.0, theta=-math.inf, t=8.5)
@example(alpha=0.37, mass=1.0, r=55.0, theta=math.nan, t=8.5)
def test_delta_quadrature(alpha, mass, r, theta, t):
    _finite_or_typed(lambda: pr.delta_quadrature(
        PACKET, Coupling(alpha), mass, r, theta, t))


@SETTINGS
@given(r=_or_edge(0.0, 100.0), mass=MASS)
@example(r=55.0, mass=math.nan)
def test_peak_time(r, mass):
    _finite_or_typed(lambda: pr.peak_time(PACKET, r, mass))


@settings(max_examples=60)
@given(alpha=ALPHA, d=_or_edge(0.0, 8.0), mass=MASS,
       r=st.one_of(st.none(), _or_edge(40.0, 80.0)), use_quadrature=st.booleans())
def test_suppression_scan(alpha, d, mass, r, use_quadrature):
    _finite_or_typed(lambda: pr.suppression_scan(
        PACKET, [d], Coupling(alpha), mass, r, use_quadrature))


@SETTINGS
@given(alpha=ALPHA, rp=_or_edge(0.0, 200.0), thetap=ANGLE)
@example(alpha=0.37, rp=math.nan, thetap=0.0)
@example(alpha=0.37, rp=55.0, thetap=math.nan)
@example(alpha=0.37, rp=math.inf, thetap=0.0)
@example(alpha=0.37, rp=55.0, thetap=-math.inf)
@example(alpha=0.37, rp=1e200, thetap=0.0)
def test_packet_initial(alpha, rp, thetap):
    _finite_or_typed(lambda: pr.packet_initial(PACKET, Coupling(alpha), rp, thetap))


@SETTINGS
@given(alpha=ALPHA, delta=_or_edge(1.0, 10.0), rho0=_or_edge(40.0, 200.0),
       theta0=_or_edge(-0.3, 0.3), k=_or_edge(1.0, 30.0))
@example(alpha=1.5, delta=5e-324, rho0=40.0, theta0=0.0, k=1.0)
@example(alpha=1.5, delta=1.0, rho0=1e308, theta0=0.0, k=1.0)
def test_packet_norm(alpha, delta, rho0, theta0, k):
    _finite_or_typed(lambda: pr.packet_norm(
        pr.PacketConfig(delta, rho0, theta0, k), Coupling(alpha)))


@settings(max_examples=60)
@given(alpha=ALPHA, mass=MASS, r=_or_edge(40.0, 80.0))
@example(alpha=1.5, mass=5e-324, r=40.0)
def test_transit_fit(alpha, mass, r):
    _finite_or_typed(lambda: pr.transit_fit(PACKET, Coupling(alpha), mass, r))


@SETTINGS
@given(kr0=_or_edge(1e-4, 3.0), kappa_r0=_or_edge(1.0, 60.0), U=_or_edge(0.1, 1.9),
       M=_or_edge(0.5, 2.0))
@example(kr0=1.0, kappa_r0=50.0, U=3.0, M=1.0)
@example(kr0=1.0, kappa_r0=50.0, U=2.0, M=1.0)
@example(kr0=1.0, kappa_r0=50.0, U=0.0, M=1.0)
@example(kr0=1.0, kappa_r0=50.0, U=1.0, M=0.0)
@example(kr0=1e308, kappa_r0=50.0, U=1.0, M=1.0)
def test_shielded_sweep_point(kr0, kappa_r0, U, M):
    _finite_or_typed(lambda: sh.shielded_sweep_point(kr0, kappa_r0, U, M))


@SETTINGS
@given(k=_or_edge(0.0, 10.0), M=_or_edge(0.5, 2.0))
@example(k=1e308, M=1.0)
@example(k=0.0, M=0.0)
@example(k=1e-310, M=0.0)
def test_make_kinematics_from_k(k, M):
    _finite_or_typed(lambda: make_kinematics(k=k, M=M))


@SETTINGS
@given(E=_or_edge(1.0, 10.0), M=_or_edge(0.5, 1.0))
@example(E=0.0, M=0.0)
@example(E=1e308, M=1.0)
def test_make_kinematics_from_energy(E, M):
    _finite_or_typed(lambda: make_kinematics(E=E, M=M))


@SETTINGS
@given(E=_or_edge(1.0, 10.0), M=_or_edge(0.5, 2.0), k=_or_edge(0.0, 10.0))
@example(E=2.0, M=1.0, k=5.0)
@example(E=1e200, M=1.0, k=1e200)
@example(E=1.0, M=1.0, k=1e-10)
@example(E=1.000000000000001, M=1.0, k=4.712160915387242e-08)
def test_kinematics(E, M, k):
    # built directly, a Kinematics must hold E^2 = M^2 + k^2 to a few ulp of
    # E^2: in exact arithmetic, a triple within 2 ulp is accepted and one
    # beyond 16 refused
    try:
        Kinematics(E, M, k)
    except RegimeError:
        accepted = False
    else:
        accepted = True
    if not (0 <= M <= E < math.inf and E >= sys.float_info.min and 0 <= k < math.inf):
        assert not accepted
        return
    e, m, q = Fraction(E), Fraction(M), Fraction(k)
    residual = abs(e * e - m * m - q * q) / (e * e * Fraction(sys.float_info.epsilon))
    if residual <= 2:
        assert accepted, residual
    elif residual > 16:
        assert not accepted, residual


@SETTINGS
@given(alpha=ALPHA, theta_cut=_or_edge(1e-3, 3.0))
@example(alpha=0.3, theta_cut=math.nan)
@example(alpha=0.3, theta_cut=-1.0)
def test_integrated_cross_section(alpha, theta_cut):
    _finite_or_typed(lambda: sc.integrated_cross_section(Coupling(alpha), KIN1, theta_cut))


@SETTINGS
@given(alpha=ALPHA, k=_or_edge(0.0, 10.0), theta=ANGLE)
@example(alpha=0.3, k=0.0, theta=0.5)
@example(alpha=0.3, k=5e-324, theta=3.1415926535897927)
def test_scattering_amplitude(alpha, k, theta):
    for fn in (sc.scattering_amplitude, sc.differential_cross_section):
        _finite_or_typed(lambda: fn(Coupling(alpha), make_kinematics(k=k), theta))


@SETTINGS
@given(alpha=ALPHA, kind=st.sampled_from(("bare", "shielded")), r=_or_edge(50.0, 500.0),
       theta=_or_edge(-3.0, 3.0))
@example(alpha=0.3, kind="bare", r=math.inf, theta=0.3)
def test_asymptotic_state(alpha, kind, r, theta):
    _finite_or_typed(lambda: sc.asymptotic_state(
        kind, SpinorAmplitudes(), Coupling(alpha), KIN1, r, theta))


@SETTINGS
@given(alpha=ALPHA, r=_or_edge(0.5, 200.0), theta=ANGLE, tol=_or_edge(1e-30, 1e-6))
@example(alpha=0.3, r=10.0, theta=1e308, tol=1e-10)
@example(alpha=0.3, r=1e308, theta=0.3, tol=1e-10)
@example(alpha=0.3, r=10.0, theta=0.3, tol=math.inf)
def test_ab_wavefunction(alpha, r, theta, tol):
    _row_or_typed(lambda: sc.ab_wavefunction(Coupling(alpha), KIN1, r, theta, tol), tol)


@SETTINGS
@given(alpha=ALPHA, kind=st.sampled_from(("bare", "shielded")), k=_or_edge(1e-3, 5.0),
       M=MASS, r=_or_edge(0.5, 200.0), theta=ANGLE, tol=_or_edge(1e-30, 1e-6))
@example(alpha=0.3, kind="bare", k=1.0, M=1.0, r=10.0, theta=1e308, tol=1e-10)
@example(alpha=0.3, kind="shielded", k=1.0, M=1.0, r=10.0, theta=1e308, tol=1e-10)
@example(alpha=0.3, kind="bare", k=1.0, M=1.0, r=1e308, theta=0.3, tol=1e-10)
@example(alpha=0.3, kind="shielded", k=1.0, M=1.0, r=1e308, theta=0.3, tol=1e-10)
@example(alpha=0.3, kind="bare", k=1.0, M=1.0, r=10.0, theta=0.3, tol=math.inf)
@example(alpha=0.3, kind="shielded", k=1.0, M=1.0, r=10.0, theta=0.3, tol=math.inf)
@example(alpha=0.3, kind="bare", k=1e-310, M=0.0, r=1e300, theta=0.2, tol=1e-10)
def test_dirac_scattering_state(alpha, kind, k, M, r, theta, tol):
    _row_or_typed(lambda: sc.dirac_scattering_state(
        kind, SpinorAmplitudes(0.8 + 0.1j, 0.5 - 0.2j), Coupling(alpha),
        make_kinematics(k=k, M=M), r, theta, tol), tol)


@SETTINGS
@given(a=_or_edge(-5.0, 5.0), c=_or_edge(0.6, 5.0), z=_or_edge(-20.0, 20.0))
@example(a=0.5, c=-math.inf, z=1.0)
def test_kummer_f(a, c, z):
    _finite_or_typed(lambda: sf.kummer_f(a, c, z))


L = st.integers(-6, 6)
CHANNEL = st.sampled_from((1, 2))
COUPLING = _or_edge(-2.95, 2.95)


@SETTINGS
@given(l=L, channel=CHANNEL, alpha=COUPLING)
@example(l=0, channel=1, alpha=math.nan)
@example(l=0, channel=1, alpha=math.inf)
@example(l=0, channel=2, alpha=-math.inf)
def test_exterior_order(l, channel, alpha):
    _refused_unless(math.isfinite(alpha), lambda: bt.exterior_order(l, channel, alpha))


@SETTINGS
@given(alpha=COUPLING, channel=CHANNEL)
@example(alpha=1e308, channel=1)
@example(alpha=-1e308, channel=2)
def test_anomalous_limit(alpha, channel):
    _finite_or_typed(lambda: bt.anomalous_limit(Coupling(alpha), channel))


@SETTINGS
@given(kr=_or_edge(0.0, 1e5), tol=_or_edge(1e-300, 0.5))
@example(kr=1e4, tol=5e-324)
@example(kr=1e4, tol=1e-310)
def test_truncation_order(kr, tol):
    valid = 0.0 <= kr <= sc._MAX_KR and sys.float_info.min <= tol < 1.0
    _refused_unless(valid, lambda: sc.truncation_order(kr, tol))


@SETTINGS
@given(l=L, channel=CHANNEL, alpha=COUPLING, r0=_or_edge(1e-4, 5.0), k=_or_edge(1e-3, 5.0))
@example(l=0, channel=1, alpha=0.0, r0=5e-324, k=1.0)
@example(l=0, channel=1, alpha=1.0, r0=1e308, k=1.0)
@example(l=150, channel=1, alpha=0.5, r0=3.06e4, k=1.0)
def test_matching_coefficient(l, channel, alpha, r0, k):
    _finite_or_typed(lambda: bt.matching_coefficient(
        l, channel, TubeConfig(r0, Coupling(alpha)), make_kinematics(k=k)))


@SETTINGS
@given(l=L, channel=CHANNEL, alpha=COUPLING, r0=_or_edge(1e-3, 5.0), k=_or_edge(1e-3, 5.0),
       rho=_or_edge(0.0, 1.0), U=_or_edge(0.0, 1.9))
@example(l=1, channel=1, alpha=1e308, r0=1.0, k=1.0, rho=1.0, U=0.0)
@example(l=170, channel=1, alpha=0.0, r0=100.0, k=1.0, rho=1.0, U=0.0)
@example(l=170, channel=1, alpha=0.37, r0=100.0, k=1.0, rho=1.0, U=0.0)
def test_interior_chi(l, channel, alpha, r0, k, rho, U):
    _finite_or_typed(lambda: bt.interior_chi(
        l, channel, TubeConfig(r0, Coupling(alpha)), make_kinematics(k=k), rho * r0, U))


@SETTINGS
@given(l=L, channel=CHANNEL, alpha=COUPLING, r0=_or_edge(1e-3, 5.0), k=_or_edge(1e-3, 5.0),
       U=_or_edge(0.0, 1.9))
@example(l=0, channel=1, alpha=0.0, r0=1.0, k=0.0, U=0.0)
@example(l=0, channel=2, alpha=0.0, r0=1.0, k=0.0, U=0.0)
def test_log_derivative_interior(l, channel, alpha, r0, k, U):
    _finite_or_typed(lambda: bt.log_derivative_interior(
        l, channel, TubeConfig(r0, Coupling(alpha)), make_kinematics(k=k), U))


@SETTINGS
@given(l=L, channel=CHANNEL, alpha=COUPLING, k=_or_edge(1e-3, 5.0),
       r_match=_or_edge(1e-3, 5.0), dlog=_or_edge(-50.0, 50.0))
@example(l=0, channel=1, alpha=0.0, k=1.0, r_match=1.0, dlog=math.nan)
@example(l=4, channel=2, alpha=0.0, k=0.03125, r_match=0.015625, dlog=1e308)
def test_matching_from_log_derivative(l, channel, alpha, k, r_match, dlog):
    _finite_or_typed(lambda: bt.matching_from_log_derivative(
        l, channel, Coupling(alpha), make_kinematics(k=k), r_match, dlog))


@SETTINGS
@given(l=L, channel=CHANNEL, alpha=COUPLING, R0=_or_edge(1e-3, 5.0), U=_or_edge(0.1, 1.9),
       k=_or_edge(1e-3, 5.0))
def test_shielded_matching(l, channel, alpha, R0, U, k):
    _finite_or_typed(lambda: sh.shielded_matching(
        l, channel, BarrierConfig(R0, U), make_kinematics(k=k), Coupling(alpha)))


# every edge value but 1e308: the oracle's cost grows with k r_max, and at
# r_max = 1e6 it already takes more than 20 s
ODE_EDGES = st.sampled_from((math.nan, math.inf, -math.inf, 0.0, -1.0, 5e-324))


@settings(max_examples=20)
@given(l=st.integers(-3, 3), channel=CHANNEL, alpha=ALPHA, barrier=st.booleans(),
       r_max_over_edge=st.one_of(st.floats(1.5, 3.0), st.just(1.0), ODE_EDGES),
       rtol=st.one_of(st.just(1e-10), EDGES))
@example(l=0, channel=1, alpha=0.37, barrier=False, r_max_over_edge=math.nan, rtol=1e-10)
@example(l=0, channel=1, alpha=0.37, barrier=True, r_max_over_edge=math.inf, rtol=1e-10)
@example(l=0, channel=1, alpha=0.37, barrier=False, r_max_over_edge=2.0, rtol=math.nan)
@example(l=0, channel=1, alpha=0.37, barrier=False, r_max_over_edge=2.0, rtol=1e308)
def test_ode_radial_oracle(l, channel, alpha, barrier, r_max_over_edge, rtol):
    tube = TubeConfig(0.5, Coupling(alpha))
    bar = BarrierConfig(R0=1.0, U=0.5) if barrier else None
    r_max = r_max_over_edge * (bar.R0 if barrier else tube.r0)
    valid = 1.0 < r_max_over_edge < math.inf and 0.0 < rtol < 1.0
    _refused_unless(valid, lambda: bt.ode_radial_oracle(
        l, channel, tube, KIN1, r_max, barrier=bar, rtol=rtol).matching_from_interior())


@SETTINGS
@given(l=L, alpha=COUPLING, k=_or_edge(1e-3, 5.0), M=MASS, r=_or_edge(0.0, 50.0))
@example(l=0, alpha=0.3, k=0.0, M=0.0, r=1.0)
def test_bare_string_radial(l, alpha, k, M, r):
    def call():
        return bt.bare_string_radial(l, Coupling(alpha), make_kinematics(k=k, M=M), r)

    if r != 0.0:
        _finite_or_typed(call)
        return
    # at the origin a divergent component is the documented infinity
    try:
        out = call()
    except AbdiracError:
        return
    assert not any(math.isnan(v) for v in _floats(out)), out


@SETTINGS
@given(l=L, channel=CHANNEL, alpha=COUPLING, R0=_or_edge(1e-3, 5.0), U=_or_edge(0.1, 1.9),
       k=_or_edge(1e-3, 5.0), r=_or_edge(1e-3, 5.0))
def test_barrier_radial_limit(l, channel, alpha, R0, U, k, r):
    _finite_or_typed(lambda: sh.barrier_radial_limit(
        l, channel, BarrierConfig(R0, U), make_kinematics(k=k), Coupling(alpha), r))


@SETTINGS
@given(l=L, alpha=COUPLING, k=_or_edge(1e-3, 5.0), M=MASS, r=_or_edge(1e-3, 50.0),
       a1=_or_edge(-2.0, 2.0), a2=_or_edge(-2.0, 2.0))
@example(l=0, alpha=0.3, k=0.0, M=0.0, r=1.0, a1=1.0, a2=1.0)
def test_shielded_eigenfunction(l, alpha, k, M, r, a1, a2):
    _finite_or_typed(lambda: sh.shielded_eigenfunction(
        l, Coupling(alpha), make_kinematics(k=k, M=M), r, a1, a2))


@SETTINGS
@given(k=_or_edge(0.0, 10.0), M=_or_edge(0.5, 2.0), U=_or_edge(-1.0, 4.0))
def test_barrier_kappa_and_field_free_ksq(k, M, U):
    for fn in (barrier_kappa, field_free_ksq):
        _finite_or_typed(lambda: fn(make_kinematics(k=k, M=M), U))


@SETTINGS
@given(r0=_or_edge(1e-3, 5.0), alpha=COUPLING, R0=_or_edge(1e-3, 5.0), U=_or_edge(-1.0, 4.0),
       a1=_or_edge(-2.0, 2.0), a2=_or_edge(-2.0, 2.0), delta=_or_edge(1.0, 10.0),
       rho0=_or_edge(40.0, 200.0), theta0=_or_edge(-0.3, 0.3), k=_or_edge(1.0, 30.0))
def test_config_types(r0, alpha, R0, U, a1, a2, delta, rho0, theta0, k):
    _finite_or_typed(lambda: TubeConfig(r0, Coupling(alpha)).qB_over_hbar)
    _finite_or_typed(lambda: BarrierConfig(R0, U))
    _finite_or_typed(lambda: SpinorAmplitudes(a1, a2))
    _finite_or_typed(lambda: SpinorAmplitudes(complex(a1, a2), complex(a2, a1)))
    _finite_or_typed(lambda: pr.PacketConfig(delta, rho0, theta0, k))
