"""Partial-wave unitarity |1 + 2A| = 1 of the outgoing-wave weights.

Any real exterior log-derivative gives a unit-modulus S = 1 + 2A, so a
deviation measures the floating-point error of the matching (Bessel/Hankel
values and the matching formula A = -(x J_{nu-1} - s J)/(x H_{nu-1} - s H)),
over random couplings, channels and radii.  The exterior pair's Wronskian,
which keeps the formula's denominator off zero, is checked over the same
draws.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abdirac import bare_tube as bt
from abdirac import shielded as sh
from abdirac import specfun as sf
from abdirac.model import Coupling, TubeConfig, make_kinematics

ALPHA = st.floats(-2.9, 2.9)
L = st.integers(-10, 10)
CHANNEL = st.sampled_from((1, 2))
KR0 = st.floats(math.log(1e-4), math.log(3.0)).map(math.exp)
BARE_KR0 = st.floats(math.log(1e-12), math.log(3.0)).map(math.exp)

SETTINGS = settings(max_examples=300)


def _deviation(a: complex) -> float:
    return abs(abs(1.0 + 2.0 * a) - 1.0)


@SETTINGS
@given(alpha=ALPHA, l=L, channel=CHANNEL, kr0=BARE_KR0)
def test_bare_matching_unitary(alpha, l, channel, kr0):
    tube = TubeConfig(r0=kr0, coupling=Coupling(alpha))
    a = bt.matching_coefficient(l, channel, tube, make_kinematics(k=1.0)).value
    assert _deviation(a) <= 1e-13


@SETTINGS
@given(alpha=ALPHA, l=L, channel=CHANNEL, kr0=BARE_KR0)
def test_exterior_wronskian(alpha, l, channel, kr0):
    # x (J_{nu-1} H_nu - J_nu H_{nu-1}) = -2i/pi (DLMF 10.5.4 with H = J + iY),
    # relative to the size of the two products whose difference it is
    nu = bt.exterior_order(l, channel, alpha)
    j_down, j = sf.bessel_j(nu - 1.0, kr0), sf.bessel_j(nu, kr0)
    h_down, h = sf.hankel1(nu - 1.0, kr0), sf.hankel1(nu, kr0)
    scale = kr0 * (abs(j_down * h) + abs(j * h_down))
    assert abs(kr0 * (j_down * h - j * h_down) + 2j / math.pi) <= 2e-13 * scale


@SETTINGS
@given(alpha=ALPHA, l=L, channel=CHANNEL, kr0=KR0, kappa_r0=st.sampled_from((6.0, 50.0)))
def test_shielded_matching_unitary(alpha, l, channel, kr0, kappa_r0):
    barrier, kin = sh.shielded_sweep_point(kr0, kappa_r0)
    a = sh.shielded_matching(l, channel, barrier, kin, Coupling(alpha)).value
    assert _deviation(a) <= 1e-12


@pytest.mark.parametrize("alpha", [5e-324, 2.2e-311, -2.2e-311])
@pytest.mark.parametrize("l, channel", [(0, 1), (0, 2), (-1, 2), (1, 1)])
def test_subnormal_coupling_is_the_free_limit(alpha, l, channel):
    # the interior's Kummer parameter b = -(k r0)^2 / (4 |alpha|) overflows and
    # the exterior order |l_ch - alpha| is subnormal at l_ch = 0; the zero-
    # coupling weight is the limit in double precision
    kin = make_kinematics(k=1.0)
    got = bt.matching_coefficient(l, channel, TubeConfig(r0=1.0, coupling=Coupling(alpha)), kin)
    want = bt.matching_coefficient(l, channel, TubeConfig(r0=1.0, coupling=Coupling(0.0)), kin)
    assert abs(got.value - want.value) <= 1e-15
