"""Partial-wave unitarity |1 + 2A| = 1 of the outgoing-wave weights.

Any real exterior log-derivative gives a unit-modulus S = 1 + 2A, so a
deviation measures the floating-point error of the matching (Bessel/Hankel
values and the matching formula A = -(x J_{nu-1} - s J)/(x H_{nu-1} - s H)),
over random couplings, channels and radii.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from abdirac import bare_tube as bt
from abdirac import shielded as sh
from abdirac.model import Coupling, TubeConfig, make_kinematics

# subnormal couplings are left out: there b = -(k r0)^2 / (4 |alpha|), the
# Kummer parameter of the interior, overflows and kummer_f raises
# OutOfRangeError by design
ALPHA = st.floats(-2.9, 2.9, allow_subnormal=False)
L = st.integers(-10, 10)
CHANNEL = st.sampled_from((1, 2))
KR0 = st.floats(math.log(1e-4), math.log(3.0)).map(math.exp)
BARE_KR0 = st.floats(math.log(1e-12), math.log(3.0)).map(math.exp)

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def _deviation(a: complex) -> float:
    return abs(abs(1.0 + 2.0 * a) - 1.0)


@SETTINGS
@given(alpha=ALPHA, l=L, channel=CHANNEL, kr0=BARE_KR0)
def test_bare_matching_unitary(alpha, l, channel, kr0):
    tube = TubeConfig(r0=kr0, coupling=Coupling(alpha))
    a = bt.matching_coefficient(l, channel, tube, make_kinematics(k=1.0)).value
    assert _deviation(a) <= 1e-13


@SETTINGS
@given(alpha=ALPHA, l=L, channel=CHANNEL, kr0=KR0, kappa_r0=st.sampled_from((6.0, 50.0)))
def test_shielded_matching_unitary(alpha, l, channel, kr0, kappa_r0):
    barrier, kin = sh.shielded_sweep_point(kr0, kappa_r0)
    a = sh.shielded_matching(l, channel, barrier, kin, Coupling(alpha)).value
    assert _deviation(a) <= 1e-12
