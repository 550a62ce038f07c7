"""Physical parameter types and the kinematic relations tying them together.

Unit conventions
----------------
The Dirac and packet layers work on one scale, inverse length.  The Dirac
layer takes the energy as E / hbar c (rest mass included), the mass as
Mc / hbar and a barrier height as U / hbar c, inverse lengths like the
wavenumber k, which makes every formula coefficient-free; the packet layer
(`propagate`) takes the one mass scale M / hbar as its `mass`.  Natural units
hbar = c = M = 1 measure lengths in Compton wavelengths hbar / Mc, so
Mc / hbar = 1 and energies are in rest-mass units Mc^2.  SI inputs are
lengths in m: an electron's M becomes Mc / hbar = 2.59e12 1/m, E becomes
E / hbar c and U becomes U / hbar c.  Dimensionless outputs agree between the
two schemes.

The flux coupling is the signed dimensionless number alpha = qF/(2 pi hbar).
For an electron q = -e < 0, so alpha and the flux F have opposite signs; the
library works with alpha directly so that both flux orientations share one
code path.  The integer part [alpha] always means the floor (nearest integer
to the left), also for negative alpha.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

from .errors import RegimeError

__all__ = [
    "Coupling",
    "Kinematics",
    "TubeConfig",
    "BarrierConfig",
    "SpinorAmplitudes",
    "make_kinematics",
    "barrier_kappa",
    "channel_index",
    "field_free_ksq",
]

@dataclass(frozen=True)
class Coupling:
    """Flux coupling alpha with its floor decomposition alpha = [alpha] + frac."""

    alpha: float

    @property
    def int_part(self) -> int:
        return self._split()[0]

    @property
    def frac(self) -> float:
        return self._split()[1]

    def _split(self) -> tuple[int, float]:
        """([alpha], frac) with 0 <= frac < 1.  For -5.6e-17 <~ alpha < 0,
        alpha - floor(alpha) rounds to 1.0; that rounding is carried into the
        integer part, (floor + 1, 0.0)."""
        n = math.floor(self.alpha)
        frac = self.alpha - n
        return (n + 1, 0.0) if frac == 1.0 else (n, frac)

    @property
    def is_integer(self) -> bool:
        return self.frac == 0.0

    def __post_init__(self):
        if not math.isfinite(self.alpha):
            raise RegimeError("coupling alpha must be finite")


@dataclass(frozen=True)
class Kinematics:
    """Energy / mass / wavenumber of the incident electron, each an inverse
    length: `energy_E` is E/hbar c (rest mass included), `mass_M` is Mc/hbar,
    and E^2 = M^2 + k^2, which it checks to a few ulp.  `make_kinematics`
    builds one from E or from k.

    A barrier's decay constant follows from its own height,
    `barrier_kappa(kin, U)`.
    """

    energy_E: float
    mass_M: float
    k: float

    def __post_init__(self):
        E, M, k = self.energy_E, self.mass_M, self.k
        if not 0 <= M < math.inf:
            raise RegimeError(f"mass {M} must be finite and non-negative")
        # the lower components carry 1/(E + M): E must be a normal double
        if not (M <= E < math.inf and sys.float_info.min <= E):
            raise RegimeError(
                f"energy {E} must be finite, a normal double and at least the mass {M}")
        if not 0 <= k < math.inf:
            raise RegimeError(f"wavenumber {k} not finite or negative")
        # E^2 = M^2 + k^2 to a few ulp, tested on the scale of E so that no
        # square overflows
        m, q = M / E, k / E
        if not abs(1.0 - m * m - q * q) <= 8 * sys.float_info.epsilon:
            raise RegimeError(f"E={E}, M={M} and k={k} break E^2 = M^2 + k^2")


def channel_index(l: int, channel: int) -> tuple[int, int]:
    """Effective angular momentum and spin sign of a partial-wave channel.

    Channel 1 (spin up) is (l, +1), channel 2 (spin down) is (l + 1, -1);
    the exterior Bessel order is |l_ch - alpha|.
    """
    if channel == 1:
        return l, 1
    if channel == 2:
        return l + 1, -1
    raise RegimeError("channel must be 1 or 2")


def barrier_kappa(kin: Kinematics, U: float) -> float:
    """Evanescent decay constant kappa inside a barrier of height U / hbar c.

    Requires the shielding window E - M < U < E + M, otherwise the barrier
    region is not evanescent and the construction does not apply.
    """
    E, M = kin.energy_E, kin.mass_M
    if not (E - M < U < E + M):
        raise RegimeError(
            f"barrier height U={U} outside the evanescent window "
            f"({E - M}, {E + M})"
        )
    return math.sqrt(M * M - (E - U) ** 2)


def make_kinematics(E: float | None = None, M: float = 1.0,
                    k: float | None = None) -> Kinematics:
    """Build a Kinematics bundle from total energy or wavenumber.

    Exactly one of `E` (E/hbar c, rest mass included) and `k` must be given;
    the other follows from E^2 = M^2 + k^2.  Supplying `k` keeps
    near-threshold wavenumbers exact, which E^2 - M^2 would lose to
    cancellation.  Where the squares fall below the smallest normal double
    the other loses digits, and `Kinematics` refuses a pair that then breaks
    E^2 = M^2 + k^2.
    """
    if (E is None) == (k is None):
        raise RegimeError("specify exactly one of E and k")
    if E is None:
        try:
            E = math.sqrt(M * M + k ** 2)
        except OverflowError:
            raise RegimeError(f"wavenumber k={k} overflows the energy") from None
    else:
        k = math.sqrt(max(E * E - M * M, 0.0))
    return Kinematics(energy_E=E, mass_M=M, k=k)


@dataclass(frozen=True)
class TubeConfig:
    """Finite-radius flux tube: radius r0 and the coupling it carries.

    The interior field is uniform, B = F/(pi r0^2), so q B / hbar =
    2 alpha / r0^2 regardless of the unit scheme; that combination is all the
    radial problem ever needs.
    """

    r0: float
    coupling: Coupling

    def __post_init__(self):
        # the field enters as `qB_over_hbar` = 2 alpha / r0^2: r0^2 must be a
        # normal double, and the field finite
        if not (0 < self.r0 and sys.float_info.min <= self.r0 * self.r0 < math.inf
                and abs(self.qB_over_hbar) < math.inf):
            raise RegimeError(
                f"tube radius r0={self.r0} must be positive, with r0^2 a normal double "
                f"and the field 2 alpha / r0^2 finite")

    @property
    def qB_over_hbar(self) -> float:
        return 2.0 * self.coupling.alpha / (self.r0 * self.r0)

    def interior_ksq(self, channel: int, kin: Kinematics, U: float = 0.0) -> float:
        """Squared interior wavenumber of a spin channel (may be negative).

        With a barrier (U != 0) this is the evanescent-analogue pair
        -kappa^2 +/- qB/hbar; without one it is k^2 +/- qB/hbar.
        """
        _, spin = channel_index(0, channel)
        return field_free_ksq(kin, U) + spin * self.qB_over_hbar


def field_free_ksq(kin: Kinematics, U: float) -> float:
    """Squared wavenumber without the tube field: k^2 at U = 0, else -kappa^2."""
    if U == 0.0:
        return kin.k * kin.k
    return -barrier_kappa(kin, U) ** 2


@dataclass(frozen=True)
class BarrierConfig:
    """Cylindrical shielding barrier: outer radius R0 and height U / hbar c
    (an inverse length, like the energy of `Kinematics`)."""

    R0: float
    U: float

    def __post_init__(self):
        if not 0 < self.R0 < math.inf:
            raise RegimeError("barrier radius R0 must be positive and finite")
        if not math.isfinite(self.U):
            raise RegimeError(f"barrier height U={self.U} must be finite")


@dataclass(frozen=True)
class SpinorAmplitudes:
    """Incident spinor weights of the two upper components."""

    a1: complex = 1.0 + 0.0j
    a2: complex = 0.0 + 0.0j

    def __post_init__(self):
        if not (cmath.isfinite(self.a1) and cmath.isfinite(self.a2)):
            raise RegimeError(f"spinor amplitudes {self.a1} and {self.a2} must be finite")
        if self.a1 == 0 and self.a2 == 0:
            raise RegimeError("spinor amplitudes must not both vanish")
