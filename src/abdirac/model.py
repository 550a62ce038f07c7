"""Physical parameter types and the kinematic relations tying them together.

Unit conventions
----------------
The default scheme is natural units hbar = c = M = 1: lengths are measured in
Compton wavelengths hbar/Mc and energies in rest-mass units Mc^2, which makes
every formula in the library coefficient-free.  All types carry explicit
`hbar` and `c` so that the same code also runs with SI inputs; dimensionless
outputs must agree between the two schemes.

The flux coupling is the signed dimensionless number alpha = qF/(2 pi hbar).
For an electron q = -e < 0, so alpha and the flux F have opposite signs; the
library works with alpha directly so that both flux orientations share one
code path.  The integer part [alpha] always means the floor (nearest integer
to the left), also for negative alpha.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

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
    """Energy / mass / wavenumber bundle for the incident electron.

    `energy_E` includes the rest mass.  A barrier's decay constant follows
    from its own height, `barrier_kappa(kin, U)`.
    """

    energy_E: float
    mass_M: float = 1.0
    hbar: float = 1.0
    c: float = 1.0
    k_exact: float | None = None
    k: float = field(init=False)

    def __post_init__(self):
        E, M, hbar, c = self.energy_E, self.mass_M, self.hbar, self.c
        if not (0 <= M < math.inf and 0 < hbar < math.inf and 0 < c < math.inf):
            raise RegimeError(
                f"mass {M} must be finite and non-negative, hbar {hbar} and c {c} "
                f"finite and positive")
        rest = M * c * c
        if not rest <= E < math.inf:
            raise RegimeError(f"energy {E} not finite or below the rest mass {rest}")
        if self.k_exact is not None:
            # near-threshold energies lose k to cancellation in E^2 - (Mc^2)^2;
            # an explicitly supplied wavenumber survives that
            k = self.k_exact
            if not 0 <= k < math.inf:
                raise RegimeError(f"wavenumber {k} not finite or negative")
        else:
            if not 0 < hbar * c < math.inf:
                raise RegimeError(f"hbar c = {hbar * c} not finite and positive")
            k = math.sqrt(max(E * E - rest * rest, 0.0)) / (hbar * c)
            if not k < math.inf:
                raise RegimeError(f"wavenumber at energy {E} overflows")
        object.__setattr__(self, "k", k)

    @property
    def rest_energy(self) -> float:
        return self.mass_M * self.c * self.c


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
    """Evanescent decay constant kappa inside a barrier of height U.

    Requires the shielding window E - Mc^2 < U < E + Mc^2, otherwise the
    barrier region is not evanescent and the construction does not apply.
    """
    E, rest = kin.energy_E, kin.rest_energy
    if not (E - rest < U < E + rest):
        raise RegimeError(
            f"barrier height U={U} outside the evanescent window "
            f"({E - rest}, {E + rest})"
        )
    return math.sqrt(rest * rest - (E - U) ** 2) / (kin.hbar * kin.c)


def make_kinematics(
    E: float | None = None,
    M: float = 1.0,
    hbar: float = 1.0,
    c: float = 1.0,
    k: float | None = None,
) -> Kinematics:
    """Build a Kinematics bundle from total energy or wavenumber.

    Exactly one of `E` (total energy, rest mass included) and `k` must be
    given; supplying `k` keeps near-threshold wavenumbers exact.
    """
    if (E is None) == (k is None):
        raise RegimeError("specify exactly one of E and k")
    if E is None:
        rest = M * c * c
        try:
            E = math.sqrt(rest * rest + (hbar * c * k) ** 2)
        except OverflowError:
            raise RegimeError(f"wavenumber k={k} overflows the energy") from None
        return Kinematics(energy_E=E, mass_M=M, hbar=hbar, c=c, k_exact=k)
    return Kinematics(energy_E=E, mass_M=M, hbar=hbar, c=c)


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
    """Cylindrical shielding barrier: outer radius R0 and height U."""

    R0: float
    U: float

    def __post_init__(self):
        if not 0 < self.R0 < math.inf:
            raise RegimeError("barrier radius R0 must be positive and finite")


@dataclass(frozen=True)
class SpinorAmplitudes:
    """Incident spinor weights of the two upper components."""

    a1: complex = 1.0 + 0.0j
    a2: complex = 0.0 + 0.0j

    def __post_init__(self):
        if self.a1 == 0 and self.a2 == 0:
            raise RegimeError("spinor amplitudes must not both vanish")
