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
    "si_worked_numbers",
]

# CODATA values used only by the SI worked-numbers report.
_PLANCK_H = 6.62607015e-34  # J s
_HBAR = 1.054571817e-34  # J s
_E_CHARGE = 1.602176634e-19  # C
_M_ELECTRON = 9.1093837015e-31  # kg
_C_LIGHT = 2.99792458e8  # m/s


@dataclass(frozen=True)
class Coupling:
    """Flux coupling alpha with its floor decomposition alpha = [alpha] + frac."""

    alpha: float

    @property
    def int_part(self) -> int:
        return math.floor(self.alpha)

    @property
    def frac(self) -> float:
        return self.alpha - math.floor(self.alpha)

    @property
    def is_integer(self) -> bool:
        return self.frac == 0.0

    def __post_init__(self):
        if not math.isfinite(self.alpha):
            raise RegimeError("coupling alpha must be finite")


@dataclass(frozen=True)
class Kinematics:
    """Energy / mass / wavenumber bundle for the incident electron.

    `energy_E` includes the rest mass.  `kappa` is the evanescent decay
    constant inside a shielding barrier of height `barrier_U` and is None when
    no barrier was supplied.
    """

    energy_E: float
    mass_M: float = 1.0
    hbar: float = 1.0
    c: float = 1.0
    barrier_U: float | None = None
    k_exact: float | None = None
    k: float = field(init=False)
    kappa: float | None = field(init=False)
    relativistic_ratio: float = field(init=False)

    def __post_init__(self):
        E, M, hbar, c = self.energy_E, self.mass_M, self.hbar, self.c
        rest = M * c * c
        if E < rest:
            raise RegimeError(f"energy {E} below the rest mass {rest}")
        if self.k_exact is not None:
            # near-threshold energies lose k to cancellation in E^2 - (Mc^2)^2;
            # an explicitly supplied wavenumber survives that
            k = self.k_exact
        else:
            k = math.sqrt(max(E * E - rest * rest, 0.0)) / (hbar * c)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "relativistic_ratio", hbar * k / (M * c))
        if self.barrier_U is None:
            object.__setattr__(self, "kappa", None)
        else:
            object.__setattr__(self, "kappa", barrier_kappa(self, self.barrier_U))

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
    U: float | None = None,
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
        E = math.sqrt(rest * rest + (hbar * c * k) ** 2)
        return Kinematics(energy_E=E, mass_M=M, hbar=hbar, c=c, barrier_U=U, k_exact=k)
    return Kinematics(energy_E=E, mass_M=M, hbar=hbar, c=c, barrier_U=U)


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
        if self.r0 <= 0:
            raise RegimeError("tube radius r0 must be positive")

    @property
    def qB_over_hbar(self) -> float:
        return 2.0 * self.coupling.alpha / (self.r0 * self.r0)

    def flux_F(self, q: float = -1.0, hbar: float = 1.0) -> float:
        """Magnetic flux for a given charge (electron convention q=-1)."""
        return 2.0 * math.pi * hbar * self.coupling.alpha / q

    def B_field(self, q: float = -1.0, hbar: float = 1.0) -> float:
        return self.flux_F(q, hbar) / (math.pi * self.r0 * self.r0)

    def interior_ksq(self, channel: int, kin: Kinematics, U: float = 0.0) -> float:
        """Squared interior wavenumber of a spin channel (may be negative).

        With a barrier (U != 0) this is the evanescent-analogue pair
        -kappa^2 +/- qB/hbar; without one it is k^2 +/- qB/hbar.
        """
        _, spin = channel_index(0, channel)
        if U == 0.0:
            base = kin.k * kin.k
        else:
            base = -barrier_kappa(kin, U) ** 2
        return base + spin * self.qB_over_hbar


@dataclass(frozen=True)
class BarrierConfig:
    """Cylindrical shielding barrier: outer radius R0 and height U."""

    R0: float
    U: float

    def __post_init__(self):
        if self.R0 <= 0:
            raise RegimeError("barrier radius R0 must be positive")

    def validate_against(self, kin: Kinematics, r0: float = 0.0) -> None:
        if self.R0 <= r0:
            raise RegimeError("barrier radius R0 must exceed the tube radius r0")
        barrier_kappa(kin, self.U)  # raises outside the evanescent window


@dataclass(frozen=True)
class SpinorAmplitudes:
    """Incident spinor weights of the two upper components."""

    a1: complex = 1.0 + 0.0j
    a2: complex = 0.0 + 0.0j

    def __post_init__(self):
        if self.a1 == 0 and self.a2 == 0:
            raise RegimeError("spinor amplitudes must not both vanish")


def si_worked_numbers() -> dict[str, float]:
    """SI gedanken scenario: h/2e flux tube, 1 keV electron, R0 = 1e-12 m.

    Everything is derived from CODATA constants; the returned dictionary holds
    the quantities a desk calculation of the shielded-string limits needs.
    """
    flux_quantum_h_2e = _PLANCK_H / (2.0 * _E_CHARGE)  # T m^2
    B = 2.0  # T
    r_h2e = math.sqrt(flux_quantum_h_2e / (math.pi * B))  # tube radius at 2 T
    kinetic = 1e3 * _E_CHARGE  # 1 keV in J
    k1_tilde = math.sqrt(2.0 * _M_ELECTRON * kinetic) / _HBAR  # 1/m
    compton = _HBAR / (_M_ELECTRON * _C_LIGHT)  # m
    R0 = 1e-12  # m
    return {
        "flux_quantum_h_2e": flux_quantum_h_2e,
        "B_field": B,
        "r_h2e": r_h2e,
        "k1_tilde": k1_tilde,
        "k1_r_h2e": k1_tilde * r_h2e,
        "compton_length": compton,
        "R0": R0,
        "kR0": k1_tilde * R0,
        "McR0_over_hbar": R0 / compton,
        "exp_minus_2McR0_over_hbar": math.exp(-2.0 * R0 / compton),
    }
