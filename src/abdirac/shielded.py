"""Shielded magnetic string: barrier region, exterior matching and eigenfunctions.

The flux tube sits inside a cylindrical barrier of radius R0 and height U in
the evanescent window E - Mc^2 < U < E + Mc^2.  In the tube limit r0 -> 0 the
barrier-region radial solutions collapse onto single imaginary-argument Bessel
functions, with the same anomalous-channel order swap as the bare string.
Continuity of the four spinor components across the potential step at R0
produces an effective exterior logarithmic derivative (kappa/k) * f, and with
it the outgoing-wave weight A^(R0).

The decisive difference from the bare tube: as k R0 -> 0 at fixed kappa R0,
A^(R0) vanishes like (k R0)^(2 |l - alpha|) in *every* channel, including
l = [alpha].  The surviving eigenfunctions are then plain positive-order
Bessel functions -- the shielded-string tables below.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from . import specfun as sf
from .bare_tube import (
    MatchingCoefficient,
    RadialComponents,
    _interior_dlog,
    _ladder_coefficient,
    _ladder_components,
    _principal_order,
    _spinor_jump,
    exterior_order,
    matching_from_log_derivative,
)
from .errors import RegimeError
from .model import BarrierConfig, Coupling, Kinematics, TubeConfig, barrier_kappa, make_kinematics

__all__ = [
    "barrier_radial_limit",
    "barrier_log_derivative",
    "f_factor",
    "shielded_matching",
    "shielded_matching_denominator",
    "denominator_leading_form",
    "shielded_eigenfunction",
    "BareShieldedL0",
    "bare_vs_shielded_l0",
    "finite_tube_barrier_ratio",
    "shielded_sweep_point",
]


def barrier_radial_limit(l: int, channel: int, coupling: Coupling,
                         kin: Kinematics, r: float) -> complex:
    """Barrier-region radial solution in the r0 -> 0 limit: J_order(i kappa r).

    The order follows the same anomalous-channel selection as the bare string;
    `kin` must carry a barrier height (kappa set).
    """
    if kin.kappa is None:
        raise RegimeError("kinematics carries no barrier height; kappa undefined")
    if r <= 0:
        raise RegimeError("barrier solution needs r > 0")
    order = _principal_order(l, channel, coupling)
    return complex(sf.bessel_j(order, 1j * kin.kappa * r))


def barrier_log_derivative(l: int, channel: int, coupling: Coupling,
                           kin: Kinematics, R0: float) -> float:
    """Lambda^(R0): d(ln chi)/d(kappa r) of the barrier solution at r = R0.

    chi = J_order(i kappa r) is e^{i pi order/2} I_order(kappa r), so Lambda is
    I'/I at kappa R0, taken from scaled functions that stay finite where
    I_order itself overflows (kappa R0 beyond ~700).  Real-valued; tends to 1
    from below once kappa R0 >> 1.
    """
    if kin.kappa is None:
        raise RegimeError("kinematics carries no barrier height; kappa undefined")
    order = _principal_order(l, channel, coupling)
    return float(sf.bessel_i_log_derivative(order, kin.kappa * R0))


def f_factor(l: int, channel: int, barrier: BarrierConfig, kin: Kinematics,
             coupling: Coupling) -> float:
    """Effective matching quantity f at the barrier edge.

    Combines the barrier-side logarithmic derivative with the potential-step
    term from spinor continuity; (kappa/k) * f is the exterior-side
    d(ln chi)/d(kr) used in the outgoing-wave weight.
    """
    kappa = barrier_kappa(kin, barrier.U)
    lam = barrier_log_derivative(l, channel, coupling, kin, barrier.R0)
    return _spinor_jump(l, channel, coupling.alpha, kin, barrier.R0, barrier.U,
                        kappa * lam) / kappa


def shielded_matching(l: int, channel: int, barrier: BarrierConfig,
                      kin: Kinematics, coupling: Coupling) -> MatchingCoefficient:
    """Outgoing-Hankel weight A^(R0) of the shielded-string exterior solution."""
    kappa = barrier_kappa(kin, barrier.U)
    f = f_factor(l, channel, barrier, kin, coupling)
    dlog = kappa * f  # d(ln chi)/dr on the exterior side of R0
    value = matching_from_log_derivative(
        l, channel, coupling, kin, barrier.R0, dlog, resonance="raise"
    )
    return MatchingCoefficient(l=l, channel=channel, value=value)


def shielded_matching_denominator(l: int, channel: int, barrier: BarrierConfig,
                                  kin: Kinematics, coupling: Coupling) -> complex:
    """Exact denominator H'_nu - (kappa/k) f H_nu at k R0 (diagnostic surface)."""
    nu = exterior_order(l, channel, coupling.alpha)
    kappa = barrier_kappa(kin, barrier.U)
    f = f_factor(l, channel, barrier, kin, coupling)
    x = kin.k * barrier.R0
    return complex(
        sf.hankel1_prime(nu, x) - (kappa / kin.k) * f * sf.hankel1(nu, x)
    )


def denominator_leading_form(l: int, channel: int, barrier: BarrierConfig,
                             kin: Kinematics, coupling: Coupling) -> complex:
    """Small-kR0 leading form of the matching denominator (over H_nu).

    With Lambda -> 1 the denominator is H_nu(kR0) times an elementary bracket;
    this returns bracket * H_nu(kR0) for direct comparison with the exact one.
    """
    nu = exterior_order(l, channel, coupling.alpha)
    ew = kin.energy_E + kin.rest_energy
    U = barrier.U
    kappa = barrier_kappa(kin, U)
    x = kin.k * barrier.R0
    u_num = nu - _ladder_coefficient(l, channel, coupling.alpha)
    bracket = (ew * (-nu / x - kappa / kin.k) + U * u_num / x) / (ew - U)
    return complex(bracket * sf.hankel1(nu, x))


def shielded_eigenfunction(l: int, coupling: Coupling, kin: Kinematics,
                           r: float, a1: complex = 1.0,
                           a2: complex = 1.0) -> RadialComponents:
    """Four radial components of a shielded-string partial wave.

    All orders are the positive |l - alpha|, |l + 1 - alpha|; no anomalous
    swap survives the shielding.  The lower pair carries the shifted ladder
    index, so it can still diverge at the origin for l = [alpha].
    """
    if r <= 0:
        raise RegimeError("shielded eigenfunction needs r > 0")
    alpha = coupling.alpha
    nu1 = exterior_order(l, 1, alpha)
    nu2 = exterior_order(l, 2, alpha)
    return _ladder_components(l, alpha, kin, r, nu1, nu2, a1, a2)


@dataclass(frozen=True)
class BareShieldedL0:
    """The eight l = 0 radial components for 0 < alpha < 1, bare vs shielded."""

    bare: RadialComponents
    shielded: RadialComponents


def bare_vs_shielded_l0(coupling: Coupling, kin: Kinematics, r: float,
                        b1: complex = 1.0, b2: complex = 1.0,
                        a1: complex = 1.0, a2: complex = 1.0) -> BareShieldedL0:
    """Closed l = 0 component tables; differences live in the chi1/chi4 tower.

    Requires 0 < alpha < 1 (the general-l machinery covers everything else).
    """
    alpha = coupling.alpha
    if not (0.0 < alpha < 1.0):
        raise RegimeError("l = 0 convenience tables require 0 < alpha < 1")
    if r <= 0:
        raise RegimeError("component tables need r > 0")
    x = kin.k * r
    w = kin.hbar * kin.c * kin.k / (kin.energy_E + kin.rest_energy)
    j_neg = sf.bessel_j(-alpha, x)
    j_one = sf.bessel_j(1.0 - alpha, x)
    j_pos = sf.bessel_j(alpha, x)
    j_down = sf.bessel_j(alpha - 1.0, x)
    bare = RadialComponents(
        complex(b1 * j_neg),
        complex(b2 * j_one),
        complex(-1j * w * b2 * j_neg),
        complex(1j * w * b1 * j_one),
    )
    shl = RadialComponents(
        complex(a1 * j_pos),
        complex(a2 * j_one),
        complex(-1j * w * a2 * j_neg),
        complex(-1j * w * a1 * j_down),
    )
    return BareShieldedL0(bare=bare, shielded=shl)


def finite_tube_barrier_ratio(l: int, channel: int, tube: TubeConfig,
                              kin: Kinematics, barrier: BarrierConfig,
                              r_a: float, r_b: float) -> complex:
    """chi(r_a)/chi(r_b) of the finite-tube barrier-region solution.

    Matches the regular tube interior (with the barrier potential applied
    inside the tube as well) onto the two imaginary-argument Hankel solutions
    at r0 and returns a normalization-free value ratio; the r0 -> 0 limit of
    this ratio is the order-swap test for the barrier region.
    """
    if not (tube.r0 < r_a < barrier.R0 and tube.r0 < r_b < barrier.R0):
        raise RegimeError("probe radii must lie inside the barrier annulus")
    kappa = barrier_kappa(kin, barrier.U)
    nu = exterior_order(l, channel, tube.coupling.alpha)
    d = _interior_dlog(l, channel, tube, kin, U=barrier.U)
    x0 = 1j * kappa * tube.r0

    h1, h2 = sf.hankel1(nu, x0), sf.hankel2(nu, x0)
    dh1, dh2 = sf.hankel1_prime(nu, x0), sf.hankel2_prime(nu, x0)
    # chi = C H1(i kappa r) + D H2(i kappa r); continuity of chi, chi' at r0
    ratio_cd_num = -(1j * kappa * dh2 - d * h2)
    ratio_cd_den = 1j * kappa * dh1 - d * h1
    if ratio_cd_den == 0:
        raise RegimeError("degenerate barrier matching")
    c_over_d = ratio_cd_num / ratio_cd_den

    def chi(r: float) -> complex:
        xr = 1j * kappa * r
        return complex(c_over_d * sf.hankel1(nu, xr) + sf.hankel2(nu, xr))

    return chi(r_a) / chi(r_b)


def shielded_sweep_point(kR0: float, kappaR0: float = 50.0, U: float = 1.0,
                         M: float = 1.0) -> tuple[BarrierConfig, Kinematics]:
    """Barrier/kinematics pair realizing a target (kR0, kappaR0) in natural units.

    The barrier radius is fixed from the threshold decay constant
    kappa0 = sqrt(U (2M - U)); sweeping kR0 then only moves the energy.
    """
    if kR0 <= 0 or kappaR0 <= 0:
        raise RegimeError("kR0 and kappaR0 must be positive")
    kappa0 = math.sqrt(U * (2.0 * M - U))
    R0 = kappaR0 / kappa0
    kin = make_kinematics(k=kR0 / R0, M=M, U=U)
    return BarrierConfig(R0=R0, U=U), kin
