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
Bessel functions (`shielded_eigenfunction`).
"""

from __future__ import annotations

import math

import numpy as np

from . import specfun as sf
from .bare_tube import (
    MatchingCoefficient,
    RadialComponents,
    _interior_s,
    _ladder_coefficient,
    _ladder_components,
    _matching_terms,
    _principal_order,
    _spinor_jump,
    exterior_order,
    matching_from_log_derivative,
)
from .errors import OutOfRangeError, RegimeError
from .model import BarrierConfig, Coupling, Kinematics, TubeConfig, barrier_kappa, make_kinematics

__all__ = [
    "barrier_radial_limit",
    "barrier_log_derivative",
    "f_factor",
    "shielded_matching",
    "shielded_matching_denominator",
    "denominator_leading_form",
    "shielded_eigenfunction",
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
    I'/I = I_{order+1}/I_order + order/x at x = kappa R0 (DLMF 10.29.2), with
    both I from one `bessel_ie` call at the order pair (order, order + 1).
    The scaling e^{-x} cancels in the ratio, which stays finite where I_order
    itself overflows (kappa R0 beyond ~700); OutOfRangeError where the scaled
    I_order underflows to 0 (high order at small kappa R0).  Real-valued;
    tends to 1 from below once kappa R0 >> 1.
    """
    if kin.kappa is None:
        raise RegimeError("kinematics carries no barrier height; kappa undefined")
    order = _principal_order(l, channel, coupling)
    x = kin.kappa * R0
    i0, i1 = sf.bessel_ie(np.array([order, order + 1.0]), x).tolist()
    if i0 == 0.0:
        raise OutOfRangeError(f"I'_nu/I_nu: scaled I_nu underflows at nu={order}, x={x}")
    return i1 / i0 + order / x


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
    dlog = barrier_kappa(kin, barrier.U) * f_factor(l, channel, barrier, kin, coupling)
    value = matching_from_log_derivative(l, channel, coupling, kin, barrier.R0, dlog)
    return MatchingCoefficient(l=l, channel=channel, value=value)


def shielded_matching_denominator(l: int, channel: int, barrier: BarrierConfig,
                                  kin: Kinematics, coupling: Coupling) -> complex:
    """Exact denominator H'_nu - (kappa/k) f H_nu at x = k R0 (diagnostic surface).

    The matching formula's D = x H_{nu-1} - s H_nu over x, with
    s = nu + kappa R0 f.
    """
    nu = exterior_order(l, channel, coupling.alpha)
    f = f_factor(l, channel, barrier, kin, coupling)
    s = nu + barrier_kappa(kin, barrier.U) * barrier.R0 * f
    x = kin.k * barrier.R0
    return complex(_matching_terms(nu, x, s)[1] / x)


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


def finite_tube_barrier_ratio(l: int, channel: int, tube: TubeConfig,
                              kin: Kinematics, barrier: BarrierConfig,
                              r_a: float, r_b: float) -> float:
    """chi(r_a)/chi(r_b) of the finite-tube barrier-region solution.

    Matches the regular tube interior (with the barrier potential applied
    inside the tube as well) onto chi = Q I_nu(kappa r) - P K_nu(kappa r),
    P = x0 I_{nu-1}(x0) - s I_nu(x0) and Q = -x0 K_{nu-1}(x0) - s K_nu(x0) at
    x0 = kappa r0 with the interior s (x I' = x I_{nu-1} - nu I and
    x K' = -x K_{nu-1} - nu K, DLMF 10.29.2).  On the scaled e^{-x} I_nu and
    e^{x} K_nu (DLMF 10.25) the growth e^{kappa r} factors out as
    e^{kappa (r_a - r_b)}, so the ratio stays finite where I_nu overflows
    (kappa R0 beyond ~700).  The r0 -> 0 limit of this ratio is the
    order-swap test for the barrier region.
    """
    if not (tube.r0 < r_a < barrier.R0 and tube.r0 < r_b < barrier.R0):
        raise RegimeError("probe radii must lie inside the barrier annulus")
    kappa = barrier_kappa(kin, barrier.U)
    nu = exterior_order(l, channel, tube.coupling.alpha)
    s = _interior_s(l, channel, tube, kin, U=barrier.U)
    x0, x_a, x_b = kappa * tube.r0, kappa * r_a, kappa * r_b
    x = np.array([x0, x0, x_a, x_b])
    orders = np.array([nu - 1.0, nu, nu, nu])
    i_below, i0, i_a, i_b = sf.bessel_ie(orders, x).tolist()
    k_below, k0, k_a, k_b = sf.bessel_ke(orders, x).tolist()
    p, q = x0 * i_below - s * i0, -x0 * k_below - s * k0

    def chi_scaled(x_r: float, i_r: float, k_r: float) -> float:
        # chi(r) e^{x0 - kappa r}
        return q * i_r - p * math.exp(-2.0 * (x_r - x0)) * k_r

    return math.exp(x_a - x_b) * chi_scaled(x_a, i_a, k_a) / chi_scaled(x_b, i_b, k_b)


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
