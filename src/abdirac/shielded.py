"""Shielded magnetic string: barrier region, exterior matching and eigenfunctions.

The flux tube sits inside a cylindrical barrier of radius R0 and height U in
the evanescent window E - Mc^2 < U < E + Mc^2.  In the tube limit r0 -> 0 the
barrier-region radial solutions collapse onto single imaginary-argument Bessel
functions, with the same anomalous-channel order swap as the bare string.
Continuity of the four spinor components across the potential step at R0
carries the barrier's s = nu + r d(ln chi)/dr to the exterior side, where the
one matching formula of `bare_tube` turns it into the outgoing-wave weight A^(R0).

The decisive difference from the bare tube: as k R0 -> 0 at fixed kappa R0,
A^(R0) vanishes like (k R0)^(2 |l - alpha|) in *every* channel, including
l = [alpha].  The surviving eigenfunctions are then plain positive-order
Bessel functions (`shielded_eigenfunction`).
"""

from __future__ import annotations

import cmath
import math
import sys

import numpy as np

from . import specfun as sf
from .bare_tube import (
    MatchingCoefficient,
    RadialComponents,
    _interior_s,
    _ladder_components,
    _matching_terms,
    _principal_order,
    _spinor_jump,
    exterior_order,
)
from .errors import OutOfRangeError, RegimeError
from .model import BarrierConfig, Coupling, Kinematics, TubeConfig, barrier_kappa, make_kinematics

__all__ = [
    "barrier_radial_limit",
    "barrier_log_derivative",
    "f_factor",
    "shielded_matching",
    "shielded_eigenfunction",
    "finite_tube_barrier_ratio",
    "shielded_sweep_point",
]


def barrier_radial_limit(l: int, channel: int, barrier: BarrierConfig, kin: Kinematics,
                         coupling: Coupling, r: float) -> complex:
    """Barrier-region radial solution in the r0 -> 0 limit: J_order(i kappa r),
    kappa from the barrier's height.

    The order follows the same anomalous-channel selection as the bare string.
    """
    if r <= 0:
        raise RegimeError("barrier solution needs r > 0")
    order = _principal_order(l, channel, coupling)
    return complex(sf.bessel_j(order, 1j * barrier_kappa(kin, barrier.U) * r))


def barrier_log_derivative(l: int, channel: int, barrier: BarrierConfig,
                           kin: Kinematics, coupling: Coupling) -> float:
    """Lambda^(R0): d(ln chi)/d(kappa r) of the barrier solution at r = R0,
    kappa from the barrier's height.

    chi = J_order(i kappa r) is e^{i pi order/2} I_order(kappa r), so Lambda is
    I'/I = I_{order+1}/I_order + order/x at x = kappa R0 (DLMF 10.29.2).
    The scaling e^{-x} cancels in the ratio, which stays finite where I_order
    itself overflows (kappa R0 beyond ~700); OutOfRangeError where the scaled
    I_order or I_order+1 falls below the smallest normal double (high order
    at small kappa R0), where the ratio has lost its digits.  Real-valued;
    tends to 1 from below once kappa R0 >> 1.
    """
    x = barrier_kappa(kin, barrier.U) * barrier.R0
    order, i0, i1 = _barrier_pair(l, channel, coupling, x)
    return i1 / i0 + order / x


def _barrier_pair(l: int, channel: int, coupling: Coupling, x: float) -> tuple[float, ...]:
    """(o, I_o, I_{o+1}) at x = kappa R0, o the barrier order: one `bessel_ie` call.

    OutOfRangeError where either scaled I is below the smallest normal double.
    The pair stays one order array, tested by one reduction.  Two scalar
    calls with their results tested in Python would cut a `matching_sweep`
    pass further, but while the benchmark keeps every pass's outputs that
    cut reads as a `peak_rss_mb` rise beyond its bound.
    """
    order = _principal_order(l, channel, coupling)
    i0, i1 = sf.bessel_ie(np.array([order, order + 1.0]), x).tolist()
    if min(i0, i1) < sys.float_info.min:
        raise OutOfRangeError(f"I'_nu/I_nu: scaled I_nu or I_nu+1 underflows at nu={order}, x={x}")
    return order, i0, i1


def _edge_s(l: int, channel: int, barrier: BarrierConfig, kin: Kinematics,
            coupling: Coupling) -> tuple[float, float, float]:
    """(nu, kappa R0, s), s = nu + R0 d(ln chi)/dr on the exterior side of R0,
    kappa from the barrier's height.  The barrier side has s = x I_{o+1}/I_o +
    (o + nu) at x = kappa R0 (DLMF 10.29.2); in the anomalous channel o = -nu
    and the ladder coefficient g = nu, so no nu term is left to cancel."""
    x = barrier_kappa(kin, barrier.U) * barrier.R0
    order, i0, i1 = _barrier_pair(l, channel, coupling, x)
    nu = exterior_order(l, channel, coupling.alpha)
    s_in = x * (i1 / i0) + (order + nu)
    return nu, x, _spinor_jump(l, channel, coupling.alpha, kin, barrier.U, s_in)


def f_factor(l: int, channel: int, barrier: BarrierConfig, kin: Kinematics,
             coupling: Coupling) -> float:
    """f = (s - nu)/(kappa R0) of the exterior-side s that `shielded_matching`
    uses, so (kappa/k) * f is the exterior-side d(ln chi)/d(kr) at R0."""
    nu, x, s = _edge_s(l, channel, barrier, kin, coupling)
    return (s - nu) / x


def shielded_matching(l: int, channel: int, barrier: BarrierConfig,
                      kin: Kinematics, coupling: Coupling) -> MatchingCoefficient:
    """Outgoing-Hankel weight A^(R0) of the shielded-string exterior solution."""
    nu, _, s = _edge_s(l, channel, barrier, kin, coupling)
    num, den = _matching_terms(nu, kin.k * barrier.R0, s)
    return MatchingCoefficient(l=l, channel=channel, value=complex(-num / den))


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
    if not (cmath.isfinite(a1) and cmath.isfinite(a2)):
        raise RegimeError(f"amplitudes a1={a1} and a2={a2} must be finite")
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
    if not (kR0 > 0 and kappaR0 > 0):
        raise RegimeError("kR0 and kappaR0 must be positive")
    if not sys.float_info.min <= M < math.inf:
        raise RegimeError(f"mass M={M} must be positive, finite and normal")
    if not 0 < U < 2.0 * M:
        raise RegimeError(f"barrier height U={U} outside (0, 2M) = (0, {2.0 * M})")
    kappa0 = math.sqrt(U * (2.0 * M - U))
    R0 = kappaR0 / kappa0
    if not 0 < R0 < math.inf:
        raise RegimeError(f"barrier radius R0={R0} from kappaR0={kappaR0}, kappa0={kappa0}")
    kin = make_kinematics(k=kR0 / R0, M=M)
    return BarrierConfig(R0=R0, U=U), kin
