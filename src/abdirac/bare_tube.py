"""Finite-radius flux tube and the bare-string limit.

A tube of radius r0 carries flux with coupling alpha.  Inside, the two spin
channels solve a 2-d oscillator-type radial problem whose regular solution is
a power * Gaussian * Kummer-F product; outside, the radial solution is
J_nu + A H^(1)_nu with nu = |l - alpha| (channel 1) or |l + 1 - alpha|
(channel 2).  Continuity of the four spinor components at r0 reduces, channel
by channel, to continuity of the radial logarithmic derivative.  Written with
s = nu + r d(ln chi)/dr from the inside and x C' = x C_{nu-1} - nu C
(DLMF 10.6.2) outside, it fixes the outgoing-wave weight as

    A = -(x J_{nu-1}(x) - s J_nu(x)) / (x H_{nu-1}(x) - s H_nu(x)),  x = k r0,

the one matching formula of the bare tube, the shielded string and the ODE
oracle.  Each of them supplies s itself, so no digits cancel between nu and a
nearly opposite log-derivative as x -> 0.

As k r0 -> 0 every weight dies off as a power of k r0 except in one channel,
l = [alpha] (channel 1 for alpha > 0, channel 2 for alpha < 0), where s -> 0,
A tends to the finite value +/- i sin(pi alpha) e^{+/- i pi alpha} and the
radial solution swaps to the negative-order Bessel function.  The independent
check is `ode_radial_oracle`, which integrates the first-order system of the
two continuous radial components straight through the tube wall and the
barrier edge, so it shares no matching step, not even the spinor jump.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import specfun as sf
from .errors import OutOfRangeError, RegimeError
from .model import (
    BarrierConfig,
    Coupling,
    Kinematics,
    TubeConfig,
    channel_index,
    field_free_ksq,
)

__all__ = [
    "MatchingCoefficient",
    "RadialComponents",
    "RadialOdeSolution",
    "anomalous_channel",
    "anomalous_limit",
    "interior_chi",
    "log_derivative_interior",
    "matching_coefficient",
    "matching_from_log_derivative",
    "bare_string_radial",
    "exterior_order",
    "ode_radial_oracle",
]


@dataclass(frozen=True)
class MatchingCoefficient:
    """Outgoing-Hankel weight of one (l, channel) exterior solution."""

    l: int
    channel: int
    value: complex


@dataclass(frozen=True)
class RadialComponents:
    """The four radial spinor components evaluated at one radius."""

    chi1: complex
    chi2: complex
    chi3: complex
    chi4: complex

    def as_tuple(self) -> tuple[complex, complex, complex, complex]:
        return (self.chi1, self.chi2, self.chi3, self.chi4)


def exterior_order(l: int, channel: int, alpha: float) -> float:
    """Exterior Bessel order of a partial-wave channel.

    RegimeError for an order that is not finite (alpha NaN or +-inf).  A
    subnormal order (|alpha| below ~2.2e-308 at l_ch = 0) is returned as 0,
    which it equals in double precision; scipy's Hankel function is nan there.
    """
    l_ch, _ = channel_index(l, channel)
    nu = abs(l_ch - alpha)
    if not nu < math.inf:
        raise RegimeError(f"exterior order at alpha = {alpha} is not finite")
    return nu if nu >= sys.float_info.min else 0.0


def _ladder_coefficient(l: int, channel: int, alpha: float) -> float:
    """g of the first-order ladder relation: lower component ~ chi' + (g/r) chi."""
    l_ch, spin = channel_index(l, channel)
    return -spin * (l_ch - alpha)


def _kummer_args(l: int, channel: int, tube: TubeConfig, kin: Kinematics,
                 U: float) -> tuple[int, float, float] | None:
    """(l', b, c) of the interior solution e^{-|alpha| rho^2/2} F(b|c||alpha| rho^2).

    One form for both signs of alpha: for alpha < 0 Kummer's transformation
    F(a|c|z) = e^z F(c - a|c|-z) (DLMF 13.2.39) carries the solution over, so
    l' = sgn(alpha) l_ch and sigma' = sgn(alpha) spin stand in for l_ch and the
    spin.  b = (m + 1 - l' - sigma')/2 - base r0^2 / (4 |alpha|) with the
    field-free base k^2 (or -kappa^2 in a barrier), so the half-integer part
    stays exact and the field term of the interior wavenumber never enters b
    in rounded form.  None at zero coupling, and where |alpha| is so small
    (subnormal) that b overflows: the free interior is then exact.
    """
    alpha = tube.coupling.alpha
    if alpha == 0.0:
        return None
    l_ch, spin = channel_index(l, channel)
    sign = 1 if alpha > 0 else -1
    m = abs(l_ch)
    field_free = field_free_ksq(kin, U) * tube.r0 ** 2 / (4.0 * abs(alpha))
    b = 0.5 * (m + 1 - sign * (l_ch + spin)) - field_free
    return None if math.isinf(b) else (sign * l_ch, b, float(m + 1))


def interior_chi(l: int, channel: int, tube: TubeConfig, kin: Kinematics,
                 r: float, U: float = 0.0) -> complex:
    """Regular interior radial solution at r <= r0, unnormalized.

    (k_ch r)^m e^{-|alpha| rho^2/2} F(b|c||alpha| rho^2) with rho = r/r0 and
    m = |l_ch|; with U = 0 this is the bare-tube interior, otherwise the
    barrier-interior analogue.  Zero (or subnormal) coupling degenerates to
    the free Bessel solution; OutOfRangeError where its J_m is below the
    smallest normal double, which a real or imaginary J_m reaches only by
    underflow (high m at small k_ch r), and where chi itself overflows
    (high m at large k_ch r, 170! 2^170 J_170(100) in the free form).
    """
    if r < 0 or r > tube.r0:
        raise RegimeError(f"r={r} outside the tube interior [0, {tube.r0}]")
    alpha = tube.coupling.alpha
    m = abs(channel_index(l, channel)[0])
    if r == 0.0:
        return 1.0 + 0.0j if m == 0 else 0.0j
    k_ch = cmath.sqrt(complex(tube.interior_ksq(channel, kin, U)))
    args = _kummer_args(l, channel, tube, kin, U)
    if args is None:
        # free interior; normalized to the same (k_ch r)^m leading power, with
        # Gamma(m + 1) = m!, which overflows a double from m = 171 on
        if m > 170:
            raise OutOfRangeError(f"free interior: {m}! overflows double precision")
        val = sf.bessel_j(float(m), k_ch * r)
        if not abs(val) >= sys.float_info.min:
            raise OutOfRangeError(f"free interior: J_{m}({k_ch * r}) underflows")
        chi = complex(val * math.factorial(m) * 2.0 ** m)
    else:
        _, b, c = args
        z = abs(alpha) * (r / tube.r0) ** 2
        try:
            chi = complex((k_ch * r) ** m * math.exp(-0.5 * z) * sf.kummer_f(b, c, z))
        except OverflowError:
            chi = complex(math.inf)
    if not cmath.isfinite(chi):
        raise OutOfRangeError(f"interior chi overflows at m={m}, k_ch r={k_ch * r}")
    return chi


def _interior_s(l: int, channel: int, tube: TubeConfig, kin: Kinematics,
                U: float = 0.0) -> float:
    """s = nu + r0 d(ln chi)/dr of the interior solution at r0, nu the exterior order.

    Real, and +/-inf at a node of chi (F = 0, F' a normal double); any other
    F below the smallest normal double raises OutOfRangeError (at large k r0
    both underflow to 0), as does a free-interior J_m below it (high m at
    small k r0: J_m has no zero at a real or imaginary double argument).
    With F'(b|c|z) = (b/c) F(b+1|c+1|z) (DLMF 13.3.15),
    F and F' come from two scalar `kummer_f` calls, at (b, c) and
    (b + 1, c + 1), and s = K + 2 |alpha| F'/F at z = |alpha|, where
    K = nu + m - |alpha| is 2 max(l' - |alpha|, 0) for l' >= 0 and 2m for
    l' < 0.  Float arguments with c >= 1 pass `kummer_f`'s input test on
    Python floats, which costs less than building the parameter pairs as
    arrays; the values equal the pair call's bit for bit.  In the anomalous
    channel s -> 0 through b, never as a difference of nearly equal terms.
    """
    alpha = tube.coupling.alpha
    m = abs(channel_index(l, channel)[0])
    args = _kummer_args(l, channel, tube, kin, U)
    if args is None:
        # free interior J_m(k_ch r): s = x J_{m-1}(x) / J_m(x) by DLMF 10.6.2
        x = cmath.sqrt(complex(tube.interior_ksq(channel, kin, U))) * tube.r0
        j_below, j = sf.bessel_j(np.array([m - 1.0, float(m)]), x).tolist()
        if not abs(j) >= sys.float_info.min:
            raise OutOfRangeError(f"free interior: J_{m}({x}) underflows")
        return float((x * j_below / j).real)
    l_rel, b, c = args
    z = abs(alpha)
    f0 = sf.kummer_f(b, c, z).real
    f1 = b / c * sf.kummer_f(b + 1.0, c + 1.0, z).real
    if not abs(f0) >= sys.float_info.min:
        if f0 == 0.0 and abs(f1) >= sys.float_info.min:
            return math.inf if f1 > 0 else -math.inf
        raise OutOfRangeError(f"interior F({b:.6g}|{c:g}|{z:g}) and F' underflow")
    k_term = 2.0 * max(l_rel - abs(alpha), 0.0) if l_rel >= 0 else 2.0 * m
    return k_term + 2.0 * abs(alpha) * (f1 / f0)


def log_derivative_interior(l: int, channel: int, tube: TubeConfig,
                            kin: Kinematics, U: float = 0.0) -> complex:
    """Interior logarithmic derivative Lambda = (d chi / (k_ch dr)) / chi at r0.

    Complex in general: the channel whose spin opposes the flux has an
    imaginary interior wavenumber, so Lambda picks up a factor 1/i even though
    d(ln chi)/dr itself stays real.  A zero of chi at r0 (an interior node)
    is reported as an infinite value rather than raising.
    """
    k_ch = cmath.sqrt(complex(tube.interior_ksq(channel, kin, U)))
    if k_ch == 0:
        raise RegimeError("interior wavenumber is 0: Lambda = chi'/(k_ch chi) is undefined")
    nu = exterior_order(l, channel, tube.coupling.alpha)
    d = (_interior_s(l, channel, tube, kin, U) - nu) / tube.r0
    if math.isinf(d):
        return complex(d, 0.0)
    return complex(d / k_ch)


def _matching_terms(nu: float, x: float, s: float) -> tuple[complex, complex]:
    """(N, D) of the outgoing-wave weight A = -N/D at x = k r_match:
    N = x J_{nu-1}(x) - s J_nu(x) and D = x H_{nu-1}(x) - s H_nu(x).

    J and H come from two scalar `bessel_j_hankel1` calls, at nu - 1 and at
    nu; float orders and arguments take its Python-float route, and the
    values equal four scalar calls bit for bit.  The errors keep the
    precedence of one call at the order pair (nu - 1, nu): nu >= 0, so J can
    be non-finite only at nu - 1, the first call, and H's overflow reads the
    same at either order.  A real s never makes D vanish (the Wronskian of J
    and Y is 2/(pi x)); s = +/-inf, a node of chi at r_match, leaves N, D =
    J_nu, H_nu from one call at nu alone.
    Where a finite s is so large that s J or s H overflows, both terms come
    divided by s, which keeps A.
    """
    if x <= 0:
        raise RegimeError("matching needs k * r_match > 0")
    if math.isinf(s):
        return sf.bessel_j_hankel1(nu, x)
    j_below, h_below = sf.bessel_j_hankel1(nu - 1.0, x)
    j, h = sf.bessel_j_hankel1(nu, x)
    num, den = x * j_below - s * j, x * h_below - s * h
    if cmath.isinf(num) or cmath.isinf(den):
        return x * j_below / s - j, x * h_below / s - h
    return num, den


def matching_from_log_derivative(l: int, channel: int, coupling: Coupling,
                                 kin: Kinematics, r_match: float,
                                 dlog: float) -> complex:
    """Outgoing-wave weight from a known d(ln chi)/dr at r_match.

    For a caller that holds d(ln chi)/dr (units 1/length): s = nu +
    r_match * dlog goes into the one matching formula.  The bare tube, the
    shielded string and the ODE oracle pass their s directly, so nothing in
    the library calls this form.
    """
    if math.isnan(dlog):
        raise RegimeError("log-derivative dlog is NaN")
    nu = exterior_order(l, channel, coupling.alpha)
    num, den = _matching_terms(nu, kin.k * r_match, nu + r_match * dlog)
    return complex(-num / den)


def matching_coefficient(l: int, channel: int, tube: TubeConfig,
                         kin: Kinematics) -> MatchingCoefficient:
    """Outgoing-Hankel weight A of the exterior solution for a bare tube."""
    nu = exterior_order(l, channel, tube.coupling.alpha)
    s = _interior_s(l, channel, tube, kin)
    num, den = _matching_terms(nu, kin.k * tube.r0, s)
    return MatchingCoefficient(l=l, channel=channel, value=complex(-num / den))


def anomalous_channel(coupling: Coupling) -> tuple[int, int] | None:
    """The one (l, channel) whose weight survives the string limit.

    Channel 1 for alpha > 0, channel 2 for alpha < 0, and none at integer
    coupling (the effect carries a sin(pi alpha) factor).  The angular
    momentum is always l = [alpha].
    """
    if coupling.is_integer:
        return None
    if coupling.alpha > 0:
        return coupling.int_part, 1
    return coupling.int_part, 2


def anomalous_limit(coupling: Coupling, channel: int) -> complex:
    """Limit of the anomalous-channel weight as k r0 -> 0,
    +/- i sin(pi alpha) e^{+/- i pi alpha}.

    Taken at the coupling's fractional part f: alpha = [alpha] + f gives
    sin(pi alpha) e^{i pi alpha} = sin(pi f) e^{i pi f} exactly, and pi f
    stays finite where pi alpha would overflow.
    """
    frac = coupling.frac
    _, spin = channel_index(0, channel)
    return spin * 1j * math.sin(math.pi * frac) * cmath.exp(spin * 1j * math.pi * frac)


def _principal_order(l: int, channel: int, coupling: Coupling) -> float:
    """Bessel order of a bare-string radial component, anomalous swap included."""
    nu = exterior_order(l, channel, coupling.alpha)
    return -nu if anomalous_channel(coupling) == (l, channel) else nu


def _power_limit_at_origin(order: float) -> complex:
    """Value of J_order(kr) as r -> 0+, as a 0 / 1 / infinity flag."""
    if order > 0:
        return 0.0 + 0.0j
    if order == 0:
        return 1.0 + 0.0j
    return complex(math.inf, 0.0)


def bare_string_radial(l: int, coupling: Coupling, kin: Kinematics,
                       r: float) -> RadialComponents:
    """Four radial components of a bare-string partial wave (a_l1 = a_l2 = 1).

    The principal components are Bessel functions of order |l - alpha| and
    |l + 1 - alpha|, except in the anomalous channel where the negative-order
    solution survives; the lower pair follows from the first-order ladder
    relations with the string's 1/r vector potential.  At r = 0 divergent
    components are reported as infinities.
    """
    if r < 0:
        raise RegimeError("r must be >= 0")
    nu1 = _principal_order(l, 1, coupling)
    nu2 = _principal_order(l, 2, coupling)
    if r == 0.0:
        return RadialComponents(
            _power_limit_at_origin(nu1), _power_limit_at_origin(nu2),
            _power_limit_at_origin(_lower_order(l, 2, coupling.alpha, nu2)[0]),
            _power_limit_at_origin(_lower_order(l, 1, coupling.alpha, nu1)[0]),
        )
    return _ladder_components(l, coupling.alpha, kin, r, nu1, nu2)


def _lower_order(l: int, channel: int, alpha: float,
                 nu: float) -> tuple[float, float]:
    """Order and sign of the ladder image of J_nu: since |g| = |nu|,
    J_nu' + (g/x) J_nu is -J_{nu+1} when g = -nu and J_{nu-1} when g = nu."""
    if _ladder_coefficient(l, channel, alpha) == -nu:
        return nu + 1.0, -1.0
    return nu - 1.0, 1.0


def _ladder_components(l: int, alpha: float, kin: Kinematics, r: float,
                       nu1: float, nu2: float, a1: complex = 1.0,
                       a2: complex = 1.0) -> RadialComponents:
    """Spinor components a1 J_nu1, a2 J_nu2 at r > 0 and the lower pair the
    ladder relation derives from them: chi3 from channel 2, chi4 from channel 1."""
    k = kin.k
    cfac = -1j / (kin.energy_E + kin.mass_M)
    order3, sign3 = _lower_order(l, 2, alpha, nu2)
    order4, sign4 = _lower_order(l, 1, alpha, nu1)
    j1, j2, j3, j4 = sf.bessel_j(np.array([nu1, nu2, order3, order4]), k * r).tolist()
    return RadialComponents(
        complex(a1 * j1), complex(a2 * j2),
        complex(a2 * (cfac * sign3 * k * j3)), complex(a1 * (cfac * sign4 * k * j4)),
    )


class RadialOdeSolution:
    """Piecewise dense solution (f, h) of one channel's first-order radial
    system, with extraction helpers: f is the upper component (`chi`), h its
    lower partner without the factor -i, (E - phi + M) h = f' + (g/r) f."""

    def __init__(self, l, channel, tube, kin, barrier, segments, scales):
        self.l = l
        self.channel = channel
        self.tube = tube
        self.kin = kin
        self.barrier = barrier
        self._edge = barrier.R0 if barrier is not None else tube.r0
        self._segments = segments  # list of (r_lo, r_hi, OdeSolution)
        self._scales = scales  # per-segment multiplicative factor

    def chi(self, r: float) -> float:
        return self._eval(r)[0]

    def _eval(self, r: float):
        for (lo, hi, sol), s in zip(self._segments, self._scales):
            if lo <= r <= hi * (1 + 1e-12):
                y = sol(min(r, hi))
                return y[0] * s, y[1] * s
        raise RegimeError(f"r={r} outside the integrated range")

    def extract_matching(self) -> complex:
        """Outgoing-Hankel weight from a two-point exterior fit.

        Decomposes the (real) numerical solution over {J_nu, H^(1)_nu} at two
        radii a quarter period apart, the first at max(1.5 edge, (nu + 2)/k,
        2/k) with `edge` the tube or barrier radius, and returns the weight
        ratio.  Precision is limited by the integrator tolerance when |A| is
        very small; prefer `matching_from_interior` for strongly suppressed
        channels.
        """
        kin = self.kin
        nu = exterior_order(self.l, self.channel, self.tube.coupling.alpha)
        r_fit = max(1.5 * self._edge, (nu + 2.0) / kin.k, 2.0 / kin.k)
        r_b = r_fit + 0.5 * math.pi / kin.k
        top = self._segments[-1][1]
        if r_b > top:
            raise RegimeError("fit radii beyond the integrated range")
        chi_a = self.chi(r_fit)
        chi_b = self.chi(r_b)
        j, h = sf.bessel_j_hankel1(nu, np.array([kin.k * r_fit, kin.k * r_b]))
        mat = np.column_stack((j, h))
        p, q = np.linalg.solve(mat, np.array([chi_a, chi_b], dtype=complex))
        return complex(q / p)

    def matching_from_interior(self) -> complex:
        """Outgoing-Hankel weight at the outer edge (r0, or R0 with a barrier)
        from s = nu - g + edge (E + M) h/f (+/-inf where f = 0): nu + edge f'/f
        at phi = 0, without the cancellation between those two terms."""
        kin = self.kin
        alpha = self.tube.coupling.alpha
        edge = self._edge
        f, h = self._eval(edge)
        nu = exterior_order(self.l, self.channel, alpha)
        if f == 0.0:
            s = math.copysign(math.inf, h)
        else:
            s = (nu - _ladder_coefficient(self.l, self.channel, alpha)
                 + edge * (kin.energy_E + kin.mass_M) * h / f)
        num, den = _matching_terms(nu, kin.k * edge, s)
        return complex(-num / den)


def _spinor_jump(l: int, channel: int, alpha: float, kin: Kinematics, U: float,
                 s_in: float) -> float:
    """Carry s = nu + r d(ln chi)/dr across the potential step U -> 0.

    By the ladder relation the lower spinor component is proportional to
    (chi' + (g/r) chi) / (ew - phi), ew = E + M, and continuous with chi,
    so s_out = (ew s_in + U (g - nu)) / (ew - U).  Undefined at U = ew.
    Checked against `ode_radial_oracle`, which shares no jump, by test_shielded.py
    TestShieldedMatching::test_ode_oracle_agreement_with_barrier.
    """
    ew = kin.energy_E + kin.mass_M
    if ew == U:
        raise RegimeError("barrier height E + M excluded (matching degenerates)")
    g = _ladder_coefficient(l, channel, alpha)
    return (ew * s_in + U * (g - exterior_order(l, channel, alpha))) / (ew - U)


def ode_radial_oracle(l: int, channel: int, tube: TubeConfig, kin: Kinematics,
                      r_max: float, barrier: BarrierConfig | None = None,
                      rtol: float = 1e-12) -> RadialOdeSolution:
    """Direct integration of one channel's first-order radial system,

        f' = -(g/r) f + (E - phi + M) h,   h' = -((1 - g)/r) h - (E - phi - M) f,

    g(r) = -spin (l_ch - alpha min(1, r^2/r0^2)), phi = U in the barrier (the
    tube included) and 0 outside.  From the leading Frobenius term near the
    origin it runs straight through r0 and R0, where f and h are continuous,
    so no jump condition enters; the Pauli term of f's second-order equation
    comes from g'.  The oracle for every matching formula, jump included.
    RegimeError unless r_max is finite and beyond the outer edge (r0, or R0
    with a barrier) and 0 < rtol < 1, and at U = E + M (matching degenerates).
    """
    l_ch, spin = channel_index(l, channel)
    alpha = tube.coupling.alpha
    r0 = tube.r0
    M = kin.mass_M
    E = kin.energy_E
    m = abs(l_ch)
    U = barrier.U if barrier is not None else 0.0
    if barrier is not None and barrier.R0 <= r0:
        raise RegimeError("barrier radius must exceed the tube radius")
    edge = r0 if barrier is None else barrier.R0
    if not edge < r_max < math.inf:
        raise RegimeError(f"r_max={r_max} must be finite and beyond the outer edge {edge}")
    if not 0 < rtol < 1:
        raise RegimeError(f"rtol={rtol} outside (0, 1)")
    if U == E + M:
        raise RegimeError("barrier height E + M excluded (matching degenerates)")
    # imported here, not at module level, because only this oracle needs it:
    # scipy.integrate costs ~51 MB RSS and ~0.4 s where scipy is not yet
    # loaded (specfun loads scipy.special at its first call), ~26 MB and
    # ~0.2 s on top of scipy.special (Python 3.11, scipy 1.17, 2-core VM)
    from scipy.integrate import solve_ivp

    def rhs(r, y, phi):
        g = -spin * (l_ch - alpha * min(1.0, (r / r0) ** 2))
        return [(E - phi + M) * y[1] - g / r * y[0],
                -(E - phi - M) * y[0] - (1.0 - g) / r * y[1]]

    r_start = 1e-6 * r0
    # leading Frobenius term f ~ r^m, h ~ r^(m+1) (g(0) = -m) or r^(m-1)
    # (g(0) = m); h from f' by the ladder relation would cancel ~12 digits
    if spin * l_ch >= 0:
        y = [1.0, -(E - U - M) * r_start / (2.0 * (m + 1))]
    else:
        y = [1.0, 2.0 * m / ((E - U + M) * r_start)]
    pieces = [(r_start, r0, U)]
    if barrier is not None:
        pieces.append((r0, edge, U))
    pieces.append((edge, r_max, 0.0))

    segments = []
    scales = []
    carry = 1.0
    for r_lo, r_hi, phi in pieces:
        sol = solve_ivp(rhs, (r_lo, r_hi), y, method="DOP853", rtol=rtol, atol=1e-210,
                        dense_output=True, args=(phi,))
        if not sol.success:
            raise RegimeError(f"radial integration failed: {sol.message}")
        segments.append((r_lo, r_hi, sol.sol))
        scales.append(carry)
        y_end = sol.sol(r_hi)
        # renormalize between segments; the system is linear
        mag = max(abs(y_end[0]), abs(y_end[1]), 1e-280)
        carry *= mag
        y = y_end / mag

    return RadialOdeSolution(l, channel, tube, kin, barrier, segments, scales)
