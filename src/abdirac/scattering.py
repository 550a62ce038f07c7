"""Plane-wave scattering states for bare and shielded magnetic strings.

The building block is the fractional-order partial-wave sum

    psi_nu(r, theta) = sum_l e^{-i pi |l - nu| / 2} J_{|l - nu|}(k r) e^{i l theta}

for nu in [0, 1); general coupling reduces to it by the gauge shift
alpha -> alpha - [alpha] with an overall e^{i [alpha] theta} phase.  The
shielded four-spinor rides this scalar function plus a divergent Hankel
correction on the lower components, every correction carrying the factor
k / (E + M) (hbar c k / (E + Mc^2) in energy units), which is how the state
collapses onto the spinless wave function in the non-relativistic limit.
The bare string adds one more column that survives that limit, in its
anomalous channel (`bare_tube.anomalous_channel`): proportional to the upper
amplitude a1 at alpha > 0 (channel 1) and to a2 at alpha < 0 (channel 2).

A row (one radius, any number of angles) is one coefficient matrix over
signed l in [-l_max, l_max] with one column per spinor component: the
scalar coefficients e^{-i pi mu/2} J_mu(k r), mu = |l - nu|, times the
incident spinor.  Each Hankel correction lives in one partial wave, where it
swaps the regular order for the negative one (DLMF 10.4.7), with
nu = frac(alpha):

==============  =======================  ==========================
state           l = 0 takes mu = -nu in  l = 1 takes mu = nu - 1 in
==============  =======================  ==========================
shielded        psi3                     psi4
bare, alpha>0   psi1, psi3               --
bare, alpha<0   --                       psi2, psi4
==============  =======================  ==========================

so bare - shielded is one order swap per partial wave.  Every order of a
row above the turning point mu = k r comes from the backward three-term
recurrence, where J is the minimal solution.  From k r = j_{0,1} (the first
zero of J_0, 2.405) on, the orders below the turning point, the first one at
or above it and the signed orders come from one scipy (AMOS) call.  In the
near field, 0 < k r < j_{0,1}, the row makes no scipy call: the recurrence
runs down to each family's first order, Neumann's sum (DLMF 10.23.15), whose
terms are all positive there, fixes its scale, and one more step down gives
each signed order.  One product with the phases e^{i (l + [alpha]) theta}
then gives all four components at every angle.

The cutoff is known before the row is built: past the turning point J_mu(x)
falls as the Airy function of (mu - x)/x^{1/3} (DLMF 10.19.8), and a rigorous
bound on J raises that law's l_max where it falls short (`truncation_order`).
A row holds the orders up to l_max only, and that bound summed past l_max is
its tail estimate (`_tail_bound`).

Far-field closed forms: incident spinor times e^{-i k r cos(theta) + i nu theta}
plus f(theta) e^{i k r} / sqrt(r) with f from `scattering_amplitude`, times
-e^{i (2l - 1) theta} on a swapped component.  f blows up toward theta = +/-pi,
so `asymptotic_state` refuses the forward cone |theta| >= pi -
DEFAULT_FORWARD_CONE, which is fixed: a caller can neither widen nor narrow it.

Stationary states are reported as t = 0 snapshots; the time factor is a
global phase at fixed energy.
"""

from __future__ import annotations

import cmath
import math
import operator
import sys
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import specfun as sf
from .bare_tube import anomalous_channel
from .errors import OutOfRangeError, RegimeError, SingularArgumentError
from .model import Coupling, Kinematics, SpinorAmplitudes

__all__ = [
    "PartialWaveSum",
    "WaveFieldSample",
    "DEFAULT_FORWARD_CONE",
    "truncation_order",
    "ab_wavefunction",
    "dirac_scattering_state",
    "asymptotic_state",
    "scattering_amplitude",
    "differential_cross_section",
    "integrated_cross_section",
]

DEFAULT_FORWARD_CONE = 0.1  # rad; asymptotics break down within this cone
# largest k r of a row: its cost grows linearly in k r, to ~1 s for an
# 8-angle row at 1e5 (2-core VM)
_MAX_KR = 1e5
_RECURRENCE_MARGIN = 32  # orders above a row's top where the J ratios start at 0
# j_{0,1}, the first zero of J_0, rounded up by 1.2e-16: a double x below it
# lies below the zero
_J0_ZERO = 2.404825557695773


@dataclass(frozen=True)
class PartialWaveSum:
    """One truncated partial-wave row; `tail_estimate` is `_tail_bound` (<= tol)."""

    l_max: int
    terms: int
    tail_estimate: float


@dataclass(frozen=True)
class WaveFieldSample:
    """Four spinor components at one radius and a scalar or array theta.

    A scalar theta holds Python ``complex`` components; an array theta holds
    component arrays of its shape, so `as_array()` is (4, n) for n angles.
    """

    r: float
    theta: float | np.ndarray
    psi1: complex | np.ndarray
    psi2: complex | np.ndarray
    psi3: complex | np.ndarray
    psi4: complex | np.ndarray

    def as_array(self) -> np.ndarray:
        return np.array([self.psi1, self.psi2, self.psi3, self.psi4])


def _log_j_bounds(mu: float, x: float) -> tuple[float, float]:
    """ln of two bounds on |J_nu(x)| for every nu >= mu, at 0 < x <= mu.

    Both are rigorous and fall with the order for mu >= x: the power bound
    (x/2)^mu / Gamma(mu + 1) (DLMF 10.14.4), close to |J| well past the
    turning point, and Kapteyn's w^mu e^{mu s} / (1 + s)^mu with w = x/mu,
    s = sqrt(1 - w^2) (DLMF §10.14), close to it near the turning point.
    """
    log_x = math.log(x)
    power = mu * (log_x - math.log(2.0)) - math.lgamma(mu + 1.0)
    w = x / mu
    s = math.sqrt((1.0 - w) * (1.0 + w))
    kapteyn = mu * (log_x - math.log(mu) + s - math.log1p(s))
    return power, kapteyn


def _tail_bound(l_max: int, x: float) -> float:
    """Bound on sum_{|l| > l_max} |J_{|l - nu|}(x)|, any nu in [0, 1), l_max > x.

    The j-th dropped order of either end is at least l_max + j > x, where
    both bounds of `_log_j_bounds` fall with the order.  The power bound P
    falls by x / (2 (mu + 1)) <= 1/2 per order, so one end sums to at most
    2 P(l_max).  Kapteyn's ln K(mu) = -mu (a - tanh a), cosh a = mu / x, is
    concave with slope -a(mu), so K(l_max + j) <= K(l_max) e^{-a j} and one
    end sums to at most K(l_max) / (1 - e^{-a}).  The min is over these two
    sums, not over the per-term bound; P overflows near the turning point,
    so it is taken in logs.  0 at x = 0.
    """
    if x == 0:
        return 0.0
    power, kapteyn = _log_j_bounds(l_max, x)
    a = math.acosh(l_max / x)
    return 2.0 * math.exp(min(power + math.log(2.0), kapteyn - math.log(-math.expm1(-a))))


def truncation_order(kr: float, tol: float) -> int:
    """Angular-momentum cutoff of a partial-wave row, 0 <= kr <= _MAX_KR.

    tol lies in [2.2e-308, 1), from the smallest normal double up: below it
    the terms at the cutoff are subnormal, each rounded by up to ~5e-324,
    which is no longer small beside tol, so such a tol is refused up front.

    Past the turning point J_mu(x) ~ (2/x)^{1/3} Ai(2^{1/3} tau) with
    mu = x + tau x^{1/3} (DLMF 10.19.8), and Ai(z) ~ e^{-2 z^{3/2}/3}, so the
    terms fall below tol at tau = 2^{-1/3} (1.5 ln(1/tol))^{2/3}.  The cutoff
    starts at l = ceil(kr + tau kr^{1/3}) + 8; the 8 covers kr <~ 1, where
    J_l ~ (kr/2)^l / l! and the Airy form does not hold.  Where J falls slower
    than the Airy form says (small kr at a tiny tol), l then rises until
    `_log_j_bounds` caps every order past it at tol/320, which keeps
    `_tail_bound` below tol/2 (l_max >= kr + 8 gives 1 / (1 - e^{-a}) < 80).
    """
    if not 0 <= kr <= _MAX_KR:
        raise RegimeError(f"kr must lie in [0, {_MAX_KR:.0e}]")
    if not sys.float_info.min <= tol < 1.0:
        raise RegimeError(
            f"partial-wave tolerance {tol} outside [{sys.float_info.min}, 1)")
    tau = (-1.5 * math.log(tol)) ** (2.0 / 3.0) / 2.0 ** (1.0 / 3.0)
    l_max = math.ceil(kr + tau * kr ** (1.0 / 3.0)) + 8
    log_cap = math.log(tol) - math.log(320.0)
    while kr > 0 and min(_log_j_bounds(l_max, kr)) > log_cap:
        l_max += 1
    return l_max


def _neumann_anchor(mu: float, x: float, ratios: list) -> float:
    """J_mu(x) from the ratios r_m = J_{mu+m} / J_{mu+m-1}, m = 1, 2, ...

    Neumann's sum (x/2)^mu = sum_k (mu + 2k) Gamma(mu + k)/k! J_{mu+2k}(x)
    (DLMF 10.23.15; the k = 0 term is Gamma(mu + 1) J_mu) divided by J_mu
    is a sum of the products of the ratios.  Below j_{0,1} every J_{mu+m}
    is positive (J_nu > 0 on (0, j_{nu,1}), and j_{nu,1} grows with nu), so
    no term cancels.  (x/2)^mu is taken as x^mu 2^-mu, which keeps its
    digits at a subnormal x.
    """
    g = math.gamma(mu + 1.0)  # Gamma(mu + k)/k! at k = 1, and the k = 0 coefficient
    total, rel = g, 1.0
    for k in range(1, len(ratios) // 2 + 1):
        rel *= ratios[2 * k - 2] * ratios[2 * k - 1]
        total += (mu + 2 * k) * g * rel
        g *= (mu + k) / (k + 1)
    return x ** mu * 0.5 ** mu / total


def _j_family(mu: float, x: float, amos: list, top: int) -> list:
    """J_{mu+m}(x) for m = 0..top, each order mu + m in one rounding.

    `amos` holds AMOS values for m = 0..t, where t is the first order at or
    above the turning point mu + m >= x (every order at x = 0), or is empty
    at 0 < x < j_{0,1}, where t = 0 and the anchor J_mu comes from
    `_neumann_anchor`.  Above the turning point J is the minimal solution of
    the three-term recurrence (DLMF 10.6.1), so the ratios
    r_m = J_{mu+m} / J_{mu+m-1} = 1 / (2 (mu + m)/x - r_{m+1}) are stable run
    backward (DLMF 10.74(iv)); below it, at the few orders under
    x < j_{0,1}, the recurrence is neutrally stable.  The ratios start from 0 at _RECURRENCE_MARGIN
    orders above `top`, past the cutoff (`truncation_order`) where J has
    fallen far below tol, and multiply up from J_{mu+t}.
    """
    t = max(len(amos) - 1, 0)
    if t >= top:
        return amos[:top + 1]
    r, ratios = 0.0, []
    for m in range(top + _RECURRENCE_MARGIN, t, -1):
        r = 1.0 / (2.0 * (mu + m) / x - r)
        ratios.append(r)
    ratios.reverse()
    anchor = amos[t] if amos else _neumann_anchor(mu, x, ratios)
    return amos[:t] + list(accumulate(ratios[:top - t], operator.mul, initial=anchor))


def _row_bessel(nu: float, x: float, tol: float, signed: tuple = ()):
    """J_{|l - nu|}(x) over l = -l_max..l_max, l_max = `truncation_order`(x, tol).

    Returns (orders, values, PartialWaveSum).  l = -m has order nu + m and
    l = m + 1 order (1 - nu) + m.  The `signed` orders (the negative ones a
    Hankel term swaps in, each -nu or nu - 1.0) and their J follow at the
    end.  No order past the cutoff is evaluated: the tail estimate is
    `_tail_bound`(l_max, x).

    One pass, one recurrence per family (`_j_family`).  At x = 0 and from
    x = j_{0,1} on, one AMOS call per row takes, per family, the orders
    below the turning point and the first one at or above it, and the
    signed orders; the recurrence fills the rest.  At 0 < x < j_{0,1} the
    row makes no AMOS call: each family's recurrence runs down to m = 0,
    `_neumann_anchor` fixes its scale, and each signed order is one more
    step down, J_{mu-1} = (2 mu / x) J_mu - J_{mu+1} (DLMF 10.6.1), from the
    family at mu = 1 - nu (for -nu) or mu = nu (for nu - 1, so J is taken
    at nu - 1 exactly, not at its rounding).  A value that is not finite
    there, as at a subnormal x where 2 mu / x overflows, raises the
    OutOfRangeError of specfun's result guard.  J at a real argument is
    real, so only the real part is kept.
    """
    if not (0.0 <= nu < 1.0):
        raise RegimeError("reduced coupling must lie in [0, 1)")
    l_max = truncation_order(x, tol)  # refuses x and tol before any Bessel call
    mu_right = 1.0 - nu
    near = 0.0 < x < _J0_ZERO
    if near:
        left = right = []
    else:
        if x == 0:
            t_left, t_right = l_max, l_max - 1
        else:
            t_left, t_right = (max(0, math.ceil(x - mu)) for mu in (nu, mu_right))
        amos_orders = np.concatenate((nu + np.arange(t_left + 1),
                                      mu_right + np.arange(t_right + 1), signed))
        amos = sf.bessel_j(amos_orders, x).real.tolist()
        left, right = amos[:t_left + 1], amos[t_left + 1:t_left + t_right + 2]
        signed_js = amos[t_left + t_right + 2:]
    down = _j_family(nu, x, left, l_max)  # l = 0, -1, ..., -l_max
    up = _j_family(mu_right, x, right, l_max - 1)  # l = 1, ..., l_max
    if near:
        step = {-nu: (mu_right, up), nu - 1.0: (nu, down)}  # order mu - 1: (mu, family)
        signed_js = [2.0 * mu / x * js[0] - js[1] for mu, js in map(step.__getitem__, signed)]
        if not all(map(math.isfinite, signed_js)):
            raise OutOfRangeError("J_nu is not finite in double precision here")
    orders = np.concatenate((nu + np.arange(l_max, -1, -1), mu_right + np.arange(l_max), signed))
    info = PartialWaveSum(l_max, 2 * l_max + 1, _tail_bound(l_max, x))
    return orders, np.array(down[::-1] + up + signed_js), info


def _wave_coefficients(nu: float, x: float, tol: float, signed: tuple = ()):
    """Coefficients e^{-i pi mu/2} J_mu(x), mu = |l - nu|, of the reduced sum.

    Returns (coefficients over signed l = -l_max..l_max, coefficients at the
    `signed` orders, PartialWaveSum).
    """
    orders, js, info = _row_bessel(nu, x, tol, signed)
    coeffs = np.exp(-0.5j * math.pi * orders) * js
    return coeffs[:info.terms], coeffs[info.terms:], info


def _angular_sum(coeffs: np.ndarray, theta, shift: int):
    """sum_l coeffs[l] e^{i (l + shift) theta} over signed l = -l_max..l_max.

    `coeffs` is a column or a matrix of columns; a scalar theta drops the
    angle axis, an array theta keeps it first.
    """
    l_max = (coeffs.shape[0] - 1) // 2
    ls = np.arange(-l_max + shift, l_max + 1 + shift)
    theta_arr = np.atleast_1d(np.asarray(theta, dtype=float))
    if not float(np.abs(theta_arr).max(initial=0.0)) * (l_max + abs(shift)) < math.inf:
        raise RegimeError("theta and theta * l must be finite")
    vals = np.exp(1j * np.outer(theta_arr, ls)) @ coeffs
    return vals if np.ndim(theta) else vals[0]


def ab_wavefunction(coupling: Coupling, kin: Kinematics, r: float, theta,
                    tol: float = 1e-10, return_info: bool = False):
    """Scalar scattering wave function of a shielded string (spinless form).

    Accepts scalar or array `theta`.  General coupling is reduced by the
    gauge shift; the returned function is exactly periodic in theta.
    """
    coeffs, _, info = _wave_coefficients(coupling.frac, kin.k * r, tol)
    out = _angular_sum(coeffs, theta, coupling.int_part)
    out = out if np.ndim(theta) else complex(out)
    if return_info:
        return out, info
    return out


def _lower_weight(kin: Kinematics) -> float:
    """k / (E + M), hbar c k / (E + Mc^2) in energy units: the small
    parameter of the lower components."""
    return kin.k / (kin.energy_E + kin.mass_M)


def _swapped_waves(kind: str, coupling: Coupling) -> tuple[tuple[int, int], ...]:
    """(l, component) pairs, psi1..psi4 as 0..3, whose partial wave takes the
    negative order (the table in the module docstring).

    The bare string's surviving wave follows `bare_tube.anomalous_channel`:
    channel c swaps psi_c and psi_{c+2} in the partial wave l = c - 1.
    Integer coupling has no anomalous channel and no swap.
    """
    if kind == "shielded":
        return ((0, 2), (1, 3))
    if kind != "bare":
        raise RegimeError("kind must be 'bare' or 'shielded'")
    anomalous = anomalous_channel(coupling)
    if anomalous is None:
        return ()
    l = anomalous[1] - 1
    return ((l, l), (l, l + 2))


def _spinor_coefficients(swapped: tuple, a1: complex, a2: complex, w: float,
                         nu: float, x: float, tol: float):
    """Coefficient matrix of the four-spinor: one row per signed l, one column
    per component, for reduced coupling nu in [0, 1).

    Every column is the scalar column times (a1, a2, -w a2, -w a1), with the
    Hankel corrections as order swaps, each in one partial wave.  By
    e^{i pi mu/2} J_{-mu} - e^{-i pi mu/2} J_mu = i sin(pi mu) e^{i pi mu/2} H_mu
    (DLMF 10.4.7), a Hankel term swaps the regular coefficient for the same
    coefficient e^{-i pi mu/2} J_mu at the signed order, at the `swapped`
    (l, component) pairs of `_swapped_waves` (the module docstring's table).

    So bare - shielded is one order swap per partial wave.  At alpha > 0 the
    bare string keeps psi4 regular: its extra column
    e^{i pi nu/2} sin(pi nu) H_{nu-1} cancels the shielded one exactly, since
    H_{nu-1} = e^{i pi (1-nu)} H_{1-nu} (DLMF 10.4.6); at alpha < 0 the same
    holds for psi3 with the roles of the partial waves exchanged.  Every J,
    the signed orders included, comes from `_row_bessel`: from k r = j_{0,1}
    on, its one AMOS call adds only the signed orders of the swapped waves;
    below it each signed order is one recurrence step from its family.  No
    Hankel function is evaluated.
    Returns (matrix, PartialWaveSum).
    """
    waves = sorted({l for l, _ in swapped})
    coeffs, swaps, info = _wave_coefficients(nu, x, tol,
                                             tuple((-nu, nu - 1.0)[l] for l in waves))
    col = np.array([a1, a2, -w * a2, -w * a1])
    matrix = np.outer(coeffs, col)
    for l, comp in swapped:
        matrix[info.l_max + l, comp] = col[comp] * swaps[waves.index(l)]
    return matrix, info


def dirac_scattering_state(kind: str, amplitudes: SpinorAmplitudes,
                           coupling: Coupling, kin: Kinematics, r: float,
                           theta, tol: float = 1e-10) -> WaveFieldSample:
    """Four-spinor scattering state (t = 0 snapshot) at one radius.

    `kind` is "shielded" or "bare".  The shielded state is the scalar sum on
    all four components plus a divergent Hankel correction on the lower pair;
    the bare state adds the surviving-channel column, proportional to a1 at
    alpha > 0 and to a2 at alpha < 0.  At integer alpha no wave is swapped
    (sin(pi nu) = 0): both kinds are the free wave
    (a1, a2, -w a2, -w a1) e^{-i k r cos(theta) + i alpha theta}.
    `theta` is a scalar or an array: every angle at the radius shares one
    coefficient matrix (Bessel values, cutoff), and the four
    components come out of one product with the phases e^{i (l + [alpha]) theta}.
    """
    if not r > 0:
        raise RegimeError("field point needs r > 0")
    matrix, _ = _spinor_coefficients(
        _swapped_waves(kind, coupling), complex(amplitudes.a1), complex(amplitudes.a2),
        _lower_weight(kin), coupling.frac, kin.k * r, tol)
    psi = _angular_sum(matrix, theta, coupling.int_part)
    if np.ndim(theta) == 0:
        return WaveFieldSample(r, theta, *(complex(p) for p in psi))
    return WaveFieldSample(r, theta, *psi.T)


def asymptotic_state(kind: str, amplitudes: SpinorAmplitudes, coupling: Coupling,
                     kin: Kinematics, r: float, theta: float) -> WaveFieldSample:
    """Closed far-field form of the scattering state.

    Valid for k r >> 1 away from the forward cone; enforced as k r >= 50 and
    |theta| < pi - DEFAULT_FORWARD_CONE.
    """
    x = kin.k * r
    if not 50.0 <= x < math.inf:
        raise RegimeError(f"asymptotic form needs finite k r >= 50 (got {x:.3g})")
    if not abs(theta) < math.pi - DEFAULT_FORWARD_CONE:
        raise RegimeError(
            f"theta={theta:.3f} not finite or inside the forward cone "
            f"(cut {DEFAULT_FORWARD_CONE})"
        )
    a1, a2 = complex(amplitudes.a1), complex(amplitudes.a2)
    w = _lower_weight(kin)
    incident = cmath.exp(-1j * x * math.cos(theta) + 1j * coupling.frac * theta)
    scattered = scattering_amplitude(coupling, kin, theta) * cmath.exp(1j * x) / math.sqrt(r)
    col_in = np.array([a1, a2, -w * a2, -w * a1])
    # the regular sum scatters f(theta) = -e^{i theta/2} |f| e^{i pi/4}.  A swap
    # adds i sin(pi mu) e^{i pi mu/2} H_mu(x) e^{i l theta} (mu = nu at l = 0,
    # 1 - nu at l = 1, sin(pi mu) = sin(pi nu)), whose far field (DLMF 10.17.5)
    # is 2 cos(theta/2) e^{i l theta} = e^{i (l - 1/2) theta} + e^{i (l + 1/2) theta};
    # a swapped component thus scatters e^{-i theta/2} (l = 0) or e^{3i theta/2}
    # (l = 1) where the regular one scatters -e^{i theta/2}: f times -e^{i (2l - 1) theta}
    col_sc = col_in.copy()
    for l, comp in _swapped_waves(kind, coupling):
        col_sc[comp] *= -cmath.exp((2 * l - 1) * 1j * theta)
    psi = (col_in * incident + col_sc * scattered) * cmath.exp(1j * coupling.int_part * theta)
    return WaveFieldSample(r, theta, *(complex(p) for p in psi))


def scattering_amplitude(coupling: Coupling, kin: Kinematics,
                         theta: float) -> complex:
    """Scalar scattering amplitude f(theta), defined through
    psi ~ e^{-i k r cos theta + i alpha theta} + f(theta) e^{i k r} / sqrt(r)."""
    if math.isnan(theta):
        raise RegimeError("theta must be a number")
    if abs(theta) >= math.pi:
        raise SingularArgumentError("amplitude diverges at theta = +/- pi")
    if not kin.k > 0:
        raise RegimeError("scattering amplitude needs k > 0")
    nu = coupling.frac
    return complex(
        -cmath.exp(0.5j * theta)
        * math.sin(math.pi * nu)
        / math.cos(0.5 * theta)
        * cmath.exp(0.25j * math.pi)
        / math.sqrt(2.0 * math.pi * kin.k)
    )


def differential_cross_section(coupling: Coupling, kin: Kinematics,
                               theta: float) -> float:
    """|f(theta)|^2 = sin^2(pi alpha) / (2 pi k cos^2(theta/2))."""
    f = abs(scattering_amplitude(coupling, kin, theta))
    sigma = f * f
    if not sigma < math.inf:
        raise SingularArgumentError(f"cross section overflows at theta={theta}, k={kin.k}")
    return sigma


def integrated_cross_section(coupling: Coupling, kin: Kinematics,
                             theta_cut: float = DEFAULT_FORWARD_CONE) -> float:
    """|f|^2 integrated over |theta| < pi - theta_cut, 0 < theta_cut < pi.

    The integral of sec^2(theta / 2) over that range is 4 cot(theta_cut / 2),
    so sigma = 2 sin^2(pi nu) cot(theta_cut / 2) / (pi k).
    """
    if not 0 < theta_cut < math.pi:
        raise RegimeError(f"forward cut theta_cut={theta_cut} outside (0, pi)")
    s2 = math.sin(math.pi * coupling.frac) ** 2
    den = math.tan(0.5 * theta_cut) * math.pi * kin.k
    sigma = 2.0 * s2 / den if den > 0 else math.inf
    if not sigma < math.inf:
        raise SingularArgumentError(
            f"cross section diverges at theta_cut={theta_cut}, k={kin.k}")
    return sigma
