"""Plane-wave scattering states for bare and shielded magnetic strings.

The building block is the fractional-order partial-wave sum

    psi_nu(r, theta) = sum_l e^{-i pi |l - nu| / 2} J_{|l - nu|}(k r) e^{i l theta}

for nu in [0, 1); general coupling reduces to it by the gauge shift
alpha -> alpha - [alpha] with an overall e^{i [alpha] theta} phase.  The
shielded four-spinor rides this scalar function plus a divergent Hankel
correction on the lower components, every correction carrying the factor
hbar k / ((E + Mc^2)/c), which is how the state collapses onto the spinless
wave function in the non-relativistic limit.  The bare string adds one more
column, proportional to the upper amplitude a1, that survives that limit.

A row (one radius, any number of angles) is one coefficient matrix over
signed l in [-l_max, l_max] with one column per spinor component: the
scalar coefficients e^{-i pi mu/2} J_mu(k r), mu = |l - nu|, times the
incident spinor.  Each Hankel correction lives in one partial wave, where it
swaps the regular order for the negative one (DLMF 10.4.7): the l = 0 row
takes the coefficient at mu = -nu in psi3 and the bare psi1, the l = 1 row
the one at mu = nu - 1 in the shielded psi4, so bare - shielded is one order
swap per partial wave.  A row's J values come from one scipy (AMOS) call
over the orders below the turning point mu = k r, the first one at or above
it and the signed orders; every order above the turning point comes
from the backward three-term recurrence, where J is the minimal solution.
One product with the phases e^{i (l + [alpha]) theta} then gives all four
components at every angle.

Far-field closed forms: incident spinor times e^{-i k r cos(theta) + i nu theta}
plus a scattered spinor with per-component half-angle phases and the common
factor sin(pi nu)/cos(theta/2) * e^{i k r + i pi/4} / sqrt(2 pi k r).  The
amplitude blows up toward the forward direction theta = +/-pi, so comparisons
exclude a configurable forward cone.

Stationary states are reported as t = 0 snapshots; the time factor is a
global phase at fixed energy.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import specfun as sf
from .errors import RegimeError, SingularArgumentError, TruncationError
from .model import Coupling, Kinematics, SpinorAmplitudes

__all__ = [
    "PartialWaveSum",
    "WaveFieldSample",
    "DEFAULT_FORWARD_CONE",
    "truncation_order",
    "ab_wavefunction",
    "bare_wavefunction_scalar",
    "dirac_scattering_state",
    "asymptotic_state",
    "scattering_amplitude",
    "differential_cross_section",
    "integrated_cross_section",
]

DEFAULT_FORWARD_CONE = 0.1  # rad; asymptotics break down within this cone
_MAX_EXTENSIONS = 8
_EXTENSION_CHUNK = 16
_RECURRENCE_MARGIN = 16  # orders above a row's top where the J ratios start at 0


@dataclass(frozen=True)
class PartialWaveSum:
    """Bookkeeping of one truncated partial-wave evaluation."""

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


def truncation_order(kr: float) -> int:
    """Initial angular-momentum cutoff for a partial-wave sum at argument kr."""
    return int(math.ceil(kr)) + 12 + int(math.ceil(4.0 * kr ** (1.0 / 3.0)))


def _j_family(mu: float, x: float, amos: list, top: int) -> list:
    """J_{mu+m}(x) for m = 0..top, each order mu + m in one rounding.

    `amos` holds AMOS values for m = 0..t, where t is the first order at or
    above the turning point mu + m >= x (every order at x = 0).  Above it J
    is the minimal solution of the three-term recurrence (DLMF 10.6.1), so
    the ratios r_m = J_{mu+m} / J_{mu+m-1} = 1 / (2 (mu + m)/x - r_{m+1}) are
    stable run backward (DLMF 10.74(iv)).  They start from 0 at
    _RECURRENCE_MARGIN orders above `top` and multiply up from J_{mu+t}, so
    the values depend only on `top`, not on how the row was widened.
    """
    t = len(amos) - 1
    if t >= top:
        return amos[:top + 1]
    r, ratios = 0.0, []
    for m in range(top + _RECURRENCE_MARGIN, t, -1):
        r = 1.0 / (2.0 * (mu + m) / x - r)
        ratios.append(r)
    del ratios[:_RECURRENCE_MARGIN]
    return amos[:t] + list(accumulate(reversed(ratios), operator.mul, initial=amos[t]))


def _row_bessel(nu: float, x: float, tol: float, signed: tuple = ()):
    """J_{|l - nu|}(x) over l = -n..n, n = l_max + _EXTENSION_CHUNK, and the cutoff.

    Returns (orders, values, PartialWaveSum).  The row keeps l in
    [-l_max, l_max]; the chunk beyond it at each end sets the tail estimate.
    l = -m has order nu + m and l = m + 1 order (1 - nu) + m.  The `signed`
    orders (the negative ones a Hankel term swaps in) and their J follow at
    the end.

    One AMOS call per row takes, per family, the orders below the turning
    point and the first one at or above it (see `_j_family`), and the signed
    orders.  J at a real argument is real, so only the real part is kept.  A
    failed tail check widens the row by a chunk at both ends and reruns only
    the recurrence.
    """
    if not (0.0 <= nu < 1.0):
        raise RegimeError("reduced coupling must lie in [0, 1)")
    if x < 0:
        raise RegimeError("kr must be >= 0")
    l_max = truncation_order(x)
    chunk = _EXTENSION_CHUNK
    n = l_max + chunk
    mu_right = 1.0 - nu
    if x == 0:
        t_left, t_right = n, n - 1
    else:
        t_left, t_right = (max(0, math.ceil(x - mu)) for mu in (nu, mu_right))
    amos_orders = np.concatenate((nu + np.arange(t_left + 1),
                                  mu_right + np.arange(t_right + 1), signed))
    amos = sf.bessel_j(amos_orders, x, max_order=max(t_left, t_right) + 1.0).real.tolist()
    left, right = amos[:t_left + 1], amos[t_left + 1:t_left + t_right + 2]
    signed_js = amos[t_left + t_right + 2:]
    for attempt in range(_MAX_EXTENSIONS):
        if attempt:
            l_max += chunk
            n += chunk
        down = _j_family(nu, x, left, n)  # l = 0, -1, ..., -n
        up = _j_family(mu_right, x, right, n - 1)  # l = 1, ..., n
        # tail: sum of the next chunk's magnitudes at both ends, each taken
        # outward from the kept row, with a geometric bound for everything
        # beyond it
        tail = sum(map(abs, down[l_max + 1:])) + sum(map(abs, up[l_max:]))
        first = abs(down[l_max + 1]) + abs(up[l_max])
        last = abs(down[-1]) + abs(up[-1])
        if first > 0 and last / first < 0.5:
            tail *= 2.0  # geometric remainder bound
        elif first > 0:
            tail *= 10.0
        if tail <= tol or x == 0:
            break
    else:
        raise TruncationError(
            f"partial-wave tail {tail:.1e} above tolerance {tol:.1e} at l_max={l_max}"
        )
    orders = np.concatenate((nu + np.arange(n, -1, -1), mu_right + np.arange(n), signed))
    info = PartialWaveSum(l_max=l_max, terms=2 * l_max + 1, tail_estimate=tail)
    return orders, np.array(down[::-1] + up + signed_js), info


def _wave_coefficients(nu: float, x: float, tol: float, signed: tuple = ()):
    """Coefficients e^{-i pi mu/2} J_mu(x), mu = |l - nu|, of the reduced sum.

    Returns (coefficients over signed l = -l_max..l_max, coefficients at the
    `signed` orders, PartialWaveSum).
    """
    orders, js, info = _row_bessel(nu, x, tol, signed)
    coeffs = np.exp(-0.5j * math.pi * orders) * js
    row = 2 * (info.l_max + _EXTENSION_CHUNK) + 1
    return coeffs[_EXTENSION_CHUNK:row - _EXTENSION_CHUNK], coeffs[row:], info


def _angular_sum(coeffs: np.ndarray, theta, shift: int):
    """sum_l coeffs[l] e^{i (l + shift) theta} over signed l = -l_max..l_max.

    `coeffs` is a column or a matrix of columns; a scalar theta drops the
    angle axis, an array theta keeps it first.
    """
    l_max = (coeffs.shape[0] - 1) // 2
    ls = np.arange(-l_max + shift, l_max + 1 + shift)
    theta_arr = np.atleast_1d(np.asarray(theta, dtype=float))
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


def bare_wavefunction_scalar(coupling: Coupling, kin: Kinematics, r: float,
                             theta, tol: float = 1e-10,
                             return_info: bool = False):
    """Scalar scattering wave function of a bare string.

    The psi1 column of the spin-up bare state: the shielded sum with the
    negative-order Bessel term in place of the regular one in the surviving
    l = 0 wave.  Restricted to 0 < alpha < 1, the range where this closed
    construction applies.
    """
    if not (0.0 < coupling.alpha < 1.0):
        raise RegimeError("bare scalar wave function requires 0 < alpha < 1")
    coeffs, info = _spinor_coefficients("bare", 1.0, 0.0, 0.0, coupling.alpha,
                                        kin.k * r, tol)
    out = _angular_sum(coeffs[:, 0], theta, 0)
    out = out if np.ndim(theta) else complex(out)
    if return_info:
        return out, info
    return out


def _lower_weight(kin: Kinematics) -> float:
    """hbar c k / (E + Mc^2): the small parameter of the lower components."""
    return kin.hbar * kin.c * kin.k / (kin.energy_E + kin.rest_energy)


def _spinor_coefficients(kind: str, a1: complex, a2: complex, w: float,
                         nu: float, x: float, tol: float):
    """Coefficient matrix of the four-spinor: one row per signed l, one column
    per component, for reduced coupling nu in [0, 1).

    Every column is the scalar column times (a1, a2, -w a2, -w a1), with the
    Hankel corrections as order swaps, each in one partial wave.  By
    e^{i pi nu/2} J_{-nu} - e^{-i pi nu/2} J_nu = i sin(pi nu) e^{i pi nu/2} H_nu
    (DLMF 10.4.7), a Hankel term swaps the regular coefficient for the same
    coefficient e^{-i pi mu/2} J_mu at the signed order:
    - l = 0, psi3 (both kinds) and psi1 (bare): mu = nu -> -nu;
    - l = 1, psi4 (shielded): mu = 1 - nu -> nu - 1.
    So bare - shielded is one order swap per partial wave.  The bare string
    keeps psi4 regular: its extra column e^{i pi nu/2} sin(pi nu) H_{nu-1}
    cancels the shielded one exactly, since H_{nu-1} = e^{i pi (1-nu)} H_{1-nu}
    (DLMF 10.4.6).  Every J, the signed orders included, comes from the row's
    one AMOS call and the recurrence above the turning point (`_row_bessel`);
    no Hankel function is evaluated.
    Returns (matrix, PartialWaveSum).
    """
    bare = kind == "bare"
    coeffs, swaps, info = _wave_coefficients(nu, x, tol,
                                             (-nu,) if bare else (-nu, nu - 1.0))
    matrix = np.outer(coeffs, [a1, a2, -w * a2, -w * a1])
    zero = info.l_max  # row of l = 0
    matrix[zero, 2] = -w * a2 * swaps[0]
    if bare:
        matrix[zero, 0] = a1 * swaps[0]
    else:
        matrix[zero + 1, 3] = -w * a1 * swaps[1]
    return matrix, info


def dirac_scattering_state(kind: str, amplitudes: SpinorAmplitudes,
                           coupling: Coupling, kin: Kinematics, r: float,
                           theta, tol: float = 1e-10) -> WaveFieldSample:
    """Four-spinor scattering state (t = 0 snapshot) at one radius.

    `kind` is "shielded" or "bare".  The shielded state is the scalar sum on
    all four components plus a divergent Hankel correction on the lower pair;
    the bare state adds the surviving-channel column proportional to a1.
    `theta` is a scalar or an array: every angle at the radius shares one
    coefficient matrix (Bessel values, cutoff), and the four
    components come out of one product with the phases e^{i (l + [alpha]) theta}.
    """
    if kind not in ("bare", "shielded"):
        raise RegimeError("kind must be 'bare' or 'shielded'")
    if r <= 0:
        raise RegimeError("field point needs r > 0")
    if kind == "bare" and coupling.is_integer:
        raise RegimeError("bare-string construction needs non-integer coupling")
    matrix, _ = _spinor_coefficients(
        kind, complex(amplitudes.a1), complex(amplitudes.a2), _lower_weight(kin),
        coupling.frac, kin.k * r, tol)
    psi = _angular_sum(matrix, theta, coupling.int_part)
    if np.ndim(theta) == 0:
        return WaveFieldSample(r, theta, *(complex(p) for p in psi))
    return WaveFieldSample(r, theta, *psi.T)


def asymptotic_state(kind: str, amplitudes: SpinorAmplitudes, coupling: Coupling,
                     kin: Kinematics, r: float, theta: float,
                     theta_cut: float = DEFAULT_FORWARD_CONE) -> WaveFieldSample:
    """Closed far-field form of the scattering state.

    Valid for k r >> 1 away from the forward cone; enforced as k r >= 50 and
    |theta| < pi - theta_cut.
    """
    if kind not in ("bare", "shielded"):
        raise RegimeError("kind must be 'bare' or 'shielded'")
    x = kin.k * r
    if x < 50.0:
        raise RegimeError(f"asymptotic form needs k r >= 50 (got {x:.3g})")
    if abs(theta) >= math.pi - theta_cut:
        raise RegimeError(
            f"theta={theta:.3f} inside the forward cone (cut {theta_cut})"
        )
    nu = coupling.frac
    a1, a2 = complex(amplitudes.a1), complex(amplitudes.a2)
    w = _lower_weight(kin)
    incident = cmath.exp(-1j * x * math.cos(theta) + 1j * nu * theta)
    spread = math.sin(math.pi * nu) / math.cos(0.5 * theta)
    scattered = spread * cmath.exp(1j * (x + 0.25 * math.pi)) / math.sqrt(
        2.0 * math.pi * x
    )
    col_in = np.array([a1, a2, -w * a2, -w * a1])
    if kind == "shielded":
        col_sc = -np.array(
            [
                a1 * cmath.exp(0.5j * theta),
                a2 * cmath.exp(0.5j * theta),
                w * a2 * cmath.exp(-0.5j * theta),
                w * a1 * cmath.exp(1.5j * theta),
            ]
        )
    else:
        col_sc = np.array(
            [
                a1 * cmath.exp(-0.5j * theta),
                -a2 * cmath.exp(0.5j * theta),
                -w * a2 * cmath.exp(-0.5j * theta),
                w * a1 * cmath.exp(0.5j * theta),
            ]
        )
    gauge = cmath.exp(1j * coupling.int_part * theta)
    psi = (col_in * incident + col_sc * scattered) * gauge
    return WaveFieldSample(
        r=r, theta=theta, psi1=complex(psi[0]), psi2=complex(psi[1]),
        psi3=complex(psi[2]), psi4=complex(psi[3]),
    )


def scattering_amplitude(coupling: Coupling, kin: Kinematics,
                         theta: float) -> complex:
    """Scalar scattering amplitude f(theta), defined through
    psi ~ e^{-i k r cos theta + i alpha theta} + f(theta) e^{i k r} / sqrt(r)."""
    if abs(theta) >= math.pi:
        raise SingularArgumentError("amplitude diverges at theta = +/- pi")
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
    return abs(scattering_amplitude(coupling, kin, theta)) ** 2


def integrated_cross_section(coupling: Coupling, kin: Kinematics,
                             theta_cut: float = DEFAULT_FORWARD_CONE,
                             n_points: int = 4096) -> float:
    """Quadrature of |f|^2 over |theta| < pi - theta_cut."""
    from .numerics import gauss_panel_nodes

    edges = np.linspace(-(math.pi - theta_cut), math.pi - theta_cut, 65)
    nodes, weights = gauss_panel_nodes(edges, max(4, n_points // 64))
    s2 = math.sin(math.pi * coupling.frac) ** 2
    vals = s2 / (2.0 * math.pi * kin.k * np.cos(0.5 * nodes) ** 2)
    return float(np.sum(vals * weights))
