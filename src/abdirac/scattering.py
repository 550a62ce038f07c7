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
scalar coefficients e^{-i pi |l - nu|/2} J_{|l - nu|}(k r) from one Bessel
call, times the incident spinor, with the Hankel corrections added in the
l = 0 and l = 1 rows, since bare - shielded and each lower-component
correction live in one partial wave.  One product with the phases
e^{i (l + [alpha]) theta} then gives all four components at every angle.

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
from dataclasses import dataclass

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


def _j_orders(nu: float, inner: int, outer: int) -> np.ndarray:
    """|l - nu| for l = -outer..-inner, then l = max(inner, 1)..outer.

    l = -m <= 0 has order nu + m and l = m + 1 >= 1 order (1 - nu) + m, each in
    one rounding, so orders of a range continued outward are bit-identical to
    those of one wider range.
    """
    left = nu + np.arange(outer, inner - 1, -1)
    right = (1.0 - nu) + np.arange(max(inner, 1) - 1, outer)
    return np.concatenate((left, right))


def _wave_coefficients(nu: float, x: float, tol: float):
    """Coefficients e^{-i pi |l - nu|/2} J_{|l - nu|}(x) of the reduced sum.

    Returns (coefficients over signed l = -l_max..l_max, PartialWaveSum).
    """
    if not (0.0 <= nu < 1.0):
        raise RegimeError("reduced coupling must lie in [0, 1)")
    if x < 0:
        raise RegimeError("kr must be >= 0")
    l_max = truncation_order(x)
    chunk = _EXTENSION_CHUNK
    # one J call over l in [-n, n], n = l_max + chunk: the kept row plus the
    # next chunk at both ends.  A failed tail check appends the chunk after
    # that at both ends in one more call, so every order is evaluated once.
    # The cap is explicit because at large kr it exceeds the default one.
    n = l_max + chunk
    orders = _j_orders(nu, 0, n)
    js = sf.bessel_j(orders, x, max_order=float(n + 2))
    for attempt in range(_MAX_EXTENSIONS):
        if attempt:
            l_max += chunk
            n += chunk
            new_orders = _j_orders(nu, n - chunk + 1, n)
            ends = sf.bessel_j(new_orders, x, max_order=float(n + 2))
            orders = np.concatenate((new_orders[:chunk], orders, new_orders[chunk:]))
            js = np.concatenate((ends[:chunk], js, ends[chunk:]))
        # tail: sum of the next chunk's magnitudes at both ends, each taken
        # outward from the kept row, with a geometric bound for everything
        # beyond it
        down, up = np.abs(js[chunk - 1::-1]), np.abs(js[-chunk:])
        tail = float(down.sum() + up.sum())
        first, last = down[0] + up[0], down[-1] + up[-1]
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
    kept = slice(chunk, -chunk)
    coeffs = np.exp(-0.5j * math.pi * orders[kept]) * js[kept]
    info = PartialWaveSum(l_max=l_max, terms=2 * l_max + 1, tail_estimate=tail)
    return coeffs, info


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
    coeffs, info = _wave_coefficients(coupling.frac, kin.k * r, tol)
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

    Every column is the scalar column times (a1, a2, -w a2, -w a1), plus the
    Hankel corrections, each of which lives in one partial wave.  By
    e^{i pi nu/2} J_{-nu} - e^{-i pi nu/2} J_nu = i sin(pi nu) e^{i pi nu/2} H_nu,
    a Hankel term swaps a regular wave for the negative-order one:
    - l = 0, psi3 (both kinds) and psi1 (bare): J_nu -> J_{-nu};
    - l = 1, psi4 (shielded): J_{1-nu} -> J_{nu-1}.
    The bare string keeps psi4 regular: its extra column
    e^{i pi nu/2} sin(pi nu) H_{nu-1} cancels the shielded one exactly, since
    H_{nu-1} = e^{i pi (1-nu)} H_{1-nu} (DLMF 10.4.6).
    Returns (matrix, PartialWaveSum).
    """
    coeffs, info = _wave_coefficients(nu, x, tol)
    matrix = np.outer(coeffs, [a1, a2, -w * a2, -w * a1])
    if nu > 0.0:
        bare = kind == "bare"
        h = sf.hankel1(np.array([nu] if bare else [nu, 1.0 - nu]), x)
        s = math.sin(math.pi * nu)
        l0 = 1j * s * cmath.exp(0.5j * math.pi * nu) * h[0]
        zero = info.l_max  # row of l = 0
        matrix[zero, 2] -= w * a2 * l0
        if bare:
            matrix[zero, 0] += a1 * l0
        else:
            matrix[zero + 1, 3] += w * a1 * s * cmath.exp(-0.5j * math.pi * nu) * h[1]
    return matrix, info


def dirac_scattering_state(kind: str, amplitudes: SpinorAmplitudes,
                           coupling: Coupling, kin: Kinematics, r: float,
                           theta, tol: float = 1e-10) -> WaveFieldSample:
    """Four-spinor scattering state (t = 0 snapshot) at one radius.

    `kind` is "shielded" or "bare".  The shielded state is the scalar sum on
    all four components plus a divergent Hankel correction on the lower pair;
    the bare state adds the surviving-channel column proportional to a1.
    `theta` is a scalar or an array: every angle at the radius shares one
    coefficient matrix (Bessel and Hankel values, cutoff), and the four
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
