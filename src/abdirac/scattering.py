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
    """Four spinor components at one field point."""

    r: float
    theta: float
    psi1: complex
    psi2: complex
    psi3: complex
    psi4: complex

    def as_array(self) -> np.ndarray:
        return np.array([self.psi1, self.psi2, self.psi3, self.psi4])


def truncation_order(kr: float) -> int:
    """Initial angular-momentum cutoff for a partial-wave sum at argument kr."""
    return int(math.ceil(kr)) + 12 + int(math.ceil(4.0 * kr ** (1.0 / 3.0)))


def _reduced_sum(nu: float, x: float, theta, tol: float,
                 swap_l0_to_negative_order: bool):
    """Partial-wave sum for reduced coupling nu in [0, 1).

    Returns (values, PartialWaveSum).  With `swap_l0_to_negative_order` the
    l = 0 term uses e^{+i pi nu / 2} J_{-nu} instead of e^{-i pi nu / 2} J_nu
    (the bare string's surviving channel).
    """
    if not (0.0 <= nu < 1.0):
        raise RegimeError("reduced coupling must lie in [0, 1)")
    if x < 0:
        raise RegimeError("kr must be >= 0")
    theta_arr = np.atleast_1d(np.asarray(theta, dtype=float))
    l_max = truncation_order(x)
    for _ in range(_MAX_EXTENSIONS):
        # one ladder per side: l in [-l_max, 0] has orders nu + m, l in
        # [1, l_max] orders 1 - nu + m, each followed by the next chunk.  The
        # cap is explicit because at large kr it exceeds the default one.
        cap = float(l_max + _EXTENSION_CHUNK + 2)
        down_all = sf.bessel_j_ladder(nu, l_max + 1 + _EXTENSION_CHUNK, x, max_order=cap)
        up_all = sf.bessel_j_ladder(1.0 - nu, l_max + _EXTENSION_CHUNK, x, max_order=cap)
        down, tail_down = down_all[:l_max + 1], down_all[l_max + 1:]
        up, tail_up = up_all[:l_max], up_all[l_max:]
        # tail: sum of the next chunk's magnitudes on both ladders, with a
        # geometric bound for everything beyond it
        tail = float(np.sum(np.abs(tail_down)) + np.sum(np.abs(tail_up)))
        last = abs(tail_down[-1]) + abs(tail_up[-1])
        first = abs(tail_down[0]) + abs(tail_up[0])
        if first > 0 and last / first < 0.5:
            tail *= 2.0  # geometric remainder bound
        elif first > 0:
            tail *= 10.0
        if tail <= tol or x == 0:
            break
        l_max += _EXTENSION_CHUNK
    else:
        raise TruncationError(
            f"partial-wave tail {tail:.1e} above tolerance {tol:.1e} at l_max={l_max}"
        )

    m_down = np.arange(l_max + 1)
    m_up = np.arange(l_max)
    coeff_down = np.exp(-0.5j * math.pi * (nu + m_down)) * down
    coeff_up = np.exp(-0.5j * math.pi * (1.0 - nu + m_up)) * up
    if swap_l0_to_negative_order:
        if nu == 0.0:
            raise RegimeError("negative-order swap undefined at integer coupling")
        coeff_down = coeff_down.copy()
        coeff_down[0] = cmath.exp(0.5j * math.pi * nu) * sf.bessel_j(-nu, x)
    # l <= 0 terms carry e^{-i m theta}, l >= 1 terms e^{i (m+1) theta}
    phase_down = np.exp(-1j * np.outer(theta_arr, m_down))
    phase_up = np.exp(1j * np.outer(theta_arr, m_up + 1))
    vals = phase_down @ coeff_down + phase_up @ coeff_up
    info = PartialWaveSum(l_max=l_max, terms=2 * l_max + 1, tail_estimate=tail)
    if np.ndim(theta) == 0:
        return complex(vals[0]), info
    return vals, info


def ab_wavefunction(coupling: Coupling, kin: Kinematics, r: float, theta,
                    tol: float = 1e-10, return_info: bool = False):
    """Scalar scattering wave function of a shielded string (spinless form).

    Accepts scalar or array `theta`.  General coupling is reduced by the
    gauge shift; the returned function is exactly periodic in theta.
    """
    nu = coupling.frac
    x = kin.k * r
    vals, info = _reduced_sum(nu, x, theta, tol, swap_l0_to_negative_order=False)
    gauge = np.exp(1j * coupling.int_part * np.asarray(theta, dtype=float))
    out = vals * gauge if np.ndim(theta) else complex(vals * gauge)
    if return_info:
        return out, info
    return out


def bare_wavefunction_scalar(coupling: Coupling, kin: Kinematics, r: float,
                             theta, tol: float = 1e-10,
                             return_info: bool = False):
    """Scalar scattering wave function of a bare string.

    Identical to the shielded sum except in the surviving channel, where the
    negative-order Bessel term replaces the regular one.  Restricted to
    0 < alpha < 1, the range where this closed construction applies.
    """
    if not (0.0 < coupling.alpha < 1.0):
        raise RegimeError("bare scalar wave function requires 0 < alpha < 1")
    nu = coupling.alpha
    x = kin.k * r
    vals, info = _reduced_sum(nu, x, theta, tol, swap_l0_to_negative_order=True)
    out = vals if np.ndim(theta) else complex(vals)
    if return_info:
        return out, info
    return out


def _lower_weight(kin: Kinematics) -> float:
    """hbar c k / (E + Mc^2): the small parameter of the lower components."""
    return kin.hbar * kin.c * kin.k / (kin.energy_E + kin.rest_energy)


def dirac_scattering_state(kind: str, amplitudes: SpinorAmplitudes,
                           coupling: Coupling, kin: Kinematics, r: float,
                           theta: float, tol: float = 1e-10) -> WaveFieldSample:
    """Four-spinor scattering state (t = 0 snapshot) at one field point.

    `kind` is "shielded" or "bare".  The shielded state is the scalar sum on
    all four components plus a divergent Hankel correction on the lower pair;
    the bare state adds the surviving-channel column proportional to a1.
    """
    if kind not in ("bare", "shielded"):
        raise RegimeError("kind must be 'bare' or 'shielded'")
    if r <= 0:
        raise RegimeError("field point needs r > 0")
    nu = coupling.frac
    if kind == "bare" and coupling.is_integer:
        raise RegimeError("bare-string construction needs non-integer coupling")
    a1, a2 = complex(amplitudes.a1), complex(amplitudes.a2)
    x = kin.k * r
    w = _lower_weight(kin)
    s = math.sin(math.pi * nu)
    psi_sh, _ = _reduced_sum(nu, x, theta, tol, swap_l0_to_negative_order=False)
    psi1 = a1 * psi_sh
    psi2 = a2 * psi_sh
    psi3 = -w * a2 * psi_sh
    psi4 = -w * a1 * psi_sh
    if nu > 0.0:
        h_nu = sf.hankel1(nu, x)
        h_one_minus = sf.hankel1(1.0 - nu, x)
        psi3 = psi3 - 1j * w * a2 * cmath.exp(0.5j * math.pi * nu) * s * h_nu
        psi4 = psi4 + w * a1 * cmath.exp(-0.5j * math.pi * nu) * s * h_one_minus * cmath.exp(1j * theta)
        if kind == "bare":
            h_down = sf.hankel1(nu - 1.0, x)
            psi1 = psi1 + 1j * a1 * cmath.exp(0.5j * math.pi * nu) * s * h_nu
            psi4 = psi4 + w * a1 * cmath.exp(0.5j * math.pi * nu) * s * h_down * cmath.exp(1j * theta)
    gauge = cmath.exp(1j * coupling.int_part * theta)
    return WaveFieldSample(
        r=r,
        theta=theta,
        psi1=complex(psi1 * gauge),
        psi2=complex(psi2 * gauge),
        psi3=complex(psi3 * gauge),
        psi4=complex(psi4 * gauge),
    )


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
