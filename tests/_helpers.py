"""Helpers shared by the tests: sequence extrapolation, log-log slopes, an
mpmath oracle for the bare-tube outgoing-wave weight and one for the four
radial components of a partial wave, the shielded matching
denominator with its small-kR0 leading form, an mpmath oracle for the Dirac
scattering state, two independent forms of the propagator difference (the
J_{+/-nu} bracket and the regularized k-integral), and a fresh-interpreter
runner."""

import cmath
import functools
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

import abdirac
from abdirac import specfun as sf
from abdirac.bare_tube import _ladder_coefficient, _matching_terms, exterior_order
from abdirac.errors import QuadratureError, RegimeError
from abdirac.model import BarrierConfig, Coupling, Kinematics, barrier_kappa
from abdirac.numerics import gauss_panel_nodes
from abdirac.propagate import _kernel_parts
from abdirac.shielded import _edge_s

SRC = str(Path(abdirac.__file__).resolve().parents[1])


def run_python(code: str, timeout: float = 60.0) -> str:
    """Standard output of `code` run in a fresh interpreter with the package
    on its path.  A child still running after `timeout` seconds is killed and
    the calling test fails, so a hang cannot stall the suite."""
    env = {**os.environ, "PYTHONPATH": SRC}
    try:
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        pytest.fail(f"child did not finish within {timeout} s")
    assert run.returncode == 0, run.stderr
    return run.stdout.strip()


def aitken_limit(values) -> tuple[complex, float]:
    """Accelerated limit of a sequence sampled on a geometric parameter grid.

    Repeated Aitken delta-squared sweeps; works for complex sequences whose
    error is a sum of power terms.  Returns (limit, error_estimate).
    """
    seq = [complex(v) for v in values]
    if len(seq) < 3:
        if not seq:
            raise QuadratureError("empty sequence")
        return seq[-1], float("inf")
    prev_best = seq[-1]
    while len(seq) >= 3:
        nxt = []
        for i in range(len(seq) - 2):
            d1 = seq[i + 1] - seq[i]
            d2 = seq[i + 2] - seq[i + 1]
            denom = d2 - d1
            if denom == 0:
                nxt.append(seq[i + 2])
            else:
                nxt.append(seq[i + 2] - d2 * d2 / denom)
        err = abs(nxt[-1] - prev_best)
        prev_best = nxt[-1]
        seq = nxt
    return prev_best, abs(err)


def loglog_slope(x, y) -> float:
    """Least-squares slope of log|y| against log x."""
    lx = np.log(np.asarray(x, dtype=float))
    ly = np.log(np.abs(np.asarray(y)))
    return float(np.polyfit(lx, ly, 1)[0])


def mp_bare_weight(alpha: float, l: int, channel: int, kr0: float, dps: int = 50) -> complex:
    """Outgoing-wave weight A of a bare tube, every step in mpmath at `dps` digits.

    Written from the equations, not from the library: the interior is
    e^{-alpha rho^2/2} F(a|c|alpha rho^2) (hyp1f1) with the signed coupling
    and a = (m + 1 - l_ch)/2 - k_ch^2 r0^2 / (4 alpha), k_ch^2 = k^2 + 2 spin
    alpha / r0^2; the exterior is J_nu + A (J_nu + i Y_nu) with derivatives
    from mpmath.  A depends on k and r0 only through k r0, so k = 1.
    """
    l_ch, spin = (l, 1) if channel == 1 else (l + 1, -1)
    m = abs(l_ch)
    with mpmath.workdps(dps):
        al, x = mpmath.mpf(alpha), mpmath.mpf(kr0)
        nu = abs(l_ch - al)
        if alpha == 0:
            rd = x * mpmath.besselj(m, x, 1) / mpmath.besselj(m, x)
        else:
            a = mpmath.mpf(m + 1 - l_ch) / 2 - (x * x + 2 * spin * al) / (4 * al)
            c = m + 1
            ratio = (a / c) * mpmath.hyp1f1(a + 1, c + 1, al) / mpmath.hyp1f1(a, c, al)
            rd = m - al + 2 * al * ratio  # r0 d(ln chi)/dr at r0
        j, jp = mpmath.besselj(nu, x), mpmath.besselj(nu, x, 1)
        h = j + 1j * mpmath.bessely(nu, x)
        hp = jp + 1j * mpmath.bessely(nu, x, 1)
        return complex(-(x * jp - rd * j) / (x * hp - rd * h))


def mp_ladder_components(l: int, alpha: float, kin: Kinematics, r: float,
                         dps: int = 30) -> list[complex]:
    """The four radial components (chi1, chi2, chi3, chi4) at r of a partial
    wave with positive orders l - alpha and l + 1 - alpha and a1 = a2 = 1,
    in mpmath at `dps` digits.

    Written from the ladder relations, not from the library's choice of
    order and sign: chi3 = c (chi2' + ((l + 1 - alpha)/r) chi2) and
    chi4 = c (chi1' - ((l - alpha)/r) chi1), c = -i/(E + M), with J' from
    mpmath.
    """
    with mpmath.workdps(dps):
        k, al = mpmath.mpf(kin.k), mpmath.mpf(alpha)
        x = k * mpmath.mpf(r)
        nu1, nu2 = l - al, l + 1 - al
        c = -1j * k / (mpmath.mpf(kin.energy_E) + mpmath.mpf(kin.mass_M))
        j1, j2 = mpmath.besselj(nu1, x), mpmath.besselj(nu2, x)
        chi3 = c * (mpmath.besselj(nu2, x, 1) + nu2 / x * j2)
        chi4 = c * (mpmath.besselj(nu1, x, 1) - nu1 / x * j1)
        return [complex(v) for v in (j1, j2, chi3, chi4)]


def shielded_matching_denominator(l: int, channel: int, barrier: BarrierConfig,
                                  kin: Kinematics, coupling: Coupling) -> complex:
    """Exact denominator H'_nu - (kappa/k) f H_nu at x = k R0.

    The matching formula's D = x H_{nu-1} - s H_nu over x, with the s of
    `shielded.shielded_matching`.
    """
    nu, _, s = _edge_s(l, channel, barrier, kin, coupling)
    x = kin.k * barrier.R0
    return complex(_matching_terms(nu, x, s)[1] / x)


def denominator_leading_form(l: int, channel: int, barrier: BarrierConfig,
                             kin: Kinematics, coupling: Coupling) -> complex:
    """Small-kR0 leading form of the shielded matching denominator.

    With Lambda -> 1 the denominator is H_nu(kR0) times an elementary bracket;
    this returns bracket * H_nu(kR0) for direct comparison with the exact one.
    """
    nu = exterior_order(l, channel, coupling.alpha)
    ew = kin.energy_E + kin.mass_M
    U = barrier.U
    kappa = barrier_kappa(kin, U)
    x = kin.k * barrier.R0
    u_num = nu - _ladder_coefficient(l, channel, coupling.alpha)
    bracket = (ew * (-nu / x - kappa / kin.k) + U * u_num / x) / (ew - U)
    return complex(bracket * sf.hankel1(nu, x))


@functools.lru_cache(maxsize=None)
def _mp_partial_waves(nu: float, x: float, dps: int) -> tuple:
    """mpmath coefficients e^{-i pi |l - nu|/2} J_{|l - nu|}(x) of the reduced
    sum, as {l: coefficient}, taken outward from l = 0 on each side until an
    order above x has a term below 10^-(dps - 10); plus the negative-order
    waves e^{i pi mu/2} J_{-mu}(x) for mu = nu, 1 - nu."""
    with mpmath.workdps(dps):
        nu_mp, x_mp = mpmath.mpf(nu), mpmath.mpf(x)
        small = mpmath.mpf(10) ** (10 - dps)
        waves = {}
        for sign in (-1, 1):  # l <= 0: order nu - l; l >= 1: order l - nu
            l = 0 if sign < 0 else 1
            while True:
                order = abs(l - nu_mp)
                val = mpmath.expjpi(-order / 2) * mpmath.besselj(order, x_mp)
                waves[l] = val
                if order > x_mp and abs(val) < small:
                    break
                l += sign
        irregular = tuple(mpmath.expjpi(mu / 2) * mpmath.besselj(-mu, x_mp)
                          for mu in (nu_mp, 1 - nu_mp))
        return waves, irregular


def mp_dirac_state(kind: str, amplitudes, coupling: Coupling, kin, r: float,
                   thetas, dps: int = 30) -> np.ndarray:
    """Four-spinor scattering state at radius r, every step in mpmath; (4, n).

    Written from the partial waves, not from the library's Hankel terms.  psi
    is the regular sum sum_l e^{-i pi |l - nu|/2} J_{|l - nu|}(kr) e^{i l theta}
    at the reduced coupling nu = frac(alpha); psi_l0 and psi_l1 are psi with
    the l = 0 (l = 1) wave J_mu, mu = nu (1 - nu), exchanged for the
    divergent e^{i pi mu/2} J_{-mu}.  With w = k / (E + M):
    shielded (a1 psi, a2 psi, -w a2 psi_l0, -w a1 psi_l1); bare at alpha > 0
    (a1 psi_l0, a2 psi, -w a2 psi_l0, -w a1 psi) and at alpha < 0, where the
    surviving wave is in spin channel 2, (a1 psi, a2 psi_l1, -w a2 psi,
    -w a1 psi_l1); all times e^{i [alpha] theta}.
    """
    nu = coupling.frac
    waves, (irr0, irr1) = _mp_partial_waves(nu, kin.k * r, dps)
    out = np.empty((4, len(thetas)), dtype=complex)
    with mpmath.workdps(dps):
        a1, a2 = mpmath.mpc(complex(amplitudes.a1)), mpmath.mpc(complex(amplitudes.a2))
        w = mpmath.mpf(kin.k) / (mpmath.mpf(kin.energy_E) + kin.mass_M)
        for j, theta in enumerate(thetas):
            th = mpmath.mpf(float(theta))
            psi = mpmath.fsum(c * mpmath.expj(l * th) for l, c in waves.items())
            psi_l0 = psi + irr0 - waves[0]
            psi_l1 = psi + (irr1 - waves[1]) * mpmath.expj(th)
            if kind == "shielded":
                comps = (a1 * psi, a2 * psi, -w * a2 * psi_l0, -w * a1 * psi_l1)
            elif coupling.alpha > 0:
                comps = (a1 * psi_l0, a2 * psi, -w * a2 * psi_l0, -w * a1 * psi)
            else:
                comps = (a1 * psi, a2 * psi_l1, -w * a2 * psi, -w * a1 * psi_l1)
            gauge = mpmath.expj(coupling.int_part * th)
            out[:, j] = [complex(c * gauge) for c in comps]
    return out


def greens_diff_bracket(coupling: Coupling, mass: float, r: float, rp: float,
                        theta: float, thetap: float, t: float) -> complex:
    """Equivalent Bessel-pair form of the closed propagator difference
    (mass is M / hbar)."""
    nu, n0, pref = _kernel_parts(coupling, mass, t)
    if r <= 0 or rp <= 0:
        raise RegimeError("coordinates must be positive")
    if nu == 0.0:
        return 0.0j
    x = mass * r * rp / t
    phase = cmath.exp(1j * mass * (r * r + rp * rp) / (2.0 * t))
    bracket = cmath.exp(0.5j * math.pi * nu) * sf.bessel_j(-nu, x) - cmath.exp(
        -0.5j * math.pi * nu
    ) * sf.bessel_j(nu, x)
    return complex(-1j * pref * bracket * phase * cmath.exp(1j * n0 * (theta - thetap)))


def _oscillatory_k_integral(nu: float, r: float, rp: float, a: float,
                            eps: float) -> complex:
    """integral_0^inf k dk [J_-nu(kr) J_-nu(krp) - J_nu(kr) J_nu(krp)]
    * exp(-i a k^2 - eps k^2), by phase-adaptive panel quadrature."""
    k_max = math.sqrt(42.0 / eps)
    b = r + rp

    # inner piece with the k^{1-2nu} endpoint behaviour: substitute k = u^2
    k_split = min(0.5 / max(r, rp), 0.25 * k_max)
    u_split = math.sqrt(k_split)
    edges_u = np.linspace(0.0, u_split, 9)
    nodes_u, w_u = gauss_panel_nodes(edges_u, 12)
    k_in = nodes_u ** 2
    w_in = w_u * 2.0 * nodes_u

    # outer piece: panels sized by the total phase a k^2 + (r + rp) k
    def edge_grid():
        n_est = int((a * k_max * k_max + b * k_max) / 2.0) + 8
        n_est = min(max(n_est, 8), 60000)
        targets = np.linspace(0.0, a * k_max * k_max + b * k_max, n_est + 1)
        disc = b * b + 4.0 * a * targets
        if a > 0:
            ks = (-b + np.sqrt(disc)) / (2.0 * a)
        else:
            ks = targets / b if b > 0 else np.linspace(k_split, k_max, n_est + 1)
        ks[0] = k_split
        ks[-1] = k_max
        return np.unique(np.clip(ks, k_split, k_max))

    nodes_out, w_out = gauss_panel_nodes(edge_grid(), 12)
    k_all = np.concatenate([k_in, nodes_out])
    w_all = np.concatenate([w_in, w_out])

    jm_r = sf.bessel_j(-nu, k_all * r)
    jm_p = sf.bessel_j(-nu, k_all * rp)
    jp_r = sf.bessel_j(nu, k_all * r)
    jp_p = sf.bessel_j(nu, k_all * rp)
    integrand = (
        k_all
        * (jm_r * jm_p - jp_r * jp_p)
        * np.exp(-(1j * a + eps) * k_all ** 2)
    )
    return complex(np.sum((integrand * w_all).astype(np.clongdouble)))


def greens_diff_integral_oracle(coupling: Coupling, mass: float, r: float,
                                rp: float, theta: float, thetap: float,
                                t: float, epsilon: float | None = None,
                                tol: float = 5e-3) -> complex:
    """Propagator difference from its defining k-integral.

    The Fresnel-type integral is tamed by a Gaussian regulator exp(-eps k^2)
    evaluated at eps, eps/2, eps/4 and extrapolated to eps -> 0 at second
    order; a spread of the extrapolants beyond `tol` raises.
    """
    nu, n0, _ = _kernel_parts(coupling, mass, t)
    if nu == 0.0:
        return 0.0j
    a = t / (2.0 * mass)
    if epsilon is None:
        k_char = mass * (r + rp) / t + 1.0 / max(r, rp)
        epsilon = 0.05 / (k_char * k_char)
    vals = [
        _oscillatory_k_integral(nu, r, rp, a, e)
        for e in (epsilon, epsilon / 2.0, epsilon / 4.0)
    ]
    first = 2.0 * vals[1] - vals[0]
    second = (8.0 * vals[2] - 6.0 * vals[1] + vals[0]) / 3.0
    scale = max(abs(second), 1e-300)
    if abs(second - first) > tol * scale:
        raise QuadratureError(
            f"regulator extrapolation spread {abs(second - first) / scale:.2e} "
            f"exceeds {tol:.1e}"
        )
    return complex(second / (2.0 * math.pi) * cmath.exp(1j * n0 * (theta - thetap)))
