"""Helpers shared by the tests: sequence extrapolation, log-log slopes, an
mpmath oracle for the bare-tube outgoing-wave weight, two independent forms
of the propagator difference (the J_{+/-nu} bracket and the regularized
k-integral), and a fresh-interpreter runner."""

import cmath
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
from abdirac.errors import QuadratureError, RegimeError
from abdirac.model import Coupling
from abdirac.numerics import gauss_panel_nodes
from abdirac.propagate import _kernel_parts

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


def greens_diff_bracket(coupling: Coupling, mass: float, r: float, rp: float,
                        theta: float, thetap: float, t: float,
                        hbar: float = 1.0) -> complex:
    """Equivalent Bessel-pair form of the closed propagator difference."""
    nu, n0, pref = _kernel_parts(coupling, mass, t, hbar)
    if r <= 0 or rp <= 0:
        raise RegimeError("coordinates must be positive")
    if nu == 0.0:
        return 0.0j
    x = mass * r * rp / (hbar * t)
    phase = cmath.exp(1j * mass * (r * r + rp * rp) / (2.0 * hbar * t))
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
                                hbar: float = 1.0,
                                tol: float = 5e-3) -> complex:
    """Propagator difference from its defining k-integral.

    The Fresnel-type integral is tamed by a Gaussian regulator exp(-eps k^2)
    evaluated at eps, eps/2, eps/4 and extrapolated to eps -> 0 at second
    order; a spread of the extrapolants beyond `tol` raises.
    """
    nu, n0, _ = _kernel_parts(coupling, mass, t, hbar)
    if nu == 0.0:
        return 0.0j
    a = hbar * t / (2.0 * mass)
    if epsilon is None:
        k_char = mass * (r + rp) / (hbar * t) + 1.0 / max(r, rp)
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
