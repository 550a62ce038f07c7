"""Non-relativistic propagator difference between bare and shielded strings,
and the wave-packet suppression law.

Only one partial wave, l = [alpha], distinguishes the two configurations, so
the difference of the time-domain Green's functions is a single k-integral
over the swapped-order Bessel pair.  It evaluates in closed form to a
fractional-order Hankel function of M r r' / (hbar t) times a free-propagator
Gaussian phase; for large argument that collapses to an elementary outgoing
wave.  Three independent representations (regularized quadrature, closed
form, asymptotic form) cross-check each other.

Folding the kernel against a Gaussian packet of width delta launched at
(rho0, theta0) with momentum hbar k toward the axis yields the packet
difference Delta.  Its stationary-phase closed form factorizes into a moving
Gaussian envelope and the suppression factor exp(-d^2 / (2 delta^2)) in the
impact parameter d = rho0 * theta0: the bare/shielded distinction lives
entirely in the probability mass that actually overlaps the flux region.

All formulas use hbar = 1 by default; pass `hbar` explicitly for other unit
schemes.  The closed packet form is stated for positive coupling; negative
coupling is handled by the mirror reflection (alpha, theta, theta0) ->
(-alpha, -theta, -theta0).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from . import specfun as sf
from .errors import QuadratureError, RegimeError, SingularArgumentError
from .model import Coupling
from .numerics import gauss_panel_nodes

__all__ = [
    "PacketConfig",
    "greens_diff_closed",
    "greens_diff_bracket",
    "greens_diff_asymptotic",
    "greens_diff_integral_oracle",
    "packet_initial",
    "packet_norm",
    "delta_closed",
    "delta_quadrature",
    "peak_time",
    "suppression_scan",
    "transit_fit",
]


@dataclass(frozen=True)
class PacketConfig:
    """Incident Gaussian packet: width, launch point and wavenumber.

    The derived impact parameter is d = rho0 * theta0.  The closed packet
    difference additionally needs rho0 << k delta^2 and r << k delta^2, which
    is checked where it applies.
    """

    delta: float
    rho0: float
    theta0: float
    k: float
    d: float = field(init=False)

    def __post_init__(self):
        if self.delta <= 0 or self.rho0 <= 0 or self.k <= 0:
            raise RegimeError("packet needs positive delta, rho0 and k")
        if abs(self.theta0) > 0.3:
            raise RegimeError("packet launch angle must satisfy |theta0| << 1")
        if self.delta / self.rho0 > 0.3:
            raise RegimeError("packet width must satisfy delta << rho0")
        if self.k * self.rho0 < 30.0:
            raise RegimeError("packet needs k * rho0 >> 1")
        object.__setattr__(self, "d", self.rho0 * self.theta0)


def _kernel_parts(coupling: Coupling, mass: float, t: float, hbar: float):
    if t <= 0:
        raise SingularArgumentError("propagator difference needs t > 0")
    nu = coupling.frac
    n0 = coupling.int_part
    pref = mass / (2.0 * math.pi * hbar * t)
    return nu, n0, pref


def _radial_args(mass: float, r: float, rp, t: float, hbar: float):
    """Kernel argument M r r' / (hbar t) and free-propagator phase; array rp."""
    x = mass * r * rp / (hbar * t)
    return x, np.exp(1j * mass * (r * r + rp * rp) / (2.0 * hbar * t))


def _radial_kernel(nu: float, pref: float, mass: float, r: float, rp, t: float,
                   hbar: float):
    """pref sin(pi nu) e^{i pi nu / 2} H^(1)_nu(M r r'/(hbar t)) times the
    free-propagator phase: the propagator difference before its angular
    factor e^{i n0 (theta - theta')}.  Array-capable in rp."""
    x, phase = _radial_args(mass, r, rp, t, hbar)
    return (
        pref * math.sin(math.pi * nu) * cmath.exp(0.5j * math.pi * nu)
        * sf.hankel1(nu, x) * phase
    )


def greens_diff_closed(coupling: Coupling, mass: float, r: float, rp: float,
                       theta: float, thetap: float, t: float,
                       hbar: float = 1.0) -> complex:
    """Closed propagator difference: fractional-order outgoing Hankel kernel."""
    nu, n0, pref = _kernel_parts(coupling, mass, t, hbar)
    if r <= 0 or rp <= 0:
        raise RegimeError("coordinates must be positive")
    if nu == 0.0:
        return 0.0j
    return complex(
        _radial_kernel(nu, pref, mass, r, rp, t, hbar)
        * cmath.exp(1j * n0 * (theta - thetap))
    )


def greens_diff_bracket(coupling: Coupling, mass: float, r: float, rp: float,
                        theta: float, thetap: float, t: float,
                        hbar: float = 1.0) -> complex:
    """Equivalent Bessel-pair form of the closed propagator difference."""
    nu, n0, pref = _kernel_parts(coupling, mass, t, hbar)
    if r <= 0 or rp <= 0:
        raise RegimeError("coordinates must be positive")
    if nu == 0.0:
        return 0.0j
    x, phase = _radial_args(mass, r, rp, t, hbar)
    bracket = cmath.exp(0.5j * math.pi * nu) * sf.bessel_j(-nu, x) - cmath.exp(
        -0.5j * math.pi * nu
    ) * sf.bessel_j(nu, x)
    return complex(-1j * pref * bracket * phase * cmath.exp(1j * n0 * (theta - thetap)))


def greens_diff_asymptotic(coupling: Coupling, mass: float, r: float, rp: float,
                           theta: float, thetap: float, t: float,
                           hbar: float = 1.0) -> complex:
    """Large-argument form, valid for M r r' / (hbar t) >= 10."""
    nu, n0, _ = _kernel_parts(coupling, mass, t, hbar)
    x = mass * r * rp / (hbar * t)
    if x < 10.0:
        raise RegimeError(f"asymptotic kernel needs M r r'/(hbar t) >= 10, got {x:.3g}")
    if nu == 0.0:
        return 0.0j
    amp = math.sqrt(mass / (2.0 * math.pi ** 3 * hbar * t * r * rp))
    return complex(
        amp
        * math.sin(math.pi * nu)
        * cmath.exp(
            1j * mass * (r + rp) ** 2 / (2.0 * hbar * t)
            + 1j * n0 * (theta - thetap)
            - 0.25j * math.pi
        )
    )


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


def packet_initial(cfg: PacketConfig, coupling: Coupling, rp, thetap):
    """Initial Gaussian packet, momentum toward the axis; array-capable.

    The plane-wave phase is expanded to second order in the polar angle,
    which is what makes the closed packet difference tractable; the e^{i
    alpha theta'} prefactor carries the full (unreduced) coupling.
    """
    rp = np.asarray(rp, dtype=float)
    thetap = np.asarray(thetap, dtype=float)
    alpha = coupling.alpha
    d2 = 2.0 * cfg.delta * cfg.delta
    exponent = (
        1j * alpha * thetap
        - 1j * cfg.k * rp * (1.0 - 0.5 * thetap ** 2)
        - (
            rp ** 2
            + cfg.rho0 ** 2
            - 2.0 * rp * cfg.rho0 * (1.0 - 0.5 * (thetap - cfg.theta0) ** 2)
        )
        / d2
    )
    out = np.exp(exponent) / (math.sqrt(math.pi) * cfg.delta)
    return out if out.ndim else complex(out)


def packet_norm(cfg: PacketConfig, coupling: Coupling, n_sigma: float = 8.0,
                n_r: int = 400, n_theta: int = 400) -> float:
    """Quadrature of |packet|^2 r' dr' dtheta' over the packet support."""
    r_lo = max(cfg.rho0 - n_sigma * cfg.delta, 1e-6 * cfg.rho0)
    r_hi = cfg.rho0 + n_sigma * cfg.delta
    s_th = cfg.delta / math.sqrt(r_lo * cfg.rho0)
    th_lo, th_hi = cfg.theta0 - n_sigma * s_th, cfg.theta0 + n_sigma * s_th
    r_nodes, r_w = gauss_panel_nodes(np.linspace(r_lo, r_hi, n_r // 8), 8)
    t_nodes, t_w = gauss_panel_nodes(np.linspace(th_lo, th_hi, n_theta // 8), 8)
    vals = np.abs(packet_initial(cfg, coupling, r_nodes[:, None], t_nodes[None, :])) ** 2
    return float(np.einsum("i,j,ij->", r_w * r_nodes, t_w, vals))


def peak_time(cfg: PacketConfig, r: float, mass: float = 1.0,
              hbar: float = 1.0) -> float:
    """Arrival time of the packet-difference envelope at radius r."""
    return (r + cfg.rho0 - 0.5 * cfg.rho0 * cfg.theta0 ** 2) * mass / (hbar * cfg.k)


def _require_closed_regime(cfg: PacketConfig, r: float):
    kd2 = cfg.k * cfg.delta * cfg.delta
    if cfg.k * r < 30.0:
        raise RegimeError("closed packet difference needs k r >> 1")
    if cfg.rho0 > 0.3 * kd2 or r > 0.3 * kd2:
        raise RegimeError(
            "closed packet difference needs rho0, r << k delta^2"
        )


def _positive_coupling(cfg: PacketConfig, coupling: Coupling, theta: float):
    """The packet forms are stated for alpha > 0; negative coupling maps onto
    them by the mirror (theta0, alpha, theta) -> (-theta0, -alpha, -theta)."""
    if coupling.alpha == 0.0:
        raise RegimeError("packet difference needs nonzero coupling")
    if coupling.alpha > 0.0:
        return cfg, coupling, theta
    mirrored = PacketConfig(delta=cfg.delta, rho0=cfg.rho0, theta0=-cfg.theta0, k=cfg.k)
    return mirrored, Coupling(-coupling.alpha), -theta


def delta_closed(cfg: PacketConfig, coupling: Coupling, mass: float, r: float,
                 theta: float, t: float, hbar: float = 1.0) -> complex:
    """Closed stationary-phase form of the packet difference.

    Moving Gaussian envelope times the impact-parameter suppression
    exp(-rho0^2 theta0^2 / (2 delta^2)); stated for positive coupling and
    mirrored for negative.
    """
    cfg, coupling, theta = _positive_coupling(cfg, coupling, theta)
    _require_closed_regime(cfg, r)
    if t <= 0:
        raise SingularArgumentError("packet difference needs t > 0")
    nu = coupling.frac
    n0 = coupling.int_part
    d2 = 2.0 * cfg.delta * cfg.delta
    envelope_arg = r + cfg.rho0 - hbar * cfg.k * t / mass - 0.5 * cfg.rho0 * cfg.theta0 ** 2
    pref = cmath.exp(0.25j * math.pi) * math.sqrt(2.0) / (math.pi * cfg.delta)
    return complex(
        pref
        * math.sin(math.pi * nu)
        * cmath.exp(1j * cfg.k * r + 1j * n0 * theta)
        / math.sqrt(cfg.k * r)
        * cmath.exp(-1j * hbar * cfg.k ** 2 * t / (2.0 * mass))
        * math.exp(-cfg.rho0 ** 2 * cfg.theta0 ** 2 / d2)
        * math.exp(-(envelope_arg ** 2) / d2)
    )


def _edges_from_rate(a: float, b: float, rate_fn, max_phase: float,
                     max_panels: int = 20000) -> np.ndarray:
    grid = np.linspace(a, b, 4097)
    rate = np.maximum(rate_fn(grid), 1e-12)
    acc = np.concatenate([[0.0], np.cumsum(0.5 * (rate[1:] + rate[:-1]) * np.diff(grid))])
    n = max(math.ceil(acc[-1] / max_phase), 4)
    if n > max_panels:
        raise QuadratureError(
            f"packet quadrature needs {n} panels on [{a:.3g}, {b:.3g}], "
            f"above the cap of {max_panels}"
        )
    targets = np.linspace(0.0, acc[-1], n + 1)
    edges = np.interp(targets, acc, grid)
    edges[0], edges[-1] = a, b
    return np.unique(edges)


def delta_quadrature(cfg: PacketConfig, coupling: Coupling, mass: float,
                     r: float, theta: float, t: float, hbar: float = 1.0,
                     n_sigma: float = 6.0, max_phase: float = 2.5,
                     gauss_order: int = 10, refine_check: bool = False) -> complex:
    """Packet difference by direct 2-d quadrature of kernel x packet.

    Uses the exact closed kernel (not its asymptotic form), phase-adaptive
    Gauss-Legendre panels over the packet's n-sigma support, and extended
    precision for the final reduction.  `refine_check=True` re-evaluates on a
    1.5x finer panel set and raises if the two disagree by more than 1e-4
    relative.  A window whose phase needs more panels than the cap (one that
    reaches down to the axis, n_sigma * delta >= rho0) raises QuadratureError
    before any grid is built.
    """
    cfg, coupling, theta = _positive_coupling(cfg, coupling, theta)
    nu, n0, pref = _kernel_parts(coupling, mass, t, hbar)
    alpha = coupling.alpha

    def evaluate(phase_cap: float, order: int) -> complex:
        d2 = 2.0 * cfg.delta * cfg.delta
        r_lo = max(cfg.rho0 - n_sigma * cfg.delta, 1e-3 * cfg.rho0)
        r_hi = cfg.rho0 + n_sigma * cfg.delta
        s_th = cfg.delta / math.sqrt(r_lo * cfg.rho0)
        th_lo = cfg.theta0 - n_sigma * s_th
        th_hi = cfg.theta0 + n_sigma * s_th
        th_amp = max(abs(th_lo), abs(th_hi))

        # combined radial phase rate (kernel + packet, which nearly cancel at
        # the stationary point) plus the angular-coupling term at the window edge
        def radial_rate_full(s):
            return np.abs(mass * s / (hbar * t) + mass * r / (hbar * t) - cfg.k) \
                + cfg.k * 0.5 * th_amp ** 2

        def angular_rate(th):
            return abs(alpha) + cfg.k * r_hi * np.abs(th) + abs(n0)

        r_edges = _edges_from_rate(r_lo, r_hi, radial_rate_full, phase_cap)
        th_edges = _edges_from_rate(th_lo, th_hi, angular_rate, phase_cap)
        r_nodes, r_w = gauss_panel_nodes(r_edges, order)
        t_nodes, t_w = gauss_panel_nodes(th_edges, order)

        kernel_r = _radial_kernel(nu, pref, mass, r, r_nodes, t, hbar)
        kernel_th = np.exp(1j * n0 * (theta - t_nodes))

        a_r = -1j * cfg.k * r_nodes - r_nodes ** 2 / d2 + 2.0 * r_nodes * cfg.rho0 / d2
        b_th = 1j * alpha * t_nodes - cfg.rho0 ** 2 / d2
        c_th = 0.5j * cfg.k * t_nodes ** 2 - cfg.rho0 * (t_nodes - cfg.theta0) ** 2 / d2
        coupling_2d = np.exp(np.outer(r_nodes, c_th))
        psi = (
            np.exp(a_r)[:, None]
            * np.exp(b_th)[None, :]
            * coupling_2d
            / (math.sqrt(math.pi) * cfg.delta)
        )
        left = (r_w * r_nodes * kernel_r).astype(np.clongdouble)
        right = (t_w * kernel_th).astype(np.clongdouble)
        total = left @ psi.astype(np.clongdouble) @ right
        return complex(total)

    value = evaluate(max_phase, gauss_order)
    if refine_check:
        finer = evaluate(max_phase / 1.5, gauss_order + 2)
        if abs(finer - value) > 1e-4 * max(abs(finer), 1e-300):
            raise QuadratureError(
                f"packet quadrature not converged: {abs(finer - value):.3e} "
                f"vs {abs(finer):.3e}"
            )
        value = finer
    return value


def suppression_scan(cfg_template: PacketConfig, d_values, coupling: Coupling,
                     mass: float = 1.0, r: float | None = None,
                     hbar: float = 1.0, use_quadrature: bool = False):
    """Impact-parameter sweep at matched envelope-peak times.

    Returns a list of rows {d, theta0, t, delta_abs, suppression_expected,
    [delta_quad_abs]}; the reference row d = 0 normalizes the law
    |Delta(d)| / |Delta(0)| = exp(-d^2 / (2 delta^2)).
    """
    if r is None:
        r = cfg_template.rho0
    rows = []
    for d in d_values:
        theta0 = d / cfg_template.rho0
        cfg = PacketConfig(
            delta=cfg_template.delta,
            rho0=cfg_template.rho0,
            theta0=theta0,
            k=cfg_template.k,
        )
        t = peak_time(cfg, r, mass, hbar)
        val = delta_closed(cfg, coupling, mass, r, 0.0, t, hbar)
        row = {
            "d": float(d),
            "theta0": theta0,
            "t": t,
            "delta_abs": abs(val),
            "suppression_expected": math.exp(
                -(d * d) / (2.0 * cfg.delta * cfg.delta)
            ),
        }
        if use_quadrature:
            qval = delta_quadrature(cfg, coupling, mass, r, 0.0, t, hbar)
            row["delta_quad_abs"] = abs(qval)
        rows.append(row)
    return rows


def transit_fit(cfg: PacketConfig, coupling: Coupling, mass: float = 1.0,
                r: float | None = None, hbar: float = 1.0,
                n_points: int = 21, span_sigma: float = 1.5):
    """Least-squares Gaussian fit of |Delta|(t) at fixed r.

    Returns {center, width, center_expected, width_expected} where the
    expected width is delta M / (hbar k).
    """
    if r is None:
        r = cfg.rho0
    t_star = peak_time(cfg, r, mass, hbar)
    width_expected = cfg.delta * mass / (hbar * cfg.k)
    ts = np.linspace(
        t_star - span_sigma * width_expected, t_star + span_sigma * width_expected,
        n_points,
    )
    mags = np.array(
        [abs(delta_closed(cfg, coupling, mass, r, 0.0, float(t), hbar)) for t in ts]
    )
    coeffs = np.polyfit(ts, np.log(mags), 2)
    width = math.sqrt(-0.5 / coeffs[0])
    center = -0.5 * coeffs[1] / coeffs[0]
    return {
        "center": center,
        "width": width,
        "center_expected": t_star,
        "width_expected": width_expected,
    }
