"""Non-relativistic propagator difference between bare and shielded strings,
and the wave-packet suppression law.

Only one partial wave, l = [alpha], distinguishes the two configurations, so
the difference of the time-domain Green's functions is a single k-integral
over the swapped-order Bessel pair.  It evaluates in closed form to a
fractional-order Hankel function of x = M r r' / (hbar t) times a
free-propagator Gaussian phase.  Written with the scaled e^{-ix} H^(1)_nu(x),
the two phases merge into the one kernel phase M (r + r')^2 / (2 hbar t),
which the closed kernel, its large-x limit (an elementary outgoing wave) and
the packet fold all take from `_kernel_phase`.  The asymptotic form
cross-checks the closed one; the test suite adds two independent
representations (a regularized k-quadrature and the J_{+/-nu} bracket with
the free phase).

Folding the kernel against a Gaussian packet of width delta launched at
(rho0, theta0) with momentum hbar k toward the axis yields the packet
difference Delta.  Its stationary-phase closed form factorizes into a moving
Gaussian envelope and the suppression factor exp(-d^2 / (2 delta^2)) in the
impact parameter d = rho0 * theta0: the bare/shielded distinction lives
entirely in the probability mass that actually overlaps the flux region.
The packet is Gaussian in theta' and the kernel depends on theta' only
through e^{-i n0 theta'}, so the theta' integral is done in closed form and
the quadrature of Delta is a 1-d radial sum, its phase written as a square
completed about the stationary point.

The surviving partial wave is `bare_tube.anomalous_channel` for either sign
of the coupling: order nu = frac(alpha), n0 = [alpha] for alpha > 0 and
nu = frac(-alpha), n0 = [alpha] + 1 for alpha < 0.  All formulas use
hbar = 1 by default; pass `hbar` explicitly for other unit schemes.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import specfun as sf
from .bare_tube import anomalous_channel, exterior_order
from .errors import QuadratureError, RegimeError, SingularArgumentError
from .model import Coupling, channel_index
from .numerics import gauss_panel_nodes

__all__ = [
    "PacketConfig",
    "greens_diff_closed",
    "greens_diff_asymptotic",
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


def _surviving_wave(coupling: Coupling) -> tuple[float, int]:
    """Order nu and angular index n0 of the one partial wave that differs
    between bare and shielded strings; nu = 0 at integer coupling."""
    wave = anomalous_channel(coupling)
    if wave is None:
        return 0.0, coupling.int_part
    l, channel = wave
    return exterior_order(l, channel, coupling.alpha), channel_index(l, channel)[0]


def _kernel_parts(coupling: Coupling, mass: float, t: float, hbar: float):
    if t <= 0:
        raise SingularArgumentError("propagator difference needs t > 0")
    nu, n0 = _surviving_wave(coupling)
    pref = mass / (2.0 * math.pi * hbar * t)
    return nu, n0, pref


def _kernel_phase(mass: float, t: float, hbar: float, u):
    """M u^2 / (2 hbar t), the one phase of the closed kernel: at u = r + r' it
    is the free-propagator phase M (r^2 + r'^2) / (2 hbar t) with the Hankel
    function's own e^{i M r r' / (hbar t)} folded in.  Array-capable in u."""
    return mass * u * u / (2.0 * hbar * t)


def _scaled_kernel(nu: float, pref: float, x):
    """pref sin(pi nu) e^{i pi nu / 2} e^{-ix} H^(1)_nu(x): the propagator
    difference at x = M r r' / (hbar t) without its phase
    e^{i _kernel_phase(r + r')} and angular factor e^{i n0 (theta - theta')}.
    Array-capable in x."""
    return pref * math.sin(math.pi * nu) * cmath.exp(0.5j * math.pi * nu) * sf.hankel1e(nu, x)


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
        _scaled_kernel(nu, pref, mass * r * rp / (hbar * t))
        * cmath.exp(1j * _kernel_phase(mass, t, hbar, r + rp))
        * cmath.exp(1j * n0 * (theta - thetap))
    )


def greens_diff_asymptotic(coupling: Coupling, mass: float, r: float, rp: float,
                           theta: float, thetap: float, t: float,
                           hbar: float = 1.0) -> complex:
    """Large-argument form, valid for M r r' / (hbar t) >= 10.

    The leading term of the closed kernel: e^{-ix} H^(1)_nu(x) tends to
    sqrt(2 / (pi x)) e^{-i (pi nu / 2 + pi / 4)}, the phase stays the closed
    kernel's own `_kernel_phase` at r + r', and the relative error is O(1/x).
    """
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
            1j * (_kernel_phase(mass, t, hbar, r + rp) + n0 * (theta - thetap)
                  - 0.25 * math.pi)
        )
    )


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


def _packet_window(cfg: PacketConfig, n_sigma: float):
    """n-sigma support (r_lo, r_hi, th_lo, th_hi) of the packet in (r', theta').

    The angular half-width is n_sigma * delta / sqrt(r_lo rho0).  Raises
    QuadratureError when that window leaves (-pi, pi), where the small-angle
    packet does not hold.  The 1e-3 rho0 floor on r_lo binds only when
    n_sigma * delta >= rho0, and then the window is wider than +/-31 rad.
    """
    r_lo = max(cfg.rho0 - n_sigma * cfg.delta, 1e-3 * cfg.rho0)
    r_hi = cfg.rho0 + n_sigma * cfg.delta
    s_th = cfg.delta / math.sqrt(r_lo * cfg.rho0)
    th_lo = cfg.theta0 - n_sigma * s_th
    th_hi = cfg.theta0 + n_sigma * s_th
    if th_lo <= -math.pi or th_hi >= math.pi:
        raise QuadratureError(
            f"packet angular window [{th_lo:.3g}, {th_hi:.3g}] leaves (-pi, pi)"
        )
    return r_lo, r_hi, th_lo, th_hi


def packet_norm(cfg: PacketConfig, coupling: Coupling, n_sigma: float = 8.0,
                n_r: int = 400, n_theta: int = 400) -> float:
    """Quadrature of |packet|^2 r' dr' dtheta' over the packet support.

    Raises QuadratureError when the support's angular window leaves (-pi, pi).
    """
    r_lo, r_hi, th_lo, th_hi = _packet_window(cfg, n_sigma)
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


def _packet_kernel_parts(coupling: Coupling, mass: float, t: float,
                        hbar: float):
    if coupling.alpha == 0.0:
        raise RegimeError("packet difference needs nonzero coupling")
    return _kernel_parts(coupling, mass, t, hbar)


def delta_closed(cfg: PacketConfig, coupling: Coupling, mass: float, r: float,
                 theta: float, t: float, hbar: float = 1.0) -> complex:
    """Closed stationary-phase form of the packet difference.

    Moving Gaussian envelope times the impact-parameter suppression
    exp(-rho0^2 theta0^2 / (2 delta^2)).
    """
    _require_closed_regime(cfg, r)
    nu, n0, _ = _packet_kernel_parts(coupling, mass, t, hbar)
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


_MAX_RADIAL_PANELS = 20000


def _phase_panel_edges(r_lo: float, r_hi: float, s_star: float, slope: float,
                       floor: float, max_phase: float) -> np.ndarray:
    """Panel edges on [r_lo, r_hi] at equal steps of the phase accumulated at
    rate slope |r' - s_star| + floor, each step at most `max_phase`.

    `floor` is the rate left where the chirp slope |r' - s_star| vanishes: it
    bounds the panel width at s_star by max_phase / floor and must be > 0.
    With u = r' - s_star the accumulated phase is H(u) = floor u
    + slope u |u| / 2, strictly increasing for floor > 0; its inverse
    u = 2y / (floor + sqrt(floor^2 + 2 slope |y|)) is free of cancellation on
    either side of s_star.  At least 4 panels; QuadratureError above the cap.
    """
    def phase(u: float) -> float:
        return floor * u + 0.5 * slope * u * abs(u)

    y_lo = phase(r_lo - s_star)
    y_hi = phase(r_hi - s_star)
    n = max(math.ceil((y_hi - y_lo) / max_phase), 4)
    if n > _MAX_RADIAL_PANELS:
        raise QuadratureError(
            f"packet quadrature needs {n} panels on [{r_lo:.3g}, {r_hi:.3g}], "
            f"above the cap of {_MAX_RADIAL_PANELS}"
        )
    y = np.linspace(y_lo, y_hi, n + 1)
    edges = s_star + 2.0 * y / (floor + np.sqrt(floor * floor + 2.0 * slope * np.abs(y)))
    edges[0], edges[-1] = r_lo, r_hi
    return edges


def delta_quadrature(cfg: PacketConfig, coupling: Coupling, mass: float,
                     r: float, theta: float, t: float, hbar: float = 1.0,
                     n_sigma: float = 6.0, max_phase: float = 6.0,
                     gauss_order: int = 16, refine_check: bool = False) -> complex:
    """Packet difference as the fold of the closed kernel with `packet_initial`.

    The packet exponent is quadratic in theta' and the kernel carries theta'
    only in e^{-i n0 theta'}, so the theta' integral over the real line is the
    Gaussian integral sqrt(pi / -A) exp(C - B^2 / 4A); what remains is a 1-d
    sum over `gauss_order`-point Gauss-Legendre panels in r' across the
    packet's n-sigma support, reduced in extended precision.  The kernel phase
    less the packet's k r' completes the square about the stationary point
    s* = hbar t k / M - r,

        M (r + r')^2 / (2 hbar t) - k r' = M (r' - s*)^2 / (2 hbar t) + k (r - s*) / 2,

    so each node carries the scaled Hankel function e^{-ix} H^(1)_nu(x), one
    square root and one exponential whose phase is tens of radians rather
    than ~1e3, and the constant k (r - s*) / 2 is applied once to the sum.
    The panel edges are placed in closed form, at equal steps of at most
    `max_phase` of the phase the 1-d integrand carries, accumulated at rate
    (M / hbar t) |r' - s*| + |Im b| + 1 / (3 delta): the kernel chirp about
    s*, the rate of the r'-linear term -b r' of the theta' factor -B^2 / 4A,
    and an envelope floor that caps a panel at s* to 3 delta * max_phase.
    The theta' integral is exact, so the packet's angular phase
    k r' theta'^2 / 2 adds no rate of its own.  The panel count has a floor
    of 4 and a cap of 20000.  `refine_check=True` re-evaluates on a 1.5x
    finer panel set with two more Gauss points and raises if the two
    disagree by more than 1e-4 relative.  QuadratureError is raised before
    any node is built when the angular window theta0 +/- n_sigma * s_theta
    leaves (-pi, pi), where the small-angle packet does not hold (always so
    for a window that reaches down to the axis, n_sigma * delta >= rho0), or
    when the radial phase needs more panels than the cap.
    """
    nu, n0, pref = _packet_kernel_parts(coupling, mass, t, hbar)
    d2 = 2.0 * cfg.delta * cfg.delta
    r_lo, r_hi, _, _ = _packet_window(cfg, n_sigma)

    # radial phase rate: kernel + packet, which cancel at the stationary point
    # s_star, plus the r'-linear phase of -B^2 / 4A and the envelope floor
    slope = mass / (hbar * t)
    s_star = hbar * t * cfg.k / mass - r
    # A = a_per_r r', and -B^2 / 4A = -b_per_r r' + const + O(1 / r')
    a_per_r = 0.5j * cfg.k - cfg.rho0 / d2
    b_per_r = (cfg.rho0 * cfg.theta0 / d2) ** 2 / a_per_r
    floor = abs(b_per_r.imag) + 1.0 / (3.0 * cfg.delta)
    const = cmath.exp(1j * (0.5 * cfg.k * (r - s_star) + n0 * theta)) / (
        math.sqrt(math.pi) * cfg.delta
    )

    def evaluate(phase_cap: float, order: int) -> complex:
        r_edges = _phase_panel_edges(r_lo, r_hi, s_star, slope, floor, phase_cap)
        rp, w = gauss_panel_nodes(r_edges, order)
        # packet exponent A theta'^2 + B theta' + C, kernel phase included
        a = rp * a_per_r
        b = 1j * (coupling.alpha - n0) + 2.0 * rp * cfg.rho0 * cfg.theta0 / d2
        c = -rp * cfg.rho0 * cfg.theta0 ** 2 / d2
        exponent = (
            1j * _kernel_phase(mass, t, hbar, rp - s_star)
            - (rp - cfg.rho0) ** 2 / d2
            + c - b * b / (4.0 * a)
        )
        terms = (w * rp * np.sqrt(-math.pi / a) * np.exp(exponent)
                 * _scaled_kernel(nu, pref, slope * r * rp))
        return complex(np.sum(terms.astype(np.clongdouble)) * const)

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
        cfg = replace(cfg_template, theta0=theta0)
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
        "center": float(center),
        "width": width,
        "center_expected": t_star,
        "width_expected": width_expected,
    }
