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
The closed form is array-capable in t, so a transit curve over a time grid
is one call.  The packet is Gaussian in theta' and the kernel depends on
theta' only through e^{-i n0 theta'}, so the theta' integral is done in
closed form and the quadrature of Delta is a 1-d radial sum, its phase
written as a square completed about the stationary point.  The closed
theta' factor is split by its powers of r' into a constant, an r' term and
a 1/r' term, so the 1-d integrand is a Gaussian in r' - s*, that factor and
e^{-ix} H^(1)_nu(x).
The kernel is evaluated as sqrt(x) e^{-ix} H^(1)_nu(x) (`_scaled_kernel`):
with x proportional to r', its sqrt(r') cancels the theta' factor's
1 / sqrt(r'), so no quadrature node takes a square root.

The kernel e^{-ix} H^(1)_nu(x) takes one of two paths per call.  Where every
x of the call is finite and at least a switch point X0(nu) (about 17 for
0 < nu < 1), it is Hankel's large-argument expansion (DLMF 10.17.3-4), cut
at the fewest terms whose remainder bound (DLMF 10.17(iii)) is half an ulp
at the smallest x: two real Horner sums in x^-2, exact to double precision
and about twice as fast as AMOS; times sqrt(x), the sums need only a
constant.  A packet's quadrature nodes sit at x = M r r' / (hbar t) in the
hundreds, so the packet fold always takes this path.  Anywhere else the
call goes to `specfun.hankel1e` (AMOS), which also raises the typed errors.
X0 and the term count follow from nu and the half ulp alone
(`_hankel_rules`).

The surviving partial wave is `bare_tube.anomalous_channel` for either sign
of the coupling: order nu = frac(alpha), n0 = [alpha] for alpha > 0 and
nu = frac(-alpha), n0 = [alpha] + 1 for alpha < 0; it is derived once per
coupling (`_surviving_wave` is cached).  All formulas use
hbar = 1 by default; pass `hbar` explicitly for other unit schemes.
"""

from __future__ import annotations

import cmath
import math
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import islice

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
        if not all(0 < v < math.inf for v in (self.delta, self.rho0, self.k)):
            raise RegimeError("packet needs finite positive delta, rho0 and k")
        if not self.delta * self.delta >= sys.float_info.min:
            raise RegimeError(f"packet width delta = {self.delta} underflows when squared")
        if not abs(self.theta0) <= 0.3:
            raise RegimeError("packet launch angle must satisfy |theta0| << 1")
        if self.delta / self.rho0 > 0.3:
            raise RegimeError("packet width must satisfy delta << rho0")
        if self.k * self.rho0 < 30.0:
            raise RegimeError("packet needs k * rho0 >> 1")
        object.__setattr__(self, "d", self.rho0 * self.theta0)


@lru_cache(maxsize=64)
def _surviving_wave(coupling: Coupling) -> tuple[float, int]:
    """Order nu and angular index n0 of the one partial wave that differs
    between bare and shielded strings; nu = 0 at integer coupling.  Cached:
    it depends on the (frozen, hashable) coupling alone."""
    wave = anomalous_channel(coupling)
    if wave is None:
        return 0.0, coupling.int_part
    l, channel = wave
    return exterior_order(l, channel, coupling.alpha), channel_index(l, channel)[0]


def _phase(value: float) -> float:
    """value, a phase in radians; RegimeError unless it is finite (it is not
    at an angle of NaN or +-inf, or where a phase overflowed)."""
    if not abs(value) < math.inf:
        raise RegimeError(f"phase {value} is not finite")
    return value


def _kernel_parts(coupling: Coupling, mass: float, t: float, hbar: float):
    if not t > 0:
        raise SingularArgumentError("propagator difference needs t > 0")
    den = 2.0 * math.pi * hbar * t
    pref = mass / den if den > 0 else math.inf
    # NaN fails every comparison; den and pref catch an overflow or underflow
    if not (0 < mass < math.inf and 0 < hbar < math.inf and den < math.inf
            and pref < math.inf):
        raise RegimeError(
            f"mass {mass}, hbar {hbar} and t {t} must be finite and positive, "
            f"and so must M / (2 pi hbar t)"
        )
    nu, n0 = _surviving_wave(coupling)
    return nu, n0, pref


def _kernel_phase(mass: float, t: float, hbar: float, u):
    """M u^2 / (2 hbar t), the one phase of the closed kernel: at u = r + r' it
    is the free-propagator phase M (r^2 + r'^2) / (2 hbar t) with the Hankel
    function's own e^{i M r r' / (hbar t)} folded in.  Array-capable in u."""
    return mass * u * u / (2.0 * hbar * t)


# Hankel's expansion is cut where both of its real sums' remainders are at
# most half an ulp of 1 (2^-53)
_HALF_ULP = 0.5 * sys.float_info.epsilon


def _hankel_coefficients(nu: float):
    """a_k(nu), k = 0, 1, 2, ..., of Hankel's expansion (DLMF 10.17.1):
    a_0 = 1, a_k = a_{k-1} (4 nu^2 - (2k - 1)^2) / (8k).  An endless
    generator."""
    mu = 4.0 * nu * nu
    a, k = 1.0, 0
    while True:
        yield a
        k += 1
        a = a * (mu - (2 * k - 1) ** 2) / (8 * k)


@lru_cache(maxsize=64)
def _hankel_rules(nu: float) -> tuple[tuple[float, tuple, tuple], ...]:
    """Truncations of Hankel's expansion at order nu, fewest terms first.

    e^{-ix} H^(1)_nu(x) = sqrt(2 / (pi x)) e^{-i (nu pi / 2 + pi / 4)} (P + iQ),
    P = sum_k (-1)^k a_2k x^-2k and Q = sum_k (-1)^k a_2k+1 x^-2k-1
    (DLMF 10.17.3-4).  Each rule (x_K, p, q) keeps the terms k < K of P + iQ,
    p and q being the coefficients of P and Q / x as polynomials in x^-2,
    highest power first.  Its first neglected terms are a_K x^-K and
    a_K+1 x^-K-1, one in each sum; for real nu >= 0 and x > 0 each remainder
    is at most its first neglected term once P keeps at least
    max(nu / 2 - 1/4, 1) terms and Q max(nu / 2 - 3/4, 1) (DLMF 10.17(iii)),
    that is, once K >= max(2, nu - 1/2).  So the rule is exact to half an ulp
    where both are, at every x >= (|a_j| / half ulp)^(1/j), j = K and K + 1.
    It also keeps no term larger than the leading one, a_0 = 1: at every
    x >= |a_j|^(1/j), 0 < j < K, the Horner sums round to a few ulps of
    |P + iQ|, which is close to or above 1 there.  (Above the turning point
    the terms would grow first and cancel: at nu = 30.2 and x = 30 the sum is
    off by 7e-12.  For 0 <= nu < 1 this second bound never binds.)  x_K is
    the larger of the two.  Only rules whose x_K is below that of every rule
    with fewer terms are kept; the last one's x_K is the switch point
    X0(nu), below which no truncation does both.  The scan stops once the
    terms at the current X0 grow from K on: then every later K' is beaten at
    every x by K, because |a_j+1 / a_j| = ((2j + 1)^2 - 4 nu^2) / (8 (j + 1))
    increases with j >= nu - 1/2.  At nu = 1/2 every a_k with k >= 1
    vanishes and the one rule has x_K = 0.  Empty for nu < 0, where the
    bound does not hold.
    """
    if not nu >= 0:
        return ()
    k = max(2, math.ceil(nu - 0.5))
    coefficients = _hankel_coefficients(nu)
    a = list(islice(coefficients, k + 2))
    rules = []
    best = math.inf
    while True:
        x_k = max(max((abs(a[j]) / _HALF_ULP) ** (1.0 / j) for j in (k, k + 1)),
                  max(abs(a[j]) ** (1.0 / j) for j in range(1, k)))
        if x_k < best:
            best = x_k
            # i^j a_j: P takes the real ones (even j), Q the imaginary ones
            signed = [(-1) ** (j // 2) * a[j] for j in range(k)]
            rules.append((x_k, tuple(signed[0::2][::-1]), tuple(signed[1::2][::-1])))
        if best == 0.0 or abs(a[k + 1]) >= abs(a[k]) * best:
            return tuple(rules)
        k += 1
        a.append(next(coefficients))


def _horner(coeffs: tuple, y):
    """sum_j coeffs[-1 - j] y^j: coeffs highest power first."""
    if len(coeffs) == 1:
        return coeffs[0]
    acc = coeffs[0] * y + coeffs[1]
    for c in coeffs[2:]:
        acc *= y
        acc += c
    return acc


def _hankel_expansion(nu: float, x: np.ndarray):
    """P + iQ = sqrt(pi x / 2) e^{i (nu pi / 2 + pi / 4)} e^{-ix} H^(1)_nu(x)
    from the first rule of `_hankel_rules` that holds at the smallest x, or
    None where none does, or where an x is not finite or below the smallest
    normal double (only nu = 1/2 has rules that low)."""
    lo = x.min()
    for x_k, p, q in _hankel_rules(nu):
        if lo >= x_k:
            if not (lo >= sys.float_info.min and x.max() < math.inf):
                return None
            r = 1.0 / x
            y = r * r if len(p) > 1 else None
            out = np.empty(x.shape, dtype=np.complex128)
            out.real = _horner(p, y)
            out.imag = _horner(q, y) * r
            return out
    return None


def _scaled_kernel(nu: float, pref: float, x):
    """pref sin(pi nu) e^{i pi nu / 2} sqrt(x) e^{-ix} H^(1)_nu(x): the
    propagator difference at x = M r r' / (hbar t) without its phase
    e^{i _kernel_phase(r + r')} and angular factor e^{i n0 (theta - theta')},
    times sqrt(x).  Array-capable in x.

    The factor sqrt(x) takes out the kernel's x^(-1/2) decay, so callers
    that fold it against a sqrt(r') (the packet quadrature) multiply no
    square root per node; `greens_diff_closed` divides it back out once.
    Where every x is finite and at least the switch point X0(nu) (about 17
    for 0 < nu < 1; every node of the benchmark packets has x >= 156), the
    Hankel function comes from its own large-argument expansion
    (`_hankel_expansion`), cut by `_hankel_rules` at the fewest terms that
    are exact to half an ulp at the smallest x: two real Horner sums in
    x^-2, in about half the time AMOS takes.  There the kernel is P + iQ
    times one constant: the expansion's phase e^{-i nu pi / 2} cancels the
    kernel's e^{i pi nu / 2}, and its sqrt(2 / (pi x)) the factor sqrt(x).
    Anywhere else (an x below X0 or not finite) the call goes to
    `specfun.hankel1e`, as before, and raises its typed errors.
    """
    x = np.asarray(x, dtype=np.float64)
    out = _hankel_expansion(nu, x)
    if out is None:
        return (pref * math.sin(math.pi * nu) * cmath.exp(0.5j * math.pi * nu)
                * sf.hankel1e(nu, x) * np.sqrt(x))
    out *= pref * math.sin(math.pi * nu) * math.sqrt(2.0 / math.pi) * cmath.exp(-0.25j * math.pi)
    return out


def greens_diff_closed(coupling: Coupling, mass: float, r: float, rp: float,
                       theta: float, thetap: float, t: float,
                       hbar: float = 1.0) -> complex:
    """Closed propagator difference: fractional-order outgoing Hankel kernel."""
    nu, n0, pref = _kernel_parts(coupling, mass, t, hbar)
    if not (0 < r < math.inf and 0 < rp < math.inf):
        raise RegimeError("coordinates must be positive and finite")
    if nu == 0.0:
        return 0.0j
    x = mass * r * rp / (hbar * t)
    return complex(
        _scaled_kernel(nu, pref, x) / math.sqrt(x)
        * cmath.exp(1j * _phase(_kernel_phase(mass, t, hbar, r + rp)))
        * cmath.exp(1j * _phase(n0 * (theta - thetap)))
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
    if not x >= 10.0:
        raise RegimeError(f"asymptotic kernel needs M r r'/(hbar t) >= 10, got {x:.3g}")
    if nu == 0.0:
        return 0.0j
    amp = math.sqrt(mass / (2.0 * math.pi ** 3 * hbar * t * r * rp))
    return complex(
        amp
        * math.sin(math.pi * nu)
        * cmath.exp(
            1j * _phase(_kernel_phase(mass, t, hbar, r + rp) + n0 * (theta - thetap)
                        - 0.25 * math.pi)
        )
    )


def packet_initial(cfg: PacketConfig, coupling: Coupling, rp, thetap):
    """Initial Gaussian packet, momentum toward the axis; array-capable.

    The plane-wave phase is expanded to second order in the polar angle,
    which is what makes the closed packet difference tractable; the e^{i
    alpha theta'} prefactor carries the full (unreduced) coupling.
    RegimeError where any value is not finite: at an r' or theta' of NaN or
    +-inf, or where the exponent overflows.  Far out, where only its real
    part does, the packet reads 0.
    """
    rp = np.asarray(rp, dtype=float)
    thetap = np.asarray(thetap, dtype=float)
    alpha = coupling.alpha
    d2 = 2.0 * cfg.delta * cfg.delta
    # |r' - r0|^2 to second order in theta' - theta0, written without the
    # cancellation of r'^2 + rho0^2 - 2 r' rho0 (1 - (theta' - theta0)^2 / 2)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        exponent = (
            1j * alpha * thetap
            - 1j * cfg.k * rp * (1.0 - 0.5 * thetap ** 2)
            - ((rp - cfg.rho0) ** 2 + rp * (cfg.rho0 * (thetap - cfg.theta0) ** 2)) / d2
        )
        out = np.exp(exponent) / (math.sqrt(math.pi) * cfg.delta)
    if not np.isfinite(out).all():
        raise RegimeError("packet is not finite: r' and theta' must be finite, "
                          "and so must its exponent")
    return out if out.ndim else complex(out)


def _packet_window(cfg: PacketConfig, n_sigma: float):
    """n-sigma support (r_lo, r_hi, th_lo, th_hi) of the packet in (r', theta').

    The angular half-width is n_sigma * delta / sqrt(r_lo rho0).  Raises
    QuadratureError when that window leaves (-pi, pi), where the small-angle
    packet does not hold.  The 1e-3 rho0 floor on r_lo binds only when
    n_sigma * delta >= rho0, and then the window is wider than +/-31 rad.
    Raises RegimeError when either window has no width in double precision
    (delta below the resolution of r' at rho0, or r_lo rho0 overflowing) or
    its midpoint (r_lo + r_hi) / 2 overflows.
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
    if not (r_lo < r_hi and r_lo + r_hi < math.inf and th_lo < th_hi):
        raise RegimeError(
            f"packet window [{r_lo:.3g}, {r_hi:.3g}] x [{th_lo:.3g}, {th_hi:.3g}] "
            f"has no width or overflows"
        )
    return r_lo, r_hi, th_lo, th_hi


def packet_norm(cfg: PacketConfig, coupling: Coupling) -> float:
    """Quadrature of |packet|^2 r' dr' dtheta' over the packet's 8-sigma support.

    8-point Gauss-Legendre on 49 equal panels in each of r' and theta'.
    Raises QuadratureError when the support's angular window leaves (-pi, pi).
    """
    r_lo, r_hi, th_lo, th_hi = _packet_window(cfg, 8.0)
    r_nodes, r_w = gauss_panel_nodes(np.linspace(r_lo, r_hi, 50), 8)
    t_nodes, t_w = gauss_panel_nodes(np.linspace(th_lo, th_hi, 50), 8)
    vals = np.abs(packet_initial(cfg, coupling, r_nodes[:, None], t_nodes[None, :])) ** 2
    return float(np.einsum("i,j,ij->", r_w * r_nodes, t_w, vals))


def peak_time(cfg: PacketConfig, r: float, mass: float = 1.0,
              hbar: float = 1.0) -> float:
    """Arrival time of the packet-difference envelope at radius r >= 0."""
    if not (0 < mass < math.inf and 0 < hbar < math.inf and 0 <= r < math.inf):
        raise RegimeError(
            f"mass {mass} and hbar {hbar} must be finite and positive, radius {r} "
            f"finite and non-negative"
        )
    t = (r + cfg.rho0 - 0.5 * cfg.rho0 * cfg.theta0 ** 2) * mass / (hbar * cfg.k)
    if not 0 < t < math.inf:
        raise RegimeError(f"peak time {t} is not finite and positive")
    return t


def _require_closed_regime(cfg: PacketConfig, r: float):
    kd2 = cfg.k * cfg.delta * cfg.delta
    if not cfg.k * r >= 30.0:
        raise RegimeError("closed packet difference needs k r >> 1")
    if not (cfg.rho0 <= 0.3 * kd2 and r <= 0.3 * kd2):
        raise RegimeError(
            "closed packet difference needs rho0, r << k delta^2"
        )


def _packet_kernel_parts(coupling: Coupling, mass: float, t: float,
                        hbar: float):
    if coupling.alpha == 0.0:
        raise RegimeError("packet difference needs nonzero coupling")
    return _kernel_parts(coupling, mass, t, hbar)


def delta_closed(cfg: PacketConfig, coupling: Coupling, mass: float, r: float,
                 theta: float, t, hbar: float = 1.0):
    """Closed stationary-phase form of the packet difference.

    Moving Gaussian envelope times the impact-parameter suppression
    exp(-rho0^2 theta0^2 / (2 delta^2)).  Array-capable in t: a scalar t
    returns a complex, an array of times the array of values, so a time grid
    takes one call.  The guards hold elementwise: SingularArgumentError if
    any t <= 0 or is NaN, RegimeError if any phase is not finite.  The
    envelope reads 0 where the square of its argument overflows.
    """
    _require_closed_regime(cfg, r)
    grid = type(t) is not float  # numpy scalars too: their overflow warns
    if grid:
        t = np.asarray(t, dtype=np.float64)
        t_lo, t_hi = float(t.min()), float(t.max())
    else:
        t_lo = t_hi = t
    # every time guard is monotone in t, so a grid's two ends carry it (min
    # and max are NaN where any t is)
    nu, n0, _ = _packet_kernel_parts(coupling, mass, t_lo, hbar)
    if grid:
        _kernel_parts(coupling, mass, t_hi, hbar)
    d2 = 2.0 * cfg.delta * cfg.delta
    outgoing = cfg.k * r + n0 * theta
    free_hi = hbar * cfg.k ** 2 * t_hi / (2.0 * mass)
    if not (abs(outgoing) < math.inf and free_hi < math.inf):
        raise RegimeError(f"phases {outgoing} and {free_hi} must be finite")
    free = hbar * cfg.k ** 2 * t / (2.0 * mass)
    # where the square overflows the envelope is 0: a Python float overflows
    # to inf quietly, a numpy array only under errstate
    with np.errstate(over="ignore") if grid else nullcontext():
        envelope_arg = r + cfg.rho0 - hbar * cfg.k * t / mass - 0.5 * cfg.rho0 * cfg.theta0 ** 2
        envelope = np.exp(-(envelope_arg * envelope_arg) / d2)
    pref = cmath.exp(0.25j * math.pi) * math.sqrt(2.0) / (math.pi * cfg.delta)
    out = (
        pref
        * math.sin(math.pi * nu)
        * cmath.exp(1j * outgoing)
        / math.sqrt(cfg.k * r)
        * np.exp(-1j * free)
        * math.exp(-cfg.rho0 ** 2 * cfg.theta0 ** 2 / d2)
        * envelope
    )
    return out if out.ndim else complex(out)


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
    span = (y_hi - y_lo) / max_phase
    if not span <= _MAX_RADIAL_PANELS:  # NaN too, where the phase overflowed
        raise QuadratureError(
            f"packet quadrature needs {span:.6g} panels on [{r_lo:.3g}, {r_hi:.3g}], "
            f"above the cap of {_MAX_RADIAL_PANELS}"
        )
    n = max(math.ceil(span), 4)
    y = np.arange(n + 1, dtype=float) * ((y_hi - y_lo) / n) + y_lo  # np.linspace's steps
    edges = s_star + 2.0 * y / (floor + np.sqrt(floor * floor + 2.0 * slope * np.abs(y)))
    edges[0], edges[-1] = r_lo, r_hi
    return edges


def delta_quadrature(cfg: PacketConfig, coupling: Coupling, mass: float,
                     r: float, theta: float, t: float, hbar: float = 1.0,
                     max_phase: float = 6.0, gauss_order: int = 16,
                     refine_check: bool = False) -> complex:
    """Packet difference as the fold of the closed kernel with `packet_initial`.

    The packet exponent is quadratic in theta' and the kernel carries theta'
    only in e^{-i n0 theta'}, so the theta' integral over the real line is the
    Gaussian integral sqrt(pi / -A) exp(C - B^2 / 4A); what remains is a 1-d
    sum over `gauss_order`-point Gauss-Legendre panels in r' across the
    packet's 6-sigma support, reduced in extended precision.  With
    A = a r', B = i beta + g r', C = c r' (beta = alpha - n0,
    g = rho0 theta0 / delta^2, b = g^2 / 4a) and r' > 0, that factor splits
    by powers of r' on the principal branch,

        sqrt(pi / -A) = sqrt(pi / -a) / sqrt(r'),
        C - B^2 / 4A = (c - b) r' + beta^2 / (4 a r') - i beta g / (2a),

    and its r'-free parts join one constant.  The kernel phase less the
    packet's k r' completes the square about the stationary point
    s* = hbar t k / M - r,

        M (r + r')^2 / (2 hbar t) - k r' = M (r' - s*)^2 / (2 hbar t) + k (r - s*) / 2,

    and the constant k (r - s*) / 2 joins it too.  The kernel is taken as
    `_scaled_kernel`, sqrt(x) e^{-ix} H^(1)_nu(x) with
    sqrt(x) = sqrt(M r / hbar t) sqrt(r'): its sqrt(r') cancels the theta'
    factor's 1 / sqrt(r'), and 1 / sqrt(M r / hbar t) joins the constant.
    So each node carries that kernel and one complex exponential whose phase
    is tens of radians rather than ~1e3, and no square root.
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
    any node is built when the angular window theta0 +/- 6 s_theta
    leaves (-pi, pi), where the small-angle packet does not hold (always so
    for a window that reaches down to the axis, 6 delta >= rho0), or
    when the radial phase needs more panels than the cap.
    """
    nu, n0, pref = _packet_kernel_parts(coupling, mass, t, hbar)
    if not 0 < r < math.inf:
        raise RegimeError(f"radius must be positive and finite, got {r}")
    d2 = 2.0 * cfg.delta * cfg.delta
    r_lo, r_hi, _, _ = _packet_window(cfg, 6.0)

    # radial phase rate: kernel + packet, which cancel at the stationary point
    # s_star, plus the r'-linear phase of -B^2 / 4A and the envelope floor
    slope = mass / (hbar * t)
    s_star = hbar * t * cfg.k / mass - r
    # packet exponent A theta'^2 + B theta' + C with A = a_per_r r' and
    # B = i beta + g r'; lin and inv are the r' and 1/r' coefficients of
    # C - B^2 / 4A, and its r'-free part joins const
    a_per_r = 0.5j * cfg.k - cfg.rho0 / d2
    beta = coupling.alpha - n0
    g = 2.0 * cfg.rho0 * cfg.theta0 / d2
    b_per_r = (0.5 * g) ** 2 / a_per_r
    lin = -cfg.rho0 * cfg.theta0 ** 2 / d2 - b_per_r
    inv = beta * beta / (4.0 * a_per_r)
    floor = abs(b_per_r.imag) + 1.0 / (3.0 * cfg.delta)
    # the theta' factor's 1 / sqrt(r') and the kernel's sqrt(x) = sqrt(slope r r')
    # leave 1 / sqrt(slope r) in const
    const = cmath.sqrt(-math.pi / a_per_r) * cmath.exp(
        1j * _phase(0.5 * cfg.k * (r - s_star) + n0 * theta) - 0.5j * beta * g / a_per_r
    ) / (math.sqrt(math.pi) * cfg.delta * math.sqrt(slope * r))

    def evaluate(phase_cap: float, order: int) -> complex:
        r_edges = _phase_panel_edges(r_lo, r_hi, s_star, slope, floor, phase_cap)
        rp, w = gauss_panel_nodes(r_edges, order)
        exponent = (
            1j * _kernel_phase(mass, t, hbar, rp - s_star)
            - (rp - cfg.rho0) ** 2 / d2
            + lin * rp + inv / rp
        )
        terms = w * np.exp(exponent) * _scaled_kernel(nu, pref, slope * r * rp)
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


def _parabola_fit(u: np.ndarray) -> np.ndarray:
    """Least-squares projection of values on a grid u symmetric about 0 onto
    the coefficients of u^2, u and 1, from the normal equations with the odd
    moments of u taken as 0.  Closed form: a LAPACK solve would map about
    1 MB of library code into the process."""
    n, s2, s4 = len(u), np.sum(u * u), np.sum(u ** 4)
    det = n * s4 - s2 * s2
    return np.array([(n * u * u - s2) / det, u / s2, (s4 - s2 * u * u) / det])


# the transit fit's time grid in u = (t - t*) / sigma and its projection
_TRANSIT_U = np.linspace(-1.5, 1.5, 21)
_TRANSIT_FIT = _parabola_fit(_TRANSIT_U)


def transit_fit(cfg: PacketConfig, coupling: Coupling, mass: float = 1.0,
                r: float | None = None, hbar: float = 1.0):
    """Least-squares Gaussian fit of |Delta|(t) at fixed r.

    Fits log |Delta| at 21 equally spaced times over +/-1.5 sigma about the
    peak time t* (one `delta_closed` call over that grid), sigma the expected
    width delta M / (hbar k), in the variable u = (t - t*)/sigma: a fit in
    raw t would be conditioned like (t*/sigma)^2.  The log at the middle
    point u = 0 is subtracted first, and the parabola's coefficients are the
    grid's fixed least-squares projection (`_parabola_fit`).
    Returns {center, width, center_expected, width_expected}.
    Raises RegimeError when any |Delta| on the grid is below the smallest
    normal double: the suppression exp(-d^2 / (2 delta^2)) reaches there from
    d ~ 37 delta, and a subnormal or zero |Delta| has no usable logarithm.
    """
    if r is None:
        r = cfg.rho0
    t_star = peak_time(cfg, r, mass, hbar)
    width_expected = cfg.delta * mass / (hbar * cfg.k)
    ts = t_star + width_expected * _TRANSIT_U
    mags = np.abs(delta_closed(cfg, coupling, mass, r, 0.0, ts, hbar))
    if not (mags >= sys.float_info.min).all():
        raise RegimeError(
            f"|Delta| underflows on the transit fit grid at d = {cfg.d:.3g} "
            f"= {cfg.d / cfg.delta:.3g} delta"
        )
    # log|Delta| less its value at u = 0: the constant -d^2 / 2 delta^2 would
    # otherwise dwarf the curvature being fitted at large d
    logs = np.log(mags)
    coeffs = _TRANSIT_FIT @ (logs - logs[10])
    width = width_expected * math.sqrt(-0.5 / coeffs[0])
    center = t_star - width_expected * 0.5 * coeffs[1] / coeffs[0]
    return {
        "center": float(center),
        "width": width,
        "center_expected": t_star,
        "width_expected": width_expected,
    }
