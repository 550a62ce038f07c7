"""The three benchmark workloads.

Each workload turns a seed into a fixed list of items (one library call
each, or one θ row on ``field_map``), optional per-pass extras that are
timed with the pass but are not items, and a correctness check that runs
outside the timed region.  The seed
only jitters parameters inside narrow windows around fixed nominal values,
so two seeds give different inputs with the same item count and nearly the
same cost and accuracy.

Import ``env`` and call ``env.pin()`` before importing this module.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from abdirac import bare_tube as bt
from abdirac import propagate as pr
from abdirac import scattering as sc
from abdirac import shielded as sh
from abdirac.errors import AbdiracError
from abdirac.model import (
    Coupling,
    SpinorAmplitudes,
    TubeConfig,
    barrier_kappa,
    make_kinematics,
)

# An item passes its gate when its error stays within these bounds.
FIELD_REL_TOL = 1e-8  # |psi - psi_mpmath| / |psi_mpmath| over the four components
UNITARITY_TOL = 1e-9  # | |1 + 2A| - 1 |
MP_S_TOL = 1e-9  # |S - S_mpmath| with S = 1 + 2A
ODE_S_TOL = 1e-8  # |S_formula - S_ode| with S = 1 + 2A
# the oracle's own error reaches ~1e-8 in S at its default rtol 1e-12 (kR0 =
# 1e-4) and falls with rtol; 3e-14 sits just above DOP853's 100 eps floor
ODE_RTOL = 3e-14
LAW_TOL = 0.05  # | |D(d)|/|D(0)| - exp(-d^2/2 delta^2) |, in units of |D(0)|
TRANSIT_TOL = 1e-6  # relative error of the fitted transit width and centre

DIGITS_FLOOR = 1e-17  # an error of exactly zero reads as 17 digits


def digits(err: float) -> float:
    """Correct decimal digits implied by an error on a unit scale."""
    return -math.log10(max(err, DIGITS_FLOOR))


@dataclass
class Check:
    """Outcome of a workload's correctness gates on the first pass."""

    item_failed: list[bool]
    extra_failed: list[bool]
    accuracy_digits: float
    info: dict = field(default_factory=dict)


@dataclass
class Plan:
    """Seeded inputs of one workload and the calls that evaluate them."""

    params: dict  # the seeded numbers, hashed into the input digest
    items: list
    call: Callable[[Any], Any]
    check: Callable[[list, list], Check]
    extras: list = field(default_factory=list)
    call_extra: Callable[[Any], Any] | None = None
    points_per_item: int = 1  # latency is reported per point

    def digest(self) -> str:
        text = json.dumps(self.params, sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def _jitter(rng: random.Random, width: float) -> float:
    return rng.uniform(-width, width)


# --------------------------------------------------------------------------
# field_map: bare and shielded four-spinors in θ rows at log-spaced kr


FIELD_N_KR = 10  # log-spaced over [0.5, 200]; kr near 10 takes the slow series path
FIELD_N_THETA = 8  # uniform θ grid of one row
FIELD_KINDS = ("bare", "shielded")


def field_map(seed: int) -> Plan:
    """Items are θ rows: one (kind, coupling, kr) over the whole uniform θ grid.

    A row is timed as one unit and its latency is reported per field point.
    If ``dirac_scattering_state`` accepts an array θ, a row is one call;
    otherwise it is one call per θ.
    """
    rng = random.Random(seed)
    alphas = [0.37 + _jitter(rng, 0.03), 1.62 + _jitter(rng, 0.03)]
    krs = [
        0.5 * 400.0 ** (i / (FIELD_N_KR - 1)) * math.exp(_jitter(rng, 0.05))
        for i in range(FIELD_N_KR)
    ]
    offset = rng.random()
    thetas = np.array([
        -math.pi + 2.0 * math.pi * (j + offset) / FIELD_N_THETA
        for j in range(FIELD_N_THETA)
    ])
    a2 = 0.5 * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    amplitudes = SpinorAmplitudes(1.0, a2)
    kin = make_kinematics(k=1.0)  # natural units: r = kr
    couplings = [Coupling(a) for a in alphas]
    items = [
        (kind, coupling, kr)
        for coupling in couplings
        for kr in krs
        for kind in FIELD_KINDS
    ]
    theta_array = _accepts_theta_array(amplitudes, kin)

    def call(item):
        kind, coupling, kr = item
        if theta_array:
            state = sc.dirac_scattering_state(kind, amplitudes, coupling, kin, kr, thetas)
            return state.as_array().T
        return np.array([
            sc.dirac_scattering_state(kind, amplitudes, coupling, kin, kr, th).as_array()
            for th in thetas
        ])

    def check(outputs, _extras) -> Check:
        errors = _field_errors(items, outputs, thetas, amplitudes, kin)
        failed = [not (e <= FIELD_REL_TOL) for e in errors]
        finite = [e for e in errors if math.isfinite(e)]
        worst = max(finite) if len(finite) == len(errors) else math.inf
        terms_at = {(coupling, kr): _terms_used(coupling, kin, kr) for _, coupling, kr in items}
        terms = sum(terms_at[(coupling, kr)] for _, coupling, kr in items)
        return Check(
            item_failed=failed,
            extra_failed=[],
            accuracy_digits=digits(worst),
            info={
                "worst_rel_error": worst,
                "terms_used": terms * FIELD_N_THETA,
                "theta_array_path": theta_array,
            },
        )

    params = {"alpha": alphas, "kr": krs, "theta": thetas.tolist(), "a2": [a2.real, a2.imag]}
    return Plan(params, items, call, check, points_per_item=FIELD_N_THETA)


def _accepts_theta_array(amplitudes, kin) -> bool:
    """Whether ``dirac_scattering_state`` returns a row of states for an array θ."""
    thetas = np.array([0.1, 0.2])
    try:
        state = sc.dirac_scattering_state("shielded", amplitudes, Coupling(0.3), kin, 0.5, thetas)
        return np.shape(state.as_array()) == (4, thetas.size)
    except (TypeError, ValueError):
        return False


def _terms_used(coupling: Coupling, kin, kr: float) -> int:
    """2 l_max + 1 partial waves the library keeps at this radius."""
    _, info = sc.ab_wavefunction(coupling, kin, kr, 0.0, return_info=True)
    return info.terms


def _mp_ladder(mp, nu0, x) -> list:
    """J_{nu0+m}(x) for m = 0, 1, ... until the terms are negligible at 30 digits."""
    out = []
    m = 0
    while True:
        val = mp.besselj(nu0 + m, x)
        out.append(val)
        if nu0 + m > x and abs(val) < mp.mpf("1e-34"):
            return out
        m += 1


def _mp_states(mp, coupling: Coupling, kin, kr: float, amplitudes, requests):
    """mpmath partial-wave sums of the four-spinor at 30 digits.

    `requests` is a list of (kind, theta); returns one 4-vector per request.
    Same construction as the library (scalar sum plus Hankel corrections on
    the lower components, bare column proportional to a1), with every Bessel
    and Hankel value and the summation done independently in mpmath.
    """
    nu = mp.mpf(coupling.frac)
    x = mp.mpf(kr)
    k = mp.mpf(kin.k)
    w = k / (mp.sqrt(1 + k * k) + 1)  # hbar c k / (E + Mc^2), natural units
    s = mp.sin(mp.pi * nu)
    a1 = mp.mpc(complex(amplitudes.a1))
    a2 = mp.mpc(complex(amplitudes.a2))
    down = _mp_ladder(mp, nu, x)
    up = _mp_ladder(mp, 1 - nu, x)
    coeff_down = [mp.expjpi(-(nu + m) / 2) * v for m, v in enumerate(down)]
    coeff_up = [mp.expjpi(-(1 - nu + m) / 2) * v for m, v in enumerate(up)]
    if nu > 0:
        h_nu = mp.hankel1(nu, x)
        h_one_minus = mp.hankel1(1 - nu, x)
        h_down = mp.hankel1(nu - 1, x)
    out = []
    for kind, theta in requests:
        th = mp.mpf(theta)
        psi = mp.fsum(c * mp.expj(-m * th) for m, c in enumerate(coeff_down))
        psi += mp.fsum(c * mp.expj((m + 1) * th) for m, c in enumerate(coeff_up))
        comp = [a1 * psi, a2 * psi, -w * a2 * psi, -w * a1 * psi]
        if nu > 0:
            comp[2] -= 1j * w * a2 * mp.expjpi(nu / 2) * s * h_nu
            comp[3] += w * a1 * mp.expjpi(-nu / 2) * s * h_one_minus * mp.expj(th)
            if kind == "bare":
                comp[0] += 1j * a1 * mp.expjpi(nu / 2) * s * h_nu
                comp[3] += w * a1 * mp.expjpi(nu / 2) * s * h_down * mp.expj(th)
        gauge = mp.expj(coupling.int_part * th)
        out.append(np.array([complex(c * gauge) for c in comp]))
    return out


def _field_errors(items, outputs, thetas, amplitudes, kin) -> list[float]:
    """Worst relative 4-vector error over each row's θ grid against mpmath."""
    from mpmath import mp

    rows: dict = {}  # (coupling, kr) -> [(item index, kind)]; shares the mpmath ladders
    for idx, (kind, coupling, kr) in enumerate(items):
        rows.setdefault((coupling, kr), []).append((idx, kind))
    errors = [math.inf] * len(items)
    n = len(thetas)
    for (coupling, kr), members in rows.items():
        with mp.workdps(30):
            refs = _mp_states(
                mp, coupling, kin, kr, amplitudes,
                [(kind, th) for _, kind in members for th in thetas],
            )
        for pos, (idx, _) in enumerate(members):
            got = outputs[idx]
            if got is not None:
                errors[idx] = max(
                    float(np.linalg.norm(g - ref) / np.linalg.norm(ref))
                    for g, ref in zip(got, refs[pos * n:(pos + 1) * n])
                )
    return errors


# --------------------------------------------------------------------------
# matching_sweep: outgoing-wave weights of bare and shielded strings


MATCH_L = range(-10, 11)
MATCH_N_KR0 = 4  # log-spaced over [1e-4, 3], endpoints fixed
MATCH_KAPPA_R0 = 50.0


def matching_sweep(seed: int) -> Plan:
    rng = random.Random(seed)
    alphas = [0.41 + _jitter(rng, 0.03), -1.38 + _jitter(rng, 0.03)]
    kr0s = []
    for i in range(MATCH_N_KR0):
        x = 1e-4 * 3e4 ** (i / (MATCH_N_KR0 - 1))
        if 0 < i < MATCH_N_KR0 - 1:
            x *= math.exp(_jitter(rng, 0.1))
        kr0s.append(x)
    kappa_small = 6.0 * math.exp(_jitter(rng, 0.05))
    kin = make_kinematics(k=1.0)  # natural units: r0 = k r0
    items = []
    ode_subset = []  # bare items cross-checked against the ODE oracle
    for alpha in alphas:
        coupling = Coupling(alpha)
        for x in kr0s:
            tube = TubeConfig(r0=x, coupling=coupling)
            barriers = [sh.shielded_sweep_point(x, kr) for kr in (MATCH_KAPPA_R0, kappa_small)]
            # the anomalous channel, where the bare weight stays finite, plus
            # one seeded channel of every (alpha, kR0) block
            picks = {bt.anomalous_channel(coupling), (rng.choice(MATCH_L), rng.choice((1, 2)))}
            for l in MATCH_L:
                for ch in (1, 2):
                    if (l, ch) in picks:
                        ode_subset.append(len(items))
                    items.append(("bare", l, ch, coupling, tube, kin))
                    for barrier, kin_b in barriers:
                        items.append(("shielded", l, ch, coupling, barrier, kin_b))

    def call(item):
        variant, l, ch, coupling, geom, kin_i = item
        if variant == "bare":
            return bt.matching_coefficient(l, ch, geom, kin_i).value
        return sh.shielded_matching(l, ch, geom, kin_i, coupling).value

    def check(outputs, _extras) -> Check:
        devs = [
            abs(abs(1.0 + 2.0 * a) - 1.0) if a is not None else math.inf
            for a in outputs
        ]
        failed = [not (d <= UNITARITY_TOL) for d in devs]
        mp_errs = [
            2.0 * abs(a - _mp_matching(item)) if a is not None else math.inf
            for item, a in zip(items, outputs)
        ]
        for idx, err in enumerate(mp_errs):
            if not (err <= MP_S_TOL):
                failed[idx] = True
        ode_worst = 0.0
        for idx in ode_subset:
            _, l, ch, _, tube, kin_i = items[idx]
            sol = bt.ode_radial_oracle(l, ch, tube, kin_i, r_max=2.0 * tube.r0, rtol=ODE_RTOL)
            a_ode = sol.matching_from_interior()
            err = 2.0 * abs(a_ode - outputs[idx]) if outputs[idx] is not None else math.inf
            ode_worst = max(ode_worst, err)
            if not (err <= ODE_S_TOL):
                failed[idx] = True
        worst_unitarity = max(devs)
        worst_mp = max(mp_errs)
        return Check(
            item_failed=failed,
            extra_failed=[],
            accuracy_digits=digits(max(worst_unitarity, worst_mp)),
            info={
                "worst_unitarity": worst_unitarity,
                "worst_unitarity_item": _describe_match(items[devs.index(worst_unitarity)]),
                "worst_mpmath_abs_S": worst_mp,
                "worst_mpmath_item": _describe_match(items[mp_errs.index(worst_mp)]),
                "ode_checked": len(ode_subset),
                "ode_worst_abs_S": ode_worst,
            },
        )

    params = {"alpha": alphas, "kR0": kr0s, "kappaR0_small": kappa_small}
    return Plan(params, items, call, check)


def _mp_matching(item) -> complex:
    """Outgoing-wave weight A with the exterior Bessel functions in mpmath.

    The interior (bare) or barrier (shielded) log-derivative at the matching
    radius comes from the library; J, J', Y and Y' of the exterior order are
    mpmath values at 30 digits, so errors of the library's scalar Bessel and
    Hankel functions show even where they cancel in |1 + 2A|.
    """
    from mpmath import mp

    variant, l, ch, coupling, geom, kin = item
    if variant == "bare":
        radius = geom.r0
        lam = bt.log_derivative_interior(l, ch, geom, kin)
        k_ch = cmath.sqrt(complex(geom.interior_ksq(ch, kin, 0.0)))
        dlog = math.inf if math.isinf(lam.real) else (lam * k_ch).real
    else:
        radius = geom.R0
        dlog = barrier_kappa(kin, geom.U) * sh.f_factor(l, ch, geom, kin, coupling)
    with mp.workdps(30):
        nu = mp.mpf(bt.exterior_order(l, ch, coupling.alpha))
        x = mp.mpf(kin.k * radius)
        j, jp = mp.besselj(nu, x), mp.besselj(nu, x, 1)
        h = j + 1j * mp.bessely(nu, x)
        hp = jp + 1j * mp.bessely(nu, x, 1)
        if math.isinf(dlog):
            return complex(-j / h)
        g = mp.mpf(dlog) / mp.mpf(kin.k)
        return complex(-(jp - g * j) / (hp - g * h))


def _describe_match(item) -> dict:
    variant, l, ch, coupling, geom, kin = item
    radius = geom.r0 if variant == "bare" else geom.R0
    return {
        "variant": variant,
        "l": l,
        "channel": ch,
        "alpha": coupling.alpha,
        "kR0": kin.k * radius,
    }


# --------------------------------------------------------------------------
# packet_scan: packet difference over impact parameters


# (delta, rho0, k, nominal alpha); rho0 stays at least 10 delta so the
# quadrature window never reaches the axis (see NOTES.md)
PACKETS = (
    (4.0, 55.0, 13.0, 0.37),
    (3.0, 40.0, 15.0, -0.61),
    (5.0, 80.0, 12.0, 1.25),
    (4.0, 60.0, 14.0, 0.52),
    (4.0, 50.0, 12.0, -1.4),
)
PACKET_D_FRACTIONS = (0.3, 0.6, 0.9, 1.2, 1.5, 1.8)  # interior d / delta, jittered
PACKET_N_D = len(PACKET_D_FRACTIONS) + 2  # plus d = 0 and d = 2 delta


def packet_scan(seed: int) -> Plan:
    rng = random.Random(seed)
    configs = []
    items = []
    params = []
    for delta, rho0, k, alpha in PACKETS:
        coupling = Coupling(alpha + _jitter(rng, 0.03))
        template = pr.PacketConfig(delta=delta, rho0=rho0, theta0=0.0, k=k)
        ds = [0.0]
        ds += [delta * (f + _jitter(rng, 0.1)) for f in PACKET_D_FRACTIONS]
        ds.append(2.0 * delta)
        configs.append((template, coupling))
        items += [(template, coupling, d) for d in ds]
        params.append({"alpha": coupling.alpha, "d": ds})
    # every packet's d = 2 delta, where the quadrature is least precise, and
    # one seeded interior d
    refine_subset = []
    for ci in range(len(configs)):
        refine_subset += [ci * PACKET_N_D + rng.randrange(1, PACKET_N_D - 1),
                          (ci + 1) * PACKET_N_D - 1]

    def call(item):
        template, coupling, d = item
        row = pr.suppression_scan(template, [d], coupling, use_quadrature=True)[0]
        return (row["delta_abs"], row["delta_quad_abs"])

    def call_extra(config):
        template, coupling = config
        return pr.transit_fit(template, coupling)

    def check(outputs, extras) -> Check:
        failed = [out is None for out in outputs]
        law_devs = []
        ratios = []
        for idx, (template, coupling, d) in enumerate(items):
            ref = outputs[idx - idx % PACKET_N_D]  # the packet's d = 0 item
            if outputs[idx] is None or ref is None:
                failed[idx] = True
                continue
            closed, quad = outputs[idx]
            law = math.exp(-d * d / (2.0 * template.delta ** 2))
            dev = abs(quad / ref[1] - law)
            law_devs.append(dev)
            ratios.append(closed / quad)
            if not (dev <= LAW_TOL):
                failed[idx] = True
        refine_worst = 0.0
        for idx in refine_subset:
            template, coupling, d = items[idx]
            cfg = pr.PacketConfig(
                delta=template.delta, rho0=template.rho0, theta0=d / template.rho0,
                k=template.k,
            )
            t = pr.peak_time(cfg, cfg.rho0)
            try:
                finer = pr.delta_quadrature(cfg, coupling, 1.0, cfg.rho0, 0.0, t,
                                            refine_check=True)
            except AbdiracError:
                failed[idx] = True
                refine_worst = math.inf
                continue
            if outputs[idx] is None:
                refine_worst = math.inf
            else:
                refine_worst = max(refine_worst, abs(abs(finer) - outputs[idx][1]) / abs(finer))
        extra_failed = []
        for fit in extras:
            ok = fit is not None and all(
                abs(fit[key] / fit[f"{key}_expected"] - 1.0) <= TRANSIT_TOL
                for key in ("width", "center")
            )
            extra_failed.append(not ok)
        worst_law = max(law_devs) if len(law_devs) == len(items) else math.inf
        return Check(
            item_failed=failed,
            extra_failed=extra_failed,
            accuracy_digits=digits(refine_worst),
            info={
                "worst_law_deviation": worst_law,
                "closed_quad_ratio": float(np.median(ratios)) if ratios else 0.0,
                "closed_quad_ratio_range": [min(ratios), max(ratios)] if ratios else [],
                "refine_checked": len(refine_subset),
                "refine_worst_rel": refine_worst,
            },
        )

    return Plan({"packets": params}, items, call, check, extras=configs, call_extra=call_extra)


PLANS = {
    "field_map": field_map,
    "matching_sweep": matching_sweep,
    "packet_scan": packet_scan,
}
