"""Special functions of fractional order: a thin adapter over ``scipy.special``.

Orders are real, possibly negative and non-integer.  Cylinder functions take a
complex argument (purely imaginary inside an evanescent barrier), scalar or
array; a scalar returns a Python ``complex`` (``float`` for the real-valued
scaled I and K), an array an array of its shape.  An order array broadcasts
against the argument the same way and returns an array, each element equal to
the scalar call at its order.  Backing scipy routines:

* ``bessel_j``, ``bessel_j_prime``: ``jv``, ``jvp`` (AMOS; reflection for nu < 0)
* ``bessel_j_ladder``: one ``jv`` call over the orders nu0 + m, m from ``start``
* ``bessel_ie``, ``bessel_ke``: ``ive``, ``kve``, the scaled e^{-x} I_nu(x)
  and e^{x} K_nu(x) of real x > 0 (DLMF 10.25), finite where I_nu overflows
  and K_nu underflows
* ``hankel1``, ``hankel1_prime``: ``hankel1``, ``h1vp`` (AMOS)
* ``hankel1e``: ``hankel1e``, the scaled e^{-iz} H_nu^(1)(z), whose phase stays
  small at large z so a caller can fold e^{iz} into a phase of its own
* ``kummer_f``: ``hyp1f1`` for real a, c, each scalar or an array that
  broadcasts against the others like an order array (a real z keeps scipy's
  real routine and returns a real array).  A caller takes F' from the pair
  F(a|c|z), F(a+1|c+1|z) of one call: F'(a|c|z) = (a/c) F(a+1|c+1|z)
  (DLMF 13.3.15).  Re z above ``_KUMMER_Z_MAX`` is refused unless that
  element's a is 0, -1, -2, ...: there |F| has long overflowed, and for a
  real z scipy would take seconds or not return at all

scipy returns inf or nan where the library raises instead:

* ``OutOfRangeError``: an order above the cap (``max_order``, default
  ``DEFAULT_MAX_ORDER``; a ladder checks every order it returns), a non-finite
  argument, a non-real Kummer parameter, a Kummer argument with Re z above
  ``_KUMMER_Z_MAX`` and a non-terminating series, or a non-finite result at
  z != 0.  An array raises if any element would.
* ``SingularArgumentError``: a non-finite result at z = 0, where the function
  diverges (every Hankel function; J, J' where their leading power is negative).
* ``PoleError``: Kummer's F at c within 1e-12 of 0, -1, -2, ...
"""

from __future__ import annotations

import numpy as np
from scipy import special as _sp

from .errors import OutOfRangeError, PoleError, SingularArgumentError

__all__ = [
    "DEFAULT_MAX_ORDER",
    "bessel_j",
    "bessel_j_prime",
    "bessel_j_ladder",
    "bessel_ie",
    "bessel_ke",
    "hankel1",
    "hankel1e",
    "hankel1_prime",
    "kummer_f",
]

DEFAULT_MAX_ORDER = 200.0
# |F(a|c|z)| ~ Gamma(c)/Gamma(a) e^z z^(a-c) has overflowed by Re z ~ 1e4 for
# a non-terminating series (c up to 1e3); scipy's real hyp1f1 takes 3 ms at
# z = 1e9, time linear in z above that, and does not return from ~1e12 on
_KUMMER_Z_MAX = 1e9


def _order(nu, max_order: float | None) -> np.ndarray:
    cap = DEFAULT_MAX_ORDER if max_order is None else float(max_order)
    nu = np.asarray(nu, dtype=np.float64)
    if not (np.isfinite(nu).all() and (np.abs(nu) <= cap).all()):
        raise OutOfRangeError(f"order not finite or above the maximum {cap}")
    return nu


def _evaluate(fn, z, name: str, *params, dtype=np.complex128):
    """fn(*params, z) at a finite argument; scipy's inf/nan becomes a typed error.

    Returns a Python scalar for a scalar result, else the array.
    """
    z = np.asarray(z, dtype=dtype)
    if not np.isfinite(z).all():
        raise OutOfRangeError(f"{name}: argument must be finite")
    out = fn(*params, z)
    bad = ~np.isfinite(out)
    if bad.any():
        if (bad & (z == 0)).any():
            raise SingularArgumentError(f"{name} diverges at z=0")
        raise OutOfRangeError(f"{name} is not finite in double precision here")
    return out.item() if np.ndim(out) == 0 else out


def _positive(x, name: str):
    if (np.asarray(x) <= 0).any():
        raise OutOfRangeError(f"{name} expects x > 0")
    return x


def _check_pole(x, name: str) -> None:
    """PoleError if x, or any element of an array x, is within 1e-12 of 0, -1, -2, ..."""
    x = np.asarray(x)
    real = x.real
    left = real <= 0.5
    if left.any() and (left & (np.abs(x.imag) < 1e-12)
                       & (np.abs(real - np.round(real)) < 1e-12)).any():
        raise PoleError(f"{name} pole at {x}")


def bessel_j(nu: float, z, max_order: float | None = None):
    """Bessel function J_nu(z) for real order and complex argument."""
    return _evaluate(_sp.jv, z, "J_nu", _order(nu, max_order))


def bessel_j_prime(nu: float, z, max_order: float | None = None):
    """d/dz J_nu(z)."""
    return _evaluate(_sp.jvp, z, "J'_nu", _order(nu, max_order))


def bessel_j_ladder(nu0: float, count: int, z, max_order: float | None = None,
                    start: int = 0) -> np.ndarray:
    """J_{nu0+m}(z) for m = start..start+count-1 at a scalar argument.

    Each order is nu0 + m in one rounding, so a ladder continued with `start`
    is bit-identical to the tail of one longer call; passing nu0 + start as
    nu0 instead rounds twice and can put an order an ulp off.
    """
    if count < 1:
        raise OutOfRangeError("count must be >= 1")
    orders = _order(float(nu0) + np.arange(start, start + count), max_order)
    return _evaluate(_sp.jv, complex(z), "J ladder", orders)


def bessel_ie(nu: float, x):
    """Exponentially scaled modified Bessel function e^{-x} I_nu(x), real x > 0."""
    return _evaluate(_sp.ive, _positive(x, "bessel_ie"), "Ie_nu", _order(nu, None),
                     dtype=np.float64)


def bessel_ke(nu: float, x):
    """Exponentially scaled modified Bessel function e^{x} K_nu(x), real x > 0."""
    return _evaluate(_sp.kve, _positive(x, "bessel_ke"), "Ke_nu", _order(nu, None),
                     dtype=np.float64)


def hankel1(nu: float, z, max_order: float | None = None):
    """Hankel function of the first kind, H_nu^(1)(z)."""
    return _evaluate(_sp.hankel1, z, "H1_nu", _order(nu, max_order))


def hankel1e(nu: float, z, max_order: float | None = None):
    """Exponentially scaled Hankel function e^{-iz} H_nu^(1)(z)."""
    return _evaluate(_sp.hankel1e, z, "H1e_nu", _order(nu, max_order))


def hankel1_prime(nu: float, z, max_order: float | None = None):
    """d/dz H_nu^(1)(z)."""
    return _evaluate(_sp.h1vp, z, "H1'_nu", _order(nu, max_order))


def kummer_f(a, c, z):
    """Confluent hypergeometric function F(a|c|z) for real a and c.

    A Python ``complex`` for scalar a, c and z; else an array, each element
    equal to the scalar call at its (a, c, z).
    """
    a, c = np.asarray(a), np.asarray(c)
    if a.dtype.kind == "c" or c.dtype.kind == "c":
        if a.imag.any() or c.imag.any():
            raise OutOfRangeError(f"kummer_f needs real a and c, got a={a}, c={c}")
        a, c = a.real, c.real
    _check_pole(c, "kummer_f")
    far = np.asarray(z).real > _KUMMER_Z_MAX
    if far.any() and (far & ((a > 0) | (np.mod(a, 1.0) != 0))).any():
        raise OutOfRangeError(f"kummer_f overflows at Re z above {_KUMMER_Z_MAX:g}")
    out = _evaluate(_sp.hyp1f1, z, "kummer_f", a, c, dtype=None)
    return out if isinstance(out, np.ndarray) else complex(out)
