"""Special functions of fractional order: a thin adapter over ``scipy.special``.

Orders are real, possibly negative and non-integer.  Cylinder functions take a
complex argument (purely imaginary inside an evanescent barrier), scalar or
array; a scalar returns a Python ``complex`` (``float`` for the real-valued
I'/I ratio), an array an array of its shape.  An order array broadcasts
against the argument the same way and returns an array, each element equal to
the scalar call at its order.  Backing scipy routines:

* ``bessel_j``, ``bessel_j_prime``: ``jv``, ``jvp`` (AMOS; reflection for nu < 0)
* ``bessel_j_ladder``: one ``jv`` call over the orders nu0 + m, m from ``start``
* ``bessel_i_log_derivative``: ``ive``, as ive(nu+1)/ive(nu) + nu/x, finite
  where I_nu itself overflows (x beyond ~700)
* ``hankel1``, ``hankel2``, ``hankel1_prime``, ``hankel2_prime``: ``hankel1``,
  ``hankel2``, ``h1vp``, ``h2vp`` (AMOS)
* ``hankel1e``: ``hankel1e``, the scaled e^{-iz} H_nu^(1)(z), whose phase stays
  small at large z so a caller can fold e^{iz} into a phase of its own
* ``kummer_f``: ``hyp1f1`` for real a, c; ``kummer_f_prime`` by the contiguous
  relation F'(a|c|z) = (a/c) F(a+1|c+1|z).  Re z above ``_KUMMER_Z_MAX`` is
  refused unless a = 0, -1, -2, ...: there |F| has long overflowed, and for a
  real z scipy would take seconds or not return at all
* ``gamma_fn``: ``gamma``

scipy returns inf or nan where the library raises instead:

* ``OutOfRangeError``: an order above the cap (``max_order``, default
  ``DEFAULT_MAX_ORDER``; a ladder checks every order it returns), a non-finite
  argument, a non-real Kummer parameter, a Kummer argument with Re z above
  ``_KUMMER_Z_MAX`` and a non-terminating series, or a non-finite result at
  z != 0.
* ``SingularArgumentError``: a non-finite result at z = 0, where the function
  diverges (every Hankel function; J, J' where their leading power is negative).
* ``PoleError``: gamma at z, or Kummer's F at c, within 1e-12 of 0, -1, -2, ...
"""

from __future__ import annotations

import numpy as np
from scipy import special as _sp

from .errors import OutOfRangeError, PoleError, SingularArgumentError

__all__ = [
    "DEFAULT_MAX_ORDER",
    "gamma_fn",
    "bessel_j",
    "bessel_j_prime",
    "bessel_j_ladder",
    "bessel_i_log_derivative",
    "hankel1",
    "hankel1e",
    "hankel1_prime",
    "hankel2",
    "hankel2_prime",
    "kummer_f",
    "kummer_f_prime",
]

DEFAULT_MAX_ORDER = 200.0
# |F(a|c|z)| ~ Gamma(c)/Gamma(a) e^z z^(a-c) has overflowed by Re z ~ 1e4 for
# a non-terminating series (c up to 1e3); scipy's real hyp1f1 takes 3 ms at
# z = 1e9, time linear in z above that, and does not return from ~1e12 on
_KUMMER_Z_MAX = 1e9


def _order(nu, max_order: float | None) -> np.ndarray:
    cap = DEFAULT_MAX_ORDER if max_order is None else float(max_order)
    nu = np.asarray(nu, dtype=np.float64)
    if not (np.all(np.isfinite(nu)) and np.all(np.abs(nu) <= cap)):
        raise OutOfRangeError(f"order not finite or above the maximum {cap}")
    return nu


def _evaluate(fn, z, name: str, *params, dtype=np.complex128):
    """fn(*params, z) at a finite argument; scipy's inf/nan becomes a typed error.

    Returns a Python scalar for a scalar result, else the array.
    """
    z = np.asarray(z, dtype=dtype)
    if not np.all(np.isfinite(z)):
        raise OutOfRangeError(f"{name}: argument must be finite")
    out = fn(*params, z)
    bad = ~np.isfinite(out)
    if np.any(bad):
        if np.any(bad & (z == 0)):
            raise SingularArgumentError(f"{name} diverges at z=0")
        raise OutOfRangeError(f"{name} is not finite in double precision here")
    return out.item() if np.ndim(out) == 0 else out


def _check_pole(x: complex, name: str) -> None:
    x = complex(x)
    if abs(x.imag) < 1e-12 and x.real <= 0.5 and abs(x.real - round(x.real)) < 1e-12:
        raise PoleError(f"{name} pole at {x}")


def gamma_fn(z: complex) -> complex:
    """Gamma function; a real argument takes scipy's real routine."""
    _check_pole(z, "gamma")
    return complex(_evaluate(_sp.gamma, z, "gamma", dtype=None))


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


def _ive_log_derivative(nu, x):
    return _sp.ive(nu + 1.0, x) / _sp.ive(nu, x) + nu / x


def bessel_i_log_derivative(nu: float, x):
    """I'_nu(x) / I_nu(x) for real x > 0, finite where I_nu itself overflows."""
    if np.any(np.asarray(x) <= 0):
        raise OutOfRangeError("bessel_i_log_derivative expects x > 0")
    return _evaluate(_ive_log_derivative, x, "I'_nu/I_nu", _order(nu, None), dtype=np.float64)


def hankel1(nu: float, z, max_order: float | None = None):
    """Hankel function of the first kind, H_nu^(1)(z)."""
    return _evaluate(_sp.hankel1, z, "H1_nu", _order(nu, max_order))


def hankel1e(nu: float, z, max_order: float | None = None):
    """Exponentially scaled Hankel function e^{-iz} H_nu^(1)(z)."""
    return _evaluate(_sp.hankel1e, z, "H1e_nu", _order(nu, max_order))


def hankel2(nu: float, z, max_order: float | None = None):
    """Hankel function of the second kind, H_nu^(2)(z)."""
    return _evaluate(_sp.hankel2, z, "H2_nu", _order(nu, max_order))


def hankel1_prime(nu: float, z, max_order: float | None = None):
    """d/dz H_nu^(1)(z)."""
    return _evaluate(_sp.h1vp, z, "H1'_nu", _order(nu, max_order))


def hankel2_prime(nu: float, z, max_order: float | None = None):
    """d/dz H_nu^(2)(z)."""
    return _evaluate(_sp.h2vp, z, "H2'_nu", _order(nu, max_order))


def _kummer_parameters(a, c) -> tuple[float, float]:
    a, c = complex(a), complex(c)
    if a.imag != 0 or c.imag != 0:
        raise OutOfRangeError(f"kummer_f needs real a and c, got a={a}, c={c}")
    _check_pole(c, "kummer_f")
    return a.real, c.real


def kummer_f(a: float, c: float, z) -> complex:
    """Confluent hypergeometric function F(a|c|z) for real a and c."""
    a, c = _kummer_parameters(a, c)
    if z.real > _KUMMER_Z_MAX and not (a <= 0 and a.is_integer()):
        raise OutOfRangeError(f"kummer_f overflows at Re z above {_KUMMER_Z_MAX:g}")
    return complex(_evaluate(_sp.hyp1f1, z, "kummer_f", a, c, dtype=None))


def kummer_f_prime(a: float, c: float, z) -> complex:
    """d/dz F(a|c|z) = (a/c) F(a+1|c+1|z)."""
    a, c = _kummer_parameters(a, c)
    return a / c * kummer_f(a + 1.0, c + 1.0, z)
