"""Special functions of fractional order: a thin adapter over ``scipy.special``.

scipy.special is imported when a function here first calls it, not with
the package: `model`, `numerics`, `propagate` above its switch point X0
(where the packet kernel comes from propagate's own Hankel expansion) and
`scattering` rows in the near field 0 < k r < j_{0,1} (where the recurrence
is normalised by Neumann's sum) never load it, so a caller that stays on
those paths never pays its import time and memory.  After that first call
the module global ``_sp`` is scipy.special itself, so no call pays for the
deferral.

Orders are real, possibly negative and non-integer.  Cylinder functions take a
complex argument (purely imaginary inside an evanescent barrier), scalar or
array; a scalar returns a Python ``complex`` (``float`` for the real-valued
scaled I and K), an array an array of its shape.  An order array broadcasts
against the argument the same way and returns an array, each element equal to
the scalar call at its order.  Backing scipy routines:

* ``bessel_j``, ``bessel_j_prime``: ``jv``, ``jvp`` (AMOS; reflection for nu < 0)
* ``bessel_j_ladder``: one ``jv`` call over the orders nu0 + m, m = 0..count-1.
  Nothing in the library calls it any more: a scattering row takes its orders
  up to the turning point nu = k r from one ``bessel_j`` call (none below
  k r = j_{0,1}) and every order above from the three-term recurrence.  It
  stays only because the benchmark's tracer (``perfbench/tracing.py``
  ``TARGETS``) looks it up, and goes together with that entry
* ``bessel_ie``, ``bessel_ke``: ``ive``, ``kve``, the scaled e^{-x} I_nu(x)
  and e^{x} K_nu(x) of real x > 0 (DLMF 10.25), finite where I_nu overflows
  and K_nu underflows
* ``bessel_j_hankel1``: ``jv`` and ``hankel1`` at the same orders and
  argument, the pair the matching formula needs.  For float nu and z
  (``np.float64`` included) one test of the inputs and one of both results
  run on Python floats, and scipy runs at complex(z), the argument
  ``bessel_j`` hands it: at a real z scipy's real ``jv`` would drop the
  rounding-level imaginary part (~1e-17 relative) that the complex routine
  gives J, and change its bits.  Any other input, or a test that fails, is
  ``bessel_j`` followed by ``hankel1``, so the pair raises exactly what that
  sequence raises, and its values are the two calls' bit for bit
* ``hankel1``, ``hankel1_prime``: ``hankel1``, ``h1vp`` (AMOS).  Nothing in
  the library calls either any more (the matching formula takes H from
  ``bessel_j_hankel1``); like ``bessel_j_ladder`` they stay only for the
  tracer's ``TARGETS``
* ``hankel1e``: ``hankel1e``, the scaled e^{-iz} H_nu^(1)(z), whose phase stays
  small at large z so a caller can fold e^{iz} into a phase of its own
* ``kummer_f``: ``hyp1f1`` for real a, c, each scalar or an array that
  broadcasts against the others like an order array (a real z keeps scipy's
  real routine and returns a real array).  A caller takes F' from
  F'(a|c|z) = (a/c) F(a+1|c+1|z) (DLMF 13.3.15), by a second scalar call or
  from the parameter pair (a, a + 1), (c, c + 1) of one call.  Re z above
  ``_KUMMER_Z_MAX`` is refused unless that element's a is 0, -1, -2, ...:
  there |F| has long overflowed, and for a real z scipy would take seconds
  or not return at all.  For float a, c and z its input test (c > 1/2,
  clear of every pole, and z finite with Re z <= ``_KUMMER_Z_MAX``) and its
  result test run on Python floats.  Any other input, or an input test that
  fails, meets its single guards: the real-parameter test, the pole test,
  the Re z test with its terminating-series exemption, then the argument
  guard; so a c <= 1/2 off a pole, or a terminating series at Re z above
  ``_KUMMER_Z_MAX``, still evaluates

An order is refused only when it is not finite, and a result only when it
is not finite: no order is too large by itself.  Where scipy would take a
non-finite input or return inf or nan, the library raises instead:

* ``OutOfRangeError``: a non-finite order or argument, a non-real Kummer
  parameter, a Kummer c of -inf, a Kummer argument with Re z above
  ``_KUMMER_Z_MAX`` and a non-terminating series, a non-finite result at
  z != 0, or a Hankel value (``hankel1``, ``hankel1e``, the H of
  ``bessel_j_hankel1``) of exactly 0 at a real z != 0, where H^(1) has no
  zero and AMOS has failed, as at (nu, z) = (1e10, 2e10) and
  (1e10, -2e10 + 0j).  An array raises if any element would.
* ``SingularArgumentError``: a non-finite result at z = 0, where the function
  diverges (every Hankel function; J, J' where their leading power is negative).
* ``PoleError``: Kummer's F at c within 1e-12 of 0, -1, -2, ...

A call takes one of two routes.  For a Python ``float`` argument
(``np.float64`` included), or a Python ``complex`` one for the complex
routines, the input test runs in Python: z finite and, for ``bessel_ie``
and ``bessel_ke``, z > 0; then nu finite, in Python for a float order
and by one reduction for an order array.  scipy gets the float, or
complex(z) for the complex routines, the operand the array cast makes, so
every value keeps its bits.  The shielded weights' call, ``bessel_ie`` on
an order pair at a float x = kappa R0, takes this route with its pair
left as one array: two scalar calls with their results tested in Python
would cut a ``matching_sweep`` pass further, but while the benchmark
keeps every pass's outputs that cut reads as a ``peak_rss_mb`` rise
beyond its bound.  ``bessel_j_hankel1`` (float nu and z: both finite,
then ``cmath.isfinite`` of J and of H, then H != 0) and ``kummer_f``
(float a, c and z) keep float routes of their own; the matching formula
calls the pair twice per weight, and one more function call on that path
costs more than the shared test saves.

Any other input, and any scalar test that fails, meets the single guards,
one reduction each, in the order x > 0, order, argument (for
``kummer_f``: real parameters, pole, Re z, argument).  The first of them
to fail raises its error and message above, as it would alone.  On
either route the result is then tested once, a 0-d result by
``cmath.isfinite`` and an array by one isfinite reduction; only when that
fails does the result guard run, which tells z = 0 from an overflow.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import OutOfRangeError, PoleError, SingularArgumentError

__all__ = [
    "bessel_j",
    "bessel_j_hankel1",
    "bessel_j_prime",
    "bessel_j_ladder",
    "bessel_ie",
    "bessel_ke",
    "hankel1",
    "hankel1e",
    "hankel1_prime",
    "kummer_f",
]

# |F(a|c|z)| ~ Gamma(c)/Gamma(a) e^z z^(a-c) has overflowed by Re z ~ 1e4 for
# a non-terminating series (c up to 1e3); scipy's real hyp1f1 takes 3 ms at
# z = 1e9, time linear in z above that, and does not return from ~1e12 on
_KUMMER_Z_MAX = 1e9


class _SpecialOnFirstUse:
    """Stands in for ``scipy.special`` until a function here first needs it.

    The first attribute lookup imports scipy.special, rebinds the module
    global `_sp` to it and returns the attribute; every later call reads
    ``_sp.jv`` and the rest from scipy.special itself.
    """

    def __getattr__(self, name: str):
        global _sp
        from scipy import special

        _sp = special
        return getattr(special, name)


_sp = _SpecialOnFirstUse()


def _order(nu) -> np.ndarray:
    """nu as a float64 array; OutOfRangeError unless every element is finite."""
    nu = np.asarray(nu, dtype=np.float64)
    if not np.isfinite(nu).all():
        raise OutOfRangeError("order not finite")
    return nu


def _argument(z, name: str, dtype=np.complex128) -> np.ndarray:
    """z as an array of `dtype`; OutOfRangeError unless every element is finite."""
    z = np.asarray(z, dtype=dtype)
    if not np.isfinite(z).all():
        raise OutOfRangeError(f"{name}: argument must be finite")
    return z


def _positive(x, name: str):
    """OutOfRangeError unless every element of x is > 0 (NaN passes here and
    meets the argument guard)."""
    if (np.asarray(x) <= 0).any():
        raise OutOfRangeError(f"{name} expects x > 0")
    return x


def _finite(out, z, name: str) -> None:
    """Raise for a non-finite element of out: SingularArgumentError if it sits
    at z = 0, else OutOfRangeError."""
    if not np.isfinite(out).all():
        if (~np.isfinite(out) & (z == 0)).any():
            raise SingularArgumentError(f"{name} diverges at z=0")
        raise OutOfRangeError(f"{name} is not finite in double precision here")


def _inputs(nu, z, name: str, dtype=np.complex128, positive: str | None = None):
    """(nu, z) for scipy once both pass: nu and z finite and, where
    `positive` names the function, z > 0.

    A Python ``float`` z (``np.float64`` included), or for a complex `dtype`
    a Python ``complex``, is tested in Python and handed on as the float, or
    as complex(z), the operand the array cast would make; a float nu is then
    tested in Python too, any other nu by one isfinite reduction.  Any other
    z, or a scalar test that fails, meets the single guards: `_positive`,
    `_order`, `_argument`, in that order, one reduction each.  So the first
    of them to fail raises, as it would alone; if none does, the caller
    meets whatever scipy raises for the same inputs.
    """
    if isinstance(z, float) or (dtype is np.complex128 and isinstance(z, complex)):
        z_in = complex(z) if dtype is np.complex128 else z
        if cmath.isfinite(z_in) and (positive is None or z_in > 0.0):
            if isinstance(nu, float):
                if math.isfinite(nu):
                    return nu, z_in
            else:
                # a conversion that fails raises here what `_order` would
                nu_in = np.asarray(nu, dtype=np.float64)
                if np.isfinite(nu_in).all():
                    return nu_in, z_in
    if positive is not None:
        _positive(z, positive)
    return _order(nu), _argument(z, name, dtype)


def _result(out, z, name: str):
    """out after one finiteness test (`_finite` raises if it fails): an
    array by one isfinite reduction, returned as it is; a numpy scalar by
    `cmath.isfinite`, returned as a Python scalar."""
    if isinstance(out, np.ndarray):
        if not np.isfinite(out).all():
            _finite(out, z, name)
        return out
    if not cmath.isfinite(out):
        _finite(out, z, name)
    return out.item()


def _hankel_nonzero(out, z, name: str):
    """out, a Hankel value, after a test that no element is exactly 0 at a
    real z != 0 (OutOfRangeError there).

    J and Y have no common zero at a real x > 0 (DLMF 10.21(i)), so
    H = J + iY != 0 there.  On the negative real axis scipy takes ph z = pi,
    for Im z = -0 too, and H^(1)_nu(x e^{pi i}) = -e^{-nu pi i} H^(2)_nu(x)
    (DLMF 10.11.5) with H^(2)_nu(x) = conj(H^(1)_nu(x)) != 0.  So H = 0 at a
    real z != 0 can only be a failed evaluation: AMOS returns 0 at
    (nu, z) = (1e10, 2e10) and (1e10, -2e10 + 0j).  A scalar takes one
    comparison, an array one reduction; only when it fails is z looked at.
    """
    if out.all() if isinstance(out, np.ndarray) else out != 0:
        return out
    z = np.asarray(z)
    if ((out == 0) & (z.imag == 0) & (z.real != 0)).any():
        raise OutOfRangeError(f"{name} is 0 at a real argument, where it has no zero")
    return out


def _evaluate(fn, nu, z, name: str, dtype=np.complex128, positive: str | None = None):
    """fn(nu, z) after the input route of `_inputs` and one test of the
    result (`_result`): scipy's inf/nan becomes a typed error."""
    nu, z = _inputs(nu, z, name, dtype, positive)
    return _result(fn(nu, z), z, name)


def _check_pole(x, name: str) -> None:
    """PoleError if x, or any element of an array x, is within 1e-12 of 0, -1, -2, ...;
    OutOfRangeError if an element is -inf.

    The distance to the nearest integer is exact from the fractional part f
    of `np.modf` as min(|f|, 1 - |f|); f is -0 at -inf, so -inf takes the
    pole branch without the inf - inf of real - round(real), and is told
    apart only there.  An x above 1/2 takes no reduction beyond the first.
    """
    x = np.asarray(x)
    real = x.real
    left = real <= 0.5
    if left.any():
        frac = np.abs(np.modf(real)[0])
        if (left & (np.abs(x.imag) < 1e-12) & (np.minimum(frac, 1.0 - frac) < 1e-12)).any():
            if np.isinf(real).any():
                raise OutOfRangeError(f"{name} needs a finite parameter, got {x}")
            raise PoleError(f"{name} pole at {x}")


def bessel_j(nu: float, z):
    """Bessel function J_nu(z) for real order and complex argument."""
    return _evaluate(_sp.jv, nu, z, "J_nu")


def bessel_j_prime(nu: float, z):
    """d/dz J_nu(z)."""
    return _evaluate(_sp.jvp, nu, z, "J'_nu")


def bessel_j_ladder(nu0: float, count: int, z) -> np.ndarray:
    """J_{nu0+m}(z) for m = 0..count-1 at a scalar argument, each order
    nu0 + m in one rounding."""
    if count < 1:
        raise OutOfRangeError("count must be >= 1")
    orders = float(nu0) + np.arange(count)
    try:
        z = complex(z)
    except (TypeError, ValueError):
        _order(orders)  # a bad order is reported first
        raise
    return _evaluate(_sp.jv, orders, z, "J ladder")


def bessel_ie(nu: float, x):
    """Exponentially scaled modified Bessel function e^{-x} I_nu(x), real x > 0."""
    return _evaluate(_sp.ive, nu, x, "Ie_nu", np.float64, positive="bessel_ie")


def bessel_ke(nu: float, x):
    """Exponentially scaled modified Bessel function e^{x} K_nu(x), real x > 0."""
    return _evaluate(_sp.kve, nu, x, "Ke_nu", np.float64, positive="bessel_ke")


def hankel1(nu: float, z):
    """Hankel function of the first kind, H_nu^(1)(z)."""
    return _hankel_nonzero(_evaluate(_sp.hankel1, nu, z, "H1_nu"), z, "H1_nu")


def bessel_j_hankel1(nu: float, z):
    """(J_nu(z), H_nu^(1)(z)) at the same orders and argument; raises what
    `bessel_j` followed by `hankel1` would raise.

    Float nu and z (the matching formula's calls) are tested on Python
    floats, and scipy runs at complex(z), the argument `bessel_j` hands it,
    so J keeps its complex-AMOS bits.  Any other input, or a failed test, is
    that sequence itself.
    """
    if isinstance(nu, float) and isinstance(z, float):
        if -math.inf < nu < math.inf and -math.inf < z < math.inf:
            zc = complex(z)
            j, h = complex(_sp.jv(nu, zc)), complex(_sp.hankel1(nu, zc))
            # h == 0 is false and falls through: `hankel1` refuses it at z != 0
            if cmath.isfinite(j) and cmath.isfinite(h) and h:
                return j, h
    return bessel_j(nu, z), hankel1(nu, z)


def hankel1e(nu: float, z):
    """Exponentially scaled Hankel function e^{-iz} H_nu^(1)(z)."""
    return _hankel_nonzero(_evaluate(_sp.hankel1e, nu, z, "H1e_nu"), z, "H1e_nu")


def hankel1_prime(nu: float, z):
    """d/dz H_nu^(1)(z)."""
    return _evaluate(_sp.h1vp, nu, z, "H1'_nu")


def _real_parameters(a, c):
    """(a, c) as arrays, real; OutOfRangeError if either has a non-zero
    imaginary part."""
    a, c = np.asarray(a), np.asarray(c)
    if a.dtype.kind == "c" or c.dtype.kind == "c":
        if a.imag.any() or c.imag.any():
            raise OutOfRangeError(f"kummer_f needs real a and c, got a={a}, c={c}")
        a, c = a.real, c.real
    return a, c


def _check_far(a, z) -> None:
    """OutOfRangeError if an element has Re z above `_KUMMER_Z_MAX` and a
    series that does not terminate (its a is not 0, -1, -2, ...).  Where a and
    z cannot broadcast it raises nothing, and scipy reports the shapes."""
    far = np.asarray(z).real > _KUMMER_Z_MAX
    if far.any():
        try:
            nonterminating = (far & ((a > 0) | (np.modf(a)[0] != 0))).any()
        except ValueError:
            return
        if nonterminating:
            raise OutOfRangeError(f"kummer_f overflows at Re z above {_KUMMER_Z_MAX:g}")


def _kummer_inputs(a, c, z):
    """(a, c, z) for `hyp1f1`.

    Float a, c and z (the library's calls) take one test on Python floats:
    c > 1/2 (clear of every pole) and z finite with Re z <= `_KUMMER_Z_MAX`.
    Any other input, or a test that fails, meets the single guards:
    `_real_parameters`, `_check_pole`, `_check_far`, `_argument`, in that
    order.  So the first of them to fail raises, as it would alone; if none
    does, the caller meets whatever scipy raises for the same inputs.
    """
    if isinstance(a, float) and isinstance(c, float) and isinstance(z, float):
        if c > 0.5 and -math.inf < z <= _KUMMER_Z_MAX:
            return a, c, z
    a, c = _real_parameters(a, c)
    _check_pole(c, "kummer_f")
    _check_far(a, z)
    return a, c, _argument(z, "kummer_f", None)


def kummer_f(a, c, z):
    """Confluent hypergeometric function F(a|c|z) for real a and c.

    A Python ``complex`` for scalar a, c and z; else an array, each element
    equal to the scalar call at its (a, c, z).
    """
    a, c, z = _kummer_inputs(a, c, z)
    out = _sp.hyp1f1(a, c, z)
    if isinstance(out, np.ndarray):
        return _result(out, z, "kummer_f")
    if not cmath.isfinite(out):
        _finite(out, z, "kummer_f")
    return complex(out)
