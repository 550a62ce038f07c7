"""Exception types shared across the library."""


class AbdiracError(Exception):
    """Base class for all library errors."""


class OutOfRangeError(AbdiracError):
    """Order/argument combination outside the supported evaluation range."""


class SingularArgumentError(AbdiracError):
    """Evaluation requested at a genuine singularity (z=0, t=0, ...)."""


class PoleError(AbdiracError):
    """Parameter sits on a pole of the function (e.g. Kummer c = 0, -1, -2, ...)."""


class RegimeError(AbdiracError):
    """Formula invoked outside its validity window (asymptotic misuse, barrier
    height, a radius outside the region a solution is defined on, ...)."""


class QuadratureError(AbdiracError):
    """Quadrature or extrapolation failed to converge to the requested tolerance."""
