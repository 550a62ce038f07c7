"""Dirac partial waves near bare and shielded magnetic flux strings.

Library layers:

* :mod:`abdirac.specfun`    -- fractional-order cylinder functions and Kummer's F
* :mod:`abdirac.model`      -- couplings, kinematics, tube/barrier geometry
* :mod:`abdirac.bare_tube`  -- finite flux tube, boundary matching, string limit
* :mod:`abdirac.shielded`   -- barrier region, shielded matching and eigenfunctions
* :mod:`abdirac.scattering` -- plane-wave scattering states and amplitudes
* :mod:`abdirac.propagate`  -- Green's-function differences and wave packets
* :mod:`abdirac.numerics`   -- cached Gauss-Legendre panel quadrature
* :mod:`abdirac.errors`     -- the typed errors every layer raises
"""

__version__ = "0.1.0"
