"""Transmission, reflection and absorption of an s-wave by a thin metal film.

The film thickness is assumed small compared with the skin depth and the
wavelength, where the response collapses to a single thickness-averaged
conductivity.  That conductivity carries the full size effect: electron
scattering at the film surfaces (specularity p) shortens the effective
mean free path via the Fuchs-Sondheimer kernel, evaluated here for
complex frequency with a controlled-accuracy adaptive quadrature.

Units are Gaussian-CGS throughout (cm, s, rad/s, conductivity in 1/s).
"""

# Each module's __all__ lists its public names; the package republishes them.
from . import conductivity, materials, optics, quadrature, slab, sweep
from .materials import *
from .quadrature import *
from .conductivity import *
from .optics import *
from .slab import *
from .sweep import *

__version__ = "0.1.0"

__all__ = [
    *(name for module in (materials, quadrature, conductivity, optics, slab, sweep)
      for name in module.__all__),
    "__version__",
]
