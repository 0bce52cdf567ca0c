"""Transmission, reflection and absorption of an s-wave by a thin metal film.

The film thickness is assumed small compared with the skin depth and the
wavelength, where the response collapses to a single thickness-averaged
conductivity.  That conductivity carries the full size effect: electron
scattering at the film surfaces (specularity p) shortens the effective
mean free path via the Fuchs-Sondheimer kernel, evaluated here for
complex frequency with a controlled-accuracy adaptive quadrature.

Units are Gaussian-CGS throughout (cm, s, rad/s, conductivity in 1/s).
"""

from .materials import (
    C_LIGHT,
    DerivedBulk,
    FilmSetup,
    MaterialParams,
    derive_bulk,
    sodium_preset,
)
from .quadrature import QuadratureError, integrate_complex
from .conductivity import (
    ConductivityResult,
    complex_thickness,
    fuchs_integrand,
    integrate_fuchs,
    phi_inverse,
    phi_inverse_from_integral,
    sigma_d,
)
from .optics import (
    GrazingIncidenceError,
    ImpedancePair,
    OpticalCoefficients,
    PassivityError,
    b_factor,
    thin_impedances,
    tra_for_film,
    tra_from_b,
    tra_from_impedances,
)
from .slab import (
    LocalSlabParams,
    SlabResonanceError,
    ValidationRow,
    default_validation_setups,
    exact_impedances,
    exact_tra,
    slab_wavevector,
    validate_thin_film,
)
from .sweep import (
    FIGURE_NAMES,
    GridSpec,
    SweepRow,
    SweepSpec,
    emit_csv,
    emit_validation_csv,
    figure_preset,
    run_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "C_LIGHT",
    "MaterialParams",
    "DerivedBulk",
    "FilmSetup",
    "derive_bulk",
    "sodium_preset",
    "QuadratureError",
    "integrate_complex",
    "ConductivityResult",
    "complex_thickness",
    "fuchs_integrand",
    "integrate_fuchs",
    "phi_inverse",
    "phi_inverse_from_integral",
    "sigma_d",
    "GrazingIncidenceError",
    "PassivityError",
    "ImpedancePair",
    "OpticalCoefficients",
    "b_factor",
    "tra_from_b",
    "thin_impedances",
    "tra_from_impedances",
    "tra_for_film",
    "LocalSlabParams",
    "SlabResonanceError",
    "ValidationRow",
    "slab_wavevector",
    "exact_impedances",
    "exact_tra",
    "validate_thin_film",
    "default_validation_setups",
    "GridSpec",
    "SweepSpec",
    "SweepRow",
    "FIGURE_NAMES",
    "run_sweep",
    "figure_preset",
    "emit_csv",
    "emit_validation_csv",
    "__version__",
]
