import metalfilm

PUBLIC_NAMES = {
    "C_LIGHT", "MaterialParams", "DerivedBulk", "FilmSetup", "derive_bulk", "sodium_preset",
    "QuadratureError", "integrate_complex",
    "ConductivityResult", "complex_thickness", "integrate_fuchs",
    "phi_inverse", "sigma_d",
    "PassivityError", "ImpedancePair", "OpticalCoefficients",
    "b_factor", "tra_from_b", "thin_impedances", "tra_from_impedances", "tra_for_film",
    "LocalSlabParams", "ValidationRow", "slab_wavevector",
    "exact_impedances", "exact_tra", "validate_thin_film", "default_validation_setups",
    "GridSpec", "SweepSpec", "SweepRow", "FIGURE_NAMES", "run_sweep", "figure_preset",
    "emit_csv", "emit_validation_csv",
    "__version__",
}


def test_public_surface():
    """The package publishes exactly these 37 names, once each, and all resolve."""
    assert len(PUBLIC_NAMES) == 37
    assert sorted(metalfilm.__all__) == sorted(PUBLIC_NAMES)
    for name in metalfilm.__all__:
        assert hasattr(metalfilm, name)
