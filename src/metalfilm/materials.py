"""Bulk metal parameters, derived transport quantities and film geometry.

Everything is in Gaussian-CGS units: lengths in cm, times in s, angular
frequencies in rad/s, conductivities in 1/s.  This is the unit system in
which the film admittance 2*pi*d*sigma/c is dimensionless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "C_LIGHT",
    "MaterialParams",
    "DerivedBulk",
    "FilmSetup",
    "derive_bulk",
    "sodium_preset",
]

#: speed of light in vacuum, cm/s
C_LIGHT = 2.99792458e10


def _require(ok, rule: str, value, error: type[ValueError] = ValueError) -> None:
    """Raise ``error("<rule>, got <value>")`` unless ``ok`` holds.

    ``ok`` is a bool, or a bool array of ``value``'s shape: then the first
    element where it is False is the value named.
    """
    if ok is True or (ok is not False and ok.all()):
        return
    first = np.asarray(value)[~np.asarray(ok)].flat[0].item()
    raise error(f"{rule}, got {first!r}")


def _check_positive(name: str, x) -> None:
    _require((0.0 < x) & (x < math.inf), f"{name} must be positive and finite", x)


def _check_p(p) -> None:
    _require((0.0 <= p) & (p <= 1.0), "p must lie in [0, 1]", p)


def _check_omega(omega) -> None:
    _require((0.0 <= omega) & (omega < math.inf), "omega must be finite and >= 0", omega)


def _check_film(d, theta, omega=0.0, p=1.0) -> None:
    """The FilmSetup rules, for scalars or numpy arrays (see FilmSetup)."""
    _check_positive("d", d)
    _require((0.0 <= theta) & (theta <= math.pi / 2), "theta must lie in [0, pi/2]", theta)
    _check_omega(omega)
    _check_p(p)


@dataclass(frozen=True)
class MaterialParams:
    """Bulk properties of a free-electron metal; they and the quantities
    of :class:`DerivedBulk` must be positive and finite.

    Attributes
    ----------
    omega_p : float
        plasma frequency, rad/s
    v_f : float
        Fermi velocity, cm/s
    nu : float
        volume electron collision frequency, 1/s
    """

    omega_p: float
    v_f: float
    nu: float

    def __post_init__(self) -> None:
        _check_positive("omega_p", self.omega_p)
        _check_positive("v_f", self.v_f)
        _check_positive("nu", self.nu)
        try:
            derived = vars(derive_bulk(self))
        except OverflowError:  # omega_p**2 past the largest double
            derived = {"sigma_0": math.inf}
        for name, value in derived.items():
            _check_positive(name, value)


@dataclass(frozen=True)
class DerivedBulk:
    """Transport quantities derived from :class:`MaterialParams`.

    Attributes
    ----------
    tau : float
        electron relaxation time 1/nu, s
    l : float
        mean free path v_f*tau, cm
    sigma_0 : float
        static conductivity omega_p**2*tau/(4*pi), 1/s
    delta_0 : float
        minimal (infrared-limit) skin depth c/omega_p, cm
    """

    tau: float
    l: float
    sigma_0: float
    delta_0: float


@dataclass(frozen=True)
class FilmSetup:
    """Film geometry and illumination.

    Attributes
    ----------
    d : float
        film thickness, cm; must be > 0 (the size-effect formulas are
        undefined for a zero-thickness film)
    theta : float
        angle of incidence, rad, in [0, pi/2]; pi/2 is the grazing
        boundary handled by the analytic limit downstream
    omega : float
        field angular frequency, rad/s, >= 0 (omega = 0 is the static limit)
    p : float
        surface specularity in [0, 1]; p = 1 means mirror reflection of
        electrons, p = 0 fully diffuse scattering
    """

    d: float
    theta: float
    omega: float
    p: float

    def __post_init__(self) -> None:
        # _check_film's rules as plain comparisons: cheap for the usual valid setup
        if not (0.0 < self.d < math.inf and 0.0 <= self.theta <= math.pi / 2
                and 0.0 <= self.omega < math.inf and 0.0 <= self.p <= 1.0):
            _check_film(self.d, self.theta, self.omega, self.p)


def derive_bulk(m: MaterialParams) -> DerivedBulk:
    """Compute relaxation time, mean free path, static conductivity and skin depth.

    Pure function of the material parameters; see :class:`DerivedBulk`
    for the definitions and units.
    """
    tau = 1.0 / m.nu
    return DerivedBulk(
        tau=tau,
        l=m.v_f * tau,
        sigma_0=m.omega_p**2 * tau / (4.0 * math.pi),
        delta_0=C_LIGHT / m.omega_p,
    )


def sodium_preset() -> MaterialParams:
    """Sodium: omega_p = 6.5e15 rad/s, v_F = 8.52e7 cm/s, nu = 1e-3*omega_p."""
    return MaterialParams(omega_p=6.5e15, v_f=8.52e7, nu=6.5e12)
