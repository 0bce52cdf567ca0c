"""Thin-film impedances, reflection factors and the (T, R, A) triple.

The s-wave response of a film much thinner than both the skin depth and
the wavelength reduces to a single dimensionless admittance

    B = 2*pi*d*sigma_d / (c*cos(theta)),

giving  T = 1/|1+B|^2,  R = |B|^2/|1+B|^2,  A = 2*Re(B)/|1+B|^2,  which sum
to one identically.  A film whose |1+B|^2 is infinite is a perfect mirror,
(T, R, A) = (0, 1, 0); grazing incidence (theta = pi/2, cos(theta) = 0) is
the case B = inf of that one rule.  The same coefficients follow from the
two surface impedances of the antisymmetric- and symmetric-field
configurations via the reflection-like factors
P_j = (Z_j*cos(theta) - 1)/(Z_j*cos(theta) + 1); that impedance route is
kept public because it also accepts the exact slab impedances used for
validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .materials import C_LIGHT, _check_film, _require

__all__ = [
    "PassivityError",
    "ImpedancePair",
    "OpticalCoefficients",
    "b_factor",
    "tra_from_b",
    "thin_impedances",
    "tra_from_impedances",
    "tra_for_film",
]


class PassivityError(ValueError):
    """Re(B) < 0 would mean negative absorption in a passive film; NaN fails too."""


@dataclass(frozen=True)
class ImpedancePair:
    """Surface impedances (dimensionless, Gaussian units).

    z1 belongs to the antisymmetric-electric-field configuration and
    vanishes in the thin-film limit; z2 to the symmetric one.
    Complex numbers for a single film; numpy arrays when the inputs were arrays.
    """

    z1: complex
    z2: complex


@dataclass(frozen=True)
class OpticalCoefficients:
    """Energy transmission, reflection and absorption fractions.

    Python floats for a single film; numpy arrays when the inputs were arrays.
    """

    T: float
    R: float
    A: float


def b_factor(sigma, d, theta):
    """Film admittance B = 2*pi*d*sigma/(c*cos(theta)).

    Scalars or numpy arrays (broadcast); scalar input returns a complex.
    d and theta obey the FilmSetup rules.  At theta = pi/2 the admittance
    diverges and B = inf for any sigma, which :func:`tra_from_b` turns
    into the mirror limit (0, 1, 0).
    """
    d, theta = np.asarray(d, dtype=float), np.asarray(theta, dtype=float)
    _check_film(d, theta)
    # the quotient may overflow where cos(theta) is tiny; an infinite B is the mirror limit
    with np.errstate(over="ignore"):
        b = 2.0 * math.pi * d * sigma / (C_LIGHT * np.cos(theta))
    b = np.where(theta == math.pi / 2, math.inf, b)
    return b if b.ndim else complex(b)


def _coefficients(T, R, A) -> OpticalCoefficients:
    """Python floats for 0-d input, arrays otherwise."""
    if np.ndim(T):
        return OpticalCoefficients(T=T, R=R, A=A)
    return OpticalCoefficients(T=float(T), R=float(R), A=float(A))


def _tra_arrays(b: np.ndarray):
    br, bi = b.real, b.imag
    _require(br >= 0.0, "Re(B) must be >= 0", b, PassivityError)
    _require(~np.isnan(bi), "Im(B) must not be NaN", b)
    with np.errstate(over="ignore", invalid="ignore"):
        bi2 = bi**2
        denom = (1.0 + br) ** 2 + bi2
        T, R, A = 1.0 / denom, (br**2 + bi2) / denom, 2.0 * br / denom
    # |1+B|^2 beyond the float range (B = inf at grazing incidence): a perfect mirror
    mirror = np.isinf(denom)
    if np.count_nonzero(mirror):
        return np.where(mirror, 0.0, T), np.where(mirror, 1.0, R), np.where(mirror, 0.0, A)
    return T, R, A


def tra_from_b(b) -> OpticalCoefficients:
    """Coefficients from the film admittance.

    Accepts a scalar or a numpy array of admittances; the coefficients are
    Python floats for scalar input and arrays of the same shape otherwise.
    T + R + A = 1 holds algebraically since |1+B|^2 = 1 + |B|^2 + 2*Re(B).
    R is computed as |B|^2/|1+B|^2 (identical to 1/|1+1/B|^2) so that
    B = 0 cleanly yields the transparent-film limit (1, 0, 0), and a B whose
    |1+B|^2 overflows, B = inf included, the mirror limit (0, 1, 0).  Any
    element with Re(B) < 0 or NaN raises PassivityError, and one with a
    NaN Im(B) raises ValueError.
    """
    return _coefficients(*_tra_arrays(np.asarray(b, dtype=complex)))


def thin_impedances(
    sigma: complex,
    d: float,
    omega: float,
    theta: float,
) -> ImpedancePair:
    """Thin-slab impedance pair.

    With kd = omega*d/c the pair is

        z1 = -i*kd/2,
        z2 = 2c / (-i*c*kd*cos(theta)^2 + 4*pi*d*sigma),

    where the reactive cos^2 term in z2 is the leading kd-correction kept
    by the thin-slab field balance (it matches the qd->0 expansion of the
    exact slab solution).  An infinite z2 stands for the non-conducting
    open-circuit limit.  d, omega and theta obey the FilmSetup rules.
    """
    _check_film(d, theta, omega)
    sigma = complex(sigma)
    kd = omega * d / C_LIGHT
    z1 = -0.5j * kd
    denom = -1j * C_LIGHT * kd * math.cos(theta) ** 2 + 4.0 * math.pi * d * sigma
    if denom == 0:
        return ImpedancePair(z1=z1, z2=complex(math.inf, 0.0))
    return ImpedancePair(z1=z1, z2=2.0 * C_LIGHT / denom)


def _p_factor(z: np.ndarray, cos_theta) -> np.ndarray:
    """(Z*cos - 1)/(Z*cos + 1), with the open-circuit limit 1 where Z is not finite."""
    finite = np.isfinite(z)
    zc = np.where(finite, z, 0.0) * cos_theta
    return np.where(finite, (zc - 1.0) / (zc + 1.0), 1.0)


def tra_from_impedances(z: ImpedancePair, theta) -> OpticalCoefficients:
    """Coefficients from an impedance pair via the reflection factors.

    The impedances and theta may be scalars or numpy arrays (broadcast);
    the coefficients are returned as by :func:`tra_from_b`.  T and R are
    invariant under swapping z1 and z2; A closes the energy balance as
    1 - T - R.
    """
    ct = np.cos(np.asarray(theta, dtype=float))
    p1 = _p_factor(np.asarray(z.z1, dtype=complex), ct)
    p2 = _p_factor(np.asarray(z.z2, dtype=complex), ct)
    T = 0.25 * np.abs(p1 - p2) ** 2
    R = 0.25 * np.abs(p1 + p2) ** 2
    return _coefficients(T, R, 1.0 - T - R)


def tra_for_film(sigma, d, theta) -> OpticalCoefficients:
    """Coefficients for a film of conductivity ``sigma``: ``tra_from_b(b_factor(...))``.

    Scalars or numpy arrays (broadcast), returned as by :func:`tra_from_b`;
    elements at theta = pi/2 have B = inf and so give (0, 1, 0).
    """
    return tra_from_b(b_factor(sigma, d, theta))
