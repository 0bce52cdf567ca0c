"""Thickness-averaged complex conductivity of a thin metal film.

Electron scattering at the film surfaces shortens the effective mean free
path, so the conductivity averaged across the thickness depends on the
dimensionless complex thickness

    w = (d / l) * (1 - i*omega*tau),

on the surface specularity p, and enters through the kernel integral

    I(w, p) = integral_1^inf (1/t^3 - 1/t^5) * (1 - exp(-w t)) / (1 - p exp(-w t)) dt.

The film conductivity relative to the bulk Drude value sigma_0/(1 - i*omega*tau)
is  w * phi_inverse(w, p)  with

    phi_inverse(w, p) = 1/w - (3/(2 w^2)) * (1 - p) * I(w, p).

For p = 1 the integral term vanishes and the bulk Drude value is recovered
exactly; for w -> infinity the correction tends to 3(1-p)/(8w); for small w
the conductivity is strongly suppressed.  Sign conventions follow the
exp(-i*omega*t) time dependence, so passive response means Re(sigma) >= 0
and Im(w) <= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .materials import (
    FilmSetup, MaterialParams, _check_omega, _check_p, _check_positive, _require, derive_bulk,
)
from .quadrature import _TOL, QuadratureError, integrate_complex

__all__ = [
    "ConductivityResult",
    "complex_thickness",
    "integrate_fuchs",
    "phi_inverse",
    "sigma_d",
]

#: w*w, which 1/Phi divides by, must stay a normal double
_W_ABS_MIN, _W_ABS_MAX = 1e-150, 1e150
_W_ABS_RULE = f"|w| must lie in [{_W_ABS_MIN:g}, {_W_ABS_MAX:g}] so that w*w stays a normal double"


@dataclass(frozen=True)
class ConductivityResult:
    """Film conductivity along with the quadrature bookkeeping.

    Attributes
    ----------
    sigma_d : complex
        thickness-averaged conductivity, 1/s; Re(sigma_d) >= 0
    quad_error_estimate : float
        propagated quadrature error estimate on the dimensionless ratio
        sigma_d / (sigma_0 / (1 - i*omega*tau)); zero on the exact p = 1
        path.  An estimate, not a bound: in the oscillatory regime
        (|Im w| >= 10 Re w) it can fall below the true error (see the
        README, "Library quick start")
    converged : bool
        False when the quadrature ran out of panels before reaching the
        tolerance; sigma_d is then its best estimate and
        quad_error_estimate the (larger than asked) estimate for it
    """

    sigma_d: complex
    quad_error_estimate: float
    converged: bool


def _check_w_abs(w: complex) -> None:
    _require(_W_ABS_MIN <= math.hypot(w.real, w.imag) <= _W_ABS_MAX, _W_ABS_RULE, w)


def _check_w_p(w: complex, p: float) -> None:
    _require(w.real > 0.0, "Re(w) must be > 0 for convergence", w)
    _check_p(p)


def drude_conductivity(m: MaterialParams, omega):
    """Bulk Drude conductivity sigma_0/(1 - i*omega*tau), 1/s: sigma_d at p = 1.

    ``omega`` may be a scalar or a numpy array.
    """
    _check_omega(omega)
    der = derive_bulk(m)
    return der.sigma_0 / (1.0 - 1j * (omega * der.tau))


def complex_thickness(m: MaterialParams, d, omega):
    """Dimensionless complex thickness w = (d/l)*(1 - i*omega*tau).

    ``d`` and ``omega`` may be scalars or numpy arrays (broadcast).
    """
    _check_positive("d", d)
    _check_omega(omega)
    der = derive_bulk(m)
    return (d / der.l) * (1.0 - 1j * (omega * der.tau))


def integrate_fuchs(w: complex, p: float, tol: float = _TOL) -> tuple[complex, float]:
    """Evaluate I(w, p) adaptively.

    Returns (value, error_estimate) with error_estimate <= tol*(|value|+1);
    error_estimate is the quadrature's error estimate, not a bound on the
    true error (see the README, "Library quick start").
    Raises QuadratureError (carrying the best estimate) if the panel
    budget is exhausted, and ValueError for Re(w) <= 0.
    """
    _check_w_p(complex(w), p)
    w, p = complex(w), float(p)

    def transformed(u):
        # t = 1/u maps [1, inf) onto (0, 1]; the integrand becomes
        # (u - u^3)*(1 - e^{-w/u})/(1 - p e^{-w/u}), smooth with limit 0 at u=0.
        decay = np.exp(-w / u)
        return (u - u * u * u) * (1.0 - decay) / (1.0 - p * decay)

    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        return integrate_complex(transformed, 0.0, 1.0, tol=float(tol))


def _phi_inverse_from_integral(w: complex, p: float, integral: complex) -> complex:
    """Assemble 1/Phi(w) = 1/w - (3/(2 w^2))*(1-p)*I from a precomputed I."""
    return 1.0 / w - 1.5 * (1.0 - p) * integral / (w * w)


def phi_inverse(w: complex, p: float, tol: float = _TOL) -> complex:
    """Size-effect factor 1/Phi(w); exactly 1/w for p = 1 (no quadrature)."""
    _check_w_p(complex(w), p)
    _check_w_abs(complex(w))
    if p == 1.0:
        return 1.0 / w
    integral, _ = integrate_fuchs(w, p, tol)
    return _phi_inverse_from_integral(w, p, integral)


def sigma_d(m: MaterialParams, s: FilmSetup, tol: float = _TOL) -> ConductivityResult:
    """Thickness-averaged conductivity of the film described by ``s``.

    For p = 1 the result is exactly the bulk Drude value
    sigma_0 / (1 - i*omega*tau): specular surfaces do not disturb the
    electron distribution, so the size effect vanishes identically.
    A quadrature that exhausts its panel budget does not raise: the best
    estimate is returned with ``converged=False``.  Domain errors
    propagate to the caller, among them |w| outside [1e-150, 1e150].
    """
    drude = drude_conductivity(m, s.omega)
    w = complex_thickness(m, s.d, s.omega)
    _check_w_abs(w)
    if s.p == 1.0:
        return ConductivityResult(sigma_d=drude, quad_error_estimate=0.0, converged=True)
    try:
        integral, int_err = integrate_fuchs(w, s.p, tol)
        converged = True
    except QuadratureError as exc:
        integral, int_err = exc.value, exc.error_estimate
        converged = False
    phi_inv = _phi_inverse_from_integral(w, s.p, integral)
    ratio_err = 1.5 * (1.0 - s.p) * int_err / abs(w)
    return ConductivityResult(
        sigma_d=drude * w * phi_inv,
        quad_error_estimate=ratio_err,
        converged=converged,
    )
