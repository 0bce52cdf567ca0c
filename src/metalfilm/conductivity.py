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

from dataclasses import dataclass

import numpy as np

from .materials import FilmSetup, MaterialParams, derive_bulk
from .quadrature import integrate_complex

__all__ = [
    "ConductivityResult",
    "complex_thickness",
    "drude_conductivity",
    "fuchs_integrand",
    "integrate_fuchs",
    "phi_inverse",
    "phi_inverse_from_integral",
    "sigma_d",
]


@dataclass(frozen=True)
class ConductivityResult:
    """Film conductivity along with the quadrature bookkeeping.

    Attributes
    ----------
    sigma_d : complex
        thickness-averaged conductivity, 1/s; Re(sigma_d) >= 0
    phi_inverse : complex
        the dimensionless size-effect factor 1/Phi(w)
    quad_error_estimate : float
        propagated quadrature error bound on the dimensionless ratio
        sigma_d / (sigma_0 / (1 - i*omega*tau)); zero on the exact p = 1 path
    """

    sigma_d: complex
    phi_inverse: complex
    quad_error_estimate: float


def _check_w_p(w: complex, p: float) -> None:
    if not w.real > 0.0:
        raise ValueError(f"requires Re(w) > 0 for convergence, got w={w!r}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p!r}")


def drude_conductivity(m: MaterialParams, omega):
    """Bulk Drude conductivity sigma_0/(1 - i*omega*tau), 1/s: sigma_d at p = 1.

    ``omega`` may be a scalar or a numpy array.
    """
    der = derive_bulk(m)
    return der.sigma_0 / (1.0 - 1j * (omega * der.tau))


def complex_thickness(m: MaterialParams, d, omega):
    """Dimensionless complex thickness w = (d/l)*(1 - i*omega*tau).

    ``d`` and ``omega`` may be scalars or numpy arrays (broadcast).
    """
    der = derive_bulk(m)
    return (d / der.l) * (1.0 - 1j * (omega * der.tau))


def fuchs_integrand(t, w: complex, p: float):
    """Kernel (1/t^3 - 1/t^5)*(1 - e^{-wt})/(1 - p e^{-wt}) for t >= 1.

    Accepts a scalar or array t.  The denominator is bounded below by
    1 - p for Re(w) > 0, so the value is always finite; it vanishes at
    the endpoint t = 1 where the algebraic prefactor has its root.
    """
    _check_w_p(complex(w), p)
    t = np.asarray(t, dtype=float)
    if np.any(t < 1.0):
        raise ValueError("t must be >= 1")
    with np.errstate(over="ignore", under="ignore"):
        decay = np.exp(-w * t)
        out = (t**-3.0 - t**-5.0) * (1.0 - decay) / (1.0 - p * decay)
    return out if out.ndim else complex(out)


def integrate_fuchs(w: complex, p: float, tol: float = 1e-10) -> tuple[complex, float]:
    """Evaluate I(w, p) adaptively.

    Returns (value, error_estimate) with error_estimate <= tol*(|value|+1).
    Raises QuadratureError (carrying the best estimate) if the panel
    budget is exhausted, and ValueError for Re(w) <= 0.
    """
    _check_w_p(complex(w), p)
    if not tol > 0.0:
        raise ValueError(f"tol must be > 0, got {tol!r}")
    w, p = complex(w), float(p)

    def transformed(u):
        # t = 1/u maps [1, inf) onto (0, 1]; the integrand becomes
        # (u - u^3)*(1 - e^{-w/u})/(1 - p e^{-w/u}), smooth with limit 0 at u=0.
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            decay = np.exp(-w / u)
            return (u - u**3) * (1.0 - decay) / (1.0 - p * decay)

    return integrate_complex(transformed, 0.0, 1.0, tol=float(tol), max_panels=10_000)


def phi_inverse_from_integral(w: complex, p: float, integral: complex) -> complex:
    """Assemble 1/Phi(w) = 1/w - (3/(2 w^2))*(1-p)*I from a precomputed I."""
    return 1.0 / w - 1.5 * (1.0 - p) * integral / (w * w)


def phi_inverse(w: complex, p: float, tol: float = 1e-10) -> complex:
    """Size-effect factor 1/Phi(w); exactly 1/w for p = 1 (no quadrature)."""
    _check_w_p(complex(w), p)
    if p == 1.0:
        return 1.0 / w
    integral, _ = integrate_fuchs(w, p, tol)
    return phi_inverse_from_integral(w, p, integral)


def sigma_d(m: MaterialParams, s: FilmSetup, tol: float = 1e-10) -> ConductivityResult:
    """Thickness-averaged conductivity of the film described by ``s``.

    For p = 1 the result is exactly the bulk Drude value
    sigma_0 / (1 - i*omega*tau): specular surfaces do not disturb the
    electron distribution, so the size effect vanishes identically.
    Quadrature and domain errors propagate to the caller.
    """
    drude = drude_conductivity(m, s.omega)
    w = complex_thickness(m, s.d, s.omega)
    if s.p == 1.0:
        return ConductivityResult(
            sigma_d=drude, phi_inverse=1.0 / w, quad_error_estimate=0.0
        )
    integral, int_err = integrate_fuchs(w, s.p, tol)
    phi_inv = phi_inverse_from_integral(w, s.p, integral)
    ratio_err = 1.5 * (1.0 - s.p) * int_err / abs(w)
    return ConductivityResult(
        sigma_d=drude * w * phi_inv,
        phi_inverse=phi_inv,
        quad_error_estimate=ratio_err,
    )
