"""Exact s-wave solution for a slab with a uniform local conductivity.

Eliminating the magnetic field from the in-slab field system gives
E'' + q^2 E = 0 with the internal wavevector

    q^2 = k^2*cos(theta)^2 + 4*pi*i*omega*sigma/c^2,

and imposing the antisymmetric (E(0) = -E(d), H(0) = H(d)) or symmetric
(E(0) = E(d), H(0) = -H(d)) end conditions yields closed-form impedances

    z1 = -(i*k/q) * tan(q*d/2),      z2 = (i*k/q) * cot(q*d/2).

These hold at arbitrary kd and qd, so they validate the thin-film route
inside its stated domain (|q|d << 1, kd << 1).  The comparison is only
meaningful for specular surfaces (p = 1), where the film conductivity
reduces to the local Drude value; for p < 1 the surface kinetics has no
local-slab counterpart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .conductivity import complex_thickness, drude_conductivity
from .materials import C_LIGHT, FilmSetup, MaterialParams, _check_film, _check_positive, _require
from .optics import ImpedancePair, OpticalCoefficients, tra_for_film, tra_from_impedances

__all__ = [
    "SlabResonanceError",
    "LocalSlabParams",
    "ValidationRow",
    "slab_wavevector",
    "exact_impedances",
    "exact_tra",
    "validate_thin_film",
    "default_validation_setups",
]

#: |cos| or |sin| of q*d/2 below this threshold counts as a slab resonance
RESONANCE_THRESHOLD = 1e-12


class SlabResonanceError(ValueError):
    """q*d/2 sits at a pole of tan/cot (lossless slab resonance)."""

    def __init__(self, message: str, qd_half: complex):
        super().__init__(message)
        self.qd_half = qd_half


@dataclass(frozen=True)
class LocalSlabParams:
    """Slab with a position-independent conductivity.

    sigma_local is the local (Drude) conductivity in 1/s, finite with
    Re(sigma_local) >= 0; d, theta, omega as in FilmSetup, except that
    omega must be strictly positive (no incident wave otherwise).  The
    fields may be numpy arrays (broadcast), describing one slab per
    element; the functions below then return arrays.
    """

    sigma_local: complex
    d: float
    theta: float
    omega: float

    def __post_init__(self) -> None:
        sigma = np.asarray(self.sigma_local, dtype=complex)
        d, theta, omega = (np.asarray(x, dtype=float) for x in (self.d, self.theta, self.omega))
        _require(np.isfinite(sigma), "sigma_local must be finite", sigma)
        _require(sigma.real >= 0.0, "Re(sigma_local) must be >= 0", sigma)
        _require(omega > 0.0, "omega must be > 0", omega)
        _check_film(d, theta, omega)


def slab_wavevector(lp: LocalSlabParams):
    """Internal wavevector q, 1/cm (a complex, or an array for array fields).

    Branch: Re(q) >= 0, and Im(q) >= 0 when Re(q) = 0.  For passive
    sigma the squared value lies in the closed upper half-plane, where
    the principal square root satisfies both conditions.
    """
    omega = np.asarray(lp.omega, dtype=float)
    k = omega / C_LIGHT
    q2 = k**2 * np.cos(lp.theta) ** 2 + 4j * math.pi * omega * np.asarray(lp.sigma_local) / C_LIGHT**2
    q = np.sqrt(q2 + 0.0)  # adding 0.0 normalizes a -0.0 imaginary part
    q = np.where((q.real < 0.0) | ((q.real == 0.0) & (q.imag < 0.0)), -q, q)
    return q if q.ndim else complex(q)


def _impedances_from_q(q, k, d) -> ImpedancePair:
    x = np.asarray(q, dtype=complex) * d / 2.0
    # Resonances require x near the real axis; for |Im x| >= 30 the
    # trig magnitudes are >= sinh(30) and cosh/sinh would overflow anyway.
    near = np.abs(x.imag) < 30.0
    with np.errstate(over="ignore", invalid="ignore"):
        tan_pole = near & (np.abs(np.cos(x)) < RESONANCE_THRESHOLD)
        cot_pole = near & (np.abs(np.sin(x)) < RESONANCE_THRESHOLD)
    pole = tan_pole | cot_pole
    if np.count_nonzero(pole):
        i = np.flatnonzero(pole)[0]
        at = x.flat[i].item()
        raise SlabResonanceError(f"{'tan' if tan_pole.flat[i] else 'cot'} pole at q*d/2 = {at!r}", at)
    t = np.tan(x)
    ik_q = 1j * k / q
    z1, z2 = -ik_q * t, ik_q / t
    return ImpedancePair(z1=z1, z2=z2) if x.ndim else ImpedancePair(z1=complex(z1), z2=complex(z2))


def exact_impedances(lp: LocalSlabParams) -> ImpedancePair:
    """Closed-form slab impedances, valid at arbitrary kd and qd.

    Both impedances are odd in q, so the branch choice of
    :func:`slab_wavevector` does not affect them.  Raises
    SlabResonanceError at a tan/cot pole, reporting the location of the
    first slab that sits on one.
    """
    q = slab_wavevector(lp)
    return _impedances_from_q(q, lp.omega / C_LIGHT, lp.d)


def exact_tra(lp: LocalSlabParams) -> OpticalCoefficients:
    """(T, R, A) of the uniform slab without the thin-film approximation."""
    return tra_from_impedances(exact_impedances(lp), lp.theta)


class ValidationRow(NamedTuple):
    """Per-point comparison between the thin-film and exact routes.

    The fields before ``theta`` are the validation CSV columns in order
    (``d`` is the swept value); ``theta`` is last and not written.
    """

    d: float
    T: float
    R: float
    A: float
    re_sigma_d: float
    im_sigma_d: float
    re_w: float
    im_w: float
    kd: float
    quad_err: float
    omega_over_omega_p: float
    abs_dT: float
    abs_dR: float
    abs_dA: float
    d_over_delta: float
    theta: float


def validate_thin_film(m: MaterialParams, setups: Iterable[FilmSetup]) -> list[ValidationRow]:
    """Compare the thin-film coefficients with the exact slab solution.

    Every setup must have p = 1 (only specular surfaces admit a local
    oracle) and omega > 0; both are checked before anything is computed.
    The conductivity is then the bulk Drude value, and both sides are
    evaluated as arrays over all setups.  Deviations are reported as
    data, not failures: the report is what documents where the thin-film
    model breaks down.  d_over_delta is d*Im(q), the thickness in units
    of the actual field penetration depth at that frequency.
    """
    d, theta, omega, p = np.array(
        [(s.d, s.theta, s.omega, s.p) for s in setups], dtype=float
    ).reshape(-1, 4).T
    _require(p == 1.0, "oracle comparison requires p = 1", p)
    sigma = drude_conductivity(m, omega)
    lp = LocalSlabParams(sigma_local=sigma, d=d, theta=theta, omega=omega)
    w = complex_thickness(m, d, omega)
    thin = tra_for_film(sigma, d, theta)
    exact = exact_tra(lp)
    columns = (
        d, thin.T, thin.R, thin.A, sigma.real, sigma.imag, w.real, w.imag,
        omega * d / C_LIGHT, np.zeros(d.shape), omega / m.omega_p,
        np.abs(thin.T - exact.T), np.abs(thin.R - exact.R), np.abs(thin.A - exact.A),
        d * slab_wavevector(lp).imag, theta,
    )
    return [ValidationRow(*row) for row in zip(*(c.tolist() for c in columns))]


def default_validation_setups(
    m: MaterialParams,
    d_min: float = 1e-9,
    d_max: float = 1e-4,
    d_count: int = 11,
    omega_fracs: tuple[float, ...] = (1e-3, 1e-2, 1e-1),
    theta: float = 0.0,
) -> list[FilmSetup]:
    """Log-spaced thickness grid crossed with a few frequencies, at p = 1.

    The default range deliberately extends past the skin depth so the
    report shows the thin-film model breaking down.
    """
    _require(d_count >= 2, "d_count must be >= 2", d_count)
    _check_positive("d_min", d_min)
    _check_positive("d_max", d_max)
    ratio = (d_max / d_min) ** (1.0 / (d_count - 1))
    ds = [d_min * ratio**i for i in range(d_count)]
    return [
        FilmSetup(d=d, theta=theta, omega=frac * m.omega_p, p=1.0)
        for frac in omega_fracs
        for d in ds
    ]
