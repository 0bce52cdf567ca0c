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

import cmath
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .conductivity import complex_thickness, drude_conductivity
from .materials import C_LIGHT, FilmSetup, MaterialParams
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

    sigma_local is the local (Drude) conductivity in 1/s with
    Re(sigma_local) >= 0; d, theta, omega as in FilmSetup, except that
    omega must be strictly positive (no incident wave otherwise).
    """

    sigma_local: complex
    d: float
    theta: float
    omega: float

    def __post_init__(self) -> None:
        if complex(self.sigma_local).real < 0.0:
            raise ValueError(f"Re(sigma_local) must be >= 0, got {self.sigma_local!r}")
        if not self.d > 0.0:
            raise ValueError(f"d must be > 0, got {self.d!r}")
        if not 0.0 <= self.theta <= math.pi / 2:
            raise ValueError(f"theta must lie in [0, pi/2], got {self.theta!r}")
        if not self.omega > 0.0:
            raise ValueError(f"omega must be > 0, got {self.omega!r}")


def slab_wavevector(lp: LocalSlabParams) -> complex:
    """Internal wavevector q, 1/cm.

    Branch: Re(q) >= 0, and Im(q) >= 0 when Re(q) = 0.  For passive
    sigma the squared value lies in the closed upper half-plane, where
    the principal square root satisfies both conditions.
    """
    k = lp.omega / C_LIGHT
    q2 = k**2 * math.cos(lp.theta) ** 2 + 4j * math.pi * lp.omega * complex(lp.sigma_local) / C_LIGHT**2
    q2 = complex(q2.real, q2.imag + 0.0)  # normalize -0.0 imaginary part
    q = cmath.sqrt(q2)
    if q.real < 0.0 or (q.real == 0.0 and q.imag < 0.0):
        q = -q
    return q


def _impedances_from_q(q: complex, k: float, d: float) -> ImpedancePair:
    x = q * d / 2.0
    # Resonances require x near the real axis; for |Im x| >= 30 the
    # trig magnitudes are >= sinh(30) and cosh/sinh would overflow anyway.
    if abs(x.imag) < 30.0:
        if abs(cmath.cos(x)) < RESONANCE_THRESHOLD:
            raise SlabResonanceError(f"tan pole at q*d/2 = {x!r}", x)
        if abs(cmath.sin(x)) < RESONANCE_THRESHOLD:
            raise SlabResonanceError(f"cot pole at q*d/2 = {x!r}", x)
    t = cmath.tan(x)
    return ImpedancePair(z1=-(1j * k / q) * t, z2=(1j * k / q) / t)


def exact_impedances(lp: LocalSlabParams) -> ImpedancePair:
    """Closed-form slab impedances, valid at arbitrary kd and qd.

    Both impedances are odd in q, so the branch choice of
    :func:`slab_wavevector` does not affect them.  Raises
    SlabResonanceError at a tan/cot pole, reporting the location.
    """
    q = slab_wavevector(lp)
    return _impedances_from_q(q, lp.omega / C_LIGHT, lp.d)


def exact_tra(lp: LocalSlabParams) -> OpticalCoefficients:
    """(T, R, A) of the uniform slab without the thin-film approximation."""
    return tra_from_impedances(exact_impedances(lp), lp.theta)


@dataclass(frozen=True)
class ValidationRow:
    """Per-point comparison between the thin-film and exact routes."""

    d: float
    theta: float
    omega_over_omega_p: float
    T: float
    R: float
    A: float
    re_sigma_d: float
    im_sigma_d: float
    re_w: float
    im_w: float
    kd: float
    quad_err: float
    abs_dT: float
    abs_dR: float
    abs_dA: float
    d_over_delta: float


def validate_thin_film(m: MaterialParams, setups: Iterable[FilmSetup]) -> list[ValidationRow]:
    """Compare the thin-film coefficients with the exact slab solution.

    Every setup must have p = 1 (only specular surfaces admit a local
    oracle) and omega > 0.  The conductivity is then the bulk Drude value,
    so the thin-film side is evaluated as arrays over all setups; the
    exact side is solved per setup.  Deviations are reported as data, not
    failures: the report is what documents where the thin-film model
    breaks down.  d_over_delta is d*Im(q), the thickness in units of the
    actual field penetration depth at that frequency.
    """
    setups = list(setups)
    for s in setups:
        if s.p != 1.0:
            raise ValueError(f"oracle comparison requires p = 1, got p={s.p!r}")
    d, theta, omega = (np.array([getattr(s, f) for s in setups], dtype=float)
                       for f in ("d", "theta", "omega"))
    sigma = drude_conductivity(m, omega)
    w = complex_thickness(m, d, omega)
    thin = tra_for_film(sigma, d, theta)
    rows = []
    for s, sig, T, R, A, w_i, kd in zip(
        setups, sigma.tolist(), thin.T.tolist(), thin.R.tolist(), thin.A.tolist(),
        w.tolist(), (omega * d / C_LIGHT).tolist(),
    ):
        lp = LocalSlabParams(sigma_local=sig, d=s.d, theta=s.theta, omega=s.omega)
        exact = exact_tra(lp)
        q = slab_wavevector(lp)
        rows.append(
            ValidationRow(
                d=s.d,
                theta=s.theta,
                omega_over_omega_p=s.omega / m.omega_p,
                T=T,
                R=R,
                A=A,
                re_sigma_d=sig.real,
                im_sigma_d=sig.imag,
                re_w=w_i.real,
                im_w=w_i.imag,
                kd=kd,
                quad_err=0.0,
                abs_dT=abs(T - exact.T),
                abs_dR=abs(R - exact.R),
                abs_dA=abs(A - exact.A),
                d_over_delta=s.d * q.imag,
            )
        )
    return rows


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
    if d_count < 2:
        raise ValueError("d_count must be >= 2")
    ratio = (d_max / d_min) ** (1.0 / (d_count - 1))
    ds = [d_min * ratio**i for i in range(d_count)]
    return [
        FilmSetup(d=d, theta=theta, omega=frac * m.omega_p, p=1.0)
        for frac in omega_fracs
        for d in ds
    ]
