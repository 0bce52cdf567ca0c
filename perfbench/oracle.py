"""Reference values that share no code with the package.

``fuchs_ratio`` gives sigma_d / sigma_Drude = 1 - 1.5 (1-p) I(w, p) / w from
the closed-form Fuchs series

    I(w, p) = 1/4 - (1-p) sum_{n>=1} p^(n-1) [E3(n w) - E5(n w)],

in ``mpmath`` at 24 digits, with E3 and E5 from one E1 by the recurrence
E_{k+1}(z) = (e^-z - z E_k(z)) / k.  The series needs no quadrature, so it
stays exact where Im w >> Re w (where ``mpmath.quad`` loses digits) and at
small |w| (where the package's 1/w - 1.5 I/w^2 cancels).  For p = 0 it is a
single term.

``thin_film_tra`` and ``slab_tra`` are the thin-film admittance formulas and
the Airy transfer formula for a uniform slab (s-wave, Gaussian units).
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

C_LIGHT = 2.99792458e10
DPS = 24


def drude(material, omega_frac) -> complex:
    """Bulk Drude conductivity sigma_0 / (1 - i omega tau), 1/s."""
    omega_p, _, nu = material
    return omega_p**2 / (4.0 * math.pi * nu) / complex(1.0, -omega_frac * omega_p / nu)


def _e3_minus_e5(z):
    ez = mpmath.exp(-z)
    e = mpmath.e1(z)
    for k in (1, 2):
        e = (ez - z * e) / k
    e3 = e
    for k in (3, 4):
        e = (ez - z * e) / k
    return e3 - e


def fuchs_ratio(w: complex, p: float) -> complex:
    """sigma_d / sigma_Drude from the E3 - E5 series.

    |E3(z) - E5(z)| <= e^-Re(z) / 4, so the terms after n are bounded by
    p^n e^-(n+1)x / (4 (1 - p e^-x)) with x = Re w; the sum stops once that
    bound moves the ratio by less than 1e-14 of its value.  Assembling the
    ratio cancels about 2 log10(1/|w|) of the 24 digits, so about 12 remain
    at |w| = 1e-6 and more at larger |w|.
    """
    if p == 1.0:
        return 1.0 + 0.0j
    with mpmath.workdps(DPS):
        w = mpmath.mpc(w)
        p = mpmath.mpf(p)
        decay = mpmath.exp(-w.real)
        q = p * decay
        scale = 1.5 * (1 - p) / abs(w)
        total = mpmath.mpc(0)
        pn = mpmath.mpf(1)  # p^(n-1)
        n = 1
        while True:
            total += pn * _e3_minus_e5(n * w)
            ratio = 1 - 1.5 * (1 - p) * (mpmath.mpf(1) / 4 - (1 - p) * total) / w
            tail = pn * p * decay ** (n + 1) / (4 * (1 - q))
            if scale * (1 - p) * tail <= 1e-14 * abs(ratio):
                return complex(ratio)
            pn *= p
            n += 1


def thin_film_tra(sigma, d, theta):
    """(T, R, A) of a thin film from B = 2 pi d sigma / (c cos theta), elementwise.

    At theta = pi/2 the limit (0, 1, 0) applies.
    """
    sigma, d, theta = np.broadcast_arrays(*(np.asarray(a) for a in (sigma, d, theta)))
    grazing = theta == math.pi / 2
    cos = np.where(grazing, 1.0, np.cos(theta))
    b = 2.0 * math.pi * d * sigma / (C_LIGHT * cos)
    denom = np.abs(1.0 + b) ** 2
    T = np.where(grazing, 0.0, 1.0 / denom)
    R = np.where(grazing, 1.0, np.abs(b) ** 2 / denom)
    A = np.where(grazing, 0.0, 2.0 * b.real / denom)
    return T, R, A


def slab_tra(sigma, d, theta, omega):
    """(T, R, A, Im q) of a uniform local slab by the Airy transfer formula.

    Elementwise.  With kz = k cos(theta), q^2 = kz^2 + 4 pi i omega sigma / c^2
    and r = (kz - q)/(kz + q), the slab amplitudes are

        r_slab = r (1 - e^{2iqd}) / D,   t_slab = (1 - r^2) e^{iqd} / D,
        D = 1 - r^2 e^{2iqd},

    with 1 - e^{2iqd} = -2i sin(qd) e^{iqd} and D = (1 - e^{2iqd})
    + (1 - r^2) e^{2iqd} written out so thin slabs do not cancel.
    """
    kz = np.asarray(omega) / C_LIGHT * np.cos(theta)
    q = np.sqrt(kz * kz + 4j * math.pi * np.asarray(omega) * np.asarray(sigma) / C_LIGHT**2)
    r = (kz - q) / (kz + q)
    one_minus_r2 = 4.0 * kz * q / (kz + q) ** 2
    phase = np.exp(1j * q * d)
    gap = -2j * np.sin(q * d) * phase
    denom = gap + one_minus_r2 * phase * phase
    T = np.abs(one_minus_r2 * phase / denom) ** 2
    R = np.abs(r * gap / denom) ** 2
    return T, R, 1.0 - T - R, q.imag
