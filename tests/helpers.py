"""Independent oracles used across the test suite.

The Simpson integrals deliberately share no code with the package:
composite Simpson on dense uniform grids, in two different variables, so
an error in the adaptive quadrature or in the integrand substitution
cannot cancel.  ``reference_sweep`` is the per-point sweep loop that the
array evaluation in ``metalfilm.sweep`` replaced; it keeps that loop's
own formulas for w, kd, the Drude value and the assembly of sigma_d and
its error bound from ``integrate_fuchs`` (converged or not), in the
package's order of operations, so p < 1 values agree bit for bit.
``reference_validation`` solves the exact slab one setup at a time with
``cmath``, as the package did before its slab code became array-shaped,
and ``reference_emit_csv``/``reference_emit_validation_csv`` format
every number on its own with an f-string, the bytes the package's
blocked emitters and their array number kernel must reproduce.
``airy_slab_tra`` is a second, independent exact slab: the Airy
transfer formula in ``mpmath``, exact at tan/cot poles and in the thin
limit.  ``fuchs_ratio`` is the closed-form E3 - E5 series for sigma_d / sigma_Drude
in ``mpmath``; it needs no quadrature, so it stays exact where Im w >> Re w.
"""

import cmath
import math
from pathlib import Path

import mpmath
import numpy as np

from metalfilm import (
    C_LIGHT,
    QuadratureError,
    SweepRow,
    ValidationRow,
    complex_thickness,
    derive_bulk,
    integrate_fuchs,
    tra_for_film,
)
from metalfilm.conductivity import drude_conductivity
from metalfilm.sweep import CSV_HEADER, VALIDATION_CSV_HEADER


def simpson(y, h):
    n = len(y) - 1
    assert n % 2 == 0, "composite Simpson needs an even number of panels"
    return (h / 3.0) * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum())


def fuchs_integral_simpson_u(w, p, panels=10**6):
    """Size-effect kernel integral via Simpson on u = 1/t in (0, 1]."""
    w = complex(w)
    u = np.linspace(0.0, 1.0, panels + 1)
    f = np.zeros(panels + 1, dtype=complex)
    nz = u > 0
    with np.errstate(over="ignore", under="ignore"):
        decay = np.exp(-w / u[nz])
    f[nz] = (u[nz] - u[nz] ** 3) * (1.0 - decay) / (1.0 - p * decay)
    return simpson(f, 1.0 / panels)


def fuchs_integral_simpson_t(w, p, panels=10**6, decay_lengths=40.0):
    """Same integral via Simpson in t on [1, t_max] plus the algebraic tail.

    Beyond t_max = 1 + decay_lengths/Re(w) the exponential is below
    e^-40, so the tail integrand is (1/t^3 - 1/t^5) to ~1e-18 relative
    and integrates in closed form to 1/(2 t_max^2) - 1/(4 t_max^4).
    """
    w = complex(w)
    t_max = 1.0 + decay_lengths / w.real
    t = np.linspace(1.0, t_max, panels + 1)
    with np.errstate(over="ignore", under="ignore"):
        e = np.exp(-w * t)
    f = (t**-3.0 - t**-5.0) * (1.0 - e) / (1.0 - p * e)
    tail = 0.5 / t_max**2 - 0.25 / t_max**4
    return simpson(f, (t_max - 1.0) / panels) + tail


def fuchs_ratio(w, p, dps=30):
    """sigma_d / sigma_Drude = w * phi_inverse(w, p) from the Fuchs series.

        I(w, p) = 1/4 - (1-p) sum_{n>=1} p^(n-1) [E3(n w) - E5(n w)]

    (Sondheimer, Adv. Phys. 1, 1 (1952)), with E3 and E5 from
    ``mpmath.expint``.  Since |E3(z) - E5(z)| <= e^-Re(z)/4, the terms after
    the n-th sum to at most p^n e^-(n+1)x / (4 (1 - p e^-x)), x = Re w; the
    sum stops once that tail moves the ratio by less than 1e-15 of its value.
    """
    with mpmath.workdps(dps):
        w, p = mpmath.mpc(w), mpmath.mpf(p)
        decay = mpmath.exp(-w.real)
        factor = 1.5 * (1 - p) / w
        total, pn, n = mpmath.mpc(0), mpmath.mpf(1), 1
        while True:
            total += pn * (mpmath.expint(3, n * w) - mpmath.expint(5, n * w))
            ratio = 1 - factor * (mpmath.mpf(1) / 4 - (1 - p) * total)
            tail = pn * p * decay ** (n + 1) / (4 * (1 - p * decay))
            if abs(factor) * (1 - p) * tail <= 1e-15 * abs(ratio):
                return complex(ratio)
            pn *= p
            n += 1


def reference_sweep(spec):
    """Evaluate a SweepSpec one grid point at a time with the scalar routines."""
    m = spec.material
    der = derive_bulk(m)
    swept_name = "omega_over_omega_p" if spec.swept == "omega" else spec.swept
    rows = []
    for v in spec.grid.values():
        s = spec.setup_for(v)
        w = (s.d / der.l) * complex(1.0, -s.omega * der.tau)
        drude = der.sigma_0 / complex(1.0, -s.omega * der.tau)
        if s.p == 1.0:
            sigma, quad_err = drude, 0.0
        else:
            try:
                integral, int_err = integrate_fuchs(w, s.p, spec.tol)
            except QuadratureError as exc:
                integral, int_err = exc.value, exc.error_estimate
            phi_inv = 1.0 / w - 1.5 * (1.0 - s.p) * integral / (w * w)
            sigma = drude * w * phi_inv
            quad_err = 1.5 * (1.0 - s.p) * int_err / abs(w)
        c = tra_for_film(sigma, s.d, s.theta)
        rows.append(
            SweepRow(
                swept_name, v, c.T, c.R, c.A,
                sigma.real, sigma.imag, w.real, w.imag, s.omega * s.d / C_LIGHT, quad_err,
            )
        )
    return rows


def _slab_wavevector(sigma, d, theta, omega):
    k = omega / C_LIGHT
    q2 = k**2 * math.cos(theta) ** 2 + 4j * math.pi * omega * complex(sigma) / C_LIGHT**2
    q2 = complex(q2.real, q2.imag + 0.0)
    q = cmath.sqrt(q2)
    if q.real < 0.0 or (q.real == 0.0 and q.imag < 0.0):
        q = -q
    return q


def _p_factor(z, cos_theta):
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        return 1.0 + 0j
    zc = z * cos_theta
    return (zc - 1.0) / (zc + 1.0)


def _slab_tra(q, d, theta, omega):
    """(T, R, A) of one uniform slab from z1 = -(ik/q)tan(qd/2), z2 = (ik/q)cot(qd/2)."""
    k = omega / C_LIGHT
    t = cmath.tan(q * d / 2.0)
    ct = math.cos(theta)
    p1 = _p_factor(-(1j * k / q) * t, ct)
    p2 = _p_factor((1j * k / q) / t, ct)
    T = 0.25 * abs(p1 - p2) ** 2
    R = 0.25 * abs(p1 + p2) ** 2
    return T, R, 1.0 - T - R


def airy_slab_tra(sigma, d, theta, omega):
    """(T, R, A) of one uniform slab from the Airy transfer formula, 50 digits.

    With k0 = k*cos(theta) outside, q inside, r = (k0 - q)/(k0 + q) and
    e = e^{2iqd}, the slab's amplitudes are

        t = (1 - r^2) e^{iqd} / (1 - r^2 e),   r_slab = r (1 - e) / (1 - r^2 e).

    Both are multiplied through by (k0 + q)^2 and 1 - e is written as
    -expm1(2iqd), so a thin slab does not cancel.  Shares no code with
    the impedance route: no tan, no cot, no reflection factors.
    """
    with mpmath.workdps(50):
        k = mpmath.mpf(omega) / C_LIGHT
        k0 = k * mpmath.cos(mpmath.mpf(theta))
        q = mpmath.sqrt(k0**2 + 4j * mpmath.pi * omega * mpmath.mpc(sigma) / mpmath.mpf(C_LIGHT) ** 2)
        em1 = mpmath.expm1(2j * q * d)
        den = 4 * k0 * q - (k0 - q) ** 2 * em1
        T = abs(4 * k0 * q * mpmath.exp(1j * q * d) / den) ** 2
        R = abs((k0**2 - q**2) * em1 / den) ** 2
        return float(T), float(R), float(1 - T - R)


def reference_validation(m, setups):
    """The validation report with the exact slab solved per setup in cmath.

    The thin-film side is the package's array evaluation, as in
    ``metalfilm.validate_thin_film``, so its columns can be compared bit
    for bit; only the slab side is independent.
    """
    setups = list(setups)
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
        q = _slab_wavevector(sig, s.d, s.theta, s.omega)
        eT, eR, eA = _slab_tra(q, s.d, s.theta, s.omega)
        rows.append(ValidationRow(
            d=s.d, theta=s.theta, omega_over_omega_p=s.omega / m.omega_p,
            T=T, R=R, A=A, re_sigma_d=sig.real, im_sigma_d=sig.imag,
            re_w=w_i.real, im_w=w_i.imag, kd=kd, quad_err=0.0,
            abs_dT=abs(T - eT), abs_dR=abs(R - eR), abs_dA=abs(A - eA),
            d_over_delta=s.d * q.imag,
        ))
    return rows


def _write_lines(destination, lines):
    Path(destination).write_text("\n".join(lines) + "\n")


def reference_emit_csv(rows, destination):
    lines = [CSV_HEADER]
    for r in rows:
        values = (
            r.swept_value, r.T, r.R, r.A, r.re_sigma_d, r.im_sigma_d,
            r.re_w, r.im_w, r.kd, r.quad_err,
        )
        lines.append(",".join([r.swept_name] + [f"{v:.17e}" for v in values]))
    _write_lines(destination, lines)


def reference_emit_validation_csv(rows, destination):
    lines = [VALIDATION_CSV_HEADER]
    for r in rows:
        values = (
            r.d, r.T, r.R, r.A, r.re_sigma_d, r.im_sigma_d, r.re_w, r.im_w,
            r.kd, r.quad_err, r.omega_over_omega_p, r.abs_dT, r.abs_dR,
            r.abs_dA, r.d_over_delta,
        )
        lines.append(",".join(["d"] + [f"{v:.17e}" for v in values]))
    _write_lines(destination, lines)
