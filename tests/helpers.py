"""Independent oracles used across the test suite.

The Simpson integrals deliberately share no code with the package:
composite Simpson on dense uniform grids, in two different variables, so
an error in the adaptive quadrature or in the integrand substitution
cannot cancel.  ``reference_sweep`` is the per-point sweep loop that the
array evaluation in ``metalfilm.sweep`` replaced; it keeps that loop's
own formulas for w, kd and the best-estimate fallback.
"""

import numpy as np

from metalfilm import (
    C_LIGHT,
    QuadratureError,
    SweepRow,
    derive_bulk,
    phi_inverse_from_integral,
    sigma_d,
    tra_for_film,
)


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


def _clamp01(x):
    return 0.0 if x < 0.0 else 1.0 if x > 1.0 else x


def reference_sweep(spec):
    """Evaluate a SweepSpec one grid point at a time with the scalar routines."""
    m = spec.material
    der = derive_bulk(m)
    swept_name = "omega_over_omega_p" if spec.swept == "omega" else spec.swept
    rows = []
    for v in spec.grid.values():
        s = spec.setup_for(v)
        w = (s.d / der.l) * complex(1.0, -s.omega * der.tau)
        try:
            res = sigma_d(m, s, spec.tol)
            sigma, quad_err = res.sigma_d, res.quad_error_estimate
        except QuadratureError as exc:
            phi_inv = phi_inverse_from_integral(w, s.p, exc.value)
            sigma = der.sigma_0 / complex(1.0, -s.omega * der.tau) * w * phi_inv
            quad_err = 1.5 * (1.0 - s.p) * exc.error_estimate / abs(w)
        c = tra_for_film(sigma, s.d, s.theta)
        rows.append(
            SweepRow(
                swept_name, v, _clamp01(c.T), _clamp01(c.R), _clamp01(c.A),
                sigma.real, sigma.imag, w.real, w.imag, s.omega * s.d / C_LIGHT, quad_err,
            )
        )
    return rows
