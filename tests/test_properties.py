"""Physics properties checked with ``hypothesis`` over seeded input draws.

Each property holds to rounding, so none needs a quadrature oracle: the
bounds are a few units in the last place, except that two materials at
one w may round w apart and so steer the adaptive quadrature to another
mesh.  The draws are derandomized, read no example database and have a
fixed size, so the suite stays deterministic.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from metalfilm import (
    FilmSetup,
    MaterialParams,
    b_factor,
    complex_thickness,
    derive_bulk,
    sigma_d,
    sodium_preset,
    tra_from_b,
)
from metalfilm.conductivity import drude_conductivity

_SETTINGS = settings(derandomize=True, database=None, max_examples=60, deadline=None)


def _ratio(m, d, omega, p):
    """sigma_d / sigma_Drude and w for one film."""
    s = FilmSetup(d=d, theta=0.0, omega=omega, p=p)
    return sigma_d(m, s).sigma_d / drude_conductivity(m, omega), complex_thickness(m, d, omega)


@_SETTINGS
@given(re_w=st.floats(40.0, 1e4), omega_frac=st.floats(1e-4, 1.0), p=st.floats(0.0, 0.99))
def test_thick_film_ratio_is_its_asymptote(re_w, omega_frac, p):
    """For Re w >= 40 the ratio is 1 - 3(1-p)/(8w) up to e^{-Re w} terms (< 1e-19)."""
    m = sodium_preset()
    ratio, w = _ratio(m, re_w * derive_bulk(m).l, omega_frac * m.omega_p, p)
    asym = 1.0 - 3.0 * (1.0 - p) / (8.0 * w)
    assert abs(ratio - asym) <= 1e-15 * abs(asym)


_ADMITTANCE_PART = st.floats(1e-6, 1e6)


@_SETTINGS
@given(re_b=st.one_of(st.just(0.0), _ADMITTANCE_PART), im_b=_ADMITTANCE_PART,
       im_sign=st.sampled_from((-1.0, 1.0)))
def test_reflection_over_transmission_is_b_squared(re_b, im_b, im_sign):
    """R/T = |B|^2, read from the unclipped coefficients."""
    b = complex(re_b, im_sign * im_b)
    c = tra_from_b(b)
    b2 = b.real**2 + b.imag**2
    assert abs(c.R / c.T - b2) <= 1e-15 * b2


@_SETTINGS
@given(re_s=st.floats(0.0, 1e18), im_s=st.floats(-1e18, 1e18), d=st.floats(1e-10, 1e-3),
       theta=st.floats(0.0, 1.5))
def test_admittance_times_cos_theta_is_independent_of_theta(re_s, im_s, d, theta):
    """B cos(theta) = 2 pi d sigma / c at every angle."""
    sigma = complex(re_s, im_s)
    normal = b_factor(sigma, d, 0.0)
    assert abs(b_factor(sigma, d, theta) * math.cos(theta) - normal) <= 1e-15 * abs(normal)


@_SETTINGS
@given(x=st.floats(1e-2, 1e2), omega_tau=st.floats(0.0, 100.0), p=st.floats(0.0, 0.95),
       v_f=st.floats(1e7, 1e9), nu=st.floats(1e11, 1e15))
def test_ratio_depends_on_the_film_only_through_w(x, omega_tau, p, v_f, nu):
    """A second material at the same w = (d/l)(1 - i omega tau) gives the same ratio."""
    m1, m2 = sodium_preset(), MaterialParams(omega_p=1e16, v_f=v_f, nu=nu)
    (r1, w1), (r2, w2) = (
        _ratio(m, x * derive_bulk(m).l, omega_tau / derive_bulk(m).tau, p) for m in (m1, m2)
    )
    assert abs(w2 - w1) <= 1e-15 * abs(w1)
    assert abs(r2 - r1) <= 1e-13 * abs(r1)
