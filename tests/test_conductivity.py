import numpy as np
import pytest

from metalfilm import (
    FilmSetup,
    complex_thickness,
    derive_bulk,
    fuchs_integrand,
    integrate_fuchs,
    phi_inverse,
    sigma_d,
    sodium_preset,
)
from helpers import fuchs_integral_simpson_u

# Frozen oracle values, computed with composite Simpson on u in (0, 1]
# at 1e7 panels and cross-checked against an independent t-space Simpson
# (agreement ~1e-16) before being committed.
I_W1_P0 = 0.21076227026396033
I_W1PLUS1J_P05 = complex(0.25149350399208864, 0.018010721458525315)
SODIUM_W_FIG1 = complex(7.62910798122065723e-03, -7.62910798122065775e-02)
SODIUM_SIGMA_FIG1 = complex(1.55056057593355680e16, 1.13125942399630080e16)


class TestFuchsIntegrand:
    def test_zero_at_endpoint(self):
        assert fuchs_integrand(1.0, 0.5 - 0.2j, 0.3) == 0

    def test_specular_collapses_to_prefactor(self):
        t = np.array([1.0, 1.5, 2.0, 5.0, 30.0])
        np.testing.assert_allclose(
            fuchs_integrand(t, 0.7 - 0.1j, 1.0), t**-3.0 - t**-5.0, rtol=1e-14
        )

    def test_domain_error_for_nonpositive_re_w(self):
        with pytest.raises(ValueError):
            fuchs_integrand(2.0, -0.1 + 1j, 0.5)
        with pytest.raises(ValueError):
            fuchs_integrand(2.0, 0.0 + 1j, 0.5)

    def test_t_below_one_rejected(self):
        with pytest.raises(ValueError):
            fuchs_integrand(0.5, 1.0 + 0j, 0.0)

    def test_bounded_on_random_parameter_grid(self):
        """No overflow/NaN anywhere in the physical parameter box.

        Re(w) spans [1e-4, 1e3]; Im(w)/Re(w) = -omega*tau is sampled in
        [-1e4, 0]; the denominator obeys |1 - p e^{-wt}| >= 1 - p.
        """
        rng = np.random.default_rng(42)
        n = 10_000
        re_w = 10.0 ** rng.uniform(-4, 3, n)
        ratio = -(10.0 ** rng.uniform(-2, 4, n))
        ratio[rng.random(n) < 0.1] = 0.0
        w = re_w * (1.0 + 1j * ratio)
        p = rng.random(n)
        t = rng.uniform(1.0, 100.0, n)
        for ti, wi, pi in zip(t, w, p):
            value = fuchs_integrand(ti, wi, pi)
            assert np.isfinite(value.real) and np.isfinite(value.imag)
            denom = abs(1.0 - pi * np.exp(-wi * ti))
            assert denom >= (1.0 - pi) - 1e-15


class TestIntegrateFuchs:
    def test_thick_limit(self):
        """For large real w the exponential dies and the integral is 1/4."""
        value, _ = integrate_fuchs(100.0, 0.0)
        assert value.real == pytest.approx(0.25, abs=1e-3)
        assert abs(value.imag) < 1e-12

    def test_specular_value_still_finite(self):
        # never used downstream (multiplied by 1-p = 0) but must be clean
        value, _ = integrate_fuchs(2.0 - 0.5j, 1.0)
        assert value == pytest.approx(0.25, abs=1e-8)

    def test_frozen_fixture_real(self):
        value, err = integrate_fuchs(1.0 + 0j, 0.0)
        assert value.real == pytest.approx(I_W1_P0, rel=1e-10)
        assert err <= 1e-10 * (abs(value) + 1.0)

    def test_frozen_fixture_complex(self):
        value, _ = integrate_fuchs(1.0 + 1.0j, 0.5)
        assert abs(value - I_W1PLUS1J_P05) / abs(I_W1PLUS1J_P05) < 1e-10

    @pytest.mark.parametrize(
        "w,p",
        [(0.1, 0.0), (1.0, 0.5), (complex(0.1, -1.0), 0.3), (complex(1.0, -10.0), 0.7)],
    )
    def test_against_simpson_oracle(self, w, p):
        ref = fuchs_integral_simpson_u(w, p, panels=200_000)
        value, _ = integrate_fuchs(w, p)
        assert abs(value - ref) / abs(ref) < 1e-8

    def test_domain_and_tolerance_validation(self):
        with pytest.raises(ValueError):
            integrate_fuchs(-1.0 + 0j, 0.0)
        with pytest.raises(ValueError):
            integrate_fuchs(1.0 + 0j, 0.0, tol=-1e-10)

    def test_budget_failure_carries_usable_estimate(self):
        """An unreachable tolerance raises, but the payload is accurate."""
        from metalfilm.quadrature import QuadratureError

        w = complex(0.007629107981220657, -7.629107981220657)
        good, _ = integrate_fuchs(w, 0.0)
        with pytest.raises(QuadratureError) as info:
            integrate_fuchs(w, 0.0, tol=1e-18)
        assert abs(info.value.value - good) / abs(good) < 1e-6


class TestPhiInverse:
    def test_specular_shortcut_is_exact(self):
        w = 0.3 + 0.1j
        assert phi_inverse(w, 1.0) == 1.0 / w

    def test_thick_film_value(self):
        w = 100.0 + 0j
        assert w * phi_inverse(w, 0.0) == pytest.approx(1.0 - 3.0 / 800.0, abs=1e-6)

    @pytest.mark.parametrize("w", [50.0, 75.0, 120.0, 400.0])
    @pytest.mark.parametrize("p", [0.0, 0.3, 0.7])
    def test_thick_film_asymptote(self, w, p):
        asym = 1.0 - 3.0 * (1.0 - p) / (8.0 * w)
        assert abs(w * phi_inverse(complex(w), p) - asym) <= 1e-4

    def test_thin_limit_suppression(self):
        g = 0.01 * phi_inverse(0.01 + 0j, 0.0)
        assert 0.0 < g.real < 0.05


class TestSigmaD:
    def test_specular_equals_drude_exactly(self):
        m = sodium_preset()
        der = derive_bulk(m)
        for omega in (0.0, 1e13, 6.5e14):
            s = FilmSetup(d=3e-7, theta=0.2, omega=omega, p=1.0)
            drude = der.sigma_0 / complex(1.0, -omega * der.tau)
            res = sigma_d(m, s)
            assert res.sigma_d == drude
            assert res.quad_error_estimate == 0.0

    def test_w_equals_one_diffuse(self):
        """At omega=0, p=0 and d=l the suppression factor is 1 - 1.5*I(1,0)."""
        m = sodium_preset()
        der = derive_bulk(m)
        s = FilmSetup(d=der.l, theta=0.0, omega=0.0, p=0.0)
        res = sigma_d(m, s)
        expected = der.sigma_0 * (1.0 - 1.5 * I_W1_P0)
        assert res.sigma_d.real == pytest.approx(expected, rel=1e-9)
        assert abs(res.sigma_d.imag) < 1e-9 * abs(res.sigma_d.real)

    def test_sodium_regression_point(self):
        """Frozen conductivity at d=1e-7 cm, omega=1e-2*omega_p, p=0.5."""
        m = sodium_preset()
        s = FilmSetup(d=1e-7, theta=0.0, omega=1e-2 * m.omega_p, p=0.5)
        assert complex_thickness(m, s.d, s.omega) == pytest.approx(SODIUM_W_FIG1, rel=1e-14)
        res = sigma_d(m, s)
        assert abs(res.sigma_d - SODIUM_SIGMA_FIG1) / abs(SODIUM_SIGMA_FIG1) < 1e-8

    def test_passivity_on_random_grid(self):
        m = sodium_preset()
        rng = np.random.default_rng(7)
        for _ in range(100):
            s = FilmSetup(
                d=10.0 ** rng.uniform(-9, -5),
                theta=0.0,
                omega=10.0 ** rng.uniform(12, 15.8),
                p=rng.random(),
            )
            res = sigma_d(m, s)
            assert res.sigma_d.real >= 0.0

    def test_monotone_in_thickness_at_dc(self):
        """The diffuse size effect weakens as the film thickens."""
        m = sodium_preset()
        der = derive_bulk(m)
        ratios = []
        for x in np.geomspace(1e-3, 1e2, 26):
            s = FilmSetup(d=x * der.l, theta=0.0, omega=0.0, p=0.0)
            ratios.append(sigma_d(m, s).sigma_d.real / der.sigma_0)
        assert np.all(np.diff(ratios) > 0)

    def test_deterministic(self):
        m = sodium_preset()
        s = FilmSetup(d=2e-7, theta=0.1, omega=3e14, p=0.25)
        assert sigma_d(m, s) == sigma_d(m, s)

    def test_zero_thickness_rejected(self):
        with pytest.raises(ValueError):
            FilmSetup(d=0.0, theta=0.0, omega=1e14, p=0.5)
