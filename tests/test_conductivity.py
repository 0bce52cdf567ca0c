import numpy as np
import pytest

from metalfilm import (
    FilmSetup,
    complex_thickness,
    derive_bulk,
    integrate_fuchs,
    phi_inverse,
    sigma_d,
    sodium_preset,
)
from metalfilm.quadrature import QuadratureError
from helpers import fuchs_integral_simpson_u, fuchs_ratio

# Frozen oracle values, computed with composite Simpson on u in (0, 1]
# at 1e7 panels and cross-checked against an independent t-space Simpson
# (agreement ~1e-16) before being committed.
I_W1_P0 = 0.21076227026396033
I_W1PLUS1J_P05 = complex(0.25149350399208864, 0.018010721458525315)
SODIUM_W_FIG1 = complex(7.62910798122065723e-03, -7.62910798122065775e-02)
SODIUM_SIGMA_FIG1 = complex(1.55056057593355680e16, 1.13125942399630080e16)


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

    @pytest.mark.parametrize("w", [1e-300 + 0j, 1e200 + 0j])
    def test_w_outside_normal_square_range_rejected(self, w):
        with pytest.raises(ValueError, match=r"\|w\| must lie in \[1e-150, 1e\+150\]"):
            phi_inverse(w, 0.3)

    def test_thin_limit_suppression(self):
        g = 0.01 * phi_inverse(0.01 + 0j, 0.0)
        assert 0.0 < g.real < 0.05

    @pytest.mark.parametrize("w", [
        complex(0.00777028329691721, -0.5600186744872427),
        complex(0.02035726422903993, -1.1511223066931895),
    ])
    def test_oscillatory_against_series(self, w):
        """Im w >> Re w: the ratio matches the E3 - E5 series within its bound."""
        exact = fuchs_ratio(w, 0.0)
        error = abs(w * phi_inverse(w, 0.0) - exact)
        _, int_err = integrate_fuchs(w, 0.0)
        assert error <= 1e-8 * abs(exact)
        assert error <= 1.5 * int_err / abs(w)


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

    def test_unconverged_quadrature_returns_best_estimate(self):
        """An unreachable tolerance returns the budget-exhausted estimate, flagged."""
        m = sodium_preset()
        der = derive_bulk(m)
        s = FilmSetup(d=1e-7, theta=0.0, omega=m.omega_p, p=0.0)
        res = sigma_d(m, s, tol=1e-18)
        assert res.converged is False
        w = (s.d / der.l) * complex(1.0, -s.omega * der.tau)
        with pytest.raises(QuadratureError) as info:
            integrate_fuchs(w, 0.0, tol=1e-18)
        phi_inv = 1.0 / w - 1.5 * info.value.value / (w * w)
        drude = der.sigma_0 / complex(1.0, -s.omega * der.tau)
        assert res.sigma_d == drude * w * phi_inv
        assert res.quad_error_estimate == 1.5 * info.value.error_estimate / abs(w)
        assert res.quad_error_estimate > 1e-18

    @pytest.mark.parametrize("d", [1e-300, 1e200])
    def test_w_outside_normal_square_range_rejected(self, d):
        """w*w would underflow to zero or overflow: a ValueError, not NaN or a crash."""
        m = sodium_preset()
        s = FilmSetup(d=d, theta=0.0, omega=1e-2 * m.omega_p, p=0.3)
        with pytest.raises(ValueError, match=r"\|w\| must lie in \[1e-150, 1e\+150\]"):
            sigma_d(m, s)

    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
    def test_converged_points_say_so(self, p):
        m = sodium_preset()
        res = sigma_d(m, FilmSetup(d=1e-7, theta=0.0, omega=m.omega_p, p=p))
        assert res.converged is True
