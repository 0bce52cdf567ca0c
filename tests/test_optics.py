import math

import numpy as np
import pytest

from metalfilm import (
    C_LIGHT,
    FilmSetup,
    ImpedancePair,
    PassivityError,
    b_factor,
    sigma_d,
    sodium_preset,
    thin_impedances,
    tra_for_film,
    tra_from_b,
    tra_from_impedances,
)

# frozen from the validated conductivity fixture (see test_conductivity)
SODIUM_SIGMA_FIG1 = complex(1.55056057593355680e16, 1.13125942399630080e16)
SODIUM_B_FIG1 = complex(0.324973466430487745, 0.237094443231857355)
SODIUM_TRA_FIG1 = (0.551946907736016, 0.089316892478860, 0.358736199785124)


class TestBFactor:
    def test_zero_conductivity(self):
        assert b_factor(0j, 1e-7, 0.3) == 0

    def test_unit_value(self):
        d = 1e-7
        sigma = C_LIGHT / (2 * math.pi * d)
        assert b_factor(sigma, d, 0.0) == pytest.approx(1.0, rel=1e-15)

    def test_sodium_fixture(self):
        b = b_factor(SODIUM_SIGMA_FIG1, 1e-7, 0.0)
        assert abs(b - SODIUM_B_FIG1) / abs(SODIUM_B_FIG1) < 1e-14

    def test_grazing_is_infinite_admittance(self):
        """At theta = pi/2, B = inf for any sigma, and tra_from_b makes it a mirror."""
        for sigma in (1e15 + 0j, 0j, SODIUM_SIGMA_FIG1):
            b = b_factor(sigma, 1e-7, math.pi / 2)
            assert b == complex(math.inf, 0.0)
            c = tra_from_b(b)
            assert (c.T, c.R, c.A) == (0.0, 1.0, 0.0)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            b_factor(1e15 + 0j, 0.0, 0.1)
        with pytest.raises(ValueError):
            b_factor(1e15 + 0j, 1e-7, -0.1)


class TestTraFromB:
    def test_nonconductive_limit(self):
        c = tra_from_b(0j)
        assert (c.T, c.R, c.A) == (1.0, 0.0, 0.0)

    def test_unit_b(self):
        c = tra_from_b(1.0 + 0j)
        assert c.T == pytest.approx(0.25, rel=1e-15)
        assert c.R == pytest.approx(0.25, rel=1e-15)
        assert c.A == pytest.approx(0.5, rel=1e-15)

    def test_purely_reactive_film_absorbs_nothing(self):
        c = tra_from_b(1j)
        assert c.T == pytest.approx(0.5, rel=1e-15)
        assert c.R == pytest.approx(0.5, rel=1e-15)
        assert c.A == 0.0

    def test_passivity_violation(self):
        with pytest.raises(PassivityError):
            tra_from_b(-0.1 + 0.5j)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: tra_for_film(math.nan, 1e-7, 0.0),
            lambda: tra_from_b(complex(0.0, math.nan)),
            lambda: tra_from_b(complex(math.nan, 0.0)),
        ],
        ids=["sigma-nan", "im-b-nan", "re-b-nan"],
    )
    def test_nan_admittance_rejected(self, call):
        """A NaN part of B is an error, not NaN coefficients."""
        with pytest.raises(ValueError):
            call()

    def test_energy_conservation_random(self):
        """T + R + A = 1 and every coefficient in [0, 1] across the RHP."""
        rng = np.random.default_rng(123)
        n = 10_000
        mag = 10.0 ** rng.uniform(-8, 8, n)
        phase = rng.uniform(-math.pi / 2, math.pi / 2, n)
        for b in mag * np.exp(1j * phase):
            c = tra_from_b(b)
            assert abs(c.T + c.R + c.A - 1.0) < 1e-12
            for x in (c.T, c.R, c.A):
                assert -1e-12 <= x <= 1.0 + 1e-12

    def test_grazing_magnitude_limit(self):
        c = tra_from_b(1e12 + 5e11j)
        assert c.T < 1e-20
        assert c.R == pytest.approx(1.0, abs=1e-11)
        assert c.A == pytest.approx(0.0, abs=1e-11)


class TestThinImpedances:
    def test_z1_vanishes_at_zero_frequency(self):
        pair = thin_impedances(1e15 + 0j, 1e-7, 0.0, 0.0)
        assert pair.z1 == 0

    def test_perfect_conductor_shorts(self):
        weak = thin_impedances(1e20 + 0j, 1e-7, 1e14, 0.0)
        strong = thin_impedances(1e32 + 0j, 1e-7, 1e14, 0.0)
        assert abs(strong.z2) < 1e-12
        assert abs(strong.z2) < 1e-10 * abs(weak.z2)

    @pytest.mark.parametrize(
        "d, omega, theta",
        [
            (1e-7, 1e14, math.nan),
            (1e-7, 1e14, 2.0),
            (1e-7, 1e14, -0.1),
            (1e-7, math.nan, 0.0),
            (1e-7, math.inf, 0.0),
            (math.inf, 1e14, 0.0),
        ],
        ids=["theta-nan", "theta-2", "theta-negative", "omega-nan", "omega-inf",
             "d-inf"],
    )
    def test_out_of_domain_inputs_rejected(self, d, omega, theta):
        with pytest.raises(ValueError):
            thin_impedances(1e15 + 0j, d, omega, theta)

    def test_kd_correction_scale_at_sodium_point(self):
        """Full z2 differs from the long-wavelength one by the kd-term only."""
        m = sodium_preset()
        s = FilmSetup(d=1e-7, theta=0.0, omega=1e-2 * m.omega_p, p=0.5)
        sigma = sigma_d(m, s).sigma_d
        full = thin_impedances(sigma, s.d, s.omega, s.theta)
        simple = ImpedancePair(0j, C_LIGHT / (2 * math.pi * s.d * sigma))
        rel = abs(full.z2 - simple.z2) / abs(full.z2)
        assert 1e-5 < rel < 1e-3  # ~ omega/(4 pi |sigma|), about 3e-4 here


class TestTraFromImpedances:
    def test_equal_impedances_cancel_transmission(self):
        pair = ImpedancePair(z1=0.3 + 0.2j, z2=0.3 + 0.2j)
        assert tra_from_impedances(pair, 0.4).T == 0.0

    def test_open_short_duality(self):
        pair = ImpedancePair(z1=0j, z2=complex(math.inf, 0.0))
        c = tra_from_impedances(pair, 0.0)
        assert (c.T, c.R) == (1.0, 0.0)

    def test_swap_invariance(self):
        pair = ImpedancePair(z1=0.1 - 0.7j, z2=2.0 + 0.3j)
        swapped = ImpedancePair(z1=pair.z2, z2=pair.z1)
        a = tra_from_impedances(pair, 0.25)
        b = tra_from_impedances(swapped, 0.25)
        assert a.T == b.T and a.R == b.R

    def test_route_equivalence_random(self):
        """The long-wavelength impedance pair reproduces the admittance route."""
        rng = np.random.default_rng(99)
        for _ in range(300):
            sigma = complex(10.0 ** rng.uniform(10, 18), 0)
            sigma += 1j * sigma.real * rng.uniform(-3, 3)
            d = 10.0 ** rng.uniform(-9, -5)
            theta = rng.uniform(0.0, math.pi / 2 * 0.999)
            via_z = tra_from_impedances(ImpedancePair(0j, C_LIGHT / (2 * math.pi * d * sigma)), theta)
            via_b = tra_from_b(b_factor(sigma, d, theta))
            assert abs(via_z.T - via_b.T) < 1e-12
            assert abs(via_z.R - via_b.R) < 1e-12
            assert abs(via_z.A - via_b.A) < 1e-12


class TestTraForFilm:
    def test_sodium_fixture_point(self):
        c = tra_for_film(SODIUM_SIGMA_FIG1, 1e-7, 0.0)
        assert c.T == pytest.approx(SODIUM_TRA_FIG1[0], rel=1e-10)
        assert c.R == pytest.approx(SODIUM_TRA_FIG1[1], rel=1e-10)
        assert c.A == pytest.approx(SODIUM_TRA_FIG1[2], rel=1e-10)

    def test_exact_grazing_endpoint(self):
        c = tra_for_film(SODIUM_SIGMA_FIG1, 1e-7, math.pi / 2)
        assert (c.T, c.R, c.A) == (0.0, 1.0, 0.0)

    @pytest.mark.parametrize("d", [math.inf, np.array([1e-7, math.inf])], ids=["scalar", "array"])
    def test_infinite_thickness_rejected(self, d):
        with pytest.raises(ValueError, match="d must be positive and finite, got inf"):
            tra_for_film(1e15, d, 0.0)

    def test_near_grazing_reflects(self):
        c = tra_for_film(SODIUM_SIGMA_FIG1, 1e-7, math.pi / 2 - 1e-6)
        assert c.R > 0.999


class TestArrayInput:
    """Arrays broadcast through the same formulas; scalars still give floats."""

    def test_scalar_input_returns_python_floats(self):
        c = tra_for_film(SODIUM_SIGMA_FIG1, 1e-7, 0.0)
        assert all(type(x) is float for x in (c.T, c.R, c.A))
        assert type(b_factor(SODIUM_SIGMA_FIG1, 1e-7, 0.0)) is complex

    def test_elementwise_equals_scalar_calls(self):
        rng = np.random.default_rng(11)
        b = 10.0 ** rng.uniform(-6, 6, 200) * np.exp(1j * rng.uniform(-1.5, 1.5, 200))
        c = tra_from_b(b)
        for i, bi in enumerate(b):
            one = tra_from_b(bi)
            assert (c.T[i], c.R[i], c.A[i]) == (one.T, one.R, one.A)

    def test_grazing_and_overflow_per_element(self):
        theta = np.array([0.0, 0.7, math.pi / 2])
        c = tra_for_film(SODIUM_SIGMA_FIG1, 1e-7, theta)
        assert (c.T[2], c.R[2], c.A[2]) == (0.0, 1.0, 0.0)
        assert c.T[1] == tra_for_film(SODIUM_SIGMA_FIG1, 1e-7, 0.7).T
        big = tra_from_b(np.array([1.0 + 0j, 1e200 + 1e200j]))
        assert (big.T[1], big.R[1], big.A[1]) == (0.0, 1.0, 0.0)
        assert big.T[0] == pytest.approx(0.25, rel=1e-15)

    def test_broadcast_over_thickness(self):
        d = np.geomspace(1e-9, 1e-6, 7)
        c = tra_for_film(SODIUM_SIGMA_FIG1, d, 0.0)
        assert c.T.shape == (7,)
        np.testing.assert_allclose(c.T + c.R + c.A, 1.0, atol=1e-12)

    def test_one_passivity_violation_raises(self):
        with pytest.raises(PassivityError):
            tra_from_b(np.array([0.5 + 0.1j, -0.1 + 0.5j]))
