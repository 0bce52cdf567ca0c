import numpy as np
import pytest

import metalfilm.quadrature
from metalfilm.quadrature import (
    GAUSS_WEIGHTS,
    KRONROD_WEIGHTS,
    NODES,
    QuadratureError,
    integrate_complex,
)


class TestRuleTables:
    """The frozen node/weight tables are re-verified, not trusted."""

    def test_nodes_symmetric_and_sorted(self):
        assert np.all(np.diff(NODES) > 0)
        np.testing.assert_allclose(NODES, -NODES[::-1], atol=1e-16)
        np.testing.assert_allclose(KRONROD_WEIGHTS, KRONROD_WEIGHTS[::-1], atol=1e-16)

    def test_weights_positive_and_normalized(self):
        assert np.all(KRONROD_WEIGHTS > 0)
        assert KRONROD_WEIGHTS.sum() == pytest.approx(2.0, rel=1e-15)
        gauss = GAUSS_WEIGHTS[GAUSS_WEIGHTS > 0]
        assert gauss.sum() == pytest.approx(2.0, rel=1e-15)

    def test_embedded_gauss_rule_matches_legendre(self):
        """The nodes with nonzero Gauss weight are the Gauss-Legendre 15 rule."""
        mask = GAUSS_WEIGHTS > 0
        ref_nodes, ref_weights = np.polynomial.legendre.leggauss(15)
        np.testing.assert_allclose(NODES[mask], ref_nodes, atol=2e-16)
        np.testing.assert_allclose(GAUSS_WEIGHTS[mask], ref_weights, atol=2e-16)

    @pytest.mark.parametrize("degree", [0, 2, 10, 24, 38, 46])
    def test_kronrod_exactness(self, degree):
        """A 31-point Kronrod extension integrates monomials through degree 46."""
        value = (KRONROD_WEIGHTS * NODES**degree).sum()
        assert value == pytest.approx(2.0 / (degree + 1), rel=5e-15)

    def test_kronrod_not_exact_far_beyond_design_degree(self):
        # a genuinely higher-order rule would still be exact at degree 70
        value = (KRONROD_WEIGHTS * NODES**70).sum()
        assert abs(value - 2.0 / 71) > 1e-12


class TestIntegrateComplex:
    def test_polynomial(self):
        value, err = integrate_complex(lambda x: x**8, 0.0, 1.0)
        assert value == pytest.approx(1.0 / 9.0, rel=1e-14)
        assert err <= 1e-10 * (abs(value) + 1.0)

    def test_complex_exponential(self):
        a = complex(-0.5, 3.0)
        value, _ = integrate_complex(lambda x: np.exp(a * x), 0.0, 1.0)
        exact = (np.exp(a) - 1.0) / a
        assert abs(value - exact) / abs(exact) < 1e-12

    def test_oscillatory(self):
        """Many cycles force subdivision; the answer must still be tight."""
        a = 500j
        value, err = integrate_complex(lambda x: np.exp(a * x), 0.0, 1.0, tol=1e-12)
        exact = (np.exp(a) - 1.0) / a
        assert abs(value - exact) < 1e-12
        assert err <= 1e-12 * (abs(value) + 1.0)

    def test_error_contract(self):
        for tol in (1e-6, 1e-10, 1e-13):
            value, err = integrate_complex(
                lambda x: 1.0 / (1.0 + 25.0 * x**2) + 0j, -1.0, 1.0, tol=tol
            )
            assert err <= tol * (abs(value) + 1.0)

    def test_degenerate_interval(self):
        value, err = integrate_complex(lambda x: np.exp(x), 2.0, 2.0)
        assert value == 0.0 and err == 0.0

    def test_reversed_interval_rejected(self):
        with pytest.raises(ValueError):
            integrate_complex(lambda x: x, 1.0, 0.0)

    def test_bad_tolerance_rejected(self):
        with pytest.raises(ValueError):
            integrate_complex(lambda x: x, 0.0, 1.0, tol=0.0)

    @pytest.mark.parametrize("tol", [np.inf, np.nan, -1.0])
    def test_nonfinite_or_negative_tolerance_rejected(self, tol):
        with pytest.raises(ValueError, match="tol must be finite and > 0"):
            integrate_complex(lambda x: x, 0.0, 1.0, tol=tol)

    @pytest.mark.parametrize("a, b", [(0.0, np.nan), (np.nan, 1.0), (0.0, np.inf), (-np.inf, 0.0)])
    def test_nonfinite_bound_rejected_before_any_evaluation(self, a, b):
        calls = []
        with pytest.raises(ValueError, match="invalid interval"):
            integrate_complex(lambda x: calls.append(x) or x + 0j, a, b)
        assert calls == []

    def test_budget_failure_carries_best_estimate(self, monkeypatch):
        """Exhausting the panel budget raises, but the estimate is usable."""
        monkeypatch.setattr(metalfilm.quadrature, "_MAX_PANELS", 12)
        a = 2000j
        with pytest.raises(QuadratureError) as info:
            integrate_complex(lambda x: np.exp(a * x), 0.0, 1.0, tol=1e-13)
        exc = info.value
        exact = (np.exp(a) - 1.0) / a
        assert np.isfinite(exc.error_estimate) and exc.error_estimate > 0
        # crude but bounded: the carried value is within its own error bar
        assert abs(exc.value - exact) <= 10 * exc.error_estimate

    def test_budget_caps_the_split(self, monkeypatch):
        """More panels qualify than fit: the largest split, never past _MAX_PANELS."""
        live = []
        original = metalfilm.quadrature._panel_rule

        def counted(f, lefts, rights):
            # the first batch is the initial mesh; each later one holds the
            # two halves of every panel split, adding one live panel apiece
            live.append(len(lefts) if not live else live[-1] + len(lefts) // 2)
            return original(f, lefts, rights)

        monkeypatch.setattr(metalfilm.quadrature, "_panel_rule", counted)
        monkeypatch.setattr(metalfilm.quadrature, "_MAX_PANELS", 20)
        a = 2000j
        with pytest.raises(QuadratureError) as info:
            integrate_complex(lambda x: np.exp(a * x), 0.0, 1.0, tol=1e-13)
        # 8 -> 16 splits all eight; 16 -> 20 needs the cap, since every
        # panel still sits far above its share of the target
        assert live == [8, 16, 20]
        exc = info.value
        assert np.isfinite(exc.value) and np.isfinite(exc.error_estimate)

    def test_nan_integrand_ends_in_budget_failure(self, monkeypatch):
        """A NaN error still counts as too large, so the loop cannot stall."""
        monkeypatch.setattr(metalfilm.quadrature, "_MAX_PANELS", 64)
        with pytest.raises(QuadratureError):
            integrate_complex(lambda x: np.full(x.shape, np.nan + 0j), 0.0, 1.0)

    def test_determinism(self):
        f = lambda x: np.exp((-1.0 + 7j) * x) / (1.0 + x**2)
        assert integrate_complex(f, 0.0, 3.0) == integrate_complex(f, 0.0, 3.0)
