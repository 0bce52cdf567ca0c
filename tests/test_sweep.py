import math

import numpy as np
import pytest

import metalfilm.conductivity
import metalfilm.sweep
from metalfilm import (
    GridSpec,
    SweepSpec,
    emit_csv,
    figure_preset,
    run_sweep,
    sodium_preset,
)
from metalfilm.sweep import CSV_HEADER
from helpers import reference_sweep


def small_spec(**overrides):
    base = dict(
        swept="theta",
        grid=GridSpec(0.0, math.pi / 2, 9),
        material=sodium_preset(),
        d=1e-7,
        omega_frac=1e-2,
        p=0.5,
    )
    base.update(overrides)
    return SweepSpec(**base)


class TestGridSpec:
    def test_linear_values(self):
        np.testing.assert_allclose(GridSpec(0.0, 1.0, 5).values(), [0, 0.25, 0.5, 0.75, 1])

    def test_log_values(self):
        values = GridSpec(1e-3, 1.0, 4, scale="log").values()
        np.testing.assert_allclose(values, [1e-3, 1e-2, 1e-1, 1.0], rtol=1e-12)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(min=0.0, max=1.0, count=1),
            dict(min=1.0, max=0.0, count=5),
            dict(min=0.0, max=1.0, count=5, scale="cubic"),
            dict(min=0.0, max=1.0, count=5, scale="log"),
            dict(min=math.nan, max=1.0, count=5),
        ],
    )
    def test_invalid_grids(self, kwargs):
        with pytest.raises(ValueError):
            GridSpec(**kwargs)


class TestSweepSpec:
    def test_swept_field_must_not_be_fixed(self):
        with pytest.raises(ValueError):
            small_spec(theta=0.3)

    def test_missing_fixed_field(self):
        with pytest.raises(ValueError):
            small_spec(p=None)

    def test_bad_swept_name(self):
        with pytest.raises(ValueError):
            small_spec(swept="thickness")

    def test_domain_enforced(self):
        with pytest.raises(ValueError):
            small_spec(grid=GridSpec(0.0, math.pi, 9))
        with pytest.raises(ValueError):
            SweepSpec(
                swept="p",
                grid=GridSpec(0.0, 1.5, 9),
                material=sodium_preset(),
                d=1e-7,
                theta=0.0,
                omega_frac=1e-2,
            )


class TestRunSweep:
    def test_grid_order_and_conservation(self):
        rows = run_sweep(small_spec())
        assert [r.swept_value for r in rows] == GridSpec(0.0, math.pi / 2, 9).values()
        for r in rows:
            assert abs(r.T + r.R + r.A - 1.0) < 1e-9
            assert 0.0 <= r.T <= 1.0 and 0.0 <= r.R <= 1.0 and 0.0 <= r.A <= 1.0

    def test_grazing_endpoint_uses_analytic_limit(self):
        last = run_sweep(small_spec())[-1]
        assert last.swept_value == math.pi / 2
        assert (last.T, last.R, last.A) == (0.0, 1.0, 0.0)

    def test_sigma_columns_constant_for_theta_sweep(self):
        rows = run_sweep(small_spec())
        assert len({(r.re_sigma_d, r.im_sigma_d, r.re_w, r.im_w) for r in rows}) == 1

    def test_degenerate_grid(self):
        rows = run_sweep(small_spec(grid=GridSpec(0.3, 0.3, 2)))
        assert len(rows) == 2 and rows[0] == rows[1]

    def test_determinism(self):
        spec = small_spec(swept="d", grid=GridSpec(1e-8, 1e-6, 5, scale="log"),
                          d=None, theta=0.2)
        assert run_sweep(spec) == run_sweep(spec)

    def test_omega_sweep_reports_fractions(self):
        spec = SweepSpec(
            swept="omega",
            grid=GridSpec(1e-3, 1e-1, 3, scale="log"),
            material=sodium_preset(),
            d=1e-7,
            theta=0.0,
            p=1.0,
        )
        rows = run_sweep(spec)
        assert rows[0].swept_name == "omega_over_omega_p"
        assert rows[0].swept_value == pytest.approx(1e-3)
        # kd must correspond to the absolute frequency
        m = sodium_preset()
        from metalfilm import C_LIGHT
        assert rows[0].kd == pytest.approx(1e-3 * m.omega_p * 1e-7 / C_LIGHT, rel=1e-12)

    def test_quadrature_failure_recorded_not_raised(self):
        """An unreachable tolerance degrades to a flagged best estimate."""
        spec = SweepSpec(
            swept="p",
            grid=GridSpec(0.0, 0.5, 2),
            material=sodium_preset(),
            d=1e-7,
            theta=0.0,
            omega_frac=1.0,
            tol=1e-18,  # below the roundoff floor of the error estimator
        )
        rows = run_sweep(spec)
        assert len(rows) == 2
        failed = rows[0]  # p=0 exercises the quadrature
        assert failed.quad_err > 1e-18
        assert abs(failed.T + failed.R + failed.A - 1.0) < 1e-9
        # the degraded row is still accurate at the default tolerance level
        good = run_sweep(
            SweepSpec(
                swept="p",
                grid=GridSpec(0.0, 0.5, 2),
                material=sodium_preset(),
                d=1e-7,
                theta=0.0,
                omega_frac=1.0,
            )
        )[0]
        assert failed.T == pytest.approx(good.T, abs=1e-8)


def _degraded_spec():
    """The unreachable-tolerance grid of test_quadrature_failure_recorded_not_raised."""
    return SweepSpec(
        swept="p",
        grid=GridSpec(0.0, 0.5, 2),
        material=sodium_preset(),
        d=1e-7,
        theta=0.0,
        omega_frac=1.0,
        tol=1e-18,
    )


_REFERENCE_SPECS = {
    **{f"{name}-{i}": spec for name in ("fig1", "fig2", "fig3", "fig4", "fig5")
       for i, spec in enumerate(figure_preset(name))},
    "degraded": _degraded_spec(),
    "grazing-end": small_spec(grid=GridSpec(1.2, math.pi / 2, 41), p=1.0),
}


@pytest.mark.parametrize("name", sorted(_REFERENCE_SPECS))
def test_array_sweep_matches_per_point_reference(name):
    """The array evaluation reproduces the scalar per-point loop.

    p < 1 conductivities and their error bounds are the scalar results
    themselves, so they agree bit for bit; w and kd use the same
    operations and agree exactly; the p = 1 Drude value and (T, R, A)
    come from numpy's array arithmetic and agree to rounding.
    """
    spec = _REFERENCE_SPECS[name]
    got, ref = run_sweep(spec), reference_sweep(spec)
    assert len(got) == len(ref)
    for g, r in zip(got, ref):
        assert (g.swept_name, g.swept_value) == (r.swept_name, r.swept_value)
        assert (g.re_w, g.im_w, g.kd) == (r.re_w, r.im_w, r.kd)
        if spec.setup_for(g.swept_value).p < 1.0:
            assert (g.re_sigma_d, g.im_sigma_d, g.quad_err) == (r.re_sigma_d, r.im_sigma_d, r.quad_err)
        else:
            assert g.quad_err == r.quad_err == 0.0
            assert abs(complex(g.re_sigma_d, g.im_sigma_d) - complex(r.re_sigma_d, r.im_sigma_d)) \
                <= 1e-15 * abs(complex(r.re_sigma_d, r.im_sigma_d))
        for x, y in ((g.T, r.T), (g.R, r.R), (g.A, r.A)):
            assert abs(x - y) <= 2e-15


class TestWorkCount:
    """Deterministic work per sweep: the guard that keeps the hot path array-shaped."""

    @staticmethod
    def _count(monkeypatch, module, name):
        calls = []
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    def test_theta_sweep_needs_one_integral(self, monkeypatch):
        integrals = self._count(monkeypatch, metalfilm.conductivity, "integrate_complex")
        optics = self._count(monkeypatch, metalfilm.sweep, "tra_for_film")
        rows = run_sweep(small_spec(grid=GridSpec(0.0, math.pi / 2, 2000)))
        assert len(rows) == 2000
        assert len(integrals) == 1
        assert len(optics) == 1

    def test_specular_sweep_needs_no_integral(self, monkeypatch):
        integrals = self._count(monkeypatch, metalfilm.conductivity, "integrate_complex")
        optics = self._count(monkeypatch, metalfilm.sweep, "tra_for_film")
        spec = small_spec(swept="d", grid=GridSpec(1e-8, 1e-6, 1000, scale="log"),
                          d=None, theta=0.2, p=1.0)
        assert len(run_sweep(spec)) == 1000
        assert integrals == []
        assert len(optics) == 1


class TestFigurePresets:
    def test_fig1_parameters(self):
        (spec,) = figure_preset("fig1")
        assert spec.swept == "theta"
        assert (spec.grid.min, spec.grid.max, spec.grid.count) == (0.0, math.pi / 2, 200)
        assert (spec.d, spec.omega_frac, spec.p) == (1e-7, 1e-2, 0.5)

    def test_fig3_parameters(self):
        (spec,) = figure_preset("fig3")
        assert spec.swept == "p"
        assert (spec.grid.min, spec.grid.max) == (0.0, 1.0)
        assert (spec.theta, spec.omega_frac, spec.d) == (0.0, 1e-1, 1e-7)

    def test_fig5_series(self):
        specs = figure_preset("fig5")
        assert [s.d for s in specs] == [1e-7, 2e-7, 3e-7]
        assert all(s.p == 1.0 and s.theta == 0.0 and s.swept == "omega" for s in specs)
        assert all(s.grid.scale == "log" for s in specs)
        assert all((s.grid.min, s.grid.max) == (1e-3, 1e-1) for s in specs)
        assert len({s.label for s in specs}) == 3

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            figure_preset("fig9")


class TestEmitCsv:
    def test_single_row_two_lines(self, tmp_path):
        rows = run_sweep(small_spec(grid=GridSpec(0.1, 0.1, 2)))[:1]
        out = tmp_path / "one.csv"
        emit_csv(rows, out)
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0] == CSV_HEADER

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_csv([], tmp_path / "empty.csv")

    def test_reruns_byte_identical(self, tmp_path):
        spec = small_spec()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(run_sweep(spec), a)
        emit_csv(run_sweep(spec), b)
        assert a.read_bytes() == b.read_bytes()

    def test_values_roundtrip_full_precision(self, tmp_path):
        rows = run_sweep(small_spec())
        out = tmp_path / "rt.csv"
        emit_csv(rows, out)
        line = out.read_text().splitlines()[1].split(",")
        assert line[0] == "theta"
        assert float(line[2]) == rows[0].T

    def test_io_failure_has_path_context(self, tmp_path):
        rows = run_sweep(small_spec(grid=GridSpec(0.1, 0.1, 2)))
        missing = tmp_path / "no" / "such" / "dir" / "x.csv"
        with pytest.raises(OSError, match="x.csv"):
            emit_csv(rows, missing)


class TestFigureShapes:
    """Smaller-grid versions of the qualitative acceptance properties."""

    def test_fig3_monotonicity(self):
        (spec,) = figure_preset("fig3")
        rows = run_sweep(
            SweepSpec(
                swept="p",
                grid=GridSpec(0.0, 1.0, 11),
                material=spec.material,
                d=spec.d,
                theta=spec.theta,
                omega_frac=spec.omega_frac,
            )
        )
        R = [r.R for r in rows]
        A = [r.A for r in rows]
        assert all(b >= a - 1e-12 for a, b in zip(R, R[1:]))
        assert all(b <= a + 1e-12 for a, b in zip(A, A[1:]))

    def test_fig2_energy_exchange(self):
        """A stays nearly flat in absolute terms, so R gains what T loses."""
        (spec,) = figure_preset("fig2")
        rows = run_sweep(
            SweepSpec(
                swept="d",
                grid=GridSpec(1e-7, 1e-6, 21),
                material=spec.material,
                theta=spec.theta,
                omega_frac=spec.omega_frac,
                p=spec.p,
            )
        )
        T = np.array([r.T for r in rows])
        R = np.array([r.R for r in rows])
        A = np.array([r.A for r in rows])
        assert np.all(np.diff(T) < 0) and np.all(np.diff(R) > 0)
        assert A.max() - A.min() < 0.05  # flat on the [0, 1] scale
        assert 1.5 <= T[0] / T[-1] <= 3.0
        assert abs((R[-1] - R[0]) + (T[-1] - T[0])) <= A.max() - A.min()
