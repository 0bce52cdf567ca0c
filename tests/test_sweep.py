import math
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import metalfilm.conductivity
import metalfilm.quadrature
import metalfilm.sweep
from metalfilm import (
    FIGURE_NAMES,
    GridSpec,
    MaterialParams,
    SweepRow,
    SweepSpec,
    ValidationRow,
    emit_csv,
    emit_validation_csv,
    figure_preset,
    run_sweep,
    sodium_preset,
    validate_thin_film,
)
from metalfilm.slab import default_validation_setups
from metalfilm.sweep import CSV_HEADER
from helpers import reference_emit_csv, reference_emit_validation_csv, reference_sweep


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

    def test_messages_name_the_omega_frac_field(self):
        with pytest.raises(ValueError, match="^omega_frac is swept and must not also be fixed$"):
            small_spec(swept="omega", theta=0.0, grid=GridSpec(1e-3, 1e-1, 3))
        with pytest.raises(ValueError, match="^fixed value for omega_frac is required$"):
            small_spec(swept="d", d=None, theta=0.0, omega_frac=None, grid=GridSpec(1e-8, 1e-7, 3))

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

    @pytest.mark.parametrize("name, ceiling", [("fig2", 2_100), ("fig3", 2_400)])
    def test_preset_rule_calls(self, monkeypatch, name, ceiling):
        """Kronrod batches per preset; the error-mass bisection took 5,806 and 4,960."""
        batches = self._count(monkeypatch, metalfilm.quadrature, "_panel_rule")
        (spec,) = figure_preset(name)
        run_sweep(spec)
        assert len(batches) <= ceiling


_SODIUM = MaterialParams(omega_p=6.5e15, v_f=8.52e7, nu=6.5e12)
_LOG_OMEGA = GridSpec(1e-3, 1e-1, 200, scale="log")
EXPECTED_PRESETS = {
    "fig1": [SweepSpec("theta", GridSpec(0.0, math.pi / 2, 200), _SODIUM, d=1e-7,
                       omega_frac=1e-2, p=0.5, tol=1e-10, label="")],
    "fig2": [SweepSpec("d", GridSpec(1e-7, 1e-6, 200), _SODIUM, theta=0.0,
                       omega_frac=1e-1, p=0.5, tol=1e-10, label="")],
    "fig3": [SweepSpec("p", GridSpec(0.0, 1.0, 200), _SODIUM, d=1e-7, theta=0.0,
                       omega_frac=1e-1, tol=1e-10, label="")],
    "fig4": [SweepSpec("omega", _LOG_OMEGA, _SODIUM, d=d, theta=0.0, p=0.0, tol=1e-10,
                       label=label)
             for d, label in ((1e-7, "d1e-07"), (2e-7, "d2e-07"), (3e-7, "d3e-07"))],
    "fig5": [SweepSpec("omega", _LOG_OMEGA, _SODIUM, d=d, theta=0.0, p=1.0, tol=1e-10,
                       label=label)
             for d, label in ((1e-7, "d1e-07"), (2e-7, "d2e-07"), (3e-7, "d3e-07"))],
}


class TestFigurePresets:
    def test_names(self):
        assert FIGURE_NAMES == tuple(EXPECTED_PRESETS)

    @pytest.mark.parametrize("name", list(EXPECTED_PRESETS))
    def test_every_field(self, name):
        """Each preset spec equals its literal: swept, grid, material and every fixed value."""
        assert figure_preset(name) == EXPECTED_PRESETS[name]

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


#: edge values for the formatting: signed zero, subnormals, the largest
#: double, non-terminating decimals and negatives; the emitted digits must
#: not depend on how the row is formatted (non-finite values included)
_EDGE_VALUES = (0.0, -0.0, 5e-324, 1e-320, 1.7976931348623157e308, 0.1, 1.0,
                -0.1, -1.0, -5e-324, -1.7976931348623157e308, 1 / 3, -2 / 3, 123456.789,
                math.inf, -math.inf, math.nan)


def _edge_rows(row_type, lead):
    n = len(row_type._fields) - len(lead)
    return [row_type(*lead, *(_EDGE_VALUES[(i + j) % len(_EDGE_VALUES)] for j in range(n)))
            for i in range(len(_EDGE_VALUES))]


def _same_bytes(tmp_path, emit, reference, rows):
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    emit(rows, got)
    reference(rows, want)
    return got.read_bytes() == want.read_bytes()


class TestEmitterBytes:
    """The blocked emitters write exactly the per-value f-string bytes."""

    @pytest.mark.parametrize("name", ["fig1", "fig2", "fig3", "fig4", "fig5"])
    def test_figure_presets(self, tmp_path, name):
        for spec in figure_preset(name):
            assert _same_bytes(tmp_path, emit_csv, reference_emit_csv, run_sweep(spec))

    def test_default_validation_report(self, tmp_path):
        m = sodium_preset()
        rows = validate_thin_film(m, default_validation_setups(m))
        assert _same_bytes(tmp_path, emit_validation_csv, reference_emit_validation_csv, rows)

    def test_hand_made_rows(self, tmp_path):
        sweep_rows = _edge_rows(SweepRow, ("theta",))
        assert _same_bytes(tmp_path, emit_csv, reference_emit_csv, sweep_rows)
        validation_rows = _edge_rows(ValidationRow, ())
        assert _same_bytes(tmp_path, emit_validation_csv, reference_emit_validation_csv,
                           validation_rows)
        text = (tmp_path / "got.csv").read_text()
        for token in ("-0.00000000000000000e+00", "4.94065645841246544e-324",
                      "1.79769313486231571e+308", "1.00000000000000006e-01"):
            assert token in text


def _kernel_text(values):
    """The CSV number kernel's text for each value."""
    slots = metalfilm.sweep._format_e17(np.asarray(values, dtype=float))
    return [bytes(slot[slot != 0]).decode() for slot in slots]


def _assert_percent_e17(values):
    values = np.asarray(values, dtype=float)
    want = ["%.17e" % v for v in values.tolist()]
    bad = [(v.hex(), got, text) for v, got, text
           in zip(values.tolist(), _kernel_text(values), want) if got != text]
    assert not bad, f"{len(bad)} of {len(want)} differ, first: {bad[:3]}"


@pytest.fixture
def fallback_sizes(monkeypatch):
    """Sizes of the arrays the kernel hands to its '%' fallback."""
    sizes = []
    fallback = metalfilm.sweep._percent_e17

    def counting(values):
        sizes.append(values.size)
        return fallback(values)

    monkeypatch.setattr(metalfilm.sweep, "_percent_e17", counting)
    return sizes


#: the double nearest 1e153 lies below it by less than half a unit of the
#: 18th digit, so its digits round up to 10**18 and carry into the
#: exponent; no other double does (checked for every power of ten)
_CARRY = float.fromhex("0x1.317e5ef3ab327p+508")


class TestCsvNumberKernel:
    """The array kernel writes exactly the bytes of '%.17e'."""

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(20261018).integers(0, 2**64, 200_000, dtype=np.uint64)
        # every sign and exponent field occurs
        assert np.unique(bits >> np.uint64(52)).size == 4096
        _assert_percent_e17(bits.view(np.float64))

    def test_special_values(self):
        biggest = sys.float_info.max
        _assert_percent_e17([0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan,
                             5e-324, -5e-324, 1e-320, biggest, -biggest])

    def test_powers_of_ten_and_neighbours(self):
        tens = np.array([float(f"1e{k}") for k in range(-300, 301)])
        _assert_percent_e17(np.concatenate(
            [tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf), -tens]))

    def test_exact_ties(self):
        rng = np.random.default_rng(8)
        # in [1e15, 2**50) n + k/8 is exact with 19 significant digits, so
        # an odd k is a tie at the 18th (re_sigma_d sits there); above
        # 2**50 the sum rounds to a coarser grid
        eighths = rng.integers(10**15, 2**53, 100_000) + rng.integers(0, 8, 100_000) / 8
        eighths[::2] = rng.integers(10**15, 2**50, 50_000) + rng.integers(0, 8, 50_000) / 8
        ties = sum(Decimal(v).as_tuple().digits[18:] == (5,) for v in eighths.tolist())
        assert ties > 20_000
        _assert_percent_e17(eighths)
        _assert_percent_e17(rng.integers(10**17, 2**63, 100_000).astype(float))
        # m / 2**j has j decimals; many of these are ties where 10**k is
        # not a double, so the product is not exact
        odd = np.arange(1, 1024, 2, dtype=float)
        _assert_percent_e17(np.concatenate([odd / 2.0**j for j in range(1, 90)]))

    def test_near_ties_where_the_product_is_inexact(self):
        """Doubles whose scaled value lies a hair off a half-integer.

        Outside 10**0..10**22 the scaled value carries a rounding error
        larger than the hair, so these must not be rounded by the array
        path.  Large x = M * 2**(g + K) scales to M * 2**g / 5**K, and
        small x = M / 2**(g + K) to M * 5**K / 2**g; M is solved modulo
        the denominator for a fraction just off one half.
        """
        values = []
        for K in range(19, 30):
            for g in range(40, 60):
                large = [(mod, r * pow(2**g, -1, mod) % mod, 2.0**(g + K))
                         for mod in [5**K] for r in ((mod - 1) // 2, (mod + 1) // 2)]
                small = [(mod, (mod // 2 + s) * pow(5**K, -1, mod) % mod, 0.5**(g + K))
                         for mod in [2**g] for s in (-1, 1)]
                for mod, m, scale in large + small:
                    m += -(-(2**52 - m) // mod) * mod
                    x = float(m) * scale
                    if m < 2**53 and 1e17 <= x * 10.0**(17 - math.floor(math.log10(x))) < 1e18:
                        values.append(x)
        assert len(values) > 50
        _assert_percent_e17(values)

    def test_carry_into_the_exponent(self, fallback_sizes):
        assert Fraction(_CARRY) < 10**153
        assert _kernel_text([_CARRY, -_CARRY]) == [
            "1.00000000000000000e+153", "-1.00000000000000000e+153"]
        assert sum(fallback_sizes) == 0


def _random_rows(row_type, count, names=("theta",), seed=0):
    """Rows of random bit patterns, swept names taken in turn from names."""
    width = len(row_type._fields) - (row_type is SweepRow)
    bits = np.random.default_rng(seed).integers(0, 2**64, (count, width), dtype=np.uint64)
    lead = ([(names[i % len(names)],) for i in range(count)] if row_type is SweepRow
            else [()] * count)
    return [row_type(*head, *values) for head, values in zip(lead, bits.view(np.float64).tolist())]


_BLOCK = metalfilm.sweep._BLOCK_ROWS


class TestBlockedEmitter:
    @pytest.mark.parametrize("count", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1])
    def test_row_counts(self, tmp_path, count):
        assert _same_bytes(tmp_path, emit_csv, reference_emit_csv,
                           _random_rows(SweepRow, count))
        assert _same_bytes(tmp_path, emit_validation_csv, reference_emit_validation_csv,
                           _random_rows(ValidationRow, count))

    def test_two_swept_names_in_one_call(self, tmp_path):
        rows = _random_rows(SweepRow, _BLOCK + 3, names=("omega_over_omega_p", "d", "d"))
        assert _same_bytes(tmp_path, emit_csv, reference_emit_csv, rows)

    def test_generator_rows(self, tmp_path):
        rows = _random_rows(SweepRow, _BLOCK + 1)
        emit_csv((row for row in rows), tmp_path / "gen.csv")
        reference_emit_csv(rows, tmp_path / "list.csv")
        assert (tmp_path / "gen.csv").read_bytes() == (tmp_path / "list.csv").read_bytes()
        rows = _random_rows(ValidationRow, 3)
        emit_validation_csv(iter(rows), tmp_path / "gen.csv")
        reference_emit_validation_csv(rows, tmp_path / "list.csv")
        assert (tmp_path / "gen.csv").read_bytes() == (tmp_path / "list.csv").read_bytes()

    def test_no_rows_creates_no_file(self, tmp_path):
        for emit in (emit_csv, emit_validation_csv):
            with pytest.raises(ValueError, match="^no rows to emit$"):
                emit(iter(()), tmp_path / "empty.csv")
            assert not (tmp_path / "empty.csv").exists()

    def test_package_output_takes_the_array_path(self, tmp_path, fallback_sizes):
        """At most 1 % of the figure and validation numbers reach the fallback.

        The byte tests pass just as well when every value is formatted by
        the fallback; this one fails then.
        """
        total = 0
        for name in FIGURE_NAMES:
            for spec in figure_preset(name):
                rows = run_sweep(spec)
                emit_csv(rows, tmp_path / "fig.csv")
                total += len(rows) * (len(SweepRow._fields) - 1)
        m = sodium_preset()
        rows = validate_thin_film(m, default_validation_setups(m))
        emit_validation_csv(rows, tmp_path / "validate.csv")
        total += len(rows) * (len(ValidationRow._fields) - 1)
        assert sum(fallback_sizes) <= 0.01 * total


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
