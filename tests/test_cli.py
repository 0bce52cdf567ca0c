import contextlib
import io
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import metalfilm.cli
import metalfilm.slab
from metalfilm import GridSpec, SweepSpec, emit_csv, run_sweep, sodium_preset, validate_thin_film
from metalfilm.cli import load_config, main
from metalfilm.sweep import _SWEPT_CHOICES, CSV_HEADER, VALIDATION_CSV_HEADER


class TestFigureCommand:
    def test_fig1_writes_csv(self, tmp_path):
        out = tmp_path / "fig1.csv"
        assert main(["figure", "fig1", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 201  # header + 200 grid points
        thetas = [float(l.split(",")[1]) for l in lines[1:]]
        assert thetas[0] == 0.0
        assert thetas[-1] == pytest.approx(math.pi / 2, rel=1e-15)
        assert all(b > a for a, b in zip(thetas, thetas[1:]))

    def test_fig1_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["figure", "fig1", "--out", str(a)])
        main(["figure", "fig1", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_fig5_writes_one_file_per_series(self, tmp_path):
        out = tmp_path / "fig5.csv"
        main(["figure", "fig5", "--out", str(out)])
        made = sorted(p.name for p in tmp_path.iterdir())
        assert made == ["fig5_d1e-07.csv", "fig5_d2e-07.csv", "fig5_d3e-07.csv"]

    def test_unknown_figure_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(["figure", "fig9", "--out", str(tmp_path / "x.csv")])
        assert info.value.code == 2


class TestSweepCommand:
    def test_matches_library_run(self, tmp_path):
        out = tmp_path / "sweep.csv"
        main(
            [
                "sweep", "--material", "sodium", "--swept", "d",
                "--min", "1e-8", "--max", "1e-7", "--count", "3", "--scale", "log",
                "--theta", "0.0", "--omega-frac", "1e-2", "--p", "1.0",
                "--out", str(out),
            ]
        )
        ref = tmp_path / "ref.csv"
        emit_csv(
            run_sweep(
                SweepSpec(
                    swept="d",
                    grid=GridSpec(1e-8, 1e-7, 3, scale="log"),
                    material=sodium_preset(),
                    theta=0.0,
                    omega_frac=1e-2,
                    p=1.0,
                )
            ),
            ref,
        )
        assert out.read_bytes() == ref.read_bytes()

    def test_missing_required_flag_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(["sweep", "--swept", "theta", "--min", "0", "--max", "1"])
        assert info.value.code == 2

    def test_explicit_material_needs_all_three(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "sweep", "--omega-p", "6.5e15", "--swept", "p",
                    "--min", "0", "--max", "1", "--count", "2",
                    "--d", "1e-7", "--theta", "0", "--omega-frac", "1e-2",
                    "--out", str(tmp_path / "x.csv"),
                ]
            )

    def test_fixing_the_swept_parameter_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(
                [
                    "sweep", "--swept", "theta", "--theta", "0.3",
                    "--min", "0", "--max", "1", "--count", "3",
                    "--d", "1e-7", "--omega-frac", "1e-2", "--p", "0.5",
                    "--out", str(tmp_path / "x.csv"),
                ]
            )
        assert info.value.code == 2

    def test_out_of_domain_grid_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(
                [
                    "sweep", "--swept", "p", "--min", "0", "--max", "2",
                    "--count", "3", "--d", "1e-7", "--theta", "0",
                    "--omega-frac", "1e-2", "--out", str(tmp_path / "x.csv"),
                ]
            )
        assert info.value.code == 2


_D_SWEEP = ["sweep", "--swept", "d", "--min", "1e-8", "--max", "1e-7", "--count", "3"]
#: explicit materials whose sigma_0 overflows, l underflows to 0, tau overflows
_BAD_MATERIALS = {
    "sigma0-overflow": ["--omega-p=1e200", "--v-f=1e8", "--nu=1e10"],
    "l-underflow": ["--omega-p=1e15", "--v-f=1e-300", "--nu=1e300"],
    "tau-overflow": ["--omega-p=1e15", "--v-f=1e8", "--nu=1e-320"],
}
_COMMANDS = {"sweep": _D_SWEEP + ["--theta", "0", "--omega-frac", "1e-2", "--p", "1"],
             "validate": ["validate"]}
_W_SWEEP = ["sweep", "--swept", "d", "--count", "3", "--omega-frac", "1e-2", "--theta", "0",
            "--p", "0.3"]


@pytest.mark.parametrize(
    "argv, computes",
    [
        (["figure", "fig1", "--tol", "abc"], False),
        (_D_SWEEP + ["--theta", "nan", "--omega-frac", "1e-2", "--p", "1.0"], False),
        (_D_SWEEP + ["--theta", "0", "--omega-frac", "inf", "--p", "1.0"], False),
        (_D_SWEEP + ["--theta", "0", "--omega-frac", "1e-2", "--p", "1.5"], False),
        (_D_SWEEP + ["--theta", "0", "--omega-frac", "1e-2", "--p", "1.0"], True),
        # |w| outside [1e-150, 1e150] at a grid end
        (_W_SWEEP + ["--min", "1e199", "--max", "1e200"], False),
        (_W_SWEEP + ["--min", "1e-300", "--max", "1e-299"], False),
        (_W_SWEEP + ["--min", "1e300", "--max", "1e301"], False),
        (["validate", "--tol", "-5"], False),
        (["validate", "--tol", "nan"], False),
        (["validate", "--tol", "0"], False),
        (["validate", "--tol", "inf"], False),
        (_D_SWEEP + ["--theta", "0", "--omega-frac", "1e-2", "--p", "0.5", "--tol", "inf"], False),
        *((command + flags, False) for flags in _BAD_MATERIALS.values() for command in _COMMANDS.values()),
    ],
    ids=["figure-tol-abc", "theta-nan", "omega-frac-inf", "p-1.5", "out-missing-dir",
         "w-1e200", "w-1e-300", "w-1e301", "validate-tol-neg", "validate-tol-nan",
         "validate-tol-0", "validate-tol-inf", "sweep-tol-inf",
         *(f"{command}-{name}" for name in _BAD_MATERIALS for command in _COMMANDS)],
)
def test_bad_input_is_usage_error(tmp_path, monkeypatch, capsys, argv, computes):
    """Bad values and an unwritable --out exit with code 2, not a traceback.

    Input errors are caught before any point is evaluated; the last case
    has valid input and fails only when the CSV is written.
    """
    runs = []
    monkeypatch.setattr(metalfilm.cli, "run_sweep", lambda spec: runs.append(spec) or run_sweep(spec))
    monkeypatch.setattr(metalfilm.cli, "validate_thin_film", lambda *a: runs.append(a) or validate_thin_film(*a))
    out = tmp_path / "missing" / "x.csv" if computes else tmp_path / "x.csv"
    with pytest.raises(SystemExit) as info:
        main(argv + ["--out", str(out)])
    assert info.value.code == 2
    assert "error:" in capsys.readouterr().err
    assert bool(runs) == computes
    assert not out.exists()


@pytest.mark.parametrize("bound", [["--d-min", "0"], ["--d-min=-1e-9"]], ids=["zero", "negative"])
def test_nonpositive_thickness_bound_is_usage_error(tmp_path, capsys, bound):
    """A bound the log grid cannot start from exits 2 before any work."""
    out = tmp_path / "report.csv"
    with pytest.raises(SystemExit) as info:
        main(["validate", "--out", str(out), *bound])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "d_min must be positive and finite" in err
    assert "Traceback" not in err
    assert not out.exists()


_THETA_CONFIG = "swept = theta\nmin = 0.0\nmax = 1.0\ncount = 3\nd = 1e-7\nomega-frac = 1e-2\np = 1.0\n"


class TestConfigFile:
    def test_parse(self, tmp_path):
        cfg = tmp_path / "spec.cfg"
        cfg.write_text(
            "# fig1-like sweep\n"
            "swept = theta\n"
            "min = 0.0\n"
            "max = 1.0   # radians\n"
            "count = 3\n"
            "d = 1e-7\n"
            "omega-frac = 1e-2\n"
            "p = 1.0\n"
        )
        options = load_config(cfg)
        assert options["swept"] == "theta"
        assert options["omega-frac"] == "1e-2"
        assert "count" in options and options["count"] == "3"

    def test_config_drives_sweep(self, tmp_path):
        cfg = tmp_path / "spec.cfg"
        cfg.write_text(
            "swept = theta\nmin = 0.0\nmax = 1.0\ncount = 3\n"
            "d = 1e-7\nomega-frac = 1e-2\np = 1.0\n"
        )
        out = tmp_path / "from_config.csv"
        main(["sweep", "--config", str(cfg), "--out", str(out)])
        assert len(out.read_text().splitlines()) == 4

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "spec.cfg"
        cfg.write_text(
            "swept = theta\nmin = 0.0\nmax = 1.0\ncount = 3\n"
            "d = 1e-7\nomega-frac = 1e-2\np = 1.0\n"
        )
        out = tmp_path / "override.csv"
        main(["sweep", "--config", str(cfg), "--count", "5", "--out", str(out)])
        assert len(out.read_text().splitlines()) == 6

    def test_malformed_config_is_usage_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("swept theta\n")
        with pytest.raises(SystemExit) as info:
            main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
        assert info.value.code == 2

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("sweeep = theta\n")
        with pytest.raises(SystemExit) as info:
            main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
        assert info.value.code == 2


    def test_abbreviated_config_key_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(_THETA_CONFIG.replace("swept", "swe"))
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as info:
            main(["sweep", "--config", str(cfg), "--out", str(out)])
        assert info.value.code == 2
        assert "unknown config key 'swe'" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_config_value_reaches_the_domain_check(self, tmp_path, capsys):
        cfg = tmp_path / "p.cfg"
        cfg.write_text("swept = p\nmin = -5e-1\nmax = 1.0\ncount = 3\nd = 1e-7\ntheta = 0\nomega-frac = 1e-2\n")
        with pytest.raises(SystemExit) as info:
            main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
        assert info.value.code == 2
        assert "p must lie in [0, 1]" in capsys.readouterr().err

    def test_flag_before_config_still_wins(self, tmp_path):
        cfg = tmp_path / "spec.cfg"
        cfg.write_text(_THETA_CONFIG)
        out = tmp_path / "override.csv"
        assert main(["sweep", "--count", "5", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 6

    @pytest.mark.parametrize("key", ["swept", "count"])
    def test_missing_required_key_is_usage_error(self, tmp_path, capsys, key):
        cfg = tmp_path / "spec.cfg"
        cfg.write_text("".join(l + "\n" for l in _THETA_CONFIG.splitlines() if not l.startswith(key)))
        with pytest.raises(SystemExit) as info:
            main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
        assert info.value.code == 2
        assert f"--{key}" in capsys.readouterr().err


class TestValidateCommand:
    def test_report_schema(self, tmp_path):
        out = tmp_path / "report.csv"
        main(
            [
                "validate", "--out", str(out),
                "--d-min", "1e-9", "--d-max", "1e-6", "--d-count", "4",
                "--omega-fracs", "1e-2",
            ]
        )
        lines = out.read_text().splitlines()
        assert lines[0] == VALIDATION_CSV_HEADER
        assert len(lines) == 5
        first = lines[1].split(",")
        assert first[0] == "d"
        # deep thin limit: all three deviations tiny
        assert all(abs(float(x)) < 1e-4 for x in first[12:15])

    def test_zero_frequency_is_usage_error(self, tmp_path, monkeypatch, capsys):
        """omega = 0 has no exact-slab solution: exit 2 before anything is computed."""
        calls = []
        monkeypatch.setattr(metalfilm.slab, "tra_for_film", lambda *a: calls.append(a))
        out = tmp_path / "report.csv"
        with pytest.raises(SystemExit) as info:
            main(["validate", "--out", str(out), "--omega-fracs", "0,1e-2"])
        assert info.value.code == 2
        assert "omega must be > 0" in capsys.readouterr().err
        assert calls == [] and not out.exists()


def _mostly(usual, rare):
    """Draws from ``usual`` seven times in eight, else from ``rare``."""
    return st.sampled_from((usual,) * 7 + (rare,)).flatmap(lambda strategy: strategy)


#: NaN, +-inf, signed zeros, a negative, subnormals, the smallest normal and huge values.  Arbitrary
#: doubles are left out: a valid but large one, such as omega_frac = 6e16 at p < 1, costs the
#: quadrature its whole panel budget, ~0.1 s a row.
_SPECIAL_DOUBLES = (math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 5e-324, 1e-310,
                    2.2250738585072014e-308, 1e-300, 1e300, 1.7976931348623157e308)


def _any_double(*typical):
    """Mostly a typical value, else a special double."""
    return _mostly(st.sampled_from(typical), st.sampled_from(_SPECIAL_DOUBLES))


def _flags(**values):
    # "--key=value" keeps a negative value from reading as a flag; None leaves the flag out
    return [f"--{key.replace('_', '-')}={value!r}" for key, value in values.items() if value is not None]


#: typical values of each sweep parameter; omega is a fraction of omega_p
_SWEEP_VALUES = {"d": (1e-8, 1e-7, 1e-6), "theta": (0.0, 0.7, math.pi / 2),
                 "omega_frac": (1e-3, 1e-2, 0.3, 2.0), "p": (0.0, 0.5, 1.0)}
#: grid sizes; huge grids are a separate question and must not be allocated here
_COUNT = _mostly(st.integers(2, 40), st.integers(-1, 1))
#: never so small a tolerance that the quadrature runs out of panels: that costs 70 ms an integral
_TOL = _mostly(st.sampled_from((None, 1e-10, 1e-6, 1e300)), st.sampled_from((0.0, -1e-10, math.nan, math.inf)))


@st.composite
def _material(draw):
    """No material flags (sodium), or all three explicit."""
    if draw(st.booleans()):
        return []
    return _flags(omega_p=draw(_any_double(6.5e15, 1.37e16)), v_f=draw(_any_double(8.52e7, 1.4e8)),
                  nu=draw(_any_double(6.5e12, 4.1e13)))


@st.composite
def _sweep_argv(draw):
    swept = draw(st.sampled_from(_SWEPT_CHOICES))
    key = "omega_frac" if swept == "omega" else swept
    fixed = {name: draw(_mostly(_any_double(*values), st.none()))
             for name, values in _SWEEP_VALUES.items() if name != key}
    bounds = sorted(draw(st.lists(_any_double(*_SWEEP_VALUES[key]), min_size=2, max_size=2)))
    return ["sweep", f"--swept={swept}", f"--scale={draw(st.sampled_from(('linear', 'log')))}",
            f"--count={draw(_COUNT)}", *_flags(min=bounds[0], max=bounds[1], tol=draw(_TOL), **fixed),
            *draw(_material())]


@st.composite
def _validate_argv(draw):
    fracs = draw(st.lists(_any_double(1e-30, 1e-3, 1e-2, 0.3, 1.5, 10.0), min_size=1, max_size=4))
    maybe = lambda *values: draw(_mostly(_any_double(*values), st.none()))
    return ["validate", f"--omega-fracs={','.join(map(repr, fracs))}",
            *_flags(theta=maybe(0.0, 0.7, math.pi / 2), d_min=maybe(1e-300, 1e-20, 1e-9),
                    d_max=maybe(1e-6, 1e-4, 1e-2), d_count=draw(_mostly(_COUNT, st.none())), tol=draw(_TOL)),
            *draw(_material())]


def _exits_0_or_2(argv, out):
    """``main(argv)`` exits 0 with a finite CSV at ``out`` or 2; any other exception propagates."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = main([*argv, f"--out={out}"])
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2) and "Traceback" not in err.getvalue()
    if code == 0:
        rows = [line.split(",")[1:] for line in out.read_text().splitlines()[1:]]
        assert rows and all(math.isfinite(float(x)) for row in rows for x in row)
    out.unlink(missing_ok=True)


_FUZZ = settings(derandomize=True, database=None, max_examples=100, deadline=None)


@_FUZZ
@given(argv=_sweep_argv())
@example(argv=_COMMANDS["sweep"] + _BAD_MATERIALS["sigma0-overflow"])
@example(argv=_COMMANDS["sweep"] + _BAD_MATERIALS["l-underflow"])
@example(argv=_COMMANDS["sweep"] + _BAD_MATERIALS["tau-overflow"])
def test_sweep_fuzz_exits_0_or_2(tmp_path_factory, argv):
    """Any sweep argv exits 0 with a finite CSV or 2 with a usage error, never a traceback."""
    _exits_0_or_2(argv, tmp_path_factory.mktemp("sweep") / "x.csv")


@_FUZZ
@given(argv=_validate_argv())
@example(argv=["validate", *_BAD_MATERIALS["sigma0-overflow"]])
@example(argv=["validate", *_BAD_MATERIALS["l-underflow"]])
@example(argv=["validate", *_BAD_MATERIALS["tau-overflow"]])
def test_validate_fuzz_exits_0_or_2(tmp_path_factory, argv):
    """Any validate argv exits 0 with a finite report or 2 with a usage error, never a traceback."""
    _exits_0_or_2(argv, tmp_path_factory.mktemp("validate") / "x.csv")
