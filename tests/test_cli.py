import math

import pytest

import metalfilm.cli
import metalfilm.slab
from metalfilm import GridSpec, SweepSpec, emit_csv, run_sweep, sodium_preset
from metalfilm.cli import load_config, main
from metalfilm.sweep import CSV_HEADER, VALIDATION_CSV_HEADER


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
    ],
    ids=["figure-tol-abc", "theta-nan", "omega-frac-inf", "p-1.5", "out-missing-dir",
         "w-1e200", "w-1e-300", "w-1e301", "validate-tol-neg", "validate-tol-nan",
         "validate-tol-0", "validate-tol-inf", "sweep-tol-inf"],
)
def test_bad_input_is_usage_error(tmp_path, monkeypatch, capsys, argv, computes):
    """Bad values and an unwritable --out exit with code 2, not a traceback.

    Input errors are caught before any point is evaluated; the last case
    has valid input and fails only when the CSV is written.
    """
    runs = []
    monkeypatch.setattr(metalfilm.cli, "run_sweep", lambda spec: runs.append(spec) or run_sweep(spec))
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
