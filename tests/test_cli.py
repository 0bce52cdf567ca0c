import math

import pytest

import metalfilm.cli
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


@pytest.mark.parametrize(
    "argv, computes",
    [
        (["figure", "fig1", "--tol", "abc"], False),
        (_D_SWEEP + ["--theta", "nan", "--omega-frac", "1e-2", "--p", "1.0"], False),
        (_D_SWEEP + ["--theta", "0", "--omega-frac", "inf", "--p", "1.0"], False),
        (_D_SWEEP + ["--theta", "0", "--omega-frac", "1e-2", "--p", "1.5"], False),
        (_D_SWEEP + ["--theta", "0", "--omega-frac", "1e-2", "--p", "1.0"], True),
    ],
    ids=["figure-tol-abc", "theta-nan", "omega-frac-inf", "p-1.5", "out-missing-dir"],
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
