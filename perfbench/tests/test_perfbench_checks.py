import numpy as np
from metalfilm.cli import main

from checks import check_request
from generator import SODIUM, _sweep


def _run(req, path):
    return main([*req.argv, "--out", str(path)])


def test_clean_output_passes_and_a_changed_value_fails(tmp_path):
    req = _sweep("fig2_d", SODIUM, "d", 1e-7, 5e-7, 6, "linear",
                 {"theta": 0.2, "omega_frac": 0.05, "p": 0.4})
    path = tmp_path / "out.csv"
    rc = _run(req, path)
    ok = check_request(req, path, rc, np.random.default_rng(0))
    assert (ok.points, ok.rows, ok.failed, ok.known, ok.problems) == (6, 6, 0, [], [])

    lines = path.read_text().split("\n")
    cols = lines[3].split(",")
    cols[2] = f"{float(cols[2]) * 1.001:.17e}"  # T of the third row
    lines[3] = ",".join(cols)
    path.write_text("\n".join(lines))
    bad = check_request(req, path, rc, np.random.default_rng(0))
    assert bad.failed == 1
    assert any("energy balance" in p for p in bad.problems)


def test_failed_request_fails_all_points(tmp_path):
    req = _sweep("fig2_d", SODIUM, "d", 1e-7, 5e-7, 6, "linear",
                 {"theta": 0.2, "omega_frac": 0.05, "p": 0.4})
    out = check_request(req, tmp_path / "missing.csv", 2, np.random.default_rng(0))
    assert out.failed == 6


def test_small_w_miss_is_listed_as_the_known_defect(tmp_path):
    # |w| ~ 1e-6 at p = 0: the 1/w - 1.5 I/w^2 assembly loses ~0.3 relative here
    material = (1e15, 1e8, 1e10)
    req = _sweep("small_w_d", material, "d", 1e-8, 1.1e-8, 4, "linear",
                 {"theta": 0.0, "omega_frac": 1e-6, "p": 0.0})
    path = tmp_path / "out.csv"
    out = check_request(req, path, _run(req, path), np.random.default_rng(0))
    assert out.failed == 0
    assert len(out.known) == 1
    w, p, err = out.known[0]
    assert abs(w) < 1e-2 and p == 0.0 and err > 1e-8
