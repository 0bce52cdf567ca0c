from csvdiff import Mismatch, diff_sets, main

import pytest

HEADER = "swept_name,swept_value,T\n"


def test_reports_max_abs_and_rel_per_column(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    (tmp_path / "a" / "x.csv").write_text(HEADER + "d,1.0,0.5\nd,2.0,0.25\n")
    (tmp_path / "b" / "x.csv").write_text(HEADER + "d,1.0,0.5000001\nd,2.0,0.2500002\n")
    report = diff_sets(tmp_path / "a", tmp_path / "b")
    assert report["x.csv"]["swept_value"] == (0.0, 0.0)
    abs_diff, rel_diff = report["x.csv"]["T"]
    assert abs_diff == pytest.approx(2e-7)
    assert rel_diff == pytest.approx(8e-7)
    assert main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0


def test_structural_mismatch_is_an_error(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text(HEADER + "d,1.0,0.5\n")
    b.write_text(HEADER + "p,1.0,0.5\n")
    with pytest.raises(Mismatch):
        diff_sets(a, b)
    b.write_text(HEADER + "d,1.0,0.5\nd,2.0,0.5\n")
    assert main([str(a), str(b)]) == 1
