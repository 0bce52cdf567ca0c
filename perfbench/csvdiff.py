"""Numeric difference between two sets of metalfilm CSV outputs.

    python3 perfbench/csvdiff.py OLD NEW

OLD and NEW are two CSV files or two directories; directories are compared
file by file over the ``*.csv`` names they share.  For every numeric column
the tool prints the largest absolute difference and the largest relative
difference (|new - old| / |old|, over rows where old != 0).  Text columns
must match exactly.  The exit status is 1 when the two sets cannot be
compared (different file names, headers or row counts, or a text column
that differs) and 0 otherwise, whatever the size of the differences.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path


class Mismatch(Exception):
    """The two outputs differ in structure, not just in numbers."""


def _rows(path: Path):
    lines = path.read_text().splitlines()
    if not lines:
        raise Mismatch(f"{path}: empty file")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def diff_files(old: Path, new: Path) -> dict[str, tuple[float, float]]:
    """Per numeric column: (max abs difference, max relative difference)."""
    header, old_rows = _rows(old)
    new_header, new_rows = _rows(new)
    if header != new_header:
        raise Mismatch(f"{new}: header differs from {old}")
    if len(old_rows) != len(new_rows):
        raise Mismatch(f"{new}: {len(new_rows)} rows, {old}: {len(old_rows)}")
    result = {}
    for j, name in enumerate(header):
        worst_abs = worst_rel = 0.0
        for i, (a_row, b_row) in enumerate(zip(old_rows, new_rows)):
            a, b = a_row[j], b_row[j]
            try:
                x, y = float(a), float(b)
            except ValueError:
                if a != b:
                    raise Mismatch(f"{new}: row {i + 1} column {name}: {b!r} != {a!r}") from None
                continue
            if x == y:
                continue
            d = abs(y - x) if math.isfinite(x) and math.isfinite(y) else math.inf
            worst_abs = max(worst_abs, d)
            if x != 0.0:
                worst_rel = max(worst_rel, d / abs(x))
        if name != "swept_name":
            result[name] = (worst_abs, worst_rel)
    return result


def diff_sets(old: Path, new: Path) -> dict[str, dict[str, tuple[float, float]]]:
    """Compare two files, or the same-named ``*.csv`` files of two directories."""
    if old.is_file() and new.is_file():
        return {new.name: diff_files(old, new)}
    old_names = {p.name for p in old.glob("*.csv")}
    new_names = {p.name for p in new.glob("*.csv")}
    if old_names != new_names or not old_names:
        raise Mismatch(f"file sets differ: only in {old}: {sorted(old_names - new_names)}, "
                       f"only in {new}: {sorted(new_names - old_names)}")
    return {name: diff_files(old / name, new / name) for name in sorted(old_names)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="max abs/rel difference per CSV column")
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    try:
        report = diff_sets(args.old, args.new)
    except (Mismatch, OSError) as exc:
        print(f"csvdiff: {exc}", file=sys.stderr)
        return 1
    overall: dict[str, tuple[float, float]] = {}
    for columns in report.values():
        for name, (a, r) in columns.items():
            old_a, old_r = overall.get(name, (0.0, 0.0))
            overall[name] = (max(old_a, a), max(old_r, r))
    print(f"{len(report)} file(s) compared")
    print(f"{'column':<20} {'max_abs':>12} {'max_rel':>12}")
    for name, (a, r) in overall.items():
        print(f"{name:<20} {a:12.3e} {r:12.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
