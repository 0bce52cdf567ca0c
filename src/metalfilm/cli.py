"""Command-line front end: parameter sweeps, figure presets and validation.

Subcommands:
  sweep    explicit sweep via flags and/or a flat key=value config file
  figure   bundled presets fig1..fig5 (fig4/fig5 write one file per thickness)
  validate thin-film vs exact-slab comparison report at p=1

Flags override config-file values; config keys are the flag names without
the leading dashes.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .materials import MaterialParams, sodium_preset
from .slab import default_validation_setups, validate_thin_film
from .sweep import (
    FIGURE_NAMES,
    GridSpec,
    SweepSpec,
    emit_csv,
    emit_validation_csv,
    figure_preset,
    run_sweep,
)

_MATERIAL_PRESETS = {"sodium": sodium_preset}


def load_config(path) -> dict[str, str]:
    """Parse a flat ``key = value`` config file; '#' starts a comment."""
    options: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        options[key.strip()] = value.strip()
    return options


def _merge_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """Fill unset flags from the config file (flags win)."""
    if not getattr(args, "config", None):
        return
    try:
        options = load_config(args.config)
    except OSError as exc:
        parser.error(f"cannot read config file: {exc}")
    except ValueError as exc:
        parser.error(str(exc))
    for key, value in options.items():
        dest = key.replace("-", "_")
        if not hasattr(args, dest):
            parser.error(f"unknown config key {key!r}")
        if getattr(args, dest) is None:
            setattr(args, dest, value)


def _require(args, parser, *names):
    for name in names:
        if getattr(args, name.replace("-", "_")) is None:
            parser.error(f"--{name} is required (flag or config)")


def _material_from_args(args, parser) -> MaterialParams:
    explicit = [args.omega_p, args.v_f, args.nu]
    if any(v is not None for v in explicit):
        if not all(v is not None for v in explicit):
            parser.error("explicit material needs all of --omega-p, --v-f, --nu")
        return MaterialParams(
            omega_p=float(args.omega_p), v_f=float(args.v_f), nu=float(args.nu)
        )
    name = args.material or "sodium"
    try:
        return _MATERIAL_PRESETS[name]()
    except KeyError:
        parser.error(f"unknown material {name!r}; presets: {sorted(_MATERIAL_PRESETS)}")


def _series_path(out: Path, label: str) -> Path:
    return out.with_name(f"{out.stem}_{label}{out.suffix or '.csv'}")


def _add_material_flags(sub):
    sub.add_argument("--material", help="material preset name (default: sodium)")
    sub.add_argument("--omega-p", help="explicit plasma frequency, rad/s")
    sub.add_argument("--v-f", help="explicit Fermi velocity, cm/s")
    sub.add_argument("--nu", help="explicit collision frequency, 1/s")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metalfilm",
        description="Thin-metal-film s-wave transmission/reflection/absorption sweeps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("sweep", help="run one parameter sweep and write CSV")
    ps.add_argument("--config", help="flat key=value config file; flags override")
    ps.add_argument("--swept", choices=("theta", "d", "p", "omega"))
    ps.add_argument("--min", help="grid lower bound (omega sweeps: fraction of omega_p)")
    ps.add_argument("--max", help="grid upper bound")
    ps.add_argument("--count", help="number of grid points (>= 2)")
    ps.add_argument("--scale", choices=("linear", "log"), help="grid spacing (default linear)")
    ps.add_argument("--d", help="fixed thickness, cm")
    ps.add_argument("--theta", help="fixed incidence angle, rad")
    ps.add_argument("--omega-frac", help="fixed frequency as a fraction of omega_p")
    ps.add_argument("--p", help="fixed specularity in [0, 1]")
    ps.add_argument("--tol", help="quadrature tolerance (default 1e-10)")
    ps.add_argument("--out", help="output CSV path")
    _add_material_flags(ps)

    pf = sub.add_parser("figure", help="run a bundled figure preset")
    pf.add_argument("name", choices=FIGURE_NAMES)
    pf.add_argument("--out", required=True, help="output CSV path (multi-series presets add a suffix per series)")
    pf.add_argument("--tol", help="quadrature tolerance override")

    pv = sub.add_parser("validate", help="thin-film vs exact-slab report (p=1)")
    pv.add_argument("--out", required=True, help="output CSV path")
    pv.add_argument("--theta", default="0.0", help="incidence angle, rad (default 0)")
    pv.add_argument("--d-min", default="1e-9", help="smallest thickness, cm")
    pv.add_argument("--d-max", default="1e-4", help="largest thickness, cm")
    pv.add_argument("--d-count", default="11", help="thickness grid points (log-spaced)")
    pv.add_argument(
        "--omega-fracs",
        default="1e-3,1e-2,1e-1",
        help="comma-separated frequencies as fractions of omega_p",
    )
    pv.add_argument("--tol", type=float, help="unused: p = 1 needs no quadrature")
    _add_material_flags(pv)

    return parser


def _cmd_sweep(args, parser) -> int:
    _merge_config(args, parser)
    _require(args, parser, "swept", "min", "max", "count", "out")
    material = _material_from_args(args, parser)
    fixed = {
        "d": None if args.d is None else float(args.d),
        "theta": None if args.theta is None else float(args.theta),
        "omega_frac": None if args.omega_frac is None else float(args.omega_frac),
        "p": None if args.p is None else float(args.p),
    }
    swept_key = "omega_frac" if args.swept == "omega" else args.swept
    if fixed.get(swept_key) is not None:
        parser.error(
            f"--{swept_key.replace('_', '-')} is the swept parameter; "
            "drop the fixed value"
        )
    fixed.pop(swept_key, None)
    spec = SweepSpec(
        swept=args.swept,
        grid=GridSpec(
            min=float(args.min),
            max=float(args.max),
            count=int(args.count),
            scale=args.scale or "linear",
        ),
        material=material,
        tol=float(args.tol) if args.tol is not None else 1e-10,
        **fixed,
    )
    emit_csv(run_sweep(spec), args.out)
    return 0


def _cmd_figure(args, parser) -> int:
    specs = figure_preset(args.name)
    if args.tol is not None:
        from dataclasses import replace

        specs = [replace(s, tol=float(args.tol)) for s in specs]
    out = Path(args.out)
    for spec in specs:
        path = _series_path(out, spec.label) if len(specs) > 1 else out
        emit_csv(run_sweep(spec), path)
    return 0


def _cmd_validate(args, parser) -> int:
    material = _material_from_args(args, parser)
    fracs = tuple(float(f) for f in args.omega_fracs.split(","))
    setups = default_validation_setups(
        material,
        d_min=float(args.d_min),
        d_max=float(args.d_max),
        d_count=int(args.d_count),
        omega_fracs=fracs,
        theta=float(args.theta),
    )
    emit_validation_csv(validate_thin_film(material, setups), args.out)
    return 0


def main(argv=None) -> int:
    """Run one subcommand; bad input and an unwritable output exit with code 2."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"sweep": _cmd_sweep, "figure": _cmd_figure, "validate": _cmd_validate}
    try:
        return handlers[args.command](args, parser)
    except (ValueError, OSError) as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
