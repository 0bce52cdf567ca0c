"""Command-line front end: parameter sweeps, figure presets and validation.

Subcommands:
  sweep    explicit sweep via flags and/or a flat key=value config file
  figure   bundled presets fig1..fig5 (fig4/fig5 write one file per thickness)
  validate thin-film vs exact-slab comparison report at p=1

Flags override config-file values; config keys are the exact flag names
without the leading dashes.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .materials import MaterialParams, sodium_preset
from .quadrature import _check_tol
from .slab import default_validation_setups, validate_thin_film
from .sweep import (
    _SWEPT_CHOICES,
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


def _config_options(argv) -> dict[str, str]:
    """The options of the config file named by ``sweep --config``, if any."""
    if argv[:1] != ["sweep"]:
        return {}
    # nargs="?" leaves a --config without a value to the full parser's error.
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config", nargs="?")
    path = pre.parse_known_args(argv[1:])[0].config
    return load_config(path) if path else {}


def _material_from_args(args, parser) -> MaterialParams:
    explicit = [args.omega_p, args.v_f, args.nu]
    if any(v is not None for v in explicit):
        if not all(v is not None for v in explicit):
            parser.error("explicit material needs all of --omega-p, --v-f, --nu")
        return MaterialParams(omega_p=args.omega_p, v_f=args.v_f, nu=args.nu)
    return _MATERIAL_PRESETS[args.material]()


def _series_path(out: Path, label: str) -> Path:
    return out.with_name(f"{out.stem}_{label}{out.suffix or '.csv'}")


def _add_material_flags(sub):
    sub.add_argument("--material", choices=tuple(_MATERIAL_PRESETS), default="sodium",
                     help="material preset name (default: %(default)s)")
    sub.add_argument("--omega-p", type=float, help="explicit plasma frequency, rad/s")
    sub.add_argument("--v-f", type=float, help="explicit Fermi velocity, cm/s")
    sub.add_argument("--nu", type=float, help="explicit collision frequency, 1/s")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metalfilm",
        description="Thin-metal-film s-wave transmission/reflection/absorption sweeps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("sweep", help="run one parameter sweep and write CSV")
    ps.add_argument("--config", help="flat key=value config file; flags override")
    ps.add_argument("--swept", required=True, choices=_SWEPT_CHOICES)
    ps.add_argument("--min", type=float, required=True,
                    help="grid lower bound (omega sweeps: fraction of omega_p)")
    ps.add_argument("--max", type=float, required=True, help="grid upper bound")
    ps.add_argument("--count", type=int, required=True, help="number of grid points (>= 2)")
    ps.add_argument("--scale", choices=("linear", "log"), default="linear",
                    help="grid spacing (default %(default)s)")
    ps.add_argument("--d", type=float, help="fixed thickness, cm")
    ps.add_argument("--theta", type=float, help="fixed incidence angle, rad")
    ps.add_argument("--omega-frac", type=float, help="fixed frequency as a fraction of omega_p")
    ps.add_argument("--p", type=float, help="fixed specularity in [0, 1]")
    ps.add_argument("--tol", type=float, default=SweepSpec.tol,
                    help="quadrature tolerance (default %(default)s)")
    ps.add_argument("--out", required=True, help="output CSV path")
    _add_material_flags(ps)

    pf = sub.add_parser("figure", help="run a bundled figure preset")
    pf.add_argument("name", choices=FIGURE_NAMES)
    pf.add_argument("--out", required=True, help="output CSV path (multi-series presets add a suffix per series)")

    pv = sub.add_parser("validate", help="thin-film vs exact-slab report (p=1)")
    pv.add_argument("--out", required=True, help="output CSV path")
    pv.add_argument("--theta", type=float, default=0.0, help="incidence angle, rad (default 0)")
    pv.add_argument("--d-min", type=float, default=1e-9, help="smallest thickness, cm")
    pv.add_argument("--d-max", type=float, default=1e-4, help="largest thickness, cm")
    pv.add_argument("--d-count", type=int, default=11, help="thickness grid points (log-spaced)")
    pv.add_argument(
        "--omega-fracs",
        default="1e-3,1e-2,1e-1",
        help="comma-separated frequencies as fractions of omega_p",
    )
    pv.add_argument("--tol", type=float, help="must be finite and > 0; unused: p = 1 needs no quadrature")
    _add_material_flags(pv)

    return parser


def _cmd_sweep(args, parser) -> int:
    spec = SweepSpec(
        swept=args.swept,
        grid=GridSpec(args.min, args.max, args.count, args.scale),
        material=_material_from_args(args, parser),
        d=args.d, theta=args.theta, omega_frac=args.omega_frac, p=args.p,
        tol=args.tol,
    )
    emit_csv(run_sweep(spec), args.out)
    return 0


def _cmd_figure(args, parser) -> int:
    specs = figure_preset(args.name)
    out = Path(args.out)
    for spec in specs:
        path = _series_path(out, spec.label) if len(specs) > 1 else out
        emit_csv(run_sweep(spec), path)
    return 0


def _cmd_validate(args, parser) -> int:
    if args.tol is not None:
        _check_tol(args.tol)
    material = _material_from_args(args, parser)
    fracs = tuple(float(f) for f in args.omega_fracs.split(","))
    setups = default_validation_setups(
        material,
        d_min=args.d_min,
        d_max=args.d_max,
        d_count=args.d_count,
        omega_fracs=fracs,
        theta=args.theta,
    )
    emit_validation_csv(validate_thin_film(material, setups), args.out)
    return 0


def main(argv=None) -> int:
    """Run one subcommand; bad input and an unwritable output exit with code 2."""
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    handlers = {"sweep": _cmd_sweep, "figure": _cmd_figure, "validate": _cmd_validate}
    try:
        # Config entries go before the user's flags, so the user's flags win;
        # "--key=value" keeps a value such as -5e-1 from reading as a flag.
        options = _config_options(argv)
        config_flags = [f"--{key}={value}" for key, value in options.items()]
        args = parser.parse_args([*argv[:1], *config_flags, *argv[1:]])
        for key in options:
            # argparse accepts a unique prefix ("swe" for "swept"); a key must be exact.
            if key.replace("-", "_") not in vars(args):
                raise ValueError(f"unknown config key {key!r}")
        return handlers[args.command](args, parser)
    except (ValueError, OSError) as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
