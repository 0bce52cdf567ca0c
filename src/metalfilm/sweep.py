"""Parameter sweeps over angle, thickness, specularity and frequency.

A sweep varies exactly one of {theta, d, p, omega} over a grid while the
other film parameters stay fixed, evaluating the conductivity and the
(T, R, A) triple over the whole grid as numpy arrays and emitting the rows
as CSV.  Frequencies are specified and reported as fractions of the plasma
frequency, which keeps the output files material-independent.  Evaluation
is deterministic: the same spec always produces byte-identical CSV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .conductivity import (
    complex_thickness,
    drude_conductivity,
    phi_inverse_from_integral,
    sigma_d,
)
from .materials import C_LIGHT, FilmSetup, MaterialParams, sodium_preset
from .optics import tra_for_film
from .quadrature import QuadratureError
from .slab import ValidationRow

__all__ = [
    "GridSpec",
    "SweepSpec",
    "SweepRow",
    "FIGURE_NAMES",
    "run_sweep",
    "figure_preset",
    "emit_csv",
    "emit_validation_csv",
]

_SWEPT_CHOICES = ("theta", "d", "p", "omega")


CSV_HEADER = "swept_name,swept_value,T,R,A,re_sigma_d,im_sigma_d,re_w,im_w,kd,quad_err"
VALIDATION_CSV_HEADER = (
    "swept_name,swept_value,T,R,A,re_sigma_d,im_sigma_d,re_w,im_w,kd,quad_err,"
    "omega_over_omega_p,abs_dT,abs_dR,abs_dA,d_over_delta"
)


@dataclass(frozen=True)
class GridSpec:
    """Evaluation grid for the swept parameter."""

    min: float
    max: float
    count: int
    scale: str = "linear"

    def __post_init__(self) -> None:
        if self.count < 2:
            raise ValueError(f"count must be >= 2, got {self.count!r}")
        if self.scale not in ("linear", "log"):
            raise ValueError(f"scale must be 'linear' or 'log', got {self.scale!r}")
        if not (math.isfinite(self.min) and math.isfinite(self.max)):
            raise ValueError("grid bounds must be finite")
        if self.min > self.max:
            raise ValueError(f"min must be <= max, got [{self.min!r}, {self.max!r}]")
        if self.scale == "log" and self.min <= 0.0:
            raise ValueError("log scale requires min > 0")

    def values(self) -> list[float]:
        if self.scale == "log":
            return np.geomspace(self.min, self.max, self.count).tolist()
        return np.linspace(self.min, self.max, self.count).tolist()


@dataclass(frozen=True)
class SweepSpec:
    """One swept parameter plus fixed values for the rest.

    The fixed field corresponding to ``swept`` must be left as None; the
    others must be set.  omega_frac is omega/omega_p (both for the fixed
    value and, when sweeping omega, for the grid bounds).  The fixed values
    and both grid ends are checked through FilmSetup on construction, so
    an invalid spec fails before any point is evaluated.
    """

    swept: str
    grid: GridSpec
    material: MaterialParams
    d: float | None = None
    theta: float | None = None
    omega_frac: float | None = None
    p: float | None = None
    tol: float = 1e-10
    label: str = ""

    def __post_init__(self) -> None:
        if self.swept not in _SWEPT_CHOICES:
            raise ValueError(f"swept must be one of {_SWEPT_CHOICES}, got {self.swept!r}")
        fixed = {"d": self.d, "theta": self.theta, "omega": self.omega_frac, "p": self.p}
        for name, value in fixed.items():
            if name == self.swept:
                if value is not None:
                    raise ValueError(f"{name} is swept and must not also be fixed")
            elif value is None:
                raise ValueError(f"fixed value for {name} is required")
        if not self.tol > 0.0:
            raise ValueError(f"tol must be > 0, got {self.tol!r}")
        self.setup_for(self.grid.min)
        self.setup_for(self.grid.max)

    def setup_for(self, value: float) -> FilmSetup:
        """FilmSetup at one grid point (omega sweeps take the fraction)."""
        d, theta, omega_frac, p = self.d, self.theta, self.omega_frac, self.p
        if self.swept == "d":
            d = value
        elif self.swept == "theta":
            theta = value
        elif self.swept == "p":
            p = value
        else:
            omega_frac = value
        return FilmSetup(d=d, theta=theta, omega=omega_frac * self.material.omega_p, p=p)


@dataclass(frozen=True)
class SweepRow:
    """One evaluated grid point; the CSV column order follows the fields."""

    swept_name: str
    swept_value: float
    T: float
    R: float
    A: float
    re_sigma_d: float
    im_sigma_d: float
    re_w: float
    im_w: float
    kd: float
    quad_err: float


def _sigma_best_estimate(material: MaterialParams, setup: FilmSetup, tol: float):
    """sigma_d, but a quadrature budget failure degrades to the best estimate."""
    try:
        res = sigma_d(material, setup, tol)
        return res.sigma_d, res.quad_error_estimate
    except QuadratureError as exc:
        w = complex_thickness(material, setup.d, setup.omega)
        phi_inv = phi_inverse_from_integral(w, setup.p, exc.value)
        sigma = drude_conductivity(material, setup.omega) * w * phi_inv
        return sigma, 1.5 * (1.0 - setup.p) * exc.error_estimate / abs(w)


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Evaluate the grid in order; deterministic for a given spec.

    The Drude value, w, kd and (T, R, A) are array expressions over the
    grid.  Points with p < 1 take sigma_d from one scalar evaluation per
    distinct (d, omega, p), made in grid order and copied to every row
    that shares it, so a theta sweep needs a single kernel integral.
    Coefficients are clamped to [0, 1] here, in the presentation layer
    only; the core routines never clamp.  A quadrature failure is
    recorded through a large quad_err value instead of aborting the run.
    """
    m = spec.material
    values = spec.grid.values()
    grid = np.array(values)
    d, theta, omega_frac, p = (
        grid if name == spec.swept else np.full(grid.shape, value, dtype=float)
        for name, value in (("d", spec.d), ("theta", spec.theta),
                            ("omega", spec.omega_frac), ("p", spec.p))
    )
    omega = omega_frac * m.omega_p
    sigma = drude_conductivity(m, omega)
    w = complex_thickness(m, d, omega)
    quad_err = np.zeros(grid.shape)

    diffuse = np.flatnonzero(p < 1.0)
    if diffuse.size:
        keys = list(zip(d[diffuse].tolist(), omega[diffuse].tolist(), p[diffuse].tolist()))
        found = {}
        for key, i in zip(keys, diffuse.tolist()):
            if key not in found:
                found[key] = _sigma_best_estimate(m, spec.setup_for(values[i]), spec.tol)
        sigma[diffuse], quad_err[diffuse] = zip(*(found[key] for key in keys))

    coeffs = tra_for_film(sigma, d, theta)
    swept_name = "omega_over_omega_p" if spec.swept == "omega" else spec.swept
    columns = (
        values,
        *(np.clip(x, 0.0, 1.0).tolist() for x in (coeffs.T, coeffs.R, coeffs.A)),
        sigma.real.tolist(), sigma.imag.tolist(), w.real.tolist(), w.imag.tolist(),
        (omega * d / C_LIGHT).tolist(), quad_err.tolist(),
    )
    return [SweepRow(swept_name, *row) for row in zip(*columns)]


#: sweep presets named after the bundled figure datasets
FIGURE_NAMES = ("fig1", "fig2", "fig3", "fig4", "fig5")


def figure_preset(name: str) -> list[SweepSpec]:
    """Bundled sweep presets (sodium film).

    fig1: angle sweep at d=1e-7 cm, omega=1e-2*omega_p, p=0.5
    fig2: thickness sweep over [1e-7, 1e-6] cm at theta=0, omega=1e-1*omega_p, p=0.5
    fig3: specularity sweep over [0, 1] at theta=0, omega=1e-1*omega_p, d=1e-7 cm
    fig4: frequency sweeps (log, omega/omega_p in [1e-3, 1e-1], i.e.
          omega*tau from 1 to 100) at p=0 for d in {1, 2, 3}e-7 cm --
          one spec per thickness
    fig5: same as fig4 with specular surfaces (p=1)

    The frequency range stops at 1e-1*omega_p: beyond ~0.12*omega_p the
    surface-scattering term starts to raise |sigma_d| slightly above the
    bulk value, so the specular film no longer reflects more than the
    diffuse one and the qualitative ordering the presets exist to show
    breaks down (at reflectivities below 1e-2, where plotted curves sit
    on the axis anyway).
    """
    sodium = sodium_preset()
    if name == "fig1":
        return [
            SweepSpec(
                swept="theta",
                grid=GridSpec(0.0, math.pi / 2, 200),
                material=sodium,
                d=1e-7,
                omega_frac=1e-2,
                p=0.5,
            )
        ]
    if name == "fig2":
        return [
            SweepSpec(
                swept="d",
                grid=GridSpec(1e-7, 1e-6, 200),
                material=sodium,
                theta=0.0,
                omega_frac=1e-1,
                p=0.5,
            )
        ]
    if name == "fig3":
        return [
            SweepSpec(
                swept="p",
                grid=GridSpec(0.0, 1.0, 200),
                material=sodium,
                theta=0.0,
                omega_frac=1e-1,
                d=1e-7,
            )
        ]
    if name in ("fig4", "fig5"):
        p = 0.0 if name == "fig4" else 1.0
        return [
            SweepSpec(
                swept="omega",
                grid=GridSpec(1e-3, 1e-1, 200, scale="log"),
                material=sodium,
                theta=0.0,
                d=d,
                p=p,
                label=f"d{d:.0e}",
            )
            for d in (1e-7, 2e-7, 3e-7)
        ]
    raise ValueError(f"unknown figure preset {name!r}; choose from {FIGURE_NAMES}")


def _write_lines(destination, lines: Sequence[str]) -> None:
    path = Path(destination)
    try:
        path.write_text("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"failed to write CSV to {path}: {exc}") from exc


def emit_csv(rows: Iterable[SweepRow], destination) -> None:
    """Write header plus rows, numbers in full-precision scientific notation."""
    rows = list(rows)
    if not rows:
        raise ValueError("no rows to emit")
    lines = [CSV_HEADER]
    for r in rows:
        values = (
            r.swept_value, r.T, r.R, r.A, r.re_sigma_d, r.im_sigma_d,
            r.re_w, r.im_w, r.kd, r.quad_err,
        )
        lines.append(",".join([r.swept_name] + [f"{v:.17e}" for v in values]))
    _write_lines(destination, lines)


def emit_validation_csv(rows: Iterable[ValidationRow], destination) -> None:
    """Validation report: the sweep schema plus the deviation columns."""
    rows = list(rows)
    if not rows:
        raise ValueError("no rows to emit")
    lines = [VALIDATION_CSV_HEADER]
    for r in rows:
        values = (
            r.d, r.T, r.R, r.A, r.re_sigma_d, r.im_sigma_d, r.re_w, r.im_w,
            r.kd, r.quad_err, r.omega_over_omega_p, r.abs_dT, r.abs_dR,
            r.abs_dA, r.d_over_delta,
        )
        lines.append(",".join(["d"] + [f"{v:.17e}" for v in values]))
    _write_lines(destination, lines)
