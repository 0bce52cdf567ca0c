"""Parameter sweeps over angle, thickness, specularity and frequency.

A sweep varies exactly one of {theta, d, p, omega} over a grid while the
other film parameters stay fixed, evaluating the conductivity and the
(T, R, A) triple over the whole grid as numpy arrays and emitting the rows
as CSV.  Frequencies are specified and reported as fractions of the plasma
frequency, which keeps the output files material-independent.  Evaluation
is deterministic: the same spec always produces byte-identical CSV.

Every CSV number is the text '%.17e' gives it.  The emitters take the
rows 512 at a time and get that text for the whole block from one numpy
kernel (an exact double-double scaling by a power of ten, then the
digits of the rounded integer).  The few values it cannot settle --
non-finite and subnormal values, magnitudes outside about
(1e-280, 1e290), and values a hair from a rounding tie -- are formatted
by Python itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

from .conductivity import _check_w_abs, complex_thickness, drude_conductivity, sigma_d
from .materials import C_LIGHT, FilmSetup, MaterialParams, _require, sodium_preset
from .optics import tra_for_film
from .quadrature import _TOL, _check_tol
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


@dataclass(frozen=True)
class GridSpec:
    """Evaluation grid for the swept parameter."""

    min: float
    max: float
    count: int
    scale: str = "linear"

    def __post_init__(self) -> None:
        _require(self.count >= 2, "count must be >= 2", self.count)
        _require(self.scale in ("linear", "log"), "scale must be 'linear' or 'log'", self.scale)
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
    and both grid ends are checked through FilmSetup on construction, and
    so is |w| at both grid ends (it grows with d and omega and does not
    depend on theta or p, so the ends bound it over the whole grid); an
    invalid spec fails before any point is evaluated.
    """

    swept: str
    grid: GridSpec
    material: MaterialParams
    d: float | None = None
    theta: float | None = None
    omega_frac: float | None = None
    p: float | None = None
    tol: float = _TOL
    label: str = ""

    def __post_init__(self) -> None:
        _require(self.swept in _SWEPT_CHOICES, f"swept must be one of {_SWEPT_CHOICES}", self.swept)
        fixed = {"d": self.d, "theta": self.theta, "omega_frac": self.omega_frac, "p": self.p}
        swept_field = "omega_frac" if self.swept == "omega" else self.swept
        for name, value in fixed.items():
            if name == swept_field:
                if value is not None:
                    raise ValueError(f"{name} is swept and must not also be fixed")
            elif value is None:
                raise ValueError(f"fixed value for {name} is required")
        _check_tol(self.tol)
        for value in (self.grid.min, self.grid.max):
            s = self.setup_for(value)
            _check_w_abs(complex_thickness(self.material, s.d, s.omega))

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


class SweepRow(NamedTuple):
    """One evaluated grid point; the fields are the CSV columns in order."""

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


CSV_HEADER = ",".join(SweepRow._fields)
#: a validation row's d is its swept value, and its theta is not written
VALIDATION_CSV_HEADER = ",".join(SweepRow._fields[:2] + ValidationRow._fields[1:-1])


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Evaluate the grid in order; deterministic for a given spec.

    The Drude value, w, kd and (T, R, A) are array expressions over the
    grid.  Points with p < 1 take sigma_d from one scalar evaluation per
    distinct (d, omega, p), made in grid order and copied to every row
    that shares it, so a theta sweep needs a single kernel integral.  A
    quadrature that did not converge shows as a large quad_err value
    instead of aborting the run.
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
                res = sigma_d(m, spec.setup_for(values[i]), spec.tol)
                found[key] = res.sigma_d, res.quad_error_estimate
        sigma[diffuse], quad_err[diffuse] = zip(*(found[key] for key in keys))

    coeffs = tra_for_film(sigma, d, theta)
    swept_name = "omega_over_omega_p" if spec.swept == "omega" else spec.swept
    columns = (
        values,
        coeffs.T.tolist(), coeffs.R.tolist(), coeffs.A.tolist(),
        sigma.real.tolist(), sigma.imag.tolist(), w.real.tolist(), w.imag.tolist(),
        (omega * d / C_LIGHT).tolist(), quad_err.tolist(),
    )
    return [SweepRow(swept_name, *row) for row in zip(*columns)]


#: sweep presets named after the bundled figure datasets:
#: name -> (swept parameter, grid, fixed values)
_FIGURES = {
    "fig1": ("theta", GridSpec(0.0, math.pi / 2, 200), dict(d=1e-7, omega_frac=1e-2, p=0.5)),
    "fig2": ("d", GridSpec(1e-7, 1e-6, 200), dict(theta=0.0, omega_frac=1e-1, p=0.5)),
    "fig3": ("p", GridSpec(0.0, 1.0, 200), dict(theta=0.0, omega_frac=1e-1, d=1e-7)),
    "fig4": ("omega", GridSpec(1e-3, 1e-1, 200, scale="log"), dict(theta=0.0, p=0.0)),
    "fig5": ("omega", GridSpec(1e-3, 1e-1, 200, scale="log"), dict(theta=0.0, p=1.0)),
}
#: the frequency-sweep presets write one series per thickness, cm
_SERIES_D = (1e-7, 2e-7, 3e-7)
FIGURE_NAMES = tuple(_FIGURES)


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
    if name not in _FIGURES:
        raise ValueError(f"unknown figure preset {name!r}; choose from {FIGURE_NAMES}")
    swept, grid, fixed = _FIGURES[name]
    if swept != "omega":
        return [SweepSpec(swept, grid, sodium_preset(), **fixed)]
    return [
        SweepSpec(swept, grid, sodium_preset(), d=d, label=f"d{d:.0e}", **fixed)
        for d in _SERIES_D
    ]


# -- CSV numbers ---------------------------------------------------------
#
# Every number is written as '%.17e' writes it: 18 correctly rounded
# significant digits, ties to even.  _format_e17 gets those digits for a
# whole float64 array at once.  With E = floor(log10|x|), the scaled value
# y = |x| * 10**(17 - E) lies in [1e17, 1e18) and its nearest integer N
# holds the digits.  y is formed as a double-double (Dekker's exact
# product against 10**k stored as a hi/lo pair), accurate to about 1e-13
# in absolute terms, so it can round the wrong way only when its fraction
# lies that close to one half; a fraction within 1e-6 of one half goes to
# the fallback.  For 0 <= k <= 22, 10**k is a double and the product is
# exact, so exact ties round half to even here.  The few values this
# cannot settle go to _percent_e17, which is Python's own '%.17e'.

#: |x| in this open range takes the array path (no subnormal or overflow
#: in the product); the 10**k table covers its exponents with one to spare
_FAST_MIN, _FAST_MAX = 1e-280, 1e290
_POW10_MIN, _POW10_MAX = -275, 300
#: Veltkamp's constant 2**27 + 1 splits a double into two 26-bit halves
_SPLIT = 134217729.0
#: one number slot: sign, 18 digits with the point, 'e', exponent sign
#: and up to three exponent digits; unused bytes stay NUL
_SLOT = 25
#: rows per formatted block: bounds the buffers and kernel temporaries the
#: emitters hold (about 2 kB per row of the validation report); 1024
#: formatted about 5 % faster but held twice as much
_BLOCK_ROWS = 512


def _pow10_table() -> np.ndarray:
    """Rows (hi, hi's upper half, hi's lower half, lo) with 10**k = hi + lo.

    hi and lo are both correctly rounded; integer arithmetic gives them
    exactly.
    """
    rows = []
    for k in range(_POW10_MIN, _POW10_MAX + 1):
        power = 10**abs(k)
        if k >= 0:
            hi = float(power)
            lo = float(power - int(hi))
        else:
            hi = 1 / power
            num, den = hi.as_integer_ratio()
            lo = (den - num * power) / (den * power)
        c = _SPLIT * hi
        upper = c - (c - hi)
        rows.append((hi, upper, hi - upper, lo))
    return np.array(rows)


_POW10 = _pow10_table()
#: "+05", "-324", ... for every decimal exponent of a double, NUL-padded
_EXP_MIN = -324
_EXPONENTS = np.frombuffer(b"".join((b"%+03d" % e).ljust(4, b"\0")
                                    for e in range(_EXP_MIN, 309)), np.uint8).reshape(-1, 4)


def _scaled(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * 10**k as hi + lo, with hi the double nearest the pair's sum.

    Formed in place, to keep a block's temporaries few; err is
    ((a_upper*b_upper - p) + a_upper*b_lower + a_lower*b_upper) + a_lower*b_lower,
    the exact error of p = a*b.
    """
    b, b_upper, b_lower, b_lo = np.take(_POW10, k - _POW10_MIN, axis=0).T
    a_upper = _SPLIT * a
    a_upper -= a_upper - a
    a_lower = a - a_upper
    p = a * b
    err = a_upper * b_upper
    err -= p
    err += a_upper * b_lower
    err += a_lower * b_upper
    err += a_lower * b_lower
    t = a * b_lo
    t += err
    hi = p + t
    p -= hi
    t += p
    return hi, t


def _ascii_digits(n: np.ndarray) -> np.ndarray:
    """The 18 decimal digits of each n in [0, 10**18) as (len(n), 18) ASCII.

    n is cut into three 8-digit parts held in 64-bit words.  Each word is
    split in place into two 4-digit lanes, then four 2-digit lanes, then
    eight 1-digit lanes (v // 100 and v // 10 as exact multiply-and-shift
    for v < 10**4 and v < 100), so its 8 bytes become the digits in order.
    """
    x = np.empty((n.size, 3), np.uint64)
    rest, x[:, 2] = np.divmod(n, 10**8)
    x[:, 0], x[:, 1] = np.divmod(rest, 10**8)
    _split_lanes(x, x // np.uint64(10**4), 10**4, 32)
    _split_lanes(x, (x * np.uint64(5243)) >> np.uint64(19) & np.uint64(0x0000007F0000007F),
                 100, 16)
    _split_lanes(x, (x * np.uint64(103)) >> np.uint64(10) & np.uint64(0x000F000F000F000F),
                 10, 8)
    x |= np.uint64(0x3030303030303030)
    return x.astype("<u8", copy=False).view(np.uint8)[:, 6:]


def _split_lanes(x: np.ndarray, upper: np.ndarray, divisor: int, width: int) -> None:
    """Turn each lane v of x into the lanes v // divisor, v % divisor.

    upper holds v // divisor lane by lane; the quotient stays in the low
    half (the earlier digits) and the remainder moves up by width bits.
    """
    x -= upper * np.uint64(divisor)
    x <<= np.uint64(width)
    x |= upper


def _percent_e17(values: np.ndarray) -> np.ndarray:
    """Python's own '%.17e' of each value, as NUL-padded slots."""
    out = np.zeros((values.size, _SLOT), np.uint8)
    for row, v in zip(out, values.tolist()):
        text = ("%.17e" % v).encode()
        row[:len(text)] = np.frombuffer(text, np.uint8)
    return out


def _decimal(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(n, e, slow): |x| rounded half to even as n * 10**(e - 17).

    n has 18 digits (n = e = 0 for a zero); slow marks the values whose
    n and e this cannot vouch for.
    """
    a = np.abs(x)
    fast = (a > _FAST_MIN) & (a < _FAST_MAX)
    a[~fast] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)
    hi, lo = _scaled(a, 17 - e)
    # log10 can miss the exponent by one next to a power of ten
    step = ((hi > 1e18) | ((hi == 1e18) & (lo >= 0))).astype(np.int64)
    step -= (hi < 1e17) | ((hi == 1e17) & (lo < 0))
    moved = np.flatnonzero(step)
    if moved.size:
        e[moved] += step[moved]
        hi[moved], lo[moved] = _scaled(a[moved], 17 - e[moved])
    whole = np.floor(lo)
    lo -= whole
    n = hi.astype(np.int64) + whole.astype(np.int64)
    n += (lo > 0.5) | ((lo == 0.5) & (n & 1 == 1))
    # a product against an inexact 10**k may sit on either side of a tie
    slow = ((e > 17) | (e < -5)) & (np.abs(lo - 0.5) < 1e-6)
    slow |= ~fast & (x != 0.0)
    carry = n == 10**18
    n[carry] = 10**17
    e += carry
    slow |= (n < 10**17) | (n >= 10**18)
    zero = x == 0.0
    n[zero] = 0
    e[zero] = 0
    return n, e, slow


def _format_e17(x: np.ndarray) -> np.ndarray:
    """'%.17e' % v for every v of the 1-D float64 array x, as (n, 25) uint8.

    Each row holds the ASCII text with NUL bytes in the unused places
    (the sign of a positive value, the third digit of a two-digit
    exponent); dropping the NULs gives the exact text.
    """
    n, e, slow = _decimal(x)
    out = np.zeros((x.size, _SLOT), np.uint8)
    out[:, 0] = np.where(np.signbit(x), ord("-"), 0)
    digits = _ascii_digits(n)
    out[:, 1] = digits[:, 0]
    out[:, 2] = ord(".")
    out[:, 3:20] = digits[:, 1:]
    out[:, 20] = ord("e")
    out[:, 21:] = np.take(_EXPONENTS, e - _EXP_MIN, axis=0)
    if slow.any():
        out[slow] = _percent_e17(x[slow])
    return out


def _write_csv(rows: Iterable, destination, header: str, name: str | None) -> None:
    """Header plus one line per row: a name, then ',' and each number.

    A row is its swept name followed by its numbers or, when ``name`` is
    given, just the numbers, written after that fixed name; the header
    gives the number of columns.  Rows are formatted ``_BLOCK_ROWS`` at a
    time.
    """
    count = header.count(",")
    rows = iter(rows)
    block = list(islice(rows, _BLOCK_ROWS))
    if not block:
        raise ValueError("no rows to emit")
    path = Path(destination)
    try:
        with open(path, "wb") as f:
            f.write(header.encode() + b"\n")
            while block:
                f.write(_format_block(block, name, count))
                block = list(islice(rows, _BLOCK_ROWS))
    except OSError as exc:
        raise OSError(f"failed to write CSV to {path}: {exc}") from exc


def _format_block(block: list, name: str | None, count: int) -> bytes:
    """The CSV lines of a block of rows, built in one NUL-padded buffer."""
    columns = list(zip(*block))
    names = columns.pop(0) if name is None else (name,)
    position = {label: i for i, label in enumerate(dict.fromkeys(names))}
    prefix = np.array([str(label).encode() for label in position])  # NUL-padded
    prefix = prefix.view(np.uint8).reshape(len(position), -1)
    if len(position) > 1:
        prefix = prefix[[position[label] for label in names]]
    width = prefix.shape[1]
    buf = np.zeros((len(block), width + count * (_SLOT + 1) + 1), np.uint8)
    buf[:, :width] = prefix
    cells = buf[:, width:-1].reshape(len(block), count, _SLOT + 1)
    cells[:, :, 0] = ord(",")
    values = np.array(columns[:count], dtype=float).T
    cells[:, :, 1:] = _format_e17(values.ravel()).reshape(len(block), count, _SLOT)
    buf[:, -1] = ord("\n")
    return buf[buf != 0].tobytes()


def emit_csv(rows: Iterable[SweepRow], destination) -> None:
    """Write header plus rows, numbers in full-precision scientific notation."""
    _write_csv(rows, destination, CSV_HEADER, None)


def emit_validation_csv(rows: Iterable[ValidationRow], destination) -> None:
    """Validation report: the sweep schema plus the deviation columns.

    A validation row's swept name is the literal d and its swept value is
    d; theta, the last field, is not a column.
    """
    _write_csv(rows, destination, VALIDATION_CSV_HEADER, "d")
