"""Seeded request generator for the metalfilm benchmark workloads.

A workload is a cycle of request kinds; each request is one ``metalfilm``
CLI invocation (``sweep`` or ``validate``) with fresh random inputs drawn
from a ``numpy`` generator seeded by the workload seed.  The program sees
only the generated ``argv``.

The conductivity layer memoises the kernel integral on ``(w, p, tol)``, so
a repeated key would time the cache instead of the quadrature.  Every
``RequestStream`` therefore shares a ``seen`` set with the other streams of
its process and redraws a request whose p < 1 keys overlap an earlier
request.  Keys use ``w`` rounded to 12 significant digits (computed here,
not by the package), so an exact repeat always collides and is redrawn.
Within one request keys may repeat on purpose: a theta sweep at p < 1
needs one integral for all of its points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TOL = 1e-10

#: sodium, as the ``--material sodium`` preset defines it: omega_p (rad/s),
#: v_F (cm/s), nu (1/s).  Kept here so the checks share no code with the package.
SODIUM = (6.5e15, 8.52e7, 6.5e12)


@dataclass(frozen=True)
class Request:
    """One CLI request plus what the checks need to know about its rows.

    ``argv`` lacks ``--out``.  The point arrays hold, per expected CSV row
    and in row order, the film parameters the program is asked to use.
    """

    kind: str
    argv: tuple[str, ...]
    material: tuple[float, float, float]
    swept_name: str
    swept: np.ndarray
    d: np.ndarray
    theta: np.ndarray
    omega_frac: np.ndarray
    p: np.ndarray

    @property
    def points(self) -> int:
        return len(self.swept)

    @property
    def validate(self) -> bool:
        return self.argv[0] == "validate"


def complex_thickness(material, d, omega_frac):
    """w = (d/l)(1 - i omega tau), elementwise."""
    omega_p, v_f, nu = material
    return (np.asarray(d) * nu / v_f) * (1.0 - 1j * np.asarray(omega_frac) * omega_p / nu)


def regime(w: complex) -> str:
    """Quadrature regime of one kernel integral, by its complex thickness."""
    if abs(w) < 1e-2:
        return "small_w"
    if w.real >= 1.0:
        return "thick"
    if abs(w.imag) >= 10.0 * w.real:
        return "oscillatory"
    return "moderate"


REGIMES = ("small_w", "thick", "oscillatory", "moderate")


def _num(x: float) -> str:
    return repr(float(x))


def _uniform(u, lo, hi):
    return lo + (hi - lo) * next(u)


def _loguniform(u, lo, hi):
    return math.exp(_uniform(u, math.log(lo), math.log(hi)))


def _grid(lo, hi, count, scale):
    if scale == "log":
        return np.geomspace(lo, hi, count)
    return np.linspace(lo, hi, count)


def _material_argv(material):
    if material == SODIUM:
        return ("--material", "sodium")
    omega_p, v_f, nu = material
    return ("--omega-p", _num(omega_p), "--v-f", _num(v_f), "--nu", _num(nu))


def _sweep(kind, material, swept, lo, hi, count, scale, fixed):
    """A ``sweep`` request; ``fixed`` holds the three parameters not swept."""
    grid = _grid(lo, hi, count, scale)
    name = "omega_over_omega_p" if swept == "omega_frac" else swept
    flag = {"omega_frac": "omega"}.get(swept, swept)
    argv = ["sweep", "--swept", flag, "--min", _num(lo), "--max", _num(hi),
            "--count", str(count), "--scale", scale, "--tol", _num(TOL)]
    for key, value in fixed.items():
        argv += ["--" + key.replace("_", "-"), _num(value)]
    argv += _material_argv(material)
    cols = {key: np.full(count, float(value)) for key, value in fixed.items()}
    cols[swept] = grid
    return Request(kind, tuple(argv), material, name, grid, **cols)


def _validate(kind, material, d_min, d_max, d_count, fracs, theta):
    ratio = (d_max / d_min) ** (1.0 / (d_count - 1))
    ds = np.array([d_min * ratio**i for i in range(d_count)])
    n = d_count * len(fracs)
    argv = ("validate", "--d-min", _num(d_min), "--d-max", _num(d_max),
            "--d-count", str(d_count), "--omega-fracs", ",".join(_num(f) for f in fracs),
            "--theta", _num(theta), "--tol", _num(TOL)) + _material_argv(material)
    return Request(kind, argv, material, "d", np.tile(ds, len(fracs)), np.tile(ds, len(fracs)),
                   np.full(n, float(theta)), np.repeat(np.array(fracs, dtype=float), d_count),
                   np.ones(n))


def _explicit_material(u, nu_lo, nu_hi):
    return (_loguniform(u, 1e15, 1e16), _uniform(u, 5e7, 2e8), _loguniform(u, nu_lo, nu_hi))


# --- diffuse_oscillatory: sodium, p in [0, 0.9), omega*tau in [10, 100], d in [1e-7, 1e-6] cm

def _fig2_shape(u):
    d0 = _loguniform(u, 1e-7, 4e-7)
    d1 = _uniform(u, d0 + 2e-7, 1e-6)
    fixed = {"theta": _uniform(u, 0.0, 1.2), "omega_frac": _loguniform(u, 1e-2, 1e-1),
             "p": _uniform(u, 0.0, 0.9)}
    return _sweep("fig2_d", SODIUM, "d", d0, d1, 20, "linear", fixed)


def _fig3_shape(u):
    p0 = _uniform(u, 0.0, 0.3)
    p1 = _uniform(u, 0.6, 0.9)
    fixed = {"d": _loguniform(u, 1e-7, 1e-6), "theta": _uniform(u, 0.0, 1.2),
             "omega_frac": _loguniform(u, 1e-2, 1e-1)}
    return _sweep("fig3_p", SODIUM, "p", p0, p1, 24, "linear", fixed)


def _fig4_shape(u):
    f0 = _loguniform(u, 1e-2, 2e-2)
    f1 = _loguniform(u, 5e-2, 1e-1)
    fixed = {"d": _loguniform(u, 1e-7, 3e-7), "theta": _uniform(u, 0.0, 1.2), "p": 0.0}
    return _sweep("fig4_omega", SODIUM, "omega_frac", f0, f1, 80, "log", fixed)


# --- diffuse_edges: p < 1 at small |w| (long mean free path) and in thick films

def _small_w_d(u):
    m = _explicit_material(u, 1e9, 1e11)
    omega_p, v_f, nu = m
    omega_tau = _loguniform(u, 1e-2, 1.0)
    stretch = math.hypot(1.0, omega_tau)
    l = v_f / nu
    w0 = _loguniform(u, 1e-6, 1e-4)
    w1 = min(w0 * _loguniform(u, 10.0, 100.0), 1e-2)
    fixed = {"theta": _uniform(u, 0.0, 1.2), "omega_frac": omega_tau * nu / omega_p,
             "p": _uniform(u, 0.0, 0.9)}
    return _sweep("small_w_d", m, "d", w0 * l / stretch, w1 * l / stretch, 120, "log", fixed)


def _small_w_p(u):
    m = _explicit_material(u, 1e9, 1e11)
    omega_p, v_f, nu = m
    omega_tau = _loguniform(u, 1e-2, 1.0)
    abs_w = _loguniform(u, 1e-6, 1e-2)
    fixed = {"d": abs_w * (v_f / nu) / math.hypot(1.0, omega_tau), "theta": _uniform(u, 0.0, 1.2),
             "omega_frac": omega_tau * nu / omega_p}
    return _sweep("small_w_p", m, "p", _uniform(u, 0.0, 0.2), _uniform(u, 0.7, 0.9),
                  120, "linear", fixed)


def _thick_d(u):
    l = SODIUM[1] / SODIUM[2]
    re0 = _loguniform(u, 1.0, 10.0)
    re1 = _loguniform(u, 20.0, 100.0)
    fixed = {"theta": _uniform(u, 0.0, 1.2), "omega_frac": _loguniform(u, 1e-5, 1e-3),
             "p": _uniform(u, 0.0, 0.9)}
    return _sweep("thick_d", SODIUM, "d", re0 * l, re1 * l, 480, "log", fixed)


def _thick_omega(u):
    l = SODIUM[1] / SODIUM[2]
    fixed = {"d": _loguniform(u, 1.0, 100.0) * l, "theta": _uniform(u, 0.0, 1.2),
             "p": _uniform(u, 0.0, 0.9)}
    return _sweep("thick_omega", SODIUM, "omega_frac", _loguniform(u, 1e-5, 1e-4),
                  _loguniform(u, 3e-4, 1e-3), 480, "log", fixed)


# --- specular_large: thousands of points per request, almost no quadrature

def _specular_d(u):
    m = SODIUM if next(u) < 0.5 else _explicit_material(u, 1e11, 1e13)
    d0 = _loguniform(u, 1e-8, 1e-7)
    fixed = {"theta": _uniform(u, 0.0, 1.2), "omega_frac": _loguniform(u, 1e-3, 1e-1), "p": 1.0}
    return _sweep("specular_d", m, "d", d0, d0 * _loguniform(u, 10.0, 1000.0), 2000, "log", fixed)


def _specular_omega(u):
    m = SODIUM if next(u) < 0.5 else _explicit_material(u, 1e11, 1e13)
    fixed = {"d": _loguniform(u, 1e-7, 1e-6), "theta": _uniform(u, 0.0, 1.2), "p": 1.0}
    return _sweep("specular_omega_10k", m, "omega_frac", _loguniform(u, 1e-4, 1e-3),
                  _loguniform(u, 1e-1, 5e-1), 10_000, "log", fixed)


def _theta_diffuse(u):
    fixed = {"d": _loguniform(u, 1e-7, 1e-6), "omega_frac": _loguniform(u, 1e-3, 1e-1),
             "p": _uniform(u, 0.0, 0.9)}
    return _sweep("theta_p_lt_1", SODIUM, "theta", 0.0, _uniform(u, 1.0, math.pi / 2),
                  2000, "linear", fixed)


# --- validate_report: thin film against the exact slab, p = 1

def _validate_sodium(u):
    fracs = sorted(_loguniform(u, 1e-3, 3e-1) for _ in range(4))
    return _validate("validate_sodium", SODIUM, _loguniform(u, 1e-9, 1e-8),
                     _loguniform(u, 1e-5, 1e-4), 250, fracs, _uniform(u, 0.0, 1.2))


def _validate_explicit(u):
    fracs = sorted(_loguniform(u, 1e-3, 3e-1) for _ in range(4))
    return _validate("validate_explicit", _explicit_material(u, 1e11, 1e13),
                     _loguniform(u, 1e-9, 1e-8), _loguniform(u, 1e-5, 1e-4), 250, fracs,
                     _uniform(u, 0.0, 1.2))


#: request kinds per workload, issued in this order, round-robin.
WORKLOADS = {
    "diffuse_oscillatory": (_fig2_shape, _fig3_shape, _fig4_shape),
    "diffuse_edges": (_small_w_d, _small_w_p, _thick_d, _thick_omega),
    "specular_large": (_specular_d, _theta_diffuse, _specular_d, _specular_omega),
    "validate_report": (_validate_sodium, _validate_explicit),
}


def cycle_length(workload: str) -> int:
    return len(WORKLOADS[workload])


def request_keys(req: Request) -> set:
    """Hashes of the cache keys ``(w, p, tol)`` of the request's p < 1 points.

    w and p are rounded to 12 significant digits first.  Equal keys give
    equal hashes, so a repeat is always caught; a hash collision of two
    different keys only causes a needless redraw.
    """
    diffuse = req.p < 1.0
    if not diffuse.any():
        return set()
    w = complex_thickness(req.material, req.d[diffuse], req.omega_frac[diffuse])
    return {hash((float(f"{z.real:.11e}"), float(f"{z.imag:.11e}"), float(f"{p:.11e}"), TOL))
            for z, p in zip(w.tolist(), req.p[diffuse].tolist())}


#: uniform numbers one request of any kind draws at most
DIMS = 10


class _Kronecker:
    """Randomly shifted R_d sequence: x_n = frac(shift + n alpha).

    A low-discrepancy sequence (Roberts' generalisation of the golden ratio
    to d dimensions), so any run of consecutive requests of one kind covers
    the parameter ranges evenly and the cost mix of a run barely depends on
    the seed; the seed sets the shift.
    """

    def __init__(self, dims, rng):
        phi = 2.0
        for _ in range(100):
            phi = (1.0 + phi) ** (1.0 / (dims + 1))
        self.alpha = np.array([phi ** -(j + 1) for j in range(dims)]) % 1.0
        self.shift = rng.random(dims)
        self.n = 0

    def __next__(self):
        self.n += 1
        return iter(((self.shift + self.n * self.alpha) % 1.0).tolist())


class RequestStream:
    """Endless, seeded sequence of requests for one workload.

    ``stream`` separates independent sequences drawn in one process (the
    timed loop, warm-up, the untraced half of a traced run); ``seen`` is the
    key set shared by all streams of the process.
    """

    def __init__(self, workload: str, seed: int, stream: int = 0, seen: set | None = None):
        self.kinds = WORKLOADS[workload]
        rng = np.random.default_rng([seed, stream])
        self.draws = [_Kronecker(DIMS, rng) for _ in self.kinds]
        self.seen = set() if seen is None else seen
        self.count = 0

    def __next__(self) -> Request:
        kind = self.count % len(self.kinds)
        self.count += 1
        while True:
            req = self.kinds[kind](next(self.draws[kind]))
            keys = request_keys(req)
            if self.seen.isdisjoint(keys):
                self.seen.update(keys)
                return req
