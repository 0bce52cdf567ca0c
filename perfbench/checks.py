"""Correctness checks on the CSV a request wrote, run outside the timed section.

Every row is checked for its grid value, finiteness, range, energy balance
(|T + R + A - 1| <= 1e-12), its complex thickness w and kd against values
computed here, and its (T, R, A) against the thin-film formulas applied to
the row's own sigma_d.  Validation rows are also checked against the Airy
slab formula.  One seeded row per request is checked against the E3 - E5
series: sigma_d / sigma_Drude within 1e-8 relative.

A point that fails the series check at |w| < 1e-2 with p < 1 is the known
cancellation defect of the assembly 1/w - 1.5 I/w^2 (see ROADMAP.md).  It
counts in the failed share and is listed, but it does not make the run
incorrect; any other failing point does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle
from generator import Request, complex_thickness

SWEEP_HEADER = "swept_name,swept_value,T,R,A,re_sigma_d,im_sigma_d,re_w,im_w,kd,quad_err"
VALIDATION_HEADER = SWEEP_HEADER + ",omega_over_omega_p,abs_dT,abs_dR,abs_dA,d_over_delta"

RATIO_RTOL = 1e-8
SMALL_W = 1e-2


@dataclass
class Outcome:
    """What the checks found in one request's output."""

    points: int
    rows: int = 0
    failed: int = 0
    known: list = field(default_factory=list)  # (w, p, relative error) of small-|w| misses
    problems: list = field(default_factory=list)
    oracle_points: int = 0


def _close(a, b, rtol, atol=0.0):
    return np.abs(a - b) <= rtol * np.abs(b) + atol


def check_request(req: Request, path: Path, rc, rng) -> Outcome:
    """Check the CSV at ``path`` written by ``req``, whose call returned ``rc``."""
    out = Outcome(points=req.points)
    if rc != 0:
        out.failed = req.points
        out.problems.append(f"{req.kind}: request ended with {rc!r}")
        return out
    try:
        text = path.read_text()
    except OSError as exc:
        out.failed = req.points
        out.problems.append(f"{req.kind}: no CSV ({exc})")
        return out
    lines = text.split("\n")
    header = VALIDATION_HEADER if req.validate else SWEEP_HEADER
    body = lines[1:-1]
    out.rows = len(body)
    prefix = req.swept_name + ","
    if (lines[0] != header or lines[-1] != "" or len(body) != req.points
            or not all(line.startswith(prefix) for line in body)):
        out.failed = req.points
        out.problems.append(f"{req.kind}: malformed CSV ({len(body)} rows, header {lines[0]!r})")
        return out

    ncol = header.count(",") + 1
    cols = np.loadtxt(body, delimiter=",", usecols=range(1, ncol), ndmin=2).T
    swept, T, R, A, re_s, im_s, re_w, im_w, kd, quad_err = cols[:10]
    sigma = re_s + 1j * im_s
    w = complex_thickness(req.material, req.d, req.omega_frac)
    omega = req.omega_frac * req.material[0]
    T0, R0, A0 = oracle.thin_film_tra(sigma, req.d, req.theta)

    checks = {
        "grid value": _close(swept, req.swept, 1e-12, 1e-300),
        "finite": np.isfinite(cols).all(axis=0),
        "range": ((cols[1:4] >= 0.0) & (cols[1:4] <= 1.0)).all(axis=0),
        "energy balance": np.abs(T + R + A - 1.0) <= 1e-12,
        "w": np.abs(re_w + 1j * im_w - w) <= 1e-12 * np.abs(w),
        "kd": _close(kd, omega * req.d / oracle.C_LIGHT, 1e-12),
        "quad_err": quad_err >= 0.0,
        "thin-film T,R,A": (np.abs(T - T0) <= 1e-12) & (np.abs(R - R0) <= 1e-12)
        & (np.abs(A - A0) <= 1e-12),
    }
    if req.validate:
        frac, dT, dR, dA, d_over_delta = cols[10:]
        Ts, Rs, As, im_q = oracle.slab_tra(sigma, req.d, req.theta, omega)
        checks["omega fraction"] = _close(frac, req.omega_frac, 1e-12)
        checks["slab deviation"] = ((np.abs(dT - np.abs(T - Ts)) <= 1e-10)
                                    & (np.abs(dR - np.abs(R - Rs)) <= 1e-10)
                                    & (np.abs(dA - np.abs(A - As)) <= 1e-10))
        checks["d/delta"] = _close(d_over_delta, req.d * im_q, 1e-9)

    bad = np.zeros(req.points, dtype=bool)
    for name, ok in checks.items():
        miss = ~ok
        if miss.any():
            bad |= miss
            i = int(np.argmax(miss))
            out.problems.append(f"{req.kind}: {int(miss.sum())} rows fail {name} (first at row {i})")

    i = int(rng.integers(req.points))
    p = float(req.p[i])
    expect = oracle.fuchs_ratio(complex(w[i]), p)
    got = complex(sigma[i]) / oracle.drude(req.material, float(req.omega_frac[i]))
    err = abs(got - expect) / abs(expect)
    out.oracle_points = 1
    if err > RATIO_RTOL and not bad[i]:
        if abs(w[i]) < SMALL_W and p < 1.0:
            out.known.append((complex(w[i]), p, err))
        else:
            bad[i] = True
            out.problems.append(f"{req.kind}: sigma_d/drude off by {err:.2e} at w={complex(w[i])}, p={p}")
    out.failed = int(bad.sum())
    return out
