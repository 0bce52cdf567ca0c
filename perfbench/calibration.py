"""A fixed calibration kernel that measures how fast the machine is right now.

The benchmark host is shared, and its speed drifts by 10-25 % over tens of
seconds; wall time and CPU time both move with it.  ``kernel`` does a fixed
amount of the kind of work metalfilm spends its time on:

- a small adaptive bisection loop on 31-node panels: complex ``exp``,
  products with weight vectors, ``argsort`` and ``concatenate`` on arrays of
  a few hundred elements;
- per-row Python: complex arithmetic, a frozen dataclass per row and
  ``.17e`` formatting.

It shares no code with the package, so a change to the package does not
move it, while a change in the machine's speed moves it about as much as it
moves a request: within 2-3 % for sweep, theta and validate requests on a
shared 2-vCPU host whose speed varied by +-25 %.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

#: kernel time, s, that scaled times refer to
REFERENCE_S = 5.0e-3


_NODES = np.cos(np.linspace(0.0, np.pi, 31))
_WEIGHTS = np.full(31, 1.0 / 31.0)
_EMBEDDED = np.where(np.arange(31) % 2 == 1, 2.0 / 31.0, 0.0)


@dataclass(frozen=True)
class _Row:
    a: float
    b: float
    c: float
    d: float


def _bisect(w: complex) -> float:
    lefts = np.linspace(0.0, 1.0, 9)[:-1]
    rights = lefts + 0.125
    total = 0.0
    for _ in range(6):
        half = 0.5 * (rights - lefts)
        x = 0.5 * (lefts + rights)[:, None] + half[:, None] * _NODES[None, :]
        with np.errstate(all="ignore"):
            e = np.exp(-w / x)
            y = (x - x**3) * (1.0 - e) / (1.0 - 0.5 * e)
        value = half * (y @ _WEIGHTS)
        err = np.abs(value - half * (y @ _EMBEDDED))
        order = np.argsort(err)[::-1]
        n = min(int(np.searchsorted(np.cumsum(err[order]), 0.5 * err.sum())) + 1, 8)
        split = order[:n]
        keep = np.ones(len(lefts), dtype=bool)
        keep[split] = False
        mids = 0.5 * (lefts[split] + rights[split])
        lefts = np.concatenate([lefts[keep], lefts[split], mids])
        rights = np.concatenate([rights[keep], mids, rights[split]])
        total += complex(value.sum()).real
    return total


def kernel() -> float:
    """Run the fixed work once; returns its wall time in seconds."""
    t0 = time.perf_counter()
    total = sum(_bisect(0.05 - 2.0j) for _ in range(4))
    rows = []
    for i in range(300):
        z = complex(total, -1.0 - i) / (1.0 + i)
        b = 2.0 * math.pi * z / math.cos(i * 1e-3)
        den = abs(1.0 + b) ** 2
        rows.append(_Row(1.0 / den, abs(b) ** 2 / den, 2.0 * b.real / den, z.imag))
    "\n".join(",".join(f"{v:.17e}" for v in (r.a, r.b, r.c, r.d)) for r in rows)
    return time.perf_counter() - t0


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the reference speed, from the kernel times just before and after."""
    return seconds * REFERENCE_S / (0.5 * (before + after))
