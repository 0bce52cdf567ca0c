"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with  pytest tests/test_acceptance.py -v  for the per-criterion
pass/fail report (add -rA to see the printed values on passing tests).
"""

import math

import numpy as np

from metalfilm import (
    C_LIGHT,
    FilmSetup,
    ImpedancePair,
    LocalSlabParams,
    b_factor,
    derive_bulk,
    exact_tra,
    figure_preset,
    integrate_fuchs,
    phi_inverse,
    run_sweep,
    sigma_d,
    sodium_preset,
    tra_for_film,
    tra_from_b,
    tra_from_impedances,
)
from metalfilm.cli import main
from helpers import fuchs_integral_simpson_t


def report(criterion: str, detail: str = ""):
    print(f"ACCEPTANCE {criterion}: PASS {detail}".rstrip())


def test_c1_energy_conservation():
    """1e5 random admittances in the closed right half-plane."""
    rng = np.random.default_rng(20240901)
    n = 100_000
    mag = 10.0 ** rng.uniform(-9, 9, n)
    phase = rng.uniform(-math.pi / 2, math.pi / 2, n)
    b_values = mag * np.exp(1j * phase)
    b_values[:100] = 1j * mag[:100]  # exercise the Re(B)=0 boundary
    worst_sum = 0.0
    for b in b_values:
        c = tra_from_b(b)
        worst_sum = max(worst_sum, abs(c.T + c.R + c.A - 1.0))
        assert -1e-12 <= c.T <= 1.0 + 1e-12
        assert -1e-12 <= c.R <= 1.0 + 1e-12
        assert -1e-12 <= c.A <= 1.0 + 1e-12
    assert worst_sum <= 1e-12
    report("C1 energy-conservation", f"(worst |T+R+A-1| = {worst_sum:.2e})")


def test_c2_analytic_limits():
    """Non-conductive film is transparent; grazing incidence reflects."""
    transparent = tra_from_b(0j)
    assert (transparent.T, transparent.R, transparent.A) == (1.0, 0.0, 0.0)
    m = sodium_preset()
    s = FilmSetup(d=1e-7, theta=math.pi / 2 - 1e-6, omega=1e-2 * m.omega_p, p=0.5)
    grazing = tra_for_film(sigma_d(m, s).sigma_d, s.d, s.theta)
    assert grazing.R > 0.999
    report("C2 analytic-limits", f"(R at pi/2-1e-6 = {grazing.R:.6f})")


def test_c3_specular_reduction():
    """p=1 returns the bulk Drude conductivity exactly on a (d, omega) grid."""
    m = sodium_preset()
    der = derive_bulk(m)
    worst = 0.0
    for d in np.geomspace(1e-9, 1e-5, 9):
        for frac in (0.0, 1e-3, 1e-2, 1e-1, 1.0):
            s = FilmSetup(d=float(d), theta=0.0, omega=frac * m.omega_p, p=1.0)
            drude = der.sigma_0 / complex(1.0, -s.omega * der.tau)
            rel = abs(sigma_d(m, s).sigma_d - drude) / abs(drude)
            worst = max(worst, rel)
    assert worst <= 1e-14
    report("C3 specular-reduction", f"(worst relative deviation = {worst:.2e})")


# 20 fixed quadrature checkpoints; Im(w)/Re(w) = -omega*tau reaches -1e3.
CRITERION4_POINTS = [
    (complex(0.01), 0.0), (complex(0.1), 0.0), (complex(1.0), 0.0),
    (complex(10.0), 0.0), (complex(100.0), 0.0),
    (complex(0.01), 0.5), (complex(0.1), 0.3), (complex(1.0), 0.7),
    (complex(10.0), 0.9), (complex(100.0), 0.5),
    (complex(0.1, -1.0), 0.0), (complex(1.0, -10.0), 0.5),
    (complex(0.01, -1.0), 0.3), (complex(0.1, -10.0), 0.7),
    (complex(1.0, -100.0), 0.0), (complex(0.5, -50.0), 0.5),
    (complex(2.0, -200.0), 0.3), (complex(1.0, -1000.0), 0.0),
    (complex(1.0, -1000.0), 0.5), (complex(2.0, -2000.0), 0.7),
]


def test_c4_quadrature_vs_brute_force():
    """Adaptive integral matches a 1e6-panel Simpson oracle to 1e-8 relative."""
    assert len(CRITERION4_POINTS) == 20
    assert max(abs(w.imag) / w.real for w, _ in CRITERION4_POINTS) == 1000.0
    worst = 0.0
    for w, p in CRITERION4_POINTS:
        oracle = fuchs_integral_simpson_t(w, p, panels=10**6)
        value, _ = integrate_fuchs(w, p)
        worst = max(worst, abs(value - oracle) / abs(oracle))
    assert worst <= 1e-8
    report("C4 quadrature-correctness", f"(worst relative difference = {worst:.2e})")


def test_c5_thick_film_asymptote():
    """w*phi_inverse approaches 1 - 3(1-p)/(8w) for thick films."""
    worst = 0.0
    for w in (50.0, 75.0, 100.0, 200.0, 500.0):
        for p in (0.0, 0.3, 0.7):
            got = w * phi_inverse(complex(w), p)
            asym = 1.0 - 3.0 * (1.0 - p) / (8.0 * w)
            worst = max(worst, abs(got - asym))
    assert worst <= 1e-4
    report("C5 thick-film-asymptote", f"(worst |deviation| = {worst:.2e})")


def test_c6_oracle_equivalence():
    """Thin-film route vs exact slab at p=1 inside the validity domain."""
    m = sodium_preset()
    omega = 1e-2 * m.omega_p
    details = []
    for d, tol in ((1e-7, 0.01), (1e-9, 1e-4)):
        s = FilmSetup(d=d, theta=0.0, omega=omega, p=1.0)
        sig = sigma_d(m, s).sigma_d
        thin = tra_for_film(sig, d, 0.0)
        exact = exact_tra(LocalSlabParams(sigma_local=sig, d=d, theta=0.0, omega=omega))
        dev = max(abs(thin.T - exact.T), abs(thin.R - exact.R), abs(thin.A - exact.A))
        assert dev < tol
        details.append(f"d={d:g}: {dev:.2e} < {tol:g}")
    report("C6 oracle-equivalence", f"({'; '.join(details)})")


def test_c7_fig1_absorption_peak():
    """Angle sweep: coefficients change near grazing; A peaks close to pi/2."""
    (spec,) = figure_preset("fig1")
    rows = run_sweep(spec)
    A = np.array([r.A for r in rows])
    theta = np.array([r.swept_value for r in rows])
    i = int(A.argmax())
    assert 0 < i < len(A) - 1  # interior maximum
    assert theta[i] > math.pi / 4  # in the upper half, toward grazing
    assert A[i] > A[0]
    report("C7 fig1-shape", f"(A max {A[i]:.4f} at theta = {theta[i]:.4f} rad)")


def test_c7_fig2_thickness_dependence():
    """Thickness sweep: A within 20% relative, T and R each by a factor in [1.5, 3].

    The R-factor and A-variation clauses are not satisfiable by the
    model: R/T = |B|^2 forces R_ratio*T_ratio = (|Bance|_ratio)^2 ~ 1e2
    over a decade of d, so R grows ~50x while T halves, and A's relative
    spread is ~45% (its absolute spread on the [0, 1] scale is < 0.03,
    which is what the flat plotted curve reflects).  The assertions
    below state the criterion as written; see tests/test_sweep.py
    (TestFigureShapes.test_fig2_energy_exchange) for the physically
    faithful version of the property.
    """
    (spec,) = figure_preset("fig2")
    rows = run_sweep(spec)
    T = np.array([r.T for r in rows])
    R = np.array([r.R for r in rows])
    A = np.array([r.A for r in rows])
    t_factor = T.max() / T.min()
    r_factor = R.max() / R.min()
    a_rel_var = (A.max() - A.min()) / A.max()
    print(
        f"fig2 measured: T factor {t_factor:.3f}, R factor {r_factor:.3f}, "
        f"A relative variation {a_rel_var:.3f} (absolute {A.max() - A.min():.4f})"
    )
    assert a_rel_var < 0.20
    assert 1.5 <= t_factor <= 3.0
    assert 1.5 <= r_factor <= 3.0
    report("C7 fig2-shape")


def test_c7_fig3_specularity_monotonicity():
    """R nondecreasing and A nonincreasing in the specularity."""
    (spec,) = figure_preset("fig3")
    rows = run_sweep(spec)
    R = np.array([r.R for r in rows])
    A = np.array([r.A for r in rows])
    assert np.all(np.diff(R) >= -1e-12)
    assert np.all(np.diff(A) <= 1e-12)
    report("C7 fig3-shape", f"(R: {R[0]:.4f}->{R[-1]:.4f}, A: {A[0]:.4f}->{A[-1]:.4f})")


def test_c7_fig45_frequency_monotonicity():
    """Each R(omega) series decreases; R grows pointwise with d and with p."""
    series = {}
    for name in ("fig4", "fig5"):
        for spec in figure_preset(name):
            R = np.array([r.R for r in run_sweep(spec)])
            assert np.all(np.diff(R) <= 1e-12), f"{name} {spec.label} not monotone"
            series[(name, spec.label)] = R
    for name in ("fig4", "fig5"):
        r1 = series[(name, "d1e-07")]
        r2 = series[(name, "d2e-07")]
        r3 = series[(name, "d3e-07")]
        assert np.all(r1 <= r2 + 1e-15) and np.all(r2 <= r3 + 1e-15)
    for label in ("d1e-07", "d2e-07", "d3e-07"):
        assert np.all(series[("fig4", label)] <= series[("fig5", label)] + 1e-15)
    report("C7 fig4/fig5-shape", "(all six series monotone; R grows with d and p)")


def test_c8_route_equivalence():
    """Impedance route with the long-wavelength pair equals the admittance route."""
    rng = np.random.default_rng(321)
    worst = 0.0
    for _ in range(10_000):
        sigma = complex(10.0 ** rng.uniform(10, 18), 0)
        sigma += 1j * sigma.real * rng.uniform(-3, 3)
        d = 10.0 ** rng.uniform(-9, -5)
        theta = rng.uniform(0.0, math.pi / 2 * 0.999)
        via_z = tra_from_impedances(ImpedancePair(0j, C_LIGHT / (2 * math.pi * d * sigma)), theta)
        via_b = tra_from_b(b_factor(sigma, d, theta))
        worst = max(
            worst,
            abs(via_z.T - via_b.T),
            abs(via_z.R - via_b.R),
            abs(via_z.A - via_b.A),
        )
    assert worst <= 1e-12
    report("C8 route-equivalence", f"(worst |difference| = {worst:.2e})")


def test_c9_determinism(tmp_path):
    """Repeated figure fig1 runs produce byte-identical CSV."""
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    assert main(["figure", "fig1", "--out", str(first)]) == 0
    assert main(["figure", "fig1", "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    report("C9 determinism", f"({first.stat().st_size} identical bytes)")
