import math
import re

import numpy as np
import pytest

import metalfilm.slab
from metalfilm import (
    C_LIGHT,
    FilmSetup,
    LocalSlabParams,
    MaterialParams,
    derive_bulk,
    exact_impedances,
    exact_tra,
    slab_wavevector,
    sodium_preset,
    thin_impedances,
    tra_for_film,
    validate_thin_film,
)
from metalfilm.slab import _impedances_from_q, default_validation_setups
from helpers import airy_slab_tra, reference_validation


def drude(m, omega):
    der = derive_bulk(m)
    return der.sigma_0 / complex(1.0, -omega * der.tau)


class TestSlabWavevector:
    def test_vacuum_normal_incidence(self):
        lp = LocalSlabParams(sigma_local=0j, d=1e-5, theta=0.0, omega=3e14)
        assert slab_wavevector(lp) == pytest.approx(3e14 / C_LIGHT, rel=1e-15)

    def test_branch_in_first_quadrant_for_passive_sigma(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            sig = complex(10.0 ** rng.uniform(10, 17), 0)
            sig += 1j * sig.real * rng.uniform(-5, 5)
            lp = LocalSlabParams(
                sigma_local=sig,
                d=1e-6,
                theta=rng.uniform(0, math.pi / 2),
                omega=10.0 ** rng.uniform(12, 16),
            )
            q = slab_wavevector(lp)
            assert q.real >= 0.0
            if q.real == 0.0:
                assert q.imag >= 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            LocalSlabParams(sigma_local=-1e14 + 0j, d=1e-6, theta=0.0, omega=1e14)
        with pytest.raises(ValueError):
            LocalSlabParams(sigma_local=1e14 + 0j, d=1e-6, theta=0.0, omega=0.0)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("sigma_local", complex(math.nan, 0.0), "sigma_local must be finite"),
            ("sigma_local", complex(math.inf, 0.0), "sigma_local must be finite"),
            ("d", math.inf, "d must be positive and finite"),
            ("omega", math.inf, "omega must be finite"),
        ],
        ids=["sigma-nan", "sigma-inf", "d-inf", "omega-inf"],
    )
    def test_non_finite_fields_rejected(self, field, value, message):
        """Not a confident mirror (0, 1, 0) from exact_tra, but a ValueError."""
        fields = dict(sigma_local=1e14 + 0j, d=1e-6, theta=0.0, omega=1e14)
        fields[field] = value
        with pytest.raises(ValueError, match=message):
            exact_tra(LocalSlabParams(**fields))


class TestExactImpedances:
    def test_vacuum_product_identity(self):
        """z1*z2 = (k/q)^2: 1 at normal incidence, 1/cos^2 obliquely."""
        normal = exact_impedances(
            LocalSlabParams(sigma_local=0j, d=1e-5, theta=0.0, omega=3e14)
        )
        assert normal.z1 * normal.z2 == pytest.approx(1.0, rel=1e-12)
        oblique = exact_impedances(
            LocalSlabParams(sigma_local=0j, d=1e-5, theta=0.7, omega=3e14)
        )
        assert oblique.z1 * oblique.z2 == pytest.approx(1.0 / math.cos(0.7) ** 2, rel=1e-12)

    def test_thin_limit_matches_thin_impedances(self):
        """qd -> 0 reproduces both members of the thin pair.

        This pins the sign of the reactive kd-term in z2: the expansion
        of (ik/q)cot(qd/2) is 2c/(-i c kd cos^2 + 4 pi d sigma).
        """
        m = sodium_preset()
        omega = 1e-2 * m.omega_p
        sig = drude(m, omega)
        d = 1e-9
        for theta in (0.0, 0.7):
            lp = LocalSlabParams(sigma_local=sig, d=d, theta=theta, omega=omega)
            exact = exact_impedances(lp)
            thin = thin_impedances(sig, d, omega, theta)
            assert abs(exact.z1 - thin.z1) / abs(exact.z1) < 1e-6
            assert abs(exact.z2 - thin.z2) / abs(exact.z2) < 1e-6

    def test_branch_flip_invariance(self):
        """Both impedances are odd in q, so q -> -q changes nothing."""
        m = sodium_preset()
        omega = 0.3 * m.omega_p
        lp = LocalSlabParams(sigma_local=drude(m, omega), d=2e-6, theta=0.4, omega=omega)
        q = slab_wavevector(lp)
        k = omega / C_LIGHT
        a = _impedances_from_q(q, k, lp.d)
        b = _impedances_from_q(-q, k, lp.d)
        assert abs(a.z1 - b.z1) / abs(a.z1) < 1e-12
        assert abs(a.z2 - b.z2) / abs(a.z2) < 1e-12

    def test_zero_q_and_zero_tan_limits(self):
        """q = 0 and an underflowing q*d/2 take the limits, not an error.

        A vacuum slab at grazing incidence with k^2 cos^2 underflowing has
        q = 0, so z1 = -i*k*d/2; a slab with q*d/2 below the smallest
        double has tan = 0, so z2 = inf.  Both are transparent.
        """
        zero_q = LocalSlabParams(sigma_local=0j, d=5e-324, theta=math.pi / 2, omega=1e-300)
        zero_tan = LocalSlabParams(sigma_local=0j, d=5e-324, theta=0.0, omega=1e10)
        assert slab_wavevector(zero_q) == 0.0
        z = exact_impedances(zero_q)
        assert z.z1 == -0.5j * (1e-300 / C_LIGHT) * 5e-324 and z.z2 == math.inf
        assert exact_impedances(zero_tan).z2 == math.inf
        for lp in (zero_q, zero_tan):
            c = exact_tra(lp)
            assert (c.T, c.R, c.A) == (1.0, 0.0, 0.0)
        both = exact_tra(LocalSlabParams(sigma_local=0j, d=5e-324, theta=np.array([math.pi / 2, 0.0]),
                                         omega=np.array([1e-300, 1e10])))
        assert both.T.tolist() == [1.0, 1.0] and both.R.tolist() == [0.0, 0.0]

    def test_array_elements_match_scalar_calls(self):
        """The array route gives each element its scalar result, to rounding.

        Both run the same numpy expressions; numpy's vector loops may round
        the last bit differently from a single-element call.
        """
        m = sodium_preset()
        omega = np.array([1e-3, 1e-2, 1e-1, 0.3]) * m.omega_p
        sigma = np.array([drude(m, o) for o in omega])
        d = np.array([1e-9, 1e-7, 1e-5, 1e-3])
        theta = np.array([0.0, 0.4, 1.2, math.pi / 2])
        arrays = LocalSlabParams(sigma_local=sigma, d=d, theta=theta, omega=omega)
        q, z, c = slab_wavevector(arrays), exact_impedances(arrays), exact_tra(arrays)
        for i in range(4):
            lp = LocalSlabParams(sigma_local=complex(sigma[i]), d=float(d[i]),
                                 theta=float(theta[i]), omega=float(omega[i]))
            zi, ci = exact_impedances(lp), exact_tra(lp)
            assert isinstance(zi.z1, complex) and isinstance(ci.T, float)
            assert abs(slab_wavevector(lp) - q[i]) <= 1e-15 * abs(q[i])
            assert abs(zi.z1 - z.z1[i]) <= 1e-15 * abs(z.z1[i])
            assert abs(zi.z2 - z.z2[i]) <= 1e-15 * abs(z.z2[i])
            for got, want in ((ci.T, c.T[i]), (ci.R, c.R[i]), (ci.A, c.A[i])):
                assert abs(got - want) <= 2e-15

    def test_array_validation_names_first_bad_element(self):
        with pytest.raises(ValueError, match=r"omega must be > 0, got 0\.0"):
            LocalSlabParams(sigma_local=np.ones(3), d=1e-6, theta=0.0,
                            omega=np.array([1e14, 0.0, -1.0]))


class TestExactTra:
    def test_empty_slab_transparent(self):
        for d, theta in [(1e-7, 0.0), (3e-5, 0.9), (2e-4, 1.3)]:
            lp = LocalSlabParams(sigma_local=0j, d=d, theta=theta, omega=2e14)
            c = exact_tra(lp)
            assert c.T == pytest.approx(1.0, abs=1e-12)
            assert abs(c.R) < 1e-12 and abs(c.A) < 1e-12

    def test_vanishing_thickness_transparent(self):
        m = sodium_preset()
        omega = 1e-2 * m.omega_p
        lp = LocalSlabParams(sigma_local=drude(m, omega), d=1e-12, theta=0.0, omega=omega)
        c = exact_tra(lp)
        assert c.T > 1.0 - 1e-3

    def test_energy_conservation_random(self):
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(1000):
            sig = complex(10.0 ** rng.uniform(10, 17), 0)
            sig += 1j * sig.real * rng.uniform(-5, 5)
            lp = LocalSlabParams(
                sigma_local=sig,
                d=10.0 ** rng.uniform(-9, -4),
                theta=rng.uniform(0, math.pi / 2),
                omega=10.0 ** rng.uniform(12, 16),
            )
            c = exact_tra(lp)
            assert abs(c.T + c.R + c.A - 1.0) < 1e-10
            assert -1e-10 <= c.T <= 1 + 1e-10
            assert -1e-10 <= c.R <= 1 + 1e-10
            assert c.A >= -1e-10
            checked += 1
        assert checked == 1000

    def test_oracle_agreement_in_thin_domain(self):
        """Specular sodium film: thin route vs exact slab."""
        m = sodium_preset()
        omega = 1e-2 * m.omega_p
        sig = drude(m, omega)
        for d, tol in [(1e-7, 0.01), (1e-9, 1e-4)]:
            thin = tra_for_film(sig, d, 0.0)
            exact = exact_tra(LocalSlabParams(sigma_local=sig, d=d, theta=0.0, omega=omega))
            assert abs(thin.T - exact.T) < tol
            assert abs(thin.R - exact.R) < tol
            assert abs(thin.A - exact.A) < tol

    def test_thin_limit_convergence_rate(self):
        """Deviation from the exact solution shrinks at least linearly in d."""
        m = sodium_preset()
        omega = 1e-2 * m.omega_p
        sig = drude(m, omega)
        devs = []
        for d in (1e-6, 1e-7, 1e-8, 1e-9):
            thin = tra_for_film(sig, d, 0.0)
            exact = exact_tra(LocalSlabParams(sigma_local=sig, d=d, theta=0.0, omega=omega))
            devs.append(max(abs(thin.T - exact.T), abs(thin.R - exact.R), abs(thin.A - exact.A)))
        assert devs[0] > devs[1] > devs[2] > devs[3]
        assert devs[3] < devs[0] * 1e-3


def _pole_slabs():
    """Lossless slabs of n half-waves (q*d = n*pi): tan poles for odd n, cot poles for even."""
    omega = 3e14
    for sigma in (0j, -5e13j):  # vacuum and a lossless conductor
        for theta in (0.0, 0.7, 1.4):
            q = slab_wavevector(LocalSlabParams(sigma_local=sigma, d=1e-5, theta=theta, omega=omega))
            for n in (1, 2, 3, 10, 1000):
                yield sigma, n * math.pi / q.real, theta, omega


def _sodium_slabs(omega_fracs, ds, theta):
    m = sodium_preset()
    for frac in omega_fracs:
        for d in ds:
            yield drude(m, frac * m.omega_p), d, theta, frac * m.omega_p


_K_POLE = 3e14 / C_LIGHT
_AIRY_CASES = {
    "poles": list(_pole_slabs()),
    "thin-sodium": list(_sodium_slabs((1e-3, 1e-2), 10.0 ** np.arange(-300.0, -8.0, 20.0), 0.3)),
    "low-frequency": list(_sodium_slabs((1e-30,), (1e-20, 1e-9, 1e-5), 0.0)),
    # q*d overflows at the largest thickness: the half-space value, not a mirror
    "overflowed-thickness": list(_sodium_slabs((1e-2,), (1e300, 1.7e308), 0.3)),
    # a sodium slab, a tan pole, a cot pole and a thicker sodium slab
    "mixed-poles": [(drude(sodium_preset(), 3e14), 1e-7, 0.0, 3e14), (0j, math.pi / _K_POLE, 0.0, 3e14),
                    (0j, 2.0 * math.pi / _K_POLE, 0.0, 3e14), (drude(sodium_preset(), 3e14), 1e-6, 0.0, 3e14)],
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", sorted(_AIRY_CASES))
def test_exact_tra_matches_airy_formula(name):
    """At tan/cot poles, in the thin limit, at omega/omega_p = 1e-30 and where
    q*d overflows the impedance route agrees with the 50-digit Airy formula,
    scalar and array, with no RuntimeWarning."""
    cases = _AIRY_CASES[name]
    want = np.array([airy_slab_tra(*case) for case in cases])
    scalar = np.array([[c.T, c.R, c.A] for c in (exact_tra(LocalSlabParams(*case)) for case in cases)])
    array = exact_tra(LocalSlabParams(*(np.array(field) for field in zip(*cases))))
    assert np.abs(scalar - want).max() <= 1e-14
    assert np.abs(np.array([array.T, array.R, array.A]).T - want).max() <= 1e-14


class TestValidateThinFilm:
    def test_requires_specular_surfaces(self):
        m = sodium_preset()
        bad = [FilmSetup(d=1e-7, theta=0.0, omega=1e13, p=0.5)]
        with pytest.raises(ValueError):
            validate_thin_film(m, bad)

    def test_deviation_profile(self):
        """Small deviations in the thin domain, breakdown past the skin depth."""
        m = sodium_preset()
        delta0 = derive_bulk(m).delta_0
        setups = [
            FilmSetup(d=1e-9, theta=0.0, omega=1e-2 * m.omega_p, p=1.0),
            FilmSetup(d=1e-6, theta=0.0, omega=1e-1 * m.omega_p, p=1.0),
            FilmSetup(d=10 * delta0, theta=0.0, omega=1e-2 * m.omega_p, p=1.0),
        ]
        rows = validate_thin_film(m, setups)
        deep, mid, broken = rows
        assert max(deep.abs_dT, deep.abs_dR, deep.abs_dA) < 1e-4
        assert max(mid.abs_dT, mid.abs_dR, mid.abs_dA) < 0.05
        assert max(broken.abs_dT, broken.abs_dR, broken.abs_dA) > 1e-3
        assert broken.abs_dA / max(broken.A, 1e-300) > 0.5  # A is off by O(1) relative
        assert deep.d_over_delta < 1e-2 < broken.d_over_delta

    def test_smallness_parameters_reported(self):
        m = sodium_preset()
        rows = validate_thin_film(
            m, [FilmSetup(d=1e-7, theta=0.0, omega=1e-2 * m.omega_p, p=1.0)]
        )
        (row,) = rows
        assert row.kd == pytest.approx(1e-2 * m.omega_p * 1e-7 / C_LIGHT, rel=1e-15)
        assert row.d_over_delta > 0.0
        assert row.omega_over_omega_p == pytest.approx(1e-2, rel=1e-15)

    def test_matches_per_setup_scalar_route(self):
        """The array evaluation agrees with sigma_d and tra_for_film per setup."""
        m = sodium_preset()
        setups = default_validation_setups(m, d_count=9, omega_fracs=(1e-3, 1e-1), theta=0.4)
        for s, row in zip(setups, validate_thin_film(m, setups)):
            sig = drude(m, s.omega)
            thin = tra_for_film(sig, s.d, s.theta)
            exact = exact_tra(LocalSlabParams(sigma_local=sig, d=s.d, theta=s.theta, omega=s.omega))
            assert abs(complex(row.re_sigma_d, row.im_sigma_d) - sig) <= 1e-15 * abs(sig)
            assert row.kd == s.omega * s.d / C_LIGHT
            assert row.quad_err == 0.0
            for got, want in ((row.T, thin.T), (row.R, thin.R), (row.A, thin.A),
                              (row.abs_dT, abs(thin.T - exact.T)),
                              (row.abs_dR, abs(thin.R - exact.R)),
                              (row.abs_dA, abs(thin.A - exact.A))):
                assert abs(got - want) <= 2e-15

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("d, omega_frac", [(1e300, 1e3), (1e-9, 1e160)], ids=["kd-overflow", "q-overflow"])
    def test_overflowing_columns_rejected_before_either_side(self, monkeypatch, d, omega_frac):
        """A setup whose kd or q*d leaves the doubles is a ValueError naming its d, with no warning."""
        calls = []
        for name in ("tra_for_film", "exact_tra"):
            monkeypatch.setattr(metalfilm.slab, name, lambda *a, _n=name: calls.append(_n))
        m = sodium_preset()
        setups = [FilmSetup(d=1e-7, theta=0.0, omega=1e-2 * m.omega_p, p=1.0),
                  FilmSetup(d=d, theta=0.0, omega=omega_frac * m.omega_p, p=1.0)]
        with pytest.raises(ValueError, match=re.escape(f"q*d, w and kd must be finite, got {d!r}") + "$"):
            validate_thin_film(m, setups)
        assert calls == []

    def test_default_grid_shape(self):
        m = sodium_preset()
        setups = default_validation_setups(m, d_count=5, omega_fracs=(1e-2,))
        assert len(setups) == 5
        assert all(s.p == 1.0 for s in setups)
        assert setups[0].d == pytest.approx(1e-9)
        assert setups[-1].d == pytest.approx(1e-4)

    @pytest.mark.parametrize("d_min, d_max, d_count", [(1e-9, 1e-5, 250), (1e300, 1.7e308, 11), (1e-5, 1e-9, 4)],
                             ids=["250-points", "near-overflow", "descending"])
    def test_grid_ends_are_exact_and_finite(self, d_min, d_max, d_count):
        ds = [s.d for s in default_validation_setups(sodium_preset(), d_min, d_max, d_count, (1e-2,))]
        assert (ds[0], ds[-1]) == (d_min, d_max)
        assert all(math.isfinite(d) for d in ds)
        assert ds == sorted(ds, reverse=d_max < d_min)


_SODIUM = sodium_preset()
_EXPLICIT = MaterialParams(omega_p=1.37e16, v_f=1.4e8, nu=4.1e13)
_REFERENCE_CASES = {
    "default": (_SODIUM, default_validation_setups(_SODIUM)),
    **{f"theta-{theta:.4g}": (_SODIUM, default_validation_setups(_SODIUM, d_count=15, theta=theta))
       for theta in (0.0, 0.4, 1.2, math.pi / 2)},
    "explicit-material": (_EXPLICIT, default_validation_setups(
        _EXPLICIT, d_count=15, omega_fracs=(1e-3, 3e-2, 0.5))),
    "thick": (_SODIUM, default_validation_setups(
        _SODIUM, d_min=1e-5, d_max=1e-1, d_count=15, omega_fracs=(1e-3, 1e-1, 0.5), theta=0.7)),
}

_THIN_COLUMNS = ("d", "theta", "omega_over_omega_p", "T", "R", "A", "re_sigma_d",
                 "im_sigma_d", "re_w", "im_w", "kd", "quad_err")


@pytest.mark.parametrize("name", sorted(_REFERENCE_CASES))
def test_validation_matches_cmath_reference(name):
    """The array slab reproduces the per-setup cmath solution.

    The thin-film columns come from the same array evaluation and agree
    bit for bit; the deviations differ only by the rounding of numpy's
    complex functions against cmath's.
    """
    m, setups = _REFERENCE_CASES[name]
    got, ref = validate_thin_film(m, setups), reference_validation(m, setups)
    assert len(got) == len(ref) == len(setups)
    for g, r in zip(got, ref):
        assert [getattr(g, c) for c in _THIN_COLUMNS] == [getattr(r, c) for c in _THIN_COLUMNS]
        for c in ("abs_dT", "abs_dR", "abs_dA"):
            assert abs(getattr(g, c) - getattr(r, c)) <= 2e-15
        assert abs(g.d_over_delta - r.d_over_delta) <= 1e-14 * abs(r.d_over_delta)
    if name == "thick":
        # |Im(q*d/2)| = d_over_delta/2 reaches 30, where tan(q*d/2) is i to double precision
        assert max(r.d_over_delta for r in ref) / 2 >= 30.0


class TestValidationWorkCount:
    """Deterministic work per report: the guard that keeps the slab array-shaped."""

    def test_one_array_pass(self, monkeypatch):
        calls = []
        for name in ("tra_for_film", "exact_tra", "_impedances_from_q"):
            original = getattr(metalfilm.slab, name)
            monkeypatch.setattr(
                metalfilm.slab, name,
                lambda *a, _f=original, _n=name: calls.append(_n) or _f(*a),
            )
        m = sodium_preset()
        setups = default_validation_setups(m, d_count=250, omega_fracs=(1e-3, 1e-2, 1e-1, 0.3))
        assert len(validate_thin_film(m, setups)) == 1000
        assert calls.count("tra_for_film") == 1
        assert calls.count("exact_tra") == 1
        assert calls.count("_impedances_from_q") <= 1
