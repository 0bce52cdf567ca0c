import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from metalfilm import (
    C_LIGHT,
    FilmSetup,
    LocalSlabParams,
    MaterialParams,
    complex_thickness,
    derive_bulk,
    sigma_d,
    sodium_preset,
    thin_impedances,
    tra_for_film,
)
from metalfilm.conductivity import drude_conductivity


class TestDeriveBulk:
    def test_sodium_values(self):
        """Hand-computed derived quantities for the sodium preset."""
        der = derive_bulk(sodium_preset())
        assert der.tau == pytest.approx(1.5385e-13, rel=1e-4)
        assert der.l == pytest.approx(1.3108e-5, rel=1e-4)
        assert der.sigma_0 == pytest.approx(5.172e17, rel=1e-3)
        assert der.delta_0 == pytest.approx(4.612e-6, rel=1e-3)
        # order-of-magnitude check for a typical metal
        assert 1e-6 < der.delta_0 < 1e-4

    def test_delta0_is_one_when_omega_p_equals_c(self):
        m = MaterialParams(omega_p=C_LIGHT, v_f=8.52e7, nu=6.5e12)
        assert derive_bulk(m).delta_0 == 1.0

    def test_doubling_nu_halves_tau_l_sigma0(self):
        base = derive_bulk(MaterialParams(omega_p=6.5e15, v_f=8.52e7, nu=1e12))
        doubled = derive_bulk(MaterialParams(omega_p=6.5e15, v_f=8.52e7, nu=2e12))
        assert doubled.tau == base.tau / 2
        assert doubled.l == base.l / 2
        assert doubled.sigma_0 == base.sigma_0 / 2
        assert doubled.delta_0 == base.delta_0

    def test_pure_function(self):
        m = sodium_preset()
        assert derive_bulk(m) == derive_bulk(m)

    def test_definition_roundtrip(self):
        m = sodium_preset()
        der = derive_bulk(m)
        assert der.sigma_0 * 4 * math.pi / der.tau == pytest.approx(
            m.omega_p**2, rel=1e-15
        )

    @pytest.mark.parametrize("field", ["omega_p", "v_f", "nu"])
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_invalid_parameters_rejected(self, field, bad):
        kwargs = {"omega_p": 6.5e15, "v_f": 8.52e7, "nu": 6.5e12, field: bad}
        with pytest.raises(ValueError):
            MaterialParams(**kwargs)


class TestSodiumPreset:
    def test_exact_values(self):
        m = sodium_preset()
        assert m.omega_p == 6.5e15
        assert m.v_f == 8.52e7
        assert m.nu == 6.5e12  # 1e-3 * omega_p

    def test_purity(self):
        assert sodium_preset() == sodium_preset()


class TestFilmSetup:
    def test_boundary_values_accepted(self):
        FilmSetup(d=1e-7, theta=0.0, omega=0.0, p=0.0)
        FilmSetup(d=1e-7, theta=math.pi / 2, omega=1e15, p=1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"d": 0.0},
            {"d": -1e-7},
            {"d": math.nan},
            {"theta": -0.1},
            {"theta": math.pi / 2 + 0.1},
            {"theta": math.nan},
            {"omega": -1.0},
            {"omega": math.inf},
            {"p": -0.01},
            {"p": 1.01},
            {"p": math.nan},
        ],
    )
    def test_invalid_setup_rejected(self, kwargs):
        base = {"d": 1e-7, "theta": 0.0, "omega": 1e14, "p": 0.5}
        base.update(kwargs)
        with pytest.raises(ValueError):
            FilmSetup(**base)


_GOOD = {"d": 1e-7, "theta": 0.3, "omega": 1e14, "p": 0.5}
#: each film rule's message and the values that break it: NaN, +-inf, out of range
_RULES = {
    "d": ("d must be positive and finite", (math.nan, math.inf, -math.inf, 0.0)),
    "theta": ("theta must lie in [0, pi/2]", (math.nan, math.inf, -math.inf, -0.1)),
    "omega": ("omega must be finite and >= 0", (math.nan, math.inf, -math.inf, -1.0)),
    "p": ("p must lie in [0, 1]", (math.nan, math.inf, -math.inf, 1.5)),
}
#: a second bad value, after the first one in the array cases
_LATER = {"d": -1.0, "theta": 3.0, "omega": math.inf}
#: entry point -> (call on a dict of film values, the values it takes, takes arrays)
_ENTRY_POINTS = {
    "FilmSetup": (lambda v: FilmSetup(**v), ("d", "theta", "omega", "p"), False),
    "LocalSlabParams": (
        lambda v: LocalSlabParams(sigma_local=1e14 + 0j, d=v["d"], theta=v["theta"],
                                  omega=v["omega"]),
        ("d", "theta", "omega"), True),
    "tra_for_film": (lambda v: tra_for_film(1e15 + 1e15j, v["d"], v["theta"]),
                     ("d", "theta"), True),
    "thin_impedances": (lambda v: thin_impedances(1e15 + 1e15j, v["d"], v["omega"], v["theta"]),
                        ("d", "theta", "omega"), False),
    # a setup that skipped FilmSetup's checks: sigma_d checks p itself
    "sigma_d": (lambda v: sigma_d(sodium_preset(), SimpleNamespace(**v)), ("p",), False),
    "complex_thickness": (lambda v: complex_thickness(sodium_preset(), v["d"], v["omega"]),
                          ("d", "omega"), True),
    "drude_conductivity": (lambda v: drude_conductivity(sodium_preset(), v["omega"]),
                           ("omega",), True),
}


def _rule_cases():
    for param, (_, values) in _RULES.items():
        for entry, (_, takes, arrays) in _ENTRY_POINTS.items():
            if param not in takes:
                continue
            for bad in values:
                yield pytest.param(entry, param, bad, False, id=f"{entry}-{param}-{bad}")
                if arrays:
                    yield pytest.param(entry, param, bad, True, id=f"{entry}-{param}-{bad}-array")


@pytest.mark.parametrize("entry, param, bad, as_array", _rule_cases())
def test_each_film_rule_has_one_message(entry, param, bad, as_array):
    """Every entry point rejects NaN, +-inf and out-of-range film values with
    the rule's one message; an array names its first bad element."""
    rule = _RULES[param][0]
    if entry == "LocalSlabParams" and param == "omega" and not bad > 0.0:
        rule = "omega must be > 0"  # its stricter rule, checked first
    values = dict(_GOOD)
    values[param] = np.array([_GOOD[param], bad, _LATER[param]]) if as_array else bad
    with pytest.raises(ValueError, match=re.escape(f"{rule}, got {bad!r}") + "$"):
        _ENTRY_POINTS[entry][0](values)
