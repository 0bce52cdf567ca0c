import math

import mpmath
import pytest

import oracle


def fuchs_ratio_quad(w: complex, p: float) -> complex:
    """sigma_d / sigma_Drude by tanh-sinh quadrature over u in (0, 1].

    The kernel (u - u^3)(1 - e^-w/u)/(1 - p e^-w/u) has its structure near
    u ~ |w|, so the interval is split at a geometric ladder around |w| and,
    for oscillatory w, at every full turn of the phase Im(w)/u.
    """
    with mpmath.workdps(20):
        w = mpmath.mpc(w)
        p = mpmath.mpf(p)

        def kernel(u):
            if u == 0:
                return mpmath.mpc(0)
            e = mpmath.exp(-w / u)
            return (u - u**3) * (1 - e) / (1 - p * e)

        cuts = {mpmath.mpf(0), mpmath.mpf(1)}
        lo = max(abs(w) * mpmath.mpf("1e-3"), mpmath.mpf("1e-30"))
        x = lo
        while x < 1:
            cuts.add(x)
            x *= 2
        # Below u = Re(w)/40 the kernel is under e^-40 u; above it, cut at
        # every full turn of the phase Im(w)/u so each piece is smooth.
        turn = 2 * mpmath.pi
        k_first = max(1, int(mpmath.ceil(abs(w.imag) / turn)))
        k_last = min(int(40 * abs(w.imag) / (turn * w.real)), 5000)
        for k in range(k_first, k_last + 1):
            cuts.add(abs(w.imag) / (k * turn))
        integral = mpmath.quad(kernel, sorted(cuts))
        return complex(1 - 1.5 * (1 - p) * integral / w)


@pytest.mark.parametrize("w,p", [
    (1e-5, 0.0), (1e-5, 0.5), (1e-3, 0.0), (1e-3, 0.5),
    (0.0076 - 0.76j, 0.0), (3 - 0.3j, 0.0), (3 - 0.3j, 0.5),
])
def test_series_oracle_agrees_with_quadrature_oracle(w, p):
    series = oracle.fuchs_ratio(w, p)
    quad = fuchs_ratio_quad(w, p)
    assert abs(series - quad) <= 1e-10 * abs(quad)


def test_series_oracle_small_w_limit():
    # sigma_d/drude -> (3/4) w (ln(1/w) + 1 - gamma) + O(w^2 ln w) for p = 0
    w = 1e-8
    expect = 0.75 * w * (math.log(1 / w) + 1.0 - 0.5772156649015329)
    assert abs(oracle.fuchs_ratio(w, 0.0) - expect) <= 1e-6 * expect
