import numpy as np
import pytest

from generator import WORKLOADS, RequestStream, complex_thickness, cycle_length, request_keys


def _first(workload, seed, n, stream=0, seen=None):
    s = RequestStream(workload, seed, stream, seen)
    return [next(s) for _ in range(n)]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_requests_other_seed_other_requests(workload):
    n = 2 * cycle_length(workload)
    a = [r.argv for r in _first(workload, 7, n)]
    assert a == [r.argv for r in _first(workload, 7, n)]
    b = [r.argv for r in _first(workload, 8, n)]
    assert all(x != y for x, y in zip(a, b))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_no_input_repeats_across_the_streams_of_a_process(workload):
    seen = set()
    n = 3 * cycle_length(workload)
    reqs = [r for stream in range(3) for r in _first(workload, 5, n, stream, seen)]
    assert len({r.argv for r in reqs}) == len(reqs)
    keys = [request_keys(r) for r in reqs]
    assert sum(len(k) for k in keys) == len(set().union(*keys))


def test_a_request_whose_keys_were_seen_is_redrawn():
    first = _first("diffuse_oscillatory", 3, 1)[0]
    seen = set(request_keys(first))
    again = _first("diffuse_oscillatory", 3, 1, seen=seen)[0]
    assert again.argv != first.argv
    assert request_keys(again).isdisjoint(request_keys(first))


def test_workload_domains():
    sodium_l = 8.52e7 / 6.5e12
    for r in _first("diffuse_oscillatory", 1, 30):
        omega_tau = r.omega_frac * 1000.0
        assert (r.p < 0.9).all() and (omega_tau >= 10).all() and (omega_tau <= 100).all()
        assert (r.d >= 1e-7).all() and (r.d <= 1e-6).all()
    for r in _first("diffuse_edges", 1, 40):
        w = complex_thickness(r.material, r.d, r.omega_frac)
        assert (r.p < 1.0).all()
        if r.kind.startswith("small_w"):
            assert (np.abs(w) >= 1e-6 * (1 - 1e-9)).all() and (np.abs(w) <= 1e-2 * (1 + 1e-9)).all()
        else:
            assert (w.real >= 1 - 1e-9).all() and (w.real <= 100 + 1e-9).all()
            assert (r.omega_frac * 1000.0 <= 1.0).all()
            assert r.d[0] >= sodium_l * (1 - 1e-9)
    specular = _first("specular_large", 1, 8)
    assert max(r.points for r in specular) >= 10_000
    assert all(r.points >= 1000 for r in specular)
