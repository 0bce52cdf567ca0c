import metalfilm.sweep

from tracing import Span, Tracer, layer_metrics, self_times


def test_self_time_subtracts_union_of_children_clipped_to_parent():
    spans = [
        Span("cli.main", 0, 100, None, 0),
        Span("sweep.run_sweep", 10, 30, 0, 0),
        Span("sweep.emit_csv", 20, 50, 0, 0),   # overlaps the previous child
        Span("conductivity.sigma_d", 90, 120, 0, 0),  # runs past the parent's end
        Span("quadrature.integrate_complex", 12, 18, 1, 0),
        Span("quadrature.integrand", 13, 14, 4, 0),
        Span("quadrature.integrand", 15, 17, 4, 0),
    ]
    # root: children cover [10, 50] and [90, 100] -> 40 + 10
    assert self_times(spans) == [50, 14, 30, 30, 3, 1, 2]


def test_self_time_of_nested_identical_intervals_is_zero():
    spans = [Span("a", 5, 9, None, 0), Span("b", 5, 9, 0, 0), Span("c", 5, 9, 1, 0)]
    assert self_times(spans) == [0, 0, 4]


def test_wrappers_are_removed_after_uninstall():
    original = metalfilm.sweep.sigma_d
    tracer = Tracer()
    tracer.install()
    assert metalfilm.sweep.sigma_d is not original
    tracer.uninstall()
    assert metalfilm.sweep.sigma_d is original


def test_missing_wrapped_name_is_reported_absent(monkeypatch):
    monkeypatch.delattr(metalfilm.sweep, "tra_for_film")
    monkeypatch.delattr(metalfilm.slab, "tra_for_film")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    values, absent = layer_metrics(tracer, points=0)
    assert set(absent) == {"optics.tra_for_film_calls", "optics.tra_for_film_ms"}
    assert "optics.tra_for_film_ms" not in values
    assert "quadrature.evals" in values
