"""In-memory span tracing of metalfilm's layers from outside the package.

``Tracer.install`` replaces the public names each module imports from the
next layer down (``metalfilm.cli.run_sweep``, ``metalfilm.sweep.sigma_d``,
``metalfilm.conductivity.integrate_complex``, ...) with wrappers that record
a span: name, start, end, parent span and request id.  The wrapper around
``integrate_complex`` also wraps the integrand it is handed, so each rule
call is a span carrying its number of evaluations.  ``uninstall`` puts the
originals back, so untraced requests run the package untouched.

A name that a later version of the package no longer has is recorded as
absent; the metrics that need it are reported as absent, never as zero.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict

from generator import REGIMES, regime


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "attrs")

    def __init__(self, name, start, end, parent, request, attrs=None):
        self.name, self.start, self.end = name, start, end
        self.parent, self.request, self.attrs = parent, request, attrs


def self_times(spans) -> list[int]:
    """Each span's duration minus the part of it its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    result = []
    for i, span in enumerate(spans):
        covered, reach = 0, span.start
        for a, b in sorted(children[i]):
            a, b = max(a, reach), min(b, span.end)
            if b > a:
                covered += b - a
                reach = b
        result.append(span.end - span.start - covered)
    return result


def _sigma_d_attrs(args, kwargs, result):
    m, s = args[0], args[1]
    w = complex(s.d * m.nu / m.v_f, -s.d * s.omega / m.v_f)
    return {"p": s.p, "regime": regime(w)}


def _len_attrs(args, kwargs, result):
    return {"points": len(result)}


def _size_attrs(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


#: (module, imported name, span name, attribute function)
WRAPPED = (
    ("metalfilm.cli", "run_sweep", "sweep.run_sweep", _len_attrs),
    ("metalfilm.cli", "emit_csv", "sweep.emit_csv", _size_attrs),
    ("metalfilm.cli", "emit_validation_csv", "sweep.emit_validation_csv", _size_attrs),
    ("metalfilm.cli", "validate_thin_film", "slab.validate_thin_film", _len_attrs),
    ("metalfilm.cli", "default_validation_setups", "slab.default_validation_setups", None),
    ("metalfilm.sweep", "sigma_d", "conductivity.sigma_d", _sigma_d_attrs),
    ("metalfilm.sweep", "complex_thickness", "conductivity.complex_thickness", None),
    ("metalfilm.sweep", "tra_for_film", "optics.tra_for_film", None),
    ("metalfilm.slab", "sigma_d", "conductivity.sigma_d", _sigma_d_attrs),
    ("metalfilm.slab", "complex_thickness", "conductivity.complex_thickness", None),
    ("metalfilm.slab", "tra_for_film", "optics.tra_for_film", None),
    ("metalfilm.slab", "exact_tra", "slab.exact_tra", None),
    ("metalfilm.slab", "slab_wavevector", "slab.slab_wavevector", None),
    ("metalfilm.conductivity", "integrate_complex", "quadrature.integrate_complex", None),
)

#: (module, imported name, counter name): calls counted, no span
COUNTED = (
    ("metalfilm.conductivity", "derive_bulk", "materials.derive_bulk"),
    ("metalfilm.sweep", "derive_bulk", "materials.derive_bulk"),
)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.request = None
        self.speed: dict[int, float] = {}  # request id -> reference seconds per measured second
        self._stack: list[int] = []
        self._saved = []
        self.present: set[str] = {"cli.main"}
        for module, attr, name, *_ in WRAPPED + COUNTED:
            if hasattr(importlib.import_module(module), attr):
                self.present.add(name)

    def call(self, name, fn, args=(), kwargs=None, attrs=None):
        """Run ``fn`` inside a span; the span records the exception type if it raises."""
        span = Span(name, 0, 0, self._stack[-1] if self._stack else None, self.request)
        index = len(self.spans)
        self.spans.append(span)
        self._stack.append(index)
        span.start = time.perf_counter_ns()
        try:
            result = fn(*args, **(kwargs or {}))
        except BaseException as exc:
            span.attrs = {"error": type(exc).__name__}
            raise
        finally:
            span.end = time.perf_counter_ns()
            self._stack.pop()
        if attrs is not None:
            try:
                span.attrs = attrs(args, kwargs or {}, result)
            except (AttributeError, IndexError, TypeError, OSError):
                span.attrs = None
        return result

    def _wrap(self, name, fn, attrs):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, attrs)
        return traced

    def _wrap_quadrature(self, name, fn):
        def integrand_span(f):
            @functools.wraps(f)
            def traced_f(x, *rest):
                return self.call("quadrature.integrand", f, (x, *rest), None,
                                 lambda a, k, r: {"evals": a[0].size})
            return traced_f

        @functools.wraps(fn)
        def traced(f, *args, **kwargs):
            return self.call(name, fn, (integrand_span(f), *args), kwargs)
        return traced

    def _wrap_count(self, name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def install(self):
        for module, attr, name, attrs in WRAPPED:
            mod = importlib.import_module(module)
            fn = getattr(mod, attr, None)
            if fn is None:
                continue
            self._saved.append((mod, attr, fn))
            if name == "quadrature.integrate_complex":
                setattr(mod, attr, self._wrap_quadrature(name, fn))
            else:
                setattr(mod, attr, self._wrap(name, fn, attrs))
        for module, attr, name in COUNTED:
            mod = importlib.import_module(module)
            fn = getattr(mod, attr, None)
            if fn is not None:
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap_count(name, fn))

    def uninstall(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def write(self, path):
        """Write every span as one CSV line: id,name,start_ns,end_ns,parent,request,attrs."""
        with open(path, "w") as fh:
            fh.write("id,name,start_ns,end_ns,parent,request,attrs\n")
            for i, s in enumerate(self.spans):
                attrs = "" if not s.attrs else ";".join(f"{k}={v}" for k, v in s.attrs.items())
                parent = "" if s.parent is None else s.parent
                fh.write(f"{i},{s.name},{s.start},{s.end},{parent},{s.request},{attrs}\n")


SLAB_SPANS = ("slab.validate_thin_film", "slab.default_validation_setups",
              "slab.exact_tra", "slab.slab_wavevector")

_QUAD = ("quadrature.integrate_complex",)
_REG = _QUAD + ("conductivity.sigma_d",)

#: span or counter names each metric is computed from
NEEDS = {
    "quadrature.evals": _QUAD,
    "quadrature.rule_calls": _QUAD,
    "quadrature.evals_per_rule_call": _QUAD,
    "quadrature.integrand_ms": _QUAD,
    "quadrature.self_ms": _QUAD,
    "quadrature.failed": _QUAD,
    **{f"quadrature.evals.{r}": _REG for r in REGIMES},
    **{f"quadrature.ms.{r}": _REG for r in REGIMES},
    "conductivity.sigma_d_calls": ("conductivity.sigma_d",),
    "conductivity.self_ms": ("conductivity.sigma_d", "conductivity.complex_thickness"),
    "conductivity.quad_per_point": _REG,
    "sweep.self_ms": ("sweep.run_sweep",),
    "sweep.points": ("sweep.run_sweep",),
    "optics.tra_for_film_calls": ("optics.tra_for_film",),
    "optics.tra_for_film_ms": ("optics.tra_for_film",),
    "materials.derive_bulk_calls_per_point": ("materials.derive_bulk",),
    "sweep.emit_ms": ("sweep.emit_csv",),
    "sweep.csv_bytes": ("sweep.emit_csv", "sweep.emit_validation_csv"),
    "sweep.emit_validation_ms": ("sweep.emit_validation_csv",),
    "slab.validate_ms": ("slab.validate_thin_film",),
    "slab.self_ms": SLAB_SPANS,
    "slab.exact_tra_calls": ("slab.exact_tra",),
    "slab.exact_tra_ms": ("slab.exact_tra",),
    "cli.self_ms": ("cli.main",),
}


def _ms(ns):
    return ns / 1e6


def layer_metrics(tracer: Tracer, points: int) -> tuple[dict, list[str]]:
    """Per-layer metrics from the recorded spans: (values, absent metric names).

    ``points`` is the number of rows the traced requests produced.  Times
    are scaled to the reference speed by ``tracer.speed`` of their request.
    """
    spans = tracer.spans
    own = self_times(spans)
    total = defaultdict(float)   # summed duration per span name, ns
    selfs = defaultdict(float)   # summed self time per span name, ns
    calls = defaultdict(int)
    for span, s in zip(spans, own):
        speed = tracer.speed.get(span.request, 1.0)
        total[span.name] += (span.end - span.start) * speed
        selfs[span.name] += s * speed
        calls[span.name] += 1

    evals = rule_calls = failed = diffuse_points = 0
    reg_evals = dict.fromkeys(REGIMES, 0)
    reg_ns = dict.fromkeys(REGIMES, 0)
    quad_regime = {}
    for i, span in enumerate(spans):
        if span.name == "conductivity.sigma_d" and span.attrs and span.attrs["p"] < 1.0:
            diffuse_points += 1
        elif span.name == "quadrature.integrate_complex":
            parent = span.parent
            while parent is not None and spans[parent].name != "conductivity.sigma_d":
                parent = spans[parent].parent
            attrs = spans[parent].attrs if parent is not None else None
            quad_regime[i] = attrs["regime"] if attrs else "moderate"
            reg_ns[quad_regime[i]] += (span.end - span.start) * tracer.speed.get(span.request, 1.0)
            if span.attrs and span.attrs.get("error") == "QuadratureError":
                failed += 1
        elif span.name == "quadrature.integrand":
            n = span.attrs["evals"] if span.attrs else 0
            evals += n
            rule_calls += 1
            reg_evals[quad_regime.get(span.parent, "moderate")] += n

    quad = calls["quadrature.integrate_complex"]
    bulk = tracer.counts["materials.derive_bulk"]
    values = {
        "quadrature.evals": (evals, "count"),
        "quadrature.rule_calls": (rule_calls, "count"),
        "quadrature.evals_per_rule_call": (evals / rule_calls if rule_calls else 0.0, "count"),
        "quadrature.integrand_ms": (_ms(total["quadrature.integrand"]), "ms"),
        "quadrature.self_ms": (_ms(selfs["quadrature.integrate_complex"]), "ms"),
        "quadrature.failed": (failed, "count"),
    }
    for r in REGIMES:
        values[f"quadrature.evals.{r}"] = (reg_evals[r], "count")
        values[f"quadrature.ms.{r}"] = (_ms(reg_ns[r]), "ms")
    values.update({
        "conductivity.sigma_d_calls": (calls["conductivity.sigma_d"], "count"),
        "conductivity.self_ms": (_ms(selfs["conductivity.sigma_d"]
                                     + selfs["conductivity.complex_thickness"]), "ms"),
        "conductivity.quad_per_point": (quad / diffuse_points if diffuse_points else 0.0, "ratio"),
        "sweep.self_ms": (_ms(selfs["sweep.run_sweep"]), "ms"),
        "sweep.points": (sum(s.attrs["points"] for s in spans
                             if s.name == "sweep.run_sweep" and s.attrs), "count"),
        "optics.tra_for_film_calls": (calls["optics.tra_for_film"], "count"),
        "optics.tra_for_film_ms": (_ms(total["optics.tra_for_film"]), "ms"),
        "materials.derive_bulk_calls_per_point": (bulk / points if points else 0.0, "ratio"),
        "sweep.emit_ms": (_ms(total["sweep.emit_csv"]), "ms"),
        "sweep.csv_bytes": (sum(s.attrs["bytes"] for s in spans
                                if s.name in ("sweep.emit_csv", "sweep.emit_validation_csv")
                                and s.attrs), "bytes"),
        "sweep.emit_validation_ms": (_ms(total["sweep.emit_validation_csv"]), "ms"),
        "slab.validate_ms": (_ms(total["slab.validate_thin_film"]), "ms"),
        "slab.self_ms": (_ms(sum(selfs[n] for n in SLAB_SPANS)), "ms"),
        "slab.exact_tra_calls": (calls["slab.exact_tra"], "count"),
        "slab.exact_tra_ms": (_ms(total["slab.exact_tra"]), "ms"),
        "cli.self_ms": (_ms(selfs["cli.main"]), "ms"),
    })
    absent = [name for name, needs in NEEDS.items()
              if any(n not in tracer.present for n in needs)]
    for name in absent:
        values.pop(name, None)
    return values, absent
