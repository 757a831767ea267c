"""Observability: structured tracing, metrics, and run reports.

Instrumented code calls the module-level helpers below; they delegate
to the active :class:`~repro.obs.registry.Registry`.  With the default
no-op registry installed each helper is a function call, one module
attribute read, and a branch — cheap enough to leave in the hot paths
of the samplers and value-iteration sweeps (see
``benchmarks/bench_observability.py`` for the measured bound).

Typical instrumented call site::

    from repro import obs

    with obs.span("verify.arrow_check", statement=repr(statement)):
        ...
        obs.incr("verifier.samples", samples)
        obs.observe("sampler.steps_per_sample", steps)

Typical consumer::

    from repro import obs
    from repro.obs.sinks import render_metric_tables, render_span_tree

    with obs.recording() as registry:
        run_experiment()
    print(render_span_tree(registry.tracer))
    print(render_metric_tables(registry.metrics))

Naming convention for metrics: dotted lowercase
``layer.component.metric`` (``sampler.steps``, ``mdp.value_iteration.
residual``).  Every name is declared in :mod:`repro.obs.names` —
``tools/lint.py`` rejects call sites whose literal name is not in that
catalog; see ``docs/observability.md``.

The contract-guard layer (``docs/contracts.md``) reports through the
``contracts.*`` counters: ``contracts.violations`` (every detected
violation) plus one per-kind counter (``contracts.distribution``,
``contracts.adversary``, ``contracts.closure``, ``contracts.fuel``)
and ``contracts.quarantined`` (pairs a strict run skipped).  They are
incremented only when a violation is actually detected, so healthy
runs render identical metric tables whatever the guard mode.
"""

from __future__ import annotations

from typing import Union

from repro.obs import manifest, names, profile, progress
from repro.obs import registry as _registry
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    Metrics,
    NoopMetrics,
)
from repro.obs.registry import (
    NOOP_REGISTRY,
    Registry,
    get_registry,
    install,
    recording,
    recording_registry,
)
from repro.obs.trace import NoopTracer, Span, Tracer

Number = Union[int, float]


def enabled() -> bool:
    """True when a recording registry is active."""
    return _registry._active.enabled


def span(name: str, **attributes: object):
    """A context manager timing one region of work (no-op when off)."""
    active = _registry._active
    return active.tracer.span(name, **attributes)


def incr(name: str, amount: Number = 1) -> None:
    """Add to the counter ``name`` (no-op when off)."""
    active = _registry._active
    if active.enabled:
        active.metrics.counter(name).inc(amount)


def gauge(name: str, value: Number) -> None:
    """Set the gauge ``name`` (no-op when off)."""
    active = _registry._active
    if active.enabled:
        active.metrics.gauge(name).set(value)


def observe(name: str, value: Number) -> None:
    """Record one observation in the histogram ``name`` (no-op when off)."""
    active = _registry._active
    if active.enabled:
        active.metrics.histogram(name).observe(value)


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Metrics",
    "NOOP_REGISTRY",
    "NoopMetrics",
    "NoopTracer",
    "Registry",
    "Span",
    "Tracer",
    "enabled",
    "gauge",
    "get_registry",
    "incr",
    "install",
    "manifest",
    "names",
    "observe",
    "profile",
    "progress",
    "recording",
    "recording_registry",
    "span",
]
