"""The process-wide instrumentation registry.

One :class:`Registry` bundles a tracer and a metrics store; exactly one
is *active* per process at a time.  The default is :data:`NOOP_REGISTRY`
— its tracer and metrics discard everything, so instrumented call sites
cost a function call and an attribute check when observability is off.

Recording is enabled by installing a recording registry, usually via
the :func:`recording` context manager::

    with recording() as registry:
        run_experiment()
    print(render_span_tree(registry.tracer))

Installation is process-global by design: the hot paths (samplers,
value-iteration sweeps, adversary decisions) must not thread a registry
argument through every signature, and the reproduction's experiments
are single-threaded.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

from repro.obs.metrics import Metrics, NoopMetrics
from repro.obs.trace import NoopTracer, Tracer


class Registry:
    """A tracer/metrics pair with an ``enabled`` fast-path flag."""

    __slots__ = ("tracer", "metrics", "enabled")

    def __init__(self, tracer, metrics, enabled: bool = True):
        self.tracer = tracer
        self.metrics = metrics
        self.enabled = enabled


NOOP_REGISTRY = Registry(NoopTracer(), NoopMetrics(), enabled=False)

_active: Registry = NOOP_REGISTRY


def get_registry() -> Registry:
    """The currently active registry (the no-op one by default)."""
    return _active


def install(registry: Registry) -> Registry:
    """Make ``registry`` active; returns the previously active one."""
    global _active
    previous = _active
    _active = registry
    return previous


def recording_registry(
    clock: Optional[Callable[[], float]] = None
) -> Registry:
    """A fresh registry that records spans and metrics."""
    tracer = Tracer(clock) if clock is not None else Tracer(time.perf_counter)
    return Registry(tracer, Metrics(), enabled=True)


@contextmanager
def recording(
    clock: Optional[Callable[[], float]] = None
) -> Iterator[Registry]:
    """Install a fresh recording registry for the duration of a block.

    The previously active registry is restored on exit, so nested
    recordings and test isolation both work.
    """
    registry = recording_registry(clock)
    previous = install(registry)
    try:
        yield registry
    finally:
        install(previous)
