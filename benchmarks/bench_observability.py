"""Instrumentation overhead on the Monte-Carlo arrow-check hot path.

Two claims, both measured on the A.14 leaf check from the standard
ring-of-3 setup:

* With the default no-op registry, the instrumentation the hot paths
  retain (module-level helper calls that check ``enabled`` and return)
  costs **under 5%** of the check's wall-clock.  Measured directly: the
  check is timed, every helper invocation during an identical run is
  counted, the per-invocation cost of each no-op helper is timed in a
  tight loop, and the product is compared against the check time.
* With a recording registry installed, the same check still completes
  within a small factor of the no-op time (recording is meant for
  diagnosis runs, not to be free — but it must stay usable).

The same 5% bound covers the disabled paths of the other two
observability pillars: the progress hooks the pool calls when no
``--progress`` reporter is installed, and the manifest write the CLI
skips under ``--no-manifest`` (or for meta-commands).
"""

from __future__ import annotations

import argparse
import time

import pytest

from repro import obs
from repro.obs import progress
from repro.algorithms import lehmann_rabin as lr
from repro.analysis.montecarlo import check_statement

SAMPLES = 40


def run_check(setup):
    statement = lr.leaf_statements()["A.14"]
    return check_statement(
        statement, setup, samples_per_pair=SAMPLES, random_starts=2,
        max_steps=200,
    )


def best_of(fn, repeats=3):
    """The fastest of ``repeats`` timed runs, in seconds."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    return min(times)


def per_call_cost(fn, calls=100_000):
    """Mean per-invocation cost of ``fn`` over a tight loop, in seconds."""
    started = time.perf_counter()
    for _ in range(calls):
        fn()
    return (time.perf_counter() - started) / calls


def count_helper_invocations(setup):
    """How many obs helper calls one arrow check makes when disabled.

    Wraps the module-level helpers with counting pass-throughs; every
    instrumented call site reaches them through the ``obs`` module
    attribute, so the counts are exact.
    """
    counts = {"incr": 0, "enabled": 0, "span": 0, "gauge": 0, "observe": 0}
    with pytest.MonkeyPatch.context() as patcher:
        for name in counts:
            original = getattr(obs, name)

            def wrapper(*args, _original=original, _name=name, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            patcher.setattr(obs, name, wrapper)
        run_check(setup)
    return counts


def test_noop_overhead_under_5_percent(setup3):
    assert not obs.enabled(), "bench requires the default no-op registry"
    run_check(setup3)  # warm caches before timing
    check_seconds = best_of(lambda: run_check(setup3))

    counts = count_helper_invocations(setup3)
    costs = {
        "incr": per_call_cost(lambda: obs.incr("bench.noop")),
        "enabled": per_call_cost(obs.enabled),
        "gauge": per_call_cost(lambda: obs.gauge("bench.noop", 1)),
        "observe": per_call_cost(lambda: obs.observe("bench.noop", 1.0)),
    }

    def span_call():
        with obs.span("bench.noop"):
            pass

    costs["span"] = per_call_cost(span_call, calls=20_000)

    overhead_seconds = sum(
        counts[name] * costs[name] for name in counts
    )
    ratio = overhead_seconds / check_seconds
    print(
        f"\narrow check: {check_seconds * 1000:.1f}ms; "
        f"helper calls: {counts}; "
        f"estimated no-op overhead: {overhead_seconds * 1e6:.0f}us "
        f"({ratio * 100:.2f}%)"
    )
    assert counts["incr"] > 0, "hot path lost its instrumentation"
    assert ratio < 0.05, (
        f"no-op instrumentation overhead {ratio * 100:.2f}% exceeds 5%"
    )


def test_disabled_progress_hooks_under_5_percent(setup3):
    """Without a reporter, the pool's progress hooks must cost nothing.

    The hooks fire once per pooled task.  Bound the worst plausible
    density — one hook pair per arrow check, i.e. a run whose every
    task is a single check — well under the 5% budget.
    """
    assert progress.active() is None, "bench requires no active reporter"
    run_check(setup3)  # warm caches before timing
    check_seconds = best_of(lambda: run_check(setup3))

    per_task_cost = (
        per_call_cost(lambda: progress.add_total(0))
        + per_call_cost(progress.task_done)
        + per_call_cost(progress.task_retried)
        + per_call_cost(progress.pool_degraded)
    )
    ratio = per_task_cost / check_seconds
    print(
        f"\narrow check: {check_seconds * 1000:.1f}ms; disabled progress "
        f"hooks: {per_task_cost * 1e9:.0f}ns/task ({ratio * 100:.4f}%)"
    )
    assert ratio < 0.05, (
        f"disabled progress hooks cost {ratio * 100:.2f}% of an arrow "
        f"check (>5%)"
    )


def test_skipped_manifest_path_under_5_percent(setup3):
    """``--no-manifest`` (and meta-commands) must skip for free.

    The manifest write happens once per CLI invocation; the opted-out
    path is two attribute probes.  Bound it against a single arrow
    check — the smallest unit of real work a CLI run performs.
    """
    from repro.cli import _maybe_write_manifest

    run_check(setup3)  # warm caches before timing
    check_seconds = best_of(lambda: run_check(setup3))

    skipped = argparse.Namespace(command="check", skip_manifest=True)
    opted_out = argparse.Namespace(command="check", manifest=False)
    per_run_cost = max(
        per_call_cost(
            lambda: _maybe_write_manifest(skipped, [], "t", 0.0, 0),
            calls=20_000,
        ),
        per_call_cost(
            lambda: _maybe_write_manifest(opted_out, [], "t", 0.0, 0),
            calls=20_000,
        ),
    )
    ratio = per_run_cost / check_seconds
    print(
        f"\narrow check: {check_seconds * 1000:.1f}ms; skipped manifest "
        f"path: {per_run_cost * 1e9:.0f}ns/run ({ratio * 100:.4f}%)"
    )
    assert ratio < 0.05, (
        f"skipped manifest path costs {ratio * 100:.2f}% of an arrow "
        f"check (>5%)"
    )


def test_recording_run_stays_usable(setup3):
    run_check(setup3)  # warm caches before timing
    noop_seconds = best_of(lambda: run_check(setup3))

    def recorded():
        with obs.recording():
            run_check(setup3)

    recorded_seconds = best_of(recorded)
    ratio = recorded_seconds / noop_seconds
    print(
        f"\nno-op: {noop_seconds * 1000:.1f}ms, "
        f"recording: {recorded_seconds * 1000:.1f}ms ({ratio:.2f}x)"
    )
    assert ratio < 2.0, (
        f"recording registry slows the arrow check {ratio:.2f}x (>2x)"
    )
