"""Contract-guard overhead on the Monte-Carlo arrow-check hot path.

Two claims, both measured on the A.14 leaf check from the standard
ring-of-3 setup (mirroring ``bench_observability.py``):

* With ``--guards off`` the sampler's residual guard plumbing — one
  ``GuardConfig.checking`` read and one ``fuel_for`` call per sample,
  plus two local branch tests per step — costs **under 5%** of the
  check's wall-clock.  Measured like the observability bench: the
  check is timed, the guard touch points during an identical run are
  counted, each touch's cost is timed in a tight loop, and the product
  is compared against the check time.
* With ``--guards warn`` on a healthy model the same check stays
  within **15%** of the guards-off wall-clock: the per-step enabled
  check rides the automaton's memoised transition objects (an identity
  scan) and the validated-distribution cache, so no equality
  comparison or Fraction arithmetic survives on the steady-state path.
"""

from __future__ import annotations

import time

import pytest

from repro.algorithms import lehmann_rabin as lr
from repro.analysis.montecarlo import check_statement
from repro.contracts import GuardConfig, fuel_for
from repro.contracts import config as config_module
from repro.execution import sampler as sampler_module

SAMPLES = 40

OFF = GuardConfig(mode="off")
WARN = GuardConfig(mode="warn")


def run_check(setup, guards):
    statement = lr.leaf_statements()["A.14"]
    return check_statement(
        statement, setup, samples_per_pair=SAMPLES, random_starts=2,
        max_steps=200, guards=guards,
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


def count_guard_touches(setup):
    """Guard touch points of one guards-off check.

    ``GuardConfig.checking`` property reads are counted through a
    wrapping property; ``fuel_for`` through a counting pass-through on
    the name the sampler imported.  Both are exactly the places the
    off mode still executes.
    """
    counts = {"checking": 0, "fuel_for": 0}
    original_checking = config_module.GuardConfig.checking
    original_fuel_for = sampler_module.fuel_for

    def counting_checking(self):
        counts["checking"] += 1
        return original_checking.fget(self)

    def counting_fuel_for(config):
        counts["fuel_for"] += 1
        return original_fuel_for(config)

    with pytest.MonkeyPatch.context() as patcher:
        patcher.setattr(
            config_module.GuardConfig, "checking", property(counting_checking)
        )
        patcher.setattr(sampler_module, "fuel_for", counting_fuel_for)
        run_check(setup, OFF)
    return counts


def test_guards_off_overhead_under_5_percent(setup3):
    run_check(setup3, OFF)  # warm caches before timing
    check_seconds = best_of(lambda: run_check(setup3, OFF))

    counts = count_guard_touches(setup3)
    costs = {
        "checking": per_call_cost(lambda: OFF.checking),
        "fuel_for": per_call_cost(lambda: fuel_for(OFF)),
    }
    overhead_seconds = sum(counts[name] * costs[name] for name in counts)
    ratio = overhead_seconds / check_seconds
    print(
        f"\narrow check: {check_seconds * 1000:.1f}ms; "
        f"guard touches: {counts}; "
        f"estimated guards-off overhead: {overhead_seconds * 1e6:.0f}us "
        f"({ratio * 100:.2f}%)"
    )
    assert counts["checking"] > 0, "hot path lost its guard plumbing"
    assert ratio < 0.05, (
        f"guards-off plumbing overhead {ratio * 100:.2f}% exceeds 5%"
    )


def test_guards_warn_overhead_under_15_percent(setup3):
    run_check(setup3, OFF)  # warm transition/validation caches
    run_check(setup3, WARN)
    off_seconds = best_of(lambda: run_check(setup3, OFF))
    warn_seconds = best_of(lambda: run_check(setup3, WARN))
    ratio = warn_seconds / off_seconds
    print(
        f"\nguards off: {off_seconds * 1000:.1f}ms, "
        f"warn: {warn_seconds * 1000:.1f}ms ({ratio:.3f}x)"
    )
    assert ratio < 1.15, (
        f"healthy-path warn-mode overhead {ratio:.3f}x exceeds 1.15x"
    )


def test_guard_modes_agree_on_healthy_model(setup3):
    off = run_check(setup3, OFF)
    warn = run_check(setup3, WARN)
    strict = run_check(setup3, GuardConfig(mode="strict"))
    assert off.to_dict() == warn.to_dict() == strict.to_dict()
