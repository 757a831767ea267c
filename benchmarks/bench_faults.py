"""Overhead and equivalence of the fault-tolerant pool runtime.

Two claims about the hardened runtime (``docs/robustness.md``):

* **Zero-cost when healthy** — the fault-tolerance machinery (policy
  validation, retry bookkeeping, integrity digests on the inline path)
  adds less than 5% to a standard sequential check relative to calling
  the sampling loop without any policy at all.
* **Equivalence under chaos** — a run with a 10% injected worker-crash
  rate (plus a retry budget to absorb it) completes and produces
  estimates byte-identical to the undisturbed sequential run.

The workload is the A.14 leaf statement on the standard ring of 3 —
small enough to repeat for stable timing, large enough that per-pair
sampling dominates.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.algorithms import lehmann_rabin as lr
from repro.analysis.montecarlo import check_statement
from repro.parallel import FaultPlan, RunPolicy, fork_available

SAMPLES = 40
RANDOM_STARTS = 2
REPEATS = 15

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="the pooled paths need the fork method"
)


def run_check(setup3, workers=1, policy=None):
    statement = lr.leaf_statements()["A.14"]
    return check_statement(
        statement, setup3, seed=0, samples_per_pair=SAMPLES,
        random_starts=RANDOM_STARTS, workers=workers, policy=policy,
    )


def timed(call):
    started = time.perf_counter()
    call()
    return time.perf_counter() - started


def test_no_fault_path_overhead_under_5_percent(setup3):
    """A policy carrying retries/timeout must cost nothing when unused."""
    policy = RunPolicy(timeout=300.0, retries=3)
    run_check(setup3)  # warm caches before timing
    run_check(setup3, policy=policy)

    # Interleave the two variants and take each side's minimum, so
    # machine-load drift during the benchmark hits both equally.
    bare = float("inf")
    hardened = float("inf")
    for _ in range(REPEATS):
        bare = min(bare, timed(lambda: run_check(setup3, policy=None)))
        hardened = min(
            hardened, timed(lambda: run_check(setup3, policy=policy))
        )

    overhead = hardened / bare - 1.0
    print(
        f"\nbare: {bare * 1e3:.1f}ms, hardened: {hardened * 1e3:.1f}ms "
        f"({overhead * 100:+.1f}%)"
    )
    assert overhead < 0.05, (
        f"healthy-path overhead {overhead * 100:.1f}% exceeds the 5% budget"
    )


@needs_fork
def test_ten_percent_crash_rate_estimates_identical(setup3):
    """A chaos run must finish and not move a single estimate."""
    baseline = run_check(setup3, workers=1)
    policy = RunPolicy(
        retries=8, backoff=0.01, faults=FaultPlan(crash=0.10, seed=7)
    )
    chaotic = run_check(setup3, workers=2, policy=policy)
    assert json.dumps(chaotic.to_dict(), sort_keys=True) == json.dumps(
        baseline.to_dict(), sort_keys=True
    )
