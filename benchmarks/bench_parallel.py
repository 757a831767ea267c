"""Wall-clock speedup and equivalence of the parallel sampling backend.

Two claims about the fork-pool backend (``docs/parallel.md``):

* **Equivalence** — a standard arrow check produces a byte-identical
  report for ``workers=1`` and ``workers=4`` (runs everywhere, even on
  one CPU: the pool still executes, only concurrency is lost).
* **Speedup** — on a machine with at least 2 CPUs, 4 workers complete
  the same check at least 1.5x faster than the sequential backend.
  Skipped cleanly on smaller machines (this container has 1 CPU) and
  where ``fork`` is unavailable.

The workload is the composed ``T --13--> C`` statement on the standard
ring of 3 — the dominant wall-clock cost of a ``repro verify`` run —
sized so per-task work dwarfs pool setup.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.algorithms import lehmann_rabin as lr
from repro.analysis.montecarlo import check_statement
from repro.parallel import available_cpus, fork_available

SAMPLES = 60
RANDOM_STARTS = 4

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="parallel backend needs the fork method"
)
needs_cpus = pytest.mark.skipif(
    available_cpus() < 2,
    reason=f"speedup needs >= 2 CPUs, have {available_cpus()}",
)


def run_check(setup3, workers):
    statement = lr.lehmann_rabin_proof().final_statement
    return check_statement(
        statement, setup3, seed=0, samples_per_pair=SAMPLES,
        random_starts=RANDOM_STARTS, workers=workers,
    )


@needs_fork
def test_parallel_report_matches_sequential(setup3):
    sequential = run_check(setup3, workers=1)
    parallel = run_check(setup3, workers=4)
    assert json.dumps(sequential.to_dict(), sort_keys=True) == json.dumps(
        parallel.to_dict(), sort_keys=True
    )


@needs_fork
@needs_cpus
def test_four_workers_at_least_1_5x_faster(setup3):
    run_check(setup3, workers=1)  # warm caches before timing

    started = time.perf_counter()
    run_check(setup3, workers=1)
    sequential_seconds = time.perf_counter() - started

    started = time.perf_counter()
    run_check(setup3, workers=4)
    parallel_seconds = time.perf_counter() - started

    speedup = sequential_seconds / parallel_seconds
    print(
        f"\nsequential: {sequential_seconds:.2f}s, "
        f"4 workers: {parallel_seconds:.2f}s ({speedup:.2f}x)"
    )
    assert speedup >= 1.5, (
        f"4-worker speedup {speedup:.2f}x below the required 1.5x"
    )
