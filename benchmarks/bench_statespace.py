"""Byte-identity and speed of the batched engine against the tree oracle.

Three claims about ``--engine batched`` (``docs/statespace.md``), each
measured against ``--engine tree``, the reference walk of the live
object graph:

* **Equivalence** — the composed ``T --13--> C`` check produces a
  byte-identical report under ``tree``, ``batched``, ``batched-pure``
  and ``auto``, for the full adversary family including the
  uncompilable hashed-random members (which fall back to the tree walk
  per adversary).
* **End-to-end speedup** — on the n=3 ring, the batched engine
  completes the arrow check at least 2x faster than the tree walk once
  the sampling load amortises the one-off compile.  The timed workload
  restricts the family to its compilable (Markov round-policy) members
  so the ratio measures the engine, not the fallback.
* **Raw sampling loop** — on one (adversary, start) pair, the batched
  walker (CSR arrays, chain compression, scaled-integer time, block
  uniforms) draws the tree walk's exact (verdict, steps) stream at
  least 50x faster, on the numpy block filler and on the pure-python
  one alike.

Skipped cleanly when the compile blows its state budget or the tree
baseline finishes too fast to time reliably.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.algorithms import lehmann_rabin as lr
from repro.analysis.montecarlo import LRExperimentSetup, check_lr_statement
from repro.errors import StateBudgetExceeded
from repro.parallel.seeds import rng_from_seed
from repro.statespace import BatchedEngine, build_engine

SAMPLES = 60
SPEEDUP_SAMPLES = 1000
#: Raw sampling-loop iterations: the tree walk draws the first
#: ``TREE_LOOP_SAMPLES`` of the stream the batched walker draws in full.
TREE_LOOP_SAMPLES = 1_500
BATCHED_LOOP_SAMPLES = 40_000


def run_check(setup, engine, samples):
    statement = lr.lehmann_rabin_proof().final_statement
    return check_lr_statement(
        statement, setup, seed=0, samples_per_pair=samples,
        random_starts=4, engine=engine,
    )


def report_json(report) -> str:
    return json.dumps(report.to_dict(), sort_keys=True)


def test_batched_report_matches_tree(setup3):
    tree_json = report_json(run_check(setup3, "tree", SAMPLES))
    for engine in ("batched", "batched-pure", "auto"):
        try:
            report = run_check(setup3, engine, SAMPLES)
        except StateBudgetExceeded as error:
            pytest.skip(f"compile budget exceeded: {error}")
        assert report_json(report) == tree_json, (
            f"{engine} report diverged from tree"
        )


def test_batched_at_least_2x_faster():
    # Only Markov round policies: the coin-peeking hashed-random
    # adversaries always sample through the tree walk and would dilute
    # the measured ratio with identical work on both sides.
    setup = LRExperimentSetup.build(3, random_seeds=())
    run_check(setup, "tree", SAMPLES)  # warm transition caches

    started = time.perf_counter()
    tree_report = run_check(setup, "tree", SPEEDUP_SAMPLES)
    tree_seconds = time.perf_counter() - started
    if tree_seconds < 0.5:
        pytest.skip(
            f"tree baseline finished in {tree_seconds:.3f}s — too fast "
            "to time a 2x ratio reliably on this hardware"
        )

    started = time.perf_counter()
    try:
        batched_report = run_check(setup, "batched", SPEEDUP_SAMPLES)
    except StateBudgetExceeded as error:
        pytest.skip(f"compile budget exceeded: {error}")
    batched_seconds = time.perf_counter() - started

    assert report_json(tree_report) == report_json(batched_report)
    speedup = tree_seconds / batched_seconds
    print(
        f"\ntree: {tree_seconds:.2f}s, batched: {batched_seconds:.2f}s "
        f"({speedup:.2f}x, compile amortised over "
        f"{SPEEDUP_SAMPLES} samples/pair)"
    )
    assert speedup >= 2.0, (
        f"batched speedup {speedup:.2f}x below the required 2x"
    )


def build_loop_engine(engine):
    """One engine for the composed statement, n=3, Markov-only family."""
    setup = LRExperimentSetup.build(3, random_seeds=())
    statement = lr.lehmann_rabin_proof().final_statement
    starts = tuple(
        state
        for state in lr.canonical_states(3).values()
        if statement.source.contains(state)
    )
    return build_engine(
        setup.automaton,
        setup.adversaries,
        starts,
        statement.target.contains,
        lr.lr_time_of,
        statement.time_bound,
        400,
        engine=engine,
        spec=setup.space_spec(),
    )


def drive(engine, seed, count):
    """``(samples/s, stream)`` for ``count`` samples of pair (0, 0)."""
    rng = rng_from_seed(seed)
    started = time.perf_counter()
    stream = [
        (result.verdict, result.steps)
        for result in (engine.sample(0, 0, rng) for _ in range(count))
    ]
    return count / (time.perf_counter() - started), stream


def best_rate(engine, count):
    """The best of three seed-1 rates, plus the (fixed) stream."""
    runs = [drive(engine, 1, count) for _ in range(3)]
    return max(rate for rate, _ in runs), runs[0][1]


def test_batched_sampling_loop_at_least_50x_tree():
    try:
        engines = {
            name: build_loop_engine(name)
            for name in ("batched", "batched-pure")
        }
    except StateBudgetExceeded as error:
        pytest.skip(f"compile budget exceeded: {error}")
    tree = build_loop_engine("tree")
    drive(tree, 0, 100)  # warm the transition caches before timing
    tree_rate, tree_stream = best_rate(tree, TREE_LOOP_SAMPLES)
    if TREE_LOOP_SAMPLES / tree_rate < 0.5:
        pytest.skip(
            f"tree baseline finished in {TREE_LOOP_SAMPLES / tree_rate:.3f}s"
            " — too fast to time a 50x ratio reliably on this hardware"
        )
    for name, engine in engines.items():
        assert isinstance(engine, BatchedEngine)
        drive(engine, 0, BATCHED_LOOP_SAMPLES)  # warm before timing
        rate, stream = best_rate(engine, BATCHED_LOOP_SAMPLES)
        assert stream[:TREE_LOOP_SAMPLES] == tree_stream, (
            f"{name} sampling diverged from the tree walk"
        )
        speedup = rate / tree_rate
        print(
            f"\ntree: {tree_rate:,.0f} samples/s, {name}: "
            f"{rate:,.0f} samples/s ({speedup:.0f}x)"
        )
        assert speedup >= 50.0, (
            f"{name} sampling loop {speedup:.1f}x the tree walk, "
            "below the required 50x"
        )
