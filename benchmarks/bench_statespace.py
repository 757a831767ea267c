"""Byte-identity and speed of the batched engine against the tree oracle.

Three claims about ``--engine batched`` (``docs/statespace.md``), each
measured against ``--engine tree``, the reference walk of the live
object graph:

* **Equivalence** — the composed ``T --13--> C`` check produces a
  byte-identical report under ``tree``, ``batched`` and ``auto``, for
  the full adversary family including the coin-peeking hashed-random
  members.
* **End-to-end speedup** — on the n=3 ring, the batched engine
  completes the arrow check of the Markov round-policy adversaries at
  least 2x faster than the tree walk, as each pair's memoised
  execution tree amortises over its samples.
* **History walk** — on the ``hashed-1`` pair of the same check, the
  batched engine's memoised execution tree, grown from scratch, draws
  the tree walk's exact (verdict, steps) stream at least 5x faster.

Skipped cleanly when the starts blow the state budget or the tree
baseline finishes too fast to time reliably.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.algorithms import lehmann_rabin as lr
from repro.analysis.montecarlo import check_statement
from repro.errors import StateBudgetExceeded
from repro.models import get_model
from repro.parallel.seeds import rng_from_seed
from repro.statespace import BatchedEngine, build_engine

SAMPLES = 60
SPEEDUP_SAMPLES = 1000
#: Samples of the ``hashed-1`` pair that both engines draw in full.
HISTORY_SAMPLES = 2_000


def run_check(setup, engine, samples):
    statement = lr.lehmann_rabin_proof().final_statement
    return check_statement(
        statement, setup, seed=0, samples_per_pair=samples,
        random_starts=4, engine=engine,
    )


def report_json(report) -> str:
    return json.dumps(report.to_dict(), sort_keys=True)


def test_batched_report_matches_tree(setup3):
    tree_json = report_json(run_check(setup3, "tree", SAMPLES))
    for engine in ("batched", "auto"):
        try:
            report = run_check(setup3, engine, SAMPLES)
        except StateBudgetExceeded as error:
            pytest.skip(f"compile budget exceeded: {error}")
        assert report_json(report) == tree_json, (
            f"{engine} report diverged from tree"
        )


def test_batched_at_least_2x_faster():
    # Only Markov round policies; the coin-peeking hashed-random
    # adversaries are timed on their own by
    # test_history_walk_at_least_5x_tree.
    setup = get_model("lr").build(3, random_seeds=())
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
        f"({speedup:.2f}x at {SPEEDUP_SAMPLES} samples/pair)"
    )
    assert speedup >= 2.0, (
        f"batched speedup {speedup:.2f}x below the required 2x"
    )


def build_loop_engine(engine):
    """One engine for the composed statement, n=3, with the ``hashed-1``
    adversary alone."""
    setup = get_model("lr").build(3, random_seeds=(1,))
    statement = lr.lehmann_rabin_proof().final_statement
    starts = tuple(
        state
        for state in lr.canonical_states(3).values()
        if statement.source.contains(state)
    )
    return build_engine(
        setup.automaton,
        tuple(pair for pair in setup.adversaries if pair[0] == "hashed-1"),
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


def test_history_walk_at_least_5x_tree():
    tree = build_loop_engine("tree")
    assert tree.adversaries[0][0] == "hashed-1"
    drive(tree, 0, 100)  # warm the transition caches before timing
    tree_rate, tree_stream = best_rate(tree, HISTORY_SAMPLES)
    if HISTORY_SAMPLES / tree_rate < 0.5:
        pytest.skip(
            f"tree baseline finished in {HISTORY_SAMPLES / tree_rate:.3f}s"
            " — too fast to time a 5x ratio reliably on this hardware"
        )
    runs = []
    for _ in range(3):
        # A fresh engine per run, so every run grows its tree anew.
        batched = build_loop_engine("batched")
        assert isinstance(batched, BatchedEngine)
        assert batched._history is None
        runs.append(drive(batched, 1, HISTORY_SAMPLES))
    rate = max(run_rate for run_rate, _ in runs)
    assert runs[0][1] == tree_stream, (
        "the history walk diverged from the tree walk"
    )
    speedup = rate / tree_rate
    print(
        f"\ntree: {tree_rate:,.0f} samples/s, history walk: "
        f"{rate:,.0f} samples/s ({speedup:.1f}x)"
    )
    assert speedup >= 5.0, (
        f"history walk {speedup:.1f}x the tree walk, below the required 5x"
    )
