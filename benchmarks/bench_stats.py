"""Clopper-Pearson bounds: the memoised bisection against the reference.

Times the 48 bound calls that ``repro verify --model herman --n 5
--samples 2000`` makes (10 distinct ``(successes, trials, confidence)``
triples; reports re-derive a bound on every verdict access) twice: with
the reference 200-step bisection frozen in
``tests/test_probability_stats.py``, and with the bounds in
``repro.probability.stats`` from a cold memo.  Asserts identical float
bits and a speedup of at least 10x.

Run with ``python -m pytest -q -s benchmarks/bench_stats.py`` from the
repository root (``python tools/bench.py --only stats`` records it).
"""

from __future__ import annotations

import time

from repro.probability.stats import (
    BernoulliSummary,
    _cp_lower,
    _cp_upper,
    clopper_pearson_lower,
    clopper_pearson_upper,
)
from tests.test_probability_stats import reference_lower, reference_upper

TRIALS = 2000
CONFIDENCE = 0.99

#: ``(bound, successes, calls)`` made by ``herman-verify`` at seed 0.
HERMAN_CALLS = (
    ("upper", 1989, 6), ("upper", 1990, 12), ("upper", 1993, 6),
    ("upper", 1994, 6), ("upper", 1995, 6),
    ("lower", 1989, 2), ("lower", 1990, 4), ("lower", 1993, 2),
    ("lower", 1994, 2), ("lower", 1995, 2),
)

MIN_SPEEDUP = 10.0


def _calls():
    return [
        (bound, successes)
        for bound, successes, count in HERMAN_CALLS
        for _ in range(count)
    ]


def _run_reference(calls):
    reference = {"lower": reference_lower, "upper": reference_upper}
    return [
        reference[bound](successes, TRIALS, CONFIDENCE).hex()
        for bound, successes in calls
    ]


def _run_memoised(calls):
    public = {"lower": clopper_pearson_lower, "upper": clopper_pearson_upper}
    return [
        public[bound](BernoulliSummary(successes, TRIALS), CONFIDENCE).hex()
        for bound, successes in calls
    ]


def _timed(run, calls):
    started = time.perf_counter()
    result = run(calls)
    return time.perf_counter() - started, result


def test_herman_bound_set_speedup():
    calls = _calls()
    assert len(calls) == 48
    reference_s, expected = _timed(_run_reference, calls)
    memoised_times = []
    for _ in range(3):
        _cp_lower.cache_clear()
        _cp_upper.cache_clear()
        elapsed, actual = _timed(_run_memoised, calls)
        assert actual == expected
        memoised_times.append(elapsed)
    memoised_s = min(memoised_times)
    speedup = reference_s / memoised_s
    print(
        f"\nherman-verify bound set, 48 calls (10 distinct) at n={TRIALS}: "
        f"reference 200-step bisection {reference_s:.2f} s, memoised "
        f"bisection from a cold memo {memoised_s:.3f} s (best of 3): "
        f"{speedup:.1f}x the reference's speed"
    )
    assert speedup >= MIN_SPEEDUP
