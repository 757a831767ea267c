"""E12: exact worst-case probabilities over round-synchronous adversaries.

Backward induction over *every* scheduling choice of the
round-synchronous Unit-Time subclass — the strongest check this
reproduction performs.  For each leaf proposition and for the composed
statement, the exact minimum over the subclass must dominate the
paper's bound (and since the subclass is part of Unit-Time, falling
below the bound would be a genuine counterexample to the paper).
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from repro.algorithms import lehmann_rabin as lr
from repro.algorithms.lehmann_rabin.exhaustive import LEAF_SPECS
from repro.analysis.reporting import format_table
from repro.mdp.bounded import min_reach_over_starts


def exact_min_over(setup, region, target, rounds, count, seed):
    starts = lr.sample_states_in(region, setup.n, count, random.Random(seed))
    return min_reach_over_starts(
        setup.automaton, setup.view, target, starts, rounds,
        strip_time=lambda s: s.untimed(),
    )


@pytest.mark.parametrize(
    "name,region,target,rounds,bound",
    [(name, *spec) for name, spec in LEAF_SPECS.items()],
    ids=[f"exact_{name}" for name in LEAF_SPECS],
)
def test_exact_leaf_bounds_n3(benchmark, setup3, name, region, target,
                              rounds, bound):
    value, witness = benchmark.pedantic(
        exact_min_over,
        args=(setup3, region, target, rounds, 8, hash(name) % 1000),
        rounds=1,
        iterations=1,
    )
    print(f"\nexact min for {name}: {value} (claimed >= {bound}) "
          f"worst start {witness!r}")
    assert value >= bound


def test_exact_composed_bound_n3(benchmark, setup3):
    """T --13-->_1/8 C, exact over the subclass, sampled T states."""
    value, witness = benchmark.pedantic(
        exact_min_over,
        args=(setup3, lr.T_CLASS, lr.in_critical, 13, 6, 99),
        rounds=1,
        iterations=1,
    )
    print(f"\nexact min for composed statement: {value} "
          f"(claimed >= 1/8) worst start {witness!r}")
    assert value >= Fraction(1, 8)


def test_exact_A14_n4(benchmark, setup4):
    """The F arrow exactly on a ring of four."""
    region, target, rounds, bound = LEAF_SPECS["A.14"]
    value, witness = benchmark.pedantic(
        exact_min_over,
        args=(setup4, region, target, rounds, 4, 7),
        rounds=1,
        iterations=1,
    )
    print(f"\nexact min for A.14 on n=4: {value} (claimed >= {bound})")
    assert value >= bound


def test_exact_A11_n4(benchmark, setup4):
    """The G arrow exactly on a ring of four."""
    region, target, rounds, bound = LEAF_SPECS["A.11"]
    value, witness = benchmark.pedantic(
        exact_min_over,
        args=(setup4, region, target, rounds, 3, 11),
        rounds=1,
        iterations=1,
    )
    print(f"\nexact min for A.11 on n=4: {value} (claimed >= {bound})")
    assert value >= bound


def test_exact_values_table(setup3):
    """A summary table of the exact minima (no timing)."""
    rows = []
    for name, (region, target, rounds, bound) in LEAF_SPECS.items():
        value, _ = exact_min_over(setup3, region, target, rounds, 6, 3)
        rows.append((name, str(rounds), str(bound), str(value)))
    print()
    print(
        format_table(
            ("proposition", "rounds", "paper bound", "exact worst min"),
            rows,
        )
    )
