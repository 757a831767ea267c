"""E7: the expected-time bound (Section 6.2).

Reproduces:

* the recursion ``V = 1/8*10 + 1/2*(5+V1) + 3/8*(10+V2)`` solving to
  ``E[V] = 60`` and the end-to-end bound ``63 = 2 + 60 + 1``, exactly;
* measured mean and maximum time-to-critical from states of ``T`` under
  every hostile adversary — all means must sit below 63 (they sit far
  below it: the bound is loose, as the paper itself notes).
"""

from __future__ import annotations

from repro.algorithms import lehmann_rabin as lr
from repro.analysis.montecarlo import measure_expected_time
from repro.analysis.reporting import format_table
from repro.proofs.expected_time import geometric_bound


def test_recursion_solution(benchmark):
    recursion = benchmark(lr.section_6_2_recursion)
    assert recursion.solve() == 60
    assert lr.expected_time_bound() == 63


def test_geometric_bound_is_coarser(benchmark):
    chain = lr.lehmann_rabin_proof()
    bound = benchmark(geometric_bound, chain.final_statement)
    # The naive t/p bound: 13 / (1/8) = 104 -- the paper's refinement
    # (63) must beat it.
    assert bound == 104
    assert lr.expected_time_bound() < bound


def test_measured_expected_time(benchmark, setup3):
    def run():
        return measure_expected_time(setup3, samples=120, max_steps=20_000)

    reports = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = []
    for name, report in sorted(reports.items()):
        assert report.unreached == 0, name
        assert report.mean <= 63.0, (name, report.mean)
        rows.append((name, f"{report.mean:.2f}", str(report.maximum)))
    print()
    print(format_table(("adversary", "mean time to C", "max observed"), rows))


def test_exact_worst_case_expected_time(benchmark, setup3):
    """The sharpest E7 number: the *exact* worst-case expected time to
    the critical region over every round-synchronous Unit-Time
    strategy, from the canonical trying states (n = 3).  The paper's 63
    must dominate all of them (it dominates by an order of magnitude —
    the paper itself calls the bound improvable)."""
    from repro.mdp.expected_time import extremal_expected_time_rounds

    states = lr.canonical_states(3)
    names = ("all_flip", "contended", "one_trying", "with_exiter")

    def run():
        return {
            name: extremal_expected_time_rounds(
                setup3.automaton,
                setup3.view,
                lr.in_critical,
                states[name],
                lambda s: s.untimed(),
                maximise=True,
                tolerance=1e-7,
            )
            for name in names
        }

    values = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [(name, f"{value:.4f}") for name, value in values.items()]
    print()
    print(format_table(
        ("start state", "exact worst-case expected time (vs bound 63)"),
        rows,
    ))
    for name, value in values.items():
        assert value <= 63.0, (name, value)
    # The flip-everything state's exact value is 13/3.
    assert abs(values["all_flip"] - 13 / 3) < 1e-5


def test_phase_decomposition(benchmark, setup3):
    """E7b: the V-recursion's branch structure, measured.

    The paper's recursion prices one attempt from ``RT`` as: success
    (>= 1/8, time <= 10), failure at the third arrow (<= 1/2, time
    <= 5), failure at the fourth (<= 3/8, time <= 10).  Replaying that
    accounting on sampled runs, the measured frequencies must fit the
    coefficients and the branch times must respect the caps (+1 unit of
    discretisation for the crossing witness)."""
    import random

    from repro.algorithms.lehmann_rabin.phases import (
        FAIL_FOURTH,
        FAIL_THIRD,
        SUCCESS,
        sample_phase_statistics,
    )

    rng = random.Random(0)
    starts = lr.sample_states_in(lr.RT_CLASS, 3, 6, rng)

    def run():
        results = {}
        for name, adversary in setup3.adversaries:
            results[name] = sample_phase_statistics(
                setup3.automaton, adversary, starts, rng, attempts=150
            )
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = []
    for name, stats in sorted(results.items()):
        rows.append(
            (
                name,
                f"{stats.frequency(SUCCESS):.3f}",
                f"{stats.frequency(FAIL_THIRD):.3f}",
                f"{stats.frequency(FAIL_FOURTH):.3f}",
                str(stats.max_time(SUCCESS)),
            )
        )
        assert stats.respects_recursion_coefficients(), name
        assert stats.max_time(SUCCESS) <= 10, name
        assert stats.max_time(FAIL_THIRD) <= 6, name
        assert stats.max_time(FAIL_FOURTH) <= 11, name
    print()
    print(format_table(
        ("adversary", "P[success] (>=0.125)", "P[fail 3rd] (<=0.5)",
         "P[fail 4th] (<=0.375)", "max success time (<=10)"),
        rows,
    ))


def test_measured_expected_time_ring4(benchmark, setup4):
    def run():
        return measure_expected_time(setup4, samples=80, max_steps=20_000)

    reports = benchmark.pedantic(run, rounds=1, iterations=1)
    for name, report in reports.items():
        assert report.unreached == 0, name
        assert report.mean <= 63.0, (name, report.mean)
