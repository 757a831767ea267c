"""E1-E5: the five leaf arrow statements of Section 6.2 (appendix).

For each proposition the bench measures the worst-case success
probability over the hostile Unit-Time adversary family and asserts the
paper's lower bound:

    E1 (A.1)  P  --1-->_1    C
    E2 (A.3)  T  --2-->_1    RT | C
    E3 (A.15) RT --3-->_1    F | G | P
    E4 (A.14) F  --2-->_1/2  G | P
    E5 (A.11) G  --5-->_1/4  P
"""

from __future__ import annotations

import pytest

from repro.algorithms import lehmann_rabin as lr
from repro.analysis.montecarlo import check_statement
from repro.analysis.reporting import format_table

SAMPLES = 100


def run_leaf(setup, name):
    statement = lr.leaf_statements()[name]
    report = check_statement(
        statement, setup, samples_per_pair=SAMPLES, random_starts=4,
        max_steps=400,
    )
    return statement, report


def check_and_report(statement, report):
    print()
    print(report.summary_line())
    rows = [
        (check.adversary_name, repr(check.start_state), f"{check.estimate:.3f}")
        for check in sorted(report.checks, key=lambda c: c.estimate)[:5]
    ]
    print(format_table(("adversary", "start state", "estimate"), rows))
    assert not report.refuted, report.summary_line()
    # The deterministic (probability-1) arrows must be observed exactly.
    if float(statement.probability) == 1.0:
        assert report.min_estimate == 1.0


@pytest.mark.parametrize(
    "name",
    ["A.1", "A.3", "A.15", "A.14", "A.11"],
    ids=["E1_P_to_C", "E2_T_to_RTC", "E3_RT_to_FGP", "E4_F_to_GP",
         "E5_G_to_P"],
)
def test_leaf_arrow(benchmark, setup3, name):
    statement, report = benchmark.pedantic(
        run_leaf, args=(setup3, name), rounds=1, iterations=1
    )
    check_and_report(statement, report)


@pytest.mark.parametrize(
    "name", ["A.14", "A.11"], ids=["E4_F_to_GP_n4", "E5_G_to_P_n4"]
)
def test_leaf_arrow_ring4(benchmark, setup4, name):
    """The probabilistic leaves again on a ring of 4 (bound is n-free)."""
    statement, report = benchmark.pedantic(
        run_leaf, args=(setup4, name), rounds=1, iterations=1
    )
    check_and_report(statement, report)
