"""Lehmann-Rabin end to end: proof chain, simulation, measured bounds.

Reconstructs the Section 6.2 derivation of ``T --13-->_{1/8} C``,
verifies each leaf statement by Monte-Carlo sampling under a family of
hostile Unit-Time adversaries, and measures time-to-critical against
the paper's expected-time bound of 63.

Run:  python examples/lehmann_rabin_progress.py [ring_size]
"""

from __future__ import annotations

import sys

from repro.algorithms import lehmann_rabin as lr
from repro.analysis.montecarlo import (
    check_all_leaves,
    check_statement,
    measure_expected_time,
)
from repro.analysis.reporting import banner, format_table
from repro.models import get_model


def main(n: int = 3) -> None:
    print(banner(f"Lehmann-Rabin Dining Philosophers, ring size {n}"))

    chain = lr.lehmann_rabin_proof()
    print("\nDerivation of the composed time bound:")
    print(chain.ledger.explain(chain.final_id))
    print(f"\nExpected-time bound (Section 6.2 recursion): "
          f"{lr.expected_time_bound()}")

    setup = get_model("lr").build(n)

    print("\n" + banner("Leaf statements (Monte-Carlo, hostile adversaries)"))
    reports = check_all_leaves(setup, samples_per_pair=80)
    rows = []
    for name, report in sorted(reports.items()):
        statement = report.statement
        rows.append(
            (
                f"Prop {name}",
                repr(statement),
                f"{report.min_estimate:.3f}",
                f"{float(statement.probability):.3f}",
                "REFUTED" if report.refuted else "ok",
            )
        )
    print(format_table(
        ("claim", "statement", "worst estimate", "claimed >=", "verdict"), rows
    ))

    print("\n" + banner("Composed statement T --13-->_1/8 C"))
    final_report = check_statement(
        chain.final_statement, setup, samples_per_pair=80
    )
    print(final_report.summary_line())

    print("\n" + banner("Expected time to the critical region (bound: 63)"))
    time_reports = measure_expected_time(setup, samples=80)
    rows = [
        (
            name,
            f"{report.mean:.2f}" if report.times else "n/a",
            str(report.maximum) if report.times else "n/a",
            report.unreached,
        )
        for name, report in sorted(time_reports.items())
    ]
    print(format_table(
        ("adversary", "mean time to C", "max time to C", "unreached"), rows
    ))


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 3)
