"""E6: the composed statement ``T --13-->_{1/8} C`` (Section 6.2).

Reproduces the paper's headline result two ways:

* the ledger re-derivation (Proposition 3.2 + Theorem 3.4 applied to the
  five leaves must yield exactly ``T --13-->_1/8 C``), and
* a Monte-Carlo check of the composed statement itself under the
  hostile adversary family — the worst observed success probability
  must not refute 1/8 (it is in fact far higher; the paper's bound is
  deliberately loose).
"""

from __future__ import annotations

from fractions import Fraction

from repro.algorithms import lehmann_rabin as lr
from repro.analysis.montecarlo import check_statement


def derive():
    return lr.lehmann_rabin_proof()


def test_ledger_derivation(benchmark):
    chain = benchmark(derive)
    final = chain.final_statement
    assert final.source == lr.T_CLASS
    assert final.target == lr.C_CLASS
    assert final.time_bound == 13
    assert final.probability == Fraction(1, 8)
    print()
    print(chain.ledger.explain(chain.final_id))


def test_composed_statement_monte_carlo(benchmark, setup3):
    chain = lr.lehmann_rabin_proof()

    def run():
        return check_statement(
            chain.final_statement, setup3, samples_per_pair=100,
            random_starts=4, max_steps=600,
        )

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(report.summary_line())
    assert not report.refuted
    assert report.min_estimate >= 0.125


def test_composed_statement_ring4(benchmark, setup4):
    chain = lr.lehmann_rabin_proof()

    def run():
        return check_statement(
            chain.final_statement, setup4, samples_per_pair=60,
            random_starts=3, max_steps=800,
        )

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(report.summary_line())
    assert not report.refuted
    assert report.min_estimate >= 0.125
