"""E13: the appendix lemmas, exactly (A.2, A.4–A.10, A.12, A.13).

The deepest-fidelity experiment of the reproduction: every conditional
lemma of the paper's appendix is checked with *zero tolerance* — the
maximum probability of a counterexample execution (conditioning
``first(flip, ·)`` events satisfied, conclusion missed within the time
bound), over every hypothesis state (enumerated exhaustively from the
Lemma 6.1-consistent combinations) and every round-synchronous
Unit-Time strategy, must be exactly 0.  The probabilistic lemmas A.12
and A.13 are checked against their 1/2 bounds the same way; A.12's
bound is attained exactly (the paper's constant is tight there).
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.algorithms.lehmann_rabin import appendix as ap
from repro.analysis.reporting import format_table

LEMMA_IDS = [lemma.name for lemma in ap.conditional_lemmas(3)]


@pytest.mark.parametrize("index", range(len(LEMMA_IDS)), ids=LEMMA_IDS)
def test_conditional_lemma_exact(benchmark, index):
    lemma = ap.conditional_lemmas(3)[index]
    result = benchmark.pedantic(
        ap.check_lemma, args=(lemma, 3), rounds=1, iterations=1
    )
    print(
        f"\n{result.name}: {result.states_checked} hypothesis states, "
        f"max counterexample probability {result.worst_value}"
    )
    assert result.holds


@pytest.mark.parametrize("which", ["A.12", "A.13"])
def test_probabilistic_lemma_exact(benchmark, which):
    lemma = (
        ap.lemma_a12(3) if which == "A.12" else ap.lemma_a13(3)
    )
    result = benchmark.pedantic(
        ap.check_lemma, args=(lemma, 3), rounds=1, iterations=1
    )
    print(
        f"\n{result.name}: {result.states_checked} hypothesis states, "
        f"exact worst success probability {result.worst_value} "
        f"(claimed >= {lemma.probability})"
    )
    assert result.holds
    if which == "A.12":
        # The paper's bound is exactly attained: 1/2 is tight.
        assert result.worst_value == Fraction(1, 2)


def test_appendix_summary_table(benchmark):
    def run():
        rows = []
        for lemma in ap.conditional_lemmas(3):
            result = ap.check_lemma(lemma, 3)
            rows.append(
                (
                    result.name,
                    result.states_checked,
                    f"t={lemma.time_bound}",
                    str(result.worst_value),
                    "holds" if result.holds else "FAILS",
                )
            )
        for lemma in ap.probabilistic_lemmas(3):
            result = ap.check_lemma(lemma, 3)
            rows.append(
                (
                    result.name,
                    result.states_checked,
                    f"t={lemma.time_bound}, p>={lemma.probability}",
                    str(result.worst_value),
                    "holds" if result.holds else "FAILS",
                )
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(
        format_table(
            ("lemma", "hypothesis states", "claim", "exact worst value",
             "verdict"),
            rows,
        )
    )
    assert all(row[4] == "holds" for row in rows)
