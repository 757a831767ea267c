"""Exact model checking of the paper's bounds, end to end.

A guided tour of the exact machinery (the strongest checks in this
reproduction): backward induction over every round-synchronous
Unit-Time strategy for (i) the five leaf arrows, (ii) a conditional
appendix lemma, (iii) the composed statement, and (iv) the exact
worst-case *expected* progress time — all on a ring of three.

Run:  python examples/exact_model_checking.py
"""

from __future__ import annotations

import random
from fractions import Fraction

from repro.algorithms import lehmann_rabin as lr
from repro.algorithms.lehmann_rabin import appendix as ap
from repro.analysis.reporting import banner, format_table
from repro.mdp.bounded import min_reach_probability_rounds
from repro.mdp.expected_time import extremal_expected_time_rounds


def strip(state):
    return state.untimed()


def main() -> None:
    n = 3
    automaton = lr.lehmann_rabin_automaton(n)
    view = lr.LRProcessView(n)
    rng = random.Random(0)

    print(banner("(i) Leaf arrows: exact minima over every strategy"))
    cases = [
        ("A.1  P --1-->_1 C", lr.P_CLASS, lr.in_critical, 1, Fraction(1)),
        (
            "A.14 F --2-->_1/2 G|P", lr.F_CLASS,
            lambda s: lr.in_good(s) or lr.in_pre_critical(s),
            2, Fraction(1, 2),
        ),
        ("A.11 G --5-->_1/4 P", lr.G_CLASS, lr.in_pre_critical, 5,
         Fraction(1, 4)),
    ]
    rows = []
    for name, region, target, rounds, bound in cases:
        starts = lr.sample_states_in(region, n, 5, rng)
        worst = min(
            min_reach_probability_rounds(
                automaton, view, target, s, rounds, strip
            )
            for s in starts
        )
        rows.append((name, str(bound), str(worst)))
        assert worst >= bound
    print(format_table(("claim", "paper bound", "exact worst min"), rows))

    print("\n" + banner("(ii) A conditional appendix lemma, exactly"))
    lemma = ap.lemma_a9(n)
    result = ap.check_lemma(lemma, n)
    print(
        f"{result.name}: {result.states_checked} hypothesis states, "
        f"max counterexample probability = {result.worst_value} "
        f"({'holds' if result.holds else 'FAILS'})"
    )

    print("\n" + banner("(iii) The composed statement, exactly"))
    start = lr.canonical_states(n)["all_flip"]
    worst = min_reach_probability_rounds(
        automaton, view, lr.in_critical, start, 13, strip
    )
    print(f"exact min P[T --13--> C] from {start!r}: {worst} (claim >= 1/8)")

    print("\n" + banner("(iv) Exact worst-case expected progress time"))
    for name in ("all_flip", "one_trying"):
        state = lr.canonical_states(n)[name]
        value = extremal_expected_time_rounds(
            automaton, view, lr.in_critical, state, strip, maximise=True
        )
        print(f"{name}: {value:.4f} (paper bound: 63)")


if __name__ == "__main__":
    main()
