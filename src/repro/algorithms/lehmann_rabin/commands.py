"""The Lehmann-Rabin-specific exact CLI subcommands.

``prove``, ``exact``, ``appendix``, and ``exhaustive`` are inherently
about the paper's Section 6.2 derivation and its regions — they have no
generic model counterpart, so their implementations live with the
algorithm and the CLI reaches them through the ``lr`` model front-end
(:func:`repro.models.lr.lr_exact_commands`).  The generic sampling
subcommands (``check``/``verify``/...) stay in :mod:`repro.cli` and
dispatch through the model registry instead.

Each function takes the parsed CLI namespace and returns a process
exit code, exactly as the historical ``repro.cli._cmd_*`` bodies did.
"""

from __future__ import annotations

import argparse


def cmd_prove(args: argparse.Namespace) -> int:
    from repro.algorithms import lehmann_rabin as lr
    from repro.analysis.reporting import banner

    chain = lr.lehmann_rabin_proof()
    print(banner("Section 6.2: the composed time bound"))
    print(chain.ledger.explain(chain.final_id))
    print(f"\nexpected-time recursion E[V] = "
          f"{lr.section_6_2_recursion().solve()}")
    print(f"overall expected-time bound   = {lr.expected_time_bound()}")
    return 0


def cmd_exact(args: argparse.Namespace) -> int:
    from repro.algorithms import lehmann_rabin as lr
    from repro.algorithms.lehmann_rabin.exhaustive import LEAF_SPECS
    from repro.analysis.reporting import banner, format_table
    from repro.mdp.bounded import min_reach_over_starts
    from repro.parallel.seeds import rng_from_seed

    automaton = lr.lehmann_rabin_automaton(args.n)
    view = lr.LRProcessView(args.n)
    rng = rng_from_seed(args.seed)
    print(banner(f"Exact round-synchronous minima, ring size {args.n}"))
    rows = []
    failures = 0
    for name, (region, target, rounds, bound) in LEAF_SPECS.items():
        starts = lr.sample_states_in(region, args.n, args.states, rng)
        worst, _ = min_reach_over_starts(
            automaton, view, target, starts, rounds,
            strip_time=lambda s: s.untimed(),
        )
        holds = worst >= bound
        failures += not holds
        rows.append((name, rounds, str(bound), str(worst),
                     "ok" if holds else "FAILS"))
    print(format_table(
        ("proposition", "rounds", "paper bound", "exact worst min",
         "verdict"),
        rows,
    ))
    return 1 if failures else 0


def cmd_appendix(args: argparse.Namespace) -> int:
    from repro.algorithms.lehmann_rabin import appendix as ap
    from repro.analysis.reporting import banner, format_table

    lemmas = [
        *ap.conditional_lemmas(args.n), *ap.probabilistic_lemmas(args.n)
    ]
    print(banner(f"Appendix lemmas, exactly, ring size {args.n}"))
    rows = []
    failures = 0
    for lemma in lemmas:
        result = ap.check_lemma(lemma, args.n)
        failures += not result.holds
        claim = f"t={lemma.time_bound}"
        if isinstance(lemma, ap.ProbabilisticLemma):
            claim += f", p>={lemma.probability}"
        rows.append((result.name, result.states_checked, claim,
                     str(result.worst_value),
                     "ok" if result.holds else "FAILS"))
    print(format_table(
        ("lemma", "states", "claim", "exact worst value", "verdict"), rows
    ))
    return 1 if failures else 0


def cmd_exhaustive(args: argparse.Namespace) -> int:
    from repro.algorithms.lehmann_rabin.exhaustive import (
        LEAF_SPECS,
        exhaustive_composed_check,
        exhaustive_leaf_check,
    )
    from repro.analysis.reporting import banner, format_table

    print(banner("Exhaustive verification over entire regions (n = 3)"))
    results = [exhaustive_leaf_check(name, 3) for name in sorted(LEAF_SPECS)]
    if args.composed:
        results.append(exhaustive_composed_check(3, rounds=13))
    print(format_table(
        ("proposition", "region", "states", "paper bound",
         "exhaustive min", "verdict"),
        [
            (result.name, result.region, result.states_checked,
             str(result.bound), str(result.exact_minimum),
             "ok" if result.holds else "FAILS")
            for result in results
        ],
    ))
    return 0 if all(result.holds for result in results) else 1
