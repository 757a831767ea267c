"""Integration tests: the paper's claims checked end to end.

These tie the whole stack together — the Lehmann-Rabin automaton, the
Unit-Time adversaries, the event machinery, the exact round-synchronous
checker, and the proof ledger — on the actual statements of Section 6.2.
Parameters are kept small enough to run in seconds; the benchmarks run
the same checks at full scale.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from repro.algorithms import lehmann_rabin as lr
from repro.analysis.montecarlo import check_statement
from repro.mdp.bounded import min_reach_probability_rounds
from repro.models import get_model


def strip(state):
    return state.untimed()


@pytest.fixture(scope="module")
def ring3():
    return lr.lehmann_rabin_automaton(3), lr.LRProcessView(3)


class TestLeafStatementsExactly:
    """Exact worst-case round-synchronous checks of each proposition
    on sampled start states (n = 3)."""

    def exact_min(self, ring3, target, starts, rounds):
        automaton, view = ring3
        return min(
            min_reach_probability_rounds(
                automaton, view, target, start, rounds, strip
            )
            for start in starts
        )

    def test_prop_A1_exact(self, ring3):
        starts = lr.sample_states_in(lr.P_CLASS, 3, 4, random.Random(0))
        assert self.exact_min(ring3, lr.in_critical, starts, 1) == 1

    def test_prop_A3_exact(self, ring3):
        target = lambda s: lr.in_reduced_trying(s) or lr.in_critical(s)
        starts = lr.sample_states_in(lr.T_CLASS, 3, 4, random.Random(1))
        assert self.exact_min(ring3, target, starts, 2) == 1

    def test_prop_A15_exact(self, ring3):
        target = lambda s: (
            lr.in_flip_ready(s) or lr.in_good(s) or lr.in_pre_critical(s)
        )
        starts = lr.sample_states_in(lr.RT_CLASS, 3, 4, random.Random(2))
        assert self.exact_min(ring3, target, starts, 3) == 1

    def test_prop_A14_exact(self, ring3):
        target = lambda s: lr.in_good(s) or lr.in_pre_critical(s)
        starts = lr.sample_states_in(lr.F_CLASS, 3, 4, random.Random(3))
        assert self.exact_min(ring3, target, starts, 2) >= Fraction(1, 2)

    def test_prop_A11_exact(self, ring3):
        starts = lr.sample_states_in(lr.G_CLASS, 3, 4, random.Random(4))
        assert self.exact_min(
            ring3, lr.in_pre_critical, starts, 5
        ) >= Fraction(1, 4)


class TestComposedStatement:
    def test_exact_composed_bound_on_canonical_states(self, ring3):
        """T --13-->_1/8 C, exactly, on the canonical worst states."""
        automaton, view = ring3
        states = lr.canonical_states(3)
        for name in ("all_flip", "contended", "one_trying"):
            value = min_reach_probability_rounds(
                automaton, view, lr.in_critical, states[name], 13, strip
            )
            assert value >= Fraction(1, 8), (name, value)

    def test_sampling_supports_composed_bound(self):
        setup = get_model("lr").build(3, random_seeds=(1, 2))
        chain = lr.lehmann_rabin_proof()
        report = check_statement(
            chain.final_statement, setup, samples_per_pair=40,
            random_starts=3,
        )
        assert not report.refuted
        assert report.min_estimate >= 0.125


class TestDerivationConsistency:
    def test_manual_chain_equals_module_chain(self):
        """Composing the leaves by hand (Prop 3.2 + Thm 3.4) gives the
        same statement the packaged derivation produces."""
        from repro.proofs.rules import chain as chain_rule
        from repro.proofs.rules import union_rule

        leaves = lr.leaf_statements()
        lifted_f = union_rule(leaves["A.14"], lr.G_CLASS | lr.P_CLASS)
        lifted_g = union_rule(leaves["A.11"], lr.P_CLASS)
        rt_to_c = chain_rule(
            [leaves["A.15"], lifted_f, lifted_g, leaves["A.1"]]
        )
        lifted = union_rule(rt_to_c, lr.C_CLASS)
        from repro.proofs.rules import compose

        final = compose(leaves["A.3"], lifted)
        assert final == lr.lehmann_rabin_proof().final_statement

    def test_expected_time_dominates_measurements(self):
        """The paper's 63 upper-bounds every measured mean (n = 3)."""
        from repro.analysis.montecarlo import measure_expected_time

        setup = get_model("lr").build(3, random_seeds=(5,))
        reports = measure_expected_time(setup, samples=30, max_steps=6_000)
        for name, report in reports.items():
            assert report.unreached == 0, name
            assert report.mean <= 63.0, name
