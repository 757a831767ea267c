"""Unit tests for the exact MDP checkers."""

from __future__ import annotations

import gc
import random
from fractions import Fraction

import pytest

from repro.algorithms import lehmann_rabin as lr
from repro.errors import VerificationError
from repro.mdp.bounded import min_reach_over_starts, min_reach_probability_rounds
from repro.mdp.value_iteration import bounded_reachability, unbounded_reachability


class TestBoundedReachability:
    def test_coin_walk_values(self, coin_walk):
        goal = lambda s: s == "goal"
        # 0 steps: not there yet.
        assert bounded_reachability(coin_walk, goal, "start", 0) == 0
        # 2 steps: succeed both coins in a row: 1/4.
        assert bounded_reachability(coin_walk, goal, "start", 2) == Fraction(1, 4)
        # 4 steps: 11/16 (two geometric successes within 4 trials).
        assert bounded_reachability(coin_walk, goal, "start", 4) == Fraction(11, 16)

    def test_target_start_state_is_one(self, coin_walk):
        assert bounded_reachability(
            coin_walk, lambda s: s == "start", "start", 0
        ) == 1

    def test_min_vs_max_on_branching(self, branching_automaton):
        target = lambda s: s == "s1"
        # The Section 2 example: min over the two steps is 1/3, max 1/2.
        assert bounded_reachability(
            branching_automaton, target, "s0", 1, minimise=True
        ) == Fraction(1, 3)
        assert bounded_reachability(
            branching_automaton, target, "s0", 1, minimise=False
        ) == Fraction(1, 2)

    def test_terminal_state_contributes_zero(self, branching_automaton):
        assert bounded_reachability(
            branching_automaton, lambda s: s == "s0", "s1", 5
        ) == 0

    def test_negative_steps_rejected(self, coin_walk):
        with pytest.raises(VerificationError):
            bounded_reachability(coin_walk, lambda s: False, "start", -1)

    def test_monotone_in_horizon(self, coin_walk):
        goal = lambda s: s == "goal"
        values = [
            bounded_reachability(coin_walk, goal, "start", k)
            for k in range(8)
        ]
        assert values == sorted(values)


class TestUnboundedReachability:
    def test_eventual_reach_is_one(self, coin_walk):
        value = unbounded_reachability(
            coin_walk, lambda s: s == "goal", "start"
        )
        assert value == pytest.approx(1.0, abs=1e-9)

    def test_unreachable_target_is_zero(self, coin_walk):
        value = unbounded_reachability(
            coin_walk, lambda s: s == "nowhere", "start"
        )
        assert value == 0.0

    def test_min_on_branching_with_absorbing_choice(self, branching_automaton):
        # From s0, minimising over {a: 1/2, b: 1/3} one-shot choices.
        value = unbounded_reachability(
            branching_automaton, lambda s: s == "s1", "s0", minimise=True
        )
        assert value == pytest.approx(1 / 3, abs=1e-9)

    def test_unreachable_start_rejected(self, coin_walk):
        with pytest.raises(VerificationError):
            unbounded_reachability(coin_walk, lambda s: False, "nowhere")


class TestRoundSynchronousRecursion:
    @pytest.fixture
    def ring3(self):
        return lr.lehmann_rabin_automaton(3), lr.LRProcessView(3)

    def test_pre_critical_reaches_c_in_one_round(self, ring3):
        automaton, view = ring3
        start = lr.canonical_states(3)["pre_critical"]
        value = min_reach_probability_rounds(
            automaton, view, lr.in_critical, start, 1,
            strip_time=lambda s: s.untimed(),
        )
        assert value == 1

    def test_zero_rounds_no_progress(self, ring3):
        automaton, view = ring3
        start = lr.canonical_states(3)["pre_critical"]
        value = min_reach_probability_rounds(
            automaton, view, lr.in_critical, start, 0,
            strip_time=lambda s: s.untimed(),
        )
        assert value == 0

    def test_target_at_start_is_one(self, ring3):
        automaton, view = ring3
        start = lr.canonical_states(3)["pre_critical"]
        value = min_reach_probability_rounds(
            automaton, view, lr.in_pre_critical, start, 0,
            strip_time=lambda s: s.untimed(),
        )
        assert value == 1

    def test_monotone_in_rounds(self, ring3):
        automaton, view = ring3
        start = lr.canonical_states(3)["all_flip"]
        values = [
            min_reach_probability_rounds(
                automaton, view, lr.in_critical, start, k,
                strip_time=lambda s: s.untimed(),
            )
            for k in range(5)
        ]
        assert values == sorted(values)

    def test_negative_rounds_rejected(self, ring3):
        automaton, view = ring3
        start = lr.canonical_states(3)["all_flip"]
        with pytest.raises(VerificationError):
            min_reach_probability_rounds(
                automaton, view, lr.in_critical, start, -1,
                strip_time=lambda s: s.untimed(),
            )

    def test_min_reach_over_starts_returns_witness(self, ring3):
        automaton, view = ring3
        states = [
            lr.canonical_states(3)["pre_critical"],   # reaches C surely
            lr.canonical_states(3)["all_flip"],       # needs luck
        ]
        probability, witness = min_reach_over_starts(
            automaton, view, lr.in_critical, states, 2,
            strip_time=lambda s: s.untimed(),
        )
        assert witness == states[1]
        assert probability < 1

    def test_min_reach_over_starts_empty_rejected(self, ring3):
        automaton, view = ring3
        with pytest.raises(VerificationError):
            min_reach_over_starts(
                automaton, view, lr.in_critical, [], 2,
                strip_time=lambda s: s.untimed(),
            )

    @pytest.mark.parametrize("collecting", (True, False))
    def test_a_sweep_runs_no_collection(self, ring3, collecting):
        # The memo is a heap of acyclic tuples: the sweep pauses the
        # cyclic collector, restores its prior state and freezes nothing.
        automaton, view = ring3
        starts = list(lr.canonical_states(3).values())
        paused, collections = [], []

        def target(state):
            paused.append(not gc.isenabled())
            return lr.in_critical(state)

        def watch(phase, info):
            if phase == "start":
                collections.append(info["generation"])

        if not collecting:
            gc.disable()
        gc.callbacks.append(watch)
        try:
            min_reach_over_starts(
                automaton, view, target, starts, 6,
                strip_time=lambda s: s.untimed(),
            )
            restored = gc.isenabled()
        finally:
            gc.callbacks.remove(watch)
            gc.enable()
        assert paused and all(paused)
        assert collections == []
        assert restored is collecting
        assert gc.get_freeze_count() == 0

    def test_long_horizon_unreachable_target(self):
        # 200 rounds nest far deeper than the interpreter's recursion
        # limit; the induction runs on an explicit stack.
        from repro.algorithms import ordered as od

        automaton = od.ordered_automaton(2)
        view = od.OrderedProcessView(2)
        start = od.ordered_initial_state(2)
        value = min_reach_probability_rounds(
            automaton, view, lambda s: False, start, 200,
            strip_time=lambda s: s.untimed(),
        )
        assert value == 0
        counterexample = 1 - min_reach_probability_rounds(
            automaton, view, lambda s: False, start, 200,
            strip_time=lambda s: s.untimed(), watched={},
        )
        assert counterexample == 1

    def test_long_horizon_is_monotone(self, ring3):
        automaton, view = ring3
        start = lr.canonical_states(3)["all_flip"]
        short, long = (
            min_reach_probability_rounds(
                automaton, view, lr.in_critical, start, rounds,
                strip_time=lambda s: s.untimed(),
            )
            for rounds in (80, 160)
        )
        assert long >= short

    def test_states_evaluated_counts_each_memo_entry_once(self):
        # The A.11 sweep shares one memo over its 1,044 G starts; the
        # counter must add up to that table's size, not re-count it
        # on every start.
        from repro import obs
        from repro.algorithms.lehmann_rabin.exhaustive import (
            LEAF_SPECS,
            all_consistent_states,
            exhaustive_leaf_check,
        )

        with obs.recording() as registry:
            exhaustive_leaf_check("A.11", 3)
        counters = registry.metrics.snapshot()["counters"]
        region, target, rounds, _ = LEAF_SPECS["A.11"]
        automaton, view = lr.lehmann_rabin_automaton(3), lr.LRProcessView(3)
        memo = {}
        starts = [s for s in all_consistent_states(3) if region.contains(s)]
        for start in starts:
            min_reach_probability_rounds(
                automaton, view, target, start, rounds,
                strip_time=lambda s: s.untimed(), memo=memo,
            )
        assert counters["mdp.bounded_rounds.calls"] == len(starts)
        assert counters["mdp.bounded_rounds.states_evaluated"] == len(memo)

    def test_adversary_cannot_beat_paper_bound_on_G(self, ring3):
        # Proposition A.11 exactly: from a sampled G state, the worst
        # round-synchronous adversary still reaches P within 5 rounds
        # with probability >= 1/4.
        automaton, view = ring3
        rng = random.Random(5)
        for start in lr.sample_states_in(lr.G_CLASS, 3, 3, rng):
            value = min_reach_probability_rounds(
                automaton, view, lr.in_pre_critical, start, 5,
                strip_time=lambda s: s.untimed(),
            )
            assert value >= Fraction(1, 4)
