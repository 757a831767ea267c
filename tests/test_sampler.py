"""Unit tests for the Monte-Carlo execution sampler."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from repro.adversary.deterministic import (
    FirstEnabledAdversary,
    StoppingAdversary,
)
from repro.adversary.search import HashedRandomRoundPolicy
from repro.adversary.unit_time import FifoRoundPolicy, RoundBasedAdversary
from repro.algorithms import lehmann_rabin as lr
from repro.automaton.automaton import ExplicitAutomaton
from repro.automaton.execution import ExecutionFragment
from repro.automaton.signature import ActionSignature
from repro.automaton.transition import Transition
from repro.errors import VerificationError
from repro.events.first import FirstOccurrence
from repro.events.reach import (
    EventuallyReach,
    ReachWithinSteps,
    ReachWithinTime,
    step_counting_time,
)
from repro.execution.sampler import sample_event, sample_time_until


def initial(state):
    return ExecutionFragment.initial(state)


def spin_loop():
    """One state ``a`` whose only step loops back to it."""
    return ExplicitAutomaton(
        ["a"], ["a"],
        ActionSignature(internal={"spin"}),
        [Transition.deterministic("a", "spin", "a")],
    )


class TestSampleEvent:
    def test_decided_accept(self, coin_walk):
        rng = random.Random(0)
        result = sample_event(
            coin_walk, FirstEnabledAdversary(), initial("start"),
            EventuallyReach(lambda s: s == "goal"), rng, max_steps=1000,
        )
        assert result.verdict is True
        assert not result.truncated

    def test_decided_reject(self, coin_walk):
        rng = random.Random(0)
        result = sample_event(
            coin_walk, FirstEnabledAdversary(), initial("start"),
            ReachWithinSteps(lambda s: False, 3), rng, max_steps=1000,
        )
        assert result.verdict is False

    def test_truncation_reports_none(self):
        rng = random.Random(0)
        result = sample_event(
            spin_loop(), FirstEnabledAdversary(), initial("a"),
            EventuallyReach(lambda s: False), rng, max_steps=5,
        )
        assert result.verdict is None
        assert result.truncated
        assert result.steps == 5

    def test_halting_adversary_triggers_maximal_rule(self, coin_walk):
        rng = random.Random(0)
        result = sample_event(
            coin_walk,
            StoppingAdversary(FirstEnabledAdversary(), max_steps=0),
            initial("start"),
            FirstOccurrence("hop1", lambda s: False),
            rng,
            max_steps=100,
        )
        # hop1 never occurred, so first(...) holds vacuously.
        assert result.verdict is True

    def test_seed_determinism(self, coin_walk):
        schema = ReachWithinSteps(lambda s: s == "goal", 6)
        runs = []
        for _ in range(2):
            rng = random.Random(42)
            runs.append(
                [
                    sample_event(
                        coin_walk, FirstEnabledAdversary(), initial("start"),
                        schema, rng, 50,
                    ).verdict
                    for _ in range(20)
                ]
            )
        assert runs[0] == runs[1]

    def test_frequency_matches_exact_probability(self, coin_walk):
        # P[reach goal within 4 steps] = 11/16 = 0.6875.
        schema = ReachWithinSteps(lambda s: s == "goal", 4)
        rng = random.Random(7)
        hits = sum(
            sample_event(
                coin_walk, FirstEnabledAdversary(), initial("start"),
                schema, rng, 50,
            ).verdict
            for _ in range(3000)
        )
        assert 0.66 < hits / 3000 < 0.72

    def test_negative_budget_rejected(self, coin_walk):
        with pytest.raises(VerificationError):
            sample_event(
                coin_walk, FirstEnabledAdversary(), initial("start"),
                EventuallyReach(lambda s: False), random.Random(0), -1,
            )


class TestLinearWalk:
    """The walk classifies each new state with ``classify_step``, so one
    sample evaluates a reach schema's target once per state it reaches
    (re-classifying the whole fragment per step is quadratic)."""

    @pytest.mark.parametrize("make_schema", [
        lambda hit: ReachWithinTime(hit, 1, step_counting_time),
        lambda hit: ReachWithinSteps(hit, 1000),
        EventuallyReach,
    ], ids=["within-time", "within-steps", "eventually"])
    def test_target_evaluated_once_per_state(self, make_schema):
        calls = []

        def hit(state):
            calls.append(state)
            return False

        result = sample_event(
            spin_loop(), FirstEnabledAdversary(), initial("a"),
            make_schema(hit), random.Random(0), max_steps=50,
        )
        assert result.truncated
        assert len(result.final.states) == 51
        assert len(calls) <= len(result.final.states)

    @pytest.mark.parametrize("policy", ["hashed", "fifo"])
    def test_history_rendered_once_per_state(self, monkeypatch, policy):
        # A history-hashing adversary digests the fragment at every
        # decision; each state is rendered once, when it joins the
        # fragment.  A Markov adversary never digests, so nothing is.
        automaton = lr.lehmann_rabin_automaton(3)
        start = initial(lr.canonical_states(3)["all_flip"])
        chosen = (
            HashedRandomRoundPolicy(3) if policy == "hashed"
            else FifoRoundPolicy()
        )
        adversary = RoundBasedAdversary(lr.LRProcessView(3), chosen)
        calls = []
        render = lr.LRState.__repr__

        def counting(state):
            calls.append(state)
            return render(state)

        monkeypatch.setattr(lr.LRState, "__repr__", counting)
        result = sample_event(
            automaton, adversary, start, EventuallyReach(lambda s: False),
            random.Random(0), max_steps=60,
        )
        assert result.truncated and result.steps == 60
        if policy == "hashed":
            assert 0 < len(calls) <= result.steps + 1
        else:
            assert calls == []


class TestSampleTimeUntil:
    @staticmethod
    def step_time(state):
        # The coin_walk is untimed; count nothing (time stays 0).
        return Fraction(0)

    def test_already_at_target_is_zero(self, coin_walk):
        elapsed = sample_time_until(
            coin_walk, FirstEnabledAdversary(), initial("goal"),
            lambda s: s == "goal", self.step_time, random.Random(0), 10,
        )
        assert elapsed == 0

    def test_reaches_and_reports_elapsed(self, coin_walk):
        elapsed = sample_time_until(
            coin_walk, FirstEnabledAdversary(), initial("start"),
            lambda s: s == "goal", self.step_time, random.Random(0), 10_000,
        )
        assert elapsed == 0  # untimed clock never advances

    def test_unreached_returns_none(self, coin_walk):
        elapsed = sample_time_until(
            coin_walk, FirstEnabledAdversary(), initial("start"),
            lambda s: False, self.step_time, random.Random(0), 20,
        )
        assert elapsed is None

    def test_halting_adversary_returns_none(self, coin_walk):
        elapsed = sample_time_until(
            coin_walk,
            StoppingAdversary(FirstEnabledAdversary(), max_steps=0),
            initial("start"),
            lambda s: s == "goal", self.step_time, random.Random(0), 100,
        )
        assert elapsed is None

    def test_timed_clock_measured_from_start_fragment(self):
        from repro.algorithms import lehmann_rabin as lr
        from repro.adversary.unit_time import (
            FifoRoundPolicy,
            RoundBasedAdversary,
        )

        n = 3
        automaton = lr.lehmann_rabin_automaton(n)
        adversary = RoundBasedAdversary(
            lr.LRProcessView(n), FifoRoundPolicy()
        )
        start = lr.canonical_states(n)["pre_critical"]
        elapsed = sample_time_until(
            automaton, adversary, initial(start), lr.in_critical,
            lr.lr_time_of, random.Random(0), 100,
        )
        # A pre-critical process takes crit within its first round.
        assert elapsed == 0

    def test_negative_budget_rejected(self, coin_walk):
        with pytest.raises(VerificationError):
            sample_time_until(
                coin_walk, FirstEnabledAdversary(), initial("start"),
                lambda s: False, self.step_time, random.Random(0), -2,
            )

