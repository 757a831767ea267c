"""Unit tests for adversaries, shifting, and schemas."""

from __future__ import annotations

import pytest

from repro.adversary.base import (
    AdversarySchema,
    FunctionAdversary,
    ShiftedAdversary,
    all_adversaries_schema,
    shift,
)
from repro.adversary.deterministic import (
    FirstEnabledAdversary,
    RoundRobinAdversary,
    SequenceAdversary,
    StatePolicyAdversary,
    StoppingAdversary,
)
from repro.automaton.execution import ExecutionFragment
from repro.automaton.transition import Transition
from repro.errors import AdversaryError, ExecutionClosureError
from repro.parallel.seeds import derive_rng


def initial(state):
    return ExecutionFragment.initial(state)


class TestContract:
    def test_checked_choose_accepts_enabled_step(self, branching_automaton):
        adversary = FirstEnabledAdversary()
        step = adversary.checked_choose(branching_automaton, initial("s0"))
        assert step in branching_automaton.transitions("s0")

    def test_checked_choose_rejects_wrong_source(self, branching_automaton):
        rogue = FunctionAdversary(
            lambda auto, frag: auto.transitions("s0")[0], name="rogue"
        )
        with pytest.raises(AdversaryError):
            rogue.checked_choose(branching_automaton, initial("s1"))

    def test_checked_choose_rejects_foreign_step(self, branching_automaton):
        foreign = Transition.deterministic("s0", "a", "s0")
        rogue = FunctionAdversary(lambda auto, frag: foreign, name="rogue")
        with pytest.raises(AdversaryError):
            rogue.checked_choose(branching_automaton, initial("s0"))

    def test_none_means_halt(self, branching_automaton):
        halting = FunctionAdversary(lambda auto, frag: None, name="halting")
        assert halting.checked_choose(branching_automaton, initial("s0")) is None


class TestDeterministicAdversaries:
    def test_first_enabled_picks_first(self, branching_automaton):
        step = FirstEnabledAdversary().choose(branching_automaton, initial("s0"))
        assert step.action == "a"

    def test_first_enabled_halts_at_terminal(self, branching_automaton):
        assert FirstEnabledAdversary().choose(
            branching_automaton, initial("s1")
        ) is None

    def test_round_robin_cycles_by_history_length(self, branching_automaton):
        adversary = RoundRobinAdversary()
        fragment0 = initial("s0")
        assert adversary.choose(branching_automaton, fragment0).action == "a"
        fragment1 = fragment0.extend("a", "s1").extend("x", "s0")
        # Two steps of history selects index 2 mod 2 = 0 again; use a
        # one-step fragment for index 1.
        one_step = initial("s0").extend("a", "s0")
        assert adversary.choose(branching_automaton, one_step).action == "b"

    def test_stopping_adversary_halts_after_budget(self, coin_walk):
        adversary = StoppingAdversary(FirstEnabledAdversary(), max_steps=2)
        fragment = initial("start").extend("hop1", "start").extend("hop1", "middle")
        assert adversary.choose(coin_walk, fragment) is None

    def test_stopping_adversary_delegates_before_budget(self, coin_walk):
        adversary = StoppingAdversary(FirstEnabledAdversary(), max_steps=2)
        assert adversary.choose(coin_walk, initial("start")) is not None

    def test_stopping_adversary_rejects_negative_budget(self):
        with pytest.raises(AdversaryError):
            StoppingAdversary(FirstEnabledAdversary(), max_steps=-1)

    def test_sequence_adversary_plays_indices(self, branching_automaton):
        adversary = SequenceAdversary([1, 0])
        step = adversary.choose(branching_automaton, initial("s0"))
        assert step.action == "b"

    def test_sequence_adversary_halts_when_exhausted(self, branching_automaton):
        adversary = SequenceAdversary([])
        assert adversary.choose(branching_automaton, initial("s0")) is None

    def test_sequence_adversary_rejects_negative_indices(self):
        with pytest.raises(AdversaryError):
            SequenceAdversary([-1])

    def test_state_policy_adversary(self, branching_automaton):
        adversary = StatePolicyAdversary(
            lambda s: 1 if s == "s0" else None
        )
        assert adversary.choose(branching_automaton, initial("s0")).action == "b"

    def test_state_policy_halt(self, branching_automaton):
        adversary = StatePolicyAdversary(lambda s: None)
        assert adversary.choose(branching_automaton, initial("s0")) is None

    def test_state_policy_out_of_range_rejected(self, branching_automaton):
        adversary = StatePolicyAdversary(lambda s: 5)
        with pytest.raises(AdversaryError):
            adversary.choose(branching_automaton, initial("s0"))


class TestShifting:
    def test_shifted_agrees_with_definition(self, coin_walk):
        base = RoundRobinAdversary()
        prefix = initial("start").extend("hop1", "middle")
        shifted = shift(base, prefix)
        probe = initial("middle")
        assert shifted.choose(coin_walk, probe) == base.choose(
            coin_walk, prefix.concat(probe)
        )

    def test_shift_requires_matching_fstate(self, coin_walk):
        shifted = shift(RoundRobinAdversary(), initial("start"))
        with pytest.raises(AdversaryError):
            shifted.choose(coin_walk, initial("middle"))

    def test_shifting_twice_composes_prefixes(self, coin_walk):
        base = RoundRobinAdversary()
        first = initial("start").extend("hop1", "middle")
        second = initial("middle").extend("hop2", "goal")
        twice = shift(shift(base, first), second)
        assert isinstance(twice, ShiftedAdversary)
        assert twice.base is base
        assert twice.prefix == first.concat(second)


class TestSchemas:
    def test_all_adversaries_schema(self):
        schema = all_adversaries_schema()
        assert schema.execution_closed
        assert schema.contains(FirstEnabledAdversary())

    def test_membership_check_raises(self):
        schema = AdversarySchema(
            name="none", contains=lambda a: False, execution_closed=False
        )
        with pytest.raises(AdversaryError):
            schema.check_membership(FirstEnabledAdversary())

    def test_with_generators_validates_membership(self):
        schema = all_adversaries_schema()
        enriched = schema.with_generators([FirstEnabledAdversary()])
        assert len(enriched.generators) == 1

    def test_with_generators_rejects_outsiders(self):
        schema = AdversarySchema(
            name="none", contains=lambda a: False, execution_closed=False
        )
        with pytest.raises(AdversaryError):
            schema.with_generators([FirstEnabledAdversary()])

    def test_closure_probe_passes_for_all_schema(self):
        schema = all_adversaries_schema()
        fragment = initial("start").extend("hop1", "middle")
        rng = derive_rng(0, "closure")
        for adversary in (RoundRobinAdversary(), FirstEnabledAdversary()):
            schema.spot_check_closure(adversary, fragment, rng, probes=4)

    def test_closure_probe_detects_non_closed_schema(self):
        # A schema that claims closure but excludes shifted wrappers
        # fails the probe on its first cut.
        schema = AdversarySchema(
            name="raw-only",
            contains=lambda a: not isinstance(a, ShiftedAdversary),
            execution_closed=True,
        )
        fragment = initial("start").extend("hop1", "middle")
        with pytest.raises(ExecutionClosureError, match="raw-only"):
            schema.spot_check_closure(
                FirstEnabledAdversary(), fragment, derive_rng(0, "closure")
            )
