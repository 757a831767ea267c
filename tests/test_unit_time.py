"""Unit tests for the Unit-Time round-based adversaries."""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.adversary.base import shift
from repro.adversary.deterministic import FirstEnabledAdversary
from repro.adversary.search import (
    HashedRandomRoundPolicy,
    fragment_digest,
)
from repro.adversary.unit_time import (
    ADVANCE_TIME,
    FifoRoundPolicy,
    ReversedRoundPolicy,
    RotatingRoundPolicy,
    RoundBasedAdversary,
    steps_of_process,
    unit_time_schema,
)
from repro.algorithms import lehmann_rabin as lr
from repro.automaton.execution import ExecutionFragment
from repro.automaton.signature import TIME_PASSAGE
from repro.errors import AdversaryError


@pytest.fixture
def ring3():
    n = 3
    return lr.lehmann_rabin_automaton(n), lr.LRProcessView(n)


def initial(state):
    return ExecutionFragment.initial(state)


def run_steps(automaton, adversary, start, count, seed=0):
    """Sample ``count`` steps, returning the fragment."""
    rng = random.Random(seed)
    fragment = initial(start)
    for _ in range(count):
        step = adversary.checked_choose(automaton, fragment)
        if step is None:
            break
        fragment = fragment.extend(step.action, step.target.sample(rng))
    return fragment


class TestRoundStructure:
    def test_every_ready_process_steps_each_round(self, ring3):
        automaton, view = ring3
        adversary = RoundBasedAdversary(view, FifoRoundPolicy())
        start = lr.canonical_states(3)["all_flip"]
        fragment = run_steps(automaton, adversary, start, 40)
        # Split actions into rounds at time-passage boundaries and check
        # the Unit-Time obligation on complete rounds: every process
        # ready at round start stepped during the round.
        states = fragment.states
        actions = fragment.actions
        round_start_state = states[0]
        stepped = set()
        for i, action in enumerate(actions):
            if action == TIME_PASSAGE:
                ready = view.ready(round_start_state)
                assert ready <= stepped, (
                    f"round violated Unit-Time: ready {ready}, "
                    f"stepped {stepped}"
                )
                stepped = set()
                round_start_state = states[i + 1]
            else:
                stepped.add(view.process_of(action))

    def test_time_advances_without_bound(self, ring3):
        automaton, view = ring3
        adversary = RoundBasedAdversary(view, FifoRoundPolicy())
        start = lr.canonical_states(3)["all_flip"]
        fragment = run_steps(automaton, adversary, start, 200)
        assert lr.lr_time_of(fragment.lstate) >= 10

    def test_max_rounds_halts(self, ring3):
        automaton, view = ring3
        adversary = RoundBasedAdversary(
            view, FifoRoundPolicy(), max_rounds=2
        )
        start = lr.canonical_states(3)["all_flip"]
        fragment = run_steps(automaton, adversary, start, 500)
        assert lr.lr_time_of(fragment.lstate) == 2
        assert adversary.choose(automaton, fragment) is None

    def test_fifo_schedules_lowest_pending_first(self, ring3):
        automaton, view = ring3
        adversary = RoundBasedAdversary(view, FifoRoundPolicy())
        start = lr.canonical_states(3)["all_flip"]
        step = adversary.choose(automaton, initial(start))
        assert view.process_of(step.action) == 0

    def test_reversed_schedules_highest_pending_first(self, ring3):
        automaton, view = ring3
        adversary = RoundBasedAdversary(view, ReversedRoundPolicy())
        start = lr.canonical_states(3)["all_flip"]
        step = adversary.choose(automaton, initial(start))
        assert view.process_of(step.action) == 2

    def test_rotating_changes_leader_by_round(self, ring3):
        automaton, view = ring3
        policy = RotatingRoundPolicy()
        adversary = RoundBasedAdversary(view, policy)
        start = lr.canonical_states(3)["contended"]
        # Round 0: leader is pending[0]; after one time passage the
        # leader shifts to pending[1].
        fragment = initial(start)
        first = adversary.choose(automaton, fragment)
        assert view.process_of(first.action) == 0
        one_round = initial(start)
        rng = random.Random(0)
        while True:
            step = adversary.checked_choose(automaton, one_round)
            one_round = one_round.extend(
                step.action, step.target.sample(rng)
            )
            if step.action == TIME_PASSAGE:
                break
        second = adversary.choose(automaton, one_round)
        assert view.process_of(second.action) == 1

    def test_policies_must_not_request_time_passage_directly(self, ring3):
        automaton, view = ring3

        class BadPolicy(FifoRoundPolicy):
            def next_move(self, automaton, fragment, pending, view):
                for step in automaton.transitions(fragment.lstate):
                    if step.action == TIME_PASSAGE:
                        return step
                return ADVANCE_TIME

        adversary = RoundBasedAdversary(view, BadPolicy())
        start = lr.canonical_states(3)["all_flip"]
        with pytest.raises(AdversaryError):
            adversary.choose(automaton, initial(start))

    def test_advancing_with_pending_rejected(self, ring3):
        automaton, view = ring3

        class ImpatientPolicy(FifoRoundPolicy):
            def next_move(self, automaton, fragment, pending, view):
                return ADVANCE_TIME

        adversary = RoundBasedAdversary(view, ImpatientPolicy())
        start = lr.canonical_states(3)["all_flip"]
        with pytest.raises(AdversaryError):
            adversary.choose(automaton, initial(start))


class TestStepsOfProcess:
    def test_filters_by_process(self, ring3):
        automaton, view = ring3
        start = lr.canonical_states(3)["all_flip"]
        steps = steps_of_process(automaton, start, view, 1)
        assert steps and all(
            view.process_of(step.action) == 1 for step in steps
        )

    def test_no_steps_for_time_passage_process(self, ring3):
        automaton, view = ring3
        assert view.process_of(TIME_PASSAGE) is None


class TestSchema:
    def test_contains_round_based_over_same_view(self, ring3):
        _, view = ring3
        schema = unit_time_schema(view)
        adversary = RoundBasedAdversary(view, FifoRoundPolicy())
        assert schema.contains(adversary)
        assert schema.execution_closed

    def test_contains_shifted_members(self, ring3):
        automaton, view = ring3
        schema = unit_time_schema(view)
        adversary = RoundBasedAdversary(view, FifoRoundPolicy())
        start = lr.canonical_states(3)["all_flip"]
        fragment = run_steps(automaton, adversary, start, 5)
        assert schema.contains(shift(adversary, fragment))

    def test_shifted_member_obeys_definition_3_3(self, ring3):
        """The shift wrapper satisfies A'(alpha') = A(alpha ^ alpha')
        on Unit-Time members too — the equation Theorem 3.4's proof
        rides on."""
        automaton, view = ring3
        adversary = RoundBasedAdversary(view, FifoRoundPolicy())
        start = lr.canonical_states(3)["all_flip"]
        prefix = run_steps(automaton, adversary, start, 4, seed=2)
        shifted = shift(adversary, prefix)
        probe = ExecutionFragment.initial(prefix.lstate)
        for _ in range(6):
            expected = adversary.choose(automaton, prefix.concat(probe))
            actual = shifted.choose(automaton, probe)
            assert expected == actual
            if expected is None:
                break
            # Extend the probe deterministically along one outcome.
            next_state = sorted(
                expected.target.support, key=repr
            )[0]
            probe = probe.extend(expected.action, next_state)

    def test_excludes_foreign_adversaries(self, ring3):
        _, view = ring3
        schema = unit_time_schema(view)
        assert not schema.contains(FirstEnabledAdversary())

    def test_excludes_other_views(self, ring3):
        _, view = ring3
        other_view = lr.LRProcessView(3)
        schema = unit_time_schema(view)
        adversary = RoundBasedAdversary(other_view, FifoRoundPolicy())
        assert not schema.contains(adversary)


class TestHashedRandomPolicy:
    def test_deterministic_in_history(self, ring3):
        automaton, view = ring3
        policy = HashedRandomRoundPolicy(3)
        adversary = RoundBasedAdversary(view, policy)
        start = lr.canonical_states(3)["all_flip"]
        first = adversary.choose(automaton, initial(start))
        second = adversary.choose(automaton, initial(start))
        assert first == second

    def test_different_seeds_diverge_somewhere(self, ring3):
        automaton, view = ring3
        start = lr.canonical_states(3)["contended"]
        choices = set()
        for seed in range(8):
            adversary = RoundBasedAdversary(view, HashedRandomRoundPolicy(seed))
            step = adversary.choose(automaton, initial(start))
            choices.add(view.process_of(step.action))
        assert len(choices) > 1

    def test_digest_stable(self):
        fragment = initial("x").extend("a", "y")
        assert fragment_digest(1, fragment) == fragment_digest(1, fragment)
        assert fragment_digest(1, fragment) != fragment_digest(2, fragment)
        assert fragment_digest(1, fragment, "p") != fragment_digest(
            1, fragment, "q"
        )

    def test_is_valid_unit_time_member(self, ring3):
        automaton, view = ring3
        adversary = RoundBasedAdversary(view, HashedRandomRoundPolicy(5))
        start = lr.canonical_states(3)["all_flip"]
        fragment = run_steps(automaton, adversary, start, 60, seed=1)
        assert lr.lr_time_of(fragment.lstate) > 0

    def test_a_lone_candidate_moves_as_with_both_digests(self, ring3):
        """The policy skips the digest of a lone pending process or a
        lone step (a digest mod 1 is 0); every recorded decision must
        still equal the move computed with both digests taken."""
        automaton, view = ring3
        decisions = []

        class Recording(HashedRandomRoundPolicy):
            def next_move(self, automaton, fragment, pending, view):
                decisions.append((self.seed, fragment, pending))
                return super().next_move(automaton, fragment, pending, view)

        for seed in (1, 2, 3):
            adversary = RoundBasedAdversary(view, Recording(seed))
            for start in lr.canonical_states(3).values():
                run_steps(automaton, adversary, start, 40, seed=seed)
        candidates = []
        for seed, fragment, pending in decisions:
            policy = HashedRandomRoundPolicy(seed)
            move = policy.next_move(automaton, fragment, pending, view)
            if not pending:
                assert move is ADVANCE_TIME
                continue
            pick = fragment_digest(policy.seed, fragment, extra="process")
            process = pending[pick % len(pending)]
            steps = steps_of_process(automaton, fragment.lstate, view, process)
            which = fragment_digest(policy.seed, fragment, extra="step")
            assert move is steps[which % len(steps)]
            candidates.append((len(pending) > 1, len(steps) > 1))
        # Both digests are skipped and taken somewhere along the walks.
        for several in (True, False):
            assert any(process is several for process, _ in candidates)
            assert any(step is several for _, step in candidates)


# ----------------------------------------------------------------------
# Reference digest: fragment_digest as it was before fragments kept
# their rendered body (blake2b over the seed, a full re-render of the
# fragment and the extra), kept frozen.  Every way of building a
# fragment must digest to its bits.
# ----------------------------------------------------------------------


def _reference_repr(fragment):
    states, actions = fragment.states, fragment.actions
    if not actions:
        return f"ExecutionFragment({states[0]!r})"
    parts = [repr(states[0])]
    for i, action in enumerate(actions):
        parts.append(repr(action))
        parts.append(repr(states[i + 1]))
    return "ExecutionFragment(" + " . ".join(parts) + ")"


def _reference_digest(seed, fragment, extra=""):
    digest = hashlib.blake2b(digest_size=8)
    digest.update(str(seed).encode())
    digest.update(_reference_repr(fragment).encode())
    digest.update(extra.encode())
    return int.from_bytes(digest.digest(), "big")


def _hashed_walk(ring3, count=12, seed=1):
    """Every fragment of a hashed-policy walk, each digested by the
    adversary before the walk extended it."""
    automaton, view = ring3
    adversary = RoundBasedAdversary(view, HashedRandomRoundPolicy(seed))
    rng = random.Random(seed)
    fragments = [initial(lr.canonical_states(3)["contended"])]
    for _ in range(count):
        step = adversary.checked_choose(automaton, fragments[-1])
        fragments.append(
            fragments[-1].extend(step.action, step.target.sample(rng))
        )
    return fragments


def _replayed(walk, digest_at=()):
    """The walk's last fragment rebuilt by ``extend`` from scratch,
    digesting (so rendering) only at the step counts in ``digest_at``."""
    final = walk[-1]
    fragment = initial(final.fstate)
    for steps, (_, action, state) in enumerate(final.steps(), start=1):
        if steps - 1 in digest_at:
            fragment_digest(0, fragment)
        fragment = fragment.extend(action, state)
    return fragment


def _construction_paths(ring3):
    walk = _hashed_walk(ring3)
    final = walk[-1]
    middle = final.prefix_of_length(5)
    fragments = {
        "initial": initial(final.fstate),
        "extend-of-digested": final,
        "extend-never-digested": _replayed(walk),
        "extend-digested-midway": _replayed(walk, digest_at=(4,)),
        "constructor": ExecutionFragment(final.states, final.actions),
        "concat": middle.concat(final.suffix_after(middle)),
        "prefix_of_length": final.prefix_of_length(7),
        "suffix_after": final.suffix_after(middle),
        "plain-values": initial("x").extend("a", 1).extend(("b",), "z"),
    }
    fragments.update(
        (f"walk-step-{index}", fragment)
        for index, fragment in enumerate(walk[:-1])
    )
    return fragments


class TestFragmentDigest:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("extra", ["", "process", "step"])
    def test_digest_matches_frozen_reference(self, ring3, seed, extra):
        for name, fragment in _construction_paths(ring3).items():
            assert fragment_digest(seed, fragment, extra) == (
                _reference_digest(seed, fragment, extra)
            ), name

    def test_repr_unchanged_on_every_path(self, ring3):
        for name, fragment in _construction_paths(ring3).items():
            assert repr(fragment) == _reference_repr(fragment), name
            fragment_digest(0, fragment)
            assert repr(fragment) == _reference_repr(fragment), name

    def test_repr_alone_renders_nothing_ahead(self):
        # Only a digest keeps the body; repr (quarantine messages) does
        # not, so a later extension still renders nothing.
        fragment = initial("x")
        repr(fragment)
        assert fragment.extend("a", "y")._body is None
        fragment_digest(0, fragment)
        assert fragment.extend("a", "y")._body == "'x' . 'a' . 'y'"
