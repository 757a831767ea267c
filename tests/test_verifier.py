"""Unit tests for the arrow-statement verifiers."""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.adversary.deterministic import FirstEnabledAdversary
from repro.errors import VerificationError
from repro.proofs.statements import ArrowStatement, StateClass
from repro.proofs.verifier import (
    check_arrow_by_sampling,
    check_arrow_exactly,
    measure_time_to_target,
)


def zero_time(state):
    return Fraction(0)


@pytest.fixture
def start_class():
    return StateClass("Start", lambda s: s == "start")


@pytest.fixture
def goal_class():
    return StateClass("Goal", lambda s: s == "goal")


class TestSamplingCheck:
    def statement(self, start_class, goal_class, p):
        # With the untimed clock nothing ever exceeds the bound, so the
        # event degenerates to "reach goal before the adversary halts";
        # FirstEnabledAdversary runs forever until the terminal goal.
        return ArrowStatement(start_class, goal_class, 0, p, "all")

    def test_consistent_statement_supported(
        self, coin_walk, start_class, goal_class
    ):
        statement = self.statement(start_class, goal_class, Fraction(1, 2))
        report = check_arrow_by_sampling(
            coin_walk,
            statement,
            [("first", FirstEnabledAdversary())],
            ["start"],
            zero_time,
            seed=0,
            samples_per_pair=150,
            max_steps=500,
        )
        assert not report.refuted
        assert report.min_estimate > 0.9
        assert report.worst.adversary_name == "first"

    def test_false_statement_refuted(self, coin_walk, start_class):
        never = StateClass("Never", lambda s: False)
        statement = ArrowStatement(start_class, never, 0, Fraction(1, 2), "all")
        report = check_arrow_by_sampling(
            coin_walk,
            statement,
            [("first", FirstEnabledAdversary())],
            ["start"],
            zero_time,
            seed=0,
            samples_per_pair=100,
            max_steps=50,
        )
        assert report.refuted
        assert not report.supported
        assert report.min_estimate == 0.0

    def test_start_state_must_lie_in_source(self, coin_walk, goal_class):
        statement = ArrowStatement(goal_class, goal_class, 0, 1, "all")
        with pytest.raises(VerificationError):
            check_arrow_by_sampling(
                coin_walk,
                statement,
                [("first", FirstEnabledAdversary())],
                ["start"],  # not in Goal
                zero_time,
                seed=0,
            )

    def test_empty_adversaries_rejected(self, coin_walk, start_class, goal_class):
        statement = self.statement(start_class, goal_class, 1)
        with pytest.raises(VerificationError):
            check_arrow_by_sampling(
                coin_walk, statement, [], ["start"], zero_time,
                seed=0,
            )

    def test_summary_line_mentions_verdict(
        self, coin_walk, start_class, goal_class
    ):
        statement = self.statement(start_class, goal_class, Fraction(1, 100))
        report = check_arrow_by_sampling(
            coin_walk,
            statement,
            [("first", FirstEnabledAdversary())],
            ["start"],
            zero_time,
            seed=0,
            samples_per_pair=200,
            max_steps=500,
        )
        line = report.summary_line()
        assert "first" in line and ("supported" in line or "consistent" in line)


class TestExactCheck:
    def test_exact_bounds_match_hand_computation(
        self, coin_walk, start_class
    ):
        middle = StateClass("Middle", lambda s: s == "middle")
        statement = ArrowStatement(
            start_class, middle, 0, Fraction(3, 4), "all"
        )
        report = check_arrow_exactly(
            coin_walk,
            statement,
            [("first", FirstEnabledAdversary())],
            ["start"],
            zero_time,
            max_steps=2,
        )
        # Within 2 tree steps: 1 - (1/2)^2 = 3/4 reaches middle.
        assert report.min_lower_bound == Fraction(3, 4)
        assert report.holds_for_family
        assert not report.refuted

    def test_refutation_via_upper_bound(self, coin_walk, start_class):
        never = StateClass("Never", lambda s: False)
        statement = ArrowStatement(start_class, never, 0, Fraction(1, 2), "all")
        from repro.adversary.deterministic import StoppingAdversary

        report = check_arrow_exactly(
            coin_walk,
            statement,
            [("stop", StoppingAdversary(FirstEnabledAdversary(), 3))],
            ["start"],
            zero_time,
            max_steps=10,
        )
        assert report.refuted


class TestTimeToTarget:
    def test_reports_all_samples_reached(self, coin_walk):
        report = measure_time_to_target(
            coin_walk,
            "first",
            FirstEnabledAdversary(),
            ["start"],
            lambda s: s == "goal",
            zero_time,
            seed=0,
            samples=20,
            max_steps=5_000,
        )
        assert report.unreached == 0
        assert len(report.times) == 20
        assert report.mean == 0.0  # untimed clock
        assert report.maximum == 0

    def test_unreached_counted(self, coin_walk):
        report = measure_time_to_target(
            coin_walk,
            "first",
            FirstEnabledAdversary(),
            ["start"],
            lambda s: False,
            zero_time,
            seed=0,
            samples=5,
            max_steps=20,
        )
        assert report.unreached == 5
        with pytest.raises(VerificationError):
            _ = report.mean

    def test_positive_sample_count_required(self, coin_walk):
        with pytest.raises(VerificationError):
            measure_time_to_target(
                coin_walk, "first", FirstEnabledAdversary(), ["start"],
                lambda s: True, zero_time, seed=0, samples=0,
            )
