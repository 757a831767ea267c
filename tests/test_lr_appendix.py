"""Unit tests for the appendix-lemma catalog and its exact checker."""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.algorithms.lehmann_rabin import appendix as ap
from repro.algorithms.lehmann_rabin.automaton import FLIP
from repro.algorithms.lehmann_rabin.state import PC, ProcessState, Side
from repro.errors import VerificationError


class TestCatalog:
    def test_all_locals_cover_the_state_space(self):
        assert len(ap.ALL_LOCALS) == 20  # 10 counters x 2 sides

    def test_locals_of(self):
        assert set(ap.locals_of(PC.W)) == {
            ProcessState(PC.W, Side.LEFT),
            ProcessState(PC.W, Side.RIGHT),
        }

    def test_states_matching_respects_constraints(self):
        states = ap.states_matching(
            3, {0: ap.pointing(PC.S, Side.LEFT)}
        )
        assert states
        assert all(
            s.process(0) == ProcessState(PC.S, Side.LEFT) for s in states
        )

    def test_states_matching_only_consistent(self):
        # S<- at 0 and S-> at 1 both hold Res_0: no consistent state.
        with pytest.raises(VerificationError):
            ap.states_matching(
                2,
                {
                    0: ap.pointing(PC.S, Side.RIGHT),
                    1: ap.pointing(PC.S, Side.LEFT),
                },
            )

    def test_conditional_catalog_is_complete(self):
        lemmas = ap.conditional_lemmas(3)
        names = [lemma.name for lemma in lemmas]
        assert names == [
            "A.2", "A.4.1", "A.4.2", "A.4.3", "A.4.4", "A.5",
            "A.7 (left)", "A.7 (right)", "A.8 (left)", "A.8 (right)",
            "A.9", "A.10",
        ]

    def test_a4_case_validation(self):
        with pytest.raises(VerificationError):
            ap.lemma_a4(3, 5)

    def test_variant_validation(self):
        with pytest.raises(VerificationError):
            ap.lemma_a7(3, "sideways")
        with pytest.raises(VerificationError):
            ap.lemma_a8(3, "sideways")


class TestConditionalLemmasExactly:
    """Every conditional lemma: zero counterexample probability over
    every hypothesis state and every round-synchronous strategy."""

    @pytest.mark.parametrize(
        "index", range(12), ids=lambda i: ap.conditional_lemmas(3)[i].name
    )
    def test_lemma_holds_exactly_n3(self, index):
        lemma = ap.conditional_lemmas(3)[index]
        result = ap.check_lemma(lemma, 3)
        assert result.holds, (
            f"{result.name}: counterexample probability "
            f"{result.worst_value} from {result.witness!r}"
        )
        assert result.states_checked == len(lemma.hypothesis_states)

    @pytest.mark.parametrize("variant", ["left", "right"])
    def test_a7_holds_exhaustively_on_ring4(self, variant):
        lemma = ap.lemma_a7(4, variant)
        result = ap.check_lemma(lemma, 4)
        assert result.holds
        assert result.states_checked == 305  # the full hypothesis set

    @pytest.mark.parametrize("variant", ["left", "right"])
    def test_a8_holds_exhaustively_on_ring4(self, variant):
        lemma = ap.lemma_a8(4, variant)
        result = ap.check_lemma(lemma, 4)
        assert result.holds
        assert result.states_checked == 1270
        assert result.worst_value == 0

    def test_a4_1_holds_on_ring4(self):
        lemma = ap.lemma_a4(4, 1)
        result = ap.check_lemma(lemma, 4, max_states=40)
        assert result.holds
        assert result.worst_value == 0

    def test_a8_left_holds_on_ring4(self):
        lemma = ap.lemma_a8(4, "left")
        result = ap.check_lemma(lemma, 4, max_states=40)
        assert result.holds


class TestProbabilisticLemmasExactly:
    def test_a12_holds_and_is_tight(self):
        result = ap.check_lemma(ap.lemma_a12(3), 3)
        assert result.holds
        # The paper's 1/2 is exactly attained by the optimal spoiler.
        assert result.worst_value == Fraction(1, 2)

    def test_a13_holds(self):
        result = ap.check_lemma(ap.lemma_a13(3), 3)
        assert result.holds
        assert result.worst_value >= Fraction(1, 2)


class TestPaperTypoInA8:
    def test_literal_d_right_reading_is_false(self):
        """With the paper's literal ``D`` read as ``D->`` in the
        symmetric clause, the adversary has a sure counterexample:
        fire the committed neighbour's doomed check first."""
        bad = ap.ConditionalLemma(
            name="A.8 (right, literal D->)",
            description="the paper's literal reading",
            hypothesis_states=tuple(
                ap.states_matching(
                    3,
                    {
                        0: ap.pointing(PC.D, Side.RIGHT),
                        1: ap.pointing(PC.S, Side.RIGHT),
                    },
                )
            ),
            watched={(FLIP, 0): ap._flip_lands(0, Side.LEFT)},
            time_bound=1,
            conclusion=ap._any_in_p(0, 1),
        )
        result = ap.check_lemma(bad, 3)
        assert not result.holds
        assert result.worst_value == 1


class TestConditionalChecker:
    """The worst counterexample probability of a conditional claim is
    one minus the minimum probability of reaching its conclusion or
    breaking a watched constraint."""

    def test_max_counterexample_zero_rounds(self):
        from repro.algorithms import lehmann_rabin as lr
        from repro.mdp.bounded import min_reach_probability_rounds

        automaton = lr.lehmann_rabin_automaton(3)
        view = lr.LRProcessView(3)
        start = lr.canonical_states(3)["all_flip"]
        # Zero rounds, conclusion not yet true: certain counterexample.
        value = 1 - min_reach_probability_rounds(
            automaton, view, lr.in_critical, start, 0,
            strip_time=lambda s: s.untimed(), watched={},
        )
        assert value == 1
        # Conclusion already true: no counterexample possible.
        pre = lr.canonical_states(3)["pre_critical"]
        value = 1 - min_reach_probability_rounds(
            automaton, view, lr.in_pre_critical, pre, 0,
            strip_time=lambda s: s.untimed(), watched={},
        )
        assert value == 0

    def test_negative_rounds_rejected(self):
        from repro.algorithms import lehmann_rabin as lr
        from repro.mdp.bounded import min_reach_probability_rounds

        with pytest.raises(VerificationError):
            1 - min_reach_probability_rounds(
                lr.lehmann_rabin_automaton(3),
                lr.LRProcessView(3),
                lr.in_critical,
                lr.canonical_states(3)["all_flip"],
                -1,
                strip_time=lambda s: s.untimed(),
                watched={},
            )

    def test_watched_violation_removes_mass(self):
        """Constraining a coin halves the counterexample mass reachable
        through that coin's wrong outcome."""
        from repro.algorithms import lehmann_rabin as lr
        from repro.mdp.bounded import min_reach_probability_rounds

        automaton = lr.lehmann_rabin_automaton(3)
        view = lr.LRProcessView(3)
        # One process at F, alone: within 1 round it flips; conclusion
        # "process 0 points left" is exactly the watched constraint.
        start = lr.make_state(
            [
                ProcessState(PC.F, Side.LEFT),
                ProcessState(PC.R, Side.LEFT),
                ProcessState(PC.R, Side.LEFT),
            ]
        )

        def concluded(state):
            return state.process(0) == ProcessState(PC.W, Side.LEFT)

        unconstrained = 1 - min_reach_probability_rounds(
            automaton, view, concluded, start, 1,
            strip_time=lambda s: s.untimed(), watched={},
        )
        constrained = 1 - min_reach_probability_rounds(
            automaton, view, concluded, start, 1,
            strip_time=lambda s: s.untimed(),
            watched={(FLIP, 0): ap._flip_lands(0, Side.LEFT)},
        )
        assert unconstrained == Fraction(1, 2)  # wrong coin = failure
        assert constrained == 0  # wrong coin leaves the event
