"""Unit tests for Lehmann-Rabin states (Section 6.1 notation)."""

from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from repro.algorithms.lehmann_rabin.automaton import lehmann_rabin_automaton
from repro.algorithms.lehmann_rabin.state import (
    FREE,
    LRState,
    PC,
    ProcessState,
    Side,
    TAKEN,
    consistent_resources,
    holds_left,
    holds_right,
    initial_state,
    make_state,
    process_state,
)
from repro.errors import AutomatonError


class TestSide:
    def test_opp(self):
        assert Side.LEFT.opp is Side.RIGHT
        assert Side.RIGHT.opp is Side.LEFT

    def test_opp_involutive(self):
        for side in Side:
            assert side.opp.opp is side


class TestProcessState:
    def test_with_pc_and_with_u(self):
        local = ProcessState(PC.W, Side.LEFT)
        assert local.with_pc(PC.S) == ProcessState(PC.S, Side.LEFT)
        assert process_state(local.pc, Side.RIGHT) == ProcessState(
            PC.W, Side.RIGHT
        )

    def test_points_only_at_sided_counters(self):
        assert ProcessState(PC.W, Side.LEFT).points(Side.LEFT)
        assert not ProcessState(PC.W, Side.LEFT).points(Side.RIGHT)
        assert not ProcessState(PC.F, Side.LEFT).points(Side.LEFT)
        assert not ProcessState(PC.R, Side.RIGHT).points(Side.RIGHT)

    def test_repr_uses_arrow_notation(self):
        assert repr(ProcessState(PC.W, Side.LEFT)) == "W<-"
        assert repr(ProcessState(PC.S, Side.RIGHT)) == "S->"
        assert repr(ProcessState(PC.F, Side.LEFT)) == "F"

    @pytest.mark.parametrize("pc", list(PC), ids=lambda pc: pc.name)
    def test_separately_built_states_match_the_shared_one(self, pc):
        for u in Side:
            built, shared = ProcessState(pc, u), process_state(pc, u)
            assert built is not shared
            assert built == shared
            # The dataclass hash, so set and dict orders are unchanged.
            assert hash(built) == hash(shared) == hash((pc, u))
            assert repr(built) == repr(shared)
            assert process_state(built.pc, built.u) is shared
            assert built.with_pc(pc) is shared

    def test_the_model_builds_shared_states(self):
        state = initial_state(3)
        assert state.process(0) is process_state(PC.R, Side.LEFT)
        automaton = lehmann_rabin_automaton(3)
        successors = [
            target
            for step in automaton.transitions(state)
            for target in step.target.support
        ]
        assert successors
        for target in successors:
            for local in target.processes:
                assert local is process_state(local.pc, local.u)


#: Builds a state, then either hashes and pickles it (``dump``) or
#: checks a pickled one against a fresh build (``load``).
_PICKLE_ROUND_TRIP = """
import pickle, sys
from repro.algorithms.lehmann_rabin.state import (
    PC, Side, initial_state, process_state,
)
waiting = process_state(PC.W, Side.RIGHT)
state = initial_state(3).with_process(1, waiting)
if sys.argv[1] == "dump":
    hash(state)
    sys.stdout.write(pickle.dumps(state).hex())
else:
    loaded = pickle.loads(bytes.fromhex(sys.stdin.read()))
    print(loaded == state, loaded in {state: 1},
          loaded.process(1) is waiting)
"""


def test_cached_hashes_do_not_cross_a_pickle():
    """A hash cached under one hash seed must not reach a process
    running under another."""
    src = str(Path(__file__).resolve().parent.parent / "src")

    def run(seed, mode, stdin=""):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
        return subprocess.run(
            [sys.executable, "-c", _PICKLE_ROUND_TRIP, mode], input=stdin,
            env=env, capture_output=True, text=True, check=True,
        ).stdout

    assert run(2, "load", run(1, "dump")).split() == ["True"] * 3


class TestGeometry:
    def test_right_resource_is_own_index(self):
        state = initial_state(4)
        assert state.resource_index(1, Side.RIGHT) == 1

    def test_left_resource_is_previous_index(self):
        state = initial_state(4)
        assert state.resource_index(1, Side.LEFT) == 0
        assert state.resource_index(0, Side.LEFT) == 3  # wraps

    def test_process_and_resource_wrap_modulo_n(self):
        state = initial_state(3)
        assert state.process(4) == state.process(1)
        assert state.resource(5) == state.resource(2)


class TestUpdates:
    def test_with_process(self):
        state = initial_state(3)
        updated = state.with_process(1, ProcessState(PC.F, Side.RIGHT))
        assert updated.process(1).pc is PC.F
        assert updated.process(0).pc is PC.R

    def test_with_resource(self):
        state = initial_state(3)
        updated = state.with_resource(2, TAKEN)
        assert updated.resource(2) == TAKEN
        assert updated.resource(0) == FREE

    def test_time_updates(self):
        state = initial_state(3)
        assert state.advanced(Fraction(2)).time == 2
        assert state.with_time(Fraction(7)).time == 7

    def test_untimed_drops_clock_only(self):
        state = initial_state(3)
        assert state.untimed() == state.advanced(Fraction(9)).untimed()

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(AutomatonError):
            LRState(
                processes=(ProcessState(PC.R, Side.LEFT),) * 3,
                resources=(FREE,) * 2,
                time=Fraction(0),
            )

    def test_ring_needs_two_processes(self):
        with pytest.raises(AutomatonError):
            LRState(
                processes=(ProcessState(PC.R, Side.LEFT),),
                resources=(FREE,),
                time=Fraction(0),
            )


class TestInitialState:
    def test_everyone_in_remainder(self):
        state = initial_state(5)
        assert all(p.pc is PC.R for p in state.processes)
        assert all(r == FREE for r in state.resources)
        assert state.time == 0

    def test_custom_sides(self):
        state = initial_state(2, sides=[Side.RIGHT, Side.LEFT])
        assert state.process(0).u is Side.RIGHT
        assert state.process(1).u is Side.LEFT

    def test_side_arity_checked(self):
        with pytest.raises(AutomatonError):
            initial_state(3, sides=[Side.LEFT])


class TestHolders:
    """The resource-holding table implied by Lemma 6.1."""

    @pytest.mark.parametrize(
        "pc,u,right,left",
        [
            (PC.R, Side.LEFT, False, False),
            (PC.F, Side.LEFT, False, False),
            (PC.W, Side.RIGHT, False, False),   # waiting holds nothing
            (PC.S, Side.RIGHT, True, False),
            (PC.S, Side.LEFT, False, True),
            (PC.D, Side.RIGHT, True, False),
            (PC.D, Side.LEFT, False, True),
            (PC.P, Side.LEFT, True, True),
            (PC.C, Side.RIGHT, True, True),
            (PC.EF, Side.LEFT, True, True),
            (PC.ES, Side.RIGHT, True, False),
            (PC.ES, Side.LEFT, False, True),
            (PC.ER, Side.LEFT, False, False),
        ],
    )
    def test_holding_table(self, pc, u, right, left):
        local = ProcessState(pc, u)
        assert holds_right(local) == right
        assert holds_left(local) == left


class TestConsistency:
    def test_all_remainder_is_consistent(self):
        locals_ = [ProcessState(PC.R, Side.LEFT)] * 3
        assert consistent_resources(locals_) == (FREE, FREE, FREE)

    def test_holder_marks_resource_taken(self):
        locals_ = [
            ProcessState(PC.S, Side.RIGHT),  # holds Res_0
            ProcessState(PC.R, Side.LEFT),
            ProcessState(PC.R, Side.LEFT),
        ]
        assert consistent_resources(locals_) == (TAKEN, FREE, FREE)

    def test_adjacent_conflict_is_inconsistent(self):
        locals_ = [
            ProcessState(PC.S, Side.RIGHT),  # holds Res_0 from the left
            ProcessState(PC.S, Side.LEFT),   # holds Res_0 from the right
            ProcessState(PC.R, Side.LEFT),
        ]
        assert consistent_resources(locals_) is None

    def test_make_state_derives_resources(self):
        state = make_state(
            [
                ProcessState(PC.P, Side.LEFT),
                ProcessState(PC.R, Side.LEFT),
                ProcessState(PC.R, Side.LEFT),
            ]
        )
        # P holds both adjacent resources: Res_2 (left) and Res_0 (right).
        assert state.resource(0) == TAKEN
        assert state.resource(2) == TAKEN
        assert state.resource(1) == FREE

    def test_make_state_rejects_conflicts(self):
        with pytest.raises(AutomatonError):
            make_state(
                [
                    ProcessState(PC.P, Side.LEFT),
                    ProcessState(PC.P, Side.LEFT),
                    ProcessState(PC.R, Side.LEFT),
                ]
            )

    def test_repr_shows_ring(self):
        text = repr(initial_state(3))
        assert "R R R" in text and "t=0" in text
