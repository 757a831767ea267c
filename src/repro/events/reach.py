"""The time-bounded reachability event schema ``e_{U',t}`` (Definition 3.1).

``reach_within(U', t, time_of)`` applied to an execution automaton ``H``
is the set of maximal executions in which some state of ``U'`` occurs
within time ``t`` of the execution's *first* state.  This is exactly the
event whose probability the arrow statements ``U --t-->_p U'`` bound.

Time is read out of states with a ``time_of`` function (for untimed
automata, pass :func:`step_counting_time`, which makes "time" the number
of steps — useful in tests).  The bound is relative to the starting
fragment's last state, because Definition 3.1 starts the clock when the
adversary takes over at a state of ``U``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, FrozenSet, Hashable, TypeVar, Union

from repro.automaton.execution import ExecutionFragment
from repro.events.schema import EventSchema, EventStatus
from repro.probability.space import as_fraction

State = TypeVar("State", bound=Hashable)

StateSet = Union[FrozenSet[State], Callable[[State], bool]]


def _as_predicate(states: StateSet) -> Callable[[State], bool]:
    """Normalise a state set given as a set or a predicate."""
    if callable(states):
        return states
    frozen = frozenset(states)
    return lambda state: state in frozen


class ReachWithinTime(EventSchema[State]):
    """``e_{U',t}``: a state of ``U'`` occurs within time ``t``.

    The clock starts at the fragment's first state (when evaluating
    ``H(M, A, s)`` the first state is ``s`` itself, matching
    Definition 3.1).  States are examined *including* the start state, so
    the event is trivially accepted when the system already satisfies the
    target — mirroring the paper's remark that ``T --13-->_{1/8} C`` is
    trivial if some process starts in its critical region.
    """

    def __init__(
        self,
        target: StateSet,
        time_bound,
        time_of: Callable[[State], Fraction],
    ):
        self._target = _as_predicate(target)
        self._bound: Fraction = as_fraction(time_bound)
        self._time_of = time_of

    @property
    def time_bound(self) -> Fraction:
        """The deadline ``t`` measured from the execution's first state."""
        return self._bound

    def classify(self, fragment: ExecutionFragment[State]) -> EventStatus:
        start_time = self._time_of(fragment.fstate)
        deadline = start_time + self._bound
        for state in fragment.states:
            if self._time_of(state) > deadline:
                # Time already exceeded the bound; the scan below only
                # needs states up to the deadline, and since fragments
                # have monotone time we can reject unless a hit occurred
                # earlier (handled by scanning in order).
                return EventStatus.REJECT
            if self._target(state):
                return EventStatus.ACCEPT
        return EventStatus.UNDECIDED

    def classify_step(self, fragment: ExecutionFragment[State]) -> EventStatus:
        # An undecided prefix met the deadline and missed the target
        # throughout, so only the last state can decide.
        deadline = self._time_of(fragment.fstate) + self._bound
        state = fragment.lstate
        if self._time_of(state) > deadline:
            return EventStatus.REJECT
        if self._target(state):
            return EventStatus.ACCEPT
        return EventStatus.UNDECIDED

    def decide_maximal(self, fragment: ExecutionFragment[State]) -> bool:
        # A maximal execution that never visited the target within the
        # bound is not in the event.
        return False

    def __repr__(self) -> str:
        return f"ReachWithinTime(t={self._bound})"


def step_counting_time(_state: State) -> Fraction:
    """A ``time_of`` for untimed automata: every state is at time 0.

    With this clock, ``ReachWithinTime`` never rejects on time and the
    bound degenerates to plain (unbounded) reachability over however
    many steps the adversary runs; use :class:`ReachWithinSteps` when a
    step-indexed bound is wanted instead.
    """
    return Fraction(0)


class ReachWithinSteps(EventSchema[State]):
    """Reachability within a bounded number of *steps* of the fragment.

    The untimed analogue of ``e_{U',t}``; the paper's model measures
    time through the patient construction, but tests and the exact
    checker often work step-indexed.
    """

    def __init__(self, target: StateSet, max_steps: int):
        self._target = _as_predicate(target)
        self._max_steps = max_steps

    def classify(self, fragment: ExecutionFragment[State]) -> EventStatus:
        for index, state in enumerate(fragment.states):
            if index > self._max_steps:
                return EventStatus.REJECT
            if self._target(state):
                return EventStatus.ACCEPT
        if len(fragment) >= self._max_steps:
            return EventStatus.REJECT
        return EventStatus.UNDECIDED

    def classify_step(self, fragment: ExecutionFragment[State]) -> EventStatus:
        # An undecided prefix is shorter than the bound, so the last
        # state is within it.
        if self._target(fragment.lstate):
            return EventStatus.ACCEPT
        if len(fragment) >= self._max_steps:
            return EventStatus.REJECT
        return EventStatus.UNDECIDED

    def __repr__(self) -> str:
        return f"ReachWithinSteps(max_steps={self._max_steps})"


class EventuallyReach(EventSchema[State]):
    """Unbounded reachability: some state of the target ever occurs."""

    def __init__(self, target: StateSet):
        self._target = _as_predicate(target)

    def classify(self, fragment: ExecutionFragment[State]) -> EventStatus:
        if any(self._target(state) for state in fragment.states):
            return EventStatus.ACCEPT
        return EventStatus.UNDECIDED

    def classify_step(self, fragment: ExecutionFragment[State]) -> EventStatus:
        if self._target(fragment.lstate):
            return EventStatus.ACCEPT
        return EventStatus.UNDECIDED

    def __repr__(self) -> str:
        return "EventuallyReach()"
