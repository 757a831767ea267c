"""The Unit-Time adversary schema (Section 6.2).

The paper restricts attention to adversaries under which (1) time grows
without bound and (2) every *ready* process takes a step within time 1,
where a process is ready when it enables an action other than its
user-controlled ones (``try_i``/``exit_i`` for Lehmann-Rabin).  The
schema is execution closed: knowing that a prefix occurred only
reinforces the scheduling obligation.

This module realises Unit-Time adversaries generically through:

* :class:`ProcessView` — how to read processes, readiness, and time out
  of an automaton's states and actions; each case study supplies one.
* :class:`RoundBasedAdversary` — a scheduler that works in rounds of
  duration 1: within a round every pending obligated process takes
  exactly one step (order and step choices decided by a
  :class:`RoundPolicy`, which sees the entire history, including past
  coin outcomes), then a time-passage step of one unit closes the round.

Every round-based adversary satisfies the Unit-Time obligation by
construction: a process ready at the start of a round steps during it,
so no ready process ever waits more than one time unit.
"""

from __future__ import annotations

import abc
import math
from fractions import Fraction
from typing import (
    FrozenSet,
    Generic,
    Hashable,
    List,
    Optional,
    Tuple,
    TypeVar,
    Union,
)

from repro.adversary.base import Adversary, AdversarySchema, ShiftedAdversary
from repro.automaton.automaton import ProbabilisticAutomaton
from repro.automaton.execution import ExecutionFragment
from repro.automaton.signature import TIME_PASSAGE, Action
from repro.automaton.transition import Transition
from repro.errors import AdversaryError

State = TypeVar("State", bound=Hashable)
ProcessId = Hashable


class ProcessView(Generic[State], abc.ABC):
    """How an automaton's states and actions decompose into processes."""

    @property
    @abc.abstractmethod
    def processes(self) -> Tuple[ProcessId, ...]:
        """All process identifiers, in canonical order."""

    @abc.abstractmethod
    def ready(self, state: State) -> FrozenSet[ProcessId]:
        """Processes with a scheduling obligation in ``state``.

        Per the paper: processes enabling an action different from their
        user-controlled actions.
        """

    @abc.abstractmethod
    def process_of(self, action: Action) -> Optional[ProcessId]:
        """The process an action belongs to (``None`` for time passage)."""

    @abc.abstractmethod
    def time_of(self, state: State) -> Fraction:
        """The current time component of ``state``."""


class _Sentinel:
    """A named sentinel for policy decisions."""

    __slots__ = ("_name",)

    def __init__(self, name: str):
        self._name = name

    def __repr__(self) -> str:
        return self._name


#: Policy decision: close the round with a one-unit time-passage step.
ADVANCE_TIME = _Sentinel("ADVANCE_TIME")
#: Policy decision: halt the system (the adversary returns "nothing").
HALT = _Sentinel("HALT")

Move = Union[Transition, _Sentinel]


class RoundPolicy(Generic[State], abc.ABC):
    """Decides the next move within a round.

    ``pending`` lists the obligated processes that have not yet stepped
    in the current round, in canonical order.  A policy may return:

    * a :class:`Transition` enabled in ``fragment.lstate`` — schedule it
      (typically a step of a pending process, but optional user actions
      like ``try_i`` are also allowed);
    * :data:`ADVANCE_TIME` — close the round; rejected by the scheduler
      while obligated processes are still pending;
    * :data:`HALT` — stop scheduling (leaves Unit-Time, used only by
      bounded exploration wrappers).
    """

    @abc.abstractmethod
    def next_move(
        self,
        automaton: ProbabilisticAutomaton[State],
        fragment: ExecutionFragment[State],
        pending: Tuple[ProcessId, ...],
        view: ProcessView[State],
    ) -> Move:
        """The policy's decision at this point of the round."""


class MarkovRoundPolicy(RoundPolicy[State]):
    """A round policy whose decision depends on bounded, local context.

    Concretely: the move is a pure function of the fragment's *last*
    state (up to the clock value), the pending list, and — when
    :attr:`rounds_sensitive` — the number of completed rounds.  Such
    policies can be tabulated ahead of time by the compiled state-space
    engine (:mod:`repro.statespace`): the product of the automaton with
    the adversary's finite memory ``(stepped, rounds)`` is explored once
    and every later sample walks integer index tables.

    History-dependent policies (e.g. coin-peeking ones hashing the whole
    fragment) must stay plain :class:`RoundPolicy` subclasses; the
    compiler detects them by type and the batched engine samples those
    adversaries only through its history walk.
    """

    #: True when the decision also reads the completed-round count.
    rounds_sensitive: bool = False

    @abc.abstractmethod
    def markov_move(
        self,
        automaton: ProbabilisticAutomaton[State],
        state: State,
        pending: Tuple[ProcessId, ...],
        view: ProcessView[State],
        rounds: int,
    ) -> Move:
        """The decision at ``state`` with ``rounds`` rounds completed."""

    def next_move(
        self,
        automaton: ProbabilisticAutomaton[State],
        fragment: ExecutionFragment[State],
        pending: Tuple[ProcessId, ...],
        view: ProcessView[State],
    ) -> Move:
        rounds = 0
        if self.rounds_sensitive:
            rounds = sum(1 for a in fragment.actions if a == TIME_PASSAGE)
        return self.markov_move(automaton, fragment.lstate, pending, view, rounds)

    def rounds_period(self, view: ProcessView[State]) -> int:
        """A modulus under which the round count may be tracked.

        The policy's decision must be unchanged by replacing ``rounds``
        with ``rounds % period``.  Rounds-insensitive policies return 1;
        :class:`RotatingRoundPolicy` returns ``lcm(1..n)`` because its
        rotation index ``rounds % len(pending)`` is invariant for every
        possible pending length.
        """
        return 1


def steps_of_process(
    automaton: ProbabilisticAutomaton[State],
    state: State,
    view: ProcessView[State],
    process: ProcessId,
) -> Tuple[Transition[State], ...]:
    """The steps of ``process`` enabled in ``state``."""
    return tuple(
        step
        for step in automaton.transitions(state)
        if view.process_of(step.action) == process
    )


class RoundBasedAdversary(Adversary[State]):
    """A Unit-Time adversary operating in rounds of duration one.

    The adversary replays deterministically from the fragment alone:
    round boundaries are the :data:`TIME_PASSAGE` actions in the
    history, and the set of processes that already stepped this round is
    read off the actions since the last boundary.  The policy is
    consulted for each move and sees the whole fragment, so
    history-dependent (coin-peeking) strategies are expressible.

    ``max_rounds`` optionally halts the adversary after that many
    completed rounds — used by verifiers to keep execution automata
    finite.  (Halting leaves the literal Unit-Time schema, whose
    adversaries run forever; for the *monotone* reachability events the
    proof method uses, truncation only lowers success probabilities, so
    bounds verified under truncation are sound for the full schema.)
    """

    def __init__(
        self,
        view: ProcessView[State],
        policy: RoundPolicy[State],
        max_rounds: Optional[int] = None,
    ):
        self._view = view
        self._policy = policy
        self._max_rounds = max_rounds

    @property
    def view(self) -> ProcessView[State]:
        """The process view this adversary schedules against."""
        return self._view

    @property
    def policy(self) -> RoundPolicy[State]:
        """The decision policy driving this adversary."""
        return self._policy

    @property
    def max_rounds(self) -> Optional[int]:
        """The round cap, or ``None`` when the adversary runs forever."""
        return self._max_rounds

    def choose(
        self,
        automaton: ProbabilisticAutomaton[State],
        fragment: ExecutionFragment[State],
    ) -> Optional[Transition[State]]:
        state = fragment.lstate
        rounds_done, stepped = self._round_bookkeeping(fragment)
        if self._max_rounds is not None and rounds_done >= self._max_rounds:
            return None

        ready = self._view.ready(state)
        pending = tuple(
            p for p in self._view.processes if p in ready and p not in stepped
        )
        move = self._policy.next_move(automaton, fragment, pending, self._view)

        if move is HALT:
            return None
        if move is ADVANCE_TIME:
            if pending:
                raise AdversaryError(
                    f"policy tried to advance time with obligated processes "
                    f"pending: {pending!r}"
                )
            return self._time_passage_step(automaton, state)
        if isinstance(move, Transition):
            if move.action == TIME_PASSAGE:
                raise AdversaryError(
                    "policies must request time passage via ADVANCE_TIME"
                )
            return move
        raise AdversaryError(f"policy returned an invalid move: {move!r}")

    def _round_bookkeeping(
        self, fragment: ExecutionFragment[State]
    ) -> Tuple[int, FrozenSet[ProcessId]]:
        """Completed rounds, and processes that stepped this round."""
        rounds = 0
        stepped: List[ProcessId] = []
        for action in fragment.actions:
            if action == TIME_PASSAGE:
                rounds += 1
                stepped.clear()
            else:
                process = self._view.process_of(action)
                if process is not None:
                    stepped.append(process)
        return rounds, frozenset(stepped)

    def _time_passage_step(
        self, automaton: ProbabilisticAutomaton[State], state: State
    ) -> Transition[State]:
        for step in automaton.transitions(state):
            if step.action == TIME_PASSAGE:
                return step
        raise AdversaryError(
            f"no time-passage step enabled in {state!r}; is this a timed automaton?"
        )

    def __repr__(self) -> str:
        return (
            f"RoundBasedAdversary(policy={self._policy!r}, "
            f"max_rounds={self._max_rounds})"
        )


class FifoRoundPolicy(MarkovRoundPolicy[State]):
    """Schedule pending processes in canonical order; never fire optionals.

    The simplest Unit-Time policy: in each round every obligated process
    takes exactly one step, lowest process id first, choosing the first
    enabled step of that process; then time advances.
    """

    def markov_move(
        self,
        automaton: ProbabilisticAutomaton[State],
        state: State,
        pending: Tuple[ProcessId, ...],
        view: ProcessView[State],
        rounds: int,
    ) -> Move:
        if not pending:
            return ADVANCE_TIME
        process = pending[0]
        steps = steps_of_process(automaton, state, view, process)
        if not steps:
            raise AdversaryError(
                f"process {process!r} is pending but has no enabled steps"
            )
        return steps[0]

    def __repr__(self) -> str:
        return "FifoRoundPolicy()"


class ReversedRoundPolicy(MarkovRoundPolicy[State]):
    """Like FIFO but schedules pending processes in reverse order."""

    def markov_move(
        self,
        automaton: ProbabilisticAutomaton[State],
        state: State,
        pending: Tuple[ProcessId, ...],
        view: ProcessView[State],
        rounds: int,
    ) -> Move:
        if not pending:
            return ADVANCE_TIME
        process = pending[-1]
        steps = steps_of_process(automaton, state, view, process)
        if not steps:
            raise AdversaryError(
                f"process {process!r} is pending but has no enabled steps"
            )
        return steps[-1]

    def __repr__(self) -> str:
        return "ReversedRoundPolicy()"


class RotatingRoundPolicy(MarkovRoundPolicy[State]):
    """Rotates which pending process goes first, round by round.

    Breaks the bias of a fixed order: in round ``r`` the pending list is
    rotated by ``r`` before the first element is scheduled.
    """

    rounds_sensitive = True

    def markov_move(
        self,
        automaton: ProbabilisticAutomaton[State],
        state: State,
        pending: Tuple[ProcessId, ...],
        view: ProcessView[State],
        rounds: int,
    ) -> Move:
        if not pending:
            return ADVANCE_TIME
        process = pending[rounds % len(pending)]
        steps = steps_of_process(automaton, state, view, process)
        if not steps:
            raise AdversaryError(
                f"process {process!r} is pending but has no enabled steps"
            )
        return steps[0]

    def rounds_period(self, view: ProcessView[State]) -> int:
        period = 1
        for length in range(2, len(view.processes) + 1):
            period = math.lcm(period, length)
        return period

    def __repr__(self) -> str:
        return "RotatingRoundPolicy()"


def unit_time_schema(view: ProcessView[State]) -> AdversarySchema[State]:
    """The Unit-Time adversary schema for automata seen through ``view``.

    Membership: round-based adversaries over the same view (including
    shifted ones — the paper's argument that Unit-Time is execution
    closed, Definition 3.3, is that the obligation only concerns the
    future, so prepending history preserves it).
    """

    def contains(adversary: Adversary[State]) -> bool:
        unwrapped = adversary
        while isinstance(unwrapped, ShiftedAdversary):
            unwrapped = unwrapped.base
        return (
            isinstance(unwrapped, RoundBasedAdversary)
            and unwrapped.view is view
        )

    return AdversarySchema(
        name="Unit-Time", contains=contains, execution_closed=True
    )
