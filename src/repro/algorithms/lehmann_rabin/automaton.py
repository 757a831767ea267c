"""The Lehmann-Rabin probabilistic timed automaton (Sections 5 and 6.1).

The transition relation transcribes Figure 1.  Every action is a pair
``(kind, i)`` with ``kind`` one of the strings below and ``i`` the
process index; external actions are the user-interface ones (``try``,
``crit``, ``exit``, ``rem``), everything else is internal, and the
special time-passage action :data:`~repro.automaton.signature.TIME_PASSAGE`
advances the clock by one unit (the round granularity of the Unit-Time
adversaries; Section 2's patient construction allows arbitrary amounts,
but the unit-delay schema only ever needs unit steps).

The state space is unbounded (time grows), so the automaton is a
:class:`~repro.automaton.automaton.FunctionalAutomaton`; dynamics are
time-invariant and all analyses memoise on the untimed part.
"""

from __future__ import annotations

from fractions import Fraction
from typing import FrozenSet, List, Optional, Tuple

from repro.adversary.unit_time import ProcessView
from repro.algorithms.lehmann_rabin.state import (
    FREE,
    TAKEN,
    LRState,
    PC,
    Side,
    initial_state,
    process_state,
)
from repro.automaton.automaton import FunctionalAutomaton
from repro.automaton.signature import TIME_PASSAGE, Action, ActionSignature
from repro.automaton.transition import Transition
from repro.errors import AutomatonError
from repro.probability.space import FiniteDistribution

#: Action kinds, matching the paper's table in Section 6.1.
TRY, FLIP, WAIT, SECOND, DROP, CRIT, EXIT, DROPF, DROPS, REM = (
    "try", "flip", "wait", "second", "drop", "crit", "exit", "dropf",
    "drops", "rem",
)

#: Action kinds controlled by the user, hence exempt from the Unit-Time
#: scheduling obligation (Section 6.2: "actions try_i and exit_i are
#: supposed to be under the control of the user").
USER_KINDS: FrozenSet[str] = frozenset({TRY, EXIT})

#: The paper's external actions.
EXTERNAL_KINDS: FrozenSet[str] = frozenset({TRY, CRIT, EXIT, REM})


def lr_signature(n: int) -> ActionSignature:
    """The action signature for a ring of ``n`` processes."""
    external = frozenset(
        (kind, i) for kind in EXTERNAL_KINDS for i in range(n)
    )
    internal_kinds = (FLIP, WAIT, SECOND, DROP, DROPF, DROPS)
    internal = frozenset(
        (kind, i) for kind in internal_kinds for i in range(n)
    ) | {TIME_PASSAGE}
    return ActionSignature(external=external, internal=internal)


def process_transitions(state: LRState, i: int) -> List[Transition[LRState]]:
    """The steps of process ``i`` enabled in ``state`` (Figure 1)."""
    local = state.process(i)
    pc, u = local.pc, local.u
    steps: List[Transition[LRState]] = []

    if pc is PC.R:
        # 0: a try message moves the process into its trying region.
        steps.append(
            Transition.deterministic(
                state, (TRY, i), state.with_process(i, local.with_pc(PC.F))
            )
        )
    elif pc is PC.F:
        # 1: flip a fair coin to choose which resource to pursue first.
        after_left = state.with_process(i, process_state(PC.W, Side.LEFT))
        after_right = state.with_process(i, process_state(PC.W, Side.RIGHT))
        steps.append(
            Transition(
                state,
                (FLIP, i),
                FiniteDistribution.bernoulli(after_left, after_right),
            )
        )
    elif pc is PC.W:
        # 2: busy-wait for the first resource; the step leaves the state
        # unchanged when the resource is taken (the paper's "else goto 2").
        first = state.resource_index(i, u)
        if state.resource(first) == FREE:
            after = state.with_resource(first, TAKEN).with_process(
                i, local.with_pc(PC.S)
            )
        else:
            after = state
        steps.append(Transition.deterministic(state, (WAIT, i), after))
    elif pc is PC.S:
        # 3: check the second resource once; success enters P, failure
        # moves to D (the first resource will be put back).
        second = state.resource_index(i, u.opp)
        if state.resource(second) == FREE:
            after = state.with_resource(second, TAKEN).with_process(
                i, local.with_pc(PC.P)
            )
        else:
            after = state.with_process(i, local.with_pc(PC.D))
        steps.append(Transition.deterministic(state, (SECOND, i), after))
    elif pc is PC.D:
        # 4: put down the first resource and go flip again.
        first = state.resource_index(i, u)
        after = state.with_resource(first, FREE).with_process(
            i, local.with_pc(PC.F)
        )
        steps.append(Transition.deterministic(state, (DROP, i), after))
    elif pc is PC.P:
        # 5: announce the critical region.
        steps.append(
            Transition.deterministic(
                state, (CRIT, i), state.with_process(i, local.with_pc(PC.C))
            )
        )
    elif pc is PC.C:
        # 6: an exit message starts the exit protocol.
        steps.append(
            Transition.deterministic(
                state, (EXIT, i), state.with_process(i, local.with_pc(PC.EF))
            )
        )
    elif pc is PC.EF:
        # 7: nondeterministically choose u, and free the opposite
        # resource; two separate steps, the choice left to the adversary.
        for new_u in (Side.RIGHT, Side.LEFT):
            freed = state.resource_index(i, new_u.opp)
            after = state.with_resource(freed, FREE).with_process(
                i, process_state(PC.ES, new_u)
            )
            steps.append(Transition.deterministic(state, (DROPF, i), after))
    elif pc is PC.ES:
        # 8: free the remaining resource.
        freed = state.resource_index(i, u)
        after = state.with_resource(freed, FREE).with_process(
            i, local.with_pc(PC.ER)
        )
        steps.append(Transition.deterministic(state, (DROPS, i), after))
    elif pc is PC.ER:
        # 9: send rem and return to the remainder region.
        steps.append(
            Transition.deterministic(
                state, (REM, i), state.with_process(i, local.with_pc(PC.R))
            )
        )
    else:  # pragma: no cover - the PC enum is exhaustive
        raise AutomatonError(f"unknown program counter {pc!r}")
    return steps


def lr_transitions(
    state: LRState,
    time_increments: Tuple[Fraction, ...] = (Fraction(1),),
) -> List[Transition[LRState]]:
    """All steps enabled in ``state``: every process's, plus time passage.

    One time-passage step per allowed increment; the paper's patient
    construction allows every positive amount, and the menu is the
    executable restriction (the adversary still chooses among them).
    """
    steps: List[Transition[LRState]] = []
    for i in range(state.n):
        steps.extend(process_transitions(state, i))
    for amount in time_increments:
        steps.append(
            Transition.deterministic(
                state, TIME_PASSAGE, state.advanced(amount)
            )
        )
    return steps


def lehmann_rabin_automaton(
    n: int,
    start: Optional[LRState] = None,
    time_increments: Tuple[Fraction, ...] = (Fraction(1),),
) -> FunctionalAutomaton[LRState]:
    """The Lehmann-Rabin automaton for a ring of ``n`` philosophers.

    ``start`` defaults to the paper's start state (everyone in the
    remainder region, all resources free); experiments pass other
    invariant-consistent states to begin mid-protocol.
    ``time_increments`` is the menu of time-passage amounts (default:
    unit steps, the round granularity; pass fractions for the
    asynchronous deadline schedulers of :mod:`repro.adversary.deadline`).
    """
    if n < 2:
        raise AutomatonError("the ring needs at least two processes")
    if start is None:
        start = initial_state(n)
    if start.n != n:
        raise AutomatonError(f"start state has {start.n} processes, expected {n}")
    increments = tuple(time_increments)
    if not increments or any(a <= 0 for a in increments):
        raise AutomatonError("time increments must be positive and nonempty")
    return FunctionalAutomaton(
        start_states=(start,),
        signature=lr_signature(n),
        transition_fn=lambda s: lr_transitions(s, increments),
    )


def lr_time_of(state: LRState) -> Fraction:
    """The clock of a Lehmann-Rabin state (``time_of`` for verifiers)."""
    return state.time


class LRProcessView(ProcessView[LRState]):
    """The process decomposition of the ring, for Unit-Time scheduling.

    A process is *ready* (obligated) exactly when it enables an action
    other than ``try_i``/``exit_i`` — i.e. whenever it is not sitting in
    its remainder or critical region.
    """

    def __init__(self, n: int):
        if n < 2:
            raise AutomatonError("the ring needs at least two processes")
        self._processes = tuple(range(n))

    @property
    def processes(self) -> Tuple[int, ...]:
        return self._processes

    def ready(self, state: LRState) -> FrozenSet[int]:
        return frozenset(
            i
            for i in self._processes
            if state.process(i).pc not in (PC.R, PC.C)
        )

    def process_of(self, action: Action) -> Optional[int]:
        if action == TIME_PASSAGE:
            return None
        kind, index = action
        return index

    def time_of(self, state: LRState) -> Fraction:
        return state.time
