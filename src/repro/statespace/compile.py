"""Compile-once interned state spaces.

Every verification engine in this library ultimately walks the same
object graph: rich state objects, memoised transition lists, and
``FiniteDistribution`` targets.  This module interns that graph's
states to dense integer ids and tabulates each state's enabled steps,
once and only when asked, as index arrays with exact ``Fraction``
probabilities for the exact tables.  A batched check interns only its
starts; an exact value asks for the states its adversary table
reaches, and :meth:`CompiledSpace.explore` tabulates the whole
reachable space for the tests that pin it.

Timed automata are compiled *up to the clock*: a :class:`SpaceSpec`
supplies a quotient key (``LRState.untimed()`` for Lehmann-Rabin) under
which the dynamics must be invariant, and every compiled target records
the exact time advance of that outcome.  The exact tables then track
elapsed time as a running ``Fraction`` instead of re-deriving it from
state objects.

Interning is budgeted: exceeding ``max_states`` raises the typed
:class:`repro.errors.StateBudgetExceeded` so ``--engine batched`` can
fail loudly while ``--engine auto`` falls back to the tree walk.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import (
    Callable,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro import obs
from repro.automaton.automaton import ProbabilisticAutomaton
from repro.automaton.transition import Transition
from repro.contracts.config import GuardConfig
from repro.contracts.guards import check_transition_distribution
from repro.errors import StateBudgetExceeded

#: Default cap on the state classes one check's space interns (and on
#: product nodes per adversary table).  A sampled check interns its
#: starts alone; an exact table interns what it reaches.
DEFAULT_STATE_BUDGET = 200_000

_ZERO = Fraction(0)


def _zero_time(state: object) -> Fraction:
    """Default clock for untimed automata: identically zero."""
    return _ZERO


@dataclass(frozen=True)
class SpaceSpec:
    """How to quotient an automaton's states for compilation.

    ``key`` maps a state to its interning key; two states sharing a key
    must have identical dynamics up to the clock (same actions, same
    target keys, same probabilities) and agree on every predicate the
    engines evaluate.  ``time_of`` reads the clock, used to record exact
    per-outcome time advances.  The identity spec (the default) compiles
    untimed automata verbatim.
    """

    key: Callable[[object], Hashable] = lambda state: state
    time_of: Callable[[object], Fraction] = _zero_time


#: The trivial spec: no quotient, zero clock.
IDENTITY_SPEC = SpaceSpec()


def untimed_key(state) -> Hashable:
    """A timed state up to its clock, via its ``untimed()`` method."""
    return state.untimed()


def untimed_spec(
    time_of: Callable[[object], Fraction],
    untimed: Callable[[object], Hashable] = untimed_key,
) -> SpaceSpec:
    """States up to the clock: intern on ``untimed`` and read each
    outcome's time advance off ``time_of``.  Every shipped model
    compiles under this quotient."""
    return SpaceSpec(key=untimed, time_of=time_of)


@dataclass(frozen=True)
class CompiledStep:
    """One tabulated step: a transition lowered to index arrays.

    ``targets[i]`` is the interned id of the ``i``-th outcome, in the
    target distribution's insertion order; ``weights[i]`` is its exact
    probability; ``deltas[i]`` is the exact clock advance of outcome
    ``i``.  ``transition`` retains the source object for identity
    matching against adversary decisions.
    """

    transition: Transition
    action: object
    targets: Tuple[int, ...]
    weights: Tuple[Fraction, ...]
    deltas: Tuple[Fraction, ...]


class CompiledSpace:
    """The interned state space of one automaton, tabulated on demand.

    ``reps[i]`` is the representative (first-interned) concrete state
    of class ``i``.  ``steps[i]`` is ``None`` until :meth:`steps_of`
    tabulates the class's enabled steps, in the automaton's
    deterministic transition order, the first time a caller asks for
    them; :meth:`explore` tabulates everything reachable.  Interning
    honours ``max_states``, and with ``guards`` checking every
    transition passes the Definition 2.1 distribution check as it is
    tabulated.
    """

    __slots__ = (
        "automaton",
        "spec",
        "max_states",
        "guards",
        "reps",
        "steps",
        "n_transitions",
        "_ids",
    )

    def __init__(
        self,
        automaton: ProbabilisticAutomaton,
        spec: SpaceSpec,
        *,
        max_states: int,
        guards: Optional[GuardConfig],
    ):
        self.automaton = automaton
        self.spec = spec
        self.max_states = max_states
        self.guards = guards
        self.reps: List[object] = []
        self.steps: List[Optional[Tuple[CompiledStep, ...]]] = []
        self.n_transitions = 0
        self._ids: Dict[Hashable, int] = {}

    @property
    def n_states(self) -> int:
        """The number of interned state classes."""
        return len(self.reps)

    def intern(self, state: object) -> int:
        """The id of ``state``'s class, interning it when new.

        Raises :class:`StateBudgetExceeded` rather than intern past
        ``max_states`` classes.
        """
        state_key = self.spec.key(state)
        found = self._ids.get(state_key)
        if found is not None:
            return found
        reps = self.reps
        if len(reps) >= self.max_states:
            raise StateBudgetExceeded(
                f"state-space compile exceeded its budget of "
                f"{self.max_states} states; rerun with a larger "
                f"--state-budget or --engine tree",
                budget=self.max_states,
                explored=len(reps),
            )
        new_id = len(reps)
        self._ids[state_key] = new_id
        reps.append(state)
        self.steps.append(None)
        return new_id

    def steps_of(self, state_id: int) -> Tuple[CompiledStep, ...]:
        """Class ``state_id``'s enabled steps, tabulated on first use.

        Interns every outcome, so the budget can raise here; a raise
        (or a strict-mode guard violation) leaves the class untabulated
        and the next call retries it in full.
        """
        tabulated = self.steps[state_id]
        if tabulated is not None:
            return tabulated
        guards = self.guards
        checking = guards is not None and guards.checking
        time_of = self.spec.time_of
        intern = self.intern
        rep = self.reps[state_id]
        source_time = time_of(rep)
        compiled: List[CompiledStep] = []
        for transition in self.automaton.transitions(rep):
            if checking:
                check_transition_distribution(guards, transition, cache=False)
            targets: List[int] = []
            weights: List[Fraction] = []
            deltas: List[Fraction] = []
            for point, weight in transition.target.items():
                targets.append(intern(point))
                weights.append(weight)
                # Only time passage moves the clock; every other step
                # hands its targets the source's clock object.
                point_time = time_of(point)
                deltas.append(
                    _ZERO
                    if point_time is source_time
                    else point_time - source_time
                )
            compiled.append(
                CompiledStep(
                    transition=transition,
                    action=transition.action,
                    targets=tuple(targets),
                    weights=tuple(weights),
                    deltas=tuple(deltas),
                )
            )
        tabulated = self.steps[state_id] = tuple(compiled)
        self.n_transitions += len(tabulated)
        return tabulated

    def explore(self) -> "CompiledSpace":
        """Tabulate every class reachable from the interned ones.

        Visits ids in order, so from fresh roots this is the
        breadth-first search over quotient classes; ids and reps
        interned earlier keep their values.  Returns ``self``.  No
        command calls it, since the adversary tables tabulate on demand;
        it is the oracle of the golden-count and strict-compile tests.
        """
        state_id = 0
        while state_id < len(self.reps):
            self.steps_of(state_id)
            state_id += 1
        return self

    def flags(self, predicate: Callable[[object], bool]) -> List[bool]:
        """``predicate`` evaluated once per interned class, indexed by id.

        The predicate must be invariant under the quotient key (for the
        shipped specs: must not read the clock) — the same contract the
        key itself carries.
        """
        return [bool(predicate(rep)) for rep in self.reps]


def compile_space(
    automaton: ProbabilisticAutomaton,
    roots: Sequence[object],
    spec: SpaceSpec = IDENTITY_SPEC,
    *,
    max_states: int = DEFAULT_STATE_BUDGET,
    guards: Optional[GuardConfig] = None,
) -> CompiledSpace:
    """A space over ``automaton`` with ``roots`` interned, in order.

    Nothing is tabulated yet:
    :func:`~repro.statespace.product.compile_adversary` tabulates the
    classes its product table reaches (:meth:`CompiledSpace.steps_of`),
    and :meth:`CompiledSpace.explore` tabulates the whole reachable
    space.  Either raises :class:`StateBudgetExceeded` past
    ``max_states`` interned classes, as can the roots themselves.  When
    ``guards`` is checking, every tabulated transition passes the
    Definition 2.1 distribution check there, once, replacing the
    per-sample check the tree walk performs (strict mode therefore
    raises while tabulating).  Emits the ``statespace.compile_ms``
    histogram.
    """
    started = time.perf_counter()
    space = CompiledSpace(
        automaton, spec, max_states=max_states, guards=guards
    )
    for root in roots:
        space.intern(root)
    if obs.enabled():
        obs.observe(
            "statespace.compile_ms", (time.perf_counter() - started) * 1000.0
        )
    return space
