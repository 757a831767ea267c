"""Compile-once interned state spaces.

Every verification engine in this library ultimately walks the same
object graph: rich state objects, memoised transition lists, and
``FiniteDistribution`` targets.  This module explores that graph *once*,
interning states to dense integer ids and tabulating each state's
enabled steps as index arrays — exact ``Fraction`` probabilities for the
analytical engines plus precomputed float partial sums that replicate
:meth:`repro.probability.space.FiniteDistribution.sample` bit-for-bit
for the Monte-Carlo engine.

Timed automata are compiled *up to the clock*: a :class:`SpaceSpec`
supplies a quotient key (``LRState.untimed()`` for Lehmann-Rabin) under
which the dynamics must be invariant, and every compiled target records
the exact time advance of that outcome.  Samplers then track elapsed
time as a running ``Fraction`` instead of re-deriving it from state
objects.

Exploration is budgeted: exceeding ``max_states`` raises the typed
:class:`repro.errors.StateBudgetExceeded` so ``--engine batched`` can
fail loudly while ``--engine auto`` falls back to the tree walk.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import (
    Callable,
    Deque,
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
from repro.contracts.guards import check_transition_distribution, report_violation
from repro.errors import QuotientInvarianceError, StateBudgetExceeded

#: Default cap on interned states per compile (and on product nodes per
#: adversary table).  Chosen so the n<=4 Lehmann-Rabin rings compile in
#: well under a second while the n>=5 rings trip ``auto`` into the tree
#: walk instead of stalling.
DEFAULT_STATE_BUDGET = 200_000

#: How many quotient classes the flags spot check probes (every member
#: of each probed class is evaluated).  Bounded so checking stays cheap
#: on large spaces while still catching non-invariant predicates fast.
_FLAG_PROBES = 64

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

    ``canonical``, when set, maps every state to a canonical
    representative of its symmetry class *before* interning — e.g. the
    lexicographically least rotation of a Lehmann-Rabin ring state
    (``repro.algorithms.lehmann_rabin.symmetry``).  It must preserve the
    clock (``time_of(canonical(s)) == time_of(s)``) and commute with the
    dynamics: the canonicalised successors of ``canonical(s)`` must be
    the canonicalised successors of ``s``.  ``orbit`` enumerates the
    members of a state's symmetry class; it backs the quotient-
    invariance spot check of :meth:`CompiledSpace.flags` and is required
    whenever ``canonical`` is set and guards are checking.
    """

    key: Callable[[object], Hashable] = lambda state: state
    time_of: Callable[[object], Fraction] = _zero_time
    canonical: Optional[Callable[[object], object]] = None
    orbit: Optional[Callable[[object], Sequence[object]]] = None


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
    compiles under this quotient; :mod:`repro.statespace.ring` refines
    it with the ring symmetries."""
    return SpaceSpec(key=untimed, time_of=time_of)


@dataclass(frozen=True)
class CompiledStep:
    """One tabulated step: a transition lowered to index arrays.

    ``targets[i]`` is the interned id of the ``i``-th outcome, in the
    target distribution's insertion order; ``cum[i]`` is the running
    float sum of the first ``i+1`` weights, accumulated left to right
    exactly as ``FiniteDistribution.sample`` does, so one uniform draw
    against ``cum`` lands on the same outcome the tree walk would pick;
    ``weights`` keeps the exact probabilities for the analytical
    engines; ``deltas[i]`` is the exact clock advance of outcome ``i``.
    ``transition`` retains the source object for identity matching
    against adversary decisions.
    """

    transition: Transition
    action: object
    targets: Tuple[int, ...]
    cum: Tuple[float, ...]
    weights: Tuple[Fraction, ...]
    deltas: Tuple[Fraction, ...]


class CompiledSpace:
    """The interned reachable state space of one automaton.

    ``reps[i]`` is the representative (first-encountered) concrete state
    of class ``i``; ``steps[i]`` tabulates its enabled steps in the
    automaton's deterministic transition order.
    """

    __slots__ = ("automaton", "spec", "reps", "steps", "_ids", "n_transitions")

    def __init__(
        self,
        automaton: ProbabilisticAutomaton,
        spec: SpaceSpec,
        reps: List[object],
        steps: List[Tuple[CompiledStep, ...]],
        ids: Dict[Hashable, int],
        n_transitions: int,
    ):
        self.automaton = automaton
        self.spec = spec
        self.reps = reps
        self.steps = steps
        self._ids = ids
        self.n_transitions = n_transitions

    @property
    def n_states(self) -> int:
        """The number of interned state classes."""
        return len(self.reps)

    def state_id(self, state: object) -> int:
        """The interned id of ``state`` (KeyError when unreachable)."""
        spec = self.spec
        if spec.canonical is not None:
            state = spec.canonical(state)
        return self._ids[spec.key(state)]

    def contains(self, state: object) -> bool:
        """Was ``state`` (up to the quotient) reached during compile?"""
        spec = self.spec
        if spec.canonical is not None:
            state = spec.canonical(state)
        return spec.key(state) in self._ids

    def flags(
        self,
        predicate: Callable[[object], bool],
        guards: Optional[GuardConfig] = None,
    ) -> List[bool]:
        """``predicate`` evaluated once per class, indexed by id.

        The predicate must be invariant under the quotient key (for the
        shipped specs: must not read the clock) — the same contract the
        key itself carries.  When the spec carries a symmetry ``orbit``
        and ``guards`` is checking, a bounded spot check re-evaluates
        the predicate on every member of sampled classes and routes any
        disagreement through the guard layer
        (:class:`~repro.errors.QuotientInvarianceError`): warn mode
        counts and warns once, strict mode raises.
        """
        values = [bool(predicate(rep)) for rep in self.reps]
        orbit = self.spec.orbit
        if orbit is None or guards is None or not guards.checking:
            return values
        probes = min(len(values), _FLAG_PROBES)
        if not probes:
            return values
        stride = max(1, len(values) // probes)
        for index in range(0, len(values), stride):
            rep = self.reps[index]
            for member in orbit(rep):
                if bool(predicate(member)) != values[index]:
                    report_violation(
                        guards,
                        QuotientInvarianceError(
                            f"predicate {predicate!r} is not invariant "
                            f"under the symmetry quotient: class "
                            f"representative {rep!r} maps to "
                            f"{values[index]} but class member "
                            f"{member!r} maps to {not values[index]}",
                            state=member,
                            site="statespace.flags.quotient",
                        ),
                    )
                    return values
        return values


def compile_space(
    automaton: ProbabilisticAutomaton,
    roots: Sequence[object],
    spec: SpaceSpec = IDENTITY_SPEC,
    *,
    max_states: int = DEFAULT_STATE_BUDGET,
    guards: Optional[GuardConfig] = None,
) -> CompiledSpace:
    """Explore and intern the space reachable from ``roots``.

    Breadth-first over quotient classes; raises
    :class:`StateBudgetExceeded` past ``max_states``.  When ``guards``
    is checking, every tabulated transition passes the Definition 2.1
    distribution check *here*, once, replacing the per-sample check the
    tree walk performs (strict mode therefore raises at compile time).
    Emits ``statespace.{states,transitions,compile_ms}`` metrics.
    """
    started = time.perf_counter()
    key_of = spec.key
    time_of = spec.time_of
    canonical = spec.canonical
    checking = guards is not None and guards.checking
    ids: Dict[Hashable, int] = {}
    reps: List[object] = []
    steps: List[Optional[Tuple[CompiledStep, ...]]] = []
    frontier: Deque[int] = deque()

    def intern(state: object) -> int:
        if canonical is not None:
            state = canonical(state)
        state_key = key_of(state)
        found = ids.get(state_key)
        if found is not None:
            return found
        if len(reps) >= max_states:
            raise StateBudgetExceeded(
                f"state-space compile exceeded its budget of {max_states} "
                f"states; rerun with a larger --state-budget or "
                f"--engine tree",
                budget=max_states,
                explored=len(reps),
            )
        new_id = len(reps)
        ids[state_key] = new_id
        reps.append(state)
        steps.append(None)
        frontier.append(new_id)
        return new_id

    for root in roots:
        intern(root)
    n_transitions = 0
    while frontier:
        state_id = frontier.popleft()
        rep = reps[state_id]
        source_time = time_of(rep)
        compiled: List[CompiledStep] = []
        for transition in automaton.transitions(rep):
            if checking:
                check_transition_distribution(guards, transition, cache=False)
            targets: List[int] = []
            cum: List[float] = []
            weights: List[Fraction] = []
            deltas: List[Fraction] = []
            running = 0.0
            for point, weight in transition.target.items():
                targets.append(intern(point))
                running += float(weight)
                cum.append(running)
                weights.append(weight)
                deltas.append(time_of(point) - source_time)
            compiled.append(
                CompiledStep(
                    transition=transition,
                    action=transition.action,
                    targets=tuple(targets),
                    cum=tuple(cum),
                    weights=tuple(weights),
                    deltas=tuple(deltas),
                )
            )
        steps[state_id] = tuple(compiled)
        n_transitions += len(compiled)

    space = CompiledSpace(
        automaton=automaton,
        spec=spec,
        reps=reps,
        steps=[tabulated if tabulated is not None else () for tabulated in steps],
        ids=ids,
        n_transitions=n_transitions,
    )
    if obs.enabled():
        obs.gauge("statespace.states", space.n_states)
        obs.gauge("statespace.transitions", n_transitions)
        obs.observe(
            "statespace.compile_ms", (time.perf_counter() - started) * 1000.0
        )
    return space
