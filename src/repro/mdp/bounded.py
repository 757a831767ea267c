"""Exact worst-case probabilities over round-synchronous adversaries.

The Unit-Time schema is infinite; exact minimisation over all of it is
out of reach.  The *round-synchronous* subclass is finitely branching
and Markov, so the minimum success probability over it is computable by
backward induction:

* a round lasts one time unit;
* within a round, the adversary repeatedly picks any process that has
  not stepped yet this round (obligated or user-controlled) and fires
  one of its enabled steps — full knowledge of all outcomes so far;
* the round may close (time advances) only when every *obligated*
  process has stepped.

:func:`round_moves` is that move rule, written once; the induction
here and the expected-time enumeration in
:mod:`repro.mdp.expected_time` both read it.

Every strategy in the subclass satisfies the Unit-Time obligation, so
the computed minimum is an upper bound on the schema-wide minimum — if
it already meets the paper's ``p``, the subclass cannot refute the
statement, and if it falls below ``p`` we have a genuine Unit-Time
counterexample.

Conditional claims ``first(a_1,U_1) ∧ … ∧ first(a_k,U_k) ⟹ reach``
(the appendix lemmas) take the first-occurrence constraints as
``watched``: a watched action whose first occurrence lands outside its
set counts as reaching the target.  For every strategy, "all
constraints hold and the target is missed" is the complement of
"reach the target or break a constraint", so the worst counterexample
probability is exactly one minus the minimum this module computes.  A
watched action still unfired at the horizon counts as satisfied (the
convention ``docs/semantics.md`` states).

The induction memoises on ``(untimed state, stepped set, unfired
watched actions, rounds left)``: optimal play depends on history only
through that tuple, because the dynamics are time-invariant and coin
outcomes are recorded in the state.  It runs on an explicit stack, so
the horizon is not limited by the interpreter's recursion limit, and
with the cyclic collector paused: the memo is a large heap of small
acyclic tuples that reference counting frees, which collections would
only re-scan.
"""

from __future__ import annotations

import functools
import gc
from fractions import Fraction
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    List,
    Mapping,
    Optional,
    Tuple,
    TypeVar,
)

from repro import obs
from repro.adversary.unit_time import ProcessView
from repro.automaton.automaton import ProbabilisticAutomaton
from repro.automaton.signature import TIME_PASSAGE, Action
from repro.automaton.transition import Transition
from repro.errors import VerificationError

State = TypeVar("State", bound=Hashable)

_ZERO = Fraction(0)
_ONE = Fraction(1)
_NOBODY: FrozenSet = frozenset()


def _collector_paused(func: Callable) -> Callable:
    """Run ``func`` without cyclic collections, then restore the
    collector's prior state; nothing is frozen."""

    @functools.wraps(func)
    def paused(*args, **kwargs):
        collecting = gc.isenabled()
        gc.disable()
        try:
            return func(*args, **kwargs)
        finally:
            if collecting:
                gc.enable()

    return paused


def round_moves(
    automaton: ProbabilisticAutomaton[State],
    view: ProcessView[State],
    state: State,
    stepped: FrozenSet,
) -> Tuple[List[Tuple[Hashable, Transition[State]]], bool]:
    """The adversary's round-synchronous moves from ``state``.

    Returns ``(steps, may_close)``: each enabled step of a process not
    in ``stepped``, paired with that process, and whether the round may
    close because every obligated process has stepped.
    """
    steps = []
    for step in automaton.transitions(state):
        if step.action == TIME_PASSAGE:
            continue
        process = view.process_of(step.action)
        if process is not None and process not in stepped:
            steps.append((process, step))
    return steps, view.ready(state) <= stepped


@_collector_paused
def min_reach_probability_rounds(
    automaton: ProbabilisticAutomaton[State],
    view: ProcessView[State],
    target: Callable[[State], bool],
    start: State,
    rounds: int,
    strip_time: Callable[[State], Hashable],
    minimise: bool = True,
    max_memo: int = 5_000_000,
    *,
    watched: Optional[Mapping[Action, Callable[[State], bool]]] = None,
    memo: Optional[Dict] = None,
) -> Fraction:
    """Extremal probability of reaching ``target`` within ``rounds``.

    ``strip_time`` must map a state to a hashable key invariant under
    time passage (for Lehmann-Rabin:
    :meth:`~repro.algorithms.lehmann_rabin.state.LRState.untimed`); the
    induction relies on the dynamics depending only on that key.

    ``minimise=True`` computes the adversary's best spoiling play (the
    quantity arrow statements lower-bound); ``False`` the most helpful
    scheduler, an upper envelope used in ablations.

    ``watched`` maps actions to the state set their first occurrence
    must land in; landing outside counts as reaching ``target`` (see
    the module docstring for why ``1 -`` the minimum is then the worst
    counterexample probability of the conditional claim).

    ``memo`` lets callers share one table across many starts of the
    *same* (target, watched, minimise) problem, as
    :func:`min_reach_over_starts` does.
    """
    if rounds < 0:
        raise VerificationError("rounds must be nonnegative")
    if obs.enabled():
        obs.incr("mdp.bounded_rounds.calls")
    if target(start):
        return _ONE
    if rounds == 0:
        return _ZERO
    select = min if minimise else max
    watched = watched or {}
    if memo is None:
        memo = {}
    before = len(memo)

    # A node is (key, stepped, unfired watched actions, rounds left);
    # only nodes off the target and before the horizon get one.  Each
    # move is (mass that hit the target or broke a constraint,
    # [(weight, child node), ...]).
    root = (strip_time(start), _NOBODY, frozenset(watched), rounds)
    expanded: Dict[Tuple, List] = {}
    stack = [(start, root)]
    while stack:
        state, node = stack[-1]
        if node in memo:
            stack.pop()
            continue
        moves = expanded.pop(node, None)
        if moves is None:
            if len(memo) >= max_memo:
                raise VerificationError(
                    f"round-synchronous induction exceeded {max_memo} "
                    "memo entries"
                )
            key, stepped, unfired, remaining = node
            steps, may_close = round_moves(automaton, view, state, stepped)
            moves = []
            missing = []
            for process, step in steps:
                after = stepped | {process}
                constraint = None
                left = unfired
                if step.action in unfired:
                    constraint = watched[step.action]
                    left = unfired - {step.action}
                done = _ZERO
                children = []
                for successor, weight in step.target.items():
                    if target(successor) or (
                        constraint is not None and not constraint(successor)
                    ):
                        done += weight
                        continue
                    child = (strip_time(successor), after, left, remaining)
                    children.append((weight, child))
                    if child not in memo:
                        missing.append((successor, child))
                moves.append((done, children))
            if may_close:
                # Time advances one unit and obligations reset; the
                # state's own clock is irrelevant to the dynamics, so
                # the state is reused unchanged.
                if remaining == 1:
                    moves.append((_ZERO, ()))
                else:
                    child = (key, _NOBODY, unfired, remaining - 1)
                    moves.append((_ZERO, ((_ONE, child),)))
                    if child not in memo:
                        missing.append((state, child))
            if missing:
                expanded[node] = moves
                stack.extend(missing)
                continue
        # No move at all (obligations pending yet nothing schedulable)
        # cannot happen for well-formed views; it counts as failure.
        memo[node] = select(
            (
                sum((weight * memo[child] for weight, child in children), done)
                for done, children in moves
            ),
            default=_ZERO,
        )
        stack.pop()

    if obs.enabled():
        obs.incr("mdp.bounded_rounds.states_evaluated", len(memo) - before)
    return memo[root]


@_collector_paused
def min_reach_over_starts(
    automaton: ProbabilisticAutomaton[State],
    view: ProcessView[State],
    target: Callable[[State], bool],
    starts,
    rounds: int,
    strip_time: Callable[[State], Hashable],
    minimise: bool = True,
    *,
    watched: Optional[Mapping[Action, Callable[[State], bool]]] = None,
) -> Tuple[Fraction, Optional[State]]:
    """The worst start state of a family, with its exact probability.

    Returns ``(extremum, witness)``.  The starts share one memo table,
    so neighbouring starts reuse almost every subproblem.  The witness
    is the first start attaining the extremum when that is below 1
    (above 0 for ``minimise=False``), and ``None`` when every start
    reaches the target surely (misses it surely).
    """
    starts = list(starts)
    if not starts:
        raise VerificationError("no start states supplied")
    memo: Dict = {}
    extremum, witness = (_ONE if minimise else _ZERO), None
    for start in starts:
        value = min_reach_probability_rounds(
            automaton, view, target, start, rounds, strip_time, minimise,
            watched=watched, memo=memo,
        )
        if (value < extremum) if minimise else (value > extremum):
            extremum, witness = value, start
    return extremum, witness
