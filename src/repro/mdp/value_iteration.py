"""Step-bounded extremal reachability by backward induction.

For a finite-state probabilistic automaton viewed as an MDP (each
enabled step is an adversary choice), the probability of reaching a
target within ``k`` steps under the worst (or best) non-halting
adversary satisfies the Bellman recursion::

    V_0(s)   = [s in target]
    V_k(s)   = 1                                  if s in target
             = opt_{steps(s)} sum_s' P(s') V_{k-1}(s')   otherwise

with ``opt`` being min or max.  Halting adversaries are excluded (a
halting adversary trivially drives every reachability probability to 0,
so minimisation over them is vacuous); this matches schemas like
Unit-Time that force progress.

Exact rational arithmetic throughout; intended for small explicit
automata (tests, the two-coin Example 4.1 model, ablations).  The
Lehmann-Rabin exact checker uses the round-synchronous recursion in
:mod:`repro.mdp.bounded` instead, which accounts for timing.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, Hashable, Tuple, TypeVar

from repro import obs
from repro.automaton.automaton import ProbabilisticAutomaton
from repro.errors import VerificationError

State = TypeVar("State", bound=Hashable)

_ZERO = Fraction(0)
_ONE = Fraction(1)


def bounded_reachability(
    automaton: ProbabilisticAutomaton[State],
    target: Callable[[State], bool],
    start: State,
    steps: int,
    minimise: bool = True,
) -> Fraction:
    """The extremal probability of hitting ``target`` within ``steps``.

    ``minimise=True`` gives the worst case over non-halting adversaries
    (the side relevant to arrow statements); ``False`` the best case.
    Terminal states without enabled steps contribute 0 unless they are
    in the target.

    The induction runs on an explicit stack, so ``steps`` can exceed the
    interpreter's recursion limit.
    """
    if steps < 0:
        raise VerificationError("steps must be nonnegative")
    select = min if minimise else max
    memo: Dict[Tuple[Hashable, int], Fraction] = {}

    stack = [(start, steps)]
    while stack:
        state, remaining = stack[-1]
        key = (state, remaining)
        if key in memo:
            stack.pop()
            continue
        if target(state):
            memo[key] = _ONE
            stack.pop()
            continue
        if remaining == 0:
            memo[key] = _ZERO
            stack.pop()
            continue
        enabled = automaton.transitions(state)
        if not enabled:
            memo[key] = _ZERO
            stack.pop()
            continue
        missing = [
            (successor, remaining - 1)
            for step in enabled
            for successor in step.target.support
            if (successor, remaining - 1) not in memo
        ]
        if missing:
            stack.extend(missing)
            continue
        memo[key] = select(
            sum(
                (
                    weight * memo[(successor, remaining - 1)]
                    for successor, weight in step.target.items()
                ),
                _ZERO,
            )
            for step in enabled
        )
        stack.pop()

    result = memo[(start, steps)]
    if obs.enabled():
        obs.incr("mdp.bounded.calls")
        obs.incr("mdp.bounded.states_evaluated", len(memo))
    return result


def unbounded_reachability(
    automaton: ProbabilisticAutomaton[State],
    target: Callable[[State], bool],
    start: State,
    minimise: bool = True,
    iterations: int = 10_000,
    tolerance: float = 1e-12,
) -> float:
    """Extremal unbounded reachability by value iteration (floats).

    Iterates the Bellman operator until the sup-norm change falls below
    ``tolerance``.  Value iteration converges from below for this
    monotone operator, so the returned value is a sound lower
    approximation for both optimisation senses.  Requires the reachable
    state space to be finite; explored on demand.
    """
    from repro.automaton.reachability import reachable_states

    with obs.span(
        "mdp.value_iteration", minimise=minimise, tolerance=tolerance
    ) as span:
        states = reachable_states(automaton, max_states=1_000_000)
        if start not in states:
            raise VerificationError(f"start state {start!r} is not reachable")
        obs.gauge("mdp.value_iteration.states", len(states))
        select = min if minimise else max
        values: Dict[State, float] = {
            s: (1.0 if target(s) else 0.0) for s in states
        }
        sweeps = 0
        for _ in range(iterations):
            delta = 0.0
            for state in states:
                if target(state):
                    continue
                enabled = automaton.transitions(state)
                if not enabled:
                    continue
                updated = select(
                    sum(
                        float(weight) * values[successor]
                        for successor, weight in step.target.items()
                    )
                    for step in enabled
                )
                delta = max(delta, abs(updated - values[state]))
                values[state] = updated
            sweeps += 1
            if obs.enabled():
                obs.incr("mdp.value_iteration.sweeps")
                obs.incr("mdp.value_iteration.states_touched", len(states))
                obs.observe("mdp.value_iteration.residual", delta)
            if delta < tolerance:
                break
        span.annotate(sweeps=sweeps, value=values[start])
    return values[start]
