"""Monte-Carlo sampling of executions.

Exact tree exploration is exponential in depth; for the long horizons of
the Lehmann-Rabin experiments we instead sample maximal executions of
``H(M, A, s)`` and estimate event probabilities and time statistics.
Each sample threads an explicit :class:`random.Random`, so experiments
are reproducible from their seeds.

This module is the *tree engine* of the sampling layer: it walks the
live object graph one fragment at a time.  The batched engine in
:mod:`repro.statespace.engine` mirrors these loops over flattened
interned tables — draw for draw, metric for metric — so both produce
byte-identical reports; any change to the control flow here must be
reflected there (the cross-engine suite in ``tests/test_statespace.py``
pins the equivalence).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Hashable, Optional, TypeVar

from repro import contracts, obs
from repro.adversary.base import Adversary
from repro.automaton.automaton import ProbabilisticAutomaton
from repro.automaton.execution import ExecutionFragment
from repro.contracts import GuardConfig
from repro.contracts.fuel import fuel_for
from repro.contracts.guards import check_chosen_step
from repro.errors import VerificationError
from repro.events.schema import EventSchema, EventStatus

State = TypeVar("State", bound=Hashable)


@dataclass(frozen=True)
class SampleResult:
    """The outcome of sampling one execution against an event schema.

    ``verdict`` is ``True``/``False`` when the event was decided and
    ``None`` when the step budget ran out first (the caller chooses how
    to count truncations; the sound choice for lower-bound checking is
    to count them as failures).
    """

    verdict: Optional[bool]
    steps: int
    final: ExecutionFragment

    @property
    def truncated(self) -> bool:
        """True when the sampler hit its step budget before a verdict."""
        return self.verdict is None


def sample_event(
    automaton: ProbabilisticAutomaton[State],
    adversary: Adversary[State],
    start: ExecutionFragment[State],
    schema: EventSchema[State],
    rng: random.Random,
    max_steps: int = 10_000,
    *,
    guards: Optional[GuardConfig] = None,
) -> SampleResult:
    """Sample one execution of ``H(M, A, start)`` until the event decides.

    Stops as soon as the schema classifies the growing fragment as
    ACCEPT or REJECT, when the adversary halts (then
    ``decide_maximal`` settles the verdict), or after ``max_steps``
    steps (verdict ``None``).

    ``guards`` selects the contract-check mode (default: the installed
    :func:`repro.contracts.active` config, normally off).  Guard checks
    never consume ``rng``, so enabling them does not perturb the sample
    stream; in warn mode a fuel exhaustion truncates the sample exactly
    like hitting ``max_steps``.
    """
    if max_steps < 0:
        raise VerificationError("max_steps must be nonnegative")
    config = guards if guards is not None else contracts.active()
    checking = config.checking
    fuel = fuel_for(config)
    adversary_name = getattr(adversary, "name", "")
    fragment = start
    result: Optional[SampleResult] = None
    for steps_taken in range(max_steps + 1):
        status = schema.classify(fragment)
        if status is EventStatus.ACCEPT:
            result = SampleResult(True, steps_taken, fragment)
            break
        if status is EventStatus.REJECT:
            result = SampleResult(False, steps_taken, fragment)
            break
        if steps_taken == max_steps:
            break
        chosen = adversary.choose(automaton, fragment)
        if obs.enabled():
            obs.incr("adversary.decisions")
            if chosen is None:
                obs.incr("adversary.halts")
        if chosen is None:
            result = SampleResult(
                schema.decide_maximal(fragment), steps_taken, fragment
            )
            break
        if checking:
            check_chosen_step(config, automaton, fragment, chosen, adversary_name)
            if fuel is not None and not fuel.spend(config, fragment, adversary_name):
                result = SampleResult(None, steps_taken, fragment)
                break
        next_state = chosen.target.sample(rng)
        fragment = fragment.extend(chosen.action, next_state)
    if result is None:
        result = SampleResult(None, max_steps, fragment)
    if obs.enabled():
        _record_event_sample(result)
    return result


def _record_event_sample(result: SampleResult) -> None:
    """Metrics for one finished event sample (recording registries only)."""
    obs.incr("sampler.samples")
    obs.incr("sampler.steps", result.steps)
    obs.observe("sampler.steps_per_sample", result.steps)
    if result.truncated:
        obs.incr("sampler.truncated")
    elif result.verdict:
        obs.incr("sampler.accepted")
    else:
        obs.incr("sampler.rejected")


def sample_time_until(
    automaton: ProbabilisticAutomaton[State],
    adversary: Adversary[State],
    start: ExecutionFragment[State],
    target: Callable[[State], bool],
    time_of: Callable[[State], Fraction],
    rng: random.Random,
    max_steps: int = 10_000,
    *,
    guards: Optional[GuardConfig] = None,
) -> Optional[Fraction]:
    """The elapsed time until ``target`` first holds along one sample.

    Returns ``None`` when the target was not reached within the step
    budget (or before the adversary halted).  Elapsed time is measured
    from the start fragment's last state — the moment the adversary
    takes over, matching Definition 3.1's clock.  ``guards`` behaves as
    in :func:`sample_event`.
    """
    if max_steps < 0:
        raise VerificationError("max_steps must be nonnegative")
    config = guards if guards is not None else contracts.active()
    checking = config.checking
    fuel = fuel_for(config)
    adversary_name = getattr(adversary, "name", "")
    origin = time_of(start.lstate)
    if any(target(state) for state in start.states):
        if obs.enabled():
            _record_time_sample(Fraction(0), 0)
        return Fraction(0)
    fragment = start
    elapsed: Optional[Fraction] = None
    steps_taken = 0
    for _ in range(max_steps):
        chosen = adversary.choose(automaton, fragment)
        if obs.enabled():
            obs.incr("adversary.decisions")
            if chosen is None:
                obs.incr("adversary.halts")
        if chosen is None:
            break
        if checking:
            check_chosen_step(config, automaton, fragment, chosen, adversary_name)
            if fuel is not None and not fuel.spend(config, fragment, adversary_name):
                break
        next_state = chosen.target.sample(rng)
        fragment = fragment.extend(chosen.action, next_state)
        steps_taken += 1
        if target(next_state):
            elapsed = time_of(next_state) - origin
            break
    if obs.enabled():
        _record_time_sample(elapsed, steps_taken)
    return elapsed


def _record_time_sample(elapsed: Optional[Fraction], steps: int) -> None:
    """Metrics for one time-to-target sample (recording registries only)."""
    obs.incr("sampler.time_samples")
    obs.incr("sampler.steps", steps)
    if elapsed is None:
        obs.incr("sampler.unreached")
    else:
        obs.observe("sampler.time_to_target", float(elapsed))


def trim_fragment(fragment: ExecutionFragment[State]) -> ExecutionFragment[State]:
    """Restart a fragment at its last state.

    Utility for long-running samplers that only need bounded history:
    callers that know their adversary and schema look at bounded history
    can trim to keep memory flat.  (The adversaries in this library that
    need full history — coin-peeking policies — must not be used with
    trimming; the samplers above never trim implicitly.)
    """
    return ExecutionFragment.initial(fragment.lstate)
