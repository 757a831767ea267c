"""Monte-Carlo sampling of executions.

Exact tree exploration is exponential in depth; for the long horizons of
the Lehmann-Rabin experiments we instead sample maximal executions of
``H(M, A, s)`` and estimate event probabilities and time statistics.
Each sample threads an explicit :class:`random.Random`, so experiments
are reproducible from their seeds.

This module is the *tree engine* of the sampling layer: one walk
grows one fresh fragment per sample, a step at a time.
:func:`sample_event` runs it against any event schema;
:func:`sample_time_until` reads the same walk under
:class:`~repro.events.reach.EventuallyReach` at its first hit.  The
batched engine in :mod:`repro.statespace.engine` has two walks of its
own, one over flattened interned tables and one over a memoised tree
of fragments for the adversaries without a table, each mirroring this
one draw for draw and metric for metric, so all produce
byte-identical reports; a change to the control flow here must be
made in both (the cross-engine suites in ``tests/test_statespace.py``
and ``tests/test_batched.py`` pin the equivalence).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Hashable, Optional, TypeVar

from repro import obs
from repro.adversary.base import Adversary
from repro.automaton.automaton import ProbabilisticAutomaton
from repro.automaton.execution import ExecutionFragment
from repro.contracts import OFF_CONFIG, GuardConfig
from repro.contracts.fuel import fuel_for
from repro.contracts.guards import check_chosen_step
from repro.errors import VerificationError
from repro.events.reach import EventuallyReach
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

    ``guards`` selects the contract-check mode (default: off).  Guard
    checks never consume ``rng``, so enabling them does not perturb the
    sample stream; in warn mode a fuel exhaustion truncates the sample
    exactly like hitting ``max_steps``.
    """
    result = _walk(automaton, adversary, start, schema, rng, max_steps, guards)
    if obs.enabled():
        _record_event_sample(result)
    return result


def _walk(
    automaton: ProbabilisticAutomaton[State],
    adversary: Adversary[State],
    start: ExecutionFragment[State],
    schema: EventSchema[State],
    rng: random.Random,
    max_steps: int,
    guards: Optional[GuardConfig],
) -> SampleResult:
    """The tree walk behind both samplers.

    Per step: classify (the start in full, each extension with
    ``classify_step``), horizon, adversary decision, guard checks, one
    draw.  Records the ``adversary.*`` counters; the callers record
    their own ``sampler.*`` metrics.
    """
    if max_steps < 0:
        raise VerificationError("max_steps must be nonnegative")
    config = guards if guards is not None else OFF_CONFIG
    checking = config.checking
    fuel = fuel_for(config)
    adversary_name = getattr(adversary, "name", "")
    fragment = start
    status = schema.classify(fragment)
    steps_taken = 0
    while True:
        if status is EventStatus.ACCEPT:
            return SampleResult(True, steps_taken, fragment)
        if status is EventStatus.REJECT:
            return SampleResult(False, steps_taken, fragment)
        if steps_taken == max_steps:
            return SampleResult(None, steps_taken, fragment)
        chosen = adversary.choose(automaton, fragment)
        if obs.enabled():
            obs.incr("adversary.decisions")
            if chosen is None:
                obs.incr("adversary.halts")
        if chosen is None:
            return SampleResult(
                schema.decide_maximal(fragment), steps_taken, fragment
            )
        if checking:
            check_chosen_step(config, automaton, fragment, chosen, adversary_name)
            if fuel is not None and not fuel.spend(config, fragment, adversary_name):
                return SampleResult(None, steps_taken, fragment)
        fragment = fragment.extend(chosen.action, chosen.target.sample(rng))
        steps_taken += 1
        status = schema.classify_step(fragment)


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
    in :func:`sample_event`, whose walk this reads under
    :class:`EventuallyReach` at its first hit.
    """
    result = _walk(
        automaton, adversary, start, EventuallyReach(target), rng,
        max_steps, guards,
    )
    elapsed = (
        time_of(result.final.lstate) - time_of(start.lstate)
        if result.verdict
        else None
    )
    if obs.enabled():
        _record_time_sample(elapsed, result.steps)
    return elapsed


def _record_time_sample(elapsed: Optional[Fraction], steps: int) -> None:
    """Metrics for one time-to-target sample (recording registries only)."""
    obs.incr("sampler.time_samples")
    obs.incr("sampler.steps", steps)
    if elapsed is None:
        obs.incr("sampler.unreached")
    else:
        obs.observe("sampler.time_to_target", float(elapsed))

