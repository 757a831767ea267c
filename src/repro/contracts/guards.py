"""Runtime contract checks for the sampling/verification hot paths.

Each check takes the active :class:`~repro.contracts.config.GuardConfig`
first and is a no-op when ``config.checking`` is false — callers are
expected to hoist that test out of their inner loops.  Violations are
routed through :func:`report_violation`, which raises in strict mode and
counts + warns-once-per-site in warn mode.

Checks consume **no randomness** from the caller's sample streams: the
closure spot check takes its own rng, derived by the backend from a
separate ``"contracts"`` seed label.  This is what keeps ``--guards
warn`` output byte-identical to ``--guards off`` on healthy models.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from typing import Dict, Optional, Set, Tuple

from repro import obs
from repro.adversary.base import Adversary, AdversarySchema
from repro.automaton.automaton import ProbabilisticAutomaton
from repro.automaton.execution import ExecutionFragment
from repro.automaton.transition import Transition
from repro.contracts.config import GuardConfig
from repro.errors import (
    AdversaryContractError,
    ContractViolation,
    DistributionError,
    ReproError,
)
from repro.probability.space import as_fraction

#: Sites already warned about in this process (warn mode prints each
#: distinct site once).  Forked pool workers inherit a copy, so a site
#: may be warned once per worker; counters are merged exactly.
_warned_sites: Set[str] = set()
_MAX_WARNED_SITES = 4096

#: Transitions whose target distribution already passed the Definition
#: 2.1 check, keyed by id.  The mapped value keeps the transition alive
#: so a dead object's id cannot be reused and spuriously hit the cache.
_validated_transitions: Dict[int, Transition] = {}
_MAX_VALIDATED = 100_000

_ZERO = Fraction(0)


def reset_warnings() -> None:
    """Forget warned sites (used by tests and fresh CLI invocations)."""
    _warned_sites.clear()


def forget_validated_transitions() -> None:
    """Empty the validated-distribution cache, releasing its transitions.

    Called when a sampling command ends (``repro.cli``), so one
    command's transitions never outlive it.
    """
    _validated_transitions.clear()


def report_violation(config: GuardConfig, error: ContractViolation) -> None:
    """Dispatch a violation according to the guard mode.

    Strict: raises ``error``.  Warn: increments ``contracts.violations``
    and ``contracts.<kind>`` counters and prints one stderr warning per
    distinct ``error.site``.  Never called in off mode.

    The warning goes out as one ``write`` of the whole line: forked pool
    workers share the parent's stderr, and ``print`` writes the message
    and its newline separately, so two workers' warnings could share a
    line.
    """
    if obs.enabled():
        obs.incr("contracts.violations")
        obs.incr(f"contracts.{type(error).kind}")
    if config.strict:
        raise error
    if error.site not in _warned_sites and len(_warned_sites) < _MAX_WARNED_SITES:
        _warned_sites.add(error.site)
        sys.stderr.write(f"repro: contract warning: {error}\n")


def check_transition_distribution(
    config: GuardConfig, step: Transition, *, cache: bool = True
) -> Optional[ContractViolation]:
    """Definition 2.1: the step's target must sum exactly to 1.

    Successful checks are cached per transition object, so repeatedly
    scheduled steps (the common case: :class:`FunctionalAutomaton`
    memoises its transitions) cost one dict lookup after the first
    visit.  ``cache=False`` checks in full and leaves the cache alone,
    for callers that check each transition exactly once (the state-space
    compile), where remembering it would only keep it alive.  Returns
    the violation in warn mode so callers can inspect it; raises in
    strict mode.
    """
    if cache and id(step) in _validated_transitions:
        return None
    error: Optional[ContractViolation] = None
    try:
        total = _ZERO
        points = 0
        for point, weight in step.target.items():
            points += 1
            w = as_fraction(weight)
            if w <= 0:
                error = DistributionError(
                    f"target of {step.action!r} gives {point!r} a nonpositive "
                    f"weight {w}",
                    state=step.source,
                    action=step.action,
                    site=f"distribution:{step.source!r}:{step.action!r}",
                )
                break
            # The first weight starts the sum: a point mass adds nothing.
            total = w if points == 1 else total + w
        if error is None and (points == 0 or total != 1):
            error = DistributionError(
                f"target of {step.action!r} sums to {total} over {points} "
                f"points; Definition 2.1 requires exactly 1",
                state=step.source,
                action=step.action,
                site=f"distribution:{step.source!r}:{step.action!r}",
            )
    except (ReproError, TypeError, ValueError) as exc:
        error = DistributionError(
            f"target of {step.action!r} is not a probability space: {exc}",
            state=step.source,
            action=step.action,
            site=f"distribution:{step.source!r}:{step.action!r}",
        )
    if error is None:
        if cache:
            if len(_validated_transitions) >= _MAX_VALIDATED:
                _validated_transitions.clear()
            _validated_transitions[id(step)] = step
        return None
    report_violation(config, error)
    return error


def check_chosen_step(
    config: GuardConfig,
    automaton: ProbabilisticAutomaton,
    fragment: ExecutionFragment,
    step: Transition,
    adversary_name: str = "",
) -> None:
    """Definition 2.2: the scheduled step must be enabled here.

    Checks the step's source matches the fragment's last state, that
    the step is one of the automaton's transitions from that state, and
    that its target distribution is well-formed (Definition 2.1).

    Fast path: a well-behaved adversary returns one of the automaton's
    own (memoised) transition objects, so an identity scan plus the
    validated-distribution cache settles the common case without any
    state or distribution equality comparison.
    """
    last = fragment.lstate
    try:
        steps = automaton.transitions(last)
    except ReproError as exc:
        report_violation(
            config,
            AdversaryContractError(
                f"cannot enumerate transitions from {last!r} while checking "
                f"adversary {adversary_name or '<anonymous>'}: {exc}",
                state=last,
                action=step.action,
                site=f"adversary-enabled:{adversary_name}",
            ),
        )
        return
    for known in steps:
        if known is step:
            # Enabled by identity; the automaton already guarantees the
            # source matches the state it was queried at.
            if id(step) not in _validated_transitions:
                check_transition_distribution(config, step)
            return
    if step.source != last:
        report_violation(
            config,
            AdversaryContractError(
                f"adversary {adversary_name or '<anonymous>'} scheduled a step "
                f"from {step.source!r} but the execution ends in {last!r}",
                state=last,
                action=step.action,
                prefix=fragment_prefix_repr(fragment),
                site=f"adversary-source:{adversary_name}",
            ),
        )
        return
    if step not in steps:
        report_violation(
            config,
            AdversaryContractError(
                f"adversary {adversary_name or '<anonymous>'} scheduled "
                f"{step.action!r}, which is not enabled in {last!r}",
                state=last,
                action=step.action,
                prefix=fragment_prefix_repr(fragment),
                site=f"adversary-enabled:{adversary_name}:{step.action!r}",
            ),
        )
        return
    check_transition_distribution(config, step)


def check_schema_membership(
    config: GuardConfig,
    schema: Optional[AdversarySchema],
    adversary: Adversary,
    adversary_name: str = "",
) -> None:
    """Definition 2.6: the adversary must lie in its declared schema."""
    if schema is None:
        return
    try:
        member = schema.contains(adversary)
    except ReproError as exc:
        member = False
        detail = f" (membership test raised: {exc})"
    else:
        detail = ""
    if not member:
        report_violation(
            config,
            AdversaryContractError(
                f"adversary {adversary_name or adversary!r} is outside its "
                f"declared schema {schema.name!r}{detail}",
                site=f"schema:{schema.name}:{adversary_name}",
            ),
        )


def spot_check_closure(
    config: GuardConfig,
    schema: Optional[AdversarySchema],
    adversary: Adversary,
    fragment: ExecutionFragment,
    rng,
    adversary_name: str = "",
) -> None:
    """Definition 3.3 probe: shifting must stay inside the schema.

    ``rng`` must be a stream reserved for guard checks (never the
    sample stream), so enabling guards cannot perturb sampled results.
    """
    if schema is None or not schema.execution_closed:
        return
    try:
        schema.spot_check_closure(adversary, fragment, rng, probes=1)
    except ContractViolation as error:
        if not error.site:
            error.site = f"closure:{schema.name}:{adversary_name}"
        report_violation(config, error)


def fragment_prefix_repr(fragment: ExecutionFragment, limit: int = 200) -> str:
    """A truncated textual repro of the offending execution prefix."""
    text = repr(fragment)
    if len(text) > limit:
        text = text[: limit - 3] + "..."
    return text


def describe_violation(error: ContractViolation) -> Tuple[str, str]:
    """The picklable ``(kind, message)`` pair quarantine records carry."""
    return type(error).kind, str(error)
