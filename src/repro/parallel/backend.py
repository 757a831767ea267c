"""Task definitions for parallel Monte-Carlo verification.

An arrow statement ``U --t-->_p U'`` quantifies over every adversary in
a schema and every start state in ``U`` (Definition 3.1), so a sampling
check factors into independent (adversary, start state) pair tasks; an
expected-time measurement factors into independent per-start tasks.
This module defines those tasks as plain data plus pure execution
functions, suitable for :func:`repro.parallel.pool.run_tasks` — heavy
objects travel in the (fork-inherited) context, tiny descriptors and
plain-data outcomes cross the process boundary.

Each pair is sampled in chunks from its own derived RNG stream.  With
``early_stop`` enabled, sampling halts once the pair's exact
Clopper-Pearson bounds already decide it against the claimed
probability at the requested confidence — the recorded summary then
still produces the same supported/refuted classification the full
sample budget would have recorded *for that bound* (the decision is
re-derived from the recorded counts, never stored separately; see
``docs/parallel.md`` for the soundness argument).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Hashable, List, Optional, Sequence, Tuple, TypeVar

from repro import obs
from repro.adversary.base import Adversary
from repro.contracts import OFF_CONFIG, GuardConfig
from repro.contracts.guards import (
    check_schema_membership,
    describe_violation,
    spot_check_closure,
)
from repro.errors import CheckpointError, ContractViolation
from repro.automaton.automaton import ProbabilisticAutomaton
from repro.automaton.execution import ExecutionFragment
from repro.parallel.seeds import derive_rng, rng_from_seed
from repro.probability.stats import (
    BernoulliSummary,
    clopper_pearson_lower,
    clopper_pearson_upper,
)
from repro.statespace.engine import Engine, TreeEngine

State = TypeVar("State", bound=Hashable)

DEFAULT_CHUNK_SIZE = 32


# ----------------------------------------------------------------------
# Arrow-statement pair checks
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ArrowPairContext:
    """Everything every pair task needs; inherited by workers via fork."""

    automaton: ProbabilisticAutomaton
    adversaries: Tuple[Tuple[str, Adversary], ...]
    start_states: Tuple[object, ...]
    target: Callable[[object], bool]
    time_bound: object
    time_of: Callable[[object], Fraction]
    samples_per_pair: int
    max_steps: int
    claimed: float
    confidence: float
    early_stop: bool
    chunk_size: int
    #: The schema the adversaries are declared to range over; used by the
    #: guard layer for membership and execution-closure spot checks.
    schema: object = None
    #: Contract-check settings.  Part of the fork-inherited context, so
    #: pooled workers enforce identically to ``workers=1``.
    guards: GuardConfig = OFF_CONFIG
    #: The evaluation engine (``repro.statespace.engine``).  Compiled
    #: tables and their flat arrays ride here, fork-inherited, so
    #: workers never recompile or reflatten.  ``None`` means "build a
    #: tree engine lazily" (kept for callers that assemble contexts by
    #: hand).
    engine: Optional[Engine] = None


@dataclass(frozen=True)
class PairTask:
    """One (adversary, start state) unit of sampling work."""

    index: int
    adversary_index: int
    start_index: int
    seed: int


@dataclass(frozen=True)
class PairOutcome:
    """Plain-data result of one pair task (picklable).

    ``violation`` is ``None`` for a healthy pair; a quarantined pair
    carries the ``(kind, message)`` of the strict-mode
    :class:`~repro.errors.ContractViolation` that poisoned it, and its
    counts are all zero.
    """

    index: int
    successes: int
    trials: int
    truncated: int
    violation: Optional[Tuple[str, str]] = None


def pair_decided(
    successes: int, trials: int, claimed: float, confidence: float
) -> bool:
    """True when the recorded counts already classify the pair.

    Either the exact lower confidence bound certifies the claimed
    probability (the pair supports the statement) or the exact upper
    bound falls below it (the pair refutes it); more samples can only
    re-derive a classification the report would already print.
    """
    summary = BernoulliSummary(successes, trials)
    if clopper_pearson_lower(summary, confidence) >= claimed:
        return True
    return clopper_pearson_upper(summary, confidence) < claimed


def execute_pair(context: ArrowPairContext, task: PairTask) -> PairOutcome:
    """Sample one pair from its own seeded stream, chunked.

    Deterministic in (context, task) alone: the same derived seed
    yields the same outcome whether this runs inline, or in any worker
    of any pool size.  Guard checks draw from a separately derived
    ``"contracts"`` stream, never from the pair's sample stream, so
    warn-mode results are byte-identical to guards-off on healthy
    models.  A strict-mode :class:`~repro.errors.ContractViolation` is
    caught here and returned as a quarantined outcome — one poisoned
    pair must degrade, not abort the whole run.
    """
    adversary_name, adversary = context.adversaries[task.adversary_index]
    engine = context.engine
    if engine is None:
        engine = _tree_engine_for_pairs(context)
    rng = rng_from_seed(task.seed)
    chunk_size = (
        context.chunk_size if context.early_stop else context.samples_per_pair
    )
    guards = context.guards
    checking = guards.checking
    closure_pending = checking and context.schema is not None
    successes = 0
    truncated = 0
    trials = 0
    try:
        if checking:
            check_schema_membership(
                guards, context.schema, adversary, adversary_name
            )
        while trials < context.samples_per_pair:
            for _ in range(min(chunk_size, context.samples_per_pair - trials)):
                result = engine.sample(
                    task.adversary_index,
                    task.start_index,
                    rng,
                    want_fragment=closure_pending,
                )
                if closure_pending:
                    closure_pending = False
                    spot_check_closure(
                        guards,
                        context.schema,
                        adversary,
                        result.final,
                        derive_rng(task.seed, "contracts"),
                        adversary_name,
                    )
                trials += 1
                if result.truncated:
                    truncated += 1
                elif result.verdict:
                    successes += 1
            if context.early_stop and pair_decided(
                successes, trials, context.claimed, context.confidence
            ):
                break
    except ContractViolation as violation:
        if obs.enabled():
            obs.incr("contracts.quarantined")
        return PairOutcome(
            index=task.index, successes=0, trials=0, truncated=0,
            violation=describe_violation(violation),
        )
    if obs.enabled():
        obs.incr("verifier.pairs")
        obs.incr("verifier.samples", trials)
        obs.incr("verifier.successes", successes)
        obs.incr("verifier.truncated", truncated)
        obs.observe("verifier.pair_estimate", successes / trials)
    return PairOutcome(
        index=task.index, successes=successes, trials=trials,
        truncated=truncated,
    )


def _tree_engine_for_pairs(context: ArrowPairContext) -> TreeEngine:
    """The default tree engine for a hand-assembled pair context."""
    return TreeEngine(
        automaton=context.automaton,
        adversaries=context.adversaries,
        start_states=context.start_states,
        target=context.target,
        time_of=context.time_of,
        time_bound=context.time_bound,
        max_steps=context.max_steps,
        guards=context.guards,
    )


# ----------------------------------------------------------------------
# Time-to-target per-start tasks
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TimeStartContext:
    """Shared context for per-start time-to-target tasks."""

    automaton: ProbabilisticAutomaton
    adversary: Adversary
    start_states: Tuple[object, ...]
    target: Callable[[object], bool]
    time_of: Callable[[object], Fraction]
    samples_per_start: int
    max_steps: int
    adversary_name: str = ""
    schema: object = None
    guards: GuardConfig = OFF_CONFIG
    #: Evaluation engine, as in :class:`ArrowPairContext`.
    engine: Optional[Engine] = None


@dataclass(frozen=True)
class TimeStartTask:
    """All the replicates of one start state."""

    index: int
    start_index: int
    seed: int


@dataclass(frozen=True)
class TimeStartOutcome:
    """Reached times (in replicate order) and unreached count.

    ``violation`` marks a quarantined start, as in :class:`PairOutcome`.
    """

    index: int
    times: Tuple[Fraction, ...]
    unreached: int
    violation: Optional[Tuple[str, str]] = None


def execute_time_start(
    context: TimeStartContext, task: TimeStartTask
) -> TimeStartOutcome:
    """Sample every replicate of one start state from its own stream.

    Guard semantics match :func:`execute_pair`: checks draw no
    randomness from the sample stream, and a strict violation
    quarantines this start instead of aborting the run.
    """
    start = context.start_states[task.start_index]
    engine = context.engine
    if engine is None:
        engine = _tree_engine_for_time(context)
    rng = rng_from_seed(task.seed)
    guards = context.guards
    closure_pending = guards.checking and context.schema is not None
    times: List[Fraction] = []
    unreached = 0
    try:
        if guards.checking:
            check_schema_membership(
                guards, context.schema, context.adversary,
                context.adversary_name,
            )
        for _ in range(context.samples_per_start):
            elapsed = engine.time_to_target(0, task.start_index, rng)
            if closure_pending:
                closure_pending = False
                # sample_time_until does not return its final fragment;
                # probe closure on a short prefix resampled from the
                # dedicated contracts stream instead.
                probe = _closure_probe_fragment(context, start, task.seed)
                spot_check_closure(
                    guards,
                    context.schema,
                    context.adversary,
                    probe,
                    derive_rng(task.seed, "contracts", "cut"),
                    context.adversary_name,
                )
            if elapsed is None:
                unreached += 1
            else:
                times.append(elapsed)
    except ContractViolation as violation:
        if obs.enabled():
            obs.incr("contracts.quarantined")
        return TimeStartOutcome(
            index=task.index, times=(), unreached=0,
            violation=describe_violation(violation),
        )
    return TimeStartOutcome(
        index=task.index, times=tuple(times), unreached=unreached
    )


def _tree_engine_for_time(context: TimeStartContext) -> TreeEngine:
    """The default tree engine for a hand-assembled time context."""
    return TreeEngine(
        automaton=context.automaton,
        adversaries=((context.adversary_name, context.adversary),),
        start_states=context.start_states,
        target=context.target,
        time_of=context.time_of,
        time_bound=None,
        max_steps=context.max_steps,
        guards=context.guards,
    )


def _closure_probe_fragment(
    context: TimeStartContext, start, seed: int, probe_steps: int = 8
):
    """A short execution sampled from the dedicated contracts stream.

    Used only to feed the execution-closure spot check; consuming the
    separate ``"contracts"`` stream keeps the measured times identical
    across guard modes.
    """
    rng = derive_rng(seed, "contracts", "walk")
    fragment = ExecutionFragment.initial(start)
    for _ in range(probe_steps):
        chosen = context.adversary.choose(context.automaton, fragment)
        if chosen is None:
            break
        fragment = fragment.extend(chosen.action, chosen.target.sample(rng))
    return fragment


# ----------------------------------------------------------------------
# Checkpoint codecs
# ----------------------------------------------------------------------


def encode_pair_outcome(outcome: PairOutcome) -> dict:
    """A :class:`PairOutcome` as checkpoint JSON (index omitted).

    The task's position in the current run is *not* stored: a resumed
    run may enumerate tasks differently (say, a different number of
    random start states), and the seed — not the position — is the
    task's identity.  ``decode_pair_outcome`` re-attaches the current
    run's index.
    """
    record = {
        "successes": outcome.successes,
        "trials": outcome.trials,
        "truncated": outcome.truncated,
    }
    if outcome.violation is not None:
        record["violation"] = list(outcome.violation)
    return record


def decode_pair_outcome(record: dict, task: PairTask) -> PairOutcome:
    """Rebuild a :class:`PairOutcome` from its checkpoint record."""
    try:
        return PairOutcome(
            index=task.index,
            successes=int(record["successes"]),
            trials=int(record["trials"]),
            truncated=int(record["truncated"]),
            violation=_decode_violation(record.get("violation")),
        )
    except (KeyError, TypeError, ValueError) as error:
        raise CheckpointError(
            f"checkpoint record for task seed {task.seed} does not "
            f"decode into a pair outcome: {error}"
        ) from error


def encode_time_outcome(outcome: TimeStartOutcome) -> dict:
    """A :class:`TimeStartOutcome` as checkpoint JSON.

    Times are exact rationals; ``str(Fraction)`` round-trips them
    losslessly (``"7/2"`` / ``"3"``), keeping resumed reports
    bit-identical to uninterrupted ones.
    """
    record = {
        "times": [str(elapsed) for elapsed in outcome.times],
        "unreached": outcome.unreached,
    }
    if outcome.violation is not None:
        record["violation"] = list(outcome.violation)
    return record


def decode_time_outcome(
    record: dict, task: TimeStartTask
) -> TimeStartOutcome:
    """Rebuild a :class:`TimeStartOutcome` from its checkpoint record."""
    try:
        return TimeStartOutcome(
            index=task.index,
            times=tuple(Fraction(elapsed) for elapsed in record["times"]),
            unreached=int(record["unreached"]),
            violation=_decode_violation(record.get("violation")),
        )
    except (KeyError, TypeError, ValueError) as error:
        raise CheckpointError(
            f"checkpoint record for task seed {task.seed} does not "
            f"decode into a time-to-target outcome: {error}"
        ) from error


def _decode_violation(raw) -> Optional[Tuple[str, str]]:
    """Decode an optional ``[kind, message]`` checkpoint field."""
    if raw is None:
        return None
    if (
        not isinstance(raw, (list, tuple))
        or len(raw) != 2
        or not all(isinstance(part, str) for part in raw)
    ):
        raise CheckpointError(
            f"checkpoint violation field does not decode: {raw!r}"
        )
    return (raw[0], raw[1])


def occurrence_indices(keys: Sequence[object]) -> List[int]:
    """The occurrence index of each key among its equals, in order.

    Seed derivation includes this index so duplicate (adversary, start)
    pairs still draw independent streams, while *unrelated* additions
    to the family never shift an existing pair's stream (a global
    enumeration index would).
    """
    seen: dict = {}
    indices: List[int] = []
    for key in keys:
        occurrence = seen.get(key, 0)
        seen[key] = occurrence + 1
        indices.append(occurrence)
    return indices
